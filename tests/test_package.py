import ast
import importlib
import inspect
import pkgutil

import pytest

import dipolarray

MODULES = ["dipolarray"] + [f"dipolarray.{m.name}" for m in pkgutil.iter_modules(dipolarray.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_star_import():
    namespace = {}
    exec("from dipolarray import *", namespace)
    assert set(dipolarray.__all__) <= namespace.keys()


@pytest.mark.parametrize("name", [m for m in MODULES if m != "dipolarray.basis"])
def test_one_memory_budget(name):
    # the size caps live in basis: other modules call require_memory with
    # their own byte estimate and neither raise the error nor keep a cap
    nodes = list(ast.walk(ast.parse(inspect.getsource(importlib.import_module(name)))))
    raised = [n.lineno for n in nodes if isinstance(n, ast.Call)
              and getattr(n.func, "id", getattr(n.func, "attr", None)) == "ResourceLimitError"]
    caps = [n.id for n in nodes if isinstance(n, ast.Name) and n.id.endswith("_BYTES_MAX")]
    assert (raised, caps) == ([], [])


@pytest.mark.parametrize("name", [m for m in MODULES if m != "dipolarray.hamiltonian"])
def test_assembled_blocks_stay_in_hamiltonian(name):
    # the library evolves the orbit blocks of SpinHamiltonian.dicke_sectors:
    # no other module reads .blocks or .sectors
    nodes = list(ast.walk(ast.parse(inspect.getsource(importlib.import_module(name)))))
    reads = [n.lineno for n in nodes if isinstance(n, ast.Attribute) and n.attr in ("blocks", "sectors")]
    assert reads == []


def np_attributes(node: ast.AST, names: tuple[str, ...]) -> list[int]:
    """Lines of the ``np.<name>`` references under ``node``."""
    return [n.lineno for n in ast.walk(node) if isinstance(n, ast.Attribute) and n.attr in names
            and isinstance(n.value, ast.Name) and n.value.id == "np"]


@pytest.mark.parametrize("name", ["dipolarray.phonon", "dipolarray.spinwave", "dipolarray.dynamics"])
def test_trig_only_in_the_kernel(name):
    # every lattice and mode sum takes its sines and cosines, and every
    # spectral sum of the projections its phase factors, from
    # sin2._sin2_sum, which slices and bounds them; dynamics keeps only the
    # carrier's exp, the phase's cos and the states' exp
    tree = ast.parse(inspect.getsource(importlib.import_module(name)))
    names = ("expm1",) if name == "dipolarray.dynamics" else ("sin", "cos")
    assert np_attributes(tree, names) == []


@pytest.mark.parametrize("name", MODULES)
def test_no_masked_arrays(name):
    # np.quantile and np.percentile import numpy.ma on their first call,
    # which every run that reaches them pays
    tree = ast.parse(inspect.getsource(importlib.import_module(name)))
    imports = [n.lineno for n in ast.walk(tree)
               if (isinstance(n, ast.Import) and any(a.name.startswith("numpy.ma") for a in n.names))
               or (isinstance(n, ast.ImportFrom) and (n.module or "").startswith("numpy")
                   and ((n.module or "").startswith("numpy.ma") or any(a.name == "ma" for a in n.names)))]
    assert (np_attributes(tree, ("quantile", "percentile", "ma")), imports) == ([], [])
