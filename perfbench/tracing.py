"""Spans around dipolarray's public functions, kept in memory.

``install`` replaces each function named in ``SPANS`` by a timing wrapper in
every ``dipolarray`` module namespace that holds it: the defining module,
modules that import it from there (``dipolarray.cli.compute_trajectory``,
``dipolarray.hamiltonian.sector_basis``, ...) and the package itself.  Calls
made inside ``cli.run`` or from one layer into another are then attributed
to their layer.  Functions the library does not (or no longer) define are
skipped and reported.

A layer metric is the self time of its spans: each span's duration minus the
time its child spans cover.  Work counts come from the same wrappers, read
from the arguments and results of the wrapped calls.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

# module -> {function: metric its self time adds to}
SPANS = {
    "lattice": {
        "build_lattice": "lattice.build_s",
        "coupling_kernel": "lattice.kernel_s",
        "displacements": "lattice.kernel_s",
        "momentum_grid": "lattice.grid_s",
    },
    "basis": {
        "sector_basis": "basis.sector_s",
        "dicke_state": "basis.sector_s",
    },
    "hamiltonian": {
        "full_hamiltonian": "hamiltonian.assemble_s",
        "exchange_hamiltonian": "hamiltonian.assemble_s",
        "gate_params": "hamiltonian.gate_params_s",
        "chi_eff": "hamiltonian.gate_params_s",
    },
    "dynamics": {
        "compute_trajectory": "dynamics.trajectory_s",
        "dicke_projections": "dynamics.trajectory_s",
        "evolve": "dynamics.trajectory_s",
        "gate_time": "dynamics.gate_s",
    },
    "spinwave": {
        "dispersion_asymptote_check": "spinwave.asymptote_s",
        "dispersion_curve": "spinwave.asymptote_s",
        "dispersion": "spinwave.dispersion_s",
        "spin_wave_energies": "spinwave.dispersion_s",
        "fourier_kernel": "spinwave.dispersion_s",
        "perturbative_decay2": "spinwave.decay2_s",
        "fgr_scaling_diagnostic": "spinwave.scaling_s",
    },
    "stark": {
        "dressed_pair": "stark.dressed_s",
        "rotor_eigensystem": "stark.dressed_s",
        "xi_kappa_sweep": "stark.dressed_s",
    },
    "phonon": {
        "build_phonon_model": "phonon.model_s",
        "phonon_spectrum": "phonon.model_s",
        "dynamical_matrix": "phonon.model_s",
        "coupling_weight_g": "phonon.model_s",
        "gamma1_time": "phonon.gamma1_s",
        "gamma2": "phonon.gamma2_s",
        "gamma1_fgr": "phonon.fgr_s",
    },
    "cli": {
        "run": "cli.run_s",
    },
}

TIME_METRICS = tuple(dict.fromkeys(m for table in SPANS.values() for m in table.values()))


def _sector_counts(args, kwargs, basis) -> dict:
    return {"basis.sector_dim": basis.dim}


def _hamiltonian_counts(args, kwargs, ham) -> dict:
    block = ham.blocks[2]
    sparse = ham.is_sparse(2)
    nnz = block.nnz if sparse else int((block != 0).sum())
    return {"hamiltonian.dim2": ham.dim(2), "hamiltonian.nnz2": nnz,
            "hamiltonian.sparse_blocks": int(sparse)}


def evaluated_points(requested: int, returned: int) -> int:
    """Grid points evaluated over all refinement rounds.

    Each round evaluates the doubled grid, 2^r (n0 - 1) + 1 points in round
    r, and the last round's grid is the one returned.
    """
    if returned <= requested or requested < 2:
        return returned
    rounds = round(math.log2((returned - 1) / (requested - 1)))
    return sum(2**r * (requested - 1) + 1 for r in range(rounds + 1))


def _trajectory_counts(args, kwargs, traj) -> dict:
    times = kwargs["times"] if "times" in kwargs else args[1]
    n = len(traj.times)
    return {"dynamics.grid_points": n,
            "dynamics.points_evaluated": evaluated_points(len(times), n)}


def _stark_counts(args, kwargs, pair) -> dict:
    return {"stark.points": 1}


def _gamma2_counts(args, kwargs, decay) -> dict:
    model = args[0]
    m = model.grid.n_points
    # ordered pairs (k, k') with phonon q = -(k + k') != 0, times branches
    pairs = m * (m - 1) * model.n_branches
    # computed: one float64 (time x pair-mode) array
    return {"phonon.gamma2_pairs": pairs, "phonon.gamma2_bytes": 8 * len(decay.times) * pairs}


def _cli_counts(args, kwargs, outdir) -> dict:
    return {"cli.bytes_written": sum(p.stat().st_size for p in outdir.rglob("*") if p.is_file())}


COUNTERS = {
    "basis.sector_basis": _sector_counts,
    "hamiltonian.full_hamiltonian": _hamiltonian_counts,
    "hamiltonian.exchange_hamiltonian": _hamiltonian_counts,
    "dynamics.compute_trajectory": _trajectory_counts,
    "dynamics.dicke_projections": _trajectory_counts,
    "stark.dressed_pair": _stark_counts,
    "phonon.gamma2": _gamma2_counts,
    "cli.run": _cli_counts,
}

COUNT_METRICS = (
    "basis.sector_dim",
    "hamiltonian.dim2",
    "hamiltonian.nnz2",
    "hamiltonian.sparse_blocks",
    "dynamics.grid_points",
    "stark.points",
    "phonon.gamma2_pairs",
    "phonon.gamma2_bytes",
    "cli.bytes_written",
)


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    task: str | None
    name: str
    start: float
    end: float


class Tracer:
    """Records spans and counts of the wrapped calls of one process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.task: str | None = None
        # tracemalloc peak inside outermost phonon calls, when measuring
        self.measure_alloc = False
        self.alloc_peak = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._phonon_depth = 0

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()

    def _open(self) -> tuple[int, int | None]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append(Span(sid, parent, self.task, name, start, end))

    @contextmanager
    def task_span(self, task: str):
        """Root span of one task; spans opened inside carry its id."""
        self.task = task
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, parent, "task", start)
            self.task = None

    def wrap(self, fn, name: str):
        counter = COUNTERS.get(name)
        phonon = name.startswith("phonon.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            track = self.measure_alloc and phonon and self._phonon_depth == 0
            if phonon:
                self._phonon_depth += 1
            if track:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            sid, parent = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, parent, name, start)
                if phonon:
                    self._phonon_depth -= 1
            if track:
                self.alloc_peak = max(self.alloc_peak, tracemalloc.get_traced_memory()[1] - base)
            if counter is not None:
                # a span of its own, so counting is not charged to the caller
                sid, parent = self._open()
                start = time.perf_counter()
                try:
                    self.counts.update(counter(args, kwargs, result))
                finally:
                    self._close(sid, parent, "trace.count", start)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Self time per span name over the recorded spans."""
        covered: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += (s.end - s.start) - covered[s.id]
        return out


def install(tracer: Tracer) -> tuple[list, list[str]]:
    """Wrap every function in SPANS; returns (restore list, missing names)."""
    modules = {name: importlib.import_module(f"dipolarray.{name}") for name in SPANS}
    namespaces = [m for n, m in sys.modules.items() if n == "dipolarray" or n.startswith("dipolarray.")]
    patched, missing = [], []
    for mod_name, table in SPANS.items():
        for fname in table:
            fn = getattr(modules[mod_name], fname, None)
            if not callable(fn):
                missing.append(f"{mod_name}.{fname}")
                continue
            wrapper = tracer.wrap(fn, f"{mod_name}.{fname}")
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, key, wrapper)
                        patched.append((ns, key, fn))
    return patched, missing


def uninstall(patched: list) -> None:
    for ns, key, fn in reversed(patched):
        setattr(ns, key, fn)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer self times and counts of the spans recorded since reset."""
    selfs = tracer.self_times()
    out = dict.fromkeys(TIME_METRICS, 0.0)
    for mod_name, table in SPANS.items():
        for fname, metric in table.items():
            out[metric] += selfs.get(f"{mod_name}.{fname}", 0.0)
    for name in COUNT_METRICS:
        out[name] = tracer.counts.get(name, 0)
    evaluated = tracer.counts.get("dynamics.points_evaluated", 0)
    out["dynamics.grid_yield"] = tracer.counts["dynamics.grid_points"] / evaluated if evaluated else 0.0
    out["trace.spans"] = len(tracer.spans)
    return out
