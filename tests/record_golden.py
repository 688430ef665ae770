"""Golden outputs of the shipped configs: record them, and compare a run with them.

    PYTHONPATH=src python tests/record_golden.py

runs every ``configs/*.cfg`` and writes ``tests/golden/<config>.json``.  A
file holds every ``summary.json`` value of the run, diagnostics included,
and for each CSV column its largest magnitude, its sum and every 20th row
(plus the row count and any ``#`` preamble lines).
``tests/test_cli.py::test_shipped_config_reruns_byte_identical`` compares
each config's first run with its file through :func:`assert_matches_golden`.

One tolerance holds for every file:

- summary floats agree within ``RTOL`` relative;
- CSV entries and each column's largest magnitude agree within ``CSV_RTOL``
  of the recorded largest magnitude, and column sums within that times the
  row count;
- strings, ints, bools, nulls, key sets and lengths agree exactly.

A change that moves a value beyond this re-records the files and lists the
move in CHANGES.md; the git diff of ``tests/golden/`` then shows it.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
EVERY = 20
RTOL = 1e-9
CSV_RTOL = 1e-8


def _csv_digest(path: Path) -> dict:
    lines = path.read_text().splitlines()
    header, *rows = [line for line in lines if not line.startswith("#")]
    table = np.array([[float(v) for v in row.split(",")] for row in rows])
    return {
        "preamble": [line for line in lines if line.startswith("#")],
        "rows": len(rows),
        "columns": {name: {"max_abs": float(np.abs(col).max()), "sum": float(col.sum()),
                           "every_20th": col[::EVERY].tolist()}
                    for name, col in zip(header.split(","), table.T)},
    }


def digest(root: Path) -> dict:
    """The golden record of a ``sim run --out root`` directory, keyed by the
    path of each ``summary.json`` and CSV file under it."""
    out = {}
    for path in sorted(root.rglob("*")):
        name = path.relative_to(root).as_posix()
        if path.name == "summary.json":
            out[name] = json.loads(path.read_text())
        elif path.suffix == ".csv":
            out[name] = _csv_digest(path)
    return out


def _mismatches(got, want, where: str):
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            yield f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(want)}"
            return
        for k in want:
            yield from _mismatches(got[k], want[k], f"{where}.{k}")
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            yield f"{where}: {got!r} != {want!r}"
            return
        for i, (g, w) in enumerate(zip(got, want)):
            yield from _mismatches(g, w, f"{where}[{i}]")
    elif type(want) is float and type(got) is float:
        tol = RTOL * abs(want)
        if not abs(got - want) <= tol:
            yield f"{where}: {got!r} != {want!r} (tolerance {tol:.3g})"
    elif type(got) is not type(want) or got != want:
        yield f"{where}: {got!r} != {want!r}"


def _csv_mismatches(got: dict, want: dict, where: str):
    for k in ("preamble", "rows"):
        yield from _mismatches(got[k], want[k], f"{where}.{k}")
    if list(got["columns"]) != list(want["columns"]):
        yield f"{where}: columns {list(got['columns'])} != {list(want['columns'])}"
        return
    for name, w in want["columns"].items():
        g, tol = got["columns"][name], CSV_RTOL * w["max_abs"]
        pairs = [("max_abs", g["max_abs"], w["max_abs"], tol), ("sum", g["sum"], w["sum"], tol * want["rows"])]
        pairs += [(f"every_20th[{i}]", a, b, tol) for i, (a, b) in enumerate(zip(g["every_20th"], w["every_20th"]))]
        for label, a, b, bound in pairs:
            if not abs(a - b) <= bound:
                yield f"{where}.{name}.{label}: {a!r} != {b!r} (tolerance {bound:.3g})"


def assert_matches_golden(root: Path, golden: Path) -> None:
    """Every value of the run under ``root`` is within the declared tolerance
    of the golden file ``golden``."""
    want, got = json.loads(golden.read_text()), digest(root)
    bad = [] if got.keys() == want.keys() else [f"files {sorted(got)} != {sorted(want)}"]
    for name in want.keys() & got.keys():
        check = _csv_mismatches if name.endswith(".csv") else _mismatches
        bad += check(got[name], want[name], name)
    assert not bad, f"{golden.name}: " + "; ".join(bad)


def main() -> None:
    from dipolarray.cli import main as sim

    GOLDEN.mkdir(exist_ok=True)
    for config in sorted((ROOT / "configs").glob("*.cfg")):
        with tempfile.TemporaryDirectory() as tmp:
            if sim(["run", str(config), "--out", tmp]) != 0:
                sys.exit(f"{config.name}: sim run failed")
            (GOLDEN / f"{config.stem}.json").write_text(json.dumps(digest(Path(tmp)), indent=1) + "\n")
        print(f"wrote {GOLDEN.name}/{config.stem}.json")


if __name__ == "__main__":
    main()
