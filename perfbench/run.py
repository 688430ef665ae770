"""dipolarray benchmark: three workloads, checked results, every metric by name.

    python3 perfbench/run.py --workload configs|gate_large|decoherence \\
        --seed N --seconds S --trace 0|1 [--size full|tiny] [--references FILE]

A single-process, closed-loop benchmark with one client: the worker process
calls dipolarray's public API task after task, each call starting when the
previous one returned.  The seed shuffles task order and picks parameters
from fixed menus (see workloads.py); problem sizes never depend on it.

--trace 0 reports the end-to-end metrics: median wall and CPU time of one
pass over the workload's tasks, peak RSS of the worker, set-up time (import
plus warm-up, median of several fresh processes) and the share of tasks that
ran and matched their recorded reference.  --trace 1 reports the per-layer
metrics from passes with spans around dipolarray's functions, and the tracing
overhead against untraced passes of the same run.  Spans go to
.perfbench_out/ in the checkout.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  Run output goes to a temporary directory under
.perfbench_out/ that is removed at exit.  Exit code 0 means the run
completed; a missing library, a crashed worker or a run over the time limit
exits non-zero without a result line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median, median_low

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("configs", "gate_large", "decoherence")

# set-up samples: this many extra fresh processes, plus the measured one
SETUP_PROBES = 4
TIME_LIMIT_S = 175.0
# the same on both sides of a comparison.  One thread: cpu_s then counts the
# program's own work, not OpenBLAS threads spin-waiting (on gate_large two
# threads doubled CPU time for the same wall time), and a change that adds
# threads of its own shows as cpu_s > wall_s
BLAS_THREADS = 1

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_frac": "ratio",
}
PER_LAYER = {
    **dict.fromkeys(tracing.TIME_METRICS, "s"),
    **dict.fromkeys(tracing.COUNT_METRICS, "count"),
    "phonon.gamma2_bytes": "B",
    "cli.bytes_written": "B",
    "dynamics.grid_yield": "ratio",
    "phonon.alloc_peak_mb": "MB",
    "trace.spans": "count",
    "trace.overhead_frac": "ratio",
}


class WorkerError(RuntimeError):
    pass


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--size", default="full", choices=("full", "tiny"),
                   help="tiny runs every task on small inputs (the benchmark's own test)")
    p.add_argument("--references", type=Path, default=BENCH_DIR / "references.json")
    return p.parse_args(argv)


def run_worker(args, mode: str, workdir: Path, deadline: float) -> dict:
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--root", str(ROOT), "--workdir", str(workdir), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
        "--size", args.size, "--references", str(args.references.resolve()),
    ] + (["--trace"] if args.trace else [])
    # no bytecode cache: nothing is written under src/, and every set-up
    # sample compiles dipolarray alike
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker passed the {TIME_LIMIT_S:.0f} s limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(setup: list[float], res: dict) -> dict:
    passes = res["passes"]
    return {
        "wall_s": median(p["wall_s"] for p in passes),
        "cpu_s": median(p["cpu_s"] for p in passes),
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": median(setup),
        "ok_frac": (res["attempted"] - res["failed"]) / res["attempted"],
    }


def per_layer(res: dict) -> dict:
    traced = res["traced"]
    out = {}
    for name in traced[0]["metrics"]:
        values = [t["metrics"][name] for t in traced]
        # counts repeat exactly pass to pass; median_low keeps them whole numbers
        out[name] = median(values) if PER_LAYER[name] in ("s", "ratio") else median_low(values)
    out["phonon.alloc_peak_mb"] = res["alloc_peak_mb"]
    untraced_wall = median(p["wall_s"] for p in res["passes"])
    out["trace.overhead_frac"] = median(t["wall_s"] for t in traced) / untraced_wall - 1.0
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    # on SIGTERM, subprocess.run kills and reaps the worker, and the run
    # directory is removed on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "dipolarray" / "__init__.py").is_file():
        print(f"no dipolarray sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        setup = [] if args.trace else [
            run_worker(args, "setup", workdir / f"setup{i}", deadline)["setup_s"]
            for i in range(SETUP_PROBES)
        ]
        res = run_worker(args, "run", workdir / "run", deadline)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics, units = per_layer(res), PER_LAYER
        samples = {"traced_passes": len(res["traced"]), "untraced_passes": len(res["passes"])}
    else:
        setup.append(res["setup_s"])
        metrics, units = end_to_end(setup, res), END_TO_END
        samples = {"passes": len(res["passes"]), "setup": len(setup)}
    for problem in res["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name:28s} {metrics[name]:>16.6g} {unit}")
    detail = {"env": res["env"], "samples": samples, "tasks_attempted": res["attempted"],
              "tasks_failed": res["failed"], "failed_frac": res["failed"] / res["attempted"]}
    for key in ("missing_spans", "trace_file"):
        if key in res:
            detail[key] = res[key]
    print(json.dumps(detail))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
