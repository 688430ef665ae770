"""Benchmark worker: imports dipolarray, warms up, then runs timed passes.

run.py starts one worker process per set-up sample and one per measured
run, so every set-up sample includes a fresh import and the peak RSS is that
of one workload.  The worker prints one JSON object as its last stdout line.

    python3 perfbench/worker.py --root DIR --workdir DIR --workload NAME
        --seed N --seconds S --mode setup|run [--trace] [--size full|tiny]
        [--references FILE]
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

# the set-up clock starts before numpy and dipolarray are imported
T0 = time.perf_counter()

MAX_PROBLEMS = 20


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", required=True, type=Path)
    p.add_argument("--workdir", required=True, type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--mode", required=True, choices=("setup", "run"))
    p.add_argument("--trace", action="store_true")
    p.add_argument("--size", default="full", choices=("full", "tiny"))
    p.add_argument("--references", type=Path)
    return p.parse_args(argv)


def cpu_seconds() -> float:
    """User plus system CPU of this process, all threads included."""
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def run_pass(tasks, pass_dir: Path, tracer=None):
    """One pass over the tasks: (wall s, process CPU s, [(task, values or exception)])."""
    outcomes = []
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    for task in tasks:
        span = tracer.task_span(task.key) if tracer else contextlib.nullcontext()
        with span:
            try:
                values = task.run(pass_dir / task.key.replace("[", "_").replace("]", ""))
            except Exception as exc:  # a task that raises is counted as failed
                traceback.print_exc()
                values = exc
        outcomes.append((task, values))
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    shutil.rmtree(pass_dir, ignore_errors=True)
    return wall, cpu, outcomes


def timed_passes(budget: float, tasks, workdir: Path, tag: str, tracer=None, on_pass=None):
    """Passes until the next one would end past ``budget`` seconds; at least one."""
    out = []
    start = time.perf_counter()
    while True:
        wall, cpu, outcomes = run_pass(tasks, workdir / f"{tag}{len(out)}", tracer)
        out.append((wall, cpu, outcomes))
        if on_pass is not None:
            on_pass(len(out) - 1)
        if time.perf_counter() - start + wall > budget:
            return out


def git_commit(root: Path) -> str | None:
    """Commit of a checkout's .git, read directly (no parent directories)."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(root: Path, args) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": git_commit(root),
        "src_sha256": digest.hexdigest(),
        "seed": args.seed,
        "workload": args.workload,
        "size": args.size,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = args.root.resolve()
    sys.path.insert(0, str(root / "src"))
    import tracing
    import workloads  # imports dipolarray from the checkout's src/

    warmup = workloads.build_tasks(args.workload, "tiny", args.seed, root, args.workdir / "warmup")
    run_pass(warmup, args.workdir / "warmup-pass")
    setup_s = time.perf_counter() - T0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    refs = json.loads(args.references.read_text())
    tasks = workloads.build_tasks(args.workload, args.size, args.seed, root, args.workdir / "tasks")
    # a traced run splits its time between untraced and traced passes
    budget = args.seconds / 2 if args.trace else args.seconds
    passes = timed_passes(budget, tasks, args.workdir, "pass")
    result = {"setup_s": setup_s, "passes": [{"wall_s": w, "cpu_s": c} for w, c, _ in passes]}
    all_outcomes = [o for _, _, outcomes in passes for o in outcomes]

    if args.trace:
        tracer = tracing.Tracer()
        patched, result["missing_spans"] = tracing.install(tracer)
        layer, span_lines = [], []

        def collect(index: int) -> None:
            layer.append(tracing.layer_metrics(tracer))
            span_lines.extend(
                json.dumps({"pass": index, "id": s.id, "parent": s.parent, "task": s.task,
                            "name": s.name, "start": s.start, "end": s.end})
                for s in tracer.spans)
            tracer.reset()

        try:
            traced = timed_passes(budget, tasks, args.workdir, "traced", tracer, collect)
            all_outcomes += [o for _, _, outcomes in traced for o in outcomes]
            if any(m["phonon.model_s"] > 0 for m in layer):
                # the workload calls the phonon layer: its allocation peak comes
                # from one more pass with tracemalloc on, whose timings are
                # discarded because tracemalloc slows allocation
                tracemalloc.start()
                tracer.measure_alloc = True
                try:
                    _, _, outcomes = run_pass(tasks, args.workdir / "alloc", tracer)
                finally:
                    tracemalloc.stop()
                    tracer.measure_alloc = False
                all_outcomes += outcomes
                tracer.reset()
        finally:
            tracing.uninstall(patched)
        result["traced"] = [{"wall_s": w, "metrics": m} for (w, _, _), m in zip(traced, layer)]
        result["alloc_peak_mb"] = tracer.alloc_peak / 2**20
        trace_file = root / ".perfbench_out" / f"trace-{args.workload}-{args.size}-seed{args.seed}.jsonl"
        trace_file.write_text("\n".join(span_lines) + "\n")
        result["trace_file"] = str(trace_file.relative_to(root))

    problems = workloads.check(args.workload, args.size, all_outcomes, refs)
    result.update(
        attempted=len(all_outcomes),
        failed=len(problems),
        problems=problems[:MAX_PROBLEMS],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=environment(root, args),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
