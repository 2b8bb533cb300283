"""entrymean benchmark: seeded workloads, end-to-end metrics, traced breakdown.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tail_sweep --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55

One run prepares the workload's inputs from ``--seed``, then runs closed-loop
passes while the window of ``--seconds`` has room for another pass of the
median length, at least two. A workload that runs ``threads > 1`` needs only
one, as it adds one single-threaded reference pass after the window. The
preparation is repeated before and after the window, and the imports are timed
again in child processes after it: the set-up time is the median import time
plus the median preparation time, so that a slow phase of the machine at the
start of a run does not set it alone. With ``--trace 1`` a second window of
traced passes follows and the per-module metrics replace the end-to-end ones.

Every pass's outputs must be byte-identical to the first pass's; a mismatch
counts as a failed pass, makes ``correct`` false and the exit code 1. The
last line of standard output is the result JSON; the line before it is a
report with the host block, the pass times and the per-seed result figures.
"""
from __future__ import annotations

import os

# Fixed before numpy loads: with the thread pool on top, OpenBLAS threads
# would otherwise oversubscribe the cores.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import time  # noqa: E402

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("tail_sweep", "hiding_sweep", "shift_sweep", "cli_pipeline")
SETUP_REPEATS_BEFORE = 3  # preparations before the window; the last one is used
SETUP_REPEATS_AFTER = 2
IMPORT_PROBES = 2  # child processes that time the imports again
# Run in a child with perfbench's directory as argv[1]: the same imports as a
# run's, timed from the child's start; prints the seconds.
IMPORT_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import run\n"
    "run.load_modules()\n"
    "print(time.perf_counter() - t0)\n"
)
MAX_TRACED_PASSES = 3

# (name, unit): the end-to-end metrics of a --trace 0 run.
END_TO_END = (("sweep_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# Deterministic per seed, printed with every run but not bounded: across
# seeds two_step_l2 spreads more than a 0.25 bound allows, and na_rate is 0
# on two workloads (NOTES.md).
FIGURES = (("two_step_l2", "l2"), ("na_rate", "ratio"))


def _import_package():
    """Import entrymean from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import entrymean
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import entrymean from {src}: {exc}")
    if not Path(entrymean.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: entrymean resolved to {entrymean.__file__}, outside {src}")
    return entrymean


def blas_info(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = int(getter())
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads,
            "threads_fixed": BLAS_THREADS}


def commit_hash() -> str | None:
    """HEAD's hash read from ``.git`` without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_block(np, scipy, seed: int, nproc: int) -> dict:
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(np),
        "commit": commit_hash(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_window(run_pass, seconds: float, min_passes: int = 1, cap: int | None = None):
    """Closed-loop passes while the window has room for one more median pass."""
    times, outputs = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        outputs.append(run_pass())
        times.append(time.perf_counter() - t0)
        if cap is not None and len(times) >= cap:
            break
        if len(times) >= min_passes and (
            time.perf_counter() - start + statistics.median(times) > seconds
        ):
            break
    return times, outputs


def traced_window(workload, state, seconds: float, modules):
    """Traced passes; returns their times, outputs and per-pass span lists."""
    spans_per_pass = []
    with tracing.Tracer(modules, layers.NOTES) as tracer:

        def traced_pass():
            out = workload.run(state, workload.threads)
            spans_per_pass.append(tracer.take())
            return out

        times, outputs = timed_window(traced_pass, seconds, cap=MAX_TRACED_PASSES)
    return times, outputs, spans_per_pass


def layer_values(spans_per_pass, failures: list[str]) -> dict[str, float]:
    """Counts from the first traced pass (they must repeat), median times."""
    per_pass = [layers.pass_metrics(spans) for spans in spans_per_pass]
    values = {}
    for name in per_pass[0]:
        if name in layers.COUNTS:
            seen = {m[name] for m in per_pass}
            if len(seen) > 1:
                failures.append(f"{name} differs across traced passes: {sorted(seen)}")
            values[name] = per_pass[0][name]
        else:
            values[name] = statistics.median(m[name] for m in per_pass)
    return values


def load_modules():
    """Everything a run imports beyond this file's own imports."""
    _import_package()
    import numpy as np
    import scipy

    import workloads
    from entrymean import (
        cli, corruption, data, datagen, estimators, experiment, metrics, recovery, structure,
    )

    return np, scipy, workloads, [sys.modules["entrymean"], cli, corruption, data, datagen,
                                  estimators, experiment, metrics, recovery, structure]


def probe_import_s() -> float:
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(Path(__file__).parent)],
                          capture_output=True, text=True, cwd=ROOT, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def timed_prepare(workload, seed: int, workdir: Path):
    t0 = time.perf_counter()
    state = workload.prepare(ROOT, seed, workdir)
    return state, time.perf_counter() - t0


def run_workload(args) -> int:
    np, scipy, workloads, modules = load_modules()
    import_s = [time.perf_counter() - PROCESS_START]
    nproc = len(os.sched_getaffinity(0))
    workload = workloads.workloads(nproc)[args.workload]
    workdir = OUT / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    report = {"workload": args.workload, "trace": args.trace,
              "host": host_block(np, scipy, args.seed, nproc), "threads": workload.threads}
    try:
        prep = []
        for _ in range(SETUP_REPEATS_BEFORE):
            state, seconds = timed_prepare(workload, args.seed, workdir)
            prep.append(seconds)

        # Every run compares at least two passes; a threaded workload's
        # second is its single-threaded reference pass.
        times, outputs = timed_window(
            lambda: workload.run(state, workload.threads),
            args.seconds,
            min_passes=1 if workload.threads > 1 else 2,
        )
        sweep_s = statistics.median(times)
        rss = peak_rss_mb()
        quality = workload.quality(state)
        failures = quality.pop("failures")
        checks = [("pass", out) for out in outputs]
        single_s = None
        if workload.threads > 1:
            t0 = time.perf_counter()
            checks.append(("threads=1 pass", workload.run(state, 1)))
            single_s = time.perf_counter() - t0
        for _ in range(SETUP_REPEATS_AFTER):
            again = workdir / f"setup{len(prep)}"
            again.mkdir()
            prep.append(timed_prepare(workload, args.seed, again)[1])
        import_s += [probe_import_s() for _ in range(IMPORT_PROBES)]
        setup_s = statistics.median(import_s) + statistics.median(prep)
        report.update(passes=len(times), pass_s=times, import_s=import_s, setup_repeats_s=prep,
                      threads1_pass_s=single_s)

        if args.trace:
            traced_times, traced_outputs, spans_per_pass = traced_window(
                workload, state, args.seconds, modules
            )
            checks += [("traced pass", out) for out in traced_outputs]
            values = layer_values(spans_per_pass, failures)
            values["experiment.parallel_speedup"] = single_s / sweep_s if single_s else 0.0
            values["trace.overhead"] = statistics.median(traced_times) / sweep_s
            spans_path = OUT / f"{args.workload}-s{args.seed}.spans.csv"
            tracing.write_spans(spans_per_pass, PROCESS_START, spans_path)
            report.update(traced_pass_s=traced_times, spans_csv=str(spans_path.relative_to(ROOT)))
            metrics_out = {name: {"value": values[name], "unit": unit}
                           for name, unit, _ in layers.LAYER_METRICS}
        else:
            values = {"sweep_s": sweep_s, "setup_s": setup_s, "peak_rss_mb": rss}
            metrics_out = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

        mismatched = 0
        for label, out in checks:
            diff = sorted(k for k in outputs[0] if out.get(k) != outputs[0][k])
            if diff:
                mismatched += 1
                failures.append(f"{label} differs from the first pass in {', '.join(diff)}")
        # A failed output check fails every pass, as each repeats the first.
        failed = mismatched if len(failures) == mismatched else len(checks)
        report.update(
            figures={name: {"value": quality[name], "unit": unit} for name, unit in FIGURES},
            failures=failures,
        )
        (OUT / f"{args.workload}-s{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(dict(report, metrics=metrics_out), indent=2) + "\n"
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, entry in list(metrics_out.items()) + list(report["figures"].items()):
        print(f"{args.workload} {name} = {entry['value']:.6g} {entry['unit']}")
    print(f"{args.workload} passes = {len(times)} count")
    for failure in failures:
        print(f"{args.workload} FAILED: {failure}")
    print(json.dumps(report))
    print(json.dumps({"correct": not failures, "attempted": len(checks), "failed": failed,
                      "metrics": metrics_out}))
    return 0 if not failures else 1


def run_all(args) -> int:
    """Run each workload in its own process, then print one table."""
    rows, results = {}, {}
    ok = True
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            print(f"{name}: exited {proc.returncode} without a result", flush=True)
            ok = False
            continue
        report, result = json.loads(lines[-2]), json.loads(lines[-1])
        ok = ok and proc.returncode == 0 and result["correct"]
        rows[name] = dict(result["metrics"], **report["figures"])
        results[name] = (result, report)
        for failure in report["failures"]:
            print(f"{name} FAILED: {failure}", flush=True)
    names = list(next(iter(rows.values()))) if rows else []
    print(f"{'metric':<30}" + "".join(f"{w:>16}" for w in rows) + "  unit")
    for metric in names:
        unit = next(iter(rows.values()))[metric]["unit"]
        cells = "".join(f"{rows[w][metric]['value']:>16.6g}" for w in rows)
        print(f"{metric:<30}{cells}  {unit}")
    passes = "".join(f"{results[w][1]['passes']:>16d}" for w in rows)
    print(f"{'passes':<30}{passes}  count")
    combined = {f"{w}.{m}": entry for w, row in rows.items() for m, entry in row.items()}
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["attempted"] for r, _ in results.values()) or 1,
        "failed": sum(r["failed"] for r, _ in results.values()) + (len(WORKLOADS) - len(results)),
        "metrics": combined,
    }))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
