"""trigait benchmark.

One workload:

    python3 perfbench/run.py --workload train-mini --seed 1 --seconds 15 --trace 0

Every workload, each in its own process, with a table of the named metrics:

    python3 perfbench/run.py --all --seed 1 --seconds 15

The last line of a single-workload run is one JSON object with `correct`,
`attempted`, `failed` and `metrics` (end-to-end metrics with --trace 0,
per-layer metrics with --trace 1). The process pins the BLAS pools to one
thread and exits non-zero when a check fails.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "_runs"
WORK = HERE / "_work"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("train-mini", "eval-mini", "synth-io")
# Set-ups per untraced run; setup_s adds the median to the import time.
# eval-mini's set-up renders 880 sequences and trains, so it runs twice to
# keep a run within budget.
SETUP_REPEATS = {"train-mini": 7, "eval-mini": 2, "synth-io": 7}
CHILD_TIMEOUT_S = 900


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def manifest(args, load_before) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "numpy": np.__version__,
        "blas": blas,
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
    }


def identical_prefix(a: list, b: list) -> bool:
    """Traced and untraced windows start from the same state; their common
    prefix of outputs must match exactly."""
    n = min(len(a), len(b))
    return n > 0 and a[:n] == b[:n]


def measure(workload: str, seed: int, seconds: float, trace: int,
            sizes=None, setup_repeats: int | None = None, import_s: float = 0.0) -> dict:
    """Set up, run the timed window (and the traced one) and check outputs.

    Returns the result line plus the named metrics, checks and errors."""
    import workloads as wl
    from tracing import Tracer

    spec = wl.WORKLOADS[workload]
    sizes = sizes or wl.SIZES[workload]
    if setup_repeats is None:
        setup_repeats = 1 if trace else SETUP_REPEATS[workload]
    work = WORK / f"{workload}-{os.getpid()}"
    errors, checks, metrics, named = [], [], {}, {}
    window = traced = tracer = None
    covered = []
    try:
        setups = []
        ctx = None

        def set_up():
            nonlocal ctx
            if ctx is not None:
                wl.clean(ctx["work"])
                ctx = None      # freed first, so set-ups do not add up in peak RSS
            t0 = time.perf_counter()
            ctx = spec.setup(work / f"setup{len(setups)}", seed, sizes)
            setups.append(time.perf_counter() - t0)

        # Half of the set-ups run after the window, so that setup_s samples
        # the host's speed over the whole run, as the window's metrics do.
        before = (setup_repeats + 1) // 2
        for _ in range(before):
            set_up()
        window = spec.window(ctx, seconds)
        if trace:
            tracer = Tracer()
            with tracer.installed():
                traced = spec.window(ctx, seconds)
                covered = wl.cover(tracer, ctx)
            same = identical_prefix(window.fingerprint, traced.fingerprint)
            checks.append(("traced_outputs_bit_identical", same, "" if same else "tracing changed outputs"))
            checks.extend(traced.checks)
        for _ in range(setup_repeats - before):
            set_up()
        setup_s = import_s + statistics.median(setups)
        checks.extend(window.checks)
        checks.extend(spec.final_checks(ctx))
    except Exception:
        errors.append(traceback.format_exc())
    finally:
        wl.clean(work)

    attempted = len(checks) + len(errors)
    attempted += sum(len(w.op_s) for w in (window, traced) if w is not None)
    failed = len(errors) + sum(not ok for _, ok, _ in checks)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if window is not None:
        p50 = wl.percentile(window.op_s, 0.5)
        named = dict(window.named)
        named["setup_s"] = (setup_s, "s", len(setups))
        named["peak_rss_mb"] = (peak_rss_mb, "MiB", 1)
        if trace:
            p50_traced = wl.percentile(traced.op_s, 0.5) if traced else None
            overhead = None if p50 is None or p50_traced is None else 1e3 * (p50_traced - p50)
            metrics = dict(tracer.metrics())
            metrics["trace.overhead_ms"] = (overhead, "ms")
            named["trace_overhead_ms"] = (overhead, "ms", len(traced.op_s) if traced else 0)
            named["covered_spans"] = (len(covered), "count", 1)
        else:
            metrics = {
                "seq_per_s": (window.seqs / window.busy_s, "seq/s"),
                "op_ms_p50": (None if p50 is None else 1e3 * p50, "ms"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (peak_rss_mb, "MiB"),
            }
    missing = [k for k, (v, _) in metrics.items() if v is None]
    if missing or window is None:
        failed += 1
        errors.append(f"metrics not measured: {missing or 'all'}")
    named["failed_frac"] = (failed / max(attempted, 1), "fraction", attempted)
    result = {
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items() if v is not None},
    }
    return {"result": result, "named": named, "checks": checks, "errors": errors, "tracer": tracer}


def run_one(args) -> int:
    load_before = os.getloadavg()
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: F401  (numpy and trigait load here, inside set-up time)

    import_s = time.perf_counter() - T_START
    rec = measure(args.workload, args.seed, args.seconds, args.trace, import_s=import_s)
    man = manifest(args, load_before)
    print("manifest " + json.dumps(man))
    for name, (value, unit, n) in rec["named"].items():
        shown = "n/a (fewer than ten samples beyond it)" if value is None else f"{value:.6g}"
        print(f"metric {args.workload} {name} {shown} {unit} n={n}")
    checks = rec["checks"]
    for name in dict.fromkeys(n for n, _, _ in checks):
        runs = [(ok, detail) for n, ok, detail in checks if n == name]
        bad = [detail for ok, detail in runs if not ok]
        verdict = f"FAILED {len(bad)}/{len(runs)} {bad[0]}" if bad else f"ok {len(runs)}/{len(runs)}"
        print(f"check {args.workload} {name} {verdict}".rstrip())
    for err in rec["errors"]:
        print(f"error {args.workload} {err}", file=sys.stderr)

    RUNS.mkdir(exist_ok=True)
    stem = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "manifest": man,
        "named": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in rec["named"].items()},
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "errors": rec["errors"],
        "result": rec["result"],
    }
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1))
    if rec["tracer"] is not None:
        rec["tracer"].write(f"{stem}-spans.json")
    print(json.dumps(rec["result"]))
    return 0 if rec["result"]["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process; prints every named metric."""
    status = 0
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        rows += [ln for ln in lines if ln.startswith(("metric ", "check "))]
        correct = proc.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
        rows.append(f"status {name} {'correct' if correct else 'FAILED'} (exit {proc.returncode})")
        if not correct:
            status = 1
            sys.stderr.write(proc.stderr)
    print("\n".join(rows))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload or --all")
    if not (SRC / "trigait").is_dir():
        print(f"error: no trigait sources at {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
