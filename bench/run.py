"""mesonq benchmark: one workload, end to end or traced per module.

    python3 bench/run.py --workload figures|oracle|pointwise|all \
        [--seed N] [--seconds S] [--trace 0|1]

Runs from the root of a source checkout and imports `mesonq` from its `src/`.
Prints every metric by name and unit, then, as the last line, one JSON
object with `correct`, `attempted`, `failed` and `metrics`.  See
bench/README.md for the workloads, metrics and seeds.
"""

import time

T_START = time.perf_counter()  # set-up time counts from here, before numpy loads

import os  # noqa: E402
import sys  # noqa: E402

# BLAS and OpenMP run single-threaded in this process and its set-up probes.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(BENCH_DIR, "traces")
WORKLOADS = ("figures", "oracle", "pointwise")

DEFAULT_SEED = 1101
HELD_OUT_SEED = 4517
SETUP_PROBES = 6  # fresh processes that repeat the set-up; median with this one
TAIL_BEYOND = 10  # item_ms_tail has at least this many items above it ...
TAIL_MAX_PCT = 99.0  # ... and is at most this percentile
# Throughput and median latency are taken per window of WINDOW_S of item time
# (closed at a chunk end) and reported at the contended end: the window
# throughput 9 windows in 10 reach, the window median 9 in 10 stay under.
WINDOW_S = 1.0
WINDOW_QUANTILE = 0.9


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                   help="'all' runs each workload in turn in a fresh process")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, print the set-up seconds and exit "
                        "(the main run starts these to repeat its set-up)")
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def import_program():
    """Import mesonq from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import mesonq
    if os.path.commonpath([os.path.abspath(mesonq.__file__), SRC]) != SRC:
        raise ImportError(f"mesonq imported from {mesonq.__file__}, not {SRC}")
    import workloads
    return workloads


def set_up(name: str, seed: int, workdir: str):
    """Import, generate the inputs from the seed, warm up; returns the workload."""
    workloads = import_program()
    wl = workloads.WORKLOADS[name](seed, workdir)
    wl.warm_up()
    return wl


def probe_setup(name: str, seed: int) -> list[float]:
    """Set-up seconds of fresh processes, run one after another."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


class Tally:
    """Attempted and failed items, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, i: int, reason):
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"item {i}: {reason}")


def measure(wl, first: int, seconds: float, end: int, tally: Tally,
            call=None, after=None) -> list[float]:
    """Closed loop from item `first` until `seconds` of item time, at a chunk end.

    Only the library calls of an item are timed; preparing its arguments and
    checking its outputs are not.  Returns the item latencies in seconds.
    """
    durations = []
    timed = 0.0
    i = first
    end = min(end, wl.size)
    while i < end and (timed < seconds or (i - first) % wl.chunk):
        args = wl.prepare(i)
        t0 = time.perf_counter()
        try:
            out = call(wl.run, args) if call else wl.run(args)
        except Exception:  # a raising item is a failed item
            dt = time.perf_counter() - t0
            reason = "raised\n" + traceback.format_exc()
        else:
            dt = time.perf_counter() - t0
            try:
                reason = wl.check(args, out)
            except Exception:
                reason = "check raised\n" + traceback.format_exc()
            if after:
                after(args)
        tally.record(i, reason)
        durations.append(dt)
        timed += dt
        i += 1
    return durations


def windows(durations: list[float], chunk: int) -> list[list[float]]:
    """Consecutive item latencies, cut at the first chunk end after WINDOW_S."""
    out, start, timed = [], 0, 0.0
    for i, dt in enumerate(durations, start=1):
        timed += dt
        if timed >= WINDOW_S and i % chunk == 0:
            out.append(durations[start:i])
            start, timed = i, 0.0
    return out or [durations]


def items_per_s(durations: list[float], chunk: int) -> float:
    """Window throughput that WINDOW_QUANTILE of the windows reach."""
    import numpy as np
    rates = [len(w) / sum(w) for w in windows(durations, chunk)]
    return float(np.quantile(rates, 1.0 - WINDOW_QUANTILE))


def item_p50(durations: list[float], chunk: int) -> float:
    """Window median latency that WINDOW_QUANTILE of the windows stay under."""
    import numpy as np
    medians = [statistics.median(w) for w in windows(durations, chunk)]
    return float(np.quantile(medians, WINDOW_QUANTILE))


def tail(durations: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten items beyond it, at most p99.

    Nearest rank over all items; a run of ten items or fewer reports its
    slowest.  The cap keeps rare host stalls out of long runs' tails.
    """
    n = len(durations)
    if n <= TAIL_BEYOND:
        k = n - 1
    else:
        k = min(n - 1 - TAIL_BEYOND, math.ceil(TAIL_MAX_PCT / 100.0 * n) - 1)
    return 100.0 * (k + 1) / n, sorted(durations)[k]


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown (not a git checkout)"
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(loose):
        with open(loose) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return "unknown"


def fingerprint(workload: str, seed: int) -> dict:
    import numpy as np
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "mesonq", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "workload": workload,
        "seed": seed,
    }


def end_to_end(wl, seconds: float, setup_s: float, seed: int):
    tally = Tally()
    durations = measure(wl, 0, seconds, wl.size, tally)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [setup_s] + probe_setup(wl.name, seed)
    pct, tail_s = tail(durations)
    metrics = {
        "items_per_s": (items_per_s(durations, wl.chunk), "1/s"),
        "item_ms_p50": (1e3 * item_p50(durations, wl.chunk), "ms"),
        "item_ms_tail": (1e3 * tail_s, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = {
        "item_ms_tail": f"p{pct:.4g}, {len(durations)} items",
        "items_per_s": f"{len(windows(durations, wl.chunk))} windows",
        "setup_s": f"median of {len(setups)} set-ups",
    }
    return tally, metrics, notes


def traced(wl, seconds: float, seed: int):
    """Untraced then traced over as many fresh items; per-layer metrics per item."""
    from spans import Tracer
    tally = Tally()
    plain = measure(wl, 0, 0.5 * seconds, wl.size, tally)
    tracer = Tracer()
    csv_bytes = 0

    def count_bytes(args):
        nonlocal csv_bytes
        csv_bytes += wl.csv_bytes(args)

    with tracer:
        spans = measure(wl, len(plain), math.inf, 2 * len(plain), tally,
                        call=tracer.item,
                        after=count_bytes if hasattr(wl, "csv_bytes") else None)
    os.makedirs(TRACE_DIR, exist_ok=True)
    tracer.save(os.path.join(TRACE_DIR, f"{wl.name}-seed{seed}.npz"))
    metrics = tracer.layer_metrics(len(spans))
    metrics["cli.csv_bytes"] = (csv_bytes / len(spans), "bytes/item")
    metrics["trace.overhead_ratio"] = (
        items_per_s(spans, wl.chunk) / items_per_s(plain, wl.chunk), "ratio")
    notes = {"trace.overhead_ratio": f"{len(spans)} traced vs {len(plain)} "
                                     "untraced items"}
    return tally, metrics, notes


def run_all(args) -> int:
    """Every workload in a fresh process, one after another; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        *lines, last = proc.stdout.splitlines()
        print("\n".join(lines), flush=True)
        result = json.loads(last)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v
                                    for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
    try:
        try:
            wl = set_up(args.workload, args.seed, workdir)
        except ImportError as exc:
            print(f"cannot import mesonq from {SRC}: {exc}", file=sys.stderr)
            return 2
        setup_s = time.perf_counter() - T_START
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        print("fingerprint " + json.dumps(fingerprint(args.workload, args.seed)))
        if args.trace:
            tally, metrics, notes = traced(wl, args.seconds, args.seed)
        else:
            tally, metrics, notes = end_to_end(wl, args.seconds, setup_s, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for reason in tally.reasons:
        print("FAILED " + reason, file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"items {tally.attempted}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:48s} {value:14.6g} {unit}{note}")
    print(f"{'fail_ratio':48s} {tally.failed / tally.attempted:14.6g} ratio  "
          f"({tally.failed} of {tally.attempted})")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
