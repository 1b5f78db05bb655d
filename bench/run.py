"""gsl benchmark: one seeded workload per run, correctness checked.

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; gsl is imported from its `src/`.
Workloads are described in bench/workloads.py.  The last line of stdout is
one JSON object {correct, attempted, failed, metrics}; the line before it
records the environment and the details behind the metrics.

--trace 0  runs items for --seconds and reports the end-to-end metrics:
           setup_s (median of several fresh-process set-ups), items_per_s,
           item_ms_p50, item_ms_tail, ok_frac and peak_rss_mb; times are
           calibrated against a fixed kernel (see CAL_REF_S).
--trace 1  runs a fixed, seed-determined list of items sized to about
           --seconds, once with spans around every layer's entry points and
           once plain, and reports the per-layer metrics, including the
           tracing overhead (traced minus plain time of the same items).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"  # per-run results and span files
SETUP_SAMPLES = 5          # this process's set-up plus 4 fresh processes
# Items per second at which a traced run is sized: the traced and the
# plain pass over the same items then take about --seconds together.
TRACE_RATE = {"sweep": 70.0, "cli_batch": 0.3, "c6_analysis": 0.3, "certify": 1.2}
# Candidate tail percentiles.  The steps are coarse so that a workload's
# item count stays between two thresholds over the machine's speed range
# and its tail percentile does not switch from run to run.
TAIL_LADDER = (99.9, 99.0, 95.0, 75.0, 50.0)
MIN_BEYOND = 10
# Calibration.  On a shared host the speed of the same code drifts by tens
# of percent over minutes.  A fixed stdlib kernel, timed between items at
# least every CAL_EVERY_S, measures that drift; end-to-end times are scaled
# by CAL_REF_S / mean(kernel time) so that runs made at different moments
# compare.  CAL_REF_S is the kernel's time on an idle 2-core x86-64 VM with
# CPython 3.11, so calibrated figures read as times on that machine.  The
# raw figures and the factor are kept in the detail line.
CAL_EVERY_S = 0.25
CAL_REF_S = 0.010


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least MIN_BEYOND of n samples
    beyond it; the median when even it has fewer."""
    for q in TAIL_LADDER:
        if round(n * (100.0 - q), 6) >= 100 * MIN_BEYOND:
            return q
    return 50.0


def tail(ordered: list[float]) -> tuple[float, float]:
    """(percentile, value) of the tail of ascending samples: the
    nearest-rank value at tail_percentile, or the median when that is 50."""
    q = tail_percentile(len(ordered))
    if q == 50.0:
        return q, statistics.median(ordered)
    rank = -(-len(ordered) * q // 100)
    return q, ordered[int(rank) - 1]


def calibration_kernel() -> int:
    """Fixed work in the mix gsl runs: Fraction sums and integer
    polynomial products mod p."""
    from fractions import Fraction  # here, so set-up time counts its import

    acc = Fraction(0)
    for k in range(1, 400):
        acc += Fraction(k * k + 1, 2 * k + 3)
    p = 1000003
    a, b = list(range(1, 40)), list(range(7, 46))
    for _ in range(50):
        c = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                c[i + j] = (c[i + j] + x * y) % p
        a = c[:39]
    return acc.numerator % p + sum(a)


def _kernel_seconds() -> float:
    start = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - start


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _setup(workload: str, seed: int):
    """Import gsl and build the workload; returns (workload, seconds)."""
    start = time.perf_counter()
    import gsl
    from workloads import WORKLOADS
    wl = WORKLOADS[workload](seed)
    elapsed = time.perf_counter() - start
    if Path(gsl.__file__).resolve().parent != (SRC / "gsl").resolve():
        raise RuntimeError(f"gsl was imported from {gsl.__file__}, not from {SRC}")
    return wl, elapsed


def _probe_setups(workload: str, seed: int, count: int) -> list[float]:
    """Set-up times of `count` fresh processes, one after another."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def _items(wl, tracer, items, deadline=None, kernel=None):
    """Run items in order (until the deadline, if given); returns per-item
    seconds and a failure message by item index.  With a `kernel` list,
    calibration kernel times are appended to it between items."""
    times, failures = [], {}
    clock = time.perf_counter
    last_kernel = -CAL_EVERY_S
    for i, item in enumerate(items):
        if deadline is not None and clock() >= deadline:
            break
        if kernel is not None and clock() - last_kernel >= CAL_EVERY_S:
            kernel.append(_kernel_seconds())
            last_kernel = clock()
        if tracer is not None:
            tracer.item, tracer.active = i, True
        start = clock()
        out = raised = None
        try:
            out = wl.run(item)
        except Exception as exc:  # an unexpected raise fails this item only
            raised = exc
        elapsed = clock() - start
        if tracer is not None:
            tracer.active = False
        times.append(elapsed)
        if raised is not None:
            failures[i] = "".join(traceback.format_exception(raised))
        elif not wl.check(item, out):
            failures[i] = "output failed its check"
    return times, failures


def _generate(wl):
    while True:
        yield wl.draw()


def _environment() -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            commit = ref_path.read_text().strip() if ref_path.is_file() else None
        else:
            commit = ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "gsl").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, wl, setup_s: float) -> tuple[dict, dict, int, int]:
    probes = _probe_setups(args.workload, args.seed, SETUP_SAMPLES - 1)
    setups = [setup_s] + probes
    kernel = []
    deadline = time.perf_counter() + args.seconds
    raw, failures = _items(wl, None, _generate(wl), deadline, kernel)
    kernel.append(_kernel_seconds())
    scale = CAL_REF_S / statistics.mean(kernel)
    n = len(raw)
    ordered = sorted(t * scale for t in raw)
    q, tail_value = tail(ordered)
    metrics = {
        "setup_s": _metric(scale * statistics.median(setups), "s"),
        "items_per_s": _metric(n / sum(ordered), "1/s"),
        "item_ms_p50": _metric(1e3 * statistics.median(ordered), "ms"),
        "item_ms_tail": _metric(1e3 * tail_value, "ms"),
        "ok_frac": _metric((n - len(failures)) / n, "ratio"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {
        "calibration_scale": scale,
        "calibration_samples": len(kernel),
        "raw": {"setup_s": statistics.median(setups), "items_per_s": n / sum(raw),
                "item_ms_p50": 1e3 * statistics.median(raw),
                "item_ms_tail": 1e3 * tail(sorted(raw))[1]},
        "setup_samples_s": setups,
        "tail_percentile": q,
        "tail_samples_beyond": sum(t > tail_value for t in ordered),
        "items": n,
        "failures": _first(failures),
    }
    return metrics, detail, n, len(failures)


def per_layer(args, wl) -> tuple[dict, dict, int, int]:
    from spans import Tracer

    count = max(1, round(TRACE_RATE[args.workload] * args.seconds))
    items = [wl.draw() for _ in range(count)]
    # Traced pass first, so the counts see every input for the first time
    # even if the library someday caches between calls; such a cache would
    # then make the plain replay cheaper and read as tracing overhead.
    tracer = Tracer()
    tracer.install()
    try:
        traced, failures = _items(wl, tracer, items)
    finally:
        tracer.uninstall()
    plain, plain_failures = _items(wl, None, items)
    failures = {**plain_failures, **failures}
    values = tracer.layer_metrics()
    values.update(tracer.named_metrics())
    values["trace.items"] = count
    values["trace.spans"] = len(tracer.spans)
    values["trace.plain_s"] = sum(plain)
    values["trace.overhead_s"] = sum(traced) - sum(plain)
    metrics = {name: _metric(value, _unit(name)) for name, value in values.items()}
    spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.tsv.gz"
    tracer.write(spans_path)
    detail = {"spans_file": str(spans_path.relative_to(ROOT)), "failures": _first(failures)}
    return metrics, detail, count, len(failures)


def _first(failures: dict[int, str], count: int = 5) -> list[str]:
    return [f"item {i}: {failures[i]}" for i in sorted(failures)[:count]]


def _unit(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    if last.endswith("_s"):
        return "s"
    if last.endswith("_frac"):
        return "ratio"
    if last == "precision_mean":
        return "digits"  # p-adic working precision N
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload not in TRACE_RATE:
        return _fail(f"unknown workload {args.workload!r}; have {sorted(TRACE_RATE)}")
    if not (SRC / "gsl" / "__init__.py").is_file():
        return _fail(f"no gsl sources under {SRC}; run from the root of a checkout")
    # gsl reads GSL_SEED; the workload's inputs must come from --seed only.
    os.environ.pop("GSL_SEED", None)
    sys.path.insert(0, str(SRC))
    wl, setup_s = _setup(args.workload, args.seed)
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    OUT.mkdir(exist_ok=True)
    if args.trace:
        metrics, detail, attempted, failed = per_layer(args, wl)
    else:
        metrics, detail, attempted, failed = end_to_end(args, wl, setup_s)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              **_environment(), **detail}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=1) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
