"""Summarize end-to-end runs against the bounds in BENCHMARK.json.

    python3 bench/summarize.py .bench_out/*-trace0.json
    python3 bench/summarize.py SET_A/*.json --against SET_B/*.json

For each workload and metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, the distance
between the quartiles as a share of the median.  It exits 1 when a spread
other than that of setup_s exceeds the metric's bound, or, with
--against, when a median of the first set is worse than the second set's
by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(paths: list[str]) -> dict[str, list[dict]]:
    """End-to-end results by workload."""
    runs: dict[str, list[dict]] = {}
    for path in paths:
        data = json.loads(Path(path).read_text())
        if not data["detail"]["trace"]:
            runs.setdefault(data["detail"]["workload"], []).append(data["result"])
    return runs


def summarize(runs: dict[str, list[dict]], spec: dict) -> dict:
    out = {}
    for workload, results in sorted(runs.items()):
        rows = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            rows[metric["name"]] = {"median": median, "q1": q1, "q3": q3,
                                    "spread": (q3 - q1) / median}
        out[workload] = {"runs": len(results), "failed": sum(r["failed"] for r in results),
                         "metrics": rows}
    return out


def problems(summary: dict, spec: dict, base: dict | None) -> list[str]:
    found = []
    for workload, entry in summary.items():
        if entry["failed"]:
            found.append(f"{workload}: {entry['failed']} failed items")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            row = entry["metrics"][name]
            if name != "setup_s" and row["spread"] > bound:
                found.append(f"{workload} {name}: spread {row['spread']:.3f} > {bound}")
            if base is not None and workload in base:
                ref = base[workload]["metrics"][name]["median"]
                worse = (row["median"] - ref) / ref
                if metric["better"] == "higher":
                    worse = -worse
                if worse > bound:
                    found.append(f"{workload} {name}: median {worse:+.3f} worse than base")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", nargs="+")
    parser.add_argument("--against", nargs="+", help="result files of the base set")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    summary = summarize(load(args.results), spec)
    base = summarize(load(args.against), spec) if args.against else None
    print(json.dumps(summary, indent=1))
    found = problems(summary, spec, base)
    for line in found:
        print(line, file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main())
