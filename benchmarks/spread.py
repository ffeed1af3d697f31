"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 benchmarks/spread.py --workloads map-random cores-sweep --seeds 1-10 \
        --seconds 40 --trace 0 --out summary.json

Runs ``benchmarks/run.py`` once per (workload, seed), one run at a time,
and reports per metric the median, the quartiles (``statistics.quantiles``
with n=4) and the spread ``(q3 - q1) / median``. Compare two commits by
running this on each with the same seeds and settings.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the summary as JSON here")
    args = ap.parse_args(argv)

    summary: dict = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    status = 0
    for workload in args.workloads:
        per_metric: dict[str, list[float]] = {}
        for seed in seed_list(args.seeds):
            done = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=600)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                status = 1
                continue
            if "environment" not in summary:
                summary["environment"] = json.loads(lines[0].split(" ", 1)[1])
            result = json.loads(lines[-1])
            for name, metric in result["metrics"].items():
                if metric["value"] is not None:
                    per_metric.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()
                if m["value"] is not None), flush=True)
        rows = {name: summarize(vals) for name, vals in per_metric.items()}
        summary["workloads"][workload] = rows
        for name, row in rows.items():
            spread = "n/a" if row["spread"] is None else f"{row['spread']:.4f}"
            print(f"  {workload:13s} {name:30s} median {row['median']:.6g} "
                  f"q1 {row['q1']:.6g} q3 {row['q3']:.6g} spread {spread}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
