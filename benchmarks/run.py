"""Run one qcoremap benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload map-random --seed 1 --seconds 40 --trace 0

Run it from the repository root; it maps the package in ``src/``. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Exit status: 0 when every output check passed, 1 when one failed, 2 when
the package source is missing.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from qcmbench import MissingSource, pin_threads, use_source_tree  # noqa: E402
from qcmbench.workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0, help="corpus seed, >= 0")
    ap.add_argument("--seconds", type=float, default=40.0, help="measuring time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from a traced run")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    pin_threads()
    try:
        qc = use_source_tree()
    except MissingSource as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    from qcmbench import harness

    return harness.main(qc, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
