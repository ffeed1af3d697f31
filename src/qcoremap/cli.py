"""Command-line interface.

Exit codes: 0 success, 2 configuration error, 3 netlist parse error.
"""

from __future__ import annotations

import argparse
import sys

from .driver import map_program, render_report, sweep_budget, sweep_cores, write_sweep_csv
from .errors import ConfigError, NetlistError
from .fabric import FabricParams, bundled_profile, load_qec_profile
from .ir import parse_program
from .qodg import dump_dot
from .scheduling import ScheduleConfig

BUNDLED = ("steane", "bacon_shor")


def _add_common(p: argparse.ArgumentParser, need_budget=True, need_cores=True):
    p.add_argument("netlist", help="netlist source file")
    p.add_argument("--qec", required=True,
                   help=f"QEC profile file, or a bundled name: {', '.join(BUNDLED)}")
    p.add_argument("-k", "--cores", type=int, required=need_cores, default=4,
                   help="quantum core count")
    p.add_argument("-A", "--ancilla", type=int, required=need_budget,
                   help="total physical ancilla budget")
    p.add_argument("--beta-pmd", type=float, default=10.0, help="unit-distance delay, us/cell")
    p.add_argument("--alpha-int", type=int, default=3, help="interconnect width, cells")
    p.add_argument("--gamma-mem", type=float, default=0.2, help="memory routing coefficient")
    p.add_argument("--cycle-time", type=float, default=1.0, help="scheduling level length, us")
    p.add_argument("--epsilon", type=float, default=0.1, help="partition balance tolerance")
    p.add_argument("--seed", type=int, default=0, help="deterministic seed")
    p.add_argument("--out", help="output file (report or CSV); default stdout")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qcoremap",
                                 description="Map kernelized quantum programs onto a "
                                             "multi-core ancilla-sharing processor model")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("map", help="map a netlist and print the report")
    _add_common(p)
    p.add_argument("--dump-qodg", metavar="FILE", help="write dependency graphs as DOT")
    p.add_argument("--timings", action="store_true", help="include phase timings in the report")

    p = sub.add_parser("sweep-budget", help="latency vs ancilla budget (CSV)")
    _add_common(p, need_budget=False)
    p.add_argument("--from", dest="a_from", type=int, required=True, help="first budget")
    p.add_argument("--to", dest="a_to", type=int, required=True, help="last budget")
    p.add_argument("--step", dest="a_step", type=int, required=True, help="budget step")

    p = sub.add_parser("sweep-cores", help="latency vs core count (CSV)")
    _add_common(p, need_budget=True, need_cores=False)
    p.add_argument("--k-list", default="1,2,4,8", help="comma-separated core counts")
    return ap


def _load_inputs(args):
    with open(args.netlist, "r", encoding="utf-8") as fh:
        program = parse_program(fh.read())
    if args.qec in BUNDLED:
        profile = bundled_profile(args.qec)
    else:
        profile = load_qec_profile(args.qec)
    ancilla = args.ancilla if args.ancilla is not None else profile.max_ancilla * args.cores
    params = FabricParams(args.cores, ancilla, args.beta_pmd, args.alpha_int, args.gamma_mem)
    cfg = ScheduleConfig(cycle_time=args.cycle_time)
    return program, profile, params, cfg


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        program, profile, params, cfg = _load_inputs(args)
        if args.command == "map":
            report = map_program(program, profile, params, cfg, args.epsilon, args.seed)
            if args.dump_qodg:
                with open(args.dump_qodg, "w", encoding="utf-8") as fh:
                    for rep_id in sorted(report.kernel_maps):
                        dump_dot(report.kernel_maps[rep_id].qodg, fh)
            _emit(render_report(report, include_timings=args.timings), args.out)
        elif args.command == "sweep-budget":
            budgets = range(args.a_from, args.a_to + 1, args.a_step)
            if not budgets:
                raise ConfigError("empty budget range")
            result = sweep_budget(program, profile, params, budgets, cfg,
                                  args.epsilon, args.seed)
            for a, why in result.skipped:
                print(f"warning: skipped A={a}: {why}", file=sys.stderr)
            if result.saturation_value is not None:
                print(f"saturation: A={result.saturation_value} "
                      f"latency_us={result.saturation_latency_us:g}", file=sys.stderr)
            write_sweep_csv(result, args.out or sys.stdout)
        else:
            ks = [int(v) for v in args.k_list.split(",") if v.strip()]
            result = sweep_cores(program, profile, params, ks, cfg, args.epsilon, args.seed)
            for k, why in result.skipped:
                print(f"warning: skipped k={k}: {why}", file=sys.stderr)
            write_sweep_csv(result, args.out or sys.stdout)
    except NetlistError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
