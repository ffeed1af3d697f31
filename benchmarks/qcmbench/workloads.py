"""The benchmark's workloads.

Each workload is a closed loop over a corpus of generated netlists: one
job (parse, one public driver call, its checks) runs, then the next. The
run seed picks the corpus: input ``j`` of seed ``s`` is generated with
generator seed ``s * inputs + j``, so different run seeds never share an
input. A run maps every input of its corpus at least once; averaging over
several inputs keeps the spread between seeds small, because one input's
compile time and latency depend on its random structure.

All workloads use the bundled Steane profile. Why each one exists:

- ``map-random``: one large irregular kernel per input, mapped at k=4, so
  ``partition`` does nearly all the work; ``binding`` and ``scheduling``
  are small.
- ``budget-sweep``: a walk-style program of 5 stages over 2 distinct
  kernels, swept over 8 ancilla budgets at a fine 0.2 us cycle. Partition
  and binding run once per kernel, ``list_schedule`` and ``verify_schedule``
  run 45 times, so ``scheduling`` dominates.
- ``cores-sweep``: a small walk program rebuilt for k in {1, 2, 4, 8, 9}.
  k=8 runs the exhaustive 8! binding scan and k=9 the greedy one, so
  ``binding`` dominates, while scheduling is cheap at a 1 us cycle.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import partial
from typing import Callable


@dataclass(frozen=True)
class Outcome:
    """What one job returns: its points, skipped points and the answer that
    must repeat exactly whenever the same input is mapped again."""

    points: tuple[tuple[int, float], ...]   # (axis value, program latency us)
    skipped: int
    answer: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: int             # distinct netlists in one run's corpus
    points: int             # sweep points one job attempts
    netlist: Callable       # (qcoremap.generators, generator seed) -> text
    job: Callable           # (qcoremap, profile, text) -> Outcome

    def texts(self, generators, seed: int) -> list[str]:
        return [self.netlist(generators, seed * self.inputs + j) for j in range(self.inputs)]


def _random_text(n_ops, generators, seed):
    return generators.random_netlist(n_ops, 32, seed)


def _walk_text(layers, extra_calls, generators, seed):
    text = generators.walk_step_netlist(16, layers, seed=seed)
    return text + "".join(f".call step x{r}\n" for r in extra_calls)


def _map_job(k, budget, cycle, qc, profile, text):
    program = qc.parse_program(text)
    report = qc.map_program(program, profile, qc.FabricParams(k, budget), qc.ScheduleConfig(cycle))
    rendered = qc.render_report(report).encode()
    kernels = tuple(
        (rep, int(km.partition.traffic.sum()), km.binding.cost, km.schedule.makespan)
        for rep, km in sorted(report.kernel_maps.items())
    )
    latency = report.program_latency_us
    return Outcome(((k, latency),), 0, (latency, kernels, hashlib.sha256(rendered).hexdigest()))


def _budget_job(k, budgets, cycle, qc, profile, text):
    program = qc.parse_program(text)
    res = qc.sweep_budget(program, profile, qc.FabricParams(k, max(budgets)), budgets,
                          qc.ScheduleConfig(cycle))
    points = tuple((p.axis_value, p.latency_us) for p in res.points)
    return Outcome(points, len(res.skipped),
                   (points, res.saturation_value, res.saturation_latency_us))


def _cores_job(k_values, budget, cycle, qc, profile, text):
    program = qc.parse_program(text)
    res = qc.sweep_cores(program, profile, qc.FabricParams(1, budget), k_values,
                         qc.ScheduleConfig(cycle))
    points = tuple((p.axis_value, p.latency_us) for p in res.points)
    return Outcome(points, len(res.skipped), points)


def map_random(n_ops: int = 500, inputs: int = 14) -> Workload:
    return Workload(
        "map-random", inputs, 1, partial(_random_text, n_ops), partial(_map_job, 4, 800, 1.0),
    )


def budget_sweep(budgets=tuple(range(200, 1601, 200)), cycle: float = 0.2,
                 layers: int = 4, inputs: int = 5) -> Workload:
    return Workload(
        "budget-sweep", inputs, len(budgets), partial(_walk_text, layers, (1, 2, 4)),
        partial(_budget_job, 2, tuple(budgets), cycle),
    )


def cores_sweep(k_values=(1, 2, 4, 8, 9), layers: int = 2, inputs: int = 8) -> Workload:
    return Workload(
        "cores-sweep", inputs, len(set(k_values) | {1}), partial(_walk_text, layers, ()),
        partial(_cores_job, tuple(k_values), 1800, 1.0),
    )


WORKLOADS = {w.name: w for w in (map_random(), budget_sweep(), cores_sweep())}
