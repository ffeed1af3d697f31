"""Run one workload and turn its jobs into the benchmark's metrics.

``--trace 0`` times jobs with nothing wrapped and reports the end-to-end
metrics. ``--trace 1`` runs each input once plain and once traced and
reports the per-layer metrics, the tracing overhead among them. Both runs
check every job's output; the traced run also re-checks every schedule the
scheduler returns with :func:`qcmbench.checks.check_schedule`.
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

import numpy as np

from . import BENCH_DIR, ROOT, SOURCE, THREAD_VARS
from .checks import check_schedule, op_rows, program_lower_bound, read_netlist
from .tracing import Tracer
from .workloads import Workload

# name -> unit, in output order
END_TO_END = {
    "setup_s": "s",
    "compile_s": "s",
    "peak_rss_mb": "MiB",
    "latency_us": "us",
    "latency_over_bound": "ratio",
}

_FABRIC = ("compute_dmax", "compute_geometry", "grid_layout", "delay_matrix")

# name -> (unit, functions that must have run for the value to be measured)
PER_LAYER = {
    "ir.parse_s": ("s", ("parse_program",)),
    "ir.identify_s": ("s", ("identify_kernels",)),
    "ir.ops": ("count", ("parse_program",)),
    "ir.kernels": ("count", ("parse_program",)),
    "ir.stages": ("count", ("parse_program",)),
    "qodg.build_s": ("s", ("build_qodg",)),
    "qodg.level_s": ("s", ("level_graph",)),
    "qodg.calls": ("count", ("build_qodg",)),
    "qodg.nodes": ("count", ("build_qodg",)),
    "qodg.edges": ("count", ("build_qodg",)),
    "partition.weights_s": ("s", ("assign_weight_vectors",)),
    "partition.kway_s": ("s", ("kway_partition",)),
    "partition.calls": ("count", ("kway_partition",)),
    "partition.cut_qubits": ("qubits", ("kway_partition",)),
    "partition.n_con": ("count", ("assign_weight_vectors",)),
    "partition.balance": ("ratio", ("kway_partition",)),
    "fabric.s": ("s", _FABRIC),
    "fabric.d_max": ("qubits", ("compute_dmax",)),
    "binding.s": ("s", ("bind_parts",)),
    "binding.calls": ("count", ("bind_parts",)),
    "binding.exhaustive_calls": ("count", ("bind_parts",)),
    "binding.cost": ("us_qubits", ("bind_parts",)),
    "scheduling.quantize_s": ("s", ("quantize",)),
    "scheduling.schedule_s": ("s", ("list_schedule",)),
    "scheduling.schedule_calls": ("count", ("list_schedule",)),
    "scheduling.calls_per_distinct": ("ratio", ("list_schedule",)),
    "scheduling.dur_levels": ("levels", ("list_schedule",)),
    "scheduling.makespan_levels": ("levels", ("list_schedule",)),
    "scheduling.verify_s": ("s", ("verify_schedule",)),
    "scheduling.verify_calls": ("count", ("verify_schedule",)),
    "driver.self_s": ("s", ("map_program", "sweep_budget", "sweep_cores")),
    "trace.overhead_s": ("s", ()),
}

SETUP_REPEATS = 9
_SETUP_PROBE = """\
import sys, time
from qcmbench.workloads import WORKLOADS
t0 = time.perf_counter()
import qcoremap, qcoremap.generators
qcoremap.bundled_profile("steane")
WORKLOADS[sys.argv[1]].texts(qcoremap.generators, int(sys.argv[2]))
print(time.perf_counter() - t0)
"""


# ----------------------------------------------------------------------
# observers: counters taken from the arguments and results of traced calls

def _on_parse(tr, a, program):
    tr.counts["ir.ops"] += sum(len(k.body) for k in program.kernels.values())
    tr.counts["ir.kernels"] += len(program.kernels)
    tr.counts["ir.stages"] += len(program.sequence.stages)


def _on_build(tr, a, g):
    tr.counts["qodg.nodes"] += len(g)
    tr.counts["qodg.edges"] += len(g.edges)


def _on_weights(tr, a, ann):
    tr.counts["partition.n_con"] += ann.n_con


def _on_kway(tr, a, part):
    tr.counts["partition.cut_qubits"] += int(part.traffic.sum())
    n, k = len(part.assignment), a["k"]
    largest = int(np.bincount(part.assignment, minlength=k).max())
    tr.peaks["partition.balance"] = max(tr.peaks.get("partition.balance", 0.0),
                                        largest / -(-n // k))


def _on_dmax(tr, a, d_max):
    tr.samples.setdefault("fabric.d_max", []).append(d_max)


def _on_bind(tr, a, binding):
    tr.counts["binding.cost"] += binding.cost
    tr.counts["binding.exhaustive_calls"] += bool(binding.exhaustive)


def _on_schedule(tr, a, sched):
    g, part, lev, budget = a["g"], a["partition"], a["lev"], a["budget_per_core"]
    tr.counts["scheduling.dur_levels"] += int(lev.dur_levels.sum())
    tr.counts["scheduling.makespan_levels"] += sched.makespan
    tr.samples.setdefault("pairs", []).append((g.kernel_id, part.k, budget, lev.cycle_time))
    node_core = np.asarray(a["binding"].part_to_core)[part.assignment]
    ops = tr.context["kernels"][g.kernel_id]
    for v in check_schedule(ops, sched, node_core, lev.route_levels, budget,
                            lev.cycle_time, tr.context["rows"]):
        tr.violations.append(f"kernel {g.kernel_id}, budget {budget}: {v}")


OBSERVERS = {
    "parse_program": _on_parse,
    "build_qodg": _on_build,
    "assign_weight_vectors": _on_weights,
    "kway_partition": _on_kway,
    "compute_dmax": _on_dmax,
    "bind_parts": _on_bind,
    "list_schedule": _on_schedule,
}


def _layer_values(tr: Tracer, job_s: float) -> dict:
    s, c, n = tr.seconds, tr.calls, tr.counts
    pairs = set(tr.samples.get("pairs", ()))
    d_max = tr.samples.get("fabric.d_max")
    return {
        "ir.parse_s": s["parse_program"],
        "ir.identify_s": s["identify_kernels"],
        "ir.ops": n["ir.ops"],
        "ir.kernels": n["ir.kernels"],
        "ir.stages": n["ir.stages"],
        "qodg.build_s": s["build_qodg"],
        "qodg.level_s": s["level_graph"],
        "qodg.calls": c["build_qodg"],
        "qodg.nodes": n["qodg.nodes"],
        "qodg.edges": n["qodg.edges"],
        "partition.weights_s": s["assign_weight_vectors"],
        "partition.kway_s": s["kway_partition"],
        "partition.calls": c["kway_partition"],
        "partition.cut_qubits": n["partition.cut_qubits"],
        "partition.n_con": n["partition.n_con"],
        "partition.balance": tr.peaks.get("partition.balance"),
        "fabric.s": sum(s[f] for f in _FABRIC),
        "fabric.d_max": statistics.fmean(d_max) if d_max else None,
        "binding.s": s["bind_parts"],
        "binding.calls": c["bind_parts"],
        "binding.exhaustive_calls": n["binding.exhaustive_calls"],
        "binding.cost": n["binding.cost"],
        "scheduling.quantize_s": s["quantize"],
        "scheduling.schedule_s": s["list_schedule"],
        "scheduling.schedule_calls": c["list_schedule"],
        "scheduling.calls_per_distinct": c["list_schedule"] / len(pairs) if pairs else None,
        "scheduling.dur_levels": n["scheduling.dur_levels"],
        "scheduling.makespan_levels": n["scheduling.makespan_levels"],
        "scheduling.verify_s": s["verify_schedule"],
        "scheduling.verify_calls": c["verify_schedule"],
        "driver.self_s": job_s - tr.covered,
    }


# ----------------------------------------------------------------------
# running jobs

def closed_loop(n_inputs: int, seconds: float, job, min_jobs: int) -> None:
    """Call ``job(i)`` round-robin over the inputs, one call after another,
    at least ``min_jobs`` times, then until the next call would end after
    ``seconds``."""
    t_end = time.perf_counter() + seconds
    done = 0
    while True:
        t0 = time.perf_counter()
        job(done % n_inputs)
        last = time.perf_counter() - t0
        done += 1
        if done >= min_jobs and time.perf_counter() + last > t_end:
            return


class Run:
    """Job outcomes and check results of one run over a workload's corpus."""

    def __init__(self, qc, workload: Workload, texts: list[str], profile):
        self.qc = qc
        self.workload = workload
        self.texts = texts
        self.profile = profile
        self.rows = op_rows(profile)
        self.bounds = [program_lower_bound(t, self.rows) for t in texts]
        self.outcomes: dict[int, object] = {}   # input -> its first outcome
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def job(self, i: int, tracer: Tracer | None = None):
        """Run one job on input ``i``; return its seconds, or None if it raised.

        With a tracer, the job runs with the wrappers installed, and time
        spent in observers is taken out of the returned seconds.
        """
        self.attempted += self.workload.points
        try:
            if tracer is None:
                t0 = time.perf_counter()
                out = self.workload.job(self.qc, self.profile, self.texts[i])
                seconds = time.perf_counter() - t0
            else:
                tracer.reset()
                tracer.context = {"kernels": read_netlist(self.texts[i])[0], "rows": self.rows}
                with tracer.installed():
                    t0 = time.perf_counter()
                    out = self.workload.job(self.qc, self.profile, self.texts[i])
                    seconds = time.perf_counter() - t0 - tracer.excluded
                self.problems.extend(f"input {i}: {v}" for v in tracer.violations[:5])
        except Exception as exc:  # a raising job is a failure to count, not to stop on
            self.failed += self.workload.points
            print(f"input {i}: job raised {type(exc).__name__}: {exc}", file=sys.stderr)
            return None
        self.failed += out.skipped
        self._check(i, out)
        return seconds

    def _check(self, i: int, out) -> None:
        bound = self.bounds[i]
        for axis, latency in out.points:
            if latency < bound * (1 - 1e-12):
                self.problems.append(f"input {i}, point {axis}: latency {latency} us "
                                     f"below the critical-path bound {bound} us")
        if len(out.points) + out.skipped != self.workload.points:
            self.problems.append(f"input {i}: {len(out.points)} points and {out.skipped} "
                                 f"skipped, {self.workload.points} attempted")
        if self.outcomes.setdefault(i, out).answer != out.answer:
            self.problems.append(f"input {i}: answer differs between repetitions")

    def quality(self) -> dict:
        """latency_us and latency_over_bound, averaged over the mapped inputs."""
        lat, ratio = [], []
        for i, out in sorted(self.outcomes.items()):
            if out.points:
                values = [latency for _, latency in out.points]
                lat.append(sum(values))
                ratio.append(statistics.fmean(values) / self.bounds[i])
        return {"latency_us": statistics.fmean(lat) if lat else None,
                "latency_over_bound": statistics.fmean(ratio) if ratio else None}


def _per_input_mean(samples: dict[int, list[float]]):
    """Mean over inputs of each input's mean over its repetitions.

    Every input weighs the same however often it ran. Means, not medians:
    on a shared host whose speed drifts during a run, the mean of all jobs
    varied less between runs than a median of a few samples per input, and
    per-layer means add up to the traced job time.
    """
    means = [statistics.fmean(v) for v in samples.values() if v]
    return statistics.fmean(means) if means else None


def run_end_to_end(run: Run, seconds: float) -> dict:
    times: dict[int, list[float]] = {i: [] for i in range(len(run.texts))}

    def job(i):
        dt = run.job(i)
        if dt is not None:
            times[i].append(dt)

    # every input once, and input 0 again, so every run repeats a job
    closed_loop(len(run.texts), seconds, job, min_jobs=len(run.texts) + 1)
    return {"compile_s": _per_input_mean(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            **run.quality()}


def run_traced(run: Run, seconds: float) -> dict:
    """Per-layer metrics over the first half of the corpus (rounded up).

    Each input runs as a pair, untraced then traced; every metric is a
    per-job value averaged as in :func:`_per_input_mean`. A layer whose
    functions were never called is reported as None (unmeasured).
    """
    n = math.ceil(len(run.texts) / 2)
    tracer = Tracer(run.qc, OBSERVERS)
    plain = {i: [] for i in range(n)}
    traced = {i: [] for i in range(n)}
    layers: dict[int, list[dict]] = {i: [] for i in range(n)}
    calls: Counter = Counter()

    def pair(i):
        dt = run.job(i)
        if dt is not None:
            plain[i].append(dt)
        dt = run.job(i, tracer)
        if dt is not None:
            traced[i].append(dt)
            layers[i].append(_layer_values(tracer, dt))
            calls.update(tracer.calls)

    closed_loop(n, seconds, pair, min_jobs=n)
    for name in tracer.missing:
        print(f"layer function {name} not found: its metrics are unmeasured", file=sys.stderr)

    out = {}
    for name, (_, sources) in PER_LAYER.items():
        if not sources:
            continue
        values = {i: [row[name] for row in rows] for i, rows in layers.items()}
        if not any(calls.get(f) for f in sources) or any(
                v is None for vs in values.values() for v in vs):
            out[name] = None
        else:
            out[name] = _per_input_mean(values)
    plain_s, traced_s = _per_input_mean(plain), _per_input_mean(traced)
    out["trace.overhead_s"] = (traced_s - plain_s
                               if plain_s is not None and traced_s is not None else None)
    return out


# ----------------------------------------------------------------------
# set-up time and environment

def setup_seconds(workload: Workload, seed: int, repeats: int = SETUP_REPEATS) -> float:
    """Median over fresh interpreters of importing qcoremap, loading the
    profile and generating the run's inputs (interpreter start excluded)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SOURCE), str(BENCH_DIR))))
    samples = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", _SETUP_PROBE, workload.name, str(seed)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def _git_commit() -> str:
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
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "QCOREMAP_NO_JIT": os.environ.get("QCOREMAP_NO_JIT"),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


# ----------------------------------------------------------------------
# entry point

def main(qc, workload: Workload, seed: int, seconds: float, trace: bool) -> int:
    import qcoremap.generators as generators

    print("environment " + json.dumps(environment(), sort_keys=True))
    profile = qc.bundled_profile("steane")
    run = Run(qc, workload, workload.texts(generators, seed), profile)
    if trace:
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        values = run_traced(run, seconds)
    else:
        units = END_TO_END
        values = {"setup_s": setup_seconds(workload, seed), **run_end_to_end(run, seconds)}
    failed_ratio = run.failed / run.attempted
    for problem in run.problems:
        print(f"check failed: {problem}")
    print(f"{'workload':34s} {workload.name} (seed {seed}, {len(run.texts)} inputs)")
    for name, unit in units.items():
        value = values[name]
        shown = "unmeasured" if value is None else f"{value:.6g}"
        print(f"{name:34s} {shown} {unit}")
    print(f"{'fail_ratio':34s} {failed_ratio:.6g} ratio ({run.failed} of {run.attempted} points)")
    correct = not run.problems and all(values[name] is not None for name in END_TO_END
                                       if name in values)
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1
