"""Run one benchmark workload and print its metrics as a JSON line.

    python3 perfbench/run.py --workload pipe_serial --seed 1 --seconds 30 \
        --trace 0

Workloads: ``pipe_serial``, ``pipe_2rank``, ``service_mix`` (see
``perfbench/README.md``).  ``--trace 0`` measures the end-to-end metrics
with nothing wrapped; ``--trace 1`` alternates untraced and traced units
and prints the per-layer metrics.  Human-readable lines (failed checks,
findings, the slowest trace ids) go before the final JSON line.

The program is imported from ``src/`` of the checkout this file sits in;
without it the run exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
#: Journals and result stores of the run's units, removed at exit.
WORKDIR = CHECKOUT / ".perfbench_work"

#: Fewest units a run measures, however short ``--seconds`` is.
MIN_UNITS = 3
#: Untraced/traced unit pairs a traced run makes at least.
MIN_PAIRS = 2


def import_program() -> None:
    """Put ``src/`` first on the path and check ``repro`` comes from it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def repeat(seconds: float, minimum: int, fn) -> list:
    """Call ``fn`` until ``seconds`` passed and ``minimum`` calls were made."""
    deadline = perf_counter() + seconds
    out = []
    while len(out) < minimum or perf_counter() < deadline:
        out.append(fn())
    return out


class Outcome:
    """Ops attempted/failed and the messages of the failed ones."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, attempted: int, failures) -> None:
        self.attempted += attempted
        self.failed += len(failures)
        self.messages.extend(failures)


def report(outcome: Outcome, metrics: dict, catalogue) -> dict:
    for msg in outcome.messages[:20]:
        print(f"check failed: {msg}")
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, *_ in catalogue},
    }


# -- traced runs ---------------------------------------------------------------


def traced(fn):
    """Run ``fn(tracer)`` with every layer wrapped; returns
    ``(result, span table, probes)``."""
    from layers import Probes, targets
    from spans import SpanTracer, patched
    tracer = SpanTracer()
    probes = Probes()
    with patched(targets(tracer, probes)):
        with tracer.span("other.unit"):
            result = fn(tracer)
    return result, tracer.table(), probes


def print_slowest_traces(table, top: int = 3) -> None:
    """The slowest keyed spans (request / step) with their layer split."""
    keyed = sorted((i for i, sid in enumerate(table.sid.tolist())
                    if sid in table.keys), key=lambda i: -table.duration[i])
    chosen = {table.keys[int(table.sid[i])]: i for i in keyed[:top]}
    split: dict = {k: {} for k in chosen}
    for i, key in enumerate(table.trace_keys()):
        if key in split:
            layer = table.names[int(table.name_id[i])].split(".", 1)[0]
            split[key][layer] = split[key].get(layer, 0.0) \
                + float(table.self_time[i])
    for key, i in chosen.items():
        parts = ", ".join(f"{layer} {s * 1e3:.1f}"
                          for layer, s in sorted(split[key].items(),
                                                 key=lambda kv: -kv[1]))
        print(f"trace {key!r}: {table.duration[i] * 1e3:.1f} ms "
              f"{table.names[int(table.name_id[i])]}; self ms by layer: "
              f"{parts}")


def combine_traced(per_unit: list[dict], program: list[dict]) -> dict:
    """One metric set from the traced units.  ``program`` holds every
    unit's program-output counts; counts that do not repeat are printed
    as findings, never dropped."""
    from metrics import EXACT, PER_LAYER
    for name in sorted(set().union(*program)):
        values = [p.get(name) for p in program]
        if len(set(values)) > 1:
            print(f"finding: {name} differs between the untraced and "
                  f"traced units of one run: {values}")
    for name in sorted(EXACT):
        values = [m.get(name, 0) for m in per_unit]
        if len(set(values)) > 1:
            print(f"finding: {name} differs between traced units: {values}")
    out = {}
    for name, _unit, _better in PER_LAYER:
        values = [m.get(name, 0) for m in per_unit]
        out[name] = values[0] if name in EXACT else statistics.fmean(values)
    return out


# -- workloads -----------------------------------------------------------------


class Bench:
    """The run skeleton; subclasses define a unit and its checks."""

    #: ops one unit attempts (all failed when the unit raises)
    ops_per_unit = 0

    def warm_up(self) -> None:
        raise NotImplementedError

    def unit(self):
        """One untraced unit."""
        raise NotImplementedError

    def traced_unit(self, tracer):
        """One unit run under ``traced``."""
        return self.unit()

    def check(self, units, outcome: Outcome) -> None:
        raise NotImplementedError

    def setup_samples(self, units) -> list:
        raise NotImplementedError

    def end_to_end(self, units) -> dict:
        """Medians over the run's units; a request percentile is taken
        over each unit's requests first."""
        def per_unit(q):
            return statistics.median(percentile(u.request_walls, q)
                                     for u in units) * 1e3
        return {
            "time_to_solution_s": statistics.median(
                u.time_to_solution_s for u in units),
            "setup_s": statistics.median(self.setup_samples(units)),
            "served_per_s": statistics.median(
                u.served / u.time_to_solution_s for u in units),
            "request_wall_p50_ms": per_unit(0.50),
            "request_wall_p90_ms": per_unit(0.90),
        }

    def layer_counts(self, unit, probes) -> tuple:
        """``(EventLog, program-output counts)`` of one unit; ``probes``
        is ``None`` for an untraced unit."""
        raise NotImplementedError

    def between_pairs(self) -> None:
        """Untraced work before each traced unit (none)."""

    def finish_trace(self, plain, outcome: Outcome) -> float:
        """``comm.speedup_vs_1rank`` (0: not measured on this workload)."""
        return 0.0

    def guarded_unit(self, outcome: Outcome):
        try:
            return self.unit()
        except Exception:  # noqa: BLE001 - report the unit, keep measuring
            traceback.print_exc(file=sys.stderr)
            outcome.add(self.ops_per_unit,
                        ["unit raised"] * self.ops_per_unit)
            return None

    def measure(self, seconds: float) -> dict:
        from metrics import END_TO_END
        self.warm_up()
        outcome = Outcome()
        units = repeat(seconds, MIN_UNITS,
                       lambda: self.guarded_unit(outcome))
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = [u for u in units if u is not None]
        if not units:
            raise SystemExit("perfbench: every unit raised")
        self.check(units, outcome)
        metrics = self.end_to_end(units)
        metrics["peak_rss_mb"] = rss
        return report(outcome, metrics, END_TO_END)

    def trace(self, seconds: float) -> dict:
        from layers import layer_metrics
        from metrics import PER_LAYER
        self.warm_up()
        plain, runs = [], []

        def pair():
            plain.append(self.unit())
            self.between_pairs()
            runs.append(traced(self.traced_unit))
        repeat(seconds, MIN_PAIRS, pair)

        outcome = Outcome()
        tunits = [u for u, _, _ in runs]
        self.check(plain + tunits, outcome)
        per_unit = []
        for unit, table, probes in runs:
            log, counts = self.layer_counts(unit, probes)
            m = layer_metrics(table, probes, log)
            m.update(counts)
            per_unit.append(m)
        metrics = combine_traced(
            per_unit, [self.layer_counts(u, None)[1] for u in plain + tunits])
        metrics["trace.overhead_ratio"] = (
            statistics.median(u.wall_s for u in tunits)
            / statistics.median(u.wall_s for u in plain))
        metrics["comm.speedup_vs_1rank"] = self.finish_trace(plain, outcome)
        print_slowest_traces(runs[-1][1])
        return report(outcome, metrics, PER_LAYER)


class PipeBench(Bench):
    def __init__(self, name: str):
        import workloads
        self.w = workloads
        self.spec = workloads.PIPES[name]
        self.ops_per_unit = self.spec.steps
        self.baseline: list = []

    def warm_up(self) -> None:
        from dataclasses import replace
        self.w.run_pipe(replace(self.spec, n=32, steps=1))

    def unit(self):
        return self.w.run_pipe(self.spec)

    def check(self, units, outcome: Outcome) -> None:
        checker = self.w.PipeChecker(self.spec)
        for unit in units:
            outcome.add(self.spec.steps, checker.failures(unit))

    def setup_samples(self, units) -> list:
        return [u.setup_s for u in units]

    def layer_counts(self, unit, probes) -> tuple:
        return unit.events, unit.counts()

    def between_pairs(self) -> None:
        if self.spec.ranks > 1:
            self.baseline.append(self.w.run_pipe(self.spec, ranks=1))

    def finish_trace(self, plain, outcome: Outcome) -> float:
        if not self.baseline:
            return 0.0
        for two, one in zip(plain, self.baseline):
            diff = self.w.solution_mismatch(two, one)
            if diff > self.w.MATCH_RTOL:
                outcome.add(0, [f"2-rank solution differs from 1-rank by "
                                f"{diff:.2e}"])
        return (statistics.median(u.time_to_solution_s for u in self.baseline)
                / statistics.median(u.time_to_solution_s for u in plain))


class ServiceBench(Bench):
    #: Engine set-ups measured before each unit, besides the unit's own,
    #: so set-up samples spread over the run like the units do.
    SETUPS_PER_UNIT = 4

    def __init__(self, mix_seed: int):
        import workloads
        self.w = workloads
        self.mix_seed = mix_seed
        self.requests = workloads.mix(mix_seed)
        self.ops_per_unit = len(self.requests)
        self.serial = 0
        self.setups: list[float] = []

    def workdir(self) -> Path:
        self.serial += 1
        return WORKDIR / f"unit-{self.serial}"

    def warm_up(self) -> None:
        self.w.run_service(self.requests[:30], self.mix_seed, self.workdir())

    def between_pairs(self) -> None:
        os.sync()

    def unit(self):
        os.sync()   # let the last unit's writes settle before timing set-ups
        for _ in range(self.SETUPS_PER_UNIT):
            s = self.w.setup_service(self.mix_seed, self.workdir(), None)
            self.setups.append(s.setup_s)
            s.journal.close()
        unit = self.w.run_service(self.requests, self.mix_seed,
                                  self.workdir())
        self.setups.append(unit.setup_s)
        return unit

    def traced_unit(self, tracer):
        from spans import EngineTracerAdapter
        return self.w.run_service(self.requests, self.mix_seed,
                                  self.workdir(), EngineTracerAdapter(tracer))

    def check(self, units, outcome: Outcome) -> None:
        expected = units[0].stats["by_status"]
        print(f"statuses: {json.dumps(expected, sort_keys=True)}")
        for unit in units:
            bad = self.w.service_failures(unit, self.requests, expected)
            outcome.add(len(unit.ops), list(bad.values()))

    def setup_samples(self, units) -> list:
        return self.setups

    def layer_counts(self, unit, probes) -> tuple:
        from repro.utils.events import EventLog
        counts = unit.counts()
        if probes is None:
            return None, counts
        counts["service.useful_dispatch_ratio"] = (
            unit.served / counts["service.dispatches"])
        counts["service.cache.hit_ratio"] = (
            counts["service.cache.hits"] / counts["service.cache.lookups"])
        return EventLog.merged(s.events for s in probes.stacks), counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("pipe_serial", "pipe_2rank", "service_mix"))
    parser.add_argument("--seed", type=int, default=0,
                        help="accepted for the runner; every workload is "
                             "deterministic (see --mix-seed)")
    parser.add_argument("--mix-seed", type=int, default=None,
                        help="service_mix request-mix seed (default "
                             "20170905; 4099 is held out)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One CPU for the whole run, so rank threads hand off on one core
    # (see README "Host noise"); set before numpy starts its threads.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import_program()
    import workloads
    if args.workload == "service_mix":
        bench: Bench = ServiceBench(workloads.DEFAULT_MIX_SEED
                                    if args.mix_seed is None
                                    else args.mix_seed)
    else:
        bench = PipeBench(args.workload)
    try:
        result = (bench.trace(args.seconds) if args.trace
                  else bench.measure(args.seconds))
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
