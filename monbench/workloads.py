"""The four workloads: their set-up, their rounds of operations, their checks.

A workload is built from the program module, the seed and a tracer. Its
constructor is the set-up the benchmark times. `round(i)` returns the tasks
of round i; every input of a round comes from numpy's generator seeded with
(seed, i), so a round is the same whatever ran before it. A task is one
timed call into the program that carries `ops` operations: its `run`
returns the call's output, and its `check` returns one list of problems per
operation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import family

OUT_DIR = Path(__file__).resolve().parent / "out"


@dataclass
class Task:
    ops: int
    run: Callable[[], object]
    check: Callable[[object], list[list[str]]]


def _seeds(rng: np.random.Generator, count: int) -> list[int]:
    """Distinct scenario seeds (sweep drops repeats)."""
    seeds: set[int] = set()
    while len(seeds) < count:
        seeds.add(int(rng.integers(0, 2**31)))
    return sorted(seeds)


def _count_runs(tracer, summaries) -> None:
    for summary in summaries:
        tracer.count("simulate.samples", summary.samples)
        tracer.count("simulate.events", len(summary.events))


class TgNominal:
    """Attack-free crossings, two seeds per `sweep` call, summaries only.

    Two, not more, so that a call lasts about a second and the references
    that rescale its time (steady.py) run close to it.
    """

    name = "tg-nominal"
    batch = 2
    traced_rounds = 4

    def __init__(self, hm, seed: int, tracer) -> None:
        self.hm, self.seed, self.tracer = hm, seed, tracer
        self.model = hm.train_gate_model()
        self.base = hm.train_gate_scenario(model=self.model)
        from hybridmon.train_gate import TRAIN_GATE_MODEL_DICT

        self.doc = TRAIN_GATE_MODEL_DICT
        self.first = None

    def round(self, i: int) -> list[Task]:
        seeds = _seeds(np.random.default_rng([self.seed, i]), self.batch)

        def run():
            return self.tracer.call(
                "simulate.sweep", self.hm.sweep, self.base, seeds, keep_traces=False
            )

        def check(results):
            summaries = {r.summary.seed: r.summary for r in results}
            _count_runs(self.tracer, summaries.values())
            if self.first is None and seeds[0] in summaries:
                self.first = summaries[seeds[0]]
            return [
                checks.check_nominal(summaries[s], self.doc, ("s_1", "s_2"))
                if s in summaries
                else [f"seed {s} missing from the sweep"]
                for s in seeds
            ]

        return [Task(self.batch, run, check)]

    def memory_tasks(self) -> list[Task]:
        """One operation: a sweep over the first seed of round 0."""
        seed = _seeds(np.random.default_rng([self.seed, 0]), self.batch)[:1]
        return [Task(1, lambda: self.hm.sweep(self.base, seed, keep_traces=False), None)]

    def run_checks(self) -> list[str]:
        """One seed of the sweep, re-run alone, gives the same summary."""
        if self.first is None:
            return ["no sweep result to re-run"]
        alone = self.hm.simulate(replace(self.base, seed=self.first.seed), keep_trace=False)
        if alone.summary != self.first:
            return [f"seed {self.first.seed}: summary alone differs from the sweep's"]
        return []


class _Crossing:
    """Shared set-up of the workloads that call `simulate` with shared machinery."""

    def _build(self, model) -> None:
        call = self.tracer.call
        self.detector = self.hm.Detector(model)
        self.bank = call("kalman.synthesize", self.hm.synthesize_gains, model)
        self.observer = call(
            "observer.build", self.hm.build_observer, self.hm.extract_fsm(model)
        )
        bounds = call("guarantees.state", self.hm.state_guarantees, model)
        self.thresholds = {q: b.threshold for q, b in bounds.items()}

    def _simulate(self, config, keep_trace: bool):
        return self.tracer.call(
            "simulate.run",
            self.hm.simulate,
            config,
            keep_trace=keep_trace,
            detector=self.detector,
            bank=self.bank,
            observer=self.observer,
        )

    def run_checks(self) -> list[str]:
        return []

    def memory_tasks(self) -> list[Task]:
        return self.round(0)[:1]


class TgAttackTraces(_Crossing):
    """Position-sensor ramps of both signs; each run keeps and writes its trace."""

    name = "tg-attack-traces"
    slopes = (0.03, -0.03, 0.045, -0.045, 0.06, -0.06, 0.08, -0.08)
    traced_rounds = 1

    def __init__(self, hm, seed: int, tracer) -> None:
        self.hm, self.seed, self.tracer = hm, seed, tracer
        from hybridmon.simulate import write_trace_csv, write_trace_jsonl
        from hybridmon.train_gate import STEADY_TIME, TRAIN_GATE_MODEL_DICT

        self.write_csv, self.write_jsonl = write_trace_csv, write_trace_jsonl
        self.doc, self.start = TRAIN_GATE_MODEL_DICT, STEADY_TIME
        self.model = hm.train_gate_model()
        self._build(self.model)
        OUT_DIR.mkdir(exist_ok=True)
        self.csv_path = OUT_DIR / "attack-trace.csv"
        self.jsonl_path = OUT_DIR / "attack-trace.jsonl"

    def round(self, i: int) -> list[Task]:
        seeds = _seeds(np.random.default_rng([self.seed, i]), len(self.slopes))
        return [self._task(seed, slope) for seed, slope in zip(seeds, self.slopes)]

    def _task(self, seed: int, slope: float) -> Task:
        config = self.hm.train_gate_scenario(
            seed=seed, model=self.model, attack=self.hm.ramp_attack(slope, self.start)
        )

        def run():
            result = self._simulate(config, keep_trace=True)
            self.tracer.call("simulate.csv", self.write_csv, result.trace, str(self.csv_path))
            self.tracer.call(
                "simulate.jsonl", self.write_jsonl, result.trace, str(self.jsonl_path)
            )
            return result

        def check(result):
            summary, trace = result.summary, result.trace
            _count_runs(self.tracer, [summary])
            self.tracer.count(
                "simulate.trace_bytes",
                self.csv_path.stat().st_size + self.jsonl_path.stat().st_size,
            )
            problems = [] if len(trace) == summary.samples else ["trace rows != samples"]
            flagged = np.flatnonzero(trace.conflict_b | trace.conflict_c)
            problems += checks.check_detection(
                summary,
                int(flagged[0]) if flagged.size else None,
                self.doc,
                self.thresholds,
                slope,
                self.start,
            )
            problems += checks.check_trace_csv(trace, self.csv_path)
            problems += checks.check_trace_jsonl(trace, self.jsonl_path)
            problems += checks.check_trace_flags(trace, self.doc)
            return [problems]

        return Task(1, run, check)


class NdActuator(_Crossing):
    """The 3-D crossing: speed follows the command through an actuator state."""

    name = "nd-actuator"
    traced_rounds = 1
    # (slope or None for an attack-free run) per operation of a round
    plan = (None, 0.06, None, -0.06)
    # The approach, the s_1 event (where the attacked runs are caught, by
    # 56 s at these slopes) and 14 s of the slow section: short runs give
    # several operations per measured second, whose median steadies.
    duration = 70.0

    def __init__(self, hm, seed: int, tracer) -> None:
        self.hm, self.seed, self.tracer = hm, seed, tracer
        import json

        from hybridmon.train_gate import STEADY_TIME

        self.start = STEADY_TIME
        self.doc = json.loads(family.ND_MODEL_PATH.read_text())
        self.model = tracer.call("model_io.load", hm.load_model, family.ND_MODEL_PATH)
        self._build(self.model)
        self.origin = (0.0,) * self.model.dim

    def round(self, i: int) -> list[Task]:
        seeds = _seeds(np.random.default_rng([self.seed, i]), len(self.plan))
        return [self._task(seed, slope) for seed, slope in zip(seeds, self.plan)]

    def _task(self, seed: int, slope: float | None) -> Task:
        attack = None if slope is None else self.hm.ramp_attack(slope, self.start)
        config = replace(
            self.hm.train_gate_scenario(
                seed=seed, duration=self.duration, attack=attack, model=self.model
            ),
            initial_state=self.origin,
        )

        def run():
            return self._simulate(config, keep_trace=False)

        def check(result):
            summary = result.summary
            _count_runs(self.tracer, [summary])
            if slope is None:
                return [checks.check_nominal(summary, self.doc)]
            alarm = summary.first_conflict
            flagged = None
            if alarm is not None and alarm.kind in ("B", "C"):
                flagged = round(alarm.time / self.doc["sampling_period"])
            return [
                checks.check_detection(
                    summary, flagged, self.doc, self.thresholds, slope, self.start
                )
            ]

        return Task(1, run, check)


class ModelAnalyses:
    """Static analyses of the ring family: 2-D and 3-D, each also mirrored."""

    name = "model-analyses"
    traced_rounds = 40
    variants = ((2, False), (2, True), (3, False), (3, True))

    def __init__(self, hm, seed: int, tracer) -> None:
        self.hm, self.seed, self.tracer = hm, seed, tracer
        from hybridmon.reachability import compute_all_deltas

        self.compute_all_deltas = compute_all_deltas

    def round(self, i: int) -> list[Task]:
        # The mode count, which sets most of an analysis's work, takes each
        # value in turn, so that a run's mix of ring sizes does not depend on
        # the seed.
        low, high = family.RING_MODES
        modes = low + i % (high - low + 1)
        ring = family.draw_ring(np.random.default_rng([self.seed, i]), modes)
        originals: dict[int, dict] = {}
        return [
            self._task(family.ring_document(ring, dim, mirrored), dim, mirrored, originals)
            for dim, mirrored in self.variants
        ]

    def analyse(self, doc: dict) -> dict:
        """The pipeline behind compute-delta, compute-bounds and check-observability."""
        hm, call = self.hm, self.tracer.call
        model = call("model_io.parse", hm.parse_model, doc)
        problems = call("model.validate", hm.validate_model, model)
        regions = call("model.decompose", hm.decompose_regions, model)
        deltas = call("reachability.deltas", self.compute_all_deltas, model, regions)
        guarantees = call("guarantees.state", hm.state_guarantees, model, regions, deltas)
        bank = call("kalman.synthesize", hm.synthesize_gains, model)
        observer = call("observer.build", hm.build_observer, hm.extract_fsm(model))
        observability = call(
            "observer.check", hm.check_current_state_observability, observer
        )
        dumped = call("model_io.dump", hm.model_to_dict, model)
        reparsed = call("model_io.parse", hm.parse_model, dumped)
        return {
            "problems": problems,
            "deltas": deltas,
            "guarantees": guarantees,
            "bank": bank,
            "observability": observability,
            "reparsed": reparsed,
        }

    def reanalyse(self, model) -> dict:
        """The same analyses, untraced, for the round-trip check."""
        hm = self.hm
        regions = hm.decompose_regions(model)
        deltas = self.compute_all_deltas(model, regions)
        return {
            "deltas": deltas,
            "guarantees": hm.state_guarantees(model, regions, deltas),
            "bank": hm.synthesize_gains(model),
            "observability": hm.check_current_state_observability(
                hm.build_observer(hm.extract_fsm(model))
            ),
        }

    def _task(self, doc: dict, dim: int, mirrored: bool, originals: dict) -> Task:
        def run():
            return self.analyse(doc)

        def check(result):
            problems = [f"validation: {p}" for p in result["problems"]]
            problems += checks.check_deltas(result["deltas"], doc)
            problems += checks.check_gains(result["bank"], doc)
            problems += checks.check_observability(result["observability"])
            problems += checks.same_analyses(result, self.reanalyse(result["reparsed"]))
            if mirrored:
                if dim in originals:
                    problems += checks.check_mirror(originals[dim], result)
                else:
                    problems.append("the unmirrored model has no analysis to compare")
            else:
                originals[dim] = result
            return [problems]

        return Task(1, run, check)

    def run_checks(self) -> list[str]:
        return []

    def memory_tasks(self) -> list[Task]:
        """Rounds 0-7: the largest peak over 32 models varies little by seed."""
        return [task for i in range(8) for task in self.round(i)]


WORKLOADS = {w.name: w for w in (TgNominal, TgAttackTraces, ModelAnalyses, NdActuator)}
