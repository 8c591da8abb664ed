"""Benchmark of hybridmon: one workload per run, end to end or traced.

    python3 monbench/run.py --workload tg-nominal --seed 1 --seconds 20 --trace 0
    python3 monbench/run.py --workload all --seed 1

Run from the root of a checkout; the program is imported from its `src`
directory and from nowhere else. With `--trace 0` the run prints the
end-to-end metrics, with `--trace 1` the per-layer metrics of a traced run
(see README.md). The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. The run starts no threads;
it starts short child processes only to time set-up, one after another.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = BENCH / "out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
MIB = 2**20


def load_program():
    """Import hybridmon from the checkout's source tree, or stop."""
    sys.path.insert(0, str(SRC))
    try:
        import hybridmon
    except ImportError as exc:
        raise SystemExit(f"monbench: cannot import hybridmon from {SRC}: {exc}")
    if not Path(hybridmon.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"monbench: hybridmon was imported from {hybridmon.__file__}, not {SRC}")
    return hybridmon


def setup_probe(name: str, seed: int) -> None:
    """Child process: time the workload's set-up from before the import, then
    the reference computation twice (steady.py), and print both times."""
    start = time.perf_counter()
    hm = load_program()
    from spans import NullTracer
    from workloads import WORKLOADS

    WORKLOADS[name](hm, seed, NullTracer())
    setup_s = time.perf_counter() - start
    from steady import reference_s

    print(repr(setup_s), repr((reference_s() + reference_s()) / 2))


def time_setup(name: str, seed: int) -> list[float]:
    """Set-up times of fresh child processes, each rescaled by the references
    its child ran right after the set-up."""
    from steady import REF_S

    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--setup-probe", "--workload", name,
             "--seed", str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
        )
        if done.returncode != 0:
            raise SystemExit(f"monbench: set-up probe failed:\n{done.stderr}")
        setup_s, reference_s = map(float, done.stdout.strip().splitlines()[-1].split())
        samples.append(setup_s * REF_S / reference_s)
    return samples


class Tally:
    """Operations attempted and failed, and the wall time of each completed one.

    With a `SteadyClock`, every task's wall time and the per-operation time of
    each completed operation also go to the clock, as "busy" and "op".
    """

    def __init__(self, clock=None) -> None:
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.busy_s = 0.0
        self.op_s: list[float] = []
        self.problems: list[str] = []

    def run(self, task, tracer) -> None:
        start = time.perf_counter()
        try:
            output = task.run()
        except Exception as exc:  # a raising operation counts as failed
            elapsed = time.perf_counter() - start
            outcomes = [[f"raised {exc!r}"]] * task.ops
        else:
            elapsed = time.perf_counter() - start
            tracer.enabled = False
            try:
                outcomes = task.check(output)
            except Exception as exc:
                outcomes = [[f"check raised {exc!r}"]] * task.ops
            finally:
                tracer.enabled = True
        self.attempted += task.ops
        self.busy_s += elapsed
        if self.clock:
            self.clock.add(elapsed, "busy")
        for problems in outcomes:
            if problems:
                self.failed += 1
                self.problems += problems
            else:
                self.op_s.append(elapsed / task.ops)
                if self.clock:
                    self.clock.add(elapsed / task.ops, "op")
        if self.clock:
            self.clock.tick()


def report_problems(tally: Tally, run_problems: list[str]) -> None:
    for line in (tally.problems + run_problems)[:20]:
        print(f"monbench: {line}", file=sys.stderr)


def peak_per_task(tasks) -> float:
    """Largest tracemalloc peak of one task, above what was live before it.

    Garbage is collected before each task, so that a collection inside the
    task does not free memory counted in `before`.
    """
    import gc
    import tracemalloc

    peak = 0
    tracemalloc.start()
    try:
        for task in tasks:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            task.run()
            peak = max(peak, tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    return peak / MIB


def end_to_end(name: str, seed: int, seconds: float) -> dict:
    """The timed phase. Its times are wall times rescaled to the reference
    speed (steady.py); the log line gives the plain wall figures beside them."""
    hm = load_program()
    setup_s = time_setup(name, seed)
    from spans import NullTracer
    from steady import SteadyClock
    from workloads import WORKLOADS

    tracer = NullTracer()
    workload = WORKLOADS[name](hm, seed, tracer)
    tally = Tally(SteadyClock())
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        for task in workload.round(i):
            tally.run(task, tracer)
        i += 1
    tally.clock.settle()
    run_problems = workload.run_checks()
    report_problems(tally, run_problems)
    peak = peak_per_task(workload.memory_tasks())
    completed = tally.attempted - tally.failed
    busy_s = sum(tally.clock.done.get("busy", []))
    op_s = tally.clock.done.get("op", [])
    factors = tally.clock.factors
    print(
        f"{name}: {i} rounds, {tally.attempted} operations, {tally.failed} failed; "
        f"wall: {completed / tally.busy_s:.4g} ops/s, "
        f"op p50 {1e3 * statistics.median(tally.op_s) if tally.op_s else 0.0:.4g} ms; "
        f"rescaling factor median {statistics.median(factors):.4f} "
        f"[{min(factors):.4f}, {max(factors):.4f}] over {len(factors)} references; "
        f"set-up samples {['%.4f' % s for s in setup_s]}"
    )
    return {
        "correct": not run_problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "ops_per_s": {"value": completed / busy_s if busy_s else 0.0, "unit": "1/s"},
            "op_p50_ms": {
                "value": 1e3 * statistics.median(op_s) if op_s else 0.0,
                "unit": "ms",
            },
            "op_peak_mib": {"value": peak, "unit": "MiB"},
        },
    }


def per_layer(tracer) -> dict:
    spans = tracer.summary()
    counts = tracer.counts

    def calls(span: str) -> int:
        return spans.get(span, (0, 0.0))[0]

    def self_time(span: str) -> float:
        return spans.get(span, (0, 0.0))[1]

    def per_call(span: str, scale: float) -> float:
        n = calls(span)
        return scale * self_time(span) / n if n else 0.0

    samples = counts["simulate.samples"]
    loop_s = self_time("simulate.run") + self_time("simulate.sweep")
    intersects = calls("reachability.intersects")
    table = {
        "simulate.samples": (samples, "count"),
        "simulate.events": (counts["simulate.events"], "count"),
        "simulate.loop_self_us": (1e6 * loop_s / samples if samples else 0.0, "us"),
        "simulate.csv_ms": (per_call("simulate.csv", 1e3), "ms"),
        "simulate.jsonl_ms": (per_call("simulate.jsonl", 1e3), "ms"),
        "simulate.trace_bytes": (counts["simulate.trace_bytes"], "B"),
        "conflicts.evaluate_calls": (calls("conflicts.evaluate"), "count"),
        "conflicts.evaluate_us": (per_call("conflicts.evaluate", 1e6), "us"),
        "conflicts.build_ms": (per_call("conflicts.build", 1e3), "ms"),
        "reachability.intersects_calls": (intersects, "count"),
        "reachability.intersects_us": (per_call("reachability.intersects", 1e6), "us"),
        "reachability.lp_calls": (calls("reachability.lp"), "count"),
        "reachability.lp_us": (per_call("reachability.lp", 1e6), "us"),
        "reachability.lp_per_intersect": (
            calls("reachability.lp") / intersects if intersects else 0.0,
            "ratio",
        ),
        "reachability.reach_calls": (calls("reachability.reach"), "count"),
        "reachability.reach_us": (per_call("reachability.reach", 1e6), "us"),
        "reachability.deltas_ms": (per_call("reachability.deltas", 1e3), "ms"),
        "kalman.step_calls": (calls("kalman.step"), "count"),
        "kalman.step_us": (per_call("kalman.step", 1e6), "us"),
        "kalman.synthesize_ms": (per_call("kalman.synthesize", 1e3), "ms"),
        "kalman.riccati_iterations": (counts["kalman.riccati_iterations"], "count"),
        "observer.step_calls": (calls("observer.step"), "count"),
        "observer.step_us": (per_call("observer.step", 1e6), "us"),
        "observer.build_ms": (per_call("observer.build", 1e3), "ms"),
        "observer.nodes": (counts["observer.nodes"], "count"),
        "guarantees.state_ms": (per_call("guarantees.state", 1e3), "ms"),
        "guarantees.decompose_calls": (calls("guarantees.decompose"), "count"),
        "model.validate_ms": (per_call("model.validate", 1e3), "ms"),
        "model.decompose_ms": (per_call("model.decompose", 1e3), "ms"),
        "model_io.parse_ms": (per_call("model_io.parse", 1e3), "ms"),
        "model_io.dump_ms": (per_call("model_io.dump", 1e3), "ms"),
    }
    return {
        key: {"value": int(value) if unit in ("count", "B") else value, "unit": unit}
        for key, (value, unit) in table.items()
    }


def traced(name: str, seed: int) -> dict:
    """A fixed number of rounds with spans around every layer entry point.

    The rounds are fixed, not timed, so the counts repeat exactly for a seed.
    """
    hm = load_program()
    from spans import Tracer
    from workloads import WORKLOADS

    tracer = Tracer()
    tracer.install()
    try:
        workload = WORKLOADS[name](hm, seed, tracer)
        tally = Tally()
        for i in range(workload.traced_rounds):
            for j, task in enumerate(workload.round(i)):
                tracer.op = f"{i}.{j}"
                tally.run(task, tracer)
    finally:
        tracer.uninstall()
    run_problems = workload.run_checks()
    report_problems(tally, run_problems)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"spans-{name}-seed{seed}.jsonl")
    print(
        f"{name} traced: {tally.attempted} operations, {tally.failed} failed, "
        f"mean traced operation {1e3 * tally.busy_s / max(tally.attempted, 1):.3f} ms"
    )
    return {
        "correct": not run_problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": per_layer(tracer),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    sys.path.insert(0, str(BENCH))
    if args.setup_probe:
        setup_probe(args.workload, args.seed)  # before numpy is imported
        return 0
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(WORKLOADS)} or all")
    for name in names:
        if args.trace:
            result = traced(name, args.seed)
        else:
            result = end_to_end(name, args.seed, args.seconds)
        OUT_DIR.mkdir(exist_ok=True)
        text = json.dumps(result)
        (OUT_DIR / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(text + "\n")
        print(text, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
