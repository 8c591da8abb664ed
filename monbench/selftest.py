"""Self-tests of the benchmark's checks: each must reject a corrupted output.

    python3 monbench/selftest.py

Every test first shows that a check passes on a real output of the program
and then that it fails once that output is corrupted in one place. The file
also runs under pytest when named on its command line.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import hybridmon as hm  # noqa: E402
from hybridmon.simulate import write_trace_csv, write_trace_jsonl  # noqa: E402
from hybridmon.train_gate import STEADY_TIME, TRAIN_GATE_MODEL_DICT  # noqa: E402

import checks  # noqa: E402
import family  # noqa: E402
import workloads  # noqa: E402
from spans import NullTracer  # noqa: E402

DOC = TRAIN_GATE_MODEL_DICT
SLOPE = 0.045
_cache: dict = {}


def _attacked():
    if "attacked" not in _cache:
        config = hm.train_gate_scenario(seed=3, attack=hm.ramp_attack(SLOPE, STEADY_TIME))
        _cache["attacked"] = hm.simulate(config)
    return _cache["attacked"]


def _nominal():
    if "nominal" not in _cache:
        _cache["nominal"] = hm.simulate(hm.train_gate_scenario(seed=4), keep_trace=False).summary
    return _cache["nominal"]


def _analyses():
    if "analyses" not in _cache:
        ring = family.draw_ring(np.random.default_rng([7, 0]), 4)
        bench = workloads.ModelAnalyses(hm, 7, NullTracer())
        docs = {m: family.ring_document(ring, 3, m) for m in (False, True)}
        _cache["analyses"] = (docs, {m: bench.analyse(d) for m, d in docs.items()}, bench)
    return _cache["analyses"]


def _thresholds():
    return {q: b.threshold for q, b in hm.state_guarantees(hm.train_gate_model()).items()}


def test_flipped_conflict_flag():
    trace = _attacked().trace
    assert checks.check_trace_flags(trace, DOC) == []
    armed = np.flatnonzero(~trace.warming_up)
    for column in ("conflict_a", "conflict_b"):
        flags = getattr(trace, column).copy()
        flags[armed[len(armed) // 2]] ^= True
        assert checks.check_trace_flags(replace(trace, **{column: flags}), DOC)
    volume = trace.volume.copy()
    volume[armed[0]] *= 1.001
    assert checks.check_trace_flags(replace(trace, volume=volume), DOC)


def _change_last_digit(path: Path, row: int, column: int) -> None:
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[row].split(",")
    cell = cells[column]
    cells[column] = cell[:-1] + ("1" if cell[-1] != "1" else "2")
    lines[row] = ",".join(cells)
    path.write_text("".join(lines))


def test_csv_value_changed_in_last_digit(tmp_path=None):
    out = Path(tmp_path) if tmp_path else workloads.OUT_DIR
    out.mkdir(exist_ok=True)
    trace = _attacked().trace
    csv_path, jsonl_path = out / "selftest.csv", out / "selftest.jsonl"
    write_trace_csv(trace, str(csv_path))
    write_trace_jsonl(trace, str(jsonl_path))
    assert checks.check_trace_csv(trace, csv_path) == []
    assert checks.check_trace_jsonl(trace, jsonl_path) == []
    _change_last_digit(csv_path, row=100, column=3)  # y_0 of sample 99
    assert checks.check_trace_csv(trace, csv_path)
    text = jsonl_path.read_text().replace('"volume": ', '"volume": 1', 1)
    jsonl_path.write_text(text)
    assert checks.check_trace_jsonl(trace, jsonl_path)


def test_mirrored_threshold_nudged():
    _, results, _ = _analyses()
    original, mirrored = results[False], results[True]
    assert checks.check_mirror(original, mirrored) == []
    q = next(iter(mirrored["guarantees"]))
    bound = mirrored["guarantees"][q]
    nudged = dict(mirrored["guarantees"])
    nudged[q] = replace(bound, threshold=bound.threshold + 1e-6)
    assert checks.check_mirror(original, {**mirrored, "guarantees": nudged})


def test_kalman_gain_scaled():
    docs, results, _ = _analyses()
    bank = results[False]["bank"]
    assert checks.check_gains(bank, docs[False]) == []
    q = next(iter(bank.gains))
    scaled = dict(bank.gains)
    scaled[q] = replace(bank.gains[q], gain=0.9 * bank.gains[q].gain)
    assert checks.check_gains(replace(bank, gains=scaled), docs[False])


def test_horizon_off_by_one():
    docs, results, _ = _analyses()
    deltas = dict(results[False]["deltas"])
    assert checks.check_deltas(deltas, docs[False]) == []
    q = next(q for q, d in deltas.items() if d > 0)
    for step in (-1, 1):
        assert checks.check_deltas({**deltas, q: deltas[q] + step}, docs[False])


def test_observability_and_round_trip():
    docs, results, bench = _analyses()
    result = results[False]
    assert checks.check_observability(result["observability"]) == []
    assert checks.check_observability(replace(result["observability"], k=2))
    again = bench.reanalyse(result["reparsed"])
    assert checks.same_analyses(result, again) == []
    q = next(iter(again["guarantees"]))
    changed = dict(again["guarantees"])
    changed[q] = replace(changed[q], z_star=changed[q].z_star + 1e-12)
    assert checks.same_analyses(result, {**again, "guarantees": changed})


def test_nominal_summary_corrupted():
    summary = _nominal()
    assert checks.check_nominal(summary, DOC, ("s_1", "s_2")) == []
    bound = checks.volume_bound(DOC)
    assert checks.check_nominal(replace(summary, max_volume=bound * 1.001), DOC)
    assert checks.check_nominal(replace(summary, first_baseline_alarm=50.0), DOC)
    assert checks.check_nominal(replace(summary, events=summary.events[::-1]), DOC, ("s_1", "s_2"))
    early = replace(summary.events[1], sample=summary.events[0].sample + DOC["dwell_time"])
    assert checks.check_nominal(
        replace(summary, events=(summary.events[0], early)), DOC, ("s_1", "s_2")
    )


def test_late_detection():
    result = _attacked()
    thresholds = _thresholds()
    flagged = int(np.flatnonzero(result.trace.conflict_b | result.trace.conflict_c)[0])
    args = (DOC, thresholds, SLOPE, STEADY_TIME)
    assert checks.check_detection(result.summary, flagged, *args) == []
    exit_sample = result.summary.events[0].sample
    assert checks.check_detection(result.summary, exit_sample + 1, *args)
    assert checks.check_detection(result.summary, None, *args)


def test_sweep_rerun_differs():
    bench = workloads.TgNominal(hm, 1, NullTracer())
    bench.first = _nominal()
    assert bench.run_checks() == []
    bench.first = replace(_nominal(), max_residual=_nominal().max_residual * 1.001)
    assert bench.run_checks()


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} self-tests passed")
