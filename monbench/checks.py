"""Correctness checks on the program's outputs.

Each check recomputes what it compares against from the model's numbers (a
schema document) or tests a property the method promises. None compares
against a stored copy of an earlier output. Each returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

# The Riccati iteration in the program stops on an absolute increment of
# 1e-9, which leaves relative errors up to about 1e-4 on the ring family;
# 1e-3 keeps a margin and still rejects a gain that is off by 10%.
DARE_RTOL = 1e-3
MIRROR_TOL = 1e-9
MAX_HORIZON = 10_000


def volume_bound(doc: dict) -> float:
    """prod(2 theta + 4 v_i) from the document's noise and theta."""
    v = np.asarray(doc["noise"]["v"], dtype=float)
    return float(np.prod(2.0 * doc["theta"] + 4.0 * v))


def _invariants(doc: dict) -> dict:
    return {s["id"]: np.asarray(s["invariant"], dtype=float) for s in doc["states"]}


def check_dwell(summary, dwell: int) -> list[str]:
    samples = [e.sample for e in summary.events]
    gaps = [later - (earlier + 1) for earlier, later in zip(samples, samples[1:])]
    if any(g <= dwell for g in gaps):
        return [f"settled gaps {gaps} do not all exceed the dwell {dwell}"]
    return []


def check_nominal(summary, doc: dict, events: tuple[str, ...] = ()) -> list[str]:
    """A run without attack: silent, volumes within the bound, events in order."""
    problems = []
    if summary.first_conflict is not None:
        problems.append(f"seed {summary.seed}: conflict {summary.first_conflict}")
    if summary.first_baseline_alarm is not None:
        problems.append(f"seed {summary.seed}: residual alarm at {summary.first_baseline_alarm}")
    bound = volume_bound(doc)
    if not summary.max_volume <= bound:
        problems.append(f"seed {summary.seed}: settled volume {summary.max_volume} > {bound}")
    fired = tuple(e.output_event for e in summary.events[: len(events)])
    if fired != events:
        problems.append(f"seed {summary.seed}: events {fired}, expected {events}")
    if events:
        problems += check_dwell(summary, doc["dwell_time"])
    return problems


def ramp_offset(sample: int, slope: float, start_time: float, h: float) -> float:
    """The ramp's sensor offset at a sample: zero before the start."""
    start = round(start_time / h)
    return slope * (sample - start) * h if sample >= start else 0.0


def check_detection(
    summary, flagged_sample: int | None, doc: dict, thresholds: dict, slope: float, start_time: float
) -> list[str]:
    """B or C raised by the exit event of the first state whose threshold the
    offset exceeds there, and before any safety violation."""
    h = doc["sampling_period"]
    exit_event = next(
        (
            e
            for e in summary.events
            if abs(ramp_offset(e.sample, slope, start_time, h)) > thresholds[e.source]
        ),
        None,
    )
    if exit_event is None:
        return [f"seed {summary.seed}: no exit event saw an offset above its threshold"]
    if flagged_sample is None:
        return [f"seed {summary.seed}: slope {slope} never raised B or C"]
    problems = []
    if flagged_sample > exit_event.sample:
        problems.append(
            f"seed {summary.seed}: slope {slope} flagged at sample {flagged_sample}, "
            f"after the {exit_event.output_event} event at {exit_event.sample}"
        )
    violation = summary.safety_violation
    if violation is not None and not flagged_sample < round(violation.time / h):
        problems.append(
            f"seed {summary.seed}: slope {slope} flagged at sample {flagged_sample}, "
            f"not before the violation at {violation.time} s"
        )
    return problems


def check_trace_flags(trace, doc: dict) -> list[str]:
    """Volume, A, B, warming-up and alarm columns against interval arithmetic.

    The box is the estimate plus and minus |r| + v. The detector is armed on
    a settled sample with a singleton node; then A is the box volume above
    prod(2 theta + 4 v) and B is the box missing the node's invariant.
    """
    v = np.asarray(doc["noise"]["v"], dtype=float)
    invariants = _invariants(doc)
    half = np.abs(trace.residual) + v
    vol = np.prod(2.0 * half, axis=1)
    armed = trace.steady & np.array([len(node) == 1 for node in trace.node], dtype=bool)
    lo = trace.x_est - half
    hi = trace.x_est + half
    misses = np.zeros(len(trace), dtype=bool)
    for i in np.flatnonzero(armed):
        box = invariants[trace.node[i][0]]
        misses[i] = bool(np.any(hi[i] < box[:, 0]) or np.any(lo[i] > box[:, 1]))
    expected = {
        "volume": vol,
        "conflict_a": armed & (vol > volume_bound(doc)),
        "conflict_b": armed & misses,
        "warming_up": ~armed,
        "alarm": trace.conflict_a | trace.conflict_b | trace.conflict_c,
    }
    problems = []
    for column, want in expected.items():
        got = getattr(trace, column)
        if column == "volume":
            bad = np.flatnonzero(~np.isclose(got, want, rtol=1e-12, atol=0.0))
        else:
            bad = np.flatnonzero(got != want)
        if bad.size:
            problems.append(
                f"trace column {column} disagrees on {bad.size} rows, first row {bad[0]}: "
                f"{got[bad[0]]} vs {want[bad[0]]}"
            )
    return problems


def _float_columns(trace):
    dim = trace.x_true.shape[1]
    return [("t", trace.times)] + [
        (f"{prefix}_{i}", array[:, i])
        for prefix, array in (
            ("x", trace.x_true),
            ("y", trace.y),
            ("xest", trace.x_est),
            ("r", trace.residual),
        )
        for i in range(dim)
    ] + [("volume", trace.volume)]


_FLAGS = ("conflict_a", "conflict_b", "conflict_c", "alarm", "steady", "warming_up")


def check_trace_csv(trace, path) -> list[str]:
    """The written CSV reads back equal to the trace, one row per sample."""
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    if len(rows) != len(trace):
        return [f"CSV has {len(rows)} rows for {len(trace)} samples"]
    problems = []
    for column, values in _float_columns(trace):
        read = np.array([float(row[column]) for row in rows])
        bad = np.flatnonzero(read != values)
        if bad.size:
            problems.append(f"CSV column {column} differs on {bad.size} rows, first {bad[0]}")
    for column in _FLAGS:
        read = np.array([int(row[column]) for row in rows], dtype=bool)
        if not np.array_equal(read, getattr(trace, column)):
            problems.append(f"CSV column {column} differs")
    modes = [str(q) for q in trace.mode_true]
    nodes = ["|".join(str(q) for q in node) for node in trace.node]
    if [row["q"] for row in rows] != modes or [row["q_node"] for row in rows] != nodes:
        problems.append("CSV mode columns differ")
    return problems


def check_trace_jsonl(trace, path) -> list[str]:
    """The written JSONL reads back equal to the trace, one record per sample."""
    with open(path) as handle:
        records = [json.loads(line) for line in handle]
    if len(records) != len(trace):
        return [f"JSONL has {len(records)} records for {len(trace)} samples"]
    problems = []
    arrays = {"x": trace.x_true, "y": trace.y, "xest": trace.x_est, "r": trace.residual}
    for key, values in arrays.items():
        read = np.array([rec[key] for rec in records], dtype=float)
        if read.shape != values.shape or np.any(read != values):
            problems.append(f"JSONL field {key} differs")
    for key, values in (("t", trace.times), ("volume", trace.volume)):
        if np.any(np.array([rec[key] for rec in records]) != values):
            problems.append(f"JSONL field {key} differs")
    for key in _FLAGS:
        if [rec[key] for rec in records] != getattr(trace, key).tolist():
            problems.append(f"JSONL field {key} differs")
    if [rec["q"] for rec in records] != list(trace.mode_true) or [
        rec["q_node"] for rec in records
    ] != [list(node) for node in trace.node]:
        problems.append("JSONL mode fields differ")
    return problems


def reference_deltas(doc: dict) -> dict:
    """Per-mode horizons from their definition.

    For each outgoing guard: the least d such that the (d + 1)-step reach
    set of the guard facet box touches the neighbour face on the guard
    axis, zero when the guard lies on that face. The reach set after k
    steps is A^k applied to the box, widened on every axis by the sum over
    j < k of ||A||^j (||B|| mu + max w), all norms infinity norms. A mode
    takes the least horizon of its guards, zero without guards.
    """
    states = {s["id"]: s for s in doc["states"]}
    w_max = float(np.max(doc["noise"]["w"]))
    per_mode: dict = {q: [] for q in states}
    for tr in doc["transitions"]:
        src = states[tr["source"]]
        a = np.asarray(src["A"], dtype=float)
        b = np.asarray(src["B"], dtype=float)
        inv_s = np.asarray(src["invariant"], dtype=float)
        inv_t = np.asarray(states[tr["target"]]["invariant"], dtype=float)
        axis, c_g = tr["guard"]["axis"], float(tr["guard"]["threshold"])
        c_l = min(inv_s[axis], key=lambda c: (abs(c - c_g), c))
        if abs(c_l - c_g) <= 1e-9:
            per_mode[tr["source"]].append(0)
            continue
        lo = np.maximum(inv_s[:, 0], inv_t[:, 0])
        hi = np.minimum(inv_s[:, 1], inv_t[:, 1])
        if np.any(lo > hi):
            lo, hi = inv_s[:, 0].copy(), inv_s[:, 1].copy()
        lo[axis] = hi[axis] = c_g
        center, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        a_norm = float(np.max(np.abs(a).sum(axis=1)))
        per_step = float(np.max(np.abs(b).sum(axis=1))) * doc["input_bound"] + w_max
        sigma = 0.0
        for k in range(1, MAX_HORIZON + 2):
            sigma += a_norm ** (k - 1) * per_step
            power = np.linalg.matrix_power(a, k)
            mid = float(power[axis] @ center)
            rad = float(np.abs(power[axis]) @ half) + sigma
            if mid - rad <= c_l <= mid + rad:
                per_mode[tr["source"]].append(k - 1)
                break
        else:
            per_mode[tr["source"]].append(None)
    return {q: (min(ds) if ds else 0) for q, ds in per_mode.items()}


def check_deltas(deltas: dict, doc: dict) -> list[str]:
    want = reference_deltas(doc)
    if dict(deltas) != want:
        return [f"horizons {dict(deltas)} differ from their definition {want}"]
    return []


def check_gains(bank, doc: dict) -> list[str]:
    """Predicted covariance and gain of each mode against SciPy's DARE solver.

    The noise model is Gaussian with sigma = bound / 3 and the output map is
    the identity, so P = solve_discrete_are(A', I, Q, R) and K = P (P + R)^-1.
    """
    from scipy.linalg import solve_discrete_are

    q_cov = np.diag((np.asarray(doc["noise"]["w"], dtype=float) / 3.0) ** 2)
    r_cov = np.diag((np.asarray(doc["noise"]["v"], dtype=float) / 3.0) ** 2)
    problems = []
    solved: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}
    for state in doc["states"]:
        a = np.asarray(state["A"], dtype=float)
        if a.tobytes() not in solved:
            p = solve_discrete_are(a.T, np.eye(a.shape[0]), q_cov, r_cov)
            solved[a.tobytes()] = (p, p @ np.linalg.inv(p + r_cov))
        p, k = solved[a.tobytes()]
        got = bank.gains[state["id"]]
        for name, want, have in (("covariance", p, got.predicted_covariance), ("gain", k, got.gain)):
            err = float(np.max(np.abs(have - want))) / float(np.max(np.abs(want)))
            if not err <= DARE_RTOL:
                problems.append(f"mode {state['id']}: {name} off by {err:.3g} relative")
    return problems


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= MIRROR_TOL


def check_mirror(original: dict, mirrored: dict) -> list[str]:
    """A mirrored model has the same horizons, z*, d* and thresholds."""
    problems = []
    if dict(original["deltas"]) != dict(mirrored["deltas"]):
        problems.append(f"mirrored horizons {mirrored['deltas']} != {original['deltas']}")
    for q, bound in original["guarantees"].items():
        other = mirrored["guarantees"][q]
        for field in ("z_star", "d_star", "threshold"):
            if not _close(getattr(bound, field), getattr(other, field)):
                problems.append(
                    f"state {q}: mirrored {field} {getattr(other, field)} != {getattr(bound, field)}"
                )
        guards = {g.input_event: g for g in other.guards}
        for g in bound.guards:
            h = guards.get(g.input_event)
            if h is None or not (_close(g.z_star, h.z_star) and _close(g.d_star, h.d_star)):
                problems.append(f"state {q}: mirrored guard {g.input_event} differs")
    return problems


def check_observability(result) -> list[str]:
    if not (result.observable and result.k == 1):
        return [f"ring observer not observable with k = 1: {result}"]
    return []


def same_analyses(a: dict, b: dict) -> list[str]:
    """Two analyses of one model agree exactly."""
    problems = []
    for key in ("deltas", "guarantees", "observability"):
        if a[key] != b[key]:
            problems.append(f"round trip changed {key}")
    for q, gain in a["bank"].gains.items():
        other = b["bank"].gains[q]
        if not (
            np.array_equal(gain.gain, other.gain)
            and np.array_equal(gain.predicted_covariance, other.predicted_covariance)
        ):
            problems.append(f"round trip changed the gain of mode {q}")
    return problems
