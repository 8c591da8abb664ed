"""Closed-loop simulation with sensor attacks and both anomaly monitors.

One run steps the plant under truncated-Gaussian noise, fires guarded
transitions on the true state, feeds the discrete and continuous
observers, evaluates the conflict detector and the residual baseline
every sample, and reports first-alarm times against the safety-violation
time. A counter-based generator keyed by the seed makes traces
bit-reproducible.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .conflicts import Detector
from .kalman import KalmanBank, check_dwell, step_continuous, synthesize_gains
from .model import HybridAutomaton, ModeId, ModelError, extract_fsm, validate_model
from .observer import (
    DiscreteInconsistencyError,
    Node,
    ObserverFsm,
    build_observer,
    step_discrete,
)


@dataclass(frozen=True)
class AttackSpec:
    """Additive corruption of selected measurement axes from a start time.

    The measured output becomes y = x + v + gamma(t) on the selected axes;
    the plant and the event sensors see the true state throughout. A ramp
    grows by slope units per second from zero at the start time; a step
    jumps to the magnitude; a custom sequence is consumed one value per
    sample from the start and reads zero after it runs out.
    """

    axes: tuple[int, ...]
    kind: str = "ramp"
    slope: float = 0.0
    magnitude: float = 0.0
    start_time: float = 0.0
    samples: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("ramp", "step", "custom"):
            raise ValueError(f"unknown attack kind {self.kind!r}")
        if len(set(self.axes)) != len(self.axes):
            raise ValueError("attack axes repeat")
        if any(a < 0 for a in self.axes):
            raise ValueError("attack axes must be nonnegative")
        if self.start_time < 0:
            raise ValueError("attack start time must be nonnegative")
        if self.kind == "custom" and not self.samples:
            raise ValueError("custom attack needs a sample sequence")

    def magnitude_at(self, sample: int, sampling_period: float) -> float:
        """Signal value at a sample index."""
        start = int(round(self.start_time / sampling_period))
        if sample < start:
            return 0.0
        if self.kind == "ramp":
            return self.slope * (sample - start) * sampling_period
        if self.kind == "step":
            return self.magnitude
        offset = sample - start
        return self.samples[offset] if offset < len(self.samples) else 0.0

    def gamma(self, sample: int, sampling_period: float, dim: int) -> np.ndarray:
        """Additive output corruption vector at a sample index."""
        vec = np.zeros(dim)
        value = self.magnitude_at(sample, sampling_period)
        for axis in self.axes:
            if axis >= dim:
                raise ValueError(f"attack axis {axis} outside a {dim}-dimensional output")
            vec[axis] = value
        return vec


@dataclass(frozen=True)
class ZoneController:
    """Piecewise-constant reference input from the measured state.

    Emits inside_value while the measured coordinate is within half_width
    of the center (inclusive), outside_value elsewhere.
    """

    axis: int
    center: float
    half_width: float
    inside_value: float
    outside_value: float

    def control(self, y: np.ndarray, t: float) -> np.ndarray:
        inside = abs(float(y[self.axis]) - self.center) <= self.half_width
        return np.array([self.inside_value if inside else self.outside_value])


@dataclass(frozen=True)
class ConstantController:
    """Fixed reference input."""

    values: tuple[float, ...]

    def control(self, y: np.ndarray, t: float) -> np.ndarray:
        return np.array(self.values, dtype=float)


@dataclass(frozen=True)
class ZoneSpeedLimit:
    """Safety predicate: speed must stay at or under the limit near a point."""

    position_axis: int
    center: float
    half_width: float
    speed_axis: int
    limit: float

    def violated(self, x: np.ndarray) -> bool:
        near = abs(float(x[self.position_axis]) - self.center) <= self.half_width
        return near and float(x[self.speed_axis]) > self.limit


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything that determines one run; the seed fixes the trace bits."""

    model: HybridAutomaton
    controller: object
    initial_state: tuple[float, ...]
    initial_mode: ModeId
    duration: float
    seed: int = 0
    attack: AttackSpec | None = None
    safety: ZoneSpeedLimit | None = None
    stop_events: frozenset[str] = frozenset()


@dataclass(frozen=True)
class EventRecord:
    """One fired transition with the true state that fired it."""

    sample: int
    time: float
    source: ModeId
    target: ModeId
    input_event: str
    output_event: str
    state: tuple[float, ...]


@dataclass(frozen=True)
class ConflictAlarm:
    """First conflict: when, which check, and the estimated mode."""

    time: float
    kind: str  # "A", "B", or "C"
    mode: ModeId


@dataclass(frozen=True)
class SafetyViolation:
    time: float
    state: tuple[float, ...]


@dataclass(frozen=True)
class SimulationSummary:
    """Run outcome digest: alarms, events, violation, and steady maxima."""

    seed: int
    completed: bool
    end_time: float
    samples: int
    stop_event: str | None
    events: tuple[EventRecord, ...]
    first_conflict: ConflictAlarm | None
    first_baseline_alarm: float | None
    baseline_threshold: float
    safety_violation: SafetyViolation | None
    dwell_ok: bool
    discrete_inconsistency: float | None
    max_residual: float
    max_estimation_error: float
    max_volume: float

    @property
    def alarm(self) -> bool:
        return self.first_conflict is not None or self.first_baseline_alarm is not None


@dataclass(frozen=True)
class Trace:
    """Column arrays, one row per sample."""

    times: np.ndarray
    x_true: np.ndarray
    y: np.ndarray
    x_est: np.ndarray
    residual: np.ndarray
    mode_true: tuple[ModeId, ...]
    node: tuple[Node, ...]
    steady: np.ndarray
    warming_up: np.ndarray
    conflict_a: np.ndarray
    conflict_b: np.ndarray
    conflict_c: np.ndarray
    alarm: np.ndarray
    volume: np.ndarray

    def __len__(self) -> int:
        return self.times.size


@dataclass(frozen=True)
class SimulationResult:
    summary: SimulationSummary
    trace: Trace | None


@dataclass(frozen=True)
class FdiaClassification:
    """Whether a sensor selection admits a residual-stealthy injection."""

    feasible: bool
    indeterminate: bool
    eigenvalue: complex | None
    eigenvector: tuple[float, ...] | None
    reason: str


def baseline_threshold(model: HybridAutomaton) -> float:
    """Residual-monitor alarm level: estimation margin plus noise bound."""
    v = max(float(np.max(model.dynamics(q).v_bounds)) for q in model.mode_ids)
    return model.theta + v


def _truncated_gaussian(rng: np.random.Generator, bounds: np.ndarray) -> np.ndarray:
    """Gaussian draw with sigma = bound / 3, clipped to the bound."""
    return np.clip(rng.normal(0.0, bounds / 3.0), -bounds, bounds)


def _fired_transition(model: HybridAutomaton, mode_id: ModeId, x: np.ndarray):
    for tr in model.transitions_from(mode_id):
        if tr.guard.satisfied(x):
            return tr
    return None


def simulate(
    config: ScenarioConfig,
    *,
    keep_trace: bool = True,
    detector: Detector | None = None,
    bank: KalmanBank | None = None,
    observer: ObserverFsm | None = None,
) -> SimulationResult:
    """Run one closed-loop scenario.

    The plant steps with the current mode's dynamics; a transition fired at
    sample t switches the mode, the observer node, and the settling timer at
    t + 1, so the step across the event still belongs to the old mode. The
    detector sees the event pair at sample t, the sample whose state fired
    it. The attack corrupts only the measured output. A stop event ends the
    run at the sample that fired it. With keep_trace=False no per-sample
    row is kept; the summary is the same either way.
    """
    model = config.model
    problems = validate_model(model)
    if problems:
        raise ModelError("model failed validation: " + "; ".join(problems))
    h = model.sampling_period
    if config.attack is not None:
        settle = model.dwell_time * h
        if config.attack.start_time < settle - 1e-12:
            raise ValueError(
                f"attack starts at {config.attack.start_time} s but the observer "
                f"only settles at {settle} s"
            )
    if detector is None:
        detector = Detector(model)
    if bank is None:
        bank = synthesize_gains(model)
    if observer is None:
        observer = build_observer(extract_fsm(model))

    n = int(round(config.duration / h))
    if n <= 0:
        raise ValueError("duration too short for one sample")
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    threshold = baseline_threshold(model)

    x = np.array(config.initial_state, dtype=float)
    q: ModeId = config.initial_mode
    if not model.invariant(q).contains(x):
        raise ValueError("initial state lies outside the initial mode's invariant")
    node: Node = observer.root
    if q not in node:
        raise ValueError("initial mode is missing from the observer root")
    steady_timer = 0
    dim = x.size

    gamma0 = config.attack.gamma(0, h, dim) if config.attack else np.zeros(dim)
    v = _truncated_gaussian(rng, model.dynamics(q).v_bounds)
    y = x + v + gamma0
    x_est = y.copy()

    rows: list[tuple] | None = [] if keep_trace else None

    events: list[EventRecord] = []
    first_conflict: ConflictAlarm | None = None
    first_baseline: float | None = None
    violation: SafetyViolation | None = None
    inconsistency_time: float | None = None
    stop_event: str | None = None
    max_residual = 0.0
    max_error = 0.0
    max_volume = 0.0

    t, now = 0, 0.0
    for t in range(n):
        now = t * h
        r = y - x_est
        steady = steady_timer >= model.dwell_time
        if steady:
            r_norm = float(np.max(np.abs(r)))
            max_residual = max(max_residual, r_norm)
            max_error = max(max_error, float(np.max(np.abs(x - x_est))))
            if r_norm > threshold and first_baseline is None:
                first_baseline = now
        u = config.controller.control(y, now)
        fired = _fired_transition(model, q, x)
        event = (fired.input_event, fired.output_event) if fired is not None else None
        report = detector.evaluate(t, node, steady, x_est, r, event)
        if steady:
            max_volume = max(max_volume, report.volume)
        if report.alarm and first_conflict is None:
            kind = "A" if report.conflict_a else ("B" if report.conflict_b else "C")
            first_conflict = ConflictAlarm(time=now, kind=kind, mode=report.estimated_mode)
        if (
            config.safety is not None
            and violation is None
            and config.safety.violated(x)
        ):
            violation = SafetyViolation(time=now, state=tuple(x.tolist()))

        if rows is not None:
            rows.append(
                (now, x.copy(), y.copy(), x_est.copy(), r.copy(), q, node, steady)
                + (report.warming_up, report.conflict_a, report.conflict_b, report.conflict_c)
                + (report.alarm, report.volume)
            )

        if fired is not None:
            events.append(
                EventRecord(
                    sample=t,
                    time=now,
                    source=fired.source,
                    target=fired.target,
                    input_event=fired.input_event,
                    output_event=fired.output_event,
                    state=tuple(x.tolist()),
                )
            )
            if fired.output_event in config.stop_events:
                stop_event = fired.output_event
                break

        w = _truncated_gaussian(rng, model.dynamics(q).w_bounds)
        dyn = model.dynamics(q)
        x = dyn.a @ x + dyn.b @ u + w

        predict_mode = node[0]
        if fired is not None:
            q = fired.target
            try:
                node = step_discrete(observer, node, (fired.input_event, fired.output_event))
            except DiscreteInconsistencyError:
                inconsistency_time = (t + 1) * h
                break
            steady_timer = 0
        else:
            steady_timer += 1

        v = _truncated_gaussian(rng, model.dynamics(q).v_bounds)
        gamma = config.attack.gamma(t + 1, h, dim) if config.attack else np.zeros(dim)
        y = x + v + gamma
        estimate = step_continuous(bank, model, predict_mode, x_est, u, y, steady_timer)
        x_est = np.array(estimate.state)

    summary = SimulationSummary(
        seed=config.seed,
        completed=inconsistency_time is None,
        end_time=now,
        samples=t + 1,
        stop_event=stop_event,
        events=tuple(events),
        first_conflict=first_conflict,
        first_baseline_alarm=first_baseline,
        baseline_threshold=threshold,
        safety_violation=violation,
        dwell_ok=bool(check_dwell(model, [e.sample for e in events])),
        discrete_inconsistency=inconsistency_time,
        max_residual=max_residual,
        max_estimation_error=max_error,
        max_volume=max_volume,
    )
    if rows is None:
        return SimulationResult(summary=summary, trace=None)
    times, xs, ys, ests, rs, modes, nodes, steadies, warm, ca, cb, cc, alarms, vols = zip(*rows)
    trace = Trace(
        times=np.array(times),
        x_true=np.array(xs),
        y=np.array(ys),
        x_est=np.array(ests),
        residual=np.array(rs),
        mode_true=modes,
        node=nodes,
        steady=np.array(steadies, dtype=bool),
        warming_up=np.array(warm, dtype=bool),
        conflict_a=np.array(ca, dtype=bool),
        conflict_b=np.array(cb, dtype=bool),
        conflict_c=np.array(cc, dtype=bool),
        alarm=np.array(alarms, dtype=bool),
        volume=np.array(vols),
    )
    return SimulationResult(summary=summary, trace=trace)


def residual_baseline(trace: Trace, threshold: float) -> float | None:
    """First settled sample whose residual norm exceeds the threshold."""
    norms = np.max(np.abs(trace.residual), axis=1)
    hits = np.flatnonzero(trace.steady & (norms > threshold))
    return float(trace.times[hits[0]]) if hits.size else None


def sweep(
    base: ScenarioConfig,
    seeds: Iterable[int],
    *,
    keep_traces: bool = False,
) -> tuple[SimulationResult, ...]:
    """Run the same scenario across seeds, reusing the per-model machinery."""
    model = base.model
    detector = Detector(model)
    bank = synthesize_gains(model)
    observer = build_observer(extract_fsm(model))
    results = []
    for seed in sorted(set(int(s) for s in seeds)):
        config = replace(base, seed=seed)
        results.append(
            simulate(
                config,
                keep_trace=keep_traces,
                detector=detector,
                bank=bank,
                observer=observer,
            )
        )
    return tuple(results)


def classify_fdia(
    model: HybridAutomaton, mode_id: ModeId, gamma_axes: Sequence[int]
) -> FdiaClassification:
    """Can an attack on these sensors stay invisible to the residual monitor?

    Feasible when some eigenvalue of the mode's dynamics with modulus at
    least one has an eigenvector supported only on the attacked axes: the
    injected signal then reproduces a valid trajectory of the dynamics and
    the estimator tracks it. Defective critical eigenvalues without such a
    vector leave the answer indeterminate, since generalized eigenvectors
    could still align.
    """
    axes = tuple(sorted(set(int(a) for a in gamma_axes)))
    a = model.dynamics(mode_id).a
    n = a.shape[0]
    if any(axis < 0 or axis >= n for axis in axes):
        raise ValueError("attack axis outside the state dimension")
    if not axes:
        return FdiaClassification(
            feasible=False,
            indeterminate=False,
            eigenvalue=None,
            eigenvector=None,
            reason="no sensor selected",
        )
    eigvals = np.linalg.eigvals(a)
    critical = [lam for lam in eigvals if abs(lam) >= 1.0 - 1e-9]
    if not critical:
        return FdiaClassification(
            feasible=False,
            indeterminate=False,
            eigenvalue=None,
            eigenvector=None,
            reason="all eigenvalues strictly stable",
        )
    complement = [i for i in range(n) if i not in axes]
    saw_defective = False
    scale = max(1.0, float(np.max(np.abs(a))))
    for lam in _cluster(critical):
        algebraic = sum(1 for mu in critical if abs(mu - lam) <= 1e-6 * scale)
        shifted = a - lam * np.eye(n)
        null_basis = _null_space(shifted, tol=1e-9 * scale)
        geometric = null_basis.shape[1]
        if geometric == 0:
            saw_defective = True
            continue
        if not complement:
            vec = null_basis[:, 0]
            return _feasible(lam, vec)
        restricted = null_basis[complement, :]
        # a combination vanishing on the unattacked axes lives in this kernel
        kernel = _null_space(restricted, tol=1e-9)
        if kernel.shape[1] > 0:
            vec = null_basis @ kernel[:, 0]
            return _feasible(lam, vec)
        if geometric < algebraic:
            saw_defective = True
    if saw_defective:
        return FdiaClassification(
            feasible=False,
            indeterminate=True,
            eigenvalue=None,
            eigenvector=None,
            reason="critical eigenvalue is defective; eigenvectors alone are inconclusive",
        )
    return FdiaClassification(
        feasible=False,
        indeterminate=False,
        eigenvalue=None,
        eigenvector=None,
        reason="no critical eigenvector is supported on the attacked sensors",
    )


def _feasible(lam: complex, vec: np.ndarray) -> FdiaClassification:
    if abs(vec.imag).max() < 1e-9 * max(1.0, abs(vec.real).max()):
        vec = vec.real
    idx = int(np.argmax(np.abs(vec)))
    vec = vec / vec[idx]
    return FdiaClassification(
        feasible=True,
        indeterminate=False,
        eigenvalue=complex(lam),
        eigenvector=tuple(float(np.real(c)) for c in vec),
        reason="critical eigenvector lies on the attacked sensors",
    )


def _cluster(values: Sequence[complex], tol: float = 1e-6) -> list[complex]:
    out: list[complex] = []
    for value in values:
        if all(abs(value - seen) > tol for seen in out):
            out.append(value)
    return out


def _null_space(matrix: np.ndarray, tol: float) -> np.ndarray:
    if matrix.size == 0:
        return np.zeros((matrix.shape[0], 0))
    _, s, vh = np.linalg.svd(matrix)
    rank = int(np.sum(s > tol * max(1.0, s[0] if s.size else 1.0)))
    return vh[rank:].conj().T


def write_trace_csv(trace: Trace, path: str) -> None:
    """Fixed column order: time, state, output, estimate, residual, modes, verdicts."""
    dim = trace.x_true.shape[1]
    header = (
        ["t"]
        + [f"x_{i}" for i in range(dim)]
        + [f"y_{i}" for i in range(dim)]
        + [f"xest_{i}" for i in range(dim)]
        + [f"r_{i}" for i in range(dim)]
        + ["q", "q_node", "conflict_a", "conflict_b", "conflict_c", "alarm",
           "volume", "steady", "warming_up"]
    )
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for i in range(len(trace)):
            writer.writerow(
                [repr(float(trace.times[i]))]
                + [repr(float(value)) for value in trace.x_true[i]]
                + [repr(float(value)) for value in trace.y[i]]
                + [repr(float(value)) for value in trace.x_est[i]]
                + [repr(float(value)) for value in trace.residual[i]]
                + [
                    str(trace.mode_true[i]),
                    "|".join(str(m) for m in trace.node[i]),
                    int(trace.conflict_a[i]),
                    int(trace.conflict_b[i]),
                    int(trace.conflict_c[i]),
                    int(trace.alarm[i]),
                    repr(float(trace.volume[i])),
                    int(trace.steady[i]),
                    int(trace.warming_up[i]),
                ]
            )


def write_trace_jsonl(trace: Trace, path: str) -> None:
    """Same records as the CSV, one JSON object per line."""
    with open(path, "w") as handle:
        for i in range(len(trace)):
            record = {
                "t": float(trace.times[i]),
                "x": [float(v) for v in trace.x_true[i]],
                "y": [float(v) for v in trace.y[i]],
                "xest": [float(v) for v in trace.x_est[i]],
                "r": [float(v) for v in trace.residual[i]],
                "q": trace.mode_true[i],
                "q_node": list(trace.node[i]),
                "conflict_a": bool(trace.conflict_a[i]),
                "conflict_b": bool(trace.conflict_b[i]),
                "conflict_c": bool(trace.conflict_c[i]),
                "alarm": bool(trace.alarm[i]),
                "volume": float(trace.volume[i]),
                "steady": bool(trace.steady[i]),
                "warming_up": bool(trace.warming_up[i]),
            }
            handle.write(json.dumps(record) + "\n")
