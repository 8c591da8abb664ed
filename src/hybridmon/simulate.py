"""Closed-loop simulation with sensor attacks and both anomaly monitors.

One run steps the plant under truncated-Gaussian noise, fires guarded
transitions on the true state, feeds the discrete and continuous
observers, evaluates the conflict detector and the residual baseline, and
reports first-alarm times against the safety-violation time. A
counter-based generator keyed by the seed makes traces bit-reproducible.

The loop has two parts. What feeds back into the plant (noise, guards, the
controller, the observers and the Kalman step) runs per sample, with each
mode's matrices, noise scales and guards looked up once per run and the
standard normals drawn once per block of samples. What does not feed back
(the detector, the baseline monitor, the steady maxima and the trace) is
recorded into fixed buffers and decided a block at a time by
`Detector.evaluate_rows`, which gives the same bits as deciding each sample
as it comes.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .conflicts import Detector
from .kalman import KalmanBank, check_dwell, step_continuous, synthesize_gains
from .model import (
    HybridAutomaton,
    ModeId,
    ModelError,
    Transition,
    extract_fsm,
    validate_model,
)
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
        for name in ("slope", "magnitude", "start_time"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"attack {name} must be finite, got {getattr(self, name)!r}")
        for i, value in enumerate(self.samples):
            if not math.isfinite(value):
                raise ValueError(f"attack samples[{i}] must be finite, got {value!r}")

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
        return self.gamma_rows(sample, 1, sampling_period, dim)[0]

    def gamma_rows(
        self, first: int, count: int, sampling_period: float, dim: int
    ) -> np.ndarray:
        """Corruption vectors of samples first, ..., first + count - 1, one row each."""
        for axis in self.axes:
            if axis >= dim:
                raise ValueError(f"attack axis {axis} outside a {dim}-dimensional output")
        rows = np.zeros((count, dim))
        values = [self.magnitude_at(s, sampling_period) for s in range(first, first + count)]
        rows[:, list(self.axes)] = np.array(values)[:, None]
        return rows


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


# Samples decided per detector pass. A summary-only run keeps one block of
# rows whatever its length; a larger block spends less NumPy call overhead
# per sample and keeps more rows.
BLOCK = 128


def _truncated_gaussian(z: np.ndarray, sigma: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Standard normals z scaled by sigma and clipped to the bound.

    `Generator.normal(0, sigma)` computes 0.0 + sigma * z from the same
    draw, -0.0 included, so scaling a block of standard normals gives the
    bits that one `normal` call per use gives.
    """
    return np.clip(0.0 + sigma * z, -bound, bound)


class _ModeStep(NamedTuple):
    """What a sample needs of one mode, looked up once per run."""

    a: np.ndarray
    b: np.ndarray
    gain: np.ndarray
    sigma: np.ndarray  # (2, n): standard deviations of w and v
    bound: np.ndarray  # (2, n): the bounds they are clipped to
    guards: tuple[tuple[int, int, float, Transition], ...]  # (axis, sign, threshold, transition)


def _mode_steps(model: HybridAutomaton, bank: KalmanBank) -> dict[ModeId, _ModeStep]:
    guards: dict[ModeId, list] = {q: [] for q in model.mode_ids}
    for tr in model.transitions:
        guards[tr.source].append((tr.guard.axis, tr.guard.sign, tr.guard.threshold, tr))
    steps = {}
    for mode in model.modes:
        dyn = mode.dynamics
        bound = np.stack([dyn.w_bounds, dyn.v_bounds])
        steps[mode.mode_id] = _ModeStep(
            dyn.a, dyn.b, bank.gains[mode.mode_id].gain, bound / 3.0, bound,
            tuple(guards[mode.mode_id]),
        )
    return steps


def _first_baseline(
    times: np.ndarray, steady: np.ndarray, residual: np.ndarray, threshold: float
) -> float | None:
    """Time of the first settled row whose residual norm exceeds the threshold."""
    norms = np.max(np.abs(residual), axis=1)
    hits = np.flatnonzero(steady & (norms > threshold))
    return float(times[hits[0]]) if hits.size else None


class _Recorder:
    """The rows that do not feed back into the plant, decided a block at a time.

    The loop writes each sample into row `t % BLOCK` of the buffers; `flush`
    hands a block to the detector and folds its verdicts into the summary
    figures, and, when the trace is kept, appends its columns to it.
    """

    def __init__(
        self, detector: Detector, threshold: float, h: float, dim: int, keep_trace: bool
    ) -> None:
        self.detector, self.threshold, self.h = detector, threshold, h
        self.x = np.empty((BLOCK, dim))
        self.y = np.empty((BLOCK, dim))
        self.x_est = np.empty((BLOCK, dim))
        self.steady = np.zeros(BLOCK, dtype=bool)
        self.modes: list = [None] * BLOCK
        self.nodes: list = [None] * BLOCK
        self.events: list = [None] * BLOCK
        self.chunks: list[tuple] | None = [] if keep_trace else None
        self.max_residual = 0.0
        self.max_error = 0.0
        self.max_volume = 0.0
        self.first_baseline: float | None = None
        self.first_conflict: ConflictAlarm | None = None

    def flush(self, first: int, k: int) -> None:
        """Decide rows 0 .. k - 1, which hold samples first .. first + k - 1."""
        x, y, x_est, steady = self.x[:k], self.y[:k], self.x_est[:k], self.steady[:k]
        nodes = self.nodes[:k]
        times = np.arange(first, first + k) * self.h
        residual = y - x_est
        rows = self.detector.evaluate_rows(nodes, steady, x_est, residual, self.events[:k])
        if steady.any():
            norms = np.max(np.abs(residual), axis=1)
            errors = np.max(np.abs(x - x_est), axis=1)
            self.max_residual = max(self.max_residual, float(norms[steady].max()))
            self.max_error = max(self.max_error, float(errors[steady].max()))
            self.max_volume = max(self.max_volume, float(rows.volume[steady].max()))
            if self.first_baseline is None:
                self.first_baseline = _first_baseline(times, steady, residual, self.threshold)
        alarm = rows.alarm
        if self.first_conflict is None and alarm.any():
            j = int(np.argmax(alarm))
            kind = "A" if rows.conflict_a[j] else ("B" if rows.conflict_b[j] else "C")
            self.first_conflict = ConflictAlarm(
                time=float(times[j]), kind=kind, mode=rows.estimated_mode[j]
            )
        if self.chunks is not None:
            self.chunks.append(
                (times, x.copy(), y.copy(), x_est.copy(), residual, self.modes[:k], nodes)
                + (steady.copy(), rows.warming_up, rows.conflict_a, rows.conflict_b)
                + (rows.conflict_c, alarm, rows.volume)
            )

    def trace(self) -> Trace:
        times, xs, ys, ests, rs, modes, nodes, steadies, warm, ca, cb, cc, alarms, vols = zip(
            *self.chunks
        )
        return Trace(
            times=np.concatenate(times),
            x_true=np.concatenate(xs),
            y=np.concatenate(ys),
            x_est=np.concatenate(ests),
            residual=np.concatenate(rs),
            mode_true=tuple(itertools.chain.from_iterable(modes)),
            node=tuple(itertools.chain.from_iterable(nodes)),
            steady=np.concatenate(steadies),
            warming_up=np.concatenate(warm),
            conflict_a=np.concatenate(ca),
            conflict_b=np.concatenate(cb),
            conflict_c=np.concatenate(cc),
            alarm=np.concatenate(alarms),
            volume=np.concatenate(vols),
        )


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
    run at the sample that fired it. A controller output that is not a
    vector of finite numbers raises ValueError at the sample that produced
    it. With keep_trace=False the run keeps one block of rows, not a row
    per sample; the summary is the same either way.
    """
    model = config.model
    problems = validate_model(model)
    if problems:
        raise ModelError("model failed validation: " + "; ".join(problems))
    h = model.sampling_period
    attack = config.attack
    if attack is not None:
        settle = model.dwell_time * h
        if attack.start_time < settle - 1e-12:
            raise ValueError(
                f"attack starts at {attack.start_time} s but the observer "
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
    dwell = model.dwell_time
    steps = _mode_steps(model, bank)
    step = steps[q]
    control = config.controller.control
    safety = config.safety

    gamma0 = attack.gamma(0, h, dim) if attack else np.zeros(dim)
    v = _truncated_gaussian(rng.standard_normal(dim), step.sigma[1], step.bound[1])
    y = x + v + gamma0
    x_est = y.copy()

    record = _Recorder(detector, threshold, h, dim, keep_trace)
    xs_buf, ys_buf, est_buf = record.x, record.y, record.x_est
    steady_buf, modes_buf, nodes_buf, events_buf = (
        record.steady, record.modes, record.nodes, record.events,
    )
    events: list[EventRecord] = []
    violation: SafetyViolation | None = None
    inconsistency_time: float | None = None
    stop_event: str | None = None

    t, i, now = 0, 0, 0.0
    for t in range(n):
        i = t % BLOCK
        if i == 0:
            if t:
                record.flush(t - BLOCK, BLOCK)
            k = min(BLOCK, n - t)
            # row j: w of sample t + j, then v and the attack of sample t + j + 1
            z = rng.standard_normal((k, 2, dim))
            noise = {q: _truncated_gaussian(z, step.sigma, step.bound)}
            mode_noise = noise[q]
            gammas = attack.gamma_rows(t + 1, k, h, dim) if attack else np.zeros((k, dim))
        now = t * h
        steady = steady_timer >= dwell
        u = np.asarray(control(y, now), dtype=float)
        if u.ndim != 1 or not all(map(math.isfinite, u.tolist())):
            raise ValueError(
                f"controller output {u.tolist()} at {now} s is not a vector of finite numbers"
            )
        state = x.tolist()
        fired = None
        for axis, sign, guard_at, tr in step.guards:
            if sign * (state[axis] - guard_at) >= 0.0:
                fired = tr
                break
        if safety is not None and violation is None and safety.violated(x):
            violation = SafetyViolation(time=now, state=tuple(state))

        xs_buf[i] = x
        ys_buf[i] = y
        est_buf[i] = x_est
        steady_buf[i] = steady
        modes_buf[i] = q
        nodes_buf[i] = node
        events_buf[i] = None

        if fired is not None:
            pair = (fired.input_event, fired.output_event)
            events_buf[i] = pair
            events.append(
                EventRecord(
                    sample=t,
                    time=now,
                    source=fired.source,
                    target=fired.target,
                    input_event=fired.input_event,
                    output_event=fired.output_event,
                    state=tuple(state),
                )
            )
            if fired.output_event in config.stop_events:
                stop_event = fired.output_event
                break

        x = step.a @ x + step.b @ u + mode_noise[i, 0]

        predict = steps[node[0]]
        if fired is not None:
            q = fired.target
            step = steps[q]
            mode_noise = noise.get(q)
            if mode_noise is None:
                mode_noise = noise[q] = _truncated_gaussian(z, step.sigma, step.bound)
            try:
                node = step_discrete(observer, node, pair)
            except DiscreteInconsistencyError:
                inconsistency_time = (t + 1) * h
                break
            steady_timer = 0
        else:
            steady_timer += 1

        y = x + mode_noise[i, 1] + gammas[i]
        x_est = step_continuous(predict.a, predict.b, predict.gain, x_est, u, y)

    record.flush(t - i, i + 1)
    summary = SimulationSummary(
        seed=config.seed,
        completed=inconsistency_time is None,
        end_time=now,
        samples=t + 1,
        stop_event=stop_event,
        events=tuple(events),
        first_conflict=record.first_conflict,
        first_baseline_alarm=record.first_baseline,
        baseline_threshold=threshold,
        safety_violation=violation,
        dwell_ok=bool(check_dwell(model, [e.sample for e in events])),
        discrete_inconsistency=inconsistency_time,
        max_residual=record.max_residual,
        max_estimation_error=record.max_error,
        max_volume=record.max_volume,
    )
    return SimulationResult(summary=summary, trace=record.trace() if keep_trace else None)


def residual_baseline(trace: Trace, threshold: float) -> float | None:
    """First settled sample whose residual norm exceeds the threshold."""
    return _first_baseline(trace.times, trace.steady, trace.residual, threshold)


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
