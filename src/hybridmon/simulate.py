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
as it comes. The per-sample step writes its products and sums with `out=`
straight into the buffer rows of the next sample, in the operation order
that fixes the bits; it allocates no array but the controller's output and
the Kalman step's innovation and correction.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, NamedTuple, Sequence, TextIO

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

    def check_axes(self, dim: int) -> None:
        """Raise ValueError when an attacked axis lies outside a dim-dimensional output."""
        for axis in self.axes:
            if axis >= dim:
                raise ValueError(f"attack axis {axis} outside a {dim}-dimensional output")

    def gamma(self, sample: int, sampling_period: float, dim: int) -> np.ndarray:
        """Additive output corruption vector at a sample index."""
        return self.gamma_rows(sample, 1, sampling_period, dim)[0]

    def gamma_rows(
        self, first: int, count: int, sampling_period: float, dim: int
    ) -> np.ndarray:
        """Corruption vectors of samples first, ..., first + count - 1, one row each."""
        self.check_axes(dim)
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

    def __post_init__(self) -> None:
        # initial_state is not checked here: callers build a config for one
        # model and `replace` the start to fit it
        if self.attack is not None:
            self.attack.check_axes(self.model.dim)


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
    return model.theta + float(np.max(model.max_v_bounds))


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
    # modes whose B has the same bits share one array, so that the loop can
    # tell by identity that the Kalman step's B u is the plant's
    shared_b: dict[tuple, np.ndarray] = {}
    steps = {}
    for mode in model.modes:
        dyn = mode.dynamics
        b = shared_b.setdefault((dyn.b.shape, dyn.b.tobytes()), dyn.b)
        bound = np.stack([dyn.w_bounds, dyn.v_bounds])
        steps[mode.mode_id] = _ModeStep(
            dyn.a, b, bank.gains[mode.mode_id].gain, bound / 3.0, bound,
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

    The loop reads sample t from row i = t % BLOCK of the buffers and steps
    x, y and x_est of sample t + 1 straight into row i + 1, so these three
    have one row past the block; after a flush, the loop moves that row to
    row 0. `flush` hands a block to the detector and folds its verdicts into
    the summary figures, and, when the trace is kept, writes its columns in
    place into columns allocated for all n samples at the start.
    """

    def __init__(
        self, detector: Detector, threshold: float, h: float, dim: int, n: int | None
    ) -> None:
        self.detector, self.threshold, self.h = detector, threshold, h
        self.x = np.empty((BLOCK + 1, dim))
        self.y = np.empty((BLOCK + 1, dim))
        self.x_est = np.empty((BLOCK + 1, dim))
        self.steady = np.zeros(BLOCK, dtype=bool)
        self.modes: list = [None] * BLOCK
        self.nodes: list = [None] * BLOCK
        self.events: list = [None] * BLOCK
        self.columns: dict[str, np.ndarray] | None = None
        self.mode_column: list = []
        self.node_column: list = []
        if n is not None:
            flags = ("steady", "warming_up", "conflict_a", "conflict_b", "conflict_c", "alarm")
            self.columns = {name: np.empty((n, dim)) for name in ("x_true", "y", "x_est", "residual")}
            self.columns.update({name: np.empty(n) for name in ("times", "volume")})
            self.columns.update({name: np.empty(n, dtype=bool) for name in flags})
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
        if self.columns is not None:
            block = {
                "times": times, "x_true": x, "y": y, "x_est": x_est, "residual": residual,
                "steady": steady, "warming_up": rows.warming_up, "conflict_a": rows.conflict_a,
                "conflict_b": rows.conflict_b, "conflict_c": rows.conflict_c, "alarm": alarm,
                "volume": rows.volume,
            }
            for name, values in block.items():
                self.columns[name][first : first + k] = values
            self.mode_column += self.modes[:k]
            self.node_column += nodes

    def trace(self, samples: int) -> Trace:
        """The first `samples` rows, the samples the run reached."""
        return Trace(
            mode_true=tuple(self.mode_column),
            node=tuple(self.node_column),
            **{name: column[:samples] for name, column in self.columns.items()},
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

    `control(y, t)` and `safety.violated(x)` are handed a read-only row of
    the run's buffers, valid only for the call: the loop overwrites it
    BLOCK samples later, so a controller that keeps y must keep a copy.
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

    record = _Recorder(detector, threshold, h, dim, n if keep_trace else None)
    xs, ys, ests = record.x, record.y, record.x_est
    # what `control` and `safety` are handed: read-only rows, which the loop
    # overwrites one block later
    xs_seen, ys_seen = xs.view(), ys.view()
    xs_seen.flags.writeable = ys_seen.flags.writeable = False
    steady_buf, modes_buf, nodes_buf, events_buf = (
        record.steady, record.modes, record.nodes, record.events,
    )
    # Products are taken with `ndarray.dot(..., out=row)`, which gives the
    # bits of `@` but for the sign of a zero: a product with one column has
    # no sum, and keeps a -0.0 that `@` turns into +0.0. A sum is -0.0 only
    # if both terms are, so A x + B u and A x_est + B u keep the bits of `@`
    # when B u is not -0.0 or A x is not: A x never is for dim >= 2, and for
    # dim 1 the loop adds 0.0 to B u. So x past sample 0 is never -0.0, nor
    # is x + v; adding the zero row of a run without attack would change
    # nothing, and the loop skips it.
    one_dim = dim == 1
    gammas = None

    gamma0 = attack.gamma(0, h, dim) if attack else np.zeros(dim)
    v = _truncated_gaussian(rng.standard_normal(dim), step.sigma[1], step.bound[1])
    xs[0] = x
    ys[0] = x + v + gamma0
    ests[0] = ys[0]
    bu = np.empty(dim)

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
                for rows in (xs, ys, ests):
                    rows[0] = rows[BLOCK]
            k = min(BLOCK, n - t)
            # row j: w of sample t + j, then v and the attack of sample t + j + 1
            z = rng.standard_normal((k, 2, dim))
            noise = {q: _truncated_gaussian(z, step.sigma, step.bound)}
            mode_noise = noise[q]
            if attack is not None:
                gammas = attack.gamma_rows(t + 1, k, h, dim)
        now = t * h
        steady = steady_timer >= dwell
        u = np.asarray(control(ys_seen[i], now), dtype=float)
        if u.ndim != 1 or not all(map(math.isfinite, u.tolist())):
            raise ValueError(
                f"controller output {u.tolist()} at {now} s is not a vector of finite numbers"
            )
        x = xs_seen[i]
        state = x.tolist()
        fired = None
        for axis, sign, guard_at, tr in step.guards:
            if sign * (state[axis] - guard_at) >= 0.0:
                fired = tr
                break
        if safety is not None and violation is None and safety.violated(x):
            violation = SafetyViolation(time=now, state=tuple(state))

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

        # x of sample t + 1 = A x + B u + w, summed in this order in row i + 1
        x_next = xs[i + 1]
        step.b.dot(u, out=bu)
        if one_dim:
            bu += 0.0
        step.a.dot(x, out=x_next)
        x_next += bu
        x_next += mode_noise[i, 0]

        predict = steps[node[0]]
        if predict.b is not step.b:
            predict.b.dot(u, out=bu)
            if one_dim:
                bu += 0.0
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

        y_next = ys[i + 1]
        np.add(x_next, mode_noise[i, 1], out=y_next)
        if gammas is not None:
            y_next += gammas[i]
        step_continuous(predict.a, predict.gain, ests[i], bu, y_next, ests[i + 1])

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
    return SimulationResult(summary=summary, trace=record.trace(t + 1) if keep_trace else None)


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


# Verdict columns after the four float groups, in the order both trace formats
# write them; they are also the CSV header names and the JSON keys.
_VERDICT_COLUMNS = (
    "q", "q_node", "conflict_a", "conflict_b", "conflict_c", "alarm",
    "volume", "steady", "warming_up",
)

# what `json.dumps` writes for the floats whose repr is not JSON
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_numbers(values: list[float]) -> Iterable[str]:
    """The JSON cells of floats, as a lazy iterator like the CSV writer's.

    A sum is finite only if every term is, so a finite sum sends the cells
    straight through `repr`; otherwise each cell is looked up.
    """
    cells = map(repr, values)
    if math.isfinite(sum(values)):
        return cells
    return (_JSON_NONFINITE.get(cell, cell) for cell in cells)


def _write_rows(
    trace: Trace,
    handle: TextIO,
    row_format: str,
    numbers: Callable[[list[float]], Iterable[str]],
    flags: tuple[str, str],
    mode_cell: Callable[[ModeId], str],
    node_cell: Callable[[Node], str],
) -> None:
    """Write each row of the trace as row_format % cells, one write per BLOCK rows.

    A row's cells come in the column order both formats share: time, state,
    output, estimate, residual, then `_VERDICT_COLUMNS`. `numbers` turns a
    list of floats into cells and `flags` is the (false, true) cell pair;
    `mode_cell` and `node_cell` encode a mode id and an observer node, once
    per distinct value per file. Only one block of cells is alive at a time,
    so memory stays flat whatever the trace length.
    """
    floats = (trace.times[:, None], trace.x_true, trace.y, trace.x_est, trace.residual)
    labels = ((trace.mode_true, mode_cell, {}), (trace.node, node_cell, {}))
    flag_columns = (
        trace.conflict_a, trace.conflict_b, trace.conflict_c, trace.alarm,
        trace.steady, trace.warming_up,
    )
    for lo in range(0, len(trace), BLOCK):
        rows = slice(lo, lo + BLOCK)
        cells = [numbers(col.tolist()) for group in floats for col in group[rows].T]
        for values, encode, cache in labels:
            values = values[rows]
            for value in set(values).difference(cache):
                cache[value] = encode(value)
            cells.append(map(cache.__getitem__, values))
        flag_cells = [map(flags.__getitem__, col[rows].tolist()) for col in flag_columns]
        cells += flag_cells[:4] + [numbers(trace.volume[rows].tolist())] + flag_cells[4:]
        handle.write("".join(map(row_format.__mod__, zip(*cells))))


def _csv_cell(text: str) -> str:
    """The cell `csv.writer` writes for text inside a row, quoted if it must be."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow([text, ""])
    return buffer.getvalue()[: -len(",\r\n")]


def write_trace_csv(trace: Trace, path: str) -> None:
    """Fixed column order: time, state, output, estimate, residual, modes, verdicts.

    Floats are written as their repr, flags as 0/1, the node as its mode ids
    joined by "|", with `csv.writer`'s quoting and CRLF line ends.
    """
    dim = trace.x_true.shape[1]
    header = (
        ["t"]
        + [f"{name}_{i}" for name in ("x", "y", "xest", "r") for i in range(dim)]
        + list(_VERDICT_COLUMNS)
    )
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        _write_rows(
            trace,
            handle,
            ",".join(["%s"] * len(header)) + "\r\n",
            lambda values: map(repr, values),
            ("0", "1"),
            lambda mode: _csv_cell(str(mode)),
            lambda node: _csv_cell("|".join(map(str, node))),
        )


def write_trace_jsonl(trace: Trace, path: str) -> None:
    """Same records as the CSV, one JSON object per line, as `json.dumps` writes them."""
    vector = "[" + ", ".join(["%s"] * trace.x_true.shape[1]) + "]"
    fields = [("t", "%s")] + [(name, vector) for name in ("x", "y", "xest", "r")]
    fields += [(name, "%s") for name in _VERDICT_COLUMNS]
    with open(path, "w") as handle:
        _write_rows(
            trace,
            handle,
            "{" + ", ".join(f'"{name}": {cell}' for name, cell in fields) + "}\n",
            _json_numbers,
            ("false", "true"),
            json.dumps,
            lambda node: json.dumps(list(node)),
        )
