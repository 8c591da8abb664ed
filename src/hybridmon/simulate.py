"""Closed-loop simulation with sensor attacks and both anomaly monitors.

One run steps the plant under truncated-Gaussian noise, fires guarded
transitions on the true state, feeds the discrete and continuous
observers, evaluates the conflict detector and the residual baseline, and
reports first-alarm times against the safety-violation time. A
counter-based generator keyed by the seed makes traces bit-reproducible.

A run has two parts. The plant loop steps per sample only what feeds back
into the plant: the controller, the guards, x = A x + B u + w and the
measurement, with each mode's matrices, noise scales and guards looked up
once per run and the standard normals drawn once per block of samples. A
controller output is checked, and multiplied by each distinct B, once per
distinct value: while its bytes match the last output's, the loop reuses
that output's B u. The observer steps only on events. Of the rest, the loop
records change points: the row of each event, with the new mode and node,
and the row of each new controller output, with its B u. The monitor pass
then takes a block of samples at a time. It rebuilds the mode, node,
settled and event columns from the change points, steps the Kalman
estimate one stretch of equal A, K and B u at a time (`step_rows`), and
decides the safety predicate, the detector, the baseline monitor and the
steady maxima with `ZoneSpeedLimit.violated` and `Detector.evaluate_rows`.
The monitor feeds nothing back, so this gives the bits of deciding each
sample as it comes. Products and sums are written with `out=` straight
into buffer rows, in the operation order that fixes the bits. A model's
validation verdict, detector, filter bank, observer and mode steps are
built on its first run and kept on the model object for the next.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, TextIO

import numpy as np

from .conflicts import Detector
from .kalman import KalmanBank, check_dwell, step_rows, synthesize_gains
from .model import (
    HybridAutomaton,
    ModeId,
    Transition,
    extract_fsm,
    readonly,
    refuse_invalid,
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

    def gamma_rows(
        self, first: int, count: int, sampling_period: float, dim: int
    ) -> np.ndarray:
        """Corruption vectors of samples first, ..., first + count - 1, one row each."""
        self.check_axes(dim)
        start = int(round(self.start_time / sampling_period))
        offsets = np.arange(first - start, first - start + count)
        # each kind in `magnitude_at`'s operation order, so the bits agree
        if self.kind == "ramp":
            values = self.slope * offsets * sampling_period
        elif self.kind == "step":
            values = np.full(count, self.magnitude, dtype=float)
        else:
            padded = np.array(self.samples + (0.0,), dtype=float)
            values = padded[np.clip(offsets, 0, len(self.samples))]
        rows = np.zeros((count, dim))
        rows[:, list(self.axes)] = np.where(offsets < 0, 0.0, values)[:, None]
        return rows


@dataclass(frozen=True)
class ZoneController:
    """Piecewise-constant reference input from the measured state.

    Emits inside_value while the measured coordinate is within half_width
    of the center (inclusive), outside_value elsewhere. Both outputs are
    built once, as read-only arrays, and handed out on every call.
    """

    axis: int
    center: float
    half_width: float
    inside_value: float
    outside_value: float

    def __post_init__(self) -> None:
        # not fields, so eq, hash and repr are the dataclass's own
        object.__setattr__(self, "_inside", readonly((self.inside_value,)))
        object.__setattr__(self, "_outside", readonly((self.outside_value,)))

    def control(self, y: np.ndarray, t: float) -> np.ndarray:
        inside = abs(float(y[self.axis]) - self.center) <= self.half_width
        return self._inside if inside else self._outside


@dataclass(frozen=True)
class ConstantController:
    """Fixed reference input, handed out as one read-only array."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_output", readonly(self.values))

    def control(self, y: np.ndarray, t: float) -> np.ndarray:
        return self._output


@dataclass(frozen=True)
class ZoneSpeedLimit:
    """Safety predicate: speed must stay at or under the limit near a point."""

    position_axis: int
    center: float
    half_width: float
    speed_axis: int
    limit: float

    def violated(self, x: np.ndarray) -> np.ndarray:
        """Whether each row of x breaks the limit: a bool for one state, one per row of a block."""
        x = np.asarray(x)
        near = abs(x[..., self.position_axis] - self.center) <= self.half_width
        return near & (x[..., self.speed_axis] > self.limit)


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
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
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
    b_index: int  # which of the run's distinct B arrays the mode's B is
    gain: np.ndarray
    sigma: np.ndarray  # (2, n): standard deviations of w and v
    bound: np.ndarray  # (2, n): the bounds they are clipped to
    guards: tuple[tuple[int, int, float, Transition], ...]  # (axis, sign, threshold, transition)


def _mode_steps(
    model: HybridAutomaton, bank: KalmanBank
) -> tuple[dict[ModeId, _ModeStep], list[np.ndarray]]:
    """Each mode's step, and the distinct B arrays its `b_index` points into.

    Modes whose B has the same bits share one B, so that a controller
    output costs one product per distinct B.
    """
    guards: dict[ModeId, list] = {q: [] for q in model.mode_ids}
    for tr in model.transitions:
        guards[tr.source].append((tr.guard.axis, tr.guard.sign, tr.guard.threshold, tr))
    b_index: dict[tuple, int] = {}
    bs: list[np.ndarray] = []
    steps = {}
    for mode in model.modes:
        dyn = mode.dynamics
        key = (dyn.b.shape, dyn.b.tobytes())
        if key not in b_index:
            b_index[key] = len(bs)
            bs.append(dyn.b)
        bound = np.stack([dyn.w_bounds, dyn.v_bounds])
        steps[mode.mode_id] = _ModeStep(
            dyn.a, b_index[key], bank.gains[mode.mode_id].gain, bound / 3.0, bound,
            tuple(guards[mode.mode_id]),
        )
    if len({b.shape[1] for b in bs}) > 1:
        raise ValueError("modes take different numbers of inputs; one controller cannot drive them")
    return steps, bs


def _b_products(bs: list[np.ndarray], u: np.ndarray) -> list[np.ndarray]:
    """B u for each distinct B, read-only; with one dimension, plus 0.0 (see `simulate`)."""
    products = []
    for b in bs:
        bu = np.empty(b.shape[0])
        b.dot(u, out=bu)
        if bu.size == 1:
            bu += 0.0
        bu.flags.writeable = False
        products.append(bu)
    return products


def _first_baseline(
    times: np.ndarray, steady: np.ndarray, norms: np.ndarray, threshold: float
) -> float | None:
    """Time of the first settled row whose residual norm exceeds the threshold."""
    hits = np.flatnonzero(steady & (norms > threshold))
    return float(times[hits[0]]) if hits.size else None


def _first_violation(
    safety: ZoneSpeedLimit, times: np.ndarray, x: np.ndarray
) -> SafetyViolation | None:
    """The first row of a block of states that the safety predicate flags."""
    hits = np.asarray(safety.violated(x), dtype=bool)
    if hits.shape != times.shape:
        raise ValueError(
            f"safety predicate gave shape {hits.shape} for {times.size} rows, not one bool per row"
        )
    if not hits.any():
        return None
    j = int(np.argmax(hits))
    return SafetyViolation(time=float(times[j]), state=tuple(x[j].tolist()))


class _Machinery:
    """A model's run machinery, each part built on first use and kept on the model.

    `_machinery` keeps one per model object in the model's `__dict__`, where
    a cached property keeps its value; the model is immutable, so the parts
    stay valid for its life. Equal but distinct models each build their own.
    """

    def __init__(self, model: HybridAutomaton) -> None:
        self.model = model

    @cached_property
    def problems(self) -> list[str]:
        return validate_model(self.model)

    @cached_property
    def detector(self) -> Detector:
        return Detector(self.model)

    @cached_property
    def bank(self) -> KalmanBank:
        return synthesize_gains(self.model)

    @cached_property
    def observer(self) -> ObserverFsm:
        return build_observer(extract_fsm(self.model))

    @cached_property
    def steps(self) -> tuple[dict[ModeId, _ModeStep], list[np.ndarray]]:
        return _mode_steps(self.model, self.bank)


def _machinery(model: HybridAutomaton) -> _Machinery:
    machinery = model.__dict__.get("_machinery")
    if machinery is None:
        machinery = model.__dict__["_machinery"] = _Machinery(model)
    return machinery


class _Recorder:
    """The monitor: what does not feed back into the plant, a block at a time.

    The loop reads sample t from row i = t % BLOCK of the buffers and steps
    x and y of sample t + 1 straight into row i + 1, so x, y and x_est have
    one row past the block; after a flush, the loop moves that row to row 0.
    Of the rest, the loop records only change points: `event_rows` holds
    (row, event pair, mode, node) for each event, the mode and node being
    those of the next row, and `input_rows` holds (row, B u list) for each
    row whose controller output differs from the last. `flush` is the
    monitor pass: it rebuilds the labels from them, steps the Kalman
    estimate, hands the block to the detector and folds its verdicts into
    the summary figures, and, when the trace is kept, writes its columns in
    place into columns allocated for all n samples at the start.
    """

    def __init__(
        self,
        model: HybridAutomaton,
        detector: Detector,
        steps: dict[ModeId, _ModeStep],
        safety: ZoneSpeedLimit | None,
        mode: ModeId,
        node: Node,
        n: int | None,
    ) -> None:
        self.detector, self.steps, self.safety = detector, steps, safety
        self.threshold = baseline_threshold(model)
        self.h, self.dwell, dim = model.sampling_period, model.dwell_time, model.dim
        self.x = np.empty((BLOCK + 1, dim))
        self.y = np.empty((BLOCK + 1, dim))
        self.x_est = np.empty((BLOCK + 1, dim))
        self.scratch = np.empty((2, dim))
        self.steady = np.zeros(BLOCK, dtype=bool)
        self.event_rows: list[tuple[int, tuple[str, str], ModeId, Node]] = []
        self.input_rows: list[tuple[int, list[np.ndarray]]] = []
        # the labels of the next row to flush, the first sample of the
        # current settling count, and the B u list in force
        self.mode, self.node, self.since, self.bus = mode, node, 0, []
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
        self.violation: SafetyViolation | None = None

    def flush(self, first: int, k: int, carry: bool) -> None:
        """Monitor rows 0 .. k - 1, which hold samples first .. first + k - 1.

        With carry the run goes on, and the estimate of row k is stepped too.
        """
        steady = self.steady[:k]
        nodes: list[Node] = []
        modes: list[ModeId] = []
        events: list[tuple[str, str] | None] = [None] * k

        def label(lo: int, hi: int) -> None:
            nodes.extend([self.node] * (hi - lo))
            modes.extend([self.mode] * (hi - lo))
            steady[lo:hi] = False
            steady[max(lo, self.since + self.dwell - first) : hi] = True

        row = 0
        for at, pair, mode, node in self.event_rows:
            events[at] = pair
            label(row, at + 1)
            self.mode, self.node, self.since, row = mode, node, first + at + 1, at + 1
        label(row, k)

        # row r + 1's estimate is stepped with row r's node and B u, so one
        # stretch of rows shares A, K and B u between those change points
        stop = k if carry else k - 1
        inputs = dict(self.input_rows)
        changes = [at + 1 for at, *_ in self.event_rows] + list(inputs)
        cuts = sorted({0, stop, *(c for c in changes if c < stop)})
        for lo, hi in zip(cuts, cuts[1:]):
            self.bus = inputs.get(lo, self.bus)
            step = self.steps[nodes[lo][0]]
            step_rows(
                step.a, step.gain, self.bus[step.b_index], self.x_est, self.y, lo, hi, self.scratch
            )
        self.event_rows.clear()
        self.input_rows.clear()

        x, y, x_est = self.x[:k], self.y[:k], self.x_est[:k]
        # the safety predicate is handed these rows, which it must not change
        x.flags.writeable = False
        # sample t's time has the bits of t * h
        times = np.arange(first, first + k) * self.h
        if self.safety is not None and self.violation is None:
            self.violation = _first_violation(self.safety, times, x)
        residual = y - x_est
        rows = self.detector.evaluate_rows(nodes, steady, x_est, residual, events)
        if steady.any():
            norms = np.max(np.abs(residual), axis=1)
            errors = np.max(np.abs(x - x_est), axis=1)
            self.max_residual = max(self.max_residual, float(norms[steady].max()))
            self.max_error = max(self.max_error, float(errors[steady].max()))
            self.max_volume = max(self.max_volume, float(rows.volume[steady].max()))
            if self.first_baseline is None:
                self.first_baseline = _first_baseline(times, steady, norms, self.threshold)
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
            self.mode_column += modes
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
    run at the sample that fired it. An initial state that does not fit the
    model or a duration that is not finite raises ValueError before the
    run. A controller output that is not a vector of finite numbers raises
    it at the sample that produced it, and a model whose modes take
    different numbers of inputs, which no one output fits, raises it before
    the first sample. With keep_trace=False the run keeps one block of rows,
    not a row per sample; the summary is the same either way.

    The detector, the filter bank and the observer default to the model's
    own, built on its first run and kept for the next; so is the verdict of
    `validate_model`. Passed ones take precedence.

    `control(y, t)` is handed a read-only row of the run's buffers, valid
    only for the call: the loop overwrites it BLOCK samples later, so a
    controller that keeps y must keep a copy. Its output is checked and
    multiplied by each distinct B once per distinct value, told apart by
    its bytes, so it may hand out one array and rewrite it in place. The
    safety predicate does not feed back: `safety.violated(x)` is handed a
    read-only block of up to BLOCK states, one per row, and returns one bool
    per row; it is not called past the block of the first violation.
    """
    model = config.model
    machinery = _machinery(model)
    refuse_invalid(machinery.problems)
    x = np.array(config.initial_state, dtype=float)
    if x.shape != (model.dim,):
        raise ValueError(
            f"initial_state has shape {x.shape}, not the model's ({model.dim},)"
        )
    if not math.isfinite(config.duration):
        raise ValueError(f"duration must be finite, got {config.duration!r}")
    h = model.sampling_period
    attack = config.attack
    if attack is not None:
        settle = model.dwell_time * h
        if attack.start_time < settle - 1e-12:
            raise ValueError(
                f"attack starts at {attack.start_time} s but the observer "
                f"only settles at {settle} s"
            )
    n = int(round(config.duration / h))
    if n <= 0:
        raise ValueError("duration too short for one sample")
    if detector is None:
        detector = machinery.detector
    if observer is None:
        observer = machinery.observer
    rng = np.random.Generator(np.random.Philox(key=config.seed))

    q: ModeId = config.initial_mode
    if not model.invariant(q).contains(x):
        raise ValueError("initial state lies outside the initial mode's invariant")
    node: Node = observer.root
    if q not in node:
        raise ValueError("initial mode is missing from the observer root")
    dim = x.size
    steps, bs = machinery.steps if bank is None else _mode_steps(model, bank)
    step = steps[q]
    control = config.controller.control

    record = _Recorder(model, detector, steps, config.safety, q, node, n if keep_trace else None)
    xs, ys = record.x, record.y
    mark_event, mark_input = record.event_rows.append, record.input_rows.append
    # what `control` is handed: read-only rows, which the loop overwrites
    # one block later
    ys_seen = ys.view()
    ys_seen.flags.writeable = False
    # Products are taken with `ndarray.dot(..., out=row)`, which gives the
    # bits of `@` but for the sign of a zero: a product with one column has
    # no sum, and keeps a -0.0 that `@` turns into +0.0. A sum is -0.0 only
    # if both terms are, so A x + B u and A x_est + B u keep the bits of `@`
    # when B u is not -0.0 or A x is not: A x never is for dim >= 2, and for
    # dim 1 `_b_products` adds 0.0 to B u. So x past sample 0 is never -0.0,
    # nor is x + v; adding the zero row of a run without attack would change
    # nothing, and the loop skips it.
    gammas = None

    gamma0 = attack.gamma_rows(0, 1, h, dim)[0] if attack else np.zeros(dim)
    v = _truncated_gaussian(rng.standard_normal(dim), step.sigma[1], step.bound[1])
    xs[0] = x
    ys[0] = x + v + gamma0
    record.x_est[0] = ys[0]
    # the last controller output that passed the check, as bytes, which
    # tell -0.0 from 0.0 and see an array rewritten in place; and its B u
    # for each distinct B
    u_bytes: bytes | None = None
    bus: list[np.ndarray] = []

    events: list[EventRecord] = []
    inconsistency_time: float | None = None
    stop_event: str | None = None

    t, i, now = 0, 0, 0.0
    for t in range(n):
        i = t % BLOCK
        if i == 0:
            if t:
                record.flush(t - BLOCK, BLOCK, carry=True)
                for rows in (xs, ys, record.x_est):
                    rows[0] = rows[BLOCK]
            k = min(BLOCK, n - t)
            # row j: w of sample t + j, then v and the attack of sample t + j + 1
            z = rng.standard_normal((k, 2, dim))
            noise = {q: _truncated_gaussian(z, step.sigma, step.bound)}
            mode_noise = noise[q]
            if attack is not None:
                gammas = attack.gamma_rows(t + 1, k, h, dim)
        now = t * h
        u = np.asarray(control(ys_seen[i], now), dtype=float)
        if u.ndim != 1 or u.tobytes() != u_bytes:
            if u.ndim != 1 or not all(map(math.isfinite, u.tolist())):
                raise ValueError(
                    f"controller output {u.tolist()} at {now} s is not a vector of finite numbers"
                )
            u_bytes = u.tobytes()
            bus = _b_products(bs, u)
            mark_input((i, bus))
        x = xs[i]
        state = x.tolist()
        fired = None
        for axis, sign, guard_at, tr in step.guards:
            if sign * (state[axis] - guard_at) >= 0.0:
                fired = tr
                break

        # x of sample t + 1 = A x + B u + w, summed in this order in row i + 1
        x_next = xs[i + 1]
        step.a.dot(x, out=x_next)
        x_next += bus[step.b_index]
        x_next += mode_noise[i, 0]

        if fired is not None:
            pair = (fired.input_event, fired.output_event)
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
            else:
                try:
                    node = step_discrete(observer, node, pair)
                except DiscreteInconsistencyError:
                    inconsistency_time = (t + 1) * h
            q = fired.target
            mark_event((i, pair, q, node))
            if stop_event is not None or inconsistency_time is not None:
                break
            step = steps[q]
            mode_noise = noise.get(q)
            if mode_noise is None:
                mode_noise = noise[q] = _truncated_gaussian(z, step.sigma, step.bound)

        y_next = ys[i + 1]
        np.add(x_next, mode_noise[i, 1], out=y_next)
        if gammas is not None:
            y_next += gammas[i]

    record.flush(t - i, i + 1, carry=False)
    summary = SimulationSummary(
        seed=config.seed,
        completed=inconsistency_time is None,
        end_time=now,
        samples=t + 1,
        stop_event=stop_event,
        events=tuple(events),
        first_conflict=record.first_conflict,
        first_baseline_alarm=record.first_baseline,
        baseline_threshold=record.threshold,
        safety_violation=record.violation,
        dwell_ok=bool(check_dwell(model, [e.sample for e in events])),
        discrete_inconsistency=inconsistency_time,
        max_residual=record.max_residual,
        max_estimation_error=record.max_error,
        max_volume=record.max_volume,
    )
    return SimulationResult(summary=summary, trace=record.trace(t + 1) if keep_trace else None)


def residual_baseline(trace: Trace, threshold: float) -> float | None:
    """First settled sample whose residual norm exceeds the threshold."""
    norms = np.max(np.abs(trace.residual), axis=1)
    return _first_baseline(trace.times, trace.steady, norms, threshold)


def sweep(
    base: ScenarioConfig,
    seeds: Iterable[int],
    *,
    keep_traces: bool = False,
) -> tuple[SimulationResult, ...]:
    """Run the same scenario across seeds; the model's machinery is built once."""
    return tuple(
        simulate(replace(base, seed=seed), keep_trace=keep_traces)
        for seed in sorted(set(int(s) for s in seeds))
    )


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
