"""Closed-loop simulation with sensor attacks and both anomaly monitors.

One run steps the plant under truncated-Gaussian noise, fires guarded
transitions on the true state, feeds the discrete and continuous
observers, evaluates the conflict detector and the residual baseline, and
reports first-alarm times against the safety-violation time. A
counter-based generator keyed by the seed makes traces bit-reproducible.

Runs of one model are stepped together: one loop steps S seeds in
lockstep, `sweep` hands it its seeds GROUP at a time, and `simulate` is the
one-seed case. A run has two parts. The plant loop steps per sample only
what feeds back into the plant: the controller, the guards, x = A x + B u +
w and the measurement, with each mode's matrices, noise scales and guards
looked up once per run and the standard normals drawn once per block of
samples. Per seed, the loop calls the controller, checks the guards on the
seed's state, read from one `tolist` of the row of all seeds, and takes A x
with one `ndarray.dot` into the seed's row; the sums with B u and w, the
measurement y = x + v and the attack are one elementwise call each on the
(S, n) row of all seeds. A controller output is checked once per distinct
value, told apart by its bytes, and B u is taken again with the seed's mode's
B only when the output or the mode changes. The observer steps only on
events. Of the rest, the loop records change points per seed: the row of
each event, with the new mode and node, and the row of each new controller
output, with the output. The monitor pass then takes a block of samples at a
time. Per seed it rebuilds the mode, node, settled and event columns from
the change points; `step_rows` steps the Kalman estimate of all seeds
together, one stretch of rows at a time between the rows where some seed's
A, K or B u changes, with the B of the node's mode, one `dot` per seed and
the sums shared; and per seed it decides the safety predicate, the
detector, the baseline monitor and the steady maxima with
`ZoneSpeedLimit.violated` and `Detector.evaluate_rows`. The monitor feeds
nothing back, so this gives the bits of deciding each sample as it comes.
Each product is the same `dot` on a C-contiguous row that a seed stepped
alone would take, and every other step is elementwise, so each seed keeps
its bits whatever runs beside it. Products and sums are written straight
into buffer rows, in the operation order that fixes the bits. A seed that
ends, at a stop event or a discrete inconsistency, is no longer stepped;
its rows leave the buffers at the end of the block. A model's validation
verdict, detector, filter bank, observer and mode steps are built on its
first run and kept on the model object for the next.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
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
    real_number,
    refuse_invalid,
    validate_model,
    whole_number,
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
        for axis in self.axes:
            if not whole_number(axis):
                raise ValueError(f"attack axis must be a whole number, got {axis!r}")
        # whole floats and numpy integers become ints; a tuple of ints is kept as passed
        if any(type(axis) is not int for axis in self.axes):
            object.__setattr__(self, "axes", tuple(map(int, self.axes)))
        if len(set(self.axes)) != len(self.axes):
            raise ValueError("attack axes repeat")
        if any(a < 0 for a in self.axes):
            raise ValueError("attack axes must be nonnegative")
        if self.kind == "custom" and not self.samples:
            raise ValueError("custom attack needs a sample sequence")
        named = [(name, getattr(self, name)) for name in ("slope", "magnitude", "start_time")]
        for name, value in named + [(f"samples[{i}]", v) for i, v in enumerate(self.samples)]:
            if not real_number(value):
                raise ValueError(f"attack {name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"attack {name} must be finite, got {value!r}")
        if self.start_time < 0:
            raise ValueError("attack start time must be nonnegative")

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
        if not whole_number(self.axis):
            raise ValueError(f"zone controller axis must be a whole number, got {self.axis!r}")
        for name in ("center", "half_width", "inside_value", "outside_value"):
            if not real_number(value := getattr(self, name)):
                raise ValueError(f"zone controller {name} must be a real number, got {value!r}")
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
        for i, value in enumerate(self.values):
            if not real_number(value):
                raise ValueError(
                    f"constant controller values[{i}] must be a real number, got {value!r}"
                )
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


def _whole_seed(seed: object) -> int:
    """seed as an int; ValueError naming it unless it is a nonnegative whole number."""
    if not whole_number(seed):
        raise ValueError(f"seed must be a whole number, got {seed!r}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {int(seed)}")
    return int(seed)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything that determines one run; the seed fixes the trace bits.

    The seed must be a nonnegative whole number, or ValueError names it;
    whole floats and numpy integers are stored as int. The duration must be
    a finite real number that rounds to at least one sample.
    """

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
        object.__setattr__(self, "seed", _whole_seed(self.seed))
        duration = self.duration
        if not real_number(duration):
            raise ValueError(f"duration must be a real number, got {duration!r}")
        if not math.isfinite(duration):
            raise ValueError(f"duration must be finite, got {duration!r}")
        if round(duration / self.model.sampling_period) <= 0:
            raise ValueError("duration too short for one sample")
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

# Seeds that `sweep` steps together. A group keeps BLOCK + 1 rows of each
# buffer per seed; a larger group spends less NumPy call overhead per
# seed-sample and keeps more rows.
GROUP = 16


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
    """Each mode's step."""
    if len({mode.dynamics.n_inputs for mode in model.modes}) > 1:
        raise ValueError("modes take different numbers of inputs; one controller cannot drive them")
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


def _b_dot(b: np.ndarray, u: np.ndarray, out: np.ndarray) -> None:
    """B u into out; with one dimension, plus 0.0 (see `_lockstep`)."""
    b.dot(u, out)
    if out.size == 1:
        out += 0.0


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
    def steps(self) -> dict[ModeId, _ModeStep]:
        return _mode_steps(self.model, self.bank)


def _machinery(model: HybridAutomaton) -> _Machinery:
    machinery = model.__dict__.get("_machinery")
    if machinery is None:
        machinery = model.__dict__["_machinery"] = _Machinery(model)
    return machinery


class _Run:
    """One seed of a lockstep group: its plant state, change points and monitor.

    `_Group` gives the run its index s in the group's buffers, and its rows
    of A x and B u. The loop reads sample t from row i = t % BLOCK and
    steps x and y of sample t + 1 straight into row i + 1, so the buffers
    have one row past the block; after a flush, the group moves that row to
    row 0. Of the rest, the loop records only change points: `event_rows`
    holds (row, event pair, mode, node) for each event, the mode and node
    being those of the next row, and `input_rows` holds (row, u) for each
    row whose controller output u differs from the last. The monitor pass
    (`_flush`) has three parts: `label` rebuilds the labels from the change
    points (the true modes only when the trace is kept, as nothing else
    reads them) and marks the rows where the seed's A, K and B u change,
    `step_rows` steps the Kalman estimate of every seed of the group, and
    `monitor` hands the block to the detector, folds its verdicts into the
    summary figures and, when the trace is kept, writes its columns in
    place into columns allocated for all n samples at the start.
    """

    def __init__(
        self,
        seed: int,
        model: HybridAutomaton,
        detector: Detector,
        steps: dict[ModeId, _ModeStep],
        safety: ZoneSpeedLimit | None,
        mode: ModeId,
        node: Node,
        n: int | None,
    ) -> None:
        self.seed = seed
        self.rng = np.random.Generator(np.random.Philox(key=seed))
        self.model, self.detector, self.steps, self.safety = model, detector, steps, safety
        self.threshold = baseline_threshold(model)
        self.h, self.dwell, dim = model.sampling_period, model.dwell_time, model.dim
        # the plant: the mode's step and the observer node; the last
        # controller output that passed the check, as bytes, which tell -0.0
        # from 0.0 and see an array rewritten in place, and as a read-only
        # array of those bytes; and, once the run has ended, its last sample
        self.step, self.node = steps[mode], node
        self.u_bytes: bytes | None = None
        self.u: np.ndarray | None = None
        self.events: list[EventRecord] = []
        self.stop_event: str | None = None
        self.inconsistency: float | None = None
        self.end: int | None = None
        # the monitor: the change points, the labels of the next row to
        # flush, the first sample of the current settling count, and the
        # controller output in force for the estimate
        self.event_rows: list[tuple[int, tuple[str, str], ModeId, Node]] = []
        self.input_rows: list[tuple[int, np.ndarray]] = []
        self.label_mode, self.label_node, self.since, self.est_u = mode, node, 0, None
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

    def draw(self, k: int) -> None:
        """Draw the block's standard normals and lay their noise into rows 1 .. k."""
        # row j: w of sample t + j, then v and the attack of sample t + j + 1
        self.z = self.rng.standard_normal((k, 2, self.model.dim))
        self.lay(0, spent=0)

    def lay(self, i: int, spent: int) -> None:
        """Lay the current mode's noise from row i of the block's normals on.

        w of sample t + j goes into x's row j + 1 and v of sample t + j + 1
        into y's row j + 1, where the loop adds the rest of each sum. With
        spent=1, row i's w was used already and is not laid again.
        """
        noise = _truncated_gaussian(self.z[i:], self.step.sigma, self.step.bound)
        k, group, s = len(self.z), self.group, self.s
        group.x[i + 1 + spent : k + 1, s] = noise[spent:, 0]
        group.y[i + 1 : k + 1, s] = noise[:, 1]

    def label(self, first: int, k: int, carry: bool, marks: dict[int, list]) -> int:
        """Rebuild the labels of rows 0 .. k - 1, which hold samples first .. first + k - 1.

        Adds (seed index, step, u) to marks at each row where the estimate
        changes its A, K or B u, and returns the last row whose estimate is
        stepped: k with carry, as the run goes on, else k - 1.
        """
        self.k = k
        steady = self.group.steady[self.s, :k]
        nodes: list[Node] = []
        events: list[tuple[str, str] | None] = [None] * k

        def fill(lo: int, hi: int) -> None:
            nodes.extend([self.label_node] * (hi - lo))
            if self.columns is not None:
                self.mode_column.extend([self.label_mode] * (hi - lo))
            steady[lo:hi] = False
            steady[max(lo, self.since + self.dwell - first) : hi] = True

        row = 0
        for at, pair, mode, node in self.event_rows:
            events[at] = pair
            fill(row, at + 1)
            self.label_mode, self.label_node, self.since, row = mode, node, first + at + 1, at + 1
        fill(row, k)
        self.labels = nodes, events

        # row r + 1's estimate is stepped with row r's node and u, so one
        # stretch of rows shares A, K and B u between those change points
        stop = k if carry else k - 1
        inputs = dict(self.input_rows)
        changes = [at + 1 for at, *_ in self.event_rows] + list(inputs)
        for lo in sorted({0, *(c for c in changes if c < stop)}):
            self.est_u = inputs.get(lo, self.est_u)
            marks.setdefault(lo, []).append((self.s, self.steps[nodes[lo][0]], self.est_u))
        self.event_rows.clear()
        self.input_rows.clear()
        return stop

    def monitor(self, first: int) -> None:
        """Decide the labelled rows, their estimates stepped, and fold the verdicts in."""
        k, group, s = self.k, self.group, self.s
        nodes, events = self.labels
        steady = group.steady[s, :k]
        # the seed's rows, C-contiguous (copies when the group has more
        # than one seed); the safety predicate must not change x
        x, y, x_est = (
            np.ascontiguousarray(rows[:k, s]) for rows in (group.x, group.y, group.x_est)
        )
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
            self.node_column += nodes

    def result(self) -> SimulationResult:
        """The run's summary, and its trace when kept, once it has ended."""
        samples = self.end + 1
        summary = SimulationSummary(
            seed=self.seed,
            completed=self.inconsistency is None,
            end_time=self.end * self.h,
            samples=samples,
            stop_event=self.stop_event,
            events=tuple(self.events),
            first_conflict=self.first_conflict,
            first_baseline_alarm=self.first_baseline,
            baseline_threshold=self.threshold,
            safety_violation=self.violation,
            dwell_ok=bool(check_dwell(self.model, [e.sample for e in self.events])),
            discrete_inconsistency=self.inconsistency,
            max_residual=self.max_residual,
            max_estimation_error=self.max_error,
            max_volume=self.max_volume,
        )
        if self.columns is None:
            return SimulationResult(summary=summary, trace=None)
        trace = Trace(
            mode_true=tuple(self.mode_column),
            node=tuple(self.node_column),
            **{name: column[:samples] for name, column in self.columns.items()},
        )
        return SimulationResult(summary=summary, trace=trace)


class _Group:
    """The buffers of the seeds stepped together, one (S, n) array per row.

    Row r of seed s is [r, s] of x, y and x_est, which have BLOCK + 1
    rows. So [r] is row r of every seed, one C-contiguous (S, n) array that
    each shared elementwise step takes in one call, and [r, s] one seed's
    C-contiguous row. ax holds each seed's A x, and bu its B u in force.
    The buffers start as zeros: a run that ends leaves its rows, unread, to
    the shared steps for the rest of the block, and they stay finite.
    """

    def __init__(self, runs: list[_Run], dim: int) -> None:
        count = len(runs)
        self.x, self.y, self.x_est = (np.zeros((BLOCK + 1, count, dim)) for _ in range(3))
        self.ax, self.bu = np.zeros((2, count, dim))
        self.steady = np.zeros((count, BLOCK), dtype=bool)
        # what `control` is handed: read-only rows, which the loop
        # overwrites one block later
        self.y_seen = self.y.view()
        self.y_seen.flags.writeable = False
        for s, run in enumerate(runs):
            run.group, run.s, run.ax, run.bu = self, s, self.ax[s], self.bu[s]

    def carry(self, runs: list[_Run]) -> tuple[list[_Run], _Group]:
        """The runs that go on, and their buffers, with row BLOCK moved to row 0."""
        kept = [s for s, run in enumerate(runs) if run.end is None]
        if len(kept) == len(runs):
            for rows in (self.x, self.y, self.x_est):
                rows[0] = rows[BLOCK]
            return runs, self
        runs = [runs[s] for s in kept]
        group = _Group(runs, self.bu.shape[1])
        for new, old in ((group.x, self.x), (group.y, self.y), (group.x_est, self.x_est)):
            new[0] = old[BLOCK, kept]
        group.bu[...] = self.bu[kept]
        return runs, group


def _flush(runs: list[_Run], group: _Group, first: int, k: int, carry: bool) -> None:
    """The monitor pass over a block whose rows 0 .. k - 1 hold samples first .. first + k - 1.

    With carry the runs go on, and the estimate of row k is stepped too. A
    run that ended in the block is flushed up to its last sample. The
    estimate's bookkeeping is gone before the detector runs, which sets the
    peak of a summary-only run.
    """
    _estimate(runs, group, first, k, carry)
    for run in runs:
        run.monitor(first)


def _estimate(runs: list[_Run], group: _Group, first: int, k: int, carry: bool) -> None:
    """Label each run's rows and step the Kalman estimates of all runs together.

    The estimates go one stretch of rows at a time, between the rows where
    some seed's A, K or B u changes; a seed's B u is taken again, with the
    B of its node's mode, at each of its change points.
    """
    marks: dict[int, list] = {}
    top = 0
    for run in runs:
        if run.end is None:
            stop = run.label(first, k, carry, marks)
        else:
            stop = run.label(first, run.end - first + 1, False, marks)
        top = max(top, stop)
    a: list = [None] * len(runs)
    gain: list = [None] * len(runs)
    # each seed's B u in force for the estimate, and step_rows' scratch
    bu_est, *scratch = np.zeros((4,) + group.bu.shape)
    cuts = sorted({*marks, top})
    for lo, hi in zip(cuts, cuts[1:]):
        for s, step, u in marks[lo]:
            a[s], gain[s] = step.a, step.gain
            _b_dot(step.b, u, bu_est[s])
        step_rows(a, gain, bu_est, group.x_est, group.y, lo, hi, scratch)


def _lockstep(
    config: ScenarioConfig,
    seeds: list[int],
    keep_trace: bool,
    detector: Detector | None = None,
    bank: KalmanBank | None = None,
    observer: ObserverFsm | None = None,
) -> list[SimulationResult]:
    """Run config once per seed, all seeds stepped together; see `simulate` and `sweep`."""
    model = config.model
    machinery = _machinery(model)
    refuse_invalid(machinery.problems)
    x = np.array(config.initial_state, dtype=float)
    if x.shape != (model.dim,):
        raise ValueError(
            f"initial_state has shape {x.shape}, not the model's ({model.dim},)"
        )
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
    if detector is None:
        detector = machinery.detector
    if observer is None:
        observer = machinery.observer

    q: ModeId = config.initial_mode
    if not model.invariant(q).contains(x):
        raise ValueError("initial state lies outside the initial mode's invariant")
    node: Node = observer.root
    if q not in node:
        raise ValueError("initial mode is missing from the observer root")
    dim = x.size
    steps = machinery.steps if bank is None else _mode_steps(model, bank)
    control = config.controller.control
    stop_events = config.stop_events
    keep = n if keep_trace else None
    everyone = [_Run(seed, model, detector, steps, config.safety, q, node, keep) for seed in seeds]
    runs, group = everyone, _Group(everyone, dim)
    # Products are taken with `ndarray.dot(..., out=row)`, which gives the
    # bits of `@` but for the sign of a zero: a product with one column has
    # no sum, and keeps a -0.0 that `@` turns into +0.0. A sum is -0.0 only
    # if both terms are, so A x + B u and A x_est + B u keep the bits of `@`
    # when B u is not -0.0 or A x is not: A x never is for dim >= 2, and for
    # dim 1 `_b_dot` adds 0.0 to B u. So x past sample 0 is never -0.0,
    # nor is x + v; adding the zero row of a run without attack would change
    # nothing, and the loop skips it.
    gamma0 = attack.gamma_rows(0, 1, h, dim)[0] if attack else np.zeros(dim)
    step = steps[q]
    group.x[0] = x
    for s, run in enumerate(runs):
        v = _truncated_gaussian(run.rng.standard_normal(dim), step.sigma[1], step.bound[1])
        group.y[0, s] = x + v + gamma0
    group.x_est[0] = group.y[0]
    # (run, transition, state) of each guard that fired at this sample
    fired: list[tuple[_Run, Transition, list[float]]] = []
    asarray = np.asarray

    t = i = first = 0
    for first in range(0, n, BLOCK):
        if first:
            _flush(runs, group, first - BLOCK, BLOCK, carry=True)
            runs, group = group.carry(runs)
        k = min(BLOCK, n - first)
        for run in runs:
            run.draw(k)
        gammas = attack.gamma_rows(first + 1, k, h, dim) if attack else repeat(None, k)
        xs, ys, y_seen, ax, bu = group.x, group.y, group.y_seen, group.ax, group.bu
        x_now = xs[0]
        # the runs still going, in seed order; a run that ends leaves it
        active = runs[:]
        for i, (x_next, y_next, gamma) in enumerate(zip(xs[1 : k + 1], ys[1 : k + 1], gammas)):
            t = first + i
            now = t * h
            states = x_now.tolist()
            for run in active:
                s = run.s
                state = states[s]
                u = asarray(control(y_seen[i, s], now), float)
                if u.ndim != 1 or u.tobytes() != run.u_bytes:
                    if u.ndim != 1 or not all(map(math.isfinite, u.tolist())):
                        raise ValueError(
                            f"controller output {u.tolist()} at {now} s is not a vector of finite numbers"
                        )
                    run.u_bytes = u.tobytes()
                    run.u = np.frombuffer(run.u_bytes)
                    run.input_rows.append((i, run.u))
                    _b_dot(run.step.b, run.u, run.bu)
                step = run.step
                for axis, sign, guard_at, tr in step.guards:
                    if sign * (state[axis] - guard_at) >= 0.0:
                        fired.append((run, tr, state))
                        break
                step.a.dot(x_now[s], run.ax)

            # x of sample t + 1 = A x + B u + w: row i + 1 holds w, and a
            # sum of two terms has the same bits in either order
            ax += bu
            x_next += ax

            if fired:
                for run, tr, state in fired:
                    pair = (tr.input_event, tr.output_event)
                    run.events.append(
                        EventRecord(
                            sample=t,
                            time=now,
                            source=tr.source,
                            target=tr.target,
                            input_event=tr.input_event,
                            output_event=tr.output_event,
                            state=tuple(state),
                        )
                    )
                    if tr.output_event in stop_events:
                        run.stop_event = tr.output_event
                    else:
                        try:
                            run.node = step_discrete(observer, run.node, pair)
                        except DiscreteInconsistencyError:
                            run.inconsistency = (t + 1) * h
                    run.event_rows.append((i, pair, tr.target, run.node))
                    if run.stop_event is not None or run.inconsistency is not None:
                        run.end = t
                        active.remove(run)
                        continue
                    run.step = step = steps[tr.target]
                    _b_dot(step.b, run.u, run.bu)
                    # row i's w is spent; its v, and the rows after, are the new mode's
                    run.lay(i, spent=1)
                fired.clear()
                if not active:
                    break

            # y = x + v + gamma, where row i + 1 of y holds v
            y_next += x_next
            if gamma is not None:
                y_next += gamma
            x_now = x_next
        if not active:
            break

    for run in runs:
        if run.end is None:
            run.end = t
    _flush(runs, group, first, i + 1, carry=False)
    return [run.result() for run in everyone]


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
    model raises ValueError before the run. A controller output that is not
    a vector of finite numbers raises it at the sample that produced it, and
    a model whose modes take different numbers of inputs, which no one
    output fits, raises it before the first sample. With keep_trace=False
    the run keeps one block of rows, not a row per sample; the summary is
    the same either way.

    The detector, the filter bank and the observer default to the model's
    own, built on its first run and kept for the next; so is the verdict of
    `validate_model`. Passed ones take precedence.

    `control(y, t)` is handed a read-only row of the run's buffers, valid
    only for the call: the loop overwrites it BLOCK samples later, so a
    controller that keeps y must keep a copy. Its output is checked once per
    distinct value, told apart by its bytes, and a copy is kept for B u, so
    it may hand out one array and rewrite it in place. The safety predicate
    does not feed back: `safety.violated(x)` is handed a read-only block of
    up to BLOCK states, one per row, and returns one bool per row; it is not
    called past the block of the first violation.

    This is the one-seed case of the loop that `sweep` runs for many seeds
    at once.
    """
    return _lockstep(config, [config.seed], keep_trace, detector, bank, observer)[0]


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
    """Run the same scenario across seeds, in seed order, each seed once.

    The seeds are stepped together, GROUP at a time, through the loop that
    `simulate` runs for one, so the model's machinery is built once and each
    seed gets the bits of its own `simulate` run. A group keeps BLOCK + 1
    rows of each buffer per seed, so GROUP bounds the buffers whatever the
    seed count; with keep_traces every seed's trace is returned.
    Within a sample the controller is called once per seed that is still
    running, in seed order, so a controller that keeps state between calls
    sees the seeds' calls interleaved, not one run after another.

    A seed that is not a whole number raises ValueError naming it before
    any run; whole floats and numpy integers count as ints. When several
    seeds would raise, the sweep raises the error, with the message a run
    alone gives, that comes first as the groups are stepped: an earlier
    group's first; within a group, the first sample's, and in one sample
    the lowest seed's. An error of the monitor pass, such as a safety
    predicate that does not return one bool per row, comes at the end of
    its block, after the plant errors of that block's samples.
    """
    seeds = sorted({_whole_seed(seed) for seed in seeds})
    results: list[SimulationResult] = []
    for lo in range(0, len(seeds), GROUP):
        results += _lockstep(base, seeds[lo : lo + GROUP], keep_traces)
    return tuple(results)



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
    """Write each row of the trace as row_format % cells, BLOCK rows of cells at a time.

    A row's cells come in the column order both formats share: time, state,
    output, estimate, residual, then `_VERDICT_COLUMNS`. `numbers` turns a
    list of floats into cells and `flags` is the (false, true) cell pair;
    `mode_cell` and `node_cell` encode a mode id and an observer node, once
    per distinct value per file. Each run of adjacent flag columns, the
    conflicts with the alarm and the two settling flags, fills its slots as
    one cell looked up by the bit code of its flags: the flags' cells joined
    by the text row_format has between their slots. A block's rows go to the
    file one at a time, and its cells are gone before the next block's are
    built, so a writer holds one block of cells beyond the trace whatever
    its length.
    """
    pieces = row_format.split("%s")
    first_verdict = len(pieces) - 1 - len(_VERDICT_COLUMNS)
    runs = []
    # the last run first, so dropping its joints leaves the earlier slots in place
    for names in (("steady", "warming_up"), ("conflict_a", "conflict_b", "conflict_c", "alarm")):
        start = first_verdict + _VERDICT_COLUMNS.index(names[0])
        joints = pieces[start + 1 : start + len(names)]
        del pieces[start + 1 : start + len(names)]
        table = [
            flags[code & 1]
            + "".join(joint + flags[code >> j & 1] for j, joint in enumerate(joints, 1))
            for code in range(1 << len(names))
        ]
        runs.append(([getattr(trace, name) for name in names], table))
    row_format = "%s".join(pieces)
    floats = (trace.times[:, None], trace.x_true, trace.y, trace.x_est, trace.residual)
    labels = ((trace.mode_true, mode_cell, {}), (trace.node, node_cell, {}))

    def block(rows: slice) -> Iterable[tuple[str, ...]]:
        cells = [numbers(col.tolist()) for group in floats for col in group[rows].T]
        for values, encode, cache in labels:
            values = values[rows]
            for value in set(values).difference(cache):
                cache[value] = encode(value)
            cells.append(map(cache.__getitem__, values))
        settling, conflicts = (
            map(table.__getitem__, sum(col[rows] << j for j, col in enumerate(columns)).tolist())
            for columns, table in runs
        )
        return zip(*cells, conflicts, numbers(trace.volume[rows].tolist()), settling)

    for lo in range(0, len(trace), BLOCK):
        handle.writelines(map(row_format.__mod__, block(slice(lo, lo + BLOCK))))


def _csv_cell(text: str) -> str:
    """The cell `csv.writer`'s excel dialect writes for text inside a row.

    Minimal quoting: text that holds a comma, a double quote, CR or LF is
    put in double quotes, with each double quote inside doubled; any other
    text is written as it is.
    """
    if any(special in text for special in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_trace_csv(trace: Trace, path: str) -> None:
    """Fixed column order: time, state, output, estimate, residual, modes, verdicts.

    Floats are written as their repr, flags as 0/1, the node as its mode ids
    joined by "|", with `_csv_cell`'s quoting of the two labels and CRLF line
    ends. The file is UTF-8 whatever the locale.
    """
    dim = trace.x_true.shape[1]
    header = (
        ["t"]
        + [f"{name}_{i}" for name in ("x", "y", "xest", "r") for i in range(dim)]
        + list(_VERDICT_COLUMNS)
    )
    with open(path, "w", newline="", encoding="utf-8") as handle:
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
    """Same records as the CSV, one JSON object per line, as `json.dumps` writes them, in UTF-8."""
    vector = "[" + ", ".join(["%s"] * trace.x_true.shape[1]) + "]"
    fields = [("t", "%s")] + [(name, vector) for name in ("x", "y", "xest", "r")]
    fields += [(name, "%s") for name in _VERDICT_COLUMNS]
    with open(path, "w", encoding="utf-8") as handle:
        _write_rows(
            trace,
            handle,
            "{" + ", ".join(f'"{name}": {cell}' for name, cell in fields) + "}\n",
            _json_numbers,
            ("false", "true"),
            json.dumps,
            lambda node: json.dumps(list(node)),
        )
