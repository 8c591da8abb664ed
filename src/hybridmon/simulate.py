"""Closed-loop simulation with sensor attacks and both anomaly monitors.

One run steps the plant under truncated-Gaussian noise, fires guarded
transitions on the true state, feeds the discrete and continuous
observers, evaluates the conflict detector and the residual baseline, and
reports first-alarm times against the safety-violation time. A
counter-based generator keyed by the seed makes traces bit-reproducible.

`simulate` runs one seed, and `sweep` runs it once per seed. A run has
two parts. The plant loop steps per sample only what feeds back into the
plant: the controller, the guards, x = A x + B u + w and the measurement,
with each mode's matrices and guards looked up once per model and the
noise, one for all modes, drawn once per block of samples. Per sample, the
loop calls the controller, steps x and y with one call of the plant
function of `kernels`, which reads and writes the run's rows in place and
adds the attack's row to y, a zero row when the run is not attacked, and
checks the guards on the state. A controller output is checked once per
distinct value, told apart by its bytes, and B u is taken again with the
mode's B only when the output or the mode changes. Of the rest, the loop
records change points: the row of each fired transition, and the row of
each new controller output, with the output; a stop event ends it. At the
end of each block of samples, one monitor step decides the block. It
builds each event's record, steps the discrete observer on each event
pair, rebuilds the mode, node, settled and event columns from the change
points, steps the Kalman estimate with one call of the update function of
`kernels` per stretch of rows between the rows where A, K or B u changes,
with the B of the node's mode, and decides the safety predicate, the
detector, the baseline monitor and the steady maxima with
`ZoneSpeedLimit.violated` and `Detector.evaluate_rows`. The monitor feeds
nothing back, so this gives the bits of deciding each sample as it comes.
A discrete inconsistency ends the run at its row, which the monitor step
meets after the plant and the controller have run on to the block's end.

Every per-sample product, A x, B u, A x_est and K times the innovation, is
a left-to-right sum of Python-float products (see `kernels`). So the plant,
the measurement and the estimate have the same bits on every IEEE-754
host, whatever BLAS numpy uses. What still goes through BLAS or LAPACK,
and may round differently on another machine, is computed once per model:
the Riccati gains (`kalman`), and `matrix_power` in `reach_operator` with
the products built on it: horizons, thresholds and the detector's
separating-axis tables. They can move a gain's last bits, and so every
estimate, or a verdict at contact. A run that ends, at a stop event or a
discrete inconsistency, is decided up to that sample. What a run builds
from an immutable input is built on first use and kept on that input for
the next run: a model keeps its validation verdict, detector, filter bank,
observer and mode steps, and a filter bank, the model's or a passed one,
keeps its gains as flat tuples.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Callable, Iterable, NamedTuple, TextIO, TypeVar

import numpy as np

from .conflicts import Detector
from .kalman import KalmanBank, check_dwell, synthesize_gains
from .kernels import Kernels, kernels
from .model import (
    HybridAutomaton,
    ModeId,
    Transition,
    as_finite,
    as_index,
    extract_fsm,
    readonly,
    refuse_invalid,
    shown,
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
    sample from the start and reads zero after it runs out. Axes are stored
    as a tuple of ints, samples as a tuple of floats and the other numbers
    as floats; one that is refused raises ValueError naming its field.
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
        axes = tuple(as_index(axis, "attack axis", ValueError) for axis in self.axes)
        if len(set(axes)) != len(axes):
            raise ValueError("attack axes repeat")
        object.__setattr__(self, "axes", axes)
        _store(self, as_finite, "attack", "slope", "magnitude", "start_time")
        object.__setattr__(self, "samples", _finite_tuple(self.samples, "attack samples"))
        if self.kind == "custom" and not self.samples:
            raise ValueError("custom attack needs a sample sequence")
        if self.start_time < 0:
            raise ValueError("attack start time must be nonnegative")

    def gamma_rows(
        self, first: int, count: int, sampling_period: float, dim: int
    ) -> np.ndarray:
        """Corruption vectors of samples first, ..., first + count - 1, one row each."""
        _check_inside("attack axis", self.axes, dim, "output")
        start = int(round(self.start_time / sampling_period))
        offsets = np.arange(first - start, first - start + count)
        # a ramp multiplies slope, offset and period in that order, the bits of
        # one sample's value, which `tests/loop_reference.py` computes per sample
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


def _store(part: object, convert: Callable[..., object], label: str, *names: str) -> None:
    """Store each named field of a frozen part as convert returns it, or raise ValueError."""
    for name in names:
        object.__setattr__(part, name, convert(getattr(part, name), f"{label} {name}", ValueError))


def _check_inside(name: str, axes: Iterable[int], dim: int, space: str) -> None:
    """Raise ValueError naming the field when an axis lies outside a dim-dimensional space."""
    for axis in axes:
        if axis >= dim:
            raise ValueError(f"{name} {axis} outside a {dim}-dimensional {space}")


def _finite_tuple(values: Iterable[object], name: str) -> tuple[float, ...]:
    """values as a tuple of floats; ValueError names the first entry that is not finite."""
    return tuple(as_finite(v, f"{name}[{i}]", ValueError) for i, v in enumerate(values))


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
        _store(self, as_index, "zone controller", "axis")
        _store(self, as_finite, "zone controller", "center", "half_width")
        _store(self, as_finite, "zone controller", "inside_value", "outside_value")
        if (width := self.half_width) < 0:
            raise ValueError(f"zone controller half_width must be nonnegative, got {width}")
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
        object.__setattr__(self, "values", _finite_tuple(self.values, "constant controller values"))
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

    def __post_init__(self) -> None:
        _store(self, as_index, "zone speed limit", "position_axis", "speed_axis")
        _store(self, as_finite, "zone speed limit", "center", "half_width", "limit")
        if (width := self.half_width) < 0:
            raise ValueError(f"zone speed limit half_width must be nonnegative, got {width}")

    def violated(self, x: np.ndarray) -> np.ndarray:
        """Whether each row of x breaks the limit: a bool for one state, one per row of a block."""
        x = np.asarray(x)
        near = abs(x[..., self.position_axis] - self.center) <= self.half_width
        return near & (x[..., self.speed_axis] > self.limit)


def _seed(value: object) -> int:
    """value as an int, or ValueError naming the seed unless it is a whole
    number from 0 below 2**128, the bound of the run's Philox key."""
    seed = as_index(value, "seed", ValueError)
    if seed >= 2**128:
        raise ValueError(f"seed must be less than 2**128, got {shown(seed)}")
    return seed


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything that determines one run; the seed fixes the trace bits.

    The seed must be a whole number from 0 below 2**128, or ValueError
    names it; whole floats and numpy integers are stored as int. The
    duration must be a finite real number that rounds to at least one
    sample, and is stored as a float. The initial mode must be one of the
    model's, of its type, and each stop event the output event of one of
    its transitions; stop_events is stored as a frozenset, and text, which
    would be read as a set of characters, is refused, as is an attack,
    zone controller or speed limit axis past the model's dimension.
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
        object.__setattr__(self, "seed", _seed(self.seed))
        object.__setattr__(self, "duration", as_finite(self.duration, "duration", ValueError))
        if round(self.duration / self.model.sampling_period) <= 0:
            raise ValueError("duration too short for one sample")
        # a mode id of another type, True or 1.0 for 1, would show in the trace's labels
        initial = self.initial_mode
        if not any(type(q) is type(initial) and q == initial for q in self.model.mode_ids):
            raise ValueError(f"initial mode {self.initial_mode!r} is not a mode of the model")
        if isinstance(self.stop_events, str):
            raise ValueError(f"stop_events must be a set of event names, got {self.stop_events!r}")
        object.__setattr__(self, "stop_events", frozenset(self.stop_events))
        if unknown := self.stop_events - {tr.output_event for tr in self.model.transitions}:
            event = min(unknown, key=repr)
            raise ValueError(f"stop event {event!r} is the output event of no transition")
        # controllers and safety predicates of other types are the caller's to check
        dim, safety = self.model.dim, self.safety
        if isinstance(self.attack, AttackSpec):
            _check_inside("attack axis", self.attack.axes, dim, "output")
        if isinstance(self.controller, ZoneController):
            _check_inside("zone controller axis", (self.controller.axis,), dim, "state")
        if isinstance(safety, ZoneSpeedLimit):
            _check_inside("zone speed limit position_axis", (safety.position_axis,), dim, "state")
            _check_inside("zone speed limit speed_axis", (safety.speed_axis,), dim, "state")


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
    return model.theta + float(np.max(model.v_bounds))


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
    """What a sample needs of one mode, looked up once per model.

    A and B are flat row-major tuples of floats, as the functions of
    `kernels` take them.
    """

    a: tuple[float, ...]
    b: tuple[float, ...]
    guards: tuple[tuple[int, int, float, Transition], ...]  # (axis, sign, threshold, transition)


def _flat(matrix: np.ndarray) -> tuple[float, ...]:
    return tuple(matrix.ravel().tolist())


def _mode_steps(model: HybridAutomaton) -> dict[ModeId, _ModeStep]:
    """Each mode's step."""
    guards: dict[ModeId, list] = {q: [] for q in model.mode_ids}
    for tr in model.transitions:
        guards[tr.source].append((tr.guard.axis, tr.guard.sign, tr.guard.threshold, tr))
    return {
        mode.mode_id: _ModeStep(_flat(mode.a), _flat(mode.b), tuple(guards[mode.mode_id]))
        for mode in model.modes
    }


def _flat_gains(bank: KalmanBank) -> dict[ModeId, tuple[float, ...]]:
    """Each mode's gain as a flat row-major tuple of floats."""
    return {mode_id: _flat(gain.gain) for mode_id, gain in bank.gains.items()}


_T = TypeVar("_T")


def _kept(owner: object, name: str, build: Callable[[], _T]) -> _T:
    """build(), called on the first ask and kept on owner under name for the next.

    The owners are a run's immutable inputs, a model or a filter bank, so
    what is built from one stays valid for its life. It is kept in the
    owner's `__dict__`, as a cached property keeps its value, under a name
    that is no attribute's. Equal but distinct owners each build their own.
    """
    kept = owner.__dict__
    if name not in kept:
        kept[name] = build()
    return kept[name]


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


class _Run:
    """One seed's run: its buffers, change points and monitor.

    x, y and x_est hold BLOCK + 1 rows of one state each, starting as zeros.
    The loop reads sample t from row i = t % BLOCK and steps x and y of
    sample t + 1 straight into row i + 1, so the buffers have one row past
    the block, which `decide` moves to row 0 for the next block. The
    functions of `kernels` read and write the rows through the flat
    memoryviews xs, ys and es, where row r starts at r * dim. Of the rest,
    the loop records only change points: `event_rows` holds (row,
    transition) for each fired transition, and `input_rows` holds (row, u)
    for each row whose controller output u differs from the last. `decide`
    owns the rest: the event records, the observer's node, the stop event
    and the inconsistency. When the trace is kept, it writes each block into
    columns of n rows, allocated from the first block's.
    """

    def __init__(
        self,
        config: ScenarioConfig,
        detector: Detector,
        steps: dict[ModeId, _ModeStep],
        gains: dict[ModeId, tuple[float, ...]],
        kern: Kernels,
        observer: ObserverFsm,
        n: int | None,
    ) -> None:
        model = config.model
        self.seed, self.model, self.safety = config.seed, model, config.safety
        self.observer, self.stop_events, self.trace_rows = observer, config.stop_events, n
        self.detector, self.steps, self.kernels = detector, steps, kern
        # every mode's gain, so a bank without one fails before the run
        self.gains = {mode_id: gains[mode_id] for mode_id in steps}
        self.threshold = baseline_threshold(model)
        self.h, self.dwell, self.dim = model.sampling_period, model.dwell_time, model.dim
        self.x, self.y, self.x_est = (np.zeros((BLOCK + 1, self.dim)) for _ in range(3))
        self.xs, self.ys, self.es = (
            memoryview(rows.reshape(-1)) for rows in (self.x, self.y, self.x_est)
        )
        self.steady = np.zeros(BLOCK, dtype=bool)
        # the plant's outcome: its events and why it ended
        self.events: list[EventRecord] = []
        self.stop_event: str | None = None
        self.inconsistency: float | None = None
        # the monitor: the change points, the labels of the next row to
        # decide, the first sample of the current settling count, and the
        # controller output in force for the estimate
        self.event_rows: list[tuple[int, Transition]] = []
        self.input_rows: list[tuple[int, tuple[float, ...]]] = []
        self.label_mode, self.label_node = config.initial_mode, observer.root
        self.since, self.est_u, self.samples = 0, None, 0
        self.columns: dict[str, np.ndarray] | None = None
        self.mode_column: list[ModeId] = []
        self.node_column: list[Node] = []
        self.max_residual = self.max_error = self.max_volume = 0.0
        self.first_baseline: float | None = None
        self.first_conflict: ConflictAlarm | None = None
        self.violation: SafetyViolation | None = None

    @property
    def ended(self) -> bool:
        """Whether a stop event or a discrete inconsistency has ended the run."""
        return self.stop_event is not None or self.inconsistency is not None

    def decide(self, first: int, k: int) -> None:
        """Decide rows 0 .. k - 1, which hold samples first .. first + k - 1, then move row k to 0.

        Each fired transition is recorded with its state, row `at` of x. A
        stop event ends the run at its row; any other pair steps the
        observer, and one it refuses, a discrete inconsistency, ends the run
        at its row, though the plant loop has stepped the rows past it. The
        labels are rebuilt from the change points (the true modes only
        when the trace is kept, as nothing else reads them). The estimates
        of rows 1 .. k are stepped one call per stretch of rows that share
        A, K and B u: row r + 1's with row r's node and u. Row k, which the
        plant step has written, starts the next block; at the run's end no
        output reads it. The detector's verdicts are then folded into the
        summary figures and, when the trace is kept, into its columns.
        """
        kern, dim, steady = self.kernels, self.dim, self.steady
        nodes: list[Node] = []
        events: list[tuple[str, str] | None] = [None] * k
        starts = {0}

        def fill(lo: int, hi: int) -> None:
            nodes.extend([self.label_node] * (hi - lo))
            if self.trace_rows is not None:
                self.mode_column.extend([self.label_mode] * (hi - lo))
            steady[lo:hi] = False
            steady[max(lo, self.since + self.dwell - first) : hi] = True

        row = 0
        for at, tr in self.event_rows:
            events[at] = pair = (tr.input_event, tr.output_event)
            fill(row, at + 1)
            t = first + at
            state = tuple(self.x[at].tolist())
            self.events.append(EventRecord(t, t * self.h, tr.source, tr.target, *pair, state))
            if tr.output_event in self.stop_events:
                self.stop_event = tr.output_event
            else:
                try:
                    self.label_node = step_discrete(self.observer, self.label_node, pair)
                except DiscreteInconsistencyError:
                    # the run ends at this row; the plant's later rows go unread
                    self.inconsistency = (t + 1) * self.h
                    row = k = at + 1
                    del events[k:]
                    break
            self.label_mode, self.since, row = tr.target, t + 1, at + 1
            starts.add(row)
        fill(row, k)
        steady = steady[:k]

        inputs = {at: u for at, u in self.input_rows if at < k}
        starts = sorted(starts.union(inputs).difference((k,)))
        for lo, hi in zip(starts, starts[1:] + [k]):
            self.est_u = inputs.get(lo, self.est_u)
            mode = nodes[lo][0]
            step = self.steps[mode]
            bu = kern.b_times(step.b, self.est_u)
            kern.estimate(self.es, self.ys, lo * dim, hi - lo, step.a, self.gains[mode], bu)
        self.event_rows.clear()
        self.input_rows.clear()

        x, y, x_est = self.x[:k], self.y[:k], self.x_est[:k]
        # the safety predicate must not change x
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
        if self.trace_rows is not None:
            block = {
                "times": times, "x_true": x, "y": y, "x_est": x_est, "residual": residual,
                "steady": steady, "warming_up": rows.warming_up, "conflict_a": rows.conflict_a,
                "conflict_b": rows.conflict_b, "conflict_c": rows.conflict_c, "alarm": alarm,
                "volume": rows.volume,
            }
            if self.columns is None:
                # every column as long as the run, with the first block's dtype and row shape
                self.columns = {
                    name: np.empty((self.trace_rows, *values.shape[1:]), values.dtype)
                    for name, values in block.items()
                }
            for name, values in block.items():
                self.columns[name][first : first + k] = values
            self.node_column += nodes
        for buffer in (self.x, self.y, self.x_est):
            buffer[0] = buffer[k]
        self.samples = first + k

    def result(self) -> SimulationResult:
        """The run's summary, and its trace when kept, once its last block is decided."""
        samples = self.samples
        summary = SimulationSummary(
            seed=self.seed,
            completed=self.inconsistency is None,
            end_time=(samples - 1) * self.h,
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
    `validate_model`. Passed ones take precedence. The bank in use, the
    model's or a passed one, keeps its gains flattened for the next run. A
    passed observer may refuse an event pair, a discrete inconsistency that
    the model's own observer cannot meet: the summary and the trace end at
    the sample that fired it, but the plant and the controller run on to
    the end of its block, at most BLOCK - 1 samples more.

    `control(y, t)` is handed a read-only row of the run's buffers, valid
    only for the call: the loop overwrites it BLOCK samples later, so a
    controller that keeps y must keep a copy. Its output is checked once per
    distinct value, told apart by its bytes, and a copy is kept for B u, so
    it may hand out one array and rewrite it in place. The safety predicate
    does not feed back: `safety.violated(x)` is handed a read-only block of
    up to BLOCK states, one per row, and returns one bool per row; it is not
    called past the block of the first violation. An error of the monitor,
    such as a safety predicate that does not return one bool per row, comes
    at the end of its block.
    """
    model = config.model
    refuse_invalid(_kept(model, "simulate.problems", lambda: validate_model(model)))
    x0 = np.array(config.initial_state, dtype=float)
    if x0.shape != (model.dim,):
        raise ValueError(
            f"initial_state has shape {x0.shape}, not the model's ({model.dim},)"
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
        detector = _kept(model, "simulate.detector", lambda: Detector(model))
    if observer is None:
        observer = _kept(
            model, "simulate.observer", lambda: build_observer(extract_fsm(model))
        )

    mode: ModeId = config.initial_mode
    if not model.invariant(mode).contains(x0):
        raise ValueError("initial state lies outside the initial mode's invariant")
    if mode not in observer.root:
        raise ValueError("initial mode is missing from the observer root")
    dim = model.dim
    inputs = model.modes[0].b.shape[1]
    kern = kernels(dim, inputs)
    b_times, plant = kern.b_times, kern.plant
    if bank is None:
        bank = _kept(model, "simulate.bank", lambda: synthesize_gains(model))
    gains = _kept(bank, "simulate.gains", lambda: _flat_gains(bank))
    steps = _kept(model, "simulate.steps", lambda: _mode_steps(model))
    step = steps[mode]
    control = config.controller.control
    stop_events = config.stop_events
    run = _Run(config, detector, steps, gains, kern, observer, n if keep_trace else None)
    x, y, xs, ys = run.x, run.y, run.xs, run.ys
    # what `control` is handed: read-only rows, which the loop overwrites
    # one block later
    y_seen = y.view()
    y_seen.flags.writeable = False
    # the model's noise: w's and v's bounds, row by row, and their normals' deviations
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    bound = np.array((model.w_bounds, model.v_bounds))
    sigma = bound / 3.0
    zero = (0.0,) * dim
    gamma0 = attack.gamma_rows(0, 1, h, dim)[0] if attack else zero
    x[0] = x0
    y[0] = x0 + _truncated_gaussian(rng.standard_normal(dim), sigma[1], bound[1]) + gamma0
    run.x_est[0] = y[0]
    # the last controller output that passed the check, as bytes, which
    # tell -0.0 from 0.0 and see an array rewritten in place, and as a
    # tuple of floats, with B u of the mode in force
    u_bytes: bytes | None = None
    u: tuple[float, ...] = ()
    bu: tuple[float, ...] = ()
    asarray, isfinite = np.asarray, math.isfinite

    for first in range(0, n, BLOCK):
        k = min(BLOCK, n - first)
        # w of sample first + j goes into x's row j + 1 and v of sample
        # first + j + 1 into y's row j + 1, where the plant step adds the
        # rest of each sum; the draw is not kept past the statement
        x[1 : k + 1], y[1 : k + 1] = _truncated_gaussian(
            rng.standard_normal((k, 2, dim)), sigma, bound
        ).swapaxes(0, 1)
        # the plant step adds the attack to y last: y = x + v + gamma
        gammas = attack.gamma_rows(first + 1, k, h, dim).tolist() if attack else repeat(zero, k)
        for i, gamma in enumerate(gammas):
            now = (first + i) * h
            o = i * dim
            output = asarray(control(y_seen[i], now), float)
            if output.ndim != 1 or output.tobytes() != u_bytes:
                values = output.tolist()
                if output.ndim != 1 or not all(map(isfinite, values)):
                    raise ValueError(
                        f"controller output {values} at {now} s "
                        "is not a vector of finite numbers"
                    )
                if len(values) != inputs:
                    raise ValueError(
                        f"controller output {values} at {now} s has {len(values)} entries, "
                        f"but the model takes {inputs} inputs"
                    )
                u_bytes = output.tobytes()
                u = tuple(values)
                run.input_rows.append((i, u))
                bu = b_times(step.b, u)
            # x and y of sample t + 1, with the mode of sample t
            plant(xs, ys, o, step.a, bu, gamma)
            for axis, sign, guard_at, tr in step.guards:
                if sign * (xs[o + axis] - guard_at) >= 0.0:
                    break
            else:
                continue
            # tr fired at sample t, on the state of row i
            run.event_rows.append((i, tr))
            if tr.output_event in stop_events:
                break
            step = steps[tr.target]
            bu = b_times(step.b, u)
        run.decide(first, i + 1)
        if run.ended:
            break
    return run.result()


def sweep(
    base: ScenarioConfig,
    seeds: Iterable[int],
    *,
    keep_traces: bool = False,
) -> tuple[SimulationResult, ...]:
    """Run the same scenario across seeds, in seed order, each seed once.

    Each seed is one `simulate` run of base with that seed, so what the
    model's runs keep is built once for all of them and each seed gets the
    bits of its own run; with keep_traces every seed's trace is returned.
    The runs go one after another: a controller that keeps state between calls sees
    the lowest seed's calls from its first sample to its last, then the
    next seed's.

    A seed that is not a whole number from 0 below 2**128 raises
    ValueError naming it before any run; whole floats and numpy integers
    count as ints. When several seeds' runs would raise, the sweep raises
    the lowest such seed's error, with the message its run alone gives.
    """
    seeds = sorted({_seed(seed) for seed in seeds})
    return tuple(simulate(replace(base, seed=seed), keep_trace=keep_traces) for seed in seeds)


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
