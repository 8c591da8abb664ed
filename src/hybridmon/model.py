"""Hybrid automaton data model, structural validation, and region decomposition.

A hybrid automaton here is a set of discrete modes, each holding linear
time-invariant dynamics x+ = A x + B u + w and a hyperrectangular invariant,
connected by guarded transitions. Each guard is a closed half-space on a
single state variable. Measurements are y = x + v (identity output map).
The bounds on w, v and u are the automaton's, one noise model for every
mode, and every mode takes the same number of inputs, as the file holds them.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from math import isfinite
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

ModeId = int | str

EIG_TOL = 1e-9   # slack for marginally stable eigenvalues landing near 1
GEOM_TOL = 1e-9  # slack for interval endpoint comparisons


class ModelError(ValueError):
    """Structurally malformed model (bad shapes, dangling references)."""


class DegenerateModelError(ModelError):
    """Two modes share an identical invariant; regions cannot be separated."""


def readonly(a: np.ndarray, ndmin: int = 0) -> np.ndarray:
    out = np.array(a, dtype=float, ndmin=ndmin)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Event:
    """A discrete event, a command (input) or a sensor signal (output); all are observable."""

    name: str
    kind: str  # "input" or "output"

    def __post_init__(self) -> None:
        if self.kind not in ("input", "output"):
            raise ModelError(f"event {self.name!r}: kind must be input or output")


@dataclass(frozen=True)
class Invariant:
    """Axis-aligned hyperrectangle of admissible continuous states for a mode."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        ivs = []
        for i, (lo, hi) in enumerate(self.intervals):
            lo = as_finite(lo, f"invariant axis {i} lower bound")
            hi = as_finite(hi, f"invariant axis {i} upper bound")
            if lo > hi:
                raise ModelError(f"invariant axis {i}: lower bound {lo} > upper bound {hi}")
            ivs.append((lo, hi))
        object.__setattr__(self, "intervals", tuple(ivs))

    @property
    def dim(self) -> int:
        return len(self.intervals)

    def contains(self, x: Sequence[float]) -> bool:
        """Whether x lies in the box; a vector of another length raises ValueError."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"state of shape {x.shape} against a {self.dim}-axis invariant")
        return all(lo <= xi <= hi for xi, (lo, hi) in zip(x, self.intervals))

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        arr = np.asarray(self.intervals, dtype=float)
        return arr[:, 0].copy(), arr[:, 1].copy()


def real_number(value: object) -> bool:
    """Whether value is a real number; a bool, text or None is not."""
    # int and float first: the abstract-class check costs a microsecond
    if type(value) in (int, float):
        return True
    return isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))


def whole_number(value: object) -> bool:
    """Whether value is a real number with no fractional part; nan and inf are not."""
    if type(value) is int:
        return True
    return real_number(value) and (
        isinstance(value, numbers.Integral) or float(value).is_integer()
    )


def shown(value: object) -> str:
    """repr(value), or the size of an int with more digits than Python prints."""
    try:
        return repr(value)
    except ValueError:
        return f"an integer of {value.bit_length()} bits"


def as_real(value: object, name: str, error: type[ValueError] = ModelError) -> float:
    """value as a float, or error naming the field unless it is a real number a float holds."""
    if type(value) is float:
        return value
    if not real_number(value):
        raise error(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise error(f"{name} must be finite, got a number too large for a float") from None


def as_finite(value: object, name: str, error: type[ValueError] = ModelError) -> float:
    """value as a float, or error naming the field unless it is a finite real number."""
    number = as_real(value, name, error)
    if not isfinite(number):
        raise error(f"{name} must be finite, got {value!r}")
    return number


def as_index(value: object, name: str, error: type[ValueError] = ModelError) -> int:
    """value as an int, or error naming the field unless it is a nonnegative whole number."""
    if not whole_number(value):
        raise error(f"{name} must be a whole number, got {value!r}")
    index = int(value)
    if index < 0:
        raise error(f"{name} must be nonnegative, got {shown(index)}")
    return index


@dataclass(frozen=True)
class Guard:
    """Closed half-space past the hyperplane x[axis] = threshold.

    sign +1 fires at or above the threshold coordinate, -1 at or below it,
    so threshold always reads as a position on the axis.
    """

    axis: int
    sign: int
    threshold: float

    def __post_init__(self) -> None:
        if isinstance(self.sign, (bool, np.bool_)) or self.sign not in (-1, 1):
            raise ModelError(f"guard sign must be -1 or +1, got {shown(self.sign)}")
        object.__setattr__(self, "axis", as_index(self.axis, "guard axis"))
        object.__setattr__(self, "sign", int(self.sign))
        object.__setattr__(self, "threshold", as_finite(self.threshold, "guard threshold"))


@dataclass(frozen=True)
class Transition:
    """A guarded mode switch labeled by an input event and its output event."""

    source: ModeId
    input_event: str
    output_event: str
    target: ModeId
    guard: Guard


@dataclass(frozen=True)
class Mode:
    """One discrete mode as a `states` entry of the model file holds it: x+ = A x + B u + w.

    The noise and input bounds are the automaton's, and the output map is
    the identity. A and B are read-only copies, compared and hashed by
    value (0.0 equals -0.0).
    """

    mode_id: ModeId
    a: np.ndarray
    b: np.ndarray
    invariant: Invariant

    def __post_init__(self) -> None:
        a, b = readonly(self.a, ndmin=2), readonly(self.b, ndmin=2)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ModelError(f"A must be square, got shape {a.shape}")
        n = a.shape[0]
        if b.shape[0] != n:
            raise ModelError(f"B must have {n} rows, got shape {b.shape}")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ModelError("system matrices must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if n != self.invariant.dim:
            raise ModelError(
                f"mode {self.mode_id!r}: dynamics dimension {n} "
                f"!= invariant dimension {self.invariant.dim}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mode):
            return NotImplemented
        return (
            self.mode_id == other.mode_id
            and self.invariant == other.invariant
            and np.array_equal(self.a, other.a)
            and np.array_equal(self.b, other.b)
        )

    def __hash__(self) -> int:
        values = (tuple(m.ravel().tolist()) for m in (self.a, self.b))
        return hash((self.mode_id, self.invariant, self.a.shape, self.b.shape, *values))

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    @cached_property
    def a_norm(self) -> float:
        """||A|| in the infinity norm, the largest absolute row sum."""
        return float(abs(self.a).sum(axis=1).max())


@dataclass(frozen=True)
class HybridAutomaton:
    """The full nominal model: modes, events, guarded transitions, noise, timing.

    Every mode shares one continuous dimension and one input width. One
    noise model serves every mode: w_bounds and v_bounds are per-axis
    infinity-norm bounds on the process and measurement noise, and
    input_bound is the infinity-norm bound on u. They are stored as tuples
    of floats, as `Invariant.intervals` is, so the model compares and
    hashes by value (0.0 equals -0.0).
    """

    modes: tuple[Mode, ...]
    events: tuple[Event, ...]
    transitions: tuple[Transition, ...]
    w_bounds: tuple[float, ...]
    v_bounds: tuple[float, ...]
    input_bound: float
    dwell_time: int
    sampling_period: float
    theta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "modes", tuple(self.modes))
        object.__setattr__(self, "events", tuple(self.events))
        object.__setattr__(self, "transitions", tuple(self.transitions))
        object.__setattr__(self, "dwell_time", as_index(self.dwell_time, "dwell_time"))
        as_real(self.dwell_time, "dwell_time")  # a run's settling time is dwell_time * h, a float
        for name in ("sampling_period", "theta"):
            value = as_real(getattr(self, name), name)
            if not (isfinite(value) and value > 0):
                raise ModelError(f"{name} must be finite and positive, got {value!r}")
            object.__setattr__(self, name, value)
        if not self.modes:
            raise ModelError("model must declare at least one mode")
        ids = [m.mode_id for m in self.modes]
        if len(set(ids)) != len(ids):
            raise ModelError("duplicate mode ids")
        names = [e.name for e in self.events]
        if len(set(names)) != len(names):
            raise ModelError("duplicate event names")
        if self.dwell_time < 1:
            raise ModelError("dwell_time must be a positive number of samples")
        if len({m.dim for m in self.modes}) != 1:
            raise ModelError("all modes must share one continuous dimension")
        if len({m.b.shape[1] for m in self.modes}) != 1:
            raise ModelError(
                "modes take different numbers of inputs; one controller cannot drive them"
            )
        for name, label in (("w_bounds", "process"), ("v_bounds", "measurement")):
            bounds = np.array(getattr(self, name), dtype=float, ndmin=1)
            if bounds.shape != (self.dim,):
                raise ModelError(f"{label} noise bounds must have length {self.dim}")
            if not (bounds >= 0).all():
                raise ModelError("noise bounds must be nonnegative")
            for i, bound in enumerate(bounds.tolist()):
                as_finite(bound, f"{label} noise bound {i}")
            object.__setattr__(self, name, tuple(bounds.tolist()))
        mu = as_real(self.input_bound, "input_bound")
        if not isfinite(mu) or mu < 0:
            raise ModelError("input bound must be finite and nonnegative")
        object.__setattr__(self, "input_bound", mu)
        event_by_name = {e.name: e for e in self.events}
        seen_pairs: set[tuple[ModeId, str]] = set()
        for tr in self.transitions:
            if (q := tr.source) not in ids or (q := tr.target) not in ids:
                raise ModelError(f"transition references unknown mode {shown(q)}")
            if tr.input_event not in event_by_name:
                raise ModelError(f"transition references unknown event {tr.input_event!r}")
            if tr.output_event not in event_by_name:
                raise ModelError(f"transition references unknown event {tr.output_event!r}")
            if event_by_name[tr.input_event].kind != "input":
                raise ModelError(f"event {tr.input_event!r} used as input but declared output")
            if event_by_name[tr.output_event].kind != "output":
                raise ModelError(f"event {tr.output_event!r} used as output but declared input")
            if tr.guard.axis >= self.dim:
                raise ModelError(f"guard axis {shown(tr.guard.axis)} out of range")
            key = (tr.source, tr.input_event)
            if key in seen_pairs:
                # the discrete transition relation must stay a function
                raise ModelError(f"duplicate transition for (mode, input event) {key}")
            seen_pairs.add(key)

    @property
    def dim(self) -> int:
        return self.modes[0].dim

    @property
    def mode_ids(self) -> tuple[ModeId, ...]:
        return tuple(m.mode_id for m in self.modes)

    @cached_property
    def step_bounds(self) -> Mapping[ModeId, float]:
        """Each mode's per-step inflation radius of a reach set, read-only.

        ||B_q|| mu + ||w|| in infinity norms: the mode's own B, with the
        model's input and process noise bounds.
        """
        w_norm = float(np.max(self.w_bounds)) if self.w_bounds else 0.0
        bounds = {}
        for mode in self.modes:
            b = mode.b
            b_norm = float(abs(b).sum(axis=1).max()) if b.size else 0.0
            bounds[mode.mode_id] = b_norm * self.input_bound + w_norm
        return MappingProxyType(bounds)

    def mode(self, mode_id: ModeId) -> Mode:
        for m in self.modes:
            if m.mode_id == mode_id:
                return m
        raise KeyError(mode_id)

    def invariant(self, mode_id: ModeId) -> Invariant:
        return self.mode(mode_id).invariant

    def transitions_from(self, mode_id: ModeId) -> tuple[Transition, ...]:
        return tuple(t for t in self.transitions if t.source == mode_id)


@dataclass(frozen=True)
class Fsm:
    """Discrete skeleton of the automaton: modes, transition map, output map."""

    states: tuple[ModeId, ...]
    transitions: Mapping[tuple[ModeId, str], ModeId]
    outputs: Mapping[tuple[ModeId, str], str]

    def active_pairs(self, state: ModeId) -> tuple[tuple[str, str], ...]:
        """Input/output event pairs that can occur at a state, sorted."""
        pairs = [
            (psi, self.outputs[(q, psi)])
            for (q, psi) in self.transitions
            if q == state
        ]
        return tuple(sorted(pairs))


Box = tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class RegionDecomposition:
    """Intermediate region, per-mode normal regions, and neighbor hyperplanes.

    All boxes are stored as closed intervals (the closures of the regions).
    """

    intermediate: tuple[tuple[tuple[ModeId, ModeId], Box], ...]
    normal: Mapping[ModeId, tuple[Box, ...]]
    neighbor_values: Mapping[tuple[ModeId, str], float]


def _box_intersect(a: Box, b: Box) -> Box | None:
    out: list[tuple[float, float]] = []
    for (alo, ahi), (blo, bhi) in zip(a, b):
        lo, hi = max(alo, blo), min(ahi, bhi)
        if lo > hi:
            return None
        out.append((lo, hi))
    return tuple(out)


def _box_subtract(base: Box, cut: Box) -> list[Box]:
    """Closed boxes covering the closure of base minus cut.

    Splits axis by axis; zero-width slivers (which lie inside the closure of
    the cut) are dropped.
    """
    if _box_intersect(base, cut) is None:
        return [base]
    pieces: list[Box] = []
    remaining = list(base)
    for axis, ((blo, bhi), (clo, chi)) in enumerate(zip(base, cut)):
        if clo > blo:
            lower = list(remaining)
            lower[axis] = (blo, min(bhi, clo))
            if all(lo < hi for lo, hi in lower):
                pieces.append(tuple(lower))
        if chi < bhi:
            upper = list(remaining)
            upper[axis] = (max(blo, chi), bhi)
            if all(lo < hi for lo, hi in upper):
                pieces.append(tuple(upper))
        remaining[axis] = (max(blo, clo), min(bhi, chi))
    return pieces


def refuse_invalid(problems: Sequence[str]) -> None:
    """Raise ModelError listing these `validate_model` violations, if any."""
    if problems:
        raise ModelError("model failed validation: " + "; ".join(problems))


def noise_problem(model: HybridAutomaton) -> str | None:
    """Why the filters cannot invert the model's noise, or None when they can.

    Names the first axis where 1 / (Q + R) is not finite, with Q and R the
    process and measurement noise variances (bound / 3)^2: both zero leaves
    P + R singular, and subnormal ones overflow it. The noise is the
    model's, shared by every mode, so the message names no mode.
    """
    w, v = np.array(model.w_bounds), np.array(model.v_bounds)
    q_var = (w / 3.0) ** 2
    r_var = (v / 3.0) ** 2
    with np.errstate(divide="ignore", over="ignore"):
        unbounded = np.flatnonzero(~np.isfinite(1.0 / (q_var + r_var)))
    if not unbounded.size:
        return None
    axis = int(unbounded[0])
    noise = f"(w = {w[axis]:g}, v = {v[axis]:g})"
    if q_var[axis] == 0.0 and r_var[axis] == 0.0:
        problem = f"zero process and measurement noise variance {noise}, so P + R is singular"
    else:
        problem = (
            f"process and measurement noise variances {noise} too small "
            "to invert: 1 / (Q + R) is not finite"
        )
    return f"axis {axis} has {problem}"


def validate_model(model: HybridAutomaton) -> list[str]:
    """Check the modeling assumptions; return one descriptor per violation.

    Structural problems (bad shapes, dangling ids) raise ModelError at
    construction time; this function reports semantic assumption violations:
    eigenvalue moduli above 1, noise the filter cannot invert
    (`noise_problem`), guards outside their source invariant, and
    intermediate bands not delimited by the guard and neighbor hyperplanes.
    """
    violations: list[str] = []
    # one eigenvalue solve per bitwise-distinct A, as synthesize_gains keys its solves
    moduli: dict[tuple, float] = {}
    for mode in model.modes:
        key = (mode.a.shape, mode.a.tobytes())
        if key not in moduli:
            eigs = np.linalg.eigvals(mode.a)
            moduli[key] = float(np.max(np.abs(eigs))) if eigs.size else 0.0
        worst = moduli[key]
        if worst > 1.0 + EIG_TOL:
            violations.append(
                f"stability: mode {mode.mode_id!r} has eigenvalue modulus {worst:.6g} > 1"
            )
    noise = noise_problem(model)
    if noise is not None:
        violations.append(f"noise: {noise}")
    for tr in model.transitions:
        inv = model.invariant(tr.source)
        lo, hi = inv.intervals[tr.guard.axis]
        if not (lo - GEOM_TOL <= tr.guard.threshold <= hi + GEOM_TOL):
            violations.append(
                f"guard-placement: transition {tr.source!r}->{tr.target!r} has "
                f"threshold {tr.guard.threshold} outside invariant axis "
                f"interval [{lo}, {hi}]"
            )
            continue
        c_g = tr.guard.threshold
        c_l = neighbor_value(model, tr)
        if abs(c_l - c_g) <= GEOM_TOL:
            # guard sits on the invariant face: the band between the guard
            # hyperplane and its neighbor is empty, nothing to delimit
            continue
        overlap = _box_intersect(
            (inv.intervals[tr.guard.axis],), (model.invariant(tr.target).intervals[tr.guard.axis],)
        )
        if overlap is None:
            violations.append(
                f"intermediate-region: transition {tr.source!r}->{tr.target!r} "
                f"has disjoint invariants on guard axis {tr.guard.axis}"
            )
            continue
        band = overlap[0]
        expected = (min(c_g, c_l), max(c_g, c_l))
        if abs(band[0] - expected[0]) > GEOM_TOL or abs(band[1] - expected[1]) > GEOM_TOL:
            violations.append(
                f"intermediate-region: transition {tr.source!r}->{tr.target!r} "
                f"overlap band {band} is not delimited by the guard hyperplane "
                f"{c_g} and its neighbor hyperplane {c_l}"
            )
    return violations


def neighbor_value(model: HybridAutomaton, transition: Transition) -> float:
    """Value of the invariant boundary face nearest the guard on its axis.

    The neighbor hyperplane is whichever of the two invariant faces on the
    guard axis minimizes the distance to the guard threshold; ties pick the
    face behind the guard, the lower face for a rising guard and the upper
    for a falling one, so a model and its mirror image on the guard axis
    pick mirrored faces. A guard sitting exactly on a face yields that
    face, making the band between guard and neighbor hyperplane empty.
    """
    guard = transition.guard
    lo, hi = model.invariant(transition.source).intervals[guard.axis]
    return min((lo, hi), key=lambda c: (abs(c - guard.threshold), guard.sign * c))


def decompose_regions(model: HybridAutomaton) -> RegionDecomposition:
    """Split mode invariants into the intermediate region and normal regions.

    The intermediate region is the union of pairwise invariant intersections;
    each mode's normal region is the closure of its invariant minus the
    closure of the intermediate region, stored as a list of closed boxes.
    """
    modes = sorted(model.modes, key=lambda m: str(m.mode_id))
    for a, b in itertools.combinations(modes, 2):
        if a.invariant.intervals == b.invariant.intervals:
            raise DegenerateModelError(
                f"modes {a.mode_id!r} and {b.mode_id!r} have identical invariants"
            )
    intermediate: list[tuple[tuple[ModeId, ModeId], Box]] = []
    for a, b in itertools.combinations(modes, 2):
        overlap = _box_intersect(a.invariant.intervals, b.invariant.intervals)
        if overlap is not None:
            intermediate.append(((a.mode_id, b.mode_id), overlap))
    normal: dict[ModeId, tuple[Box, ...]] = {}
    for mode in modes:
        boxes: list[Box] = [mode.invariant.intervals]
        for _, cut in intermediate:
            boxes = [piece for box in boxes for piece in _box_subtract(box, cut)]
        normal[mode.mode_id] = tuple(boxes)
    neighbor_values = {
        (tr.source, tr.input_event): neighbor_value(model, tr)
        for tr in model.transitions
    }
    return RegionDecomposition(
        intermediate=tuple(intermediate),
        normal=normal,
        neighbor_values=neighbor_values,
    )


def extract_fsm(model: HybridAutomaton) -> Fsm:
    """Discrete skeleton: every guarded transition, continuous dynamics dropped.

    Events that label no nominal transition (for instance anomaly events kept
    in the event list for documentation) do not appear in the maps.
    """
    states = tuple(sorted(model.mode_ids, key=str))
    transitions: dict[tuple[ModeId, str], ModeId] = {}
    outputs: dict[tuple[ModeId, str], str] = {}
    for tr in sorted(model.transitions, key=lambda t: (str(t.source), t.input_event)):
        transitions[(tr.source, tr.input_event)] = tr.target
        outputs[(tr.source, tr.input_event)] = tr.output_event
    return Fsm(states=states, transitions=transitions, outputs=outputs)
