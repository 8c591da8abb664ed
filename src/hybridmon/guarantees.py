"""Guaranteed-detection thresholds for each guard and state.

Two arms per guard: the measurement arm (least offset past the guard
that pushes every consistent measurement outside the invariant one step
after the switch) and the horizon arm (least offset that drives the
whole horizon-step reachable band past the neighbor hyperplane). The
per-state detection threshold is the larger available arm plus the
measurement uncertainty margin. All inner optimizations are over boxes,
so maxima and minima are closed-form; a vertex-enumeration oracle
cross-checks the closed form in tests. `classify_fdia` asks the static
question the residual monitor leaves open: whether an attack on a set of
sensors can stay invisible to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .model import (
    Guard,
    HybridAutomaton,
    Invariant,
    LtiDynamics,
    Mode,
    ModeId,
    RegionDecomposition,
    Transition,
    decompose_regions,
)
from .reachability import compute_all_deltas, guard_axis_hulls, sigma_sum

BISECT_TOL = 1e-9


class EmptyGeometryError(RuntimeError):
    """The one-step overshoot slab does not reach past the guard."""


class NoGuaranteeError(RuntimeError):
    """Neither threshold arm is available for the state."""


class OracleScaleError(ValueError):
    """Vertex enumeration refused: too many box corners."""


@dataclass(frozen=True)
class GuardGuarantee:
    """Solved quantities for one outgoing guard."""

    input_event: str
    z_star: float
    d_star: float  # math.inf when the horizon arm has no feasible offset
    epsilon: float


@dataclass(frozen=True)
class GuaranteeBound:
    """Per-state aggregate of the guard solutions."""

    mode_id: ModeId
    guards: tuple[GuardGuarantee, ...]
    z_star: float | None  # max over guards; None when the state has none
    d_star: float | None  # None when any guard's horizon arm is unavailable
    threshold: float | None  # None when no arm is available


def box_max(a: Sequence[float], lo: Sequence[float], hi: Sequence[float]) -> float:
    """Closed-form max of a.x over the box [lo, hi]."""
    a = np.asarray(a, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if np.any(lo > hi):
        raise ValueError("box has lo > hi")
    center = (lo + hi) / 2.0
    half = (hi - lo) / 2.0
    return float(a @ center + np.abs(a) @ half)


def _box_min(a: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> float:
    return -box_max(-np.asarray(a, dtype=float), lo, hi)


def oracle_box_optimum(a: Sequence[float], box: Sequence[tuple[float, float]]) -> float:
    """Max of a.x over a box by brute-force vertex enumeration."""
    a = np.asarray(a, dtype=float)
    if len(box) != a.size:
        raise ValueError("vector and box dimensions differ")
    if a.size > 10:
        raise OracleScaleError(f"{a.size} axes means {2**a.size} vertices; capped at 10")
    for lo, hi in box:
        if lo > hi:
            raise ValueError("box has lo > hi")
    best = -math.inf
    for mask in range(2 ** a.size):
        vertex = np.array(
            [box[i][1] if mask >> i & 1 else box[i][0] for i in range(a.size)]
        )
        best = max(best, float(a @ vertex))
    return best


def _reflect_model(model: HybridAutomaton, axis: int) -> HybridAutomaton:
    """Mirror the whole state space on one axis so a falling guard rises."""
    modes = []
    for mode_id in model.mode_ids:
        mode = model.mode(mode_id)
        dyn = mode.dynamics
        a = dyn.a.copy()
        a[axis, :] *= -1.0
        a[:, axis] *= -1.0
        b = dyn.b.copy()
        b[axis, :] *= -1.0
        intervals = list(mode.invariant.intervals)
        lo, hi = intervals[axis]
        intervals[axis] = (-hi, -lo)
        modes.append(
            Mode(
                mode_id=mode.mode_id,
                dynamics=replace(dyn, a=a, b=b),
                invariant=Invariant(intervals=tuple(intervals)),
            )
        )
    transitions = []
    for tr in model.transitions:
        guard = tr.guard
        if guard.axis == axis:
            guard = Guard(axis=axis, sign=-guard.sign, threshold=-guard.threshold)
        transitions.append(replace(tr, guard=guard))
    return replace(model, modes=tuple(modes), transitions=tuple(transitions))


def _matching_transition(model: HybridAutomaton, transition: Transition) -> Transition:
    for tr in model.transitions_from(transition.source):
        if tr.input_event == transition.input_event:
            return tr
    raise KeyError(f"transition {transition.input_event!r} not found after reflection")


_Mirrors = dict[int, tuple[HybridAutomaton, RegionDecomposition]]


def _rising(
    model: HybridAutomaton,
    regions: RegionDecomposition,
    transition: Transition,
    mirrors: _Mirrors,
) -> tuple[HybridAutomaton, RegionDecomposition, Transition]:
    """The model, regions and transition in which the guard rises.

    A falling guard is solved on the model mirrored on its axis, which
    `mirrors` holds, with its regions, once per axis. The mirror is exact,
    and the region decomposition breaks ties toward the lower face, which
    negation does not preserve, so the mirrored regions are decomposed
    afresh rather than derived by sign algebra.
    """
    guard = transition.guard
    if guard.sign > 0:
        return model, regions, transition
    if guard.axis not in mirrors:
        reflected = _reflect_model(model, guard.axis)
        mirrors[guard.axis] = (reflected, decompose_regions(reflected))
    reflected, reflected_regions = mirrors[guard.axis]
    return reflected, reflected_regions, _matching_transition(reflected, transition)


def _margin(model: HybridAutomaton) -> float:
    """Measurement uncertainty margin theta + 2 v."""
    return model.theta + 2.0 * float(np.max(model.max_v_bounds))


def _epsilon(model: HybridAutomaton, transition: Transition) -> float:
    """`facet_epsilon` of a rising guard, from the one-step guard-axis hull."""
    guard = transition.guard
    lo, hi = model.invariant(transition.source).bounds()
    lo[guard.axis] = hi[guard.axis] = guard.threshold
    return next(guard_axis_hulls(model, transition.source, lo, hi, guard.axis))[1]


def _z_star(
    model: HybridAutomaton, transition: Transition, epsilon: float, margin: float
) -> float:
    """`solve_z_star` of a rising guard whose `facet_epsilon` is epsilon."""
    guard = transition.guard
    c_g = guard.threshold
    if epsilon < c_g:
        raise EmptyGeometryError(
            f"one-step overshoot tops out at {epsilon}, below the guard {c_g}"
        )
    lo, hi = model.invariant(transition.source).bounds()
    lo[guard.axis] = max(lo[guard.axis], c_g)
    hi[guard.axis] = min(hi[guard.axis], epsilon)
    if lo[guard.axis] > hi[guard.axis]:
        raise EmptyGeometryError("overshoot slab misses the source invariant")
    dyn_t = model.dynamics(transition.target)
    return max(0.0, box_max(dyn_t.a[guard.axis], lo, hi) + dyn_t.step_bound + margin - c_g)


def _d_star(
    model: HybridAutomaton,
    regions: RegionDecomposition,
    transition: Transition,
    delta_q: int,
    margin: float,
) -> float:
    """`solve_d_star` of a rising guard."""
    guard = transition.guard
    dyn = model.dynamics(transition.source)
    a_row = np.linalg.matrix_power(dyn.a, delta_q)[guard.axis]
    coefficient = float(a_row[guard.axis])
    if coefficient < 0.0:
        raise NoGuaranteeError(
            f"mode {transition.source!r}, guard {transition.input_event!r} on axis "
            f"{guard.axis}: the horizon-step coefficient A^{delta_q}[{guard.axis}, "
            f"{guard.axis}] = {coefficient!r} is negative, so the band minimum "
            "is not monotone in the offset and bisection cannot find d*"
        )
    sigma = sigma_sum(dyn.a_norm, delta_q, dyn.step_bound)
    inv_lo, inv_hi = model.invariant(transition.source).bounds()
    c_l = regions.neighbor_values[(transition.source, transition.input_event)]
    return _d_star_raw(
        a_row, inv_lo, inv_hi, guard.axis, guard.threshold, c_l, sigma, margin
    )


def facet_epsilon(model: HybridAutomaton, transition: Transition) -> float:
    """Farthest coordinate past the guard one step after it fires.

    Max of the guard-axis coordinate over the one-step reachable set of the
    guard hyperplane clipped to the source invariant.
    """
    guard = transition.guard
    if guard.sign < 0:
        reflected = _reflect_model(model, guard.axis)
        return -_epsilon(reflected, _matching_transition(reflected, transition))
    return _epsilon(model, transition)


def solve_z_star(
    model: HybridAutomaton,
    regions: RegionDecomposition,
    transition: Transition,
) -> float:
    """Least measurement offset past the guard that escapes the invariant.

    Closed form: worst one-step image of the overshoot slab on the guard
    axis, plus one step of input and noise inflation and the measurement
    margin, minus the guard threshold; floored at zero.
    """
    model, _, transition = _rising(model, regions, transition, {})
    return _z_star(model, transition, _epsilon(model, transition), _margin(model))


def _d_star_raw(
    a_row: np.ndarray,
    inv_lo: np.ndarray,
    inv_hi: np.ndarray,
    axis: int,
    c_g: float,
    c_l: float,
    sigma: float,
    margin: float,
) -> float:
    """Least offset d whose measurement band reaches past the neighbor value.

    The band pins the guard axis to [c_g + d - margin, c_g + d + margin];
    an offset whose band misses the invariant entirely proves nothing and
    fails. The band minimum is nondecreasing in d when the guard-axis
    coefficient a_row[axis] is nonnegative, which the caller checks, so the
    least satisfying d is found by bisection.
    """

    def band_min(d: float) -> float | None:
        blo = max(inv_lo[axis], c_g + d - margin)
        bhi = min(inv_hi[axis], c_g + d + margin)
        if blo > bhi:
            return None
        lo = inv_lo.copy()
        hi = inv_hi.copy()
        lo[axis], hi[axis] = blo, bhi
        return _box_min(a_row, lo, hi)

    def holds(d: float) -> bool:
        m = band_min(d)
        return m is not None and m - sigma >= c_l

    d_cap = inv_hi[axis] - c_g + margin  # largest d whose band still meets the invariant
    if not holds(d_cap):
        return math.inf
    if holds(0.0):
        return 0.0
    lo_d, hi_d = 0.0, d_cap
    while hi_d - lo_d > BISECT_TOL:
        mid = (lo_d + hi_d) / 2.0
        if holds(mid):
            hi_d = mid
        else:
            lo_d = mid
    return hi_d


def solve_d_star(
    model: HybridAutomaton,
    regions: RegionDecomposition,
    transition: Transition,
    delta_q: int,
) -> float:
    """Horizon-arm threshold for one guard; +inf when no offset works.

    Raises NoGuaranteeError when the guard-axis coefficient of A^delta_q is
    negative, since the bisection behind d* needs it nonnegative.
    """
    model, regions, transition = _rising(model, regions, transition, {})
    return _d_star(model, regions, transition, delta_q, _margin(model))


def state_guarantees(
    model: HybridAutomaton,
    regions: RegionDecomposition | None = None,
    deltas: Mapping[ModeId, int] | None = None,
) -> dict[ModeId, GuaranteeBound]:
    """Solve both arms for every guard and aggregate per state.

    Each guard gives the values of `solve_z_star`, `solve_d_star` and
    `facet_epsilon`, from one epsilon per guard and one mirrored model per
    falling guard axis.
    """
    if regions is None:
        regions = decompose_regions(model)
    if deltas is None:
        deltas = compute_all_deltas(model, regions)
    out: dict[ModeId, GuaranteeBound] = {}
    margin = _margin(model)
    mirrors: _Mirrors = {}
    for mode_id in model.mode_ids:
        guards = []
        for tr in model.transitions_from(mode_id):
            view, view_regions, view_tr = _rising(model, regions, tr, mirrors)
            epsilon = _epsilon(view, view_tr)
            z = _z_star(view, view_tr, epsilon, margin)
            d = (
                _d_star(view, view_regions, view_tr, deltas[mode_id], margin)
                if deltas[mode_id] > 0
                else math.inf
            )
            guards.append(
                GuardGuarantee(
                    input_event=tr.input_event,
                    z_star=z,
                    d_star=d,
                    epsilon=epsilon if tr.guard.sign > 0 else -epsilon,
                )
            )
        z_arm = max((g.z_star for g in guards), default=None)
        d_values = [g.d_star for g in guards]
        d_arm = max(d_values) if d_values and all(math.isfinite(d) for d in d_values) else None
        threshold = None
        arms = [a for a in (z_arm, d_arm) if a is not None]
        if arms:
            threshold = max(arms) + margin
        out[mode_id] = GuaranteeBound(
            mode_id=mode_id,
            guards=tuple(guards),
            z_star=z_arm,
            d_star=d_arm,
            threshold=threshold,
        )
    return out


def detection_threshold(
    model: HybridAutomaton,
    mode_id: ModeId,
    regions: RegionDecomposition | None = None,
    deltas: Mapping[ModeId, int] | None = None,
) -> float:
    """Sensor offset above which detection is guaranteed at this state's exit.

    While the settled estimate stays within theta of the attacked
    trajectory, a larger offset on the guard axis puts the whole
    measurement box past the guard's one-step overshoot slab, or short of
    the guard, when the exit event fires, so the detector raises conflict
    C on that sample.
    """
    bound = state_guarantees(model, regions, deltas)[mode_id]
    if bound.threshold is None:
        raise NoGuaranteeError(f"state {mode_id!r}: no threshold arm is available")
    return bound.threshold


@dataclass(frozen=True)
class FdiaClassification:
    """Whether a sensor selection admits a residual-stealthy injection."""

    feasible: bool
    indeterminate: bool
    eigenvalue: complex | None
    eigenvector: tuple[float, ...] | None
    reason: str


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
