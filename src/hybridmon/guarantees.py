"""Guaranteed-detection thresholds for each guard and state.

`state_guarantees` is the one entry: it solves every guard of the model and
aggregates per state, and `detection_threshold` reads one state's number
off it. Two arms per guard: the measurement arm z* (least offset past the
guard that pushes every consistent measurement outside the invariant one
step after the switch) and the horizon arm d* (least offset that drives the
whole horizon-step reachable band past the neighbor hyperplane). The
per-state detection threshold is the larger available arm plus the
measurement uncertainty margin. All inner optimizations are over boxes,
so maxima and minima are closed-form; a vertex-enumeration oracle
cross-checks the closed form in tests. The band minimum behind d* is
piecewise linear in the offset, so d* is one division, rounded up, not a
search. A falling guard is solved in its own sign on the model as given:
its overshoot is the low end of the one-step guard-axis hull, and its arms
read the guard axis negated, which is the model mirrored on that axis.
The neighbor face's tie rule (`model.neighbor_value`) picks mirrored faces
in a model and its mirror, so both give the same thresholds.
`classify_fdia` asks the static question the residual monitor leaves
open: whether an attack on a set of sensors can stay invisible to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .model import HybridAutomaton, ModeId, RegionDecomposition, Transition, decompose_regions
from .reachability import compute_all_deltas, guard_axis_hulls, reach_operator

class EmptyGeometryError(RuntimeError):
    """The one-step overshoot slab does not reach past the guard."""


class NoGuaranteeError(RuntimeError):
    """Neither threshold arm is available for the state."""


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


def _margin(model: HybridAutomaton) -> float:
    """Measurement uncertainty margin theta + 2 v."""
    return model.theta + 2.0 * float(np.max(model.max_v_bounds))


def _z_star(
    model: HybridAutomaton, transition: Transition, epsilon: float, margin: float
) -> float:
    """Least measurement offset past the guard that escapes the invariant.

    epsilon is the guard's `facet_epsilon`. Closed form: worst one-step image
    of the overshoot slab on the guard axis, plus one step of input and noise
    inflation and the measurement margin, minus the guard threshold; floored
    at zero. A falling guard reads each term with the guard axis negated.
    """
    guard = transition.guard
    axis, sign, c_g = guard.axis, guard.sign, guard.threshold
    if sign * epsilon < sign * c_g:
        tops, below = ("tops", "below") if sign > 0 else ("bottoms", "above")
        raise EmptyGeometryError(
            f"one-step overshoot {tops} out at {epsilon}, {below} the guard {c_g}"
        )
    lo, hi = model.invariant(transition.source).bounds()
    slab_lo, slab_hi = (c_g, epsilon) if sign > 0 else (epsilon, c_g)
    lo[axis] = max(lo[axis], slab_lo)
    hi[axis] = min(hi[axis], slab_hi)
    if lo[axis] > hi[axis]:
        raise EmptyGeometryError("overshoot slab misses the source invariant")
    dyn_t = model.dynamics(transition.target)
    return max(
        0.0, box_max(sign * dyn_t.a[axis], lo, hi) + dyn_t.step_bound + margin - sign * c_g
    )


def _d_star(
    model: HybridAutomaton,
    regions: RegionDecomposition,
    transition: Transition,
    delta_q: int,
    margin: float,
) -> float:
    """Horizon-arm threshold for one guard; +inf when the arm is unavailable.

    d* is the least offset d whose band, the guard axis pinned to
    [c_g + d - margin, c_g + d + margin] within the invariant, has every
    delta_q-step image at least sigma past the neighbor value c_l. View the
    guard as rising: a falling one is read on its guard axis negated, which
    negates the off-diagonal entries of the guard-axis row of A^delta_q, the
    invariant's guard-axis interval, the guard and the neighbor value. With
    a the guard-axis entry of that row and rest the box minimum of the row's
    other entries over the invariant, the band minimum is
    rest + a * max(inv_lo, c_g + d - margin). So with need = c_l + sigma - rest,
    d* is the first offset whose band meets the invariant when
    a * inv_lo >= need, +inf when a * inv_hi < need, and need / a - c_g + margin
    otherwise, floored at 0. That last value is rounded up by eight units of
    roundoff on its terms, since c_g + d - margin cancels, so that the band
    at d* clears in floats too.

    The arm is also unavailable when a < 0: the band minimum then falls as
    the offset grows, so an offset that clears says nothing of larger ones,
    and the z* arm alone decides.
    """
    guard = transition.guard
    axis, sign = guard.axis, guard.sign
    a_power, sigma = reach_operator(model.dynamics(transition.source), delta_q)
    a = float(a_power[axis, axis])
    if a < 0.0:
        return math.inf
    inv_lo, inv_hi = model.invariant(transition.source).bounds()
    if sign < 0:
        inv_lo[axis], inv_hi[axis] = -inv_hi[axis], -inv_lo[axis]
    rest_row = sign * a_power[axis]
    rest_row[axis] = 0.0
    c_g = sign * guard.threshold
    c_l = sign * regions.neighbor_values[(transition.source, transition.input_event)]
    need = c_l + sigma - _box_min(rest_row, inv_lo, inv_hi)
    if a * inv_hi[axis] < need:
        return math.inf
    if a * inv_lo[axis] >= need:
        return max(0.0, inv_lo[axis] - c_g - margin)
    d = need / a - c_g + margin
    return max(0.0, d + 8.0 * math.ulp(1.0) * (abs(need / a) + abs(c_g) + margin))


def facet_epsilon(model: HybridAutomaton, transition: Transition) -> float:
    """Farthest coordinate past the guard one step after it fires.

    The guard-axis extreme, in the guard's direction (the max when it
    rises, the min when it falls), of the one-step reachable set of the
    guard hyperplane clipped to the source invariant.
    """
    guard = transition.guard
    lo, hi = model.invariant(transition.source).bounds()
    lo[guard.axis] = hi[guard.axis] = guard.threshold
    hull = next(guard_axis_hulls(model, transition.source, lo, hi, guard.axis))
    return hull[1] if guard.sign > 0 else hull[0]


def state_guarantees(
    model: HybridAutomaton,
    regions: RegionDecomposition | None = None,
    deltas: Mapping[ModeId, int] | None = None,
) -> dict[ModeId, GuaranteeBound]:
    """Solve both arms for every guard and aggregate per state.

    Each guard gives its z* (`_z_star`), d* (`_d_star`) and `facet_epsilon`,
    from one epsilon per guard. regions and deltas default to the model's
    own, decomposed and searched here.
    """
    if regions is None:
        regions = decompose_regions(model)
    if deltas is None:
        deltas = compute_all_deltas(model, regions)
    out: dict[ModeId, GuaranteeBound] = {}
    margin = _margin(model)
    for mode_id in model.mode_ids:
        guards = []
        for tr in model.transitions_from(mode_id):
            epsilon = facet_epsilon(model, tr)
            d = (
                _d_star(model, regions, tr, deltas[mode_id], margin)
                if deltas[mode_id] > 0
                else math.inf
            )
            guards.append(
                GuardGuarantee(
                    input_event=tr.input_event,
                    z_star=_z_star(model, tr, epsilon, margin),
                    d_star=d,
                    epsilon=epsilon,
                )
            )
        z_arm = max((g.z_star for g in guards), default=None)
        d_values = [g.d_star for g in guards]
        d_arm = max(d_values) if d_values and all(math.isfinite(d) for d in d_values) else None
        arms = [a for a in (z_arm, d_arm) if a is not None]
        out[mode_id] = GuaranteeBound(
            mode_id=mode_id,
            guards=tuple(guards),
            z_star=z_arm,
            d_star=d_arm,
            threshold=max(arms) + margin if arms else None,
        )
    return out


def detection_threshold(model: HybridAutomaton, mode_id: ModeId) -> float:
    """Sensor offset above which detection is guaranteed at this state's exit.

    While the settled estimate stays within theta of the attacked
    trajectory, a larger offset on the guard axis puts the whole
    measurement box past the guard's one-step overshoot slab, or short of
    the guard, when the exit event fires, so the detector raises conflict
    C on that sample.
    """
    bound = state_guarantees(model)[mode_id]
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
