"""Horizon operators: forward reach sets of boxes and the per-mode horizon search.

The reach set of a set Z after d steps in one mode is A^d Z plus an
infinity-ball whose radius sigma_d is the geometric sum of the per-step
input and noise bound; `reach_operator` gives (A^d, sigma_d), and every
reach-set bound reads it from there. The horizon search and the one-step
overshoot read only the guard axis of a box's reach hull, which
`guard_axis_hulls` takes straight from one A^d: the midpoint
(A^d c)[axis] plus or minus the sum of |half_i A^d[axis, i]| over the
box's wide axes in order, then sigma. `separating_normals` gives the
directions the detector decides conflict C along (Girard, HSCC 2005;
Guibas et al., SODA 2003). numpy is the only dependency.

The analyses and the monitor build no zonotope. The zonotope algebra they
are tested against, with its own reach sets and box intersection, is the
tests' reference in `tests/zonotope_reference.py`.
"""

from __future__ import annotations

from itertools import combinations, count
from math import comb, isfinite
from typing import Iterator

import numpy as np

from .model import GEOM_TOL, HybridAutomaton, ModeId, RegionDecomposition, Transition

NORM_ONE_TOL = 1e-12  # treat the matrix norm as exactly one inside this slack
MAX_DELTA = 10_000
MAX_NORMAL_SUBSETS = 4096  # past this many, `separating_normals` gives None and `Detector` refuses


class HorizonError(RuntimeError):
    """A mode's horizon cannot be searched or checked: no contact with the
    neighbor hyperplane within MAX_DELTA steps, a guard-axis reach hull that
    is not finite, or no exact separating-axis table for the detector, whose
    reach set less the invariant can be flat or needs more than
    MAX_NORMAL_SUBSETS normal subsets."""


def sigma_sum(a_norm: float, steps: int, per_step: float) -> float:
    """Geometric sum of per-step inflation over the horizon.

    (1 - a_norm^steps) / (1 - a_norm) * per_step, with the analytic limit
    steps * per_step when the norm is one; zero when per_step is, so a_norm^steps cannot overflow.
    """
    if steps <= 0 or per_step == 0.0:
        return 0.0
    if abs(a_norm - 1.0) <= NORM_ONE_TOL:
        return steps * per_step
    return (1.0 - a_norm**steps) / (1.0 - a_norm) * per_step


def reach_operator(
    model: HybridAutomaton, mode_id: ModeId, steps: int
) -> tuple[np.ndarray, float]:
    """A^steps and sigma_steps of a mode: the reach set of Z after `steps`
    steps is A^steps Z plus the infinity-ball of radius sigma_steps."""
    mode = model.mode(mode_id)
    sigma = sigma_sum(mode.a_norm, steps, model.step_bounds[mode_id])
    return np.linalg.matrix_power(mode.a, steps), sigma


def guard_axis_hulls(
    model: HybridAutomaton, mode_id: ModeId, lo: np.ndarray, hi: np.ndarray, axis: int
) -> Iterator[tuple[float, float]]:
    """For d = 1, 2, ...: the guard-axis bounds of the d-step reach hull of the box [lo, hi].

    These have the bits of the interval hull of the explicit zonotope reach
    set, the tests' reference in `tests/zonotope_reference.py`: an entry of
    a mapped box generator is one exact product (FMA or not), the hull adds
    generator rows left to right with sigma's row last, and zero entries,
    like a zero sigma that is left out, change no sum of |entries|.
    Raises HorizonError at the first step whose bounds are not finite.
    """
    if np.any(lo > hi):
        raise ValueError("box has lo > hi")
    center, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    wide = np.flatnonzero(half > 0.0)
    for d in count(1):
        power, sigma = reach_operator(model, mode_id, d)
        radius = 0.0
        for h, entry in zip(half[wide].tolist(), power[axis, wide].tolist()):
            radius += abs(h * entry)
        radius += sigma
        mid = float((power @ center)[axis])
        bounds = (mid - radius, mid + radius)
        if not (isfinite(bounds[0]) and isfinite(bounds[1])):
            raise HorizonError(
                f"mode {mode_id!r}, axis {axis}: the reach hull at step {d} is "
                f"[{bounds[0]}, {bounds[1]}], which is not finite"
            )
        yield bounds


def _cross_products(stacks: np.ndarray) -> np.ndarray:
    """Generalized cross products of a stack (m, n-1, n): the n signed cofactors of each.

    Each minor is a determinant by cofactor expansion along its first row,
    products and sums only, so small dyadic entries give exact results (LU
    does not). The minor on the last s rows and a column set C recurs across
    the cofactors, so each is computed once, bottom-up over s, into a table
    keyed by C: 2^n - 1 minors instead of n! products per cofactor.
    """
    n = stacks.shape[-1]
    minors = {(): np.ones(len(stacks))}
    for size in range(1, n):
        row = stacks[:, n - 1 - size]
        for cols in combinations(range(n), size):
            minors[cols] = sum(
                (-1.0) ** j * row[:, c] * minors[cols[:j] + cols[j + 1 :]]
                for j, c in enumerate(cols)
            )
    return np.stack(
        [(-1.0) ** k * minors[tuple(c for c in range(n) if c != k)] for k in range(n)], axis=-1
    )


def separating_normals(directions: np.ndarray) -> np.ndarray | None:
    """Facet-normal candidates of a zonotope whose generators lie along
    `directions` and the coordinate axes.

    Rows of the result are the generalized cross products of every
    (n-1)-subset of the nonzero (p, n) rows followed by the n axes, with
    zero vectors and +/- duplicates dropped: perpendiculars in 2-D, pairwise
    cross products in 3-D. The axes span the space, so a zonotope along
    these rows plus a small cube is full-dimensional, and its facet normals
    are among the result whatever the cube's size. Two convex sets whose
    Minkowski difference is a zonotope along `directions` are therefore
    disjoint exactly when one of these directions separates their
    projections, flat or not. `_cross_products` reads each subset's n
    cofactors from one table of minors shared by all of them. Returns None
    when there are more than MAX_NORMAL_SUBSETS subsets.
    """
    directions = np.asarray(directions, dtype=float)
    n = directions.shape[1]
    directions = np.vstack([directions[np.any(directions != 0.0, axis=1)], np.eye(n)])
    if comb(len(directions), n - 1) > MAX_NORMAL_SUBSETS:
        return None
    if n == 1:
        return np.ones((1, 1))
    normals = _cross_products(directions[list(combinations(range(len(directions)), n - 1))])
    normals = normals[np.any(normals != 0.0, axis=1)]
    # scale by a power of two, which is exact, to a largest entry in [0.5, 1)
    largest = np.max(np.abs(normals), axis=1)
    normals = np.ldexp(normals, -np.frexp(largest)[1][:, None])
    lead = normals[np.arange(len(normals)), np.argmax(np.abs(normals), axis=1)]
    key = np.round(normals / lead[:, None], 12)
    _, first = np.unique(key, axis=0, return_index=True)
    return normals[np.sort(first)]


def _facet_box(
    model: HybridAutomaton, transition: Transition
) -> tuple[np.ndarray, np.ndarray]:
    """Box of continuous states possible at the instant a transition fires.

    The guard hyperplane pins the guard axis to the threshold; the other
    axes are clipped to both the source and target invariants, since the
    state must be admissible in the source when the guard fires and in the
    target one step later. If that clip is empty the source invariant alone
    is used.
    """
    inv_s = model.invariant(transition.source)
    inv_t = model.invariant(transition.target)
    lo_s, hi_s = inv_s.bounds()
    lo_t, hi_t = inv_t.bounds()
    lo = np.maximum(lo_s, lo_t)
    hi = np.minimum(hi_s, hi_t)
    if np.any(lo > hi):
        lo, hi = lo_s, hi_s
    axis = transition.guard.axis
    lo[axis] = hi[axis] = transition.guard.threshold
    return lo, hi


def compute_delta(
    model: HybridAutomaton,
    regions: RegionDecomposition,
    mode_id: ModeId,
) -> tuple[int, dict[tuple[ModeId, str], int]]:
    """Per-mode reachability horizon and the per-guard horizons behind it.

    For each outgoing guard, the horizon is the least delta such that the
    (delta + 1)-step reachable set from the guard facet touches the neighbor
    hyperplane value on the guard axis (interval-hull contact). A guard
    sitting on the invariant face gives zero immediately. The mode's horizon
    is the minimum over its guards; a mode with no outgoing guard gets zero,
    since no transition constrains how long the estimate may linger. Each
    candidate reads that hull's guard axis straight from `guard_axis_hulls`.
    """
    per_guard: dict[tuple[ModeId, str], int] = {}
    for tr in model.transitions_from(mode_id):
        key = (tr.source, tr.input_event)
        c_l = regions.neighbor_values[key]
        c_g = tr.guard.threshold
        if abs(c_l - c_g) <= GEOM_TOL:
            per_guard[key] = 0
            continue
        hulls = guard_axis_hulls(model, mode_id, *_facet_box(model, tr), tr.guard.axis)
        found: int | None = None
        for delta, (hull_lo, hull_hi) in zip(range(MAX_DELTA + 1), hulls):
            if hull_lo <= c_l <= hull_hi:
                found = delta
                break
        if found is None:
            raise HorizonError(
                f"mode {mode_id!r}, guard at {c_g} on axis {tr.guard.axis}: no "
                f"contact with neighbor value {c_l} within {MAX_DELTA} steps"
            )
        per_guard[key] = found
    delta_q = min(per_guard.values()) if per_guard else 0
    return delta_q, per_guard


def compute_all_deltas(
    model: HybridAutomaton, regions: RegionDecomposition
) -> dict[ModeId, int]:
    """Horizon table for every mode."""
    return {mode_id: compute_delta(model, regions, mode_id)[0] for mode_id in model.mode_ids}
