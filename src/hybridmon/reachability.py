"""Zonotope algebra, forward reachable sets, and the per-mode horizon search.

A zonotope is a center plus generator segments; the set is
{c + sum_i b_i g_i : b_i in [-1, 1]}. Reachable sets use the closed form
A^d Z plus an infinity-ball whose radius is the geometric sum of the
per-step input and noise bound, so generators never accumulate with the
horizon. Zonotope-box intersection is decided by separating axes, the
facet normals of their Minkowski difference (Girard, HSCC 2005; Guibas et
al., SODA 2003), with the coordinate axes among the directions so that one
rule covers flat differences too. numpy is the only dependency.

The horizon search and the one-step overshoot read only the guard axis of a
box's reach hull. `guard_axis_hulls` takes it straight from one A^d: the
midpoint (A^d c)[axis] plus or minus the sum of |half_i A^d[axis, i]| over
the box's wide axes in order, then sigma. That has the bits of `reach`: an
entry of a mapped box generator is one exact product (FMA or not), the hull
adds generator rows left to right with sigma's row last, and zero entries,
like a zero sigma that `inflate` leaves out, change no sum of |entries|.
Every reach-set bound reads its (A^d, sigma_d) from `reach_operator`; the
analyses and the monitor build no zonotope.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, count
from math import comb, isfinite
from typing import Iterator, Sequence

import numpy as np

from .model import GEOM_TOL, HybridAutomaton, LtiDynamics, ModeId, RegionDecomposition, Transition

NORM_ONE_TOL = 1e-12  # treat the matrix norm as exactly one inside this slack
MAX_DELTA = 10_000
MAX_NORMAL_SUBSETS = 4096  # past this many subsets `intersects_box` and `Detector` refuse


class HorizonError(RuntimeError):
    """A mode's horizon cannot be searched or checked: no contact with the
    neighbor hyperplane within MAX_DELTA steps, a guard-axis reach hull that
    is not finite, or no exact separating-axis table for the detector, whose
    reach set less the invariant can be flat or needs more than
    MAX_NORMAL_SUBSETS normal subsets."""


@dataclass(frozen=True)
class Zonotope:
    """Center (n,) and generators as rows of a (p, n) array."""

    center: np.ndarray
    generators: np.ndarray

    def __post_init__(self) -> None:
        center = np.array(self.center, dtype=float).reshape(-1)
        generators = np.array(self.generators, dtype=float)
        if generators.size == 0:
            generators = np.zeros((0, center.size))
        generators = np.atleast_2d(generators)
        if generators.shape[1] != center.size:
            raise ValueError(
                f"generator dimension {generators.shape[1]} != center dimension {center.size}"
            )
        center.flags.writeable = False
        generators.flags.writeable = False
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "generators", generators)

    @property
    def dim(self) -> int:
        return self.center.size

    @property
    def order(self) -> int:
        return self.generators.shape[0]

    def interval_hull(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-axis [lo, hi] of the tightest axis-aligned bounding box."""
        radius = np.sum(np.abs(self.generators), axis=0)
        return self.center - radius, self.center + radius

    def is_axis_aligned(self) -> bool:
        """Every generator has at most one nonzero coordinate."""
        return bool(np.all(np.count_nonzero(self.generators, axis=1) <= 1))

    def support(self, direction: np.ndarray) -> tuple[float, float]:
        """Min and max of direction . x over the zonotope."""
        mid = float(direction @ self.center)
        radius = float(np.sum(np.abs(self.generators @ direction)))
        return mid - radius, mid + radius


def box_zonotope(lo: Sequence[float], hi: Sequence[float]) -> Zonotope:
    """Axis-aligned zonotope for the box [lo, hi]; zero-width axes get no generator."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if np.any(lo > hi):
        raise ValueError("box has lo > hi")
    center = (lo + hi) / 2.0
    half = (hi - lo) / 2.0
    return Zonotope(center=center, generators=np.diag(half)[half > 0.0])


def linear_map(matrix: np.ndarray, z: Zonotope) -> Zonotope:
    """Exact image of the zonotope under a linear map."""
    matrix = np.asarray(matrix, dtype=float)
    return Zonotope(center=matrix @ z.center, generators=z.generators @ matrix.T)


def inflate(z: Zonotope, sigma: float) -> Zonotope:
    """Minkowski sum with the infinity-ball of radius sigma."""
    if sigma < 0:
        raise ValueError("inflation radius must be nonnegative")
    if sigma == 0.0:
        return z
    extra = sigma * np.eye(z.dim)
    return Zonotope(center=z.center, generators=np.vstack([z.generators, extra]))


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


def reach_operator(dyn: LtiDynamics, steps: int) -> tuple[np.ndarray, float]:
    """A^steps and sigma_steps: the reach set of Z after `steps` steps is
    A^steps Z plus the infinity-ball of radius sigma_steps."""
    return np.linalg.matrix_power(dyn.a, steps), sigma_sum(dyn.a_norm, steps, dyn.step_bound)


def reach(model: HybridAutomaton, mode_id: ModeId, z: Zonotope, delta: int) -> Zonotope:
    """Forward reachable set over-approximation after delta steps in one mode."""
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if delta == 0:
        return z
    a_power, sigma = reach_operator(model.dynamics(mode_id), delta)
    return inflate(linear_map(a_power, z), sigma)


def guard_axis_hulls(
    model: HybridAutomaton, mode_id: ModeId, lo: np.ndarray, hi: np.ndarray, axis: int
) -> Iterator[tuple[float, float]]:
    """For d = 1, 2, ...: the axis entries of `reach(..., box_zonotope(lo, hi), d).interval_hull()`.

    Raises HorizonError at the first step whose bounds are not finite.
    """
    if np.any(lo > hi):
        raise ValueError("box has lo > hi")
    dyn = model.dynamics(mode_id)
    center, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    wide = np.flatnonzero(half > 0.0)
    for d in count(1):
        power, sigma = reach_operator(dyn, d)
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


def _det(m: np.ndarray) -> np.ndarray:
    """Determinants of a stack (..., k, k) by cofactor expansion along the first row.

    Products and sums only, so small dyadic entries give exact results
    (LU does not); the stacks here are at most a few rows wide.
    """
    k = m.shape[-1]
    if k == 0:
        return np.ones(m.shape[:-2])
    return sum(
        (-1.0) ** j * m[..., 0, j] * _det(np.delete(m[..., 1:, :], j, axis=-1))
        for j in range(k)
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
    projections, flat or not. Returns None when there are more than
    MAX_NORMAL_SUBSETS subsets.
    """
    directions = np.asarray(directions, dtype=float)
    n = directions.shape[1]
    directions = np.vstack([directions[np.any(directions != 0.0, axis=1)], np.eye(n)])
    if comb(len(directions), n - 1) > MAX_NORMAL_SUBSETS:
        return None
    if n == 1:
        return np.ones((1, 1))
    subsets = directions[list(combinations(range(len(directions)), n - 1))]
    normals = np.stack(
        [(-1.0) ** k * _det(np.delete(subsets, k, axis=-1)) for k in range(n)], axis=-1
    )
    normals = normals[np.any(normals != 0.0, axis=1)]
    # scale by a power of two, which is exact, to a largest entry in [0.5, 1)
    largest = np.max(np.abs(normals), axis=1)
    normals = np.ldexp(normals, -np.frexp(largest)[1][:, None])
    lead = normals[np.arange(len(normals)), np.argmax(np.abs(normals), axis=1)]
    key = np.round(normals / lead[:, None], 12)
    _, first = np.unique(key, axis=0, return_index=True)
    return normals[np.sort(first)]


def intersects_box(z: Zonotope, box: Sequence[tuple[float, float]]) -> bool:
    """Emptiness decision for a zonotope against an axis-aligned box.

    Boundary contact counts as intersection. Fast paths: disjoint interval
    hulls (always correct as a negative) and axis-aligned zonotopes (the
    hull is the set). Otherwise the sets meet exactly when no direction of
    `separating_normals` over the zonotope's generators separates their
    projections: Z + (-box) lies along those generators and the axes. The
    rule is exact in exact arithmetic, flat differences included; where the
    difference is flat every common point is on its boundary, so a contact
    there, such as a point computed onto a segment, turns on rounding.
    Generators along one axis add no normal and are left out. Raises
    ValueError when the check needs more than MAX_NORMAL_SUBSETS subsets.
    """
    box = tuple((float(lo), float(hi)) for lo, hi in box)
    if len(box) != z.dim:
        raise ValueError("box dimension does not match zonotope dimension")
    lo, hi = z.interval_hull()
    box_lo = np.array([blo for blo, _ in box])
    box_hi = np.array([bhi for _, bhi in box])
    if np.any(hi < box_lo) or np.any(lo > box_hi):
        return False
    if z.is_axis_aligned():
        return True  # hull overlap is exact for interval sets
    slanted = z.generators[np.count_nonzero(z.generators, axis=1) > 1]
    normals = separating_normals(slanted)
    if normals is None:
        raise ValueError(
            f"{z.dim}-D zonotope: the separating-axis check over {len(slanted) + z.dim} "
            f"directions needs more than MAX_NORMAL_SUBSETS = {MAX_NORMAL_SUBSETS} normal subsets"
        )
    gap = np.abs(normals @ z.center - normals @ ((box_lo + box_hi) / 2.0))
    room = np.sum(np.abs(z.generators @ normals.T), axis=0)
    room += np.abs(normals) @ ((box_hi - box_lo) / 2.0)
    return not bool(np.any(gap > room))


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
