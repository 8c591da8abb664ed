"""Zonotope reachable sets, the reference the horizon analyses are tested against.

A zonotope is a center plus generator segments; the set is
{c + sum_i b_i g_i : b_i in [-1, 1]}. The reach set after d steps is
A^d Z plus an infinity-ball of radius sigma_d, both read from the
package's `reach_operator`, so generators never accumulate with the
horizon. Zonotope-box intersection is decided by separating axes, the
facet normals of their Minkowski difference (Girard, HSCC 2005; Guibas et
al., SODA 2003), with the coordinate axes among the directions so that one
rule covers flat differences too.

The package decides conflict C from the separating-axis tables of its
detector and the horizons from `guard_axis_hulls`, and builds no zonotope;
the tests check both against the sets built here explicitly.
"""

from dataclasses import dataclass

import numpy as np

from hybridmon.reachability import MAX_NORMAL_SUBSETS, reach_operator, separating_normals


@dataclass(frozen=True)
class Zonotope:
    """Center (n,) and generators as rows of a (p, n) array."""

    center: np.ndarray
    generators: np.ndarray

    def __post_init__(self):
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
    def dim(self):
        return self.center.size

    def interval_hull(self):
        """Per-axis [lo, hi] of the tightest axis-aligned bounding box."""
        radius = np.sum(np.abs(self.generators), axis=0)
        return self.center - radius, self.center + radius

    def is_axis_aligned(self):
        """Every generator has at most one nonzero coordinate."""
        return bool(np.all(np.count_nonzero(self.generators, axis=1) <= 1))


def box_zonotope(lo, hi):
    """Axis-aligned zonotope for the box [lo, hi]; zero-width axes get no generator."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if np.any(lo > hi):
        raise ValueError("box has lo > hi")
    center = (lo + hi) / 2.0
    half = (hi - lo) / 2.0
    return Zonotope(center=center, generators=np.diag(half)[half > 0.0])


def linear_map(matrix, z):
    """Exact image of the zonotope under a linear map."""
    matrix = np.asarray(matrix, dtype=float)
    return Zonotope(center=matrix @ z.center, generators=z.generators @ matrix.T)


def inflate(z, sigma):
    """Minkowski sum with the infinity-ball of radius sigma."""
    if sigma < 0:
        raise ValueError("inflation radius must be nonnegative")
    if sigma == 0.0:
        return z
    extra = sigma * np.eye(z.dim)
    return Zonotope(center=z.center, generators=np.vstack([z.generators, extra]))


def reach(model, mode_id, z, delta):
    """Forward reachable set over-approximation after delta steps in one mode."""
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if delta == 0:
        return z
    a_power, sigma = reach_operator(model, mode_id, delta)
    return inflate(linear_map(a_power, z), sigma)


def intersects_box(z, box):
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
