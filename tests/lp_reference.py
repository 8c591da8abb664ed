"""Linear-program reference for zonotope-box intersection, used by the tests.

It solves the question from the generator coefficients directly, without
the separating axes the package uses, so the two decide independently.
"""

import numpy as np
from scipy.optimize import linprog


def box_distance(z, box) -> float:
    """Least t such that z meets the box grown by t on every side.

    Solves min t over (b, t) with lo - t <= c + G'b <= hi + t and b in
    [-1, 1]^p. The sets meet exactly when t <= 0; a negative t is the depth
    of the overlap.
    """
    lo = np.array([l for l, _ in box], dtype=float)
    hi = np.array([h for _, h in box], dtype=float)
    g = z.generators.T
    n, p = g.shape
    ones = np.ones((n, 1))
    result = linprog(
        c=np.r_[np.zeros(p), 1.0],
        A_ub=np.block([[g, -ones], [-g, -ones]]),
        b_ub=np.concatenate([hi - z.center, z.center - lo]),
        bounds=[(-1.0, 1.0)] * p + [(None, None)],
        method="highs",
    )
    assert result.status == 0, result.message
    return float(result.fun)


def touching_box(z, direction, widths) -> list[tuple[float, float]]:
    """A box that meets z only on the face where direction . x is largest.

    The box has a corner at z's maximizer of direction . x and extends away
    from z along every axis the direction has weight on, so the two sets
    touch without overlapping. On small dyadic inputs every step is exact.
    """
    direction = np.asarray(direction, dtype=float)
    widths = np.asarray(widths, dtype=float)
    corner = z.center + np.sign(z.generators @ direction) @ z.generators
    lo = np.where(direction > 0, corner, corner - widths)
    hi = np.where(direction < 0, corner, corner + widths)
    return list(zip(lo.tolist(), hi.tolist()))


def corner_box(z, signs, depths, widths) -> list[tuple[float, float]]:
    """A box at a corner of z's interval hull, reaching into the hull.

    On each axis the box's inner face lies `depth` hull widths inside the
    hull, on the side `sign` picks, and the box extends `width` outwards.
    Most such boxes meet the hull; whether they meet z itself turns on z's
    slanted faces, which the hull cannot see.
    """
    lo, hi = z.interval_hull()
    signs = np.asarray(signs)
    inner = np.where(signs > 0, hi - depths * (hi - lo), lo + depths * (hi - lo))
    box_lo = np.where(signs > 0, inner, inner - widths)
    box_hi = np.where(signs > 0, inner + widths, inner)
    return list(zip(box_lo.tolist(), box_hi.tolist()))
