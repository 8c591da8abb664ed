"""Vertex-enumeration reference for box maxima, used by the tests.

It visits every corner of the box, without the closed form the package
uses, so the two decide independently.
"""

import math

import numpy as np

MAX_AXES = 10  # 2**10 corners


def oracle_box_optimum(a, box) -> float:
    """Max of a.x over a box by brute-force vertex enumeration."""
    a = np.asarray(a, dtype=float)
    if len(box) != a.size:
        raise ValueError("vector and box dimensions differ")
    if a.size > MAX_AXES:
        raise ValueError(f"{a.size} axes means {2**a.size} vertices; capped at {MAX_AXES}")
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
