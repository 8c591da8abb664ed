"""Zonotope-based reference of the static analyses, used by the tests.

It keeps the horizon search, the one-step overshoot and the Riccati loop
as they were before the analyses read the guard-axis hull straight from
A^d: every candidate horizon builds the facet box as a zonotope, maps and
inflates it with `reach` and takes its whole interval hull, and the Riccati
loop transposes A on every step and reduces with numpy's functions. The
package must give the same horizons, overshoots, gains, covariances,
iteration counts and final increments, bit for bit.
"""

import numpy as np

from hybridmon.guarantees import _matching_transition, _reflect_model
from hybridmon.kalman import (
    RICCATI_MAX_ITER,
    RICCATI_TOL,
    GainInstabilityError,
    KalmanGain,
    RiccatiError,
)
from hybridmon.model import GEOM_TOL
from hybridmon.reachability import MAX_DELTA, HorizonError, _facet_box, box_zonotope, reach


def compute_delta(model, regions, mode_id, max_delta=MAX_DELTA):
    """Per-mode horizon and per-guard horizons, one zonotope per candidate."""
    per_guard = {}
    for tr in model.transitions_from(mode_id):
        key = (tr.source, tr.input_event)
        c_l = regions.neighbor_values[key]
        c_g = tr.guard.threshold
        if abs(c_l - c_g) <= GEOM_TOL:
            per_guard[key] = 0
            continue
        lo, hi = _facet_box(model, tr)
        facet = box_zonotope(lo, hi)
        found = None
        for delta in range(max_delta + 1):
            hull_lo, hull_hi = reach(model, mode_id, facet, delta + 1).interval_hull()
            if hull_lo[tr.guard.axis] <= c_l <= hull_hi[tr.guard.axis]:
                found = delta
                break
        if found is None:
            raise HorizonError(
                f"mode {mode_id!r}, guard at {c_g} on axis {tr.guard.axis}: no "
                f"contact with neighbor value {c_l} within {max_delta} steps"
            )
        per_guard[key] = found
    delta_q = min(per_guard.values()) if per_guard else 0
    return delta_q, per_guard


def compute_all_deltas(model, regions, max_delta=MAX_DELTA):
    return {
        mode_id: compute_delta(model, regions, mode_id, max_delta=max_delta)[0]
        for mode_id in model.mode_ids
    }


def epsilon(model, transition):
    """`facet_epsilon` of a rising guard, from the one-step reach set's hull."""
    guard = transition.guard
    lo, hi = model.invariant(transition.source).bounds()
    lo[guard.axis] = hi[guard.axis] = guard.threshold
    hull_lo, hull_hi = reach(
        model, transition.source, box_zonotope(lo, hi), 1
    ).interval_hull()
    return float(hull_hi[guard.axis])


def facet_epsilon(model, transition):
    guard = transition.guard
    if guard.sign < 0:
        reflected = _reflect_model(model, guard.axis)
        return -epsilon(reflected, _matching_transition(reflected, transition))
    return epsilon(model, transition)


def solve_riccati(mode_id, dyn, tol=RICCATI_TOL, max_iter=RICCATI_MAX_ITER):
    """Riccati fixed point and gain of one dynamics; errors name mode_id."""
    n = dyn.dim
    q_cov = np.diag((dyn.w_bounds / 3.0) ** 2)
    r_cov = np.diag((dyn.v_bounds / 3.0) ** 2)
    p = q_cov.copy()
    increment = np.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        k = p @ np.linalg.inv(p + r_cov)
        p_next = dyn.a @ (p - k @ p) @ dyn.a.T + q_cov
        increment = float(np.max(np.abs(p_next - p)))
        p = p_next
        if increment < tol:
            break
    else:
        raise RiccatiError(
            f"mode {mode_id!r}: Riccati iteration did not converge "
            f"within {max_iter} steps (last increment {increment:.3e})"
        )
    k = p @ np.linalg.inv(p + r_cov)
    closed = (np.eye(n) - k) @ dyn.a
    radius = float(np.max(np.abs(np.linalg.eigvals(closed)))) if n else 0.0
    if radius >= 1.0:
        raise GainInstabilityError(
            f"mode {mode_id!r}: closed-loop spectral radius {radius:.6g} >= 1"
        )
    return KalmanGain(
        gain=k,
        predicted_covariance=p,
        iterations=iterations,
        final_increment=increment,
    )
