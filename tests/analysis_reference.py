"""Zonotope-based reference of the static analyses, used by the tests.

It keeps the horizon search, the one-step overshoot and the Riccati loop
as they were before the analyses read the guard-axis hull straight from
A^d: every candidate horizon builds the facet box as a zonotope, maps and
inflates it with `reach` and takes its whole interval hull, and the Riccati
loop transposes A on every step and reduces with numpy's functions. A
falling guard is solved as it was before the analyses took each guard in
its own sign: on the whole model mirrored on the guard axis, whose regions
are decomposed afresh, where the guard rises. The package must give the
same horizons, overshoots, thresholds, detector slabs, gains, covariances,
iteration counts and final increments, bit for bit. It also keeps the
bisection that found d* before the closed form, with the float band test it
bisected on: the closed form must pass that test and stay within
BISECT_TOL below the bisection.
"""

import math
from dataclasses import replace

import numpy as np

from hybridmon.guarantees import (
    EmptyGeometryError,
    GuaranteeBound,
    GuardGuarantee,
    _box_min,
    _d_star,
    box_max,
)
from hybridmon.kalman import (
    RICCATI_MAX_ITER,
    RICCATI_TOL,
    GainInstabilityError,
    KalmanGain,
    RiccatiError,
)
from hybridmon.model import GEOM_TOL, Guard, Invariant, Mode, decompose_regions
from hybridmon.reachability import (
    MAX_DELTA,
    HorizonError,
    _facet_box,
    box_zonotope,
    reach,
    reach_operator,
)

BISECT_TOL = 1e-9


def compute_delta(model, regions, mode_id):
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
        for delta in range(MAX_DELTA + 1):
            hull_lo, hull_hi = reach(model, mode_id, facet, delta + 1).interval_hull()
            if hull_lo[tr.guard.axis] <= c_l <= hull_hi[tr.guard.axis]:
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


def compute_all_deltas(model, regions):
    return {mode_id: compute_delta(model, regions, mode_id)[0] for mode_id in model.mode_ids}


def epsilon(model, transition):
    """`facet_epsilon` of a rising guard, from the one-step reach set's hull."""
    guard = transition.guard
    lo, hi = model.invariant(transition.source).bounds()
    lo[guard.axis] = hi[guard.axis] = guard.threshold
    hull_lo, hull_hi = reach(
        model, transition.source, box_zonotope(lo, hi), 1
    ).interval_hull()
    return float(hull_hi[guard.axis])


def reflect_model(model, axis):
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


def matching_transition(model, transition):
    for tr in model.transitions_from(transition.source):
        if tr.input_event == transition.input_event:
            return tr
    raise KeyError(f"transition {transition.input_event!r} not found after reflection")


def rising_view(model, regions, transition):
    """The model, regions and transition in which the guard rises."""
    if transition.guard.sign > 0:
        return model, regions, transition
    reflected = reflect_model(model, transition.guard.axis)
    return reflected, decompose_regions(reflected), matching_transition(reflected, transition)


def facet_epsilon(model, transition):
    view, _, view_tr = rising_view(model, None, transition)
    far = epsilon(view, view_tr)
    return far if transition.guard.sign > 0 else -far


def z_star(model, transition, eps, margin):
    """z* of a rising guard whose overshoot is eps."""
    guard = transition.guard
    c_g = guard.threshold
    if eps < c_g:
        raise EmptyGeometryError(f"one-step overshoot tops out at {eps}, below the guard {c_g}")
    lo, hi = model.invariant(transition.source).bounds()
    lo[guard.axis] = max(lo[guard.axis], c_g)
    hi[guard.axis] = min(hi[guard.axis], eps)
    if lo[guard.axis] > hi[guard.axis]:
        raise EmptyGeometryError("overshoot slab misses the source invariant")
    dyn_t = model.dynamics(transition.target)
    return max(0.0, box_max(dyn_t.a[guard.axis], lo, hi) + dyn_t.step_bound + margin - c_g)


def rising_band(model, regions, transition, delta_q):
    """(a_row, inv_lo, inv_hi, c_g, c_l, sigma) of the horizon arm, the guard read as rising.

    None when the guard-axis entry of A^delta_q is negative.
    """
    guard = transition.guard
    axis, sign = guard.axis, guard.sign
    a_power, sigma = reach_operator(model.dynamics(transition.source), delta_q)
    a_row = a_power[axis]
    coefficient = float(a_row[axis])
    if coefficient < 0.0:
        return None
    inv_lo, inv_hi = model.invariant(transition.source).bounds()
    c_l = regions.neighbor_values[(transition.source, transition.input_event)]
    if sign < 0:
        a_row = -a_row
        a_row[axis] = coefficient
        inv_lo[axis], inv_hi[axis] = -inv_hi[axis], -inv_lo[axis]
    return a_row, inv_lo, inv_hi, sign * guard.threshold, sign * c_l, sigma


def band_minimum(band, axis, margin, d):
    """Least delta-step image of the band at offset d, in floats.

    None when the band misses the invariant.
    """
    a_row, inv_lo, inv_hi, c_g, _, _ = band
    blo = max(inv_lo[axis], c_g + d - margin)
    bhi = min(inv_hi[axis], c_g + d + margin)
    if blo > bhi:
        return None
    lo, hi = inv_lo.copy(), inv_hi.copy()
    lo[axis], hi[axis] = blo, bhi
    return _box_min(a_row, lo, hi)


def band_clears(band, axis, margin, d):
    """Whether the band at offset d meets the invariant and clears the neighbor value by sigma."""
    m = band_minimum(band, axis, margin, d)
    return m is not None and m - band[5] >= band[4]


def d_cap(band, axis, margin):
    """The largest offset whose band meets the invariant, in exact arithmetic."""
    _, _, inv_hi, c_g, _, _ = band
    return inv_hi[axis] - c_g + margin


def d_star_bisection(model, regions, transition, delta_q, margin):
    """d* as a bisection on `band_clears` to BISECT_TOL, returning the bracket's upper end.

    +inf when the band fails at `d_cap`, which rounding can leave empty
    although smaller offsets pass.
    """
    band = rising_band(model, regions, transition, delta_q)
    if band is None:
        return math.inf
    axis = transition.guard.axis

    def holds(d):
        return band_clears(band, axis, margin, d)

    hi_d = d_cap(band, axis, margin)
    if not holds(hi_d):
        return math.inf
    if holds(0.0):
        return 0.0
    lo_d = 0.0
    while hi_d - lo_d > BISECT_TOL:
        mid = (lo_d + hi_d) / 2.0
        if holds(mid):
            hi_d = mid
        else:
            lo_d = mid
    return hi_d


def state_guarantees(model, regions, deltas):
    """`state_guarantees`, each falling guard solved as a rising one on the mirrored model."""
    margin = model.theta + 2.0 * float(np.max(model.max_v_bounds))
    out = {}
    for mode_id in model.mode_ids:
        guards = []
        for tr in model.transitions_from(mode_id):
            view, view_regions, view_tr = rising_view(model, regions, tr)
            eps = epsilon(view, view_tr)
            d = math.inf
            if deltas[mode_id] > 0:
                d = _d_star(view, view_regions, view_tr, deltas[mode_id], margin)
            guards.append(
                GuardGuarantee(
                    input_event=tr.input_event,
                    z_star=z_star(view, view_tr, eps, margin),
                    d_star=d,
                    epsilon=eps if tr.guard.sign > 0 else -eps,
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


def slabs(model):
    """`Detector._slabs`: each guard's slab from the guard to its one-step overshoot."""
    out = {}
    for tr in model.transitions:
        c_g = tr.guard.threshold
        far = facet_epsilon(model, tr)
        far = max(far, c_g) if tr.guard.sign > 0 else min(far, c_g)
        out.setdefault((tr.input_event, tr.output_event), []).append(
            (tr.source, tr.guard.axis, min(c_g, far), max(c_g, far))
        )
    return out


def solve_riccati(mode_id, dyn, max_iter=RICCATI_MAX_ITER):
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
        if increment < RICCATI_TOL:
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
