"""Per-sample reference of the simulation loop, used by the tests.

It keeps the loop as it was before the block detector pass: one
`normal(0, sigma)` draw and clip per noise use, a Kalman step that looks
the mode up and validates its inputs, and a detector verdict per sample,
decided with one matrix-vector product per sample from the detector's
tables. `simulate` must give the same summaries and byte-identical traces.
The plant step and the Kalman step take their products with `matvec`,
a plain loop over Python floats that sums each row left to right, the
order the package's generated functions promise. It also keeps the
per-sample forms of what the package computes a block at a time: an
attack's value at one sample, one guard test, and the first baseline
alarm of a trace, and train-gate's gains written out as literals.
"""

import numpy as np

from hybridmon.kalman import KalmanBank, KalmanGain, check_dwell
from hybridmon.observer import DiscreteInconsistencyError, step_discrete
from hybridmon.simulate import (
    ConflictAlarm,
    EventRecord,
    SafetyViolation,
    SimulationResult,
    SimulationSummary,
    Trace,
    baseline_threshold,
)


# Train-gate's steady-state gain as literals: the Riccati solve goes through
# LAPACK and BLAS, whose last bits can differ between hosts, and these do not.
LITERAL_GAIN = [
    [0.11298129669571991, 0.02242207879493787],
    [0.02242207879493787, 0.05859364501954387],
]


def literal_bank(model):
    """A filter bank with `LITERAL_GAIN` for every mode of the model."""
    return KalmanBank({q: KalmanGain(LITERAL_GAIN, LITERAL_GAIN, 0, 0.0) for q in model.mode_ids})


def truncated_gaussian(rng, bounds):
    """Gaussian draw with sigma = bound / 3, clipped to the bound."""
    bounds = np.asarray(bounds)
    return np.clip(rng.normal(0.0, bounds / 3.0), -bounds, bounds)


def magnitude_at(attack, sample, sampling_period):
    """An attack's signal value at one sample index, the twin of `gamma_rows`."""
    start = int(round(attack.start_time / sampling_period))
    if sample < start:
        return 0.0
    if attack.kind == "ramp":
        return attack.slope * (sample - start) * sampling_period
    if attack.kind == "step":
        return attack.magnitude
    offset = sample - start
    return attack.samples[offset] if offset < len(attack.samples) else 0.0


def satisfied(guard, x):
    """Whether x lies in the guard's closed half-space."""
    value = float(np.asarray(x, dtype=float)[guard.axis])
    return guard.sign * (value - guard.threshold) >= 0.0


def residual_baseline(trace, threshold):
    """Time of the first settled sample whose residual norm exceeds the threshold."""
    for time, steady, residual in zip(trace.times, trace.steady, trace.residual):
        if steady and float(np.max(np.abs(residual))) > threshold:
            return float(time)
    return None


def matvec(matrix, vector):
    """The product of a matrix and a vector as a list of Python floats.

    Each entry is the row's first product plus each later one in turn,
    every multiply and add rounded on its own; a row with no entries is 0.0.
    """
    values = [float(value) for value in vector]
    result = []
    for row in np.asarray(matrix, dtype=float).tolist():
        total = None
        for coefficient, value in zip(row, values):
            term = coefficient * value
            total = term if total is None else total + term
        result.append(0.0 if total is None else total)
    return result


def plant_step(a, b, x, u, w):
    """The next state w + (A x + B u), entry by entry."""
    return np.array([wi + (ax + bu) for wi, ax, bu in zip(w.tolist(), matvec(a, x), matvec(b, u))])


def reference_step(bank, model, mode_id, x_est, u, y):
    """One predict/update step with the mode's gain, inputs checked."""
    mode = model.mode(mode_id)
    x_est = np.asarray(x_est, dtype=float)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    y = np.asarray(y, dtype=float)
    if not (np.all(np.isfinite(x_est)) and np.all(np.isfinite(u)) and np.all(np.isfinite(y))):
        raise ValueError("reference step requires finite inputs")
    return kalman_step(mode.a, matvec(mode.b, u), bank.gains[mode_id].gain, x_est, y)


def kalman_step(a, bu, gain, x_est, y):
    """p = A x_est + B u, then p + K (y - p), entry by entry, from the vector B u."""
    predicted = [ax + b for ax, b in zip(matvec(a, x_est), np.asarray(bu, dtype=float).tolist())]
    innovation = [meas - p for meas, p in zip(np.asarray(y, dtype=float).tolist(), predicted)]
    return np.array([p + c for p, c in zip(predicted, matvec(gain, innovation))])


def reference_verdict(detector, node, steady, x_est, residual, event=None):
    """(estimated mode, warming up, A, B, C, volume) of one sample."""
    singleton = len(node) == 1
    center = np.array(x_est, dtype=float)
    half = np.abs(np.asarray(residual, dtype=float)) + detector.model.v_bounds
    lo, hi = center - half, center + half
    vol = float((2.0 * half).prod())
    mode_id = node[0] if singleton else None
    unexplained = False
    if steady and event is not None:
        slabs = [s for s in detector._slabs.get(event, ()) if s[0] in node]
        unexplained = not any(
            lo[axis] <= s_hi and hi[axis] >= s_lo for _, axis, s_lo, s_hi in slabs
        )
        sources = {s[0] for s in slabs}
        if mode_id is None and len(sources) == 1:
            mode_id = sources.pop()
    if not (singleton and steady):
        return mode_id, True, False, False, unexplained, vol
    inv_lo, inv_hi = detector._inv[mode_id]
    conflict_c = unexplained
    table = detector._tables.get(mode_id)
    if table is not None and event is None:
        gap = abs(table.m @ center - table.n_mid)
        conflict_c = bool((gap > table.m_abs @ half + table.slack).any())
    # an explained event: the box meets a guard slab, so it meets the
    # invariant joined with the slabs, the set a firing state lies in
    explained = event is not None and not unexplained
    conflict_b = not explained and bool((hi < inv_lo).any() or (lo > inv_hi).any())
    return mode_id, False, vol > detector.volume_bound, conflict_b, conflict_c, vol


def _fired_transition(model, mode_id, x):
    for tr in model.transitions_from(mode_id):
        if satisfied(tr.guard, x):
            return tr
    return None


def reference_simulate(config, detector, bank, observer):
    """The per-sample loop; the result `simulate` gives with keep_trace=True."""
    model = config.model
    h = model.sampling_period
    n = int(round(config.duration / h))
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    threshold = baseline_threshold(model)

    x = np.array(config.initial_state, dtype=float)
    q = config.initial_mode
    node = observer.root
    steady_timer = 0
    dim = x.size

    gamma0 = config.attack.gamma_rows(0, 1, h, dim)[0] if config.attack else np.zeros(dim)
    v = truncated_gaussian(rng, model.v_bounds)
    y = x + v + gamma0
    x_est = y.copy()

    rows = []
    events = []
    first_conflict = None
    first_baseline = None
    violation = None
    inconsistency_time = None
    stop_event = None
    max_residual = 0.0
    max_error = 0.0
    max_volume = 0.0

    t, now = 0, 0.0
    for t in range(n):
        now = t * h
        r = y - x_est
        steady = steady_timer >= model.dwell_time
        if steady:
            r_norm = float(np.max(np.abs(r)))
            max_residual = max(max_residual, r_norm)
            max_error = max(max_error, float(np.max(np.abs(x - x_est))))
            if r_norm > threshold and first_baseline is None:
                first_baseline = now
        u = config.controller.control(y, now)
        fired = _fired_transition(model, q, x)
        event = (fired.input_event, fired.output_event) if fired is not None else None
        mode_id, warming, a, b, c, vol = reference_verdict(detector, node, steady, x_est, r, event)
        if steady:
            max_volume = max(max_volume, vol)
        if (a or b or c) and first_conflict is None:
            kind = "A" if a else ("B" if b else "C")
            first_conflict = ConflictAlarm(time=now, kind=kind, mode=mode_id)
        if config.safety is not None and violation is None and config.safety.violated(x):
            violation = SafetyViolation(time=now, state=tuple(x.tolist()))
        rows.append(
            (now, x.copy(), y.copy(), x_est.copy(), r.copy(), q, node, steady)
            + (warming, a, b, c, a or b or c, vol)
        )

        if fired is not None:
            events.append(
                EventRecord(
                    sample=t,
                    time=now,
                    source=fired.source,
                    target=fired.target,
                    input_event=fired.input_event,
                    output_event=fired.output_event,
                    state=tuple(x.tolist()),
                )
            )
            if fired.output_event in config.stop_events:
                stop_event = fired.output_event
                break

        w = truncated_gaussian(rng, model.w_bounds)
        mode = model.mode(q)
        x = plant_step(mode.a, mode.b, x, np.atleast_1d(np.asarray(u, dtype=float)), w)

        predict_mode = node[0]
        if fired is not None:
            q = fired.target
            try:
                node = step_discrete(observer, node, (fired.input_event, fired.output_event))
            except DiscreteInconsistencyError:
                inconsistency_time = (t + 1) * h
                break
            steady_timer = 0
        else:
            steady_timer += 1

        v = truncated_gaussian(rng, model.v_bounds)
        gamma = config.attack.gamma_rows(t + 1, 1, h, dim)[0] if config.attack else np.zeros(dim)
        y = x + v + gamma
        x_est = reference_step(bank, model, predict_mode, x_est, u, y)

    summary = SimulationSummary(
        seed=config.seed,
        completed=inconsistency_time is None,
        end_time=now,
        samples=t + 1,
        stop_event=stop_event,
        events=tuple(events),
        first_conflict=first_conflict,
        first_baseline_alarm=first_baseline,
        baseline_threshold=threshold,
        safety_violation=violation,
        dwell_ok=bool(check_dwell(model, [e.sample for e in events])),
        discrete_inconsistency=inconsistency_time,
        max_residual=max_residual,
        max_estimation_error=max_error,
        max_volume=max_volume,
    )
    times, xs, ys, ests, rs, modes, nodes, steadies, warm, ca, cb, cc, alarms, vols = zip(*rows)
    trace = Trace(
        times=np.array(times),
        x_true=np.array(xs),
        y=np.array(ys),
        x_est=np.array(ests),
        residual=np.array(rs),
        mode_true=modes,
        node=nodes,
        steady=np.array(steadies, dtype=bool),
        warming_up=np.array(warm, dtype=bool),
        conflict_a=np.array(ca, dtype=bool),
        conflict_b=np.array(cb, dtype=bool),
        conflict_c=np.array(cc, dtype=bool),
        alarm=np.array(alarms, dtype=bool),
        volume=np.array(vols),
    )
    return SimulationResult(summary=summary, trace=trace)
