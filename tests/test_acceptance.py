"""Acceptance gate: ten end-to-end claims, one test each.

Every test pins a measurable outcome of the shipped crossing model or the
detection machinery, with explicit tolerances and runtime budgets. The
seeded sweeps come from the shared session fixtures so the heavy runs
happen once.
"""

import time

import numpy as np
from vertex_reference import oracle_box_optimum
from zonotope_reference import Zonotope, intersects_box, reach

from hybridmon import (
    HybridAutomaton,
    Invariant,
    Mode,
    box_max,
    decompose_regions,
)
from hybridmon.reachability import compute_all_deltas


def test_criterion_01_region_reproduction(tg_model):
    """The shipped model decomposes into the documented operating regions."""
    start = time.perf_counter()
    regions = decompose_regions(tg_model)
    elapsed = time.perf_counter() - start
    assert regions.intermediate == (
        ((1, 2), ((45.0, 46.0), (0.0, 0.4))),
        ((2, 3), ((75.0, 76.0), (0.0, 0.4))),
    )
    assert regions.normal[1] == (
        ((0.0, 45.0), (0.0, 1.5)),
        ((45.0, 46.0), (0.4, 1.5)),
    )
    assert regions.normal[2] == (((46.0, 75.0), (0.0, 0.4)),)
    assert regions.normal[3] == (
        ((76.0, 80.0), (0.0, 1.5)),
        ((75.0, 76.0), (0.4, 1.5)),
    )
    assert elapsed < 1.0


def test_criterion_02_horizon_reproduction(tg_model, tg_regions):
    """Per-state reachability horizons land on the published step counts."""
    start = time.perf_counter()
    deltas = compute_all_deltas(tg_model, tg_regions)
    elapsed = time.perf_counter() - start
    # states 1 and 2 allow a +/-2 band because the dynamics matrices are
    # reconstructed, state 3's guard sits on its invariant face so the
    # horizon is exactly zero
    assert 7 <= deltas[1] <= 11
    assert 7 <= deltas[2] <= 11
    assert deltas[3] == 0
    assert elapsed < 5.0


def test_criterion_03_stealthy_ramp(ramp_digest):
    """The shallow position ramp never lifts the residual over 0.15."""
    assert len(ramp_digest.runs) == 20
    worst = max(run.max_residual_full for run in ramp_digest.runs)
    assert worst <= 0.15, f"ramp pushed the residual to {worst:.4f}"
    assert ramp_digest.elapsed < 30.0


def test_criterion_04_detection_precedes_violation(ramp_digest):
    """The stealthy ramp is caught well before it causes the overspeed.

    The ramped sensor makes the first sensor event fire while the
    measurement box already lies past the guard's overshoot slab, so
    conflict C flags that sample, more than two minutes before the train
    overspeeds at the gate."""
    runs = ramp_digest.runs
    assert all(run.baseline_alarm is None for run in runs)
    qualified = [
        run
        for run in runs
        if run.violation_time is not None
        and run.conflict_time is not None
        and run.conflict_kind in ("B", "C")
        and run.conflict_time < 0.5 * run.violation_time
    ]
    no_violation = sum(1 for run in runs if run.violation_time is None)
    assert len(qualified) >= 19, (
        f"{len(qualified)}/{len(runs)} runs raise a conflict ahead of the "
        f"safety violation; {no_violation}/{len(runs)} runs never violate "
        "safety at all (an overspeed needs the sensor offset to reach the 4 m "
        "between the slow-zone edge and the protected-zone edge while the "
        "train is still inside the protected zone)"
    )


def test_criterion_05_no_false_alarms(nominal_digest):
    """A hundred attack-free runs stay silent on both monitors."""
    runs = nominal_digest.runs
    assert len(runs) == 100
    assert all(run.conflict_alarm_samples == 0 for run in runs)
    assert all(run.baseline_alarm is None for run in runs)
    assert nominal_digest.elapsed < 60.0


def test_criterion_06_volume_bound(nominal_digest):
    """Settled estimate boxes never exceed the noise-derived volume cap."""
    assert nominal_digest.volume_bound == 0.25
    assert all(run.steady_volume_violations == 0 for run in nominal_digest.runs)
    assert all(run.max_steady_volume <= 0.25 for run in nominal_digest.runs)


def test_criterion_07_guaranteed_detection(tg_bounds, family_digest):
    """Computed thresholds are plausible and honored by the detector."""
    for mode_id in (1, 2):
        threshold = tg_bounds[mode_id].threshold
        assert threshold is not None
        assert 0.5 <= threshold <= 1.5
    runs = family_digest.runs
    assert len(runs) == 50
    missed = []
    for run in runs:
        threshold = tg_bounds[run.first_event_mode].threshold
        # every slope in the family grows past the threshold by its event
        assert run.magnitude_at_event is not None
        assert run.magnitude_at_event > threshold
        if run.conflict_kind not in ("B", "C"):
            missed.append(run)
    assert not missed, (
        f"{len(missed)}/{len(runs)} above-threshold attacks went undetected: "
        + ", ".join(f"seed {run.seed} slope {run.slope}" for run in missed[:5])
    )


def test_criterion_08_oracle_equivalence():
    """Closed-form box maxima agree with vertex enumeration to 1e-12."""
    rng = np.random.default_rng(12345)
    start = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        a = rng.normal(0.0, 2.0, n)
        lo = rng.normal(0.0, 3.0, n)
        hi = lo + rng.uniform(0.0, 4.0, n)
        closed = box_max(a, lo, hi)
        brute = oracle_box_optimum(a, list(zip(lo, hi)))
        assert abs(closed - brute) <= 1e-12 * max(1.0, abs(brute))
    assert time.perf_counter() - start < 10.0


def test_criterion_09_reachability_soundness():
    """Sampled trajectories never escape the step-bounded reachable set."""
    rng = np.random.default_rng(99)
    start = time.perf_counter()
    total = 0
    for _ in range(100):
        n = int(rng.integers(2, 4))
        raw = rng.normal(0.0, 1.0, (n, n))
        radius = max(float(np.max(np.abs(np.linalg.eigvals(raw)))), 1e-6)
        a = raw * (rng.uniform(0.3, 1.0) / radius)
        b = rng.normal(0.0, 0.2, (n, 1))
        w = rng.uniform(0.001, 0.05, n)
        mu = float(rng.uniform(0.0, 0.5))
        model = HybridAutomaton(
            modes=(
                Mode(
                    "m",
                    a,
                    b,
                    Invariant(tuple((-100.0, 100.0) for _ in range(n))),
                ),
            ),
            events=(),
            transitions=(),
            w_bounds=w,
            v_bounds=np.full(n, 0.1),
            input_bound=mu,
            dwell_time=1,
            sampling_period=0.1,
            theta=0.05,
        )
        center = rng.normal(0.0, 1.0, n)
        generators = rng.normal(0.0, 0.3, (n + 1, n))  # one generator per row
        source = Zonotope(center=center, generators=generators)
        delta = int(rng.integers(1, 6))
        tube = reach(model, "m", source, delta)
        for _ in range(100):
            alpha = rng.uniform(-1.0, 1.0, n + 1)
            x = center + alpha @ generators
            for _ in range(delta):
                u = rng.uniform(-mu, mu, 1)
                x = a @ x + b @ u + rng.uniform(-w, w)
            assert intersects_box(tube, tuple((float(v), float(v)) for v in x))
            total += 1
    assert total == 10_000
    assert time.perf_counter() - start < 60.0


def test_criterion_10_observer_soundness(nominal_digest):
    """The true mode is always a member of the observer node, and nodes
    collapse to singletons once the first event pair has been seen."""
    runs = nominal_digest.runs
    assert all(run.mode_in_node for run in runs)
    assert all(run.singleton_after_first_event for run in runs)
