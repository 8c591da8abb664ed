"""Initial-set geometry and the three-way conflict verdicts."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from lp_reference import box_distance, corner_box, touching_box

from hybridmon import (
    ConflictReport,
    Detector,
    Event,
    Guard,
    HybridAutomaton,
    Invariant,
    LtiDynamics,
    Mode,
    Transition,
    UnsupportedShapeError,
    Zonotope,
    decompose_regions,
    detect,
    detection_threshold,
    inflate,
    initial_set,
    intersects_box,
    linear_map,
    volume,
    volume_bound,
)
from hybridmon.guarantees import facet_epsilon
from hybridmon.reachability import sigma_sum, step_bound


@pytest.fixture(scope="module")
def rotation_model():
    # quarter-turn dynamics inside a thin box: one step swings any
    # measurement-consistent set clean out of the invariant
    return HybridAutomaton(
        modes=(
            Mode(
                1,
                LtiDynamics(
                    a=[[0.0, -1.0], [1.0, 0.0]],
                    b=[[0.0], [0.0]],
                    w_bounds=[0.0, 0.0],
                    v_bounds=[0.1, 0.1],
                    input_bound=0.0,
                ),
                Invariant(((0.5, 1.0), (-0.2, 0.2))),
            ),
        ),
        events=(),
        transitions=(),
        dwell_time=1,
        sampling_period=1.0,
        theta=0.05,
    )


class TestInitialSet:
    def test_box_geometry(self):
        z = initial_set([1.0, 2.0], [0.1, -0.2], [0.1, 0.1])
        lo, hi = z.interval_hull()
        np.testing.assert_allclose(lo, [0.8, 1.7])
        np.testing.assert_allclose(hi, [1.2, 2.3])
        assert z.is_axis_aligned()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="do not match"):
            initial_set([1.0, 2.0], [0.1], [0.1, 0.1])


class TestVolume:
    def test_box_volume(self):
        from hybridmon import box_zonotope

        assert volume(box_zonotope([0.0, 0.0], [1.0, 2.0])) == pytest.approx(2.0)

    def test_zero_width_axis_gives_zero(self):
        from hybridmon import box_zonotope

        assert volume(box_zonotope([1.0, 2.0], [1.0, 4.0])) == 0.0

    def test_rotated_set_rejected(self):
        z = Zonotope([0.0, 0.0], [[1.0, 1.0]])
        with pytest.raises(UnsupportedShapeError):
            volume(z)

    def test_train_gate_bound(self, tg_model):
        # prod over axes of 2*theta + 4*v = (0.1 + 0.4)^2
        assert volume_bound(tg_model) == pytest.approx(0.25, abs=1e-15)


class TestDetect:
    def test_requires_singleton_node(self, tg_model, tg_regions, tg_deltas):
        with pytest.raises(ValueError, match="singleton"):
            detect(tg_model, tg_regions, tg_deltas, (1, 2), (50.0, 0.2), (0.0, 0.0))

    def test_estimate_far_outside_invariant(self, tg_model, tg_regions, tg_deltas):
        # estimated mode 1 but the estimate sits deep in mode 2 territory:
        # the initial set misses the invariant now (B) and after the horizon (C)
        report = detect(tg_model, tg_regions, tg_deltas, (1,), (50.0, 0.2), (0.05, 0.0))
        assert report.estimated_mode == 1
        assert not report.warming_up
        assert not report.conflict_a
        assert report.conflict_b
        assert report.conflict_c
        assert report.alarm
        assert report.volume == pytest.approx(0.3 * 0.2)
        assert report.volume_bound == pytest.approx(0.25)

    def test_nominal_estimate_is_silent(self, tg_model, tg_regions, tg_deltas):
        report = detect(tg_model, tg_regions, tg_deltas, (1,), (10.0, 1.0), (0.02, -0.01))
        assert not report.alarm
        assert report.reach_set is not None  # horizon 8 still evaluated

    def test_inflated_residual_trips_volume_only(self, tg_model, tg_regions, tg_deltas):
        report = detect(tg_model, tg_regions, tg_deltas, (1,), (10.0, 0.5), (10.0, 10.0))
        assert report.conflict_a
        assert not report.conflict_b
        assert report.volume > report.volume_bound

    def test_rotation_trips_reach_only(self, rotation_model):
        regions = decompose_regions(rotation_model)
        report = detect(rotation_model, regions, {1: 1}, (1,), (0.9, 0.0), (0.1, 0.1))
        assert not report.conflict_a
        assert not report.conflict_b
        assert report.conflict_c

    def test_time_index_passthrough(self, tg_model, tg_regions, tg_deltas):
        report = detect(
            tg_model, tg_regions, tg_deltas, (1,), (10.0, 1.0), (0.0, 0.0), time_index=77
        )
        assert report.time_index == 77


class TestDetector:
    def test_precomputed_matches_one_shot(self, tg_model, tg_regions, tg_deltas):
        detector = Detector(tg_model, regions=tg_regions, deltas=tg_deltas)
        for x_est, residual in (
            ((10.0, 1.0), (0.02, -0.01)),
            ((50.0, 0.2), (0.05, 0.0)),
            ((75.5, 0.2), (0.01, 0.01)),
        ):
            a = detect(tg_model, tg_regions, tg_deltas, (2,), x_est, residual)
            b = detector.evaluate(0, (2,), True, x_est, residual)
            assert (a.conflict_a, a.conflict_b, a.conflict_c) == (
                b.conflict_a,
                b.conflict_b,
                b.conflict_c,
            )
            assert a.volume == b.volume
            np.testing.assert_array_equal(a.initial_set.center, b.initial_set.center)

    def test_defaults_build_geometry(self, tg_model, tg_deltas):
        detector = Detector(tg_model)
        assert detector.deltas == tg_deltas
        assert detector.volume_bound == pytest.approx(0.25)

    def test_non_singleton_node_warms_up(self, tg_model, tg_regions, tg_deltas):
        detector = Detector(tg_model, regions=tg_regions, deltas=tg_deltas)
        report = detector.evaluate(3, (1, 2, 3), True, (50.0, 0.2), (0.05, 0.0))
        assert report.warming_up
        assert report.estimated_mode is None
        assert not report.alarm
        assert report.volume == pytest.approx(0.3 * 0.2)  # still reported

    def test_unsettled_estimate_warms_up(self, tg_model, tg_regions, tg_deltas):
        detector = Detector(tg_model, regions=tg_regions, deltas=tg_deltas)
        report = detector.evaluate(3, (1,), False, (50.0, 0.2), (0.05, 0.0))
        assert report.warming_up
        assert report.estimated_mode == 1
        assert not report.alarm
        assert report.reach_set is None

    def test_verdicts_are_deterministic(self, tg_model):
        d1 = Detector(tg_model)
        d2 = Detector(tg_model)
        rng = np.random.default_rng(5)
        for _ in range(20):
            x_est = rng.uniform([0.0, 0.0], [80.0, 1.5])
            residual = rng.uniform(-0.3, 0.3, size=2)
            node = ([1], [2], [3])[rng.integers(0, 3)]
            a = d1.evaluate(0, tuple(node), True, x_est, residual)
            b = d2.evaluate(0, tuple(node), True, x_est, residual)
            assert (a.conflict_a, a.conflict_b, a.conflict_c, a.volume) == (
                b.conflict_a,
                b.conflict_b,
                b.conflict_c,
                b.volume,
            )
            np.testing.assert_array_equal(a.initial_set.generators, b.initial_set.generators)


def _one_mode(a, w, v, invariant) -> HybridAutomaton:
    n = len(a)
    return HybridAutomaton(
        modes=(
            Mode(
                1,
                LtiDynamics(a=a, b=[[0.0]] * n, w_bounds=w, v_bounds=v, input_bound=0.0),
                Invariant(tuple(invariant)),
            ),
        ),
        events=(),
        transitions=(),
        dwell_time=1,
        sampling_period=1.0,
        theta=0.05,
    )


def _reference_reach(model, delta, x_est, residual):
    """The horizon set built explicitly: inflate(linear_map(A^delta, X_I), sigma)."""
    dyn = model.dynamics(1)
    x_i = initial_set(x_est, residual, dyn.v_bounds)
    a_norm = float(np.max(np.sum(np.abs(dyn.a), axis=1)))
    sigma = sigma_sum(a_norm, delta, step_bound(model, 1))
    return x_i, inflate(linear_map(np.linalg.matrix_power(dyn.a, delta), x_i), sigma)


@st.composite
def horizon_case(draw):
    """A random 2-D or 3-D mode, horizon, estimate and residual.

    The invariant sits at a corner of the reach set's hull, where hull
    overlap and set overlap part ways. Zero noise and zero-width invariant
    axes come up often, so the modes whose table cannot be exact (and fall
    back per sample) are drawn too.
    """
    n = draw(st.sampled_from([2, 3]))
    vec = lambda lo, hi: [draw(st.floats(lo, hi)) for _ in range(n)]  # noqa: E731
    a = [vec(-1.2, 1.2) for _ in range(n)]
    w = [draw(st.one_of(st.just(0.0), st.floats(0.001, 0.3)))] * n
    v = vec(0.0, 0.5)
    delta = draw(st.integers(1, 3))
    x_est, residual = vec(-6.0, 6.0), vec(-1.0, 1.0)
    placeholder = _one_mode(a, w, v, [(0.0, 0.0)] * n)
    _, reach_set = _reference_reach(placeholder, delta, x_est, residual)
    signs = [draw(st.sampled_from([-1, 1])) for _ in range(n)]
    depths = np.array(vec(-0.1, 0.6))
    widths = np.array([draw(st.one_of(st.just(0.0), st.floats(0.01, 4.0))) for _ in range(n)])
    invariant = corner_box(reach_set, signs, depths, widths)
    return _one_mode(a, w, v, invariant), delta, x_est, residual


@st.composite
def touching_case(draw):
    """A dyadic mode whose one-step reach set touches the invariant exactly."""
    n = draw(st.sampled_from([2, 3]))
    eighths = st.integers(-8, 8).map(lambda k: k / 8.0)
    sixteenths = lambda lo, hi: st.integers(lo, hi).map(lambda k: k / 16.0)  # noqa: E731
    a = [[draw(eighths) for _ in range(n)] for _ in range(n)]
    w = [draw(sixteenths(0, 4))] * n
    v = [draw(sixteenths(1, 8)) for _ in range(n)]
    x_est = [draw(sixteenths(-32, 32)) for _ in range(n)]
    residual = [draw(sixteenths(-8, 8)) for _ in range(n)]
    direction = [draw(st.integers(-3, 3)) for _ in range(n)]
    assume(any(direction))
    widths = [draw(st.integers(0, 16)) / 8.0 for _ in range(n)]
    placeholder = _one_mode(a, w, v, [(0.0, 0.0)] * n)
    _, reach_set = _reference_reach(placeholder, 1, x_est, residual)
    invariant = touching_box(reach_set, direction, widths)
    return _one_mode(a, w, v, invariant), x_est, residual


class TestHorizonTable:
    """Detector verdicts against the explicit reach set decided by a linear program."""

    @staticmethod
    def _evaluate(model, delta, x_est, residual):
        detector = Detector(model, regions=decompose_regions(model), deltas={1: delta})
        return detector.evaluate(0, (1,), True, x_est, residual)

    @settings(max_examples=300, deadline=None)
    @given(horizon_case())
    def test_verdicts_match_reference(self, case):
        model, delta, x_est, residual = case
        x_i, reach_set = _reference_reach(model, delta, x_est, residual)
        invariant = model.invariant(1).intervals
        distance = box_distance(reach_set, invariant)
        assume(abs(distance) > 1e-6)  # the program's own tolerance decides contact
        report = self._evaluate(model, delta, x_est, residual)
        assert report.conflict_c == (distance > 0.0)
        assert report.conflict_b == (not intersects_box(x_i, invariant))
        assert report.volume == volume(x_i)
        np.testing.assert_array_equal(report.reach_set.center, reach_set.center)
        np.testing.assert_array_equal(report.reach_set.generators, reach_set.generators)

    @settings(max_examples=300, deadline=None)
    @given(touching_case())
    def test_contact_counts_as_meeting(self, case):
        model, x_est, residual = case
        _, reach_set = _reference_reach(model, 1, x_est, residual)
        assert box_distance(reach_set, model.invariant(1).intervals) <= 1e-9
        assert not self._evaluate(model, 1, x_est, residual).conflict_c


class TestEventCheck:
    """Conflict C on the sample whose state fires a sensor event."""

    EVENT = ("c_down", "s_1")  # exit of state 1: guard at 45 m on the position axis

    @pytest.fixture(scope="class")
    def detector(self, tg_model, tg_regions, tg_deltas):
        return Detector(tg_model, regions=tg_regions, deltas=tg_deltas)

    @pytest.fixture(scope="class")
    def epsilon(self, tg_model):
        return facet_epsilon(tg_model, tg_model.transitions_from(1)[0])

    def test_late_crossing_flags_c(self, detector):
        # the box [45.58, 45.82] lies past the overshoot slab [45, 45.21]
        x_est, r = (45.7, 0.2), (0.02, 0.01)
        assert not detector.evaluate(0, (1,), True, x_est, r).alarm
        report = detector.evaluate(0, (1,), True, x_est, r, self.EVENT)
        assert report.conflict_c
        assert not (report.conflict_a or report.conflict_b)

    def test_early_crossing_flags_c(self, detector):
        # the box [44.18, 44.42] lies short of the guard
        x_est, r = (44.3, 1.0), (0.02, 0.01)
        assert not detector.evaluate(0, (1,), True, x_est, r).alarm
        report = detector.evaluate(0, (1,), True, x_est, r, self.EVENT)
        assert report.conflict_c
        assert not (report.conflict_a or report.conflict_b)

    def test_nominal_crossing_is_silent(self, tg_model, detector, epsilon):
        # without an attack the box holds the true state, and a firing state
        # lies in the slab, whatever the estimation error
        rng = np.random.default_rng(3)
        v = tg_model.dynamics(1).v_bounds
        for _ in range(500):
            x = np.array([rng.uniform(45.0, epsilon), rng.uniform(0.0, 1.5)])
            y = x + rng.uniform(-v, v)
            x_est = x + rng.uniform(-0.3, 0.3, size=2)
            report = detector.evaluate(0, (1, 2, 3), True, x_est, y - x_est, self.EVENT)
            assert not report.conflict_c

    def test_ambiguous_node_names_the_source(self, detector):
        # before the first event the node is still (1, 2, 3); the event pair
        # alone picks the transition, so the check runs and names state 1
        report = detector.evaluate(0, (1, 2, 3), True, (44.3, 1.0), (0.02, 0.01), self.EVENT)
        assert report.warming_up
        assert report.conflict_c
        assert report.estimated_mode == 1

    def test_unsettled_estimate_skips_the_check(self, detector):
        report = detector.evaluate(0, (1,), False, (44.3, 1.0), (0.02, 0.01), self.EVENT)
        assert not report.alarm

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_offset_above_threshold_is_flagged(self, tg_model, detector, epsilon, sign):
        # worst case for the check: the true state at the slab face nearest
        # the offset, the estimate trailing the attacked trajectory by theta
        # and the noise draw at its bound, both against the offset
        theta, v = tg_model.theta, tg_model.dynamics(1).v_bounds[0]
        offset = sign * (detection_threshold(tg_model, 1) + 1e-9)
        x = 45.0 if sign > 0 else epsilon
        y = x + offset + sign * v
        x_est = x + offset - sign * theta
        report = detector.evaluate(
            0, (1, 2, 3), True, (x_est, 1.0), (y - x_est, 0.0), self.EVENT
        )
        assert report.conflict_c


class TestVolumeResidualLink:
    def test_volume_overflow_needs_residual_above_floor(self):
        # whenever the initial-set volume exceeds the bound, the residual
        # infinity norm must exceed theta + min_i v_i: each half-width picks
        # up at most v_i over theta + 2 v_i otherwise
        rng = np.random.default_rng(11)
        for _ in range(2000):
            n = int(rng.integers(1, 4))
            theta = float(rng.uniform(0.01, 0.3))
            v = rng.uniform(0.01, 0.5, size=n)
            r = rng.uniform(-1.0, 1.0, size=n)
            vol = float(np.prod(2.0 * (np.abs(r) + v)))
            bound = float(np.prod(2.0 * theta + 4.0 * v))
            if vol > bound:
                assert np.max(np.abs(r)) > theta + np.min(v)

    def test_floor_is_tight_under_unequal_noise(self):
        # residual just over theta + min v on the low-noise axis is already
        # enough to push the volume past the bound when the other axis noise
        # is large; a stronger floor of theta + 2 min v would be wrong
        theta, v = 0.01, np.array([1.0, 2.0])
        r = np.array([2.01, 2.01])  # equals theta + 2 min v, not above it
        vol = float(np.prod(2.0 * (np.abs(r) + v)))
        bound = float(np.prod(2.0 * theta + 4.0 * v))
        assert vol > bound
        assert np.max(np.abs(r)) <= theta + 2.0 * np.min(v)
        assert np.max(np.abs(r)) > theta + np.min(v)


def test_report_alarm_property():
    base = dict(
        time_index=0,
        estimated_mode=1,
        warming_up=False,
        center=np.array([0.0]),
        half_widths=np.array([0.1]),
        volume=0.0,
        volume_bound=1.0,
    )
    quiet = ConflictReport(conflict_a=False, conflict_b=False, conflict_c=False, **base)
    loud = ConflictReport(conflict_a=False, conflict_b=True, conflict_c=False, **base)
    assert not quiet.alarm
    assert loud.alarm
    np.testing.assert_array_equal(quiet.initial_set.generators, [[0.1]])
    assert quiet.reach_set is None
