"""Initial-set geometry and the three-way conflict verdicts."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st
from loop_reference import reference_verdict
from lp_reference import box_distance, corner_box, touching_box

import hybridmon.conflicts
import hybridmon.reachability
from hybridmon import (
    ConstantController,
    Detector,
    Event,
    Guard,
    HybridAutomaton,
    Invariant,
    LtiDynamics,
    Mode,
    Transition,
    Zonotope,
    detection_threshold,
    inflate,
    intersects_box,
    linear_map,
    load_model,
    simulate,
    volume_bound,
)
from hybridmon.conflicts import ConflictRows, _HorizonTable
from hybridmon.guarantees import facet_epsilon
from hybridmon.reachability import HorizonError, separating_normals, sigma_sum
from hybridmon.simulate import ScenarioConfig


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


def one_row(detector, node, steady, x_est, residual, event=None):
    """Verdict columns of one sample: `evaluate_rows` on a block of one row."""
    return detector.evaluate_rows(
        (tuple(node),),
        np.array([steady]),
        np.array([x_est], dtype=float),
        np.array([residual], dtype=float),
        (event,),
    )


@pytest.fixture(scope="module")
def box_detector():
    # horizon 0, so C has no part in its verdicts
    model = _one_mode([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], [0.125, 0.0], [(0.0, 1.0), (0.0, 2.0)])
    return Detector(model, deltas={1: 0})


class TestInitialSet:
    """The box c +/- (|r| + v) behind A and B."""

    def test_box_geometry(self, box_detector):
        # |r| + v on axis 0, |r| alone on axis 1: the box [0.25, 0.75] x [0.625, 1.375]
        assert not one_row(box_detector, (1,), True, (0.5, 1.0), (-0.125, -0.375)).conflict_b[0]
        # a face of the box on an invariant face meets it; a hair past, it misses
        for center, residual in (((1.25, 1.0), (0.125, 0.0)), ((0.5, -0.25), (0.0, -0.25))):
            assert not one_row(box_detector, (1,), True, center, residual).conflict_b[0]
            past = np.nextafter(center, (np.inf, -np.inf))
            assert one_row(box_detector, (1,), True, past, residual).conflict_b[0]

    def test_shape_mismatch_rejected(self, tg_machinery):
        # one node, so one row, of the model's dimension 2
        for shape in ((2, 2), (1, 3), (1, 1)):
            with pytest.raises(ValueError, match="do not match"):
                tg_machinery[0].evaluate_rows(
                    ((1,),), np.array([True]), np.zeros(shape), np.zeros(shape), (None,)
                )

    @pytest.mark.parametrize("length", [1, 3])
    def test_ragged_steady_rejected(self, tg_machinery, length):
        x = np.array([[10.0, 1.0], [20.0, 1.0]])
        with pytest.raises(ValueError) as caught:
            tg_machinery[0].evaluate_rows(
                ((1,),) * 2, [True] * length, x, np.zeros_like(x), (None,) * 2
            )
        assert str(caught.value) == f"steady has length {length}, but the block has 2 rows"

    @pytest.mark.parametrize("length", [1, 3])
    def test_ragged_events_rejected(self, tg_machinery, length):
        x = np.array([[10.0, 1.0], [20.0, 1.0]])
        with pytest.raises(ValueError) as caught:
            tg_machinery[0].evaluate_rows(
                ((1,),) * 2, [True] * 2, x, np.zeros_like(x), (("c_down", "s_1"),) * length
            )
        assert str(caught.value) == f"events has length {length}, but the block has 2 rows"


class TestVolume:
    def test_box_volume(self, box_detector):
        rows = one_row(box_detector, (1,), True, (0.5, 1.0), (-0.125, -0.375))
        assert rows.volume[0] == 0.5 * 0.75

    def test_zero_width_axis_gives_zero(self, box_detector):
        assert one_row(box_detector, (1,), True, (0.5, 1.0), (0.25, 0.0)).volume[0] == 0.0

    def test_train_gate_bound(self, tg_model):
        # prod over axes of 2*theta + 4*v = (0.1 + 0.4)^2
        assert volume_bound(tg_model) == pytest.approx(0.25, abs=1e-15)


@pytest.fixture(scope="module")
def tg_detector(tg_model, tg_deltas):
    return Detector(tg_model, deltas=tg_deltas)


class TestDetect:
    def test_estimate_far_outside_invariant(self, tg_detector):
        # estimated mode 1 but the estimate sits deep in mode 2 territory:
        # the initial set misses the invariant now (B) and after the horizon (C)
        rows = one_row(tg_detector, (1,), True, (50.0, 0.2), (0.05, 0.0))
        assert rows.estimated_mode == (1,)
        assert not rows.warming_up[0]
        assert not rows.conflict_a[0]
        assert rows.conflict_b[0]
        assert rows.conflict_c[0]
        assert rows.alarm[0]
        assert rows.volume[0] == pytest.approx(0.3 * 0.2)
        assert tg_detector.volume_bound == pytest.approx(0.25)

    def test_nominal_estimate_is_silent(self, tg_detector):
        # armed, with the horizon of 8 checked, and quiet
        assert tg_detector.deltas[1] == 8
        rows = one_row(tg_detector, (1,), True, (10.0, 1.0), (0.02, -0.01))
        assert not rows.warming_up[0]
        assert not rows.alarm[0]

    def test_inflated_residual_trips_volume_only(self, tg_detector):
        rows = one_row(tg_detector, (1,), True, (10.0, 0.5), (10.0, 10.0))
        assert rows.conflict_a[0]
        assert not rows.conflict_b[0]
        assert rows.volume[0] > tg_detector.volume_bound

    def test_given_horizons_skip_the_region_decomposition(self, tg_model, tg_deltas, monkeypatch):
        monkeypatch.setattr("hybridmon.conflicts.decompose_regions", pytest.fail)
        assert Detector(tg_model, tg_deltas).deltas == tg_deltas

    def test_rotation_trips_reach_only(self, rotation_model):
        detector = Detector(rotation_model, deltas={1: 1})
        rows = one_row(detector, (1,), True, (0.9, 0.0), (0.1, 0.1))
        assert not rows.conflict_a[0]
        assert not rows.conflict_b[0]
        assert rows.conflict_c[0]


class TestDetector:
    def test_precomputed_matches_one_shot(self, tg_model, tg_detector):
        # one detector for a block, or a fresh one that builds its own
        # geometry for each row
        x_est = np.array([[10.0, 1.0], [50.0, 0.2], [75.5, 0.2]])
        residual = np.array([[0.02, -0.01], [0.05, 0.0], [0.01, 0.01]])
        steady, events = np.ones(3, dtype=bool), (None,) * 3
        block = tg_detector.evaluate_rows(((2,),) * 3, steady, x_est, residual, events)
        one_shot = [
            _rows(one_row(Detector(tg_model), (2,), True, x_est[i], residual[i]))[0]
            for i in range(3)
        ]
        assert _rows(block) == one_shot

    def test_defaults_build_geometry(self, tg_model, tg_deltas):
        detector = Detector(tg_model)
        assert detector.deltas == tg_deltas
        assert detector.volume_bound == pytest.approx(0.25)

    def test_non_singleton_node_warms_up(self, tg_detector):
        rows = one_row(tg_detector, (1, 2, 3), True, (50.0, 0.2), (0.05, 0.0))
        assert rows.warming_up[0]
        assert rows.estimated_mode == (None,)
        assert not rows.alarm[0]
        assert rows.volume[0] == pytest.approx(0.3 * 0.2)  # still reported

    def test_unsettled_estimate_warms_up(self, tg_detector):
        rows = one_row(tg_detector, (1,), False, (50.0, 0.2), (0.05, 0.0))
        assert rows.warming_up[0]
        assert rows.estimated_mode == (1,)
        assert not rows.alarm[0]

    def test_verdicts_are_deterministic(self, tg_model):
        rng = np.random.default_rng(5)
        nodes = tuple(((1,), (2,), (3,))[i] for i in rng.integers(0, 3, size=20))
        x_est = rng.uniform([0.0, 0.0], [80.0, 1.5], size=(20, 2))
        residual = rng.uniform(-0.3, 0.3, size=(20, 2))
        args = (nodes, np.ones(20, dtype=bool), x_est, residual, (None,) * 20)
        first, second = (Detector(tg_model).evaluate_rows(*args) for _ in range(2))
        assert _rows(first) == _rows(second)


def test_report_alarm_property():
    flags = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=bool)
    rows = ConflictRows((1,) * 5, np.zeros(5, dtype=bool), *flags.T, np.zeros(5))
    assert rows.alarm.tolist() == [False, True, True, True, True]


def _rows(rows):
    """Each row's verdicts, with the bytes of its volume."""
    columns = (rows.warming_up, rows.conflict_a, rows.conflict_b, rows.conflict_c)
    return [
        (mode, *(bool(column[i]) for column in columns), rows.volume[i].tobytes())
        for i, mode in enumerate(rows.estimated_mode)
    ]


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
    x_i = Zonotope(x_est, np.diag(np.abs(residual) + dyn.v_bounds))
    a_norm = float(np.max(np.sum(np.abs(dyn.a), axis=1)))
    sigma = sigma_sum(a_norm, delta, dyn.step_bound)
    return x_i, inflate(linear_map(np.linalg.matrix_power(dyn.a, delta), x_i), sigma)


@st.composite
def horizon_case(draw):
    """A random 2-D or 3-D mode, horizon, estimate and residual.

    The invariant sits at a corner of the reach set's hull, where hull
    overlap and set overlap part ways. Zero noise and zero-width invariant
    axes come up often, so modes whose reach set less the invariant can be
    flat, which the detector refuses, are drawn too.
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


def detector_unless_flat(model, delta):
    """The one-mode model's detector at horizon delta, or None when it is refused.

    A refusal holds only for a mode that is flat at zero residual: the
    explicit reach set of the box c +/- v, with the invariant's
    positive-width axes, spans fewer than n dimensions.
    """
    try:
        detector = Detector(model, deltas={1: delta})
    except HorizonError as error:
        n = model.dim
        _, reach_set = _reference_reach(model, delta, np.zeros(n), np.zeros(n))
        lo, hi = model.invariant(1).bounds()
        spans = np.vstack([reach_set.generators, np.eye(n)[hi > lo]])
        assert np.linalg.matrix_rank(spans) < n, error
        assert "can be flat" in str(error)
        event("refused: flat at zero residual")
        return None
    event("table")
    return detector


class TestHorizonTable:
    """Detector verdicts against the explicit reach set decided by a linear program."""

    @settings(max_examples=300, deadline=None)
    @given(horizon_case())
    def test_verdicts_match_reference(self, case):
        model, delta, x_est, residual = case
        detector = detector_unless_flat(model, delta)
        if detector is None:
            return
        x_i, reach_set = _reference_reach(model, delta, x_est, residual)
        invariant = model.invariant(1).intervals
        distance = box_distance(reach_set, invariant)
        assume(abs(distance) > 1e-6)  # the program's own tolerance decides contact
        rows = one_row(detector, (1,), True, x_est, residual)
        assert rows.conflict_c[0] == (distance > 0.0)
        assert rows.conflict_b[0] == (not intersects_box(x_i, invariant))
        assert rows.volume[0] == np.prod(2.0 * np.diag(x_i.generators))

    @settings(max_examples=300, deadline=None)
    @given(touching_case())
    def test_contact_counts_as_meeting(self, case):
        model, x_est, residual = case
        _, reach_set = _reference_reach(model, 1, x_est, residual)
        assert box_distance(reach_set, model.invariant(1).intervals) <= 1e-9
        detector = detector_unless_flat(model, 1)
        if detector is not None:
            assert not one_row(detector, (1,), True, x_est, residual).conflict_c[0]

    def test_flat_mode_refused(self):
        # sigma = 0, and A^2 maps every box onto the axis-0 line, which the
        # invariant's one wide axis does not leave
        model = _one_mode([[0.9, 0.3], [0.0, 0.0]], [0.0, 0.0], [0.1, 0.1], [(0.0, 1.0), (0.0, 0.0)])
        with pytest.raises(HorizonError) as refused:
            Detector(model, deltas={1: 2})
        assert str(refused.value) == (
            "mode 1, horizon 2: sigma = 0, and the columns of A^2 on the axes with "
            "measurement noise and the invariant's positive-width axes span 1 of 2 "
            "dimensions, so the reach set less the invariant can be flat"
        )

    def test_thin_mode_with_scaled_columns_accepted(self):
        # the columns of A, [0, 1] and [1e-20, 0], read as rank 1 unscaled;
        # scaled by v the reach set at zero residual is a 1e-20 square, not flat
        model = _one_mode([[0.0, 1e-20], [1.0, 0.0]], [0.0, 0.0], [1e-20, 1.0], [(0.0, 0.0)] * 2)
        detector = Detector(model, deltas={1: 1})
        assert isinstance(detector._tables[1], _HorizonTable)
        assert not one_row(detector, (1,), True, [0.0, 0.0], [0.0, 0.0]).conflict_c[0]
        assert one_row(detector, (1,), True, [5.0, 5.0], [0.0, 0.0]).conflict_c[0]

    def test_eight_dimensional_mode_refused(self):
        # 8 columns of A and 8 axes give C(16, 7) = 11,440 normal subsets
        model = _one_mode(
            (0.5 * np.eye(8)).tolist(), [0.01] * 8, [0.1] * 8, [(-1.0, 1.0)] * 8
        )
        with pytest.raises(HorizonError) as refused:
            Detector(model, deltas={1: 1})
        assert str(refused.value) == (
            "mode 1, horizon 1: the separating-axis table in 8 dimensions needs more "
            "than MAX_NORMAL_SUBSETS = 4096 normal subsets"
        )


TG_NODES = ((1,), (2,), (3,), (1, 2, 3), (2, 3))
TG_EVENTS = (None, ("c_down", "s_1"), ("c_up", "s_2"), ("c_next", "s_3"), ("c_up", "s_1"))
# positions anywhere on the track, or near a guard, where slabs and faces decide
TG_POSITIONS = st.one_of(
    st.floats(-5.0, 85.0), *(st.floats(g - 1.0, g + 1.0) for g in (45.0, 75.0, 80.0))
)


@st.composite
def tg_block(draw):
    """Train-gate rows: every node kind, settled or not, with and without events."""
    rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from(TG_NODES),
                st.booleans(),
                st.sampled_from(TG_EVENTS),
                TG_POSITIONS,
                st.floats(-0.5, 2.0),
                st.floats(-0.4, 0.4),
                st.floats(-0.4, 0.4),
            ),
            min_size=1,
            max_size=140,
        )
    )
    nodes, steady, events, px, vx, r0, r1 = zip(*rows)
    return nodes, np.array(steady), np.column_stack([px, vx]), np.column_stack([r0, r1]), events


@st.composite
def mode_block(draw):
    """A random 2-D or 3-D mode and horizon, and a block of its rows.

    Zero-noise modes and zero-width invariant axes are included.
    """
    model, delta, x_est, residual = draw(horizon_case())
    n = model.dim
    k = draw(st.integers(1, 12))
    offsets = np.array(draw(st.lists(st.floats(-0.5, 0.5), min_size=k * n, max_size=k * n)))
    scales = np.array(draw(st.lists(st.floats(0.0, 1.5), min_size=k * n, max_size=k * n)))
    steady = np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)))
    centers = np.asarray(x_est) + offsets.reshape(k, n)
    residuals = np.asarray(residual) * scales.reshape(k, n)
    return model, delta, ((1,),) * k, steady, centers, residuals, (None,) * k


def _assert_block_equals_rows(detector, nodes, steady, centers, residuals, events):
    block = _rows(detector.evaluate_rows(nodes, steady, centers, residuals, events))
    for i, node in enumerate(nodes):
        args = (node, steady[i], centers[i], residuals[i], events[i])
        mode, warming, a, b, c, vol = reference_verdict(detector, *args)
        reference = (mode, warming, a, b, c, np.float64(vol).tobytes())
        assert block[i] == _rows(one_row(detector, *args))[0] == reference


class TestEvaluateRows:
    """A block's verdicts are its rows' verdicts, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(tg_block())
    def test_train_gate_block(self, tg_machinery, block):
        _assert_block_equals_rows(tg_machinery[0], *block)

    @settings(max_examples=150, deadline=None)
    @given(mode_block())
    def test_random_mode_block(self, block):
        model, delta, *rows = block
        detector = detector_unless_flat(model, delta)
        if detector is not None:
            _assert_block_equals_rows(detector, *rows)

    def test_fallback_mode_block(self):
        # sigma = 0 with a zero-width invariant axis, which the detector once
        # decided per sample with `intersects_box`: A^2 is invertible, so the
        # reach set less the invariant is never flat and the mode has a table
        model = _one_mode([[1.0, 0.5], [0.0, 1.0]], [0.0, 0.0], [0.1, 0.1], [(0.0, 1.0), (0.5, 0.5)])
        detector = Detector(model, deltas={1: 2})
        assert isinstance(detector._tables[1], _HorizonTable)
        centers = np.array([[0.5, 0.5], [0.2, 0.5], [3.0, 0.5]])
        _assert_block_equals_rows(
            detector, ((1,),) * 3, np.ones(3, dtype=bool), centers, np.zeros((3, 2)), (None,) * 3
        )
        rows = detector.evaluate_rows(((1,),) * 3, [True] * 3, centers, np.zeros((3, 2)), (None,) * 3)
        invariant = model.invariant(1).intervals
        for center, flagged in zip(centers, rows.conflict_c):
            _, reach_set = _reference_reach(model, 2, center, np.zeros(2))
            assert flagged == (not intersects_box(reach_set, invariant))
        assert rows.conflict_c.tolist() == [False, False, True]

    def test_run_builds_no_zonotope(self, monkeypatch):
        # sigma = 0 and a pinned invariant axis: the run decides every horizon
        # check from the table, with no zonotope or reach set
        model = _one_mode([[0.5, 0.0], [0.5, 0.5]], [0.0, 0.0], [0.1, 0.1], [(-1.0, 1.0), (0.0, 0.0)])
        config = ScenarioConfig(
            model=model, controller=ConstantController((0.0,)), initial_state=(0.8, 0.0),
            initial_mode=1, duration=30.0, seed=1,
        )

        def refuse(*args, **kwargs):
            raise AssertionError("zonotope machinery called")

        for module in (hybridmon.reachability, hybridmon.conflicts):
            for name in ("Zonotope", "reach", "intersects_box"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        trace = simulate(config, detector=Detector(model, deltas={1: 2})).trace
        monkeypatch.undo()
        settled = np.flatnonzero(trace.steady)
        assert len(settled) == 29 and 0 < trace.conflict_c[settled].sum() < 29
        for i in settled:
            _, reach_set = _reference_reach(model, 2, trace.x_est[i], trace.residual[i])
            assert trace.conflict_c[i] == (not intersects_box(reach_set, model.invariant(1).intervals))

    def test_shape_mismatch_rejected(self, tg_machinery):
        with pytest.raises(ValueError, match="do not match"):
            tg_machinery[0].evaluate_rows(
                ((1,),), np.array([True]), np.zeros((1, 2)), np.zeros((1, 3)), (None,)
            )


class TestEventCheck:
    """Conflict C on the sample whose state fires a sensor event."""

    EVENT = ("c_down", "s_1")  # exit of state 1: guard at 45 m on the position axis

    @pytest.fixture(scope="class")
    def detector(self, tg_model, tg_deltas):
        return Detector(tg_model, deltas=tg_deltas)

    @pytest.fixture(scope="class")
    def epsilon(self, tg_model):
        return facet_epsilon(tg_model, tg_model.transitions_from(1)[0])

    def test_late_crossing_flags_c(self, detector):
        # the box [45.58, 45.82] lies past the overshoot slab [45, 45.21]
        x_est, r = (45.7, 0.2), (0.02, 0.01)
        assert not one_row(detector, (1,), True, x_est, r).alarm[0]
        rows = one_row(detector, (1,), True, x_est, r, self.EVENT)
        assert rows.conflict_c[0]
        assert not (rows.conflict_a[0] or rows.conflict_b[0])

    def test_early_crossing_flags_c(self, detector):
        # the box [44.18, 44.42] lies short of the guard
        x_est, r = (44.3, 1.0), (0.02, 0.01)
        assert not one_row(detector, (1,), True, x_est, r).alarm[0]
        rows = one_row(detector, (1,), True, x_est, r, self.EVENT)
        assert rows.conflict_c[0]
        assert not (rows.conflict_a[0] or rows.conflict_b[0])

    def test_nominal_crossing_is_silent(self, tg_model, detector, epsilon):
        # without an attack the box holds the true state, and a firing state
        # lies in the slab, whatever the estimation error
        rng = np.random.default_rng(3)
        v = tg_model.dynamics(1).v_bounds
        for _ in range(500):
            x = np.array([rng.uniform(45.0, epsilon), rng.uniform(0.0, 1.5)])
            y = x + rng.uniform(-v, v)
            x_est = x + rng.uniform(-0.3, 0.3, size=2)
            rows = one_row(detector, (1, 2, 3), True, x_est, y - x_est, self.EVENT)
            assert not rows.conflict_c[0]

    def test_ambiguous_node_names_the_source(self, detector):
        # before the first event the node is still (1, 2, 3); the event pair
        # alone picks the transition, so the check runs and names state 1
        rows = one_row(detector, (1, 2, 3), True, (44.3, 1.0), (0.02, 0.01), self.EVENT)
        assert rows.warming_up[0]
        assert rows.conflict_c[0]
        assert rows.estimated_mode == (1,)

    def test_unsettled_estimate_skips_the_check(self, detector):
        rows = one_row(detector, (1,), False, (44.3, 1.0), (0.02, 0.01), self.EVENT)
        assert not rows.alarm[0]

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
        rows = one_row(detector, (1, 2, 3), True, (x_est, 1.0), (y - x_est, 0.0), self.EVENT)
        assert rows.conflict_c[0]


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


def _peak_above_inputs(call):
    """Peak bytes that tracemalloc sees call allocate, after one warm-up call."""
    call()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestBlockMemory:
    """A block's monitor pass holds only the arrays it still reads."""

    def test_evaluate_rows_peak(self):
        # a settled 128-row block in mode 2 of the 3-D crossing: 51.3 KB
        # when the pass kept a per-row noise array and the box bounds
        # through the horizon check, 33.5 KB without them
        model = load_model(Path(__file__).resolve().parents[1] / "monbench" / "nd_actuator.json")
        detector = Detector(model)
        k = 128
        rng = np.random.default_rng(0)
        centers = np.array([60.0, 0.3, 0.2]) + rng.uniform(-0.05, 0.05, (k, 3))
        residuals = rng.uniform(-0.1, 0.1, (k, 3))
        args = (((2,),) * k, np.ones(k, dtype=bool), centers, residuals, (None,) * k)
        rows = detector.evaluate_rows(*args)
        assert not rows.warming_up.any() and not rows.alarm.any()
        peak = _peak_above_inputs(lambda: detector.evaluate_rows(*args))
        assert peak < 42_000, peak

    def test_misses_peak(self):
        # a 5-D table, M = 210 normals, k = 128 rows: 3.31 k x M float
        # arrays at peak with four product arrays live, 2.31 with two
        rng = np.random.default_rng(0)
        a = rng.uniform(-1.0, 1.0, (5, 5))
        m = separating_normals(a.T) @ a
        assert m.shape == (210, 5)
        table = _HorizonTable(m=m, m_abs=np.abs(m), slack=np.ones(210), n_mid=np.zeros(210))
        centers, half = rng.normal(size=(128, 5)), np.abs(rng.normal(size=(128, 5)))
        peak = _peak_above_inputs(lambda: table.misses(centers, half))
        assert peak < 2.8 * 128 * 210 * 8, peak / (128 * 210 * 8)
