"""Zonotope algebra, reachable-set over-approximation, horizon search."""

import subprocess
import sys
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from lp_reference import box_distance, corner_box, touching_box

import hybridmon

from hybridmon import (
    Event,
    Guard,
    HorizonError,
    HybridAutomaton,
    Invariant,
    LtiDynamics,
    Mode,
    Transition,
    Zonotope,
    box_zonotope,
    compute_delta,
    inflate,
    intersects_box,
    linear_map,
    reach,
)
from hybridmon import guarantees, reachability
from hybridmon.reachability import (
    compute_all_deltas,
    guard_axis_hulls,
    separating_normals,
    sigma_sum,
    step_bound,
)


def one_guard(a, w, inv_src, inv_tgt, threshold, b=0.0, mu=0.0):
    return HybridAutomaton(
        modes=(
            Mode(
                1,
                LtiDynamics(a=[[a]], b=[[b]], w_bounds=[w], v_bounds=[0.1], input_bound=mu),
                Invariant((inv_src,)),
            ),
            Mode(
                2,
                LtiDynamics(a=[[a]], b=[[b]], w_bounds=[w], v_bounds=[0.1], input_bound=mu),
                Invariant((inv_tgt,)),
            ),
        ),
        events=(Event("go", "input"), Event("seen", "output")),
        transitions=(Transition(1, "go", "seen", 2, Guard(axis=0, sign=1, threshold=threshold)),),
        dwell_time=1,
        sampling_period=1.0,
        theta=0.05,
    )


class TestZonotope:
    def test_shape_and_hull(self):
        z = Zonotope(center=[1.0, 2.0], generators=[[0.5, 0.0], [0.1, 0.2]])
        assert z.dim == 2 and z.order == 2
        lo, hi = z.interval_hull()
        np.testing.assert_allclose(lo, [0.4, 1.8])
        np.testing.assert_allclose(hi, [1.6, 2.2])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="generator dimension"):
            Zonotope(center=[0.0, 0.0], generators=[[1.0, 0.0, 0.0]])

    def test_arrays_are_readonly(self):
        z = Zonotope(center=[0.0], generators=[[1.0]])
        with pytest.raises(ValueError):
            z.center[0] = 5.0

    def test_axis_alignment(self):
        assert Zonotope([0.0, 0.0], [[1.0, 0.0], [0.0, 2.0]]).is_axis_aligned()
        assert not Zonotope([0.0, 0.0], [[1.0, 1.0]]).is_axis_aligned()
        assert Zonotope([0.0, 0.0], np.zeros((0, 2))).is_axis_aligned()

    def test_support(self):
        z = Zonotope(center=[1.0, 0.0], generators=[[1.0, 1.0]])
        lo, hi = z.support(np.array([1.0, -1.0]))
        # the generator is orthogonal to the direction, so a single point
        assert lo == hi == 1.0
        lo, hi = z.support(np.array([1.0, 1.0]))
        assert (lo, hi) == (-1.0, 3.0)


class TestBoxZonotope:
    def test_round_trip_hull(self):
        z = box_zonotope([0.0, -1.0], [2.0, 3.0])
        lo, hi = z.interval_hull()
        np.testing.assert_allclose(lo, [0.0, -1.0])
        np.testing.assert_allclose(hi, [2.0, 3.0])
        assert z.is_axis_aligned()

    def test_zero_width_axes_get_no_generator(self):
        z = box_zonotope([1.0, 2.0], [1.0, 4.0])
        assert z.order == 1
        np.testing.assert_allclose(z.center, [1.0, 3.0])

    def test_inverted_box_rejected(self):
        with pytest.raises(ValueError, match="lo > hi"):
            box_zonotope([1.0], [0.0])


class TestLinearMapInflate:
    def test_rotation_maps_vertices(self):
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        z = linear_map(rot, box_zonotope([-1.0, -2.0], [1.0, 2.0]))
        lo, hi = z.interval_hull()
        np.testing.assert_allclose(lo, [-2.0, -1.0])
        np.testing.assert_allclose(hi, [2.0, 1.0])
        # support along the rotated first axis stays the original width
        assert z.support(np.array([0.0, 1.0])) == (-1.0, 1.0)

    def test_inflate_grows_hull_by_radius(self):
        z = box_zonotope([0.0], [1.0])
        grown = inflate(z, 0.25)
        lo, hi = grown.interval_hull()
        assert (lo[0], hi[0]) == (-0.25, 1.25)

    def test_inflate_zero_returns_same_object(self):
        z = box_zonotope([0.0], [1.0])
        assert inflate(z, 0.0) is z

    def test_inflate_negative_rejected(self):
        with pytest.raises(ValueError):
            inflate(box_zonotope([0.0], [1.0]), -0.1)


class TestSigmaSum:
    def test_train_gate_per_step_bound(self, tg_model):
        # ||B|| mu + w = 0.05 * 1.0 + 0.01
        assert step_bound(tg_model, 1) == pytest.approx(0.06, abs=1e-15)

    def test_geometric_sum_frozen(self):
        # 0.06 * (1.1^d - 1) / 0.1 for the crossing model's row-sum norm
        assert sigma_sum(1.1, 8, 0.06) == pytest.approx(0.6861532860000001, abs=1e-12)
        assert sigma_sum(1.1, 9, 0.06) == pytest.approx(0.8147686146000003, abs=1e-12)

    def test_norm_one_analytic_limit(self):
        assert sigma_sum(1.0, 5, 0.06) == pytest.approx(0.30, abs=1e-15)
        assert sigma_sum(1.0 + 1e-13, 5, 0.06) == pytest.approx(0.30, abs=1e-15)

    def test_zero_steps(self):
        assert sigma_sum(1.1, 0, 0.06) == 0.0


class TestReach:
    def test_zero_steps_is_identity(self, tg_model):
        z = box_zonotope([44.9, 0.1], [45.1, 0.3])
        assert reach(tg_model, 1, z, 0) is z

    def test_negative_steps_rejected(self, tg_model):
        with pytest.raises(ValueError):
            reach(tg_model, 1, box_zonotope([0.0, 0.0], [1.0, 1.0]), -1)

    def test_one_step_hull_by_hand(self, tg_model):
        z = box_zonotope([44.9, 0.1], [45.1, 0.3])
        lo, hi = reach(tg_model, 1, z, 1).interval_hull()
        # A [45, .2] = [45.02, .19]; generator radii (0.1, 0) and (0.01, 0.095);
        # plus the 0.06 inflation on both axes
        np.testing.assert_allclose(lo, [44.85, 0.035], atol=1e-12)
        np.testing.assert_allclose(hi, [45.19, 0.345], atol=1e-12)

    def test_hulls_nest_with_horizon(self, tg_model):
        z = box_zonotope([44.9, 0.1], [45.1, 0.3])
        prev_lo, prev_hi = reach(tg_model, 1, z, 0).interval_hull()
        for delta in range(1, 13):
            lo, hi = reach(tg_model, 1, z, delta).interval_hull()
            assert np.all(lo <= prev_lo + 1e-12)
            assert np.all(hi >= prev_hi - 1e-12)
            prev_lo, prev_hi = lo, hi

    def test_sampled_trajectories_stay_inside(self, tg_model):
        rng = np.random.default_rng(42)
        dyn = tg_model.dynamics(1)
        z0 = box_zonotope([10.0, 0.5], [12.0, 0.7])
        delta = 6
        tube = reach(tg_model, 1, z0, delta)
        for _ in range(50):
            x = rng.uniform([10.0, 0.5], [12.0, 0.7])
            for _ in range(delta):
                u = rng.uniform(-dyn.input_bound, dyn.input_bound, size=1)
                w = rng.uniform(-dyn.w_bounds, dyn.w_bounds)
                x = dyn.a @ x + dyn.b @ u + w
            assert intersects_box(tube, [(x[0], x[0]), (x[1], x[1])])


class TestIntersectsBox:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            intersects_box(box_zonotope([0.0], [1.0]), [(0.0, 1.0), (0.0, 1.0)])

    def test_hull_quick_reject(self):
        z = Zonotope([0.0, 0.0], [[1.0, 1.0]])
        assert not intersects_box(z, [(5.0, 6.0), (0.0, 1.0)])

    def test_axis_aligned_boundary_contact(self):
        z = box_zonotope([0.0, 0.0], [1.0, 1.0])
        assert intersects_box(z, [(1.0, 2.0), (1.0, 2.0)])  # corner touch
        assert not intersects_box(z, [(1.0 + 1e-9, 2.0), (0.0, 1.0)])

    def test_diamond_misses_corner_box(self):
        # hulls overlap but the diamond x: |x|+|y| <= 1 stays clear
        z = Zonotope([0.0, 0.0], [[0.5, 0.5], [0.5, -0.5]])
        assert not intersects_box(z, [(0.8, 1.0), (0.8, 1.0)])
        assert intersects_box(z, [(0.4, 1.0), (0.4, 1.0)])  # touches at (.5, .5)

    def test_segment_separating_axis(self):
        z = Zonotope([0.0, 0.0], [[1.0, 1.0]])  # segment y = x
        assert not intersects_box(z, [(0.5, 1.0), (-0.2, -0.1)])
        assert intersects_box(z, [(0.4, 0.6), (0.4, 0.6)])

    def test_three_dimensional_lp_fallback(self):
        z = Zonotope([0.0, 0.0, 0.0], [[1.0, 1.0, 1.0]])
        assert intersects_box(z, [(0.9, 1.1), (0.9, 1.1), (0.9, 1.1)])
        assert not intersects_box(z, [(0.9, 1.1), (0.9, 1.1), (-1.1, -0.9)])

    def test_flat_difference_solves_the_program(self):
        # a segment against single points: Z + (-box) is the segment itself,
        # whose normals are not cross products of its one generator
        z = Zonotope([0.0, 0.0, 0.0], [[1.0, 1.0, 1.0]])
        assert intersects_box(z, [(0.5, 0.5), (0.5, 0.5), (0.5, 0.5)])
        assert intersects_box(z, [(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)])  # end point
        assert not intersects_box(z, [(0.5, 0.5), (0.5, 0.5), (0.4, 0.4)])


class TestSeparatingNormals:
    def test_plane_gives_perpendiculars(self):
        normals = separating_normals(np.array([[1.0, 2.0], [1.0, 0.0], [0.0, 1.0]]))
        assert normals.tolist() == [[0.5, -0.25], [0.0, -0.5], [0.5, 0.0]]  # powers of two apart

    def test_space_gives_pairwise_cross_products(self):
        # C(6, 2) = 15 pairs over a generic A's columns and the axes, none
        # zero or parallel to another
        a = np.array([[1.0, 0.3, 0.2], [0.1, 0.9, 0.4], [0.5, 0.2, 0.8]])
        directions = np.vstack([a.T, np.eye(3)])
        normals = separating_normals(directions)
        assert normals.shape == (15, 3)
        pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        for (i, j), normal in zip(pairs, normals):
            cross = np.cross(directions[i], directions[j])
            scale = np.max(np.abs(cross)) / np.max(np.abs(normal))
            np.testing.assert_allclose(normal * scale, cross)

    def test_zero_and_parallel_products_dropped(self):
        normals = separating_normals(np.vstack([np.eye(3), [[2.0, 0.0, 0.0]]]))
        assert normals.tolist() == [[0.0, 0.0, 0.5], [0.0, -0.5, 0.0], [0.5, 0.0, 0.0]]

    def test_flat_directions_give_none(self):
        assert separating_normals(np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]])) is None


def _zonotope(draw, n: int) -> Zonotope:
    order = draw(st.integers(1, 6))
    unit = st.floats(-1.0, 1.0)
    return Zonotope(
        center=[draw(st.floats(-2.0, 2.0)) for _ in range(n)],
        generators=[[draw(unit) for _ in range(n)] for _ in range(order)],
    )


@st.composite
def zonotope_and_box(draw):
    """A random 3-D or 4-D zonotope and a box at a corner of its hull."""
    n = draw(st.sampled_from([3, 4]))
    z = _zonotope(draw, n)
    signs = [draw(st.sampled_from([-1, 1])) for _ in range(n)]
    depths = np.array([draw(st.floats(-0.1, 0.6)) for _ in range(n)])
    widths = np.array([draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0))) for _ in range(n)])
    return z, corner_box(z, signs, depths, widths)


@st.composite
def dyadic_zonotope_and_direction(draw):
    n = draw(st.sampled_from([3, 4]))
    sixteenths = st.integers(-16, 16).map(lambda k: k / 16.0)
    order = draw(st.integers(1, 6))
    z = Zonotope(
        center=[draw(sixteenths) for _ in range(n)],
        generators=[[draw(sixteenths) for _ in range(n)] for _ in range(order)],
    )
    direction = [draw(st.integers(-3, 3)) for _ in range(n)]
    assume(any(direction))
    widths = [draw(st.integers(0, 8)) / 8.0 for _ in range(n)]
    return z, direction, widths


class TestIntersectsBoxAgainstProgram:
    """The separating-axis decision against an independent linear program."""

    @settings(max_examples=300, deadline=None)
    @given(zonotope_and_box())
    def test_random_zonotopes(self, case):
        z, box = case
        distance = box_distance(z, box)
        assume(abs(distance) > 1e-6)  # the program's own tolerance decides contact
        assert intersects_box(z, box) == (distance <= 0.0)

    @settings(max_examples=200, deadline=None)
    @given(dyadic_zonotope_and_direction())
    def test_touching_boxes_intersect(self, case):
        z, direction, widths = case
        box = touching_box(z, direction, widths)
        assert box_distance(z, box) <= 1e-9
        assert intersects_box(z, box)


def test_import_leaves_the_solver_unloaded():
    # the solver package is most of the import time; only flat or very
    # high-order intersection tests load it, and the detector never does
    src = str(Path(hybridmon.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "import hybridmon\n"
        "loaded = 'scipy.optimize' in sys.modules\n"
        "detector = hybridmon.Detector(hybridmon.train_gate_model())\n"
        "detector.evaluate(0, (1,), True, (10.0, 1.0), (0.02, -0.01))\n"
        "print(loaded, 'scipy.optimize' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "False"]


def one_mode(a, b, w, mu):
    """A model of one mode with the given dynamics and no transition."""
    n = len(a)
    dyn = LtiDynamics(a=a, b=b, w_bounds=w, v_bounds=[0.1] * n, input_bound=mu)
    return HybridAutomaton(
        modes=(Mode(0, dyn, Invariant(((-100.0, 100.0),) * n)),),
        events=(),
        transitions=(),
        dwell_time=1,
        sampling_period=1.0,
        theta=0.05,
    )


@st.composite
def guard_axis_case(draw):
    """A 1-D to 6-D mode, a box whose guard axis has zero width, and that axis.

    A has entries of magnitude 1e-3 to 10, zeros of both signs and whole
    rows of -0.0. Half the cases have sigma = 0 (no noise, no input), the
    others sigma > 0. Other axes of the box have zero width at random.
    """
    n = draw(st.integers(1, 6))
    magnitude = st.floats(1e-3, 10.0)
    entry = st.one_of(
        st.sampled_from([0.0, -0.0]), magnitude, magnitude.map(lambda x: -x)
    )
    a = [
        [-0.0] * n if draw(st.integers(0, 4)) == 0 else [draw(entry) for _ in range(n)]
        for _ in range(n)
    ]
    b = [[draw(entry)] for _ in range(n)]
    if draw(st.booleans()):
        w, mu = [draw(st.sampled_from([0.0, -0.0])) for _ in range(n)], 0.0
    else:
        w, mu = [draw(st.floats(1e-3, 1.0)) for _ in range(n)], draw(st.floats(0.0, 2.0))
    axis = draw(st.integers(0, n - 1))
    lo = [draw(st.floats(-50.0, 50.0)) for _ in range(n)]
    hi = [
        x if i == axis or draw(st.booleans()) else x + draw(st.floats(1e-3, 20.0))
        for i, x in enumerate(lo)
    ]
    return one_mode(a, b, w, mu), lo, hi, axis


class TestGuardAxisHulls:
    """`guard_axis_hulls` has the bits of `reach` and its interval hull on the guard axis."""

    @settings(max_examples=200, deadline=None)
    @given(guard_axis_case())
    def test_equals_reach_hull(self, case):
        model, lo, hi, axis = case
        hulls = guard_axis_hulls(model, 0, np.array(lo), np.array(hi), axis)
        for d, got in zip(range(1, 13), hulls):
            hull = reach(model, 0, box_zonotope(lo, hi), d).interval_hull()
            want = (hull[0][axis], hull[1][axis])
            assert all(isinstance(x, float) for x in got)
            assert np.array(got).tobytes() == np.array(want).tobytes(), d

    @pytest.mark.parametrize("n", [1, 2])
    def test_infinite_sigma_takes_reachs_bounds(self, n):
        # ||B|| overflows, so sigma is infinite: reach's inflation multiplies
        # it by the zeros of the identity, which gives NaN for n > 1
        model = one_mode(np.eye(n), [[1e308, 1e308]] * n, [0.0] * n, 1.0)
        lo = hi = np.zeros(n)
        with np.errstate(over="ignore", invalid="ignore"):
            got = list(islice(guard_axis_hulls(model, 0, lo, hi, 0), 2))
            for d, bounds in enumerate(got, start=1):
                hull = reach(model, 0, box_zonotope(lo, hi), d).interval_hull()
                assert np.array(bounds).tobytes() == np.array([hull[0][0], hull[1][0]]).tobytes()
        assert np.isnan(got[0][1]) if n > 1 else got[0] == (-np.inf, np.inf)

    def test_inverted_box_rejected(self):
        model = one_mode([[1.0]], [[0.0]], [0.0], 0.0)
        with pytest.raises(ValueError, match="lo > hi"):
            next(guard_axis_hulls(model, 0, np.array([1.0]), np.array([0.0]), 0))

    def test_analyses_call_no_reach(self, tg_model, tg_regions, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("reach called")

        monkeypatch.setattr(reachability, "reach", refuse)
        deltas = compute_all_deltas(tg_model, tg_regions)
        mirrored = guarantees._reflect_model(tg_model, 0)
        for model in (tg_model, mirrored):
            hybridmon.state_guarantees(model)
            hybridmon.Detector(model)
        assert deltas == {1: 8, 2: 8, 3: 0}


class TestComputeDelta:
    def test_train_gate_mode_horizons(self, tg_model, tg_regions):
        delta_1, per_guard = compute_delta(tg_model, tg_regions, 1)
        assert delta_1 == 8
        assert per_guard == {(1, "c_down"): 8}
        assert compute_all_deltas(tg_model, tg_regions) == {1: 8, 2: 8, 3: 0}

    def test_guard_on_invariant_face_gives_zero(self, tg_model, tg_regions):
        # mode 3's guard sits on the invariant face at 80
        delta_3, per_guard = compute_delta(tg_model, tg_regions, 3)
        assert delta_3 == 0
        assert per_guard == {(3, "c_next"): 0}

    def test_mode_without_guards_gives_zero(self, tg_model, tg_regions):
        from hybridmon import decompose_regions

        model = one_guard(1.0, 0.0, (0.0, 10.0), (10.0, 12.0), 10.0)
        regions = decompose_regions(model)
        assert compute_delta(model, regions, 2) == (0, {})

    def test_drift_free_unit_chain(self):
        from hybridmon import decompose_regions

        # facet at 5, neighbor face at 6, steps of at most 0.1: nine steps of
        # slack before the tenth reach hull can touch the face
        model = one_guard(1.0, 0.0, (0.0, 6.0), (5.0, 8.0), 5.0, b=1.0, mu=0.1)
        regions = decompose_regions(model)
        assert compute_delta(model, regions, 1) == (9, {(1, "go"): 9})

    def test_contracting_mode_never_reaches(self):
        from hybridmon import decompose_regions

        model = one_guard(0.5, 0.0, (0.0, 6.0), (5.0, 8.0), 5.0)
        regions = decompose_regions(model)
        with pytest.raises(HorizonError, match="no\\s+contact"):
            compute_delta(model, regions, 1, max_delta=50)
