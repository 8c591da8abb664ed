"""Horizon operators and search, and the zonotope reference they are tested against."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from lp_reference import box_distance, corner_box, touching_box
from zonotope_reference import Zonotope, box_zonotope, inflate, intersects_box, linear_map, reach

import hybridmon

from hybridmon import (
    Event,
    Guard,
    HorizonError,
    HybridAutomaton,
    Invariant,
    Mode,
    Transition,
    compute_delta,
)
from hybridmon.reachability import (
    _cross_products,
    compute_all_deltas,
    guard_axis_hulls,
    separating_normals,
    sigma_sum,
)


def one_guard(a, w, inv_src, inv_tgt, threshold, b=0.0, mu=0.0):
    return HybridAutomaton(
        modes=(
            Mode(1, [[a]], [[b]], Invariant((inv_src,))),
            Mode(2, [[a]], [[b]], Invariant((inv_tgt,))),
        ),
        events=(Event("go", "input"), Event("seen", "output")),
        transitions=(Transition(1, "go", "seen", 2, Guard(axis=0, sign=1, threshold=threshold)),),
        w_bounds=[w],
        v_bounds=[0.1],
        input_bound=mu,
        dwell_time=1,
        sampling_period=1.0,
        theta=0.05,
    )


class TestZonotope:
    def test_shape_and_hull(self):
        z = Zonotope(center=[1.0, 2.0], generators=[[0.5, 0.0], [0.1, 0.2]])
        assert z.dim == 2 and len(z.generators) == 2
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


class TestBoxZonotope:
    def test_round_trip_hull(self):
        z = box_zonotope([0.0, -1.0], [2.0, 3.0])
        lo, hi = z.interval_hull()
        np.testing.assert_allclose(lo, [0.0, -1.0])
        np.testing.assert_allclose(hi, [2.0, 3.0])
        assert z.is_axis_aligned()

    def test_zero_width_axes_get_no_generator(self):
        z = box_zonotope([1.0, 2.0], [1.0, 4.0])
        assert len(z.generators) == 1
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
        assert tg_model.step_bounds[1] == pytest.approx(0.06, abs=1e-15)

    def test_geometric_sum_frozen(self):
        # 0.06 * (1.1^d - 1) / 0.1 for the crossing model's row-sum norm
        assert sigma_sum(1.1, 8, 0.06) == pytest.approx(0.6861532860000001, abs=1e-12)
        assert sigma_sum(1.1, 9, 0.06) == pytest.approx(0.8147686146000003, abs=1e-12)

    def test_norm_one_analytic_limit(self):
        assert sigma_sum(1.0, 5, 0.06) == pytest.approx(0.30, abs=1e-15)
        assert sigma_sum(1.0 + 1e-13, 5, 0.06) == pytest.approx(0.30, abs=1e-15)

    def test_zero_steps(self):
        assert sigma_sum(1.1, 0, 0.06) == 0.0

    def test_no_inflation_never_overflows(self):
        # 1.1 ** 7448 overflows a float; without inflation nothing is summed
        assert sigma_sum(1.1, 10_000, 0.0) == 0.0


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
        mode = tg_model.mode(1)
        z0 = box_zonotope([10.0, 0.5], [12.0, 0.7])
        delta = 6
        tube = reach(tg_model, 1, z0, delta)
        for _ in range(50):
            x = rng.uniform([10.0, 0.5], [12.0, 0.7])
            for _ in range(delta):
                u = rng.uniform(-tg_model.input_bound, tg_model.input_bound, size=1)
                w = rng.uniform(-np.array(tg_model.w_bounds), tg_model.w_bounds)
                x = mode.a @ x + mode.b @ u + w
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

    def test_three_dimensional_segment(self):
        z = Zonotope([0.0, 0.0, 0.0], [[1.0, 1.0, 1.0]])
        assert intersects_box(z, [(0.9, 1.1), (0.9, 1.1), (0.9, 1.1)])
        assert not intersects_box(z, [(0.9, 1.1), (0.9, 1.1), (-1.1, -0.9)])

    def test_flat_difference_takes_the_axes(self):
        # a segment against single points: Z + (-box) is the segment itself,
        # whose normals are cross products of its generator with the axes
        z = Zonotope([0.0, 0.0, 0.0], [[1.0, 1.0, 1.0]])
        assert intersects_box(z, [(0.5, 0.5), (0.5, 0.5), (0.5, 0.5)])
        assert intersects_box(z, [(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)])  # end point
        assert not intersects_box(z, [(0.5, 0.5), (0.5, 0.5), (0.4, 0.4)])

    def test_axis_generators_add_no_direction(self):
        # the reach set of a 7-D box: six slanted generators, one along an
        # axis and the sigma-ball's seven axis rows; only the slanted ones
        # and the axes count, C(13, 6) = 1716 subsets where 14 rows and the
        # axes would need C(21, 6) = 54264
        a = np.eye(7) + np.diag(np.full(6, 0.5), k=1)
        z = inflate(linear_map(a, box_zonotope(np.zeros(7), np.ones(7))), 0.25)
        assert len(z.generators) == 14
        assert intersects_box(z, [(0.5, 1.0)] * 7)
        assert intersects_box(z, [(-0.25, -0.25)] * 7)  # a vertex
        assert not intersects_box(z, [(1.5, 1.5)] * 7)  # inside the hull
        assert not intersects_box(z, [(1.5, 1.5)] * 6 + [(-0.25, -0.25)])

    def test_too_many_directions_refused(self):
        # eight slanted generators and the eight axes: C(16, 7) = 11440 subsets
        generators = np.eye(8) + np.roll(np.eye(8), 1, axis=1)
        z = Zonotope(np.zeros(8), generators)
        with pytest.raises(ValueError) as refused:
            intersects_box(z, [(0.5, 0.5)] * 8)
        assert str(refused.value) == (
            "8-D zonotope: the separating-axis check over 16 directions needs more "
            "than MAX_NORMAL_SUBSETS = 4096 normal subsets"
        )


def _det(m):
    """Determinants of a stack (..., k, k) by recursive cofactor expansion along the first row."""
    k = m.shape[-1]
    if k == 0:
        return np.ones(m.shape[:-2])
    return sum(
        (-1.0) ** j * m[..., 0, j] * _det(np.delete(m[..., 1:, :], j, axis=-1))
        for j in range(k)
    )


def reference_cross_products(stacks):
    """The n signed cofactors of each (n-1, n) stack, every minor expanded afresh."""
    n = stacks.shape[-1]
    return np.stack(
        [(-1.0) ** k * _det(np.delete(stacks, k, axis=-1)) for k in range(n)], axis=-1
    )


class TestSeparatingNormals:
    def test_minor_table_has_the_bits_of_the_recursion(self):
        # 2-D to 6-D stacks of dyadic or uniform entries with 0.0 and -0.0
        # scattered in: the table does the recursion's products and sums in
        # its order, so even the sign of a zero agrees
        rng = np.random.default_rng(21)
        for _ in range(300):
            n = int(rng.integers(2, 7))
            stacks = rng.uniform(-1.0, 1.0, size=(int(rng.integers(1, 20)), n - 1, n))
            if rng.random() < 0.5:
                stacks = np.round(stacks * 16.0) / 16.0
            zeros = rng.random(stacks.shape)
            stacks[zeros < 0.2] = 0.0
            stacks[zeros > 0.85] = -0.0
            got = _cross_products(stacks)
            assert got.tobytes() == reference_cross_products(stacks).tobytes()

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

    def test_flat_directions_get_the_axes_normals(self):
        # collinear rows span one dimension; with the axes appended they give
        # (1, 1, 0) x e1, (1, 1, 0) x e3, e1 x e3 and e2 x e3, the normals
        # of the segment thickened by a small cube
        normals = separating_normals(np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]]))
        assert normals.tolist() == [[0.0, 0.0, -0.5], [0.5, -0.5, 0.0], [0.0, -0.5, 0.0], [0.5, 0.0, 0.0]]

    def test_past_the_cap_gives_none(self):
        assert separating_normals(np.ones((9, 8))) is None  # C(17, 7) = 19448 subsets
        assert separating_normals(np.ones((6, 8))) is not None  # C(14, 7) = 3432


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


@st.composite
def dyadic_flat_case(draw):
    """A dyadic segment or plane in 3-D or 4-D and a dyadic point on it.

    Sixteenths times eighths sum exactly, so the point lies on the set in
    floating point too.
    """
    n = draw(st.sampled_from([3, 4]))
    sixteenths = st.integers(-16, 16).map(lambda k: k / 16.0)
    order = draw(st.integers(1, 2))
    z = Zonotope(
        center=[draw(sixteenths) for _ in range(n)],
        generators=[[draw(sixteenths) for _ in range(n)] for _ in range(order)],
    )
    alpha = np.array([draw(st.integers(-8, 8)) / 8.0 for _ in range(order)])
    return z, z.center + alpha @ z.generators


class TestIntersectsBoxAgainstProgram:
    """The separating-axis decision against an independent linear program."""

    @settings(max_examples=6 * settings.default.max_examples, deadline=None)
    @given(zonotope_and_box())
    def test_random_zonotopes(self, case):
        z, box = case
        distance = box_distance(z, box)
        assume(abs(distance) > 1e-6)  # the program's own tolerance decides contact
        assert intersects_box(z, box) == (distance <= 0.0)

    @settings(max_examples=4 * settings.default.max_examples, deadline=None)
    @given(dyadic_zonotope_and_direction())
    def test_touching_boxes_intersect(self, case):
        z, direction, widths = case
        box = touching_box(z, direction, widths)
        assert box_distance(z, box) <= 1e-9
        assert intersects_box(z, box)

    @settings(max_examples=4 * settings.default.max_examples, deadline=None)
    @given(dyadic_flat_case())
    def test_points_on_flat_sets_meet(self, case):
        z, point = case
        assert intersects_box(z, [(x, x) for x in point.tolist()])


def test_import_leaves_the_solver_unloaded():
    # numpy is the only runtime dependency: with scipy refused by the import
    # system, a run and the analyses still work
    src = str(Path(hybridmon.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "class Refuse:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.partition('.')[0] == 'scipy':\n"
        "            raise ModuleNotFoundError(f'{name} is refused')\n"
        "sys.meta_path.insert(0, Refuse())\n"
        "import hybridmon\n"
        "model = hybridmon.train_gate_model()\n"
        "result = hybridmon.simulate(hybridmon.train_gate_scenario(seed=0, duration=20.0))\n"
        "hybridmon.state_guarantees(model)\n"
        "hybridmon.synthesize_gains(model)\n"
        "print(result.summary.samples)\n"
        "print(any(name.partition('.')[0] == 'scipy' for name in sys.modules))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["200", "False"]


def one_mode(a, b, w, mu):
    """A model of one mode with the given dynamics and no transition."""
    n = len(a)
    return HybridAutomaton(
        modes=(Mode(0, a, b, Invariant(((-100.0, 100.0),) * n)),),
        events=(),
        transitions=(),
        w_bounds=w,
        v_bounds=[0.1] * n,
        input_bound=mu,
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

    @settings(max_examples=4 * settings.default.max_examples, deadline=None)
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
        # ||B|| overflows, so sigma is infinite: the step-1 hull is not finite
        # (reach's inflation gives NaN for n > 1, from 0 * inf), and the
        # search stops there instead of computing it
        model = one_mode(np.eye(n), [[1e308, 1e308]] * n, [0.0] * n, 1.0)
        lo = hi = np.zeros(n)
        with np.errstate(over="ignore"), pytest.raises(HorizonError) as refused:
            next(guard_axis_hulls(model, 0, lo, hi, 0))
        assert str(refused.value) == (
            "mode 0, axis 0: the reach hull at step 1 is [-inf, inf], which is not finite"
        )

    def test_inverted_box_rejected(self):
        model = one_mode([[1.0]], [[0.0]], [0.0], 0.0)
        with pytest.raises(ValueError, match="lo > hi"):
            next(guard_axis_hulls(model, 0, np.array([1.0]), np.array([0.0]), 0))


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
        with pytest.raises(HorizonError, match="no\\s+contact .* within 10000 steps$"):
            compute_delta(model, regions, 1)
