"""Per-guard detection thresholds and the box-optimum closed form."""

import copy
import importlib.util
import math
from pathlib import Path

import analysis_reference
import numpy as np
import pytest
from vertex_reference import oracle_box_optimum

from hybridmon import (
    Detector,
    Event,
    Guard,
    GuaranteeBound,
    HybridAutomaton,
    Invariant,
    LtiDynamics,
    Mode,
    NoGuaranteeError,
    Transition,
    box_max,
    compute_delta,
    decompose_regions,
    detection_threshold,
    state_guarantees,
    validate_model,
)
from hybridmon.guarantees import EmptyGeometryError, _d_star, _margin, _z_star, facet_epsilon
from hybridmon.kalman import synthesize_gains
from hybridmon.model_io import load_model, parse_model
from hybridmon.reachability import compute_all_deltas
from hybridmon.train_gate import TRAIN_GATE_MODEL_DICT, train_gate_model


def face_model(theta=0.05, v=0.1, w=0.0, a_source=1.0, a_target=1.0):
    """1-D pair with the guard on the source invariant's upper face."""
    return HybridAutomaton(
        modes=(
            Mode(
                1,
                LtiDynamics(a=[[a_source]], b=[[0.0]], w_bounds=[w], v_bounds=[v], input_bound=0.0),
                Invariant(((0.0, 10.0),)),
            ),
            Mode(
                2,
                LtiDynamics(a=[[a_target]], b=[[0.0]], w_bounds=[w], v_bounds=[v], input_bound=0.0),
                Invariant(((10.0, 12.0),)),
            ),
        ),
        events=(Event("go", "input"), Event("seen", "output")),
        transitions=(Transition(1, "go", "seen", 2, Guard(axis=0, sign=1, threshold=10.0)),),
        dwell_time=1,
        sampling_period=1.0,
        theta=theta,
    )


def mono_model(w, falling=False):
    """1-D drift-free pair with the guard strictly inside the source invariant.

    The falling variant is its mirror image on the axis.
    """
    sign = -1.0 if falling else 1.0
    return HybridAutomaton(
        modes=(
            Mode(
                1,
                LtiDynamics(a=[[1.0]], b=[[0.0]], w_bounds=[w], v_bounds=[0.1], input_bound=0.0),
                Invariant((tuple(sorted((0.0, sign * 10.0))),)),
            ),
            Mode(
                2,
                LtiDynamics(a=[[1.0]], b=[[0.0]], w_bounds=[w], v_bounds=[0.1], input_bound=0.0),
                Invariant((tuple(sorted((0.0, sign * 2.0))),)),
            ),
        ),
        events=(Event("go", "input"), Event("seen", "output")),
        transitions=(
            Transition(1, "go", "seen", 2, Guard(axis=0, sign=int(sign), threshold=sign * 2.0)),
        ),
        dwell_time=1,
        sampling_period=1.0,
        theta=0.05,
    )


def solve_on(model):
    """z* of the first guard, which leaves mode 1."""
    return state_guarantees(model)[1].guards[0].z_star


def d_star_on(model, delta):
    """d* of the first guard, which leaves mode 1, at horizon delta."""
    return state_guarantees(model, decompose_regions(model), {1: delta})[1].guards[0].d_star


class TestBoxMax:
    def test_matches_vertex_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            a = rng.uniform(-10.0, 10.0, size=n)
            lo = rng.uniform(-5.0, 5.0, size=n)
            hi = lo + rng.uniform(0.0, 10.0, size=n)
            closed = box_max(a, lo, hi)
            brute = oracle_box_optimum(a, list(zip(lo, hi)))
            assert abs(closed - brute) <= 1e-12 * max(1.0, abs(brute))

    def test_degenerate_box_is_a_point(self):
        assert box_max([2.0, -3.0], [1.0, 1.0], [1.0, 1.0]) == -1.0

    def test_inverted_box_rejected(self):
        with pytest.raises(ValueError):
            box_max([1.0], [1.0], [0.0])

    def test_oracle_refuses_large_boxes(self):
        with pytest.raises(ValueError, match="11 axes means 2048 vertices; capped at 10"):
            oracle_box_optimum(np.ones(11), [(0.0, 1.0)] * 11)

    def test_oracle_dimension_check(self):
        with pytest.raises(ValueError, match="dimensions differ"):
            oracle_box_optimum([1.0, 2.0], [(0.0, 1.0)])


class TestFaceModelAnchors:
    def test_z_star_anchor(self):
        # slab degenerates to the guard point, so z* is exactly the
        # measurement margin theta + 2v
        assert solve_on(face_model()) == pytest.approx(0.25, abs=1e-12)

    def test_d_star_anchor(self):
        assert d_star_on(face_model(), 1) == pytest.approx(0.25, abs=1e-6)

    def test_z_star_grows_with_theta(self):
        assert solve_on(face_model(theta=0.06)) == pytest.approx(0.26, abs=1e-12)

    def test_z_star_grows_with_measurement_noise(self):
        assert solve_on(face_model(v=0.12)) == pytest.approx(0.29, abs=1e-12)

    def test_z_star_grows_with_process_noise(self):
        assert solve_on(face_model(w=0.05)) == pytest.approx(0.30, abs=1e-12)

    def test_contracting_target_floors_at_zero(self):
        assert solve_on(face_model(a_target=0.5)) == 0.0

    def test_threshold_keeps_margin_when_z_floor_hits(self):
        model = face_model(a_target=0.5)
        assert detection_threshold(model, 1) == pytest.approx(0.25, abs=1e-12)

    def test_contracting_source_has_no_overshoot(self):
        model = face_model(a_source=0.5)
        with pytest.raises(EmptyGeometryError, match="tops out"):
            solve_on(model)


class TestDStarBisection:
    def test_zero_when_band_already_clears(self):
        model = mono_model(0.0)
        regions = decompose_regions(model)
        assert regions.neighbor_values[(1, "go")] == 0.0
        assert d_star_on(model, 1) == 0.0

    def test_grows_with_process_noise(self):
        values = []
        for w in (0.0, 1.8, 1.9):
            values.append(d_star_on(mono_model(w), 1))
        assert values[0] == 0.0
        assert values[1] == pytest.approx(0.05, abs=1e-6)
        assert values[2] == pytest.approx(0.15, abs=1e-6)
        assert values[0] < values[1] < values[2]

    def test_negative_guard_axis_coefficient_refused(self):
        # A = -0.5: A^1 flips the guard axis, so the band minimum falls as the
        # offset grows and a least clearing offset would be a wrong threshold;
        # the arm is unavailable instead. The z* arm has no overshoot here, so
        # the d* arm is called alone.
        model = face_model(a_source=-0.5)
        regions, tr = decompose_regions(model), model.transitions[0]
        assert _d_star(model, regions, tr, 1, _margin(model)) == math.inf
        # A^2 = 0.25 is nonnegative, so the arm is solved; a quarter of the
        # band never reaches the neighbor face at 10, so no offset works.
        assert _d_star(model, regions, tr, 2, _margin(model)) == math.inf

    def test_infeasible_offset_returns_inf(self, tg_bounds, tg_deltas):
        # crossing model: the horizon-step band never clears the neighbor
        # face, so the horizon arm has no witness for any offset
        assert tg_deltas[1] > 0
        assert tg_bounds[1].guards[0].d_star == math.inf


class TestTrainGateGuarantees:
    def test_frozen_bounds(self, tg_bounds):
        assert set(tg_bounds) == {1, 2, 3}
        expect = {1: (0.67, 0.92, 45.21), 2: (0.45, 0.70, 75.1), 3: (0.46, 0.71, 80.21)}
        for q, (z, thr, eps) in expect.items():
            bound = tg_bounds[q]
            assert isinstance(bound, GuaranteeBound)
            assert bound.z_star == pytest.approx(z, abs=1e-12)
            assert bound.threshold == pytest.approx(thr, abs=1e-12)
            assert bound.d_star is None
            assert len(bound.guards) == 1
            assert bound.guards[0].epsilon == pytest.approx(eps, abs=1e-12)
            assert bound.guards[0].d_star == math.inf

    def test_threshold_is_z_star_plus_margin(self, tg_model, tg_bounds):
        margin = tg_model.theta + 2.0 * tg_model.dynamics(1).v_norm
        for bound in tg_bounds.values():
            assert bound.threshold == pytest.approx(bound.z_star + margin, abs=1e-12)

    def test_defaults_recompute_geometry(self, tg_model, tg_bounds):
        fresh = state_guarantees(tg_model)
        for q in (1, 2, 3):
            assert fresh[q].threshold == pytest.approx(tg_bounds[q].threshold, abs=1e-15)

    def test_detection_threshold_lookup(self, tg_model):
        assert detection_threshold(tg_model, 1) == pytest.approx(0.92, abs=1e-12)

    def test_state_without_guards_has_no_threshold(self):
        model = face_model()
        bounds = state_guarantees(model)
        assert bounds[2].threshold is None
        with pytest.raises(NoGuaranteeError):
            detection_threshold(model, 2)


class TestReflection:
    def test_falling_guard_equals_rising_anchor(self):
        # mirror of the face model: travel downward, guard at the lower face
        model = HybridAutomaton(
            modes=(
                Mode(
                    1,
                    LtiDynamics(a=[[1.0]], b=[[0.0]], w_bounds=[0.0], v_bounds=[0.1], input_bound=0.0),
                    Invariant(((-10.0, 0.0),)),
                ),
                Mode(
                    2,
                    LtiDynamics(a=[[1.0]], b=[[0.0]], w_bounds=[0.0], v_bounds=[0.1], input_bound=0.0),
                    Invariant(((-12.0, -10.0),)),
                ),
            ),
            events=(Event("go", "input"), Event("seen", "output")),
            transitions=(
                Transition(1, "go", "seen", 2, Guard(axis=0, sign=-1, threshold=-10.0)),
            ),
            dwell_time=1,
            sampling_period=1.0,
            theta=0.05,
        )
        assert solve_on(model) == pytest.approx(0.25, abs=1e-12)
        assert facet_epsilon(model, model.transitions[0]) == pytest.approx(-10.0, abs=1e-12)

    def test_mirrored_crossing_model_matches(self, tg_bounds):
        # negate the position axis of the whole model; thresholds must not move
        doc = copy.deepcopy(TRAIN_GATE_MODEL_DICT)
        for state in doc["states"]:
            a = np.array(state["A"])
            a[0, :] *= -1
            a[:, 0] *= -1
            state["A"] = a.tolist()
            b = np.array(state["B"])
            b[0, :] *= -1
            state["B"] = b.tolist()
            lo, hi = state["invariant"][0]
            state["invariant"][0] = [-hi, -lo]
        for tr in doc["transitions"]:
            tr["guard"]["sign"] = -tr["guard"]["sign"]
            tr["guard"]["threshold"] = -tr["guard"]["threshold"]
        mirror = parse_model(doc)
        assert validate_model(mirror) == []
        regions = decompose_regions(mirror)
        assert compute_all_deltas(mirror, regions) == {1: 8, 2: 8, 3: 0}
        bounds = state_guarantees(mirror, regions)
        for q in (1, 2, 3):
            assert bounds[q].threshold == pytest.approx(tg_bounds[q].threshold, abs=1e-9)


def _mode(mode_id, a, b, box, w, v):
    return Mode(
        mode_id,
        LtiDynamics(a=a, b=b, w_bounds=w, v_bounds=v, input_bound=1.0),
        Invariant(tuple(box)),
    )


def _automaton(modes, guards, theta=0.05):
    """Mode i leaves on guards[i] = (axis, sign, threshold, target)."""
    events, transitions = [], []
    for i, (axis, sign, threshold, target) in enumerate(guards):
        events += [Event(f"c_{i}", "input"), Event(f"s_{i}", "output")]
        transitions.append(
            Transition(modes[i].mode_id, f"c_{i}", f"s_{i}", target, Guard(axis, sign, threshold))
        )
    return HybridAutomaton(
        modes=tuple(modes),
        events=tuple(events),
        transitions=tuple(transitions),
        dwell_time=10,
        sampling_period=0.1,
        theta=theta,
    )


def ring_model(dim, mirrored):
    """Four modes along axis 0, each leaving through a guard on it.

    The last mode ends at its guard and sends the ring back to mode 0. The
    mirrored ring negates axis 0, so every guard falls.
    """
    h, a_v, a_u = 0.1, 0.9, 0.7
    if dim == 2:
        a = np.array([[1.0, h], [0.0, a_v]])
        b = np.array([[0.0], [1.0 - a_v]])
    else:
        a = np.array([[1.0, h, 0.0], [0.0, a_v, 1.0 - a_v], [0.0, 0.0, a_u]])
        b = np.array([[0.0], [0.0], [1.0 - a_u]])
    sign = -1.0 if mirrored else 1.0
    if mirrored:
        a[0, :] *= -1.0
        a[:, 0] *= -1.0
        b[0, :] *= -1.0
    bounds, ceilings, overlap = (0.0, 22.0, 47.0, 60.0, 95.0), (1.5, 0.8, 1.2, 2.0), 1.3
    w, v = [0.01, 0.015, 0.008][:dim], [0.1, 0.07, 0.12][:dim]
    modes, guards = [], []
    for i in range(4):
        hi = bounds[i + 1] + (overlap if i < 3 else 0.0)
        position = tuple(sorted((sign * bounds[i], sign * hi)))
        box = [position] + [(0.0, ceilings[i])] * (dim - 1)
        modes.append(_mode(i, a, b, box, w, v))
        guards.append((0, -1 if mirrored else 1, sign * bounds[i + 1], (i + 1) % 4))
    return _automaton(modes, guards, theta=0.06)


def shuttle_model():
    """Out along axis 0 through a rising guard, back through a falling one."""
    a, b = [[1.0, 0.1], [0.0, 0.9]], [[0.0], [0.1]]
    w, v = [0.01, 0.01], [0.1, 0.1]
    modes = [
        _mode("out", a, b, [(0.0, 21.0), (0.0, 1.0)], w, v),
        _mode("back", a, b, [(20.0, 40.0), (-1.0, 0.0)], w, v),
    ]
    return _automaton(modes, [(0, 1, 20.0, "back"), (0, -1, 21.0, "out")])


def two_axis_model():
    """Falling guards on axis 0 and on axis 1, then a rising one back."""
    a, b = np.eye(2), 0.1 * np.eye(2)
    w, v = [0.01, 0.02], [0.1, 0.05]
    modes = [
        _mode(0, a, b, [(0.0, 10.0), (0.0, 10.0)], w, v),
        _mode(1, a, b, [(-5.0, 1.0), (0.0, 10.0)], w, v),
        _mode(2, a, b, [(-5.0, 1.0), (-5.0, 1.0)], w, v),
    ]
    return _automaton(modes, [(0, -1, 1.0, 1), (1, -1, 1.0, 2), (0, 1, 0.0, 0)])


ORACLE_MODELS = {
    "ring-2d": lambda: ring_model(2, False),
    "ring-2d-mirrored": lambda: ring_model(2, True),
    "ring-3d": lambda: ring_model(3, False),
    "ring-3d-mirrored": lambda: ring_model(3, True),
    "shuttle": shuttle_model,
    "two-axis": two_axis_model,
    # the horizon arm gives a finite d* on these two
    "mono": lambda: mono_model(1.8),
    "mono-falling": lambda: mono_model(1.8, falling=True),
}


class TestStateGuaranteesOracle:
    """`state_guarantees` gives, field for field, what its per-guard helpers give."""

    @pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
    def test_equals_per_guard_solutions(self, name):
        model = ORACLE_MODELS[name]()
        regions = decompose_regions(model)
        deltas = compute_all_deltas(model, regions)
        bounds = state_guarantees(model, regions, deltas)
        assert validate_model(model) == []
        assert bounds == state_guarantees(model)
        assert list(bounds) == list(model.mode_ids)
        for q in model.mode_ids:
            guards = []
            for tr in model.transitions_from(q):
                epsilon = facet_epsilon(model, tr)
                if tr.guard.sign < 0:
                    reflected = analysis_reference.reflect_model(model, tr.guard.axis)
                    mirrored = reflected.transitions[model.transitions.index(tr)]
                    assert epsilon == -facet_epsilon(reflected, mirrored)
                margin = _margin(model)
                d = _d_star(model, regions, tr, deltas[q], margin) if deltas[q] > 0 else math.inf
                guards.append((tr.input_event, _z_star(model, tr, epsilon, margin), d, epsilon))
            got = [(g.input_event, g.z_star, g.d_star, g.epsilon) for g in bounds[q].guards]
            assert got == guards

    @pytest.mark.parametrize("dim", [2, 3])
    def test_mirrored_ring_matches(self, dim):
        plain = state_guarantees(ring_model(dim, False))
        mirrored = state_guarantees(ring_model(dim, True))
        for q, bound in plain.items():
            for field in ("z_star", "d_star", "threshold"):
                want, got = getattr(bound, field), getattr(mirrored[q], field)
                assert (got == want) if want in (None, math.inf) else got == pytest.approx(want, abs=1e-9)


SLAB_MODELS = {
    **ORACLE_MODELS,
    "train-gate": train_gate_model,
    "train-gate-mirrored": lambda: analysis_reference.reflect_model(train_gate_model(), 0),
}


class TestDetectorSlabs:
    """`Detector` takes each guard's overshoot slab from the helpers of `state_guarantees`."""

    @pytest.mark.parametrize("name", sorted(SLAB_MODELS))
    def test_slabs_equal_facet_epsilon(self, name):
        model = SLAB_MODELS[name]()
        detector = Detector(model)
        want: dict = {}
        for tr in model.transitions:
            c_g = tr.guard.threshold
            far = facet_epsilon(model, tr)
            far = max(far, c_g) if tr.guard.sign > 0 else min(far, c_g)
            want.setdefault((tr.input_event, tr.output_event), []).append(
                (tr.source, tr.guard.axis, min(c_g, far), max(c_g, far))
            )
        assert detector._slabs == want

    @pytest.mark.parametrize("name", sorted(SLAB_MODELS))
    def test_one_mirror_per_falling_axis(self, name):
        # the model mirrored on an axis that carries a falling guard has the
        # same slabs, negated and swapped on that axis
        model = SLAB_MODELS[name]()
        slabs = Detector(model)._slabs
        for axis in {tr.guard.axis for tr in model.transitions if tr.guard.sign < 0}:
            mirrored = Detector(analysis_reference.reflect_model(model, axis))._slabs
            assert list(mirrored) == list(slabs)
            for key, want in slabs.items():
                want = [
                    (q, i, -hi, -lo) if i == axis else (q, i, lo, hi) for q, i, lo, hi in want
                ]
                assert repr(mirrored[key]) == repr(want)


MONBENCH = Path(__file__).resolve().parents[1] / "monbench"


def _family():
    spec = importlib.util.spec_from_file_location("family", MONBENCH / "family.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _reference_models():
    family = _family()
    models = {
        **ORACLE_MODELS,
        "train-gate": train_gate_model,
        "nd-actuator": lambda: load_model(MONBENCH / "nd_actuator.json"),
    }
    low, high = family.RING_MODES
    for i in range(12):
        ring = family.draw_ring(np.random.default_rng([13, i]), low + i % (high - low + 1))
        for dim in (2, 3):
            for mirrored in (False, True):
                doc = family.ring_document(ring, dim, mirrored)
                models[f"ring{i}-{dim}d{'-mirrored' if mirrored else ''}"] = (
                    lambda doc=doc: parse_model(doc)
                )
    return models


REFERENCE_MODELS = _reference_models()


def _bits(value):
    """Bytes of a float or array, so that -0.0 and +0.0 differ."""
    return np.asarray(value, dtype=float).tobytes()


def assert_guarantees_equal_reference(model, regions, deltas):
    """ε, z*, d*, thresholds and detector slabs have the bits of the mirror-based reference."""
    for tr in model.transitions:
        want = analysis_reference.facet_epsilon(model, tr)
        assert _bits(facet_epsilon(model, tr)) == _bits(want)
    got = state_guarantees(model, regions, deltas)
    want = analysis_reference.state_guarantees(model, regions, deltas)
    assert list(got) == list(want)
    for q, bound in got.items():
        assert repr(bound) == repr(want[q])  # a float's repr tells -0.0 from 0.0
        for mine, theirs in zip(bound.guards, want[q].guards):
            for field in ("z_star", "d_star", "epsilon"):
                assert _bits(getattr(mine, field)) == _bits(getattr(theirs, field))
    assert repr(Detector(model, deltas)._slabs) == repr(analysis_reference.slabs(model))


class TestAnalysisReference:
    """The analyses equal the zonotope-based ones of `tests/analysis_reference.py` bit for bit."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_MODELS))
    def test_equals_reference(self, name):
        model = REFERENCE_MODELS[name]()
        regions = decompose_regions(model)
        deltas = compute_all_deltas(model, regions)
        assert deltas == analysis_reference.compute_all_deltas(model, regions)
        for q in model.mode_ids:
            want = analysis_reference.compute_delta(model, regions, q)
            assert compute_delta(model, regions, q) == want
        assert_guarantees_equal_reference(model, regions, deltas)
        bank = synthesize_gains(model)
        for mode in model.modes:
            mine = bank.gains[mode.mode_id]
            theirs = analysis_reference.solve_riccati(mode.mode_id, mode.dynamics)
            assert _bits(mine.gain) == _bits(theirs.gain)
            assert _bits(mine.predicted_covariance) == _bits(theirs.predicted_covariance)
            assert mine.iterations == theirs.iterations
            assert _bits(mine.final_increment) == _bits(theirs.final_increment)

    def test_models_cover_falling_guards_and_finite_d_star(self):
        models = [make() for make in REFERENCE_MODELS.values()]
        assert len(models) == 58
        assert any(tr.guard.sign < 0 for m in models for tr in m.transitions)
        bounds = [b for m in models for b in state_guarantees(m).values()]
        assert any(b.d_star is not None for b in bounds)


def _entry(rng, scale):
    """0.0, -0.0 or a uniform draw, a quarter, a quarter and half the time."""
    r = rng.random()
    return 0.0 if r < 0.25 else -0.0 if r < 0.5 else float(rng.uniform(-scale, scale))


def one_guard_pair(dyn, source, target, guard):
    """Modes 0 and 1 sharing dyn, with these invariants, and one transition 0 -> 1 on guard."""
    return HybridAutomaton(
        modes=(Mode(0, dyn, Invariant(tuple(source))), Mode(1, dyn, Invariant(tuple(target)))),
        events=(Event("go", "input"), Event("seen", "output")),
        transitions=(Transition(0, "go", "seen", 1, guard),),
        dwell_time=1,
        sampling_period=1.0,
        theta=0.05,
    )


def generated_pair(rng):
    """A 1-D to 3-D `one_guard_pair` with a guard of either sign, and whether it ties.

    Half the guards sit at the exact midpoint of the source invariant's
    guard-axis interval, where both faces are nearest. The guard-axis
    diagonal of A is 1.0, 0.99 or 0.95 and w is at least 0.25, so the
    horizon search meets the neighbor face within a few hundred steps and
    the horizon arm is often finite. Off-diagonal entries of A, the entries
    of B and some invariant faces are 0.0 or -0.0.
    """
    dim = int(rng.integers(1, 4))
    axis = int(rng.integers(dim))
    sign = int(rng.choice([-1, 1]))
    a = np.array([[_entry(rng, 0.05) for _ in range(dim)] for _ in range(dim)])
    a[np.diag_indices(dim)] = rng.uniform(0.8, 1.0, size=dim)
    a[axis, axis] = rng.choice([1.0, 0.99, 0.95])
    b = np.array([[_entry(rng, 0.1)] for _ in range(dim)])
    dyn = LtiDynamics(
        a=a,
        b=b,
        w_bounds=rng.uniform(0.25, 0.5, size=dim),
        v_bounds=rng.uniform(0.02, 0.1, size=dim),
        input_bound=1.0,
    )
    box = [(_entry(rng, 0.0) if rng.random() < 0.5 else -1.0, 1.0) for _ in range(dim)]
    lo = float(rng.uniform(-3.0, 1.0))
    hi = lo + float(rng.uniform(1.0, 4.0))
    tie = bool(rng.random() < 0.5)
    c_g = (lo + hi) / 2.0 if tie else float(rng.uniform(lo, hi))
    source, target = list(box), list(box)
    source[axis] = (lo, hi)
    target[axis] = (c_g, hi + 5.0) if sign > 0 else (lo - 5.0, c_g)
    return one_guard_pair(dyn, source, target, Guard(axis, sign, c_g)), tie


def _mirror_view(bounds, sign=1):
    """z*, d*, thresholds and sign * ε of every state, by repr, so -0.0 counts."""
    return repr(
        [
            (q, b.z_star, b.d_star, b.threshold)
            + tuple((g.z_star, g.d_star, sign * g.epsilon) for g in b.guards)
            for q, b in bounds.items()
        ]
    )


def tie_pair(sign):
    """a = 0.99, w = 0.3 and the guard at the midpoint of [0, 10], rising, or its mirror image."""
    dyn = LtiDynamics(a=[[0.99]], b=[[0.0]], w_bounds=[0.3], v_bounds=[0.1], input_bound=0.0)
    return one_guard_pair(
        dyn,
        [sorted((0.0, sign * 10.0))],
        [sorted((sign * 5.0, sign * 15.0))],
        Guard(axis=0, sign=sign, threshold=sign * 5.0),
    )


def draw(index):
    """The generated pair at this index of the `default_rng(16)` sequence."""
    rng = np.random.default_rng(16)
    for _ in range(index + 1):
        model, _ = generated_pair(rng)
    return model


def d_star_and_bisection(model):
    """d* of the first guard, the bisection's d* and the rising band, at the model's horizon.

    None when the horizon is 0, where the arm is not solved.
    """
    regions = decompose_regions(model)
    delta = compute_all_deltas(model, regions)[0]
    if delta == 0:
        return None
    tr, margin = model.transitions[0], _margin(model)
    return (
        _d_star(model, regions, tr, delta, margin),
        analysis_reference.d_star_bisection(model, regions, tr, delta, margin),
        analysis_reference.rising_band(model, regions, tr, delta),
    )


class TestDStarClosedForm:
    """d* in closed form against the bisection it replaced (`analysis_reference`)."""

    def test_generated_pairs_bracket_the_bisection(self):
        rng = np.random.default_rng(16)
        calls = finite = rescued = 0
        for _ in range(3000):
            model, _ = generated_pair(rng)
            solved = d_star_and_bisection(model)
            if solved is None:
                continue
            got, want, band = solved
            axis, margin = model.transitions[0].guard.axis, _margin(model)
            calls += 1
            if math.isfinite(want):
                assert want - 1e-9 <= got <= want
            if math.isfinite(got):
                assert analysis_reference.band_clears(band, axis, margin, got)
                finite += 1
                rescued += not math.isfinite(want)
            elif band is not None:
                # the band minimum grows with the offset, so the offsets just
                # below the cap, whose bands still meet the invariant, fall
                # short of the neighbor value if any offset does
                cap = analysis_reference.d_cap(band, axis, margin)
                step = math.ulp(abs(cap) + abs(band[3]) + abs(band[2][axis]) + margin)
                tops = [
                    analysis_reference.band_minimum(band, axis, margin, cap - k * step)
                    for k in range(4)
                ]
                tops = [m for m in tops if m is not None]
                assert tops and all(m - band[5] < band[4] for m in tops)
        assert (calls, finite, rescued) == (2361, 1883, 343)

    def test_band_empty_at_the_cap_keeps_the_arm(self):
        # draw 24: 1-D, rising, the guard at the midpoint of the source
        # invariant. c_g + d_cap - margin rounds one ulp above inv_hi, so the
        # band is empty at d_cap and the bisection read the arm as unavailable
        model = draw(24)
        got, want, band = d_star_and_bisection(model)
        cap = analysis_reference.d_cap(band, 0, _margin(model))
        assert analysis_reference.band_minimum(band, 0, _margin(model), cap) is None
        assert want == math.inf
        assert got == pytest.approx(0.0277030600, abs=1e-9)
        assert state_guarantees(model)[0].d_star == got

    def test_guard_below_the_invariant_waits_for_the_band_to_meet_it(self):
        # the rising guard at -1 lies below the source invariant [0, 10]; the
        # band at d = 0 misses the invariant and proves nothing, so d* is the
        # first offset whose band meets it, 0 + 1 - margin, where the
        # bisection stops just above
        dyn = LtiDynamics(a=[[1.0]], b=[[0.0]], w_bounds=[0.0], v_bounds=[0.1], input_bound=0.0)
        model = one_guard_pair(dyn, [(0.0, 10.0)], [(-1.0, 15.0)], Guard(0, 1, -1.0))
        regions, tr, margin = decompose_regions(model), model.transitions[0], _margin(model)
        assert margin == 0.25
        assert _d_star(model, regions, tr, 1, margin) == 0.75
        want = analysis_reference.d_star_bisection(model, regions, tr, 1, margin)
        assert want - 1e-9 <= 0.75 <= want


class TestSignAwareGuards:
    """A falling guard gives the bits of its mirror image, where it rises."""

    def test_generated_pairs_equal_mirror_reference(self):
        rng = np.random.default_rng(16)
        falling_finite = ties = 0
        for _ in range(300):
            model, tie = generated_pair(rng)
            regions = decompose_regions(model)
            deltas = compute_all_deltas(model, regions)
            assert deltas == analysis_reference.compute_all_deltas(model, regions)
            assert_guarantees_equal_reference(model, regions, deltas)
            # the whole model mirrored on the guard axis: the guard flips sign
            guard = model.transitions[0].guard
            mirror = analysis_reference.reflect_model(model, guard.axis)
            assert compute_all_deltas(mirror, decompose_regions(mirror)) == deltas
            bounds = state_guarantees(model, regions, deltas)
            assert _mirror_view(state_guarantees(mirror), -1) == _mirror_view(bounds)
            falling_finite += guard.sign < 0 and math.isfinite(bounds[0].guards[0].d_star)
            ties += tie
        assert falling_finite >= 60
        assert ties >= 120

    def test_zero_overshoot_is_positive_zero(self):
        # the one-step hull of a falling guard at 1 with w = 1 bottoms out at
        # 1 - 1 = 0.0; negating the mirror's top end, -1 + 1, gives -0.0
        # instead, the one place where the two ways differ in bits
        dyn = LtiDynamics(a=[[1.0]], b=[[0.0]], w_bounds=[1.0], v_bounds=[0.1], input_bound=0.0)
        model = one_guard_pair(dyn, [(-5.0, 5.0)], [(-10.0, 1.0)], Guard(0, -1, 1.0))
        tr = model.transitions[0]
        assert _bits(facet_epsilon(model, tr)) == _bits(0.0)
        assert _bits(analysis_reference.facet_epsilon(model, tr)) == _bits(-0.0)
        regions = decompose_regions(model)
        deltas = compute_all_deltas(model, regions)
        got = state_guarantees(model, regions, deltas)[0]
        want = analysis_reference.state_guarantees(model, regions, deltas)[0]
        assert repr(got) == repr(want).replace("epsilon=-0.0", "epsilon=0.0")

    def test_tie_pair_reads_as_its_mirror(self):
        rising, falling = tie_pair(1), tie_pair(-1)
        deltas = [compute_all_deltas(m, decompose_regions(m)) for m in (rising, falling)]
        assert deltas == [{0: 15, 1: 0}] * 2
        assert _mirror_view(state_guarantees(falling), -1) == _mirror_view(state_guarantees(rising))
        bound = state_guarantees(falling)[0]
        assert bound.d_star == pytest.approx(0.131354, abs=1e-6)
        assert bound.threshold == pytest.approx(0.9975, abs=1e-12)
        # both flag the overlap band, which the neighbor face behind the guard does not delimit
        for model in (rising, falling):
            (violation,) = validate_model(model)
            assert violation.startswith("intermediate-region: transition 0->1 overlap band")
