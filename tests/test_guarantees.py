"""Per-guard detection thresholds and the box-optimum closed form."""

import copy
import importlib.util
import math
from pathlib import Path

import analysis_reference
import numpy as np
import pytest

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
    OracleScaleError,
    Transition,
    box_max,
    compute_delta,
    decompose_regions,
    detection_threshold,
    oracle_box_optimum,
    solve_d_star,
    solve_z_star,
    state_guarantees,
    validate_model,
)
from hybridmon import guarantees
from hybridmon.guarantees import EmptyGeometryError, _reflect_model, facet_epsilon
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
    regions = decompose_regions(model)
    return solve_z_star(model, regions, model.transitions[0])


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
        with pytest.raises(OracleScaleError):
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
        model = face_model()
        regions = decompose_regions(model)
        d = solve_d_star(model, regions, model.transitions[0], 1)
        assert d == pytest.approx(0.25, abs=1e-6)

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
        assert solve_d_star(model, regions, model.transitions[0], 1) == 0.0

    def test_grows_with_process_noise(self):
        values = []
        for w in (0.0, 1.8, 1.9):
            model = mono_model(w)
            regions = decompose_regions(model)
            values.append(solve_d_star(model, regions, model.transitions[0], 1))
        assert values[0] == 0.0
        assert values[1] == pytest.approx(0.05, abs=1e-6)
        assert values[2] == pytest.approx(0.15, abs=1e-6)
        assert values[0] < values[1] < values[2]

    def test_negative_guard_axis_coefficient_refused(self):
        # A = -0.5: A^1 flips the guard axis, so the band minimum falls as the
        # offset grows and bisection would return a wrong threshold
        model = face_model(a_source=-0.5)
        regions = decompose_regions(model)
        tr = model.transitions[0]
        with pytest.raises(NoGuaranteeError, match=r"mode 1, guard 'go'.*= -0\.5 is negative"):
            solve_d_star(model, regions, tr, 1)
        # A^2 = 0.25 is nonnegative, so the search runs; a quarter of the
        # band never reaches the neighbor face at 10, so no offset works
        assert solve_d_star(model, regions, tr, 2) == math.inf

    def test_infeasible_offset_returns_inf(self, tg_model, tg_regions, tg_deltas):
        # crossing model: the horizon-step band never clears the neighbor
        # face, so the horizon arm has no witness for any offset
        tr = tg_model.transitions_from(1)[0]
        assert solve_d_star(tg_model, tg_regions, tr, tg_deltas[1]) == math.inf


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
        regions = decompose_regions(model)
        assert solve_z_star(model, regions, model.transitions[0]) == pytest.approx(
            0.25, abs=1e-12
        )
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
    """`state_guarantees` gives, field for field, what the per-guard entry points give."""

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
                    reflected = _reflect_model(model, tr.guard.axis)
                    mirrored = reflected.transitions[model.transitions.index(tr)]
                    assert epsilon == -facet_epsilon(reflected, mirrored)
                d = solve_d_star(model, regions, tr, deltas[q]) if deltas[q] > 0 else math.inf
                guards.append((tr.input_event, solve_z_star(model, regions, tr), d, epsilon))
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
    "train-gate-mirrored": lambda: _reflect_model(train_gate_model(), 0),
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
    def test_one_mirror_per_falling_axis(self, name, monkeypatch):
        model = SLAB_MODELS[name]()
        axes = []

        def counted(model, axis):
            axes.append(axis)
            return _reflect_model(model, axis)

        monkeypatch.setattr(guarantees, "_reflect_model", counted)
        Detector(model)
        assert sorted(axes) == sorted({tr.guard.axis for tr in model.transitions if tr.guard.sign < 0})


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


class TestAnalysisReference:
    """The analyses equal the zonotope-based ones of `tests/analysis_reference.py` bit for bit."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_MODELS))
    def test_equals_reference(self, name, monkeypatch):
        model = REFERENCE_MODELS[name]()
        regions = decompose_regions(model)
        deltas = compute_all_deltas(model, regions)
        assert deltas == analysis_reference.compute_all_deltas(model, regions)
        for q in model.mode_ids:
            want = analysis_reference.compute_delta(model, regions, q)
            assert compute_delta(model, regions, q) == want
        for tr in model.transitions:
            want = analysis_reference.facet_epsilon(model, tr)
            assert _bits(facet_epsilon(model, tr)) == _bits(want)
        got = state_guarantees(model, regions, deltas)
        monkeypatch.setattr(guarantees, "_epsilon", analysis_reference.epsilon)
        want = state_guarantees(model, regions, analysis_reference.compute_all_deltas(model, regions))
        monkeypatch.undo()
        assert list(got) == list(want)
        for q, bound in got.items():
            assert repr(bound) == repr(want[q])
            for mine, theirs in zip(bound.guards, want[q].guards):
                for field in ("z_star", "d_star", "epsilon"):
                    assert _bits(getattr(mine, field)) == _bits(getattr(theirs, field))
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
