"""The built-in crossing scenario: constants, model facts, scenario wiring."""

import numpy as np
import pytest

from hybridmon import model_to_dict, parse_model
from hybridmon.simulate import ZoneController, ZoneSpeedLimit
from hybridmon.train_gate import (
    FAST_SPEED,
    GATE_POSITION,
    SAFE_SPEED,
    SAFE_ZONE_HALF_WIDTH,
    SENSOR_APPROACH,
    SENSOR_LEAVE,
    SLOW_SPEED,
    SLOW_ZONE_HALF_WIDTH,
    STEADY_TIME,
    TRACK_LENGTH,
    TRAIN_GATE_MODEL_DICT,
    ramp_attack,
    train_gate_model,
    train_gate_scenario,
)


class TestConstants:
    def test_track_geometry(self):
        assert TRACK_LENGTH == 80.0
        assert GATE_POSITION == 60.0
        assert SLOW_ZONE_HALF_WIDTH == 16.0
        assert SAFE_ZONE_HALF_WIDTH == 12.0
        assert SENSOR_APPROACH == 45.0
        assert SENSOR_LEAVE == 75.0

    def test_speeds(self):
        assert FAST_SPEED == 1.0
        assert SLOW_SPEED == 0.2
        assert SAFE_SPEED == 0.4

    def test_steady_time_matches_dwell(self, tg_model):
        assert STEADY_TIME == tg_model.dwell_time * tg_model.sampling_period


class TestModel:
    def test_validates_clean(self, tg_model):
        from hybridmon import validate_model

        assert validate_model(tg_model) == []

    def test_builder_matches_document(self, tg_model):
        rebuilt = parse_model(TRAIN_GATE_MODEL_DICT)
        assert model_to_dict(rebuilt) == model_to_dict(tg_model)

    def test_eigenvalues(self, tg_model):
        for q in tg_model.mode_ids:
            eig = np.linalg.eigvals(tg_model.mode(q).a)
            assert sorted(np.abs(eig)) == [0.95, 1.0]

    def test_position_integrates_speed(self, tg_model):
        a = tg_model.mode(1).a
        np.testing.assert_allclose(a[0], [1.0, tg_model.sampling_period])

    def test_speed_tracks_reference(self, tg_model):
        # unit steady-state gain from the reference input to the speed axis
        a = tg_model.mode(1).a
        b = tg_model.mode(1).b
        assert b[1, 0] / (1.0 - a[1, 1]) == pytest.approx(1.0, abs=1e-12)

    def test_guards_sit_at_the_sensors(self, tg_model):
        thresholds = {
            t.source: t.guard.threshold for t in tg_model.transitions
        }
        assert thresholds == {1: SENSOR_APPROACH, 2: SENSOR_LEAVE, 3: TRACK_LENGTH}
        assert all(t.guard.axis == 0 and t.guard.sign == 1 for t in tg_model.transitions)

    def test_ring_of_modes(self, tg_model):
        hops = {t.source: t.target for t in tg_model.transitions}
        assert hops == {1: 2, 2: 3, 3: 1}

    def test_noise_and_margin_constants(self, tg_model):
        assert tg_model.theta == 0.05
        assert tg_model.dwell_time == 15
        assert tg_model.sampling_period == 0.1
        assert tg_model.w_bounds == (0.01, 0.01)
        assert tg_model.v_bounds == (0.1, 0.1)
        assert tg_model.input_bound == 1.0

    def test_fresh_instances_are_equal(self):
        assert model_to_dict(train_gate_model()) == model_to_dict(train_gate_model())


class TestRampAttack:
    def test_defaults(self):
        spec = ramp_attack(0.02)
        assert spec.axes == (0,)
        assert spec.kind == "ramp"
        assert spec.slope == 0.02
        assert spec.start_time == STEADY_TIME

    def test_start_override(self):
        assert ramp_attack(-0.03, start_time=4.0).start_time == 4.0


class TestScenario:
    def test_wiring(self, tg_model):
        config = train_gate_scenario(seed=11)
        assert model_to_dict(config.model) == model_to_dict(tg_model)
        assert config.controller == ZoneController(
            axis=0, center=60.0, half_width=16.0, inside_value=0.2, outside_value=1.0
        )
        assert config.safety == ZoneSpeedLimit(
            position_axis=0, center=60.0, half_width=12.0, speed_axis=1, limit=0.4
        )
        assert config.initial_state == (0.0, 0.0)
        assert config.initial_mode == 1
        assert config.duration == 200.0
        assert config.seed == 11
        assert config.attack is None
        assert config.stop_events == frozenset({"s_3"})

    def test_attack_and_model_passthrough(self, tg_model):
        attack = ramp_attack(0.02)
        config = train_gate_scenario(attack=attack, model=tg_model)
        assert config.attack is attack
        assert config.model is tg_model
