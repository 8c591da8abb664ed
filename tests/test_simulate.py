"""Closed-loop runs: reproducibility, event mechanics, monitors, writers."""

import dataclasses
import hashlib
import importlib
import itertools
import json
import os
import pickle
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from loop_reference import (
    literal_bank,
    magnitude_at,
    plant_step,
    reference_simulate,
    residual_baseline,
    satisfied,
)
from trace_io_reference import reference_csv_cell, reference_write_csv, reference_write_jsonl

import hybridmon
from hybridmon import (
    AttackSpec,
    ConstantController,
    DegenerateModelError,
    Event,
    Guard,
    HybridAutomaton,
    Invariant,
    Mode,
    ModelError,
    ScenarioConfig,
    Transition,
    ZoneController,
    ZoneSpeedLimit,
    Detector,
    build_observer,
    classify_fdia,
    extract_fsm,
    model_to_dict,
    parse_model,
    simulate,
    sweep,
    synthesize_gains,
    validate_model,
)
from hybridmon.kernels import kernels
from hybridmon.observer import ObserverFsm
from hybridmon.simulate import (
    BLOCK,
    Trace,
    _csv_cell,
    baseline_threshold,
    write_trace_csv,
    write_trace_jsonl,
)
from hybridmon.train_gate import (
    FAST_SPEED,
    GATE_POSITION,
    SLOW_SPEED,
    SLOW_ZONE_HALF_WIDTH,
    ramp_attack,
    train_gate_model,
    train_gate_scenario,
)


@pytest.fixture(scope="module")
def nominal_run(tg_machinery):
    detector, bank, observer = tg_machinery
    return simulate(
        train_gate_scenario(seed=0), detector=detector, bank=bank, observer=observer
    )


class TestAttackSpec:
    def test_kind_checked(self):
        with pytest.raises(ValueError, match="unknown attack kind"):
            AttackSpec(axes=(0,), kind="pulse")

    def test_axes_checked(self):
        with pytest.raises(ValueError, match="repeat"):
            AttackSpec(axes=(0, 0))
        with pytest.raises(ValueError, match="nonnegative"):
            AttackSpec(axes=(-1,))

    def test_axes_must_be_whole_numbers(self):
        refusals = [
            (True, "attack axis must be a whole number, got True"),
            (np.True_, "attack axis must be a whole number, got np.True_"),
            (0.5, "attack axis must be a whole number, got 0.5"),
            (np.nan, "attack axis must be a whole number, got nan"),
            (np.inf, "attack axis must be a whole number, got inf"),
            ("1", "attack axis must be a whole number, got '1'"),
            (None, "attack axis must be a whole number, got None"),
            (-1, "attack axis must be nonnegative, got -1"),
            (np.int64(-2), "attack axis must be nonnegative, got -2"),
        ]
        for axis, message in refusals:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                AttackSpec(axes=(0, axis))

    def test_whole_axes_become_ints(self):
        spec = AttackSpec(axes=(1.0, np.int64(0)), kind="step", magnitude=0.5)
        assert spec.axes == (1, 0) and all(type(axis) is int for axis in spec.axes)
        want = AttackSpec(axes=(1, 0), kind="step", magnitude=0.5)
        assert spec == want
        assert spec.gamma_rows(0, 3, 0.1, 2).tobytes() == want.gamma_rows(0, 3, 0.1, 2).tobytes()

    def test_custom_needs_samples(self):
        with pytest.raises(ValueError, match="sample sequence"):
            AttackSpec(axes=(0,), kind="custom")

    @pytest.mark.parametrize(
        "field, kwargs",
        [
            ("slope", dict(kind="ramp", slope=float("nan"))),
            ("magnitude", dict(kind="step", magnitude=float("inf"))),
            ("start_time", dict(kind="ramp", start_time=float("nan"))),
            (r"samples\[1\]", dict(kind="custom", samples=(0.1, float("-inf")))),
            ("slope", dict(kind="ramp", slope=10**400)),
            ("magnitude", dict(kind="step", magnitude=-(10**400))),
            ("start_time", dict(start_time=10**400)),
            (r"samples\[0\]", dict(kind="custom", samples=[10**400])),
        ],
    )
    def test_non_finite_values_rejected(self, field, kwargs):
        with pytest.raises(ValueError, match=f"attack {field} must be finite"):
            AttackSpec(axes=(0,), **kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(slope=True), "attack slope must be a real number, got True"),
            (dict(slope="0.1"), "attack slope must be a real number, got '0.1'"),
            (dict(kind="step", magnitude=None), "attack magnitude must be a real number, got None"),
            (dict(start_time="1.5"), "attack start_time must be a real number, got '1.5'"),
            (
                dict(kind="custom", samples=(0.1, "0.2")),
                "attack samples[1] must be a real number, got '0.2'",
            ),
        ],
    )
    def test_text_and_bool_values_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            AttackSpec(axes=(0,), **kwargs)

    def test_ramp_profile(self):
        spec = AttackSpec(axes=(0,), kind="ramp", slope=0.02, start_time=1.5)
        values = spec.gamma_rows(0, 116, 0.1, 1)[:, 0]
        assert values[14] == 0.0
        assert values[15] == 0.0  # zero at the start sample
        assert values[25] == pytest.approx(0.02)
        assert values[115] == pytest.approx(0.2)

    def test_step_profile(self):
        spec = AttackSpec(axes=(0,), kind="step", magnitude=0.7, start_time=1.0)
        values = spec.gamma_rows(0, 501, 0.1, 1)[:, 0]
        assert values[9] == 0.0
        assert values[10] == 0.7
        assert values[500] == 0.7

    def test_custom_profile_runs_out(self):
        spec = AttackSpec(axes=(0,), kind="custom", samples=(0.1, 0.2), start_time=0.0)
        assert spec.gamma_rows(0, 3, 0.1, 1)[:, 0].tolist() == [0.1, 0.2, 0.0]

    def test_gamma_hits_selected_axes(self):
        spec = AttackSpec(axes=(1,), kind="step", magnitude=0.5, start_time=0.0)
        np.testing.assert_allclose(spec.gamma_rows(3, 1, 0.1, 2)[0], [0.0, 0.5])

    @pytest.mark.parametrize(
        "attack",
        [
            AttackSpec(axes=(0, 2), kind="ramp", slope=0.025, start_time=15.0),
            # a negative slope gives -0.0 at the start sample
            AttackSpec(axes=(1,), kind="ramp", slope=-0.06, start_time=0.0),
            AttackSpec(axes=(2,), kind="step", magnitude=-0.7, start_time=15.0),
            # starts mid-block and runs out in the next block's middle
            AttackSpec(
                axes=(0,), kind="custom", start_time=15.0,
                samples=tuple(0.01 * (j % 7 - 3) for j in range(150)) + (-0.0,),
            ),
        ],
        ids=["ramp", "ramp-falling", "step", "custom"],
    )
    def test_gamma_rows_are_the_stacked_magnitudes(self, attack):
        h, dim = 0.1, 3
        for first in (0, 128, 256, 384):
            values = [magnitude_at(attack, s, h) for s in range(first, first + BLOCK)]
            want = np.zeros((BLOCK, dim))
            want[:, list(attack.axes)] = np.array(values)[:, None]
            assert attack.gamma_rows(first, BLOCK, h, dim).tobytes() == want.tobytes(), first
        if attack.slope < 0:
            assert np.signbit(attack.gamma_rows(0, 1, h, dim)[0, 1])

    def test_gamma_axis_out_of_range(self):
        spec = AttackSpec(axes=(3,), kind="step", magnitude=0.5)
        with pytest.raises(ValueError, match="outside"):
            spec.gamma_rows(0, 1, 0.1, 2)

    def test_axis_out_of_range_refused_at_construction(self):
        attack = AttackSpec(axes=(2,), kind="step", magnitude=0.5, start_time=1.5)
        with pytest.raises(ValueError, match="attack axis 2 outside a 2-dimensional output"):
            train_gate_scenario(attack=attack)
        # the 3-D crossing takes the axis, and still builds with the 2-D start
        # that callers replace afterwards
        config = train_gate_scenario(attack=attack, model=parse_model(ND_ACTUATOR))
        assert config.initial_state == (0.0, 0.0)


class TestControllersAndSafety:
    def test_zone_controller_boundary_is_inside(self):
        ctl = ZoneController(axis=0, center=60.0, half_width=16.0, inside_value=0.2, outside_value=1.0)
        assert ctl.control(np.array([44.0, 0.0]), 0.0)[0] == 0.2
        assert ctl.control(np.array([43.9, 0.0]), 0.0)[0] == 1.0
        assert ctl.control(np.array([76.0, 0.0]), 0.0)[0] == 0.2

    def test_constant_controller(self):
        ctl = ConstantController(values=(0.3,))
        np.testing.assert_allclose(ctl.control(np.zeros(2), 5.0), [0.3])

    def test_speed_limit_strict_above(self):
        limit = ZoneSpeedLimit(position_axis=0, center=60.0, half_width=12.0, speed_axis=1, limit=0.4)
        assert not limit.violated(np.array([60.0, 0.4]))
        assert limit.violated(np.array([60.0, 0.41]))
        assert not limit.violated(np.array([47.9, 0.41]))  # outside the zone

    def test_builtin_outputs_are_built_once_and_read_only(self):
        fields = dict(axis=0, center=60.0, half_width=16.0, inside_value=0.2, outside_value=1.0)
        zone = ZoneController(**fields)
        inside = zone.control(np.array([60.0, 0.0]), 0.0)
        assert zone.control(np.array([61.0, 0.0]), 0.1) is inside
        assert zone.control(np.array([0.0, 0.0]), 0.2).tolist() == [1.0]
        constant = ConstantController(values=(0.3, -0.0))
        assert constant.control(np.zeros(2), 0.0) is constant.control(np.ones(2), 1.0)
        for output in (inside, constant.control(np.zeros(2), 0.0)):
            assert output.dtype == float and not output.flags.writeable
        # the outputs are not fields: eq, hash and repr are the fields' own
        assert zone == ZoneController(**fields) and hash(zone) == hash(ZoneController(**fields))
        assert repr(zone) == (
            "ZoneController(axis=0, center=60.0, half_width=16.0, inside_value=0.2, "
            "outside_value=1.0)"
        )
        assert repr(constant) == "ConstantController(values=(0.3, -0.0))"
        changed = dataclasses.replace(zone, inside_value=0.1)
        assert changed.control(np.array([60.0, 0.0]), 0.0).tolist() == [0.1]

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("axis", 0.5, "zone controller axis must be a whole number, got 0.5"),
            ("axis", True, "zone controller axis must be a whole number, got True"),
            ("axis", -1, "zone controller axis must be nonnegative, got -1"),
            ("center", "60", "zone controller center must be a real number, got '60'"),
            ("half_width", None, "zone controller half_width must be a real number, got None"),
            ("inside_value", "2", "zone controller inside_value must be a real number, got '2'"),
            ("outside_value", True, "zone controller outside_value must be a real number, got True"),
            ("center", np.nan, "zone controller center must be finite, got nan"),
            ("half_width", np.inf, "zone controller half_width must be finite, got inf"),
            ("half_width", -1.0, "zone controller half_width must be nonnegative, got -1.0"),
            ("inside_value", -np.inf, "zone controller inside_value must be finite, got -inf"),
            pytest.param(
                "outside_value",
                10**400,
                "zone controller outside_value must be finite, got a number too large for a float",
                id="outside_value-10**400",
            ),
        ],
    )
    def test_zone_controller_refuses_text_and_bools(self, field, value, message):
        # readonly's float array would hand out "2" as [2.] and True as [1.]
        fields = dict(axis=0, center=60.0, half_width=16.0, inside_value=0.2, outside_value=1.0)
        with pytest.raises(ValueError) as refused:
            ZoneController(**{**fields, field: value})
        assert str(refused.value) == message

    @pytest.mark.parametrize(
        "values, message",
        [
            (("1",), "constant controller values[0] must be a real number, got '1'"),
            ((0.0, False), "constant controller values[1] must be a real number, got False"),
            ((np.nan,), "constant controller values[0] must be finite, got nan"),
            ([0.0, -np.inf], "constant controller values[1] must be finite, got -inf"),
            (
                (10**400,),
                "constant controller values[0] must be finite, got a number too large for a float",
            ),
        ],
    )
    def test_constant_controller_refuses_text_and_bools(self, values, message):
        with pytest.raises(ValueError) as refused:
            ConstantController(values=values)
        assert str(refused.value) == message

    @pytest.mark.parametrize(
        "field, change, message",
        [
            ("controller", dict(axis=4), "zone controller axis 4 outside a 2-dimensional state"),
            (
                "safety",
                dict(position_axis=5),
                "zone speed limit position_axis 5 outside a 2-dimensional state",
            ),
            (
                "safety",
                dict(speed_axis=2),
                "zone speed limit speed_axis 2 outside a 2-dimensional state",
            ),
        ],
    )
    def test_axes_outside_the_model_refused_by_the_scenario(self, field, change, message):
        # unchecked, numpy raises IndexError at the first sample, or at the
        # end of the first block of samples for the safety predicate
        base = train_gate_scenario()
        part = dataclasses.replace(getattr(base, field), **change)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(base, **{field: part})
        # the last axis is inside, and the 3-D crossing takes the 2-D axes
        last = dataclasses.replace(part, **{name: 1 for name in change})
        dataclasses.replace(base, **{field: last})
        train_gate_scenario(model=parse_model(ND_ACTUATOR))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("position_axis", -1, "zone speed limit position_axis must be nonnegative, got -1"),
            ("speed_axis", -2, "zone speed limit speed_axis must be nonnegative, got -2"),
            ("speed_axis", True, "zone speed limit speed_axis must be a whole number, got True"),
            (
                "position_axis",
                True,
                "zone speed limit position_axis must be a whole number, got True",
            ),
            ("speed_axis", 0.5, "zone speed limit speed_axis must be a whole number, got 0.5"),
            ("center", "60", "zone speed limit center must be a real number, got '60'"),
            ("half_width", None, "zone speed limit half_width must be a real number, got None"),
            ("limit", "0.4", "zone speed limit limit must be a real number, got '0.4'"),
            ("limit", np.inf, "zone speed limit limit must be finite, got inf"),
            ("center", -np.inf, "zone speed limit center must be finite, got -inf"),
            ("half_width", np.nan, "zone speed limit half_width must be finite, got nan"),
            ("half_width", -0.5, "zone speed limit half_width must be nonnegative, got -0.5"),
            pytest.param(
                "limit",
                10**400,
                "zone speed limit limit must be finite, got a number too large for a float",
                id="limit-10**400",
            ),
        ],
    )
    def test_speed_limit_refuses_bad_fields(self, field, value, message):
        # unchecked, -1 reads the last axis, the speed, and "0.4" fails only
        # after the first block of samples, inside numpy
        fields = dict(position_axis=0, center=60.0, half_width=12.0, speed_axis=1, limit=0.4)
        with pytest.raises(ValueError) as refused:
            ZoneSpeedLimit(**{**fields, field: value})
        assert str(refused.value) == message

    def test_whole_float_axes_become_ints(self):
        zone = ZoneController(
            axis=0.0, center=60.0, half_width=16.0, inside_value=0.2, outside_value=1.0
        )
        limit = ZoneSpeedLimit(
            position_axis=0.0, center=60.0, half_width=12.0, speed_axis=np.int64(1), limit=0.4
        )
        axes = (zone.axis, limit.position_axis, limit.speed_axis)
        assert [type(axis) for axis in axes] == [int, int, int]
        assert zone.control(np.array([60.0, 0.0]), 0.0).tolist() == [0.2]
        assert limit.violated(np.array([[60.0, 0.5], [60.0, 0.3]])).tolist() == [True, False]

    def test_fields_are_stored_as_float_int_or_tuple(self):
        f32, i64 = np.float32(0.5), np.int64(1)
        attack = AttackSpec(
            axes=[i64, 0.0], kind="custom", slope=f32, magnitude=2, start_time=i64, samples=[f32, 1]
        )
        zone = ZoneController(
            axis=i64, center=f32, half_width=16, inside_value=i64, outside_value=1.0
        )
        constant = ConstantController(values=[f32, 1, i64])
        limit = ZoneSpeedLimit(
            position_axis=0.0, center=i64, half_width=f32, speed_axis=i64, limit=1
        )
        config = dataclasses.replace(train_gate_scenario(), seed=i64, duration=f32 * 400)
        guard = Guard(axis=i64, sign=1, threshold=i64)
        invariant = Invariant([[f32, 1], (i64, 2.0)])
        model = dataclasses.replace(
            train_gate_model(), dwell_time=np.float64(15.0), sampling_period=f32, theta=i64
        )
        fields = [
            (attack.axes, (1, 0)),
            ((attack.slope, attack.magnitude, attack.start_time), (0.5, 2.0, 1.0)),
            (attack.samples, (0.5, 1.0)),
            (constant.values, (0.5, 1.0, 1.0)),
            ((zone.axis, limit.position_axis, limit.speed_axis), (1, 0, 1)),
            ((zone.center, zone.half_width, zone.inside_value), (0.5, 16.0, 1.0)),
            ((limit.center, limit.half_width, limit.limit), (1.0, 0.5, 1.0)),
            ((config.seed, config.duration), (1, 200.0)),
            ((guard.axis, guard.threshold), (1, 1.0)),
            (invariant.intervals[0] + invariant.intervals[1], (0.5, 1.0, 1.0, 2.0)),
            ((model.dwell_time, model.sampling_period, model.theta), (15, 0.5, 1.0)),
        ]
        for got, want in fields:
            assert got == want and type(got) is tuple
            assert [type(x) for x in got] == [type(x) for x in want]
        assert type(invariant.intervals) is tuple and type(invariant.intervals[1]) is tuple
        assert hash(AttackSpec(axes=[0], kind="step", magnitude=1.0)) == hash(
            AttackSpec(axes=(0,), kind="step", magnitude=1.0)
        )


def _scalar_violated(limit, x):
    """`ZoneSpeedLimit.violated` on one state, as it was written per sample."""
    near = abs(float(x[limit.position_axis]) - limit.center) <= limit.half_width
    return near and float(x[limit.speed_axis]) > limit.limit


_LIMITS = (
    ZoneSpeedLimit(position_axis=0, center=60.0, half_width=12.0, speed_axis=1, limit=0.4),
    ZoneSpeedLimit(position_axis=2, center=-1.5, half_width=0.25, speed_axis=0, limit=-0.0),
)

# the edges of both comparisons, signed zeros and the non-finite floats
_SAFETY_FLOATS = st.one_of(
    st.sampled_from(
        [48.0, 72.0, 60.0, -1.75, -1.25, 0.4, -0.0, 0.0, float("nan"), float("inf"), float("-inf")]
    ),
    st.floats(allow_nan=True, allow_infinity=True),
)


class TestBlockSafety:
    @settings(max_examples=6 * settings.default.max_examples, deadline=None)
    @given(
        st.sampled_from(_LIMITS),
        st.lists(st.lists(_SAFETY_FLOATS, min_size=3, max_size=3), min_size=1, max_size=12),
    )
    def test_block_verdicts_are_the_per_state_formula(self, limit, rows):
        block = np.array(rows)
        block.flags.writeable = False
        got = limit.violated(block)
        assert got.shape == (len(rows),) and got.dtype == bool
        assert got.tolist() == [_scalar_violated(limit, row) for row in rows]
        assert [bool(limit.violated(row)) for row in block] == got.tolist()

    def test_first_violation_is_the_per_sample_one(self, tg_machinery):
        # the falling ramp drives the train through the gate too fast
        config = train_gate_scenario(seed=2, attack=ramp_attack(-0.06))
        detector, bank, observer = tg_machinery
        got = simulate(config, detector=detector, bank=bank, observer=observer).summary
        want = reference_simulate(config, detector, bank, observer).summary
        assert got.safety_violation is not None
        assert got.safety_violation == want.safety_violation

    def test_not_called_past_the_block_of_the_first_violation(self, tg_machinery):
        base = train_gate_scenario(seed=2, attack=ramp_attack(-0.06))

        class Counter:
            blocks = 0

            def violated(self, x):
                self.blocks += 1
                return base.safety.violated(x)

        detector, bank, observer = tg_machinery
        counter = Counter()
        config = dataclasses.replace(base, safety=counter)
        summary = simulate(config, detector=detector, bank=bank, observer=observer).summary
        first = round(summary.safety_violation.time / config.model.sampling_period)
        assert summary.samples > (first // BLOCK + 1) * BLOCK
        assert counter.blocks == first // BLOCK + 1

    def test_a_verdict_per_row_is_required(self, tg_machinery):
        class Scalar:
            def violated(self, x):
                return False

        detector, bank, observer = tg_machinery
        config = dataclasses.replace(train_gate_scenario(duration=1.0), safety=Scalar())
        with pytest.raises(ValueError, match="one bool per row"):
            simulate(config, detector=detector, bank=bank, observer=observer)


class TestSimulateValidation:
    def test_negative_seed_refused_also_through_replace(self):
        config = train_gate_scenario(seed=0, duration=1.0)
        with pytest.raises(ValueError, match=r"^seed must be nonnegative, got -1$"):
            dataclasses.replace(config, seed=-1)
        with pytest.raises(ValueError, match=r"^seed must be nonnegative, got -3$"):
            sweep(config, [2, -3])

    def test_seeds_must_be_whole_numbers(self):
        config = train_gate_scenario(seed=0, duration=1.0)
        for seed in (1.5, True, np.True_, "3", None, float("nan"), float("inf")):
            message = f"seed must be a whole number, got {seed!r}"
            with pytest.raises(ValueError) as refused:
                dataclasses.replace(config, seed=seed)
            assert str(refused.value) == message
            with pytest.raises(ValueError) as refused:
                sweep(config, [2, seed])
            assert str(refused.value) == message
        with pytest.raises(ValueError) as refused:
            sweep(config, [1.7, True])
        assert str(refused.value) == "seed must be a whole number, got 1.7"

    def test_seeds_must_fit_the_philox_key(self):
        # numpy's Philox takes a key below 2**128; the config names the seed first
        config = train_gate_scenario(seed=0, duration=1.0)
        message = f"seed must be less than 2**128, got {2**128}"
        with pytest.raises(ValueError) as refused:
            dataclasses.replace(config, seed=2**128)
        assert str(refused.value) == message
        assert simulate(dataclasses.replace(config, seed=2**128 - 1)).summary.seed == 2**128 - 1

    def test_sweep_refuses_a_seed_past_the_key_before_any_run(self):
        calls = []

        class Counter:
            def control(self, y, t):
                calls.append(t)
                return np.zeros(1)

        config = dataclasses.replace(train_gate_scenario(seed=0, duration=1.0), controller=Counter())
        with pytest.raises(ValueError) as refused:
            sweep(config, [0, 2**128])
        assert str(refused.value) == f"seed must be less than 2**128, got {2**128}"
        assert calls == []

    def test_whole_seeds_become_ints(self):
        config = train_gate_scenario(seed=0, duration=1.0)
        for seed in (2.0, np.int64(2), np.float64(2.0), np.uint8(2)):
            converted = dataclasses.replace(config, seed=seed)
            assert type(converted.seed) is int and converted == dataclasses.replace(config, seed=2)
        results = sweep(config, [2.0, np.int64(2), 2, np.int32(1)])
        assert [(type(r.summary.seed), r.summary.seed) for r in results] == [(int, 1), (int, 2)]
        assert results[1].summary == simulate(dataclasses.replace(config, seed=2)).summary

    def test_rejects_model_with_assumption_violations(self):
        model = HybridAutomaton(
            modes=(
                Mode("a", [[1.2]], [[0.0]], Invariant(((0.0, 2.0),))),
            ),
            events=(),
            transitions=(),
            w_bounds=[0.0],
            v_bounds=[0.1],
            input_bound=0.0,
            dwell_time=1,
            sampling_period=0.1,
            theta=0.05,
        )
        config = ScenarioConfig(
            model=model,
            controller=ConstantController(values=(0.0,)),
            initial_state=(1.0,),
            initial_mode="a",
            duration=1.0,
        )
        with pytest.raises(ModelError, match="stability"):
            simulate(config)

    def test_rejects_modes_with_identical_invariants(self):
        # two guardless modes on the same box pass validate_model, but the
        # detector's horizons need their regions told apart
        ab = ([[0.5]], [[0.0]])
        box = Invariant(((0.0, 10.0),))
        model = HybridAutomaton(
            modes=(Mode("a", *ab, box), Mode("b", *ab, box)),
            events=(),
            transitions=(),
            w_bounds=[0.01],
            v_bounds=[0.1],
            input_bound=0.0,
            dwell_time=1,
            sampling_period=0.1,
            theta=0.05,
        )
        assert validate_model(model) == []
        config = ScenarioConfig(
            model=model,
            controller=ConstantController(values=(0.0,)),
            initial_state=(5.0,),
            initial_mode="a",
            duration=1.0,
        )
        with pytest.raises(DegenerateModelError, match="modes 'a' and 'b' have identical invariants"):
            simulate(config)

    def test_rejects_attack_before_settling(self):
        config = train_gate_scenario(attack=ramp_attack(0.02, start_time=1.0))
        with pytest.raises(ValueError, match="only settles"):
            simulate(config)

    def test_attack_at_settling_boundary_is_fine(self, tg_machinery):
        detector, bank, observer = tg_machinery
        config = train_gate_scenario(
            duration=5.0, attack=ramp_attack(0.02, start_time=1.5)
        )
        result = simulate(config, detector=detector, bank=bank, observer=observer)
        assert result.summary.samples == 50

    def test_rejects_initial_state_outside_invariant(self):
        config = dataclasses.replace(train_gate_scenario(), initial_state=(50.0, 0.0))
        with pytest.raises(ValueError, match="outside the initial mode"):
            simulate(config)

    def test_rejects_initial_mode_outside_observer_root(self, tg_machinery):
        detector, bank, _ = tg_machinery
        crippled = ObserverFsm(root=(2, 3), nodes=frozenset({(2, 3)}), transitions={})
        with pytest.raises(ValueError, match="observer root"):
            simulate(train_gate_scenario(), detector=detector, bank=bank, observer=crippled)

    def test_stop_events_given_as_text_refused(self):
        # "s_3s_1" would match s_1 as a substring and end the lap there
        message = "stop_events must be a set of event names, got 's_3s_1'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(train_gate_scenario(), stop_events="s_3s_1")

    def test_stop_events_stored_as_a_frozenset(self):
        config = dataclasses.replace(train_gate_scenario(), stop_events=["s_1", "s_1"])
        assert type(config.stop_events) is frozenset and config.stop_events == {"s_1"}

    @pytest.mark.parametrize("event", ["s3", "c_down"])
    def test_stop_event_of_no_transition_refused(self, event):
        # a typo, or an input event, would never end the run
        message = f"stop event {event!r} is the output event of no transition"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(train_gate_scenario(), stop_events={"s_3", event})

    def test_initial_mode_outside_the_model_refused(self):
        message = "initial mode 9 is not a mode of the model"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(train_gate_scenario(), initial_mode=9)

    @pytest.mark.parametrize("mode", [True, 1.0, np.int64(1)])
    def test_initial_mode_of_another_type_refused(self, mode):
        # each equals train-gate's mode 1, but would be the trace's true-mode
        # label until the first event; np.int64 would not write as JSON
        message = f"initial mode {mode!r} is not a mode of the model"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(train_gate_scenario(), initial_mode=mode)

    def test_rejects_too_short_duration(self):
        with pytest.raises(ValueError, match="duration"):
            dataclasses.replace(train_gate_scenario(), duration=0.04)

    @pytest.mark.parametrize("start", [(0.0,), (0.0, 0.0, 0.0), ((0.0, 0.0),)])
    def test_rejects_initial_state_of_another_shape(self, start):
        config = dataclasses.replace(train_gate_scenario(), initial_state=start)
        with pytest.raises(ValueError, match=r"initial_state has shape .* not the model's \(2,\)"):
            simulate(config)

    def test_nan_speed_limit_refused_before_it_disarms_the_predicate(self):
        # with the limit of 0.4 this run breaks it at 161.6 s; a NaN limit
        # compares false with every speed, so the predicate would never fire
        config = train_gate_scenario(seed=0, attack=ramp_attack(0.06))
        with pytest.raises(ValueError, match="^zone speed limit limit must be finite, got nan$"):
            dataclasses.replace(
                config, safety=dataclasses.replace(config.safety, limit=float("nan"))
            )

    @pytest.mark.parametrize(
        "duration", [float("nan"), float("inf"), float("-inf"), pytest.param(10**400, id="10**400")]
    )
    def test_rejects_non_finite_duration(self, duration):
        with pytest.raises(ValueError, match=r"duration must be finite, got"):
            dataclasses.replace(train_gate_scenario(), duration=duration)

    @pytest.mark.parametrize("duration", ["20", True, None])
    def test_rejects_duration_that_is_not_a_number(self, duration):
        # True / 0.1 would run 10 samples, and text would fail only inside the run
        message = f"duration must be a real number, got {duration!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(train_gate_scenario(), duration=duration)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_controller_output_stops_the_run(self, tg_machinery):
        # the check runs before the NaN reaches any array operation, so
        # NumPy has nothing to warn about first
        class NanAt:
            calls = 0

            def control(self, y, t):
                self.calls += 1
                return np.array([np.nan if self.calls == 41 else 0.5])

        detector, bank, observer = tg_machinery
        controller = NanAt()
        config = dataclasses.replace(train_gate_scenario(duration=30.0), controller=controller)
        with pytest.raises(ValueError, match="controller output .* at 4.0 s"):
            simulate(config, detector=detector, bank=bank, observer=observer)
        assert controller.calls == 41


# the floats the loop's products meet at their edges: signed zeros and
# subnormals, next to ordinary magnitudes that cannot overflow
_EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1.0, -1.0]),
    st.floats(-1e6, 1e6, allow_subnormal=True),
)


class TestInPlaceStep:
    """The loop steps each sample straight into its buffers' rows."""

    @settings(max_examples=4 * settings.default.max_examples, deadline=None)
    @given(st.data())
    def test_seed_rows_keep_the_bits_of_one_seed_steps(self, data):
        # the loop steps row i of the run's buffers into row i + 1 through
        # one generated function at offset i * dim, with or without the
        # attack, each row with its own A, B and u as after an event or a
        # new output; every row must get the bytes of the reference's
        # per-entry loop
        steps, dim = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 4))
        inputs = data.draw(st.integers(1, 2))

        def arrays(*shape):
            count = int(np.prod(shape))
            values = data.draw(st.lists(_EDGE_FLOATS, min_size=count, max_size=count))
            return np.array(values).reshape(shape)

        a, b, u = arrays(steps, dim, dim), arrays(steps, dim, inputs), arrays(steps, inputs)
        x, w, v, gamma = arrays(dim), arrays(steps, dim), arrays(steps, dim), arrays(dim)
        kern = kernels(dim, inputs)
        for attacked in (False, True):
            # rows 1 .. steps hold w and v before the steps, as the loop lays them
            xs, ys = np.full((steps + 1, dim), np.nan), np.full((steps + 1, dim), np.nan)
            xs[0], xs[1:], ys[1:] = x, w, v
            views = memoryview(xs.reshape(-1)), memoryview(ys.reshape(-1))
            want = x
            for i in range(steps):
                bu = kern.b_times(tuple(b[i].ravel().tolist()), tuple(u[i].tolist()))
                at = (i * dim, tuple(a[i].ravel().tolist()), bu)
                if attacked:
                    kern.plant_attacked(*views, *at, tuple(gamma.tolist()))
                else:
                    kern.plant(*views, *at)
                want = plant_step(a[i], b[i], want, u[i], w[i])
                want_y = v[i] + want + gamma if attacked else v[i] + want
                assert xs[i + 1].tobytes() == want.tobytes()
                assert ys[i + 1].tobytes() == want_y.tobytes()

    def test_controller_cannot_write_into_y(self, tg_machinery):
        class Scribbler:
            def control(self, y, t):
                y[0] = 0.0
                return np.array([0.5])

        detector, bank, observer = tg_machinery
        config = dataclasses.replace(train_gate_scenario(duration=1.0), controller=Scribbler())
        with pytest.raises(ValueError, match="read-only"):
            simulate(config, detector=detector, bank=bank, observer=observer)

    def test_copies_of_what_the_loop_hands_out_are_the_trace(self, tg_machinery):
        # y is a row and x a block of rows that the loop overwrites a block
        # later; copies taken during the call are the trace's rows
        base = train_gate_scenario(seed=3, duration=40.0)

        class Keeper:
            def __init__(self):
                self.seen = []

            def control(self, y, t):
                self.seen.append(y.copy())
                return base.controller.control(y, t)

        class Watcher:
            def __init__(self):
                self.seen = []

            def violated(self, x):
                assert not x.flags.writeable
                self.seen.append(x.copy())
                return base.safety.violated(x)

        detector, bank, observer = tg_machinery
        keeper, watcher = Keeper(), Watcher()
        config = dataclasses.replace(base, controller=keeper, safety=watcher)
        result = simulate(config, detector=detector, bank=bank, observer=observer)
        assert len(result.trace) > 2 * BLOCK
        np.testing.assert_array_equal(np.array(keeper.seen), result.trace.y)
        assert all(len(block) <= BLOCK for block in watcher.seen)
        np.testing.assert_array_equal(np.concatenate(watcher.seen), result.trace.x_true)
        plain = simulate(base, detector=detector, bank=bank, observer=observer)
        assert result.summary == plain.summary

    def test_one_dimensional_zeros_match_per_sample_loop(self):
        # A = 0, B = 0 and a negative input: from a negative first estimate,
        # the prediction's products are zeros whose sign `dot` and `@`
        # disagree on, and the zero gain leaves the prediction as the estimate
        ab = ([[0.0]], [[0.0]])
        model = HybridAutomaton(
            modes=(
                Mode(1, *ab, Invariant(((-1.0, 10.0),))),
                Mode(2, *ab, Invariant(((10.0, 12.0),))),
            ),
            events=(Event("go", "input"), Event("seen", "output")),
            transitions=(Transition(1, "go", "seen", 2, Guard(axis=0, sign=1, threshold=10.0)),),
            w_bounds=[0.0],
            v_bounds=[0.1],
            input_bound=1.0,
            dwell_time=1,
            sampling_period=1.0,
            theta=0.3,
        )
        config = ScenarioConfig(
            model=model, controller=ConstantController((-1.0,)), initial_state=(0.0,),
            initial_mode=1, duration=300.0, seed=2,
        )
        detector, bank = Detector(model), synthesize_gains(model)
        observer = build_observer(extract_fsm(model))
        got = simulate(config, detector=detector, bank=bank, observer=observer)
        want = reference_simulate(config, detector, bank, observer)
        assert want.trace.x_est[0, 0] < 0.0
        assert got.summary == want.summary
        for field in ("x_true", "y", "x_est", "residual"):
            assert getattr(got.trace, field).tobytes() == getattr(want.trace, field).tobytes()


class InPlaceController:
    """One writable array, rewritten in place on every call.

    Calls 1-20 give 0.5 and 1.0 in runs of three, so that some outputs
    repeat; from call 21 on, -0.0 and +0.0 alternate; call `nan_at` writes NaN.
    """

    def __init__(self, nan_at=41):
        self.calls, self.nan_at, self.out = 0, nan_at, np.empty(1)

    def control(self, y, t):
        self.calls += 1
        if self.calls == self.nan_at:
            self.out[0] = np.nan
        elif self.calls <= 20:
            self.out[0] = (0.5, 1.0)[self.calls // 3 % 2]
        else:
            self.out[0] = (-0.0, 0.0)[self.calls % 2]
        return self.out


@dataclasses.dataclass
class ContinuousController:
    """A new array every sample, with a value that changes every sample."""

    level: float = 0.6
    swing: float = 0.4

    def control(self, y, t):
        return np.array([self.level + self.swing * np.sin(0.05 * t)])


def _assert_bit_equal(got, want, directory):
    assert got.summary == want.summary
    for writer, suffix in ((write_trace_csv, "csv"), (write_trace_jsonl, "jsonl")):
        writer(got.trace, str(directory / f"got.{suffix}"))
        writer(want.trace, str(directory / f"want.{suffix}"))
        assert (directory / f"got.{suffix}").read_bytes() == (
            directory / f"want.{suffix}"
        ).read_bytes()


class TestOutputReuse:
    """A controller output is checked and multiplied by B once per distinct value."""

    def test_array_rewritten_in_place(self, tg_machinery, tmp_path):
        detector, bank, observer = tg_machinery
        base = train_gate_scenario(seed=4, duration=4.0)
        got = simulate(
            dataclasses.replace(base, controller=InPlaceController()),
            detector=detector, bank=bank, observer=observer,
        )
        want = reference_simulate(
            dataclasses.replace(base, controller=InPlaceController()), detector, bank, observer
        )
        assert got.summary.samples == 40
        _assert_bit_equal(got, want, tmp_path)

    @pytest.mark.parametrize("output", [(0.5, 0.5), ()])
    def test_output_of_another_width_is_refused(self, output):
        message = (
            f"controller output {list(output)} at 0.0 s has {len(output)} entries, "
            "but the model takes 1 inputs"
        )
        config = dataclasses.replace(
            train_gate_scenario(duration=1.0), controller=ConstantController(output)
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            simulate(config)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_written_in_place_stops_the_run(self, tg_machinery):
        detector, bank, observer = tg_machinery
        controller = InPlaceController()
        config = dataclasses.replace(train_gate_scenario(duration=30.0), controller=controller)
        with pytest.raises(ValueError, match=r"controller output \[nan\] at 4\.0 s"):
            simulate(config, detector=detector, bank=bank, observer=observer)
        assert controller.calls == 41

    def test_new_output_every_sample(self, tg_machinery, tmp_path):
        detector, bank, observer = tg_machinery
        config = dataclasses.replace(
            train_gate_scenario(seed=6), controller=ContinuousController()
        )
        got = simulate(config, detector=detector, bank=bank, observer=observer)
        want = reference_simulate(config, detector, bank, observer)
        assert len(got.trace) > 4 * BLOCK
        _assert_bit_equal(got, want, tmp_path)

    def test_summary_only_peak_does_not_grow_with_the_run(self, tg_machinery):
        # only the last output is kept, not one entry per distinct output;
        # the train crawls, so that no event changes what a block holds
        detector, bank, observer = tg_machinery
        peaks = {}
        for samples in (4 * BLOCK, 16 * BLOCK):
            config = dataclasses.replace(
                train_gate_scenario(seed=6, duration=samples / 10),
                controller=ContinuousController(level=0.02, swing=0.01),
            )
            simulate(config, keep_trace=False, detector=detector, bank=bank, observer=observer)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                summary = simulate(
                    config, keep_trace=False, detector=detector, bank=bank, observer=observer
                ).summary
                peaks[samples] = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert summary.samples == samples and not summary.events
        assert peaks[16 * BLOCK] < 1.2 * peaks[4 * BLOCK], peaks

    def test_modes_must_take_one_input_count(self):
        states = [
            dict(state, B=[[0.0, 0.0], [0.0, 0.0], [0.2, 0.1]] if state["id"] == 2 else state["B"])
            for state in ND_ACTUATOR["states"]
        ]
        message = "modes take different numbers of inputs; one controller cannot drive them"
        with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
            parse_model(dict(ND_ACTUATOR, states=states))


class TestReproducibility:
    def test_same_seed_same_bits(self, tg_machinery, tmp_path):
        detector, bank, observer = tg_machinery
        kwargs = dict(detector=detector, bank=bank, observer=observer)
        a = simulate(train_gate_scenario(seed=7, duration=60.0), **kwargs)
        b = simulate(train_gate_scenario(seed=7, duration=60.0), **kwargs)
        assert a.summary == b.summary
        for field in ("times", "x_true", "y", "x_est", "residual", "volume"):
            np.testing.assert_array_equal(
                getattr(a.trace, field), getattr(b.trace, field)
            )
        assert a.trace.node == b.trace.node
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_trace_jsonl(a.trace, str(pa))
        write_trace_jsonl(b.trace, str(pb))
        assert pa.read_bytes() == pb.read_bytes()

    def test_different_seed_different_noise(self, tg_machinery):
        detector, bank, observer = tg_machinery
        kwargs = dict(detector=detector, bank=bank, observer=observer)
        a = simulate(train_gate_scenario(seed=1, duration=20.0), **kwargs)
        b = simulate(train_gate_scenario(seed=2, duration=20.0), **kwargs)
        assert not np.array_equal(a.trace.y, b.trace.y)

    def test_sweep_matches_individual_runs(self, tg_machinery):
        detector, bank, observer = tg_machinery
        base = train_gate_scenario(duration=30.0)
        results = sweep(base, [3, 1, 1, 2])
        assert [r.summary.seed for r in results] == [1, 2, 3]
        assert all(r.trace is None for r in results)
        for r in results:
            single = simulate(
                dataclasses.replace(base, seed=r.summary.seed),
                keep_trace=False,
                detector=detector,
                bank=bank,
                observer=observer,
            )
            assert single.summary == r.summary


class TestModelMachinery:
    """What a run builds is built once per input: per model, and the flat gains per bank."""

    BUILDS = (
        "validate_model", "Detector", "synthesize_gains", "build_observer", "_mode_steps",
        "_flat_gains",
    )

    @pytest.fixture
    def builds(self, monkeypatch):
        module = importlib.import_module("hybridmon.simulate")
        counts = dict.fromkeys(self.BUILDS, 0)
        for name in self.BUILDS:

            def counted(*args, _name=name, _build=getattr(module, name), **kwargs):
                counts[_name] += 1
                return _build(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        return counts

    def test_two_sweeps_build_once(self, builds):
        base = train_gate_scenario(duration=30.0)
        results = sweep(base, [1, 2]) + sweep(base, [3, 2])
        assert builds == dict.fromkeys(self.BUILDS, 1)
        for result in results:
            fresh = train_gate_scenario(seed=result.summary.seed, duration=30.0)
            assert simulate(fresh, keep_trace=False).summary == result.summary

    def test_equal_model_builds_its_own(self, builds):
        first, second = train_gate_scenario(duration=5.0), train_gate_scenario(duration=5.0)
        assert first.model is not second.model
        assert model_to_dict(first.model) == model_to_dict(second.model)
        for config in (first, first, second, second):
            simulate(config, keep_trace=False)
        assert builds == dict.fromkeys(self.BUILDS, 2)

    def test_passed_machinery_is_used(self, builds, tg_machinery):
        detector, bank, observer = tg_machinery

        class Spy:
            calls = 0

            def evaluate_rows(self, *args):
                self.calls += 1
                return detector.evaluate_rows(*args)

        spy = Spy()
        config = train_gate_scenario(seed=5, duration=30.0)
        scaled = dataclasses.replace(
            bank,
            gains={q: dataclasses.replace(g, gain=0.5 * g.gain) for q, g in bank.gains.items()},
        )
        got = simulate(config, detector=spy, bank=scaled, observer=observer)
        assert builds == dict(
            dict.fromkeys(self.BUILDS, 0), validate_model=1, _mode_steps=1, _flat_gains=1
        )
        assert spy.calls == -(-len(got.trace) // BLOCK)
        want = reference_simulate(config, detector, scaled, observer)
        assert got.summary == want.summary
        assert got.trace.x_est.tobytes() == want.trace.x_est.tobytes()
        config, mute = _mute(_start_at(34.7))
        assert simulate(config, observer=mute).summary.discrete_inconsistency == 12.8

    def test_a_passed_bank_flattens_its_gains_once(self, builds, tg_machinery):
        detector, bank, observer = tg_machinery
        # two banks no run has used yet
        first, second = dataclasses.replace(bank), dataclasses.replace(bank)
        config = train_gate_scenario(duration=5.0)
        machinery = dict(detector=detector, observer=observer, keep_trace=False)
        runs = [simulate(config, bank=first, **machinery) for _ in range(2)]
        assert (builds["_flat_gains"], builds["_mode_steps"]) == (1, 1)
        runs.append(simulate(config, bank=second, **machinery))
        assert (builds["_flat_gains"], builds["_mode_steps"]) == (2, 1)
        assert runs[0].summary == runs[1].summary == runs[2].summary


class TestEventMechanics:
    def test_nominal_event_sequence(self, nominal_run):
        # the lap budget of 200 s covers both sensor crossings; the track end
        # is only reached when the noise draws run fast
        summary = nominal_run.summary
        assert [e.input_event for e in summary.events] == ["c_down", "c_up"]
        assert [e.output_event for e in summary.events] == ["s_1", "s_2"]
        assert summary.stop_event is None
        assert summary.completed
        assert summary.dwell_ok

    def test_guards_hold_at_event_states(self, tg_model, nominal_run):
        for event in nominal_run.summary.events:
            tr = next(
                t
                for t in tg_model.transitions_from(event.source)
                if t.input_event == event.input_event
            )
            assert satisfied(tr.guard, event.state)
            # the sample before the event must not satisfy the guard yet
            idx = event.sample
            if idx > 0:
                prev = nominal_run.trace.x_true[idx - 1]
                assert not satisfied(tr.guard, prev)

    def test_mode_switches_one_sample_after_event(self, nominal_run):
        trace = nominal_run.trace
        for event in nominal_run.summary.events:
            assert trace.mode_true[event.sample] == event.source
            if event.sample + 1 < len(trace):
                assert trace.mode_true[event.sample + 1] == event.target

    def test_observer_node_follows_events(self, nominal_run):
        trace = nominal_run.trace
        first = nominal_run.summary.events[0]
        for i in range(first.sample + 1):
            assert trace.node[i] == (1, 2, 3)
        assert trace.node[first.sample + 1] == (first.target,)

    def test_run_stops_at_track_end(self, tg_machinery):
        detector, bank, observer = tg_machinery
        result = simulate(
            train_gate_scenario(seed=0, duration=250.0),
            detector=detector,
            bank=bank,
            observer=observer,
            keep_trace=False,
        )
        summary = result.summary
        assert [e.input_event for e in summary.events] == ["c_down", "c_up", "c_next"]
        assert summary.stop_event == "s_3"
        last = summary.events[-1]
        assert summary.samples == last.sample + 1
        assert summary.end_time == pytest.approx(last.time)
        assert summary.completed

    def test_event_time_is_sample_times_period(self, tg_model, nominal_run):
        for event in nominal_run.summary.events:
            assert event.time == pytest.approx(event.sample * tg_model.sampling_period)

    def test_settling_resets_after_each_event(self, tg_model, nominal_run):
        trace = nominal_run.trace
        dwell = tg_model.dwell_time
        first = nominal_run.summary.events[0]
        # steady goes false right after the switch and returns after dwell samples
        assert not trace.steady[first.sample + 1]
        assert not trace.steady[first.sample + dwell]
        assert trace.steady[first.sample + dwell + 1]

    def test_discrete_inconsistency_stops_the_run(self, tg_machinery):
        detector, bank, _ = tg_machinery
        # an observer with no transitions treats the first event pair as
        # impossible, which the monitor reports as an inconsistency
        mute = ObserverFsm(root=(1, 2, 3), nodes=frozenset({(1, 2, 3)}), transitions={})
        result = simulate(
            train_gate_scenario(seed=0), detector=detector, bank=bank, observer=mute
        )
        summary = result.summary
        assert not summary.completed
        assert summary.discrete_inconsistency is not None
        first_event = summary.events[0]
        assert summary.discrete_inconsistency == pytest.approx(
            (first_event.sample + 1) * 0.1
        )


class TestMonitors:
    def test_baseline_threshold_value(self, tg_model):
        assert baseline_threshold(tg_model) == pytest.approx(0.15, abs=1e-15)

    def test_nominal_run_is_silent(self, nominal_run):
        summary = nominal_run.summary
        assert summary.first_conflict is None
        assert summary.first_baseline_alarm is None
        assert not summary.alarm
        assert residual_baseline(nominal_run.trace, summary.baseline_threshold) is None

    # every seed of 0-5,999 that raised B on its stop-event row at 320 s
    # while the row was judged in the source invariant alone; the first two
    # are the 200 s runs that showed it
    EVENT_ROW_SEEDS = (2131455717, 1818756093)
    EVENT_ROW_SEEDS_320 = (
        159, 204, 349, 1214, 1589, 1635, 1637, 1905, 1988, 2061, 2140,
        3044, 3280, 3332, 3425, 4260, 4779, 5420, 5689, 5908, 5976,
    )

    @pytest.mark.parametrize(
        "duration, seeds", [(200.0, EVENT_ROW_SEEDS), (320.0, EVENT_ROW_SEEDS_320)]
    )
    def test_stop_event_row_is_silent(self, duration, seeds):
        # the state that fires s_3 at 80 m has left mode 3's [75, 80]; the
        # box that explains the event is judged against the invariant joined
        # with the guard slab, which it meets
        for result in sweep(train_gate_scenario(duration=duration), seeds):
            summary = result.summary
            assert summary.stop_event == "s_3", summary.seed
            assert not summary.alarm, (summary.seed, summary.first_conflict)

    def test_step_attack_trips_baseline_quickly(self, tg_machinery):
        detector, bank, observer = tg_machinery
        attack = AttackSpec(axes=(0,), kind="step", magnitude=1.0, start_time=1.5)
        result = simulate(
            train_gate_scenario(seed=3, attack=attack),
            detector=detector,
            bank=bank,
            observer=observer,
        )
        summary = result.summary
        assert summary.first_baseline_alarm == pytest.approx(1.5)
        assert residual_baseline(result.trace, summary.baseline_threshold) == pytest.approx(1.5)

    def test_steady_maxima_match_trace(self, nominal_run):
        trace = nominal_run.trace
        norms = np.max(np.abs(trace.residual), axis=1)
        errors = np.max(np.abs(trace.x_true - trace.x_est), axis=1)
        assert nominal_run.summary.max_residual == pytest.approx(norms[trace.steady].max())
        assert nominal_run.summary.max_estimation_error == pytest.approx(
            errors[trace.steady].max()
        )
        assert nominal_run.summary.max_volume == pytest.approx(
            trace.volume[trace.steady].max()
        )

    def test_dwell_flag_drops_when_dwell_exceeds_gaps(self, tg_model):
        stretched = dataclasses.replace(tg_model, dwell_time=1600)
        result = simulate(train_gate_scenario(seed=0, model=stretched), keep_trace=False)
        assert len(result.summary.events) >= 2
        assert not result.summary.dwell_ok

    def test_true_mode_always_inside_node(self, nominal_digest):
        assert all(run.mode_in_node for run in nominal_digest.runs)

    def test_state_confined_to_invariant_between_events(self, tg_model, nominal_digest):
        # Two transients are built into the scenario. The slow command starts
        # 1 m before the 45 m sensor and the 0.95 speed pole cannot shed
        # 0.6 m/s in that metre, so the train enters the gate section above
        # its 0.4 m/s ceiling; and the run starts on the depot face, where the
        # first process-noise kicks can push the position below zero. Every
        # between-event sample outside the active range must lie inside the
        # envelope the model allows for these two (excursion_envelope in
        # conftest); any other excursion counts as a breach.
        lo2, hi2 = tg_model.invariant(2).bounds()
        # the gate section lies in the slow zone, whose reference sits under
        # the section's speed ceiling, and the departure reference under its own
        assert GATE_POSITION - SLOW_ZONE_HALF_WIDTH <= lo2[0]
        assert hi2[0] <= GATE_POSITION + SLOW_ZONE_HALF_WIDTH
        assert SLOW_SPEED <= hi2[1]
        assert FAST_SPEED <= tg_model.invariant(3).bounds()[1][1]
        assert train_gate_scenario().initial_state == (0.0, 0.0)
        bad = [run.seed for run in nominal_digest.runs if run.envelope_breaches > 0]
        assert not bad, (
            f"seeds {bad[:5]} leave the active operating range between events "
            "beyond what the entry transient and the depot start allow"
        )

    def test_state_confined_once_transients_settle(self, nominal_digest):
        assert all(run.containment_ok_settled for run in nominal_digest.runs)


class TestClassifyFdia:
    def test_position_sensor_admits_stealthy_injection(self, tg_model):
        result = classify_fdia(tg_model, 1, (0,))
        assert result.feasible and not result.indeterminate
        assert result.eigenvalue == pytest.approx(1.0)
        assert result.eigenvector == pytest.approx((1.0, 0.0))

    def test_speed_sensor_alone_does_not(self, tg_model):
        result = classify_fdia(tg_model, 1, (1,))
        assert not result.feasible and not result.indeterminate
        assert "no critical eigenvector" in result.reason

    def test_no_axes_selected(self, tg_model):
        result = classify_fdia(tg_model, 1, ())
        assert not result.feasible
        assert result.reason == "no sensor selected"

    def test_strictly_stable_dynamics(self):
        model = HybridAutomaton(
            modes=(
                Mode(1, [[0.5]], [[0.0]], Invariant(((0.0, 1.0),))),
            ),
            events=(),
            transitions=(),
            w_bounds=[0.0],
            v_bounds=[0.1],
            input_bound=0.0,
            dwell_time=1,
            sampling_period=0.1,
            theta=0.05,
        )
        result = classify_fdia(model, 1, (0,))
        assert not result.feasible
        assert "strictly stable" in result.reason

    def test_defective_eigenvalue_is_indeterminate(self):
        model = HybridAutomaton(
            modes=(
                Mode(
                    1,
                    [[1.0, 1.0], [0.0, 1.0]],
                    [[0.0], [0.0]],
                    Invariant(((0.0, 1.0), (0.0, 1.0))),
                ),
            ),
            events=(),
            transitions=(),
            w_bounds=[0.0, 0.0],
            v_bounds=[0.1, 0.1],
            input_bound=0.0,
            dwell_time=1,
            sampling_period=0.1,
            theta=0.05,
        )
        jordan_on_attacked = classify_fdia(model, 1, (0,))
        assert jordan_on_attacked.feasible  # eigenvector (1, 0) is on axis 0
        other = classify_fdia(model, 1, (1,))
        assert not other.feasible
        assert other.indeterminate
        assert "defective" in other.reason

    def test_axis_out_of_range(self, tg_model):
        with pytest.raises(ValueError, match="outside the state dimension"):
            classify_fdia(tg_model, 1, (5,))

    @pytest.mark.parametrize("axis", [0.7, True, "1"], ids=["fraction", "bool", "text"])
    def test_axis_not_a_whole_number_refused(self, tg_model, axis):
        # int() would read 0.7 as axis 0, and True and "1" as axis 1
        with pytest.raises(ValueError) as refused:
            classify_fdia(tg_model, 1, [axis])
        assert str(refused.value) == f"attack axis must be a whole number, got {axis!r}"

    def test_whole_float_axis_reads_as_int(self, tg_model):
        assert classify_fdia(tg_model, 1, [0.0]) == classify_fdia(tg_model, 1, [0])


class TestTraceWriters:
    def test_csv_header_and_values(self, nominal_run, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(nominal_run.trace, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "t,x_0,x_1,y_0,y_1,xest_0,xest_1,r_0,r_1,"
            "q,q_node,conflict_a,conflict_b,conflict_c,alarm,volume,steady,warming_up"
        )
        assert len(lines) == len(nominal_run.trace) + 1
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == nominal_run.trace.x_true[0, 0]  # repr round-trips
        assert first[9] == "1"
        assert first[10] == "1|2|3"

    def test_jsonl_round_trip(self, nominal_run, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(nominal_run.trace, str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == len(nominal_run.trace)
        row = json.loads(lines[42])
        assert row["t"] == pytest.approx(4.2)
        assert row["x"] == list(nominal_run.trace.x_true[42])
        assert row["q"] == nominal_run.trace.mode_true[42]
        assert row["q_node"] == list(nominal_run.trace.node[42])
        assert isinstance(row["alarm"], bool)

    def test_trace_length_matches_summary(self, nominal_run):
        assert len(nominal_run.trace) == nominal_run.summary.samples


# monbench/nd_actuator.json: the crossing with an actuator state, so that the
# horizon sets are neither boxes nor polygons
ND_ACTUATOR = {
    "states": [
        {
            "id": q,
            "A": [[1.0, 0.1, 0.0], [0.0, 0.95, 0.05], [0.0, 0.0, 0.8]],
            "B": [[0.0], [0.0], [0.2]],
            "invariant": invariant,
        }
        for q, invariant in (
            (1, [[0.0, 46.0], [0.0, 1.5], [0.0, 1.5]]),
            (2, [[45.0, 76.0], [0.0, 0.6], [0.0, 0.4]]),
            (3, [[75.0, 80.0], [0.0, 1.5], [0.0, 1.5]]),
        )
    ],
    "events": [
        {"id": name, "kind": kind, "observable": True}
        for name, kind in (
            ("c_down", "input"), ("s_1", "output"), ("c_up", "input"),
            ("s_2", "output"), ("c_next", "input"), ("s_3", "output"),
        )
    ],
    "transitions": [
        {"source": 1, "input_event": "c_down", "output_event": "s_1", "target": 2,
         "guard": {"axis": 0, "sign": 1, "threshold": 45.0}},
        {"source": 2, "input_event": "c_up", "output_event": "s_2", "target": 3,
         "guard": {"axis": 0, "sign": 1, "threshold": 75.0}},
        {"source": 3, "input_event": "c_next", "output_event": "s_3", "target": 1,
         "guard": {"axis": 0, "sign": 1, "threshold": 80.0}},
    ],
    "noise": {"w": [0.01, 0.01, 0.01], "v": [0.1, 0.1, 0.1]},
    "input_bound": 1.0,
    "sampling_period": 0.1,
    "dwell_time": 15,
    "theta": 0.05,
}


def _nd_scenario(seed, slope=None, w=None):
    doc = dict(ND_ACTUATOR, noise={"w": w or ND_ACTUATOR["noise"]["w"], "v": [0.1] * 3})
    attack = None if slope is None else ramp_attack(slope)
    config = train_gate_scenario(seed=seed, duration=70.0, attack=attack, model=parse_model(doc))
    return dataclasses.replace(config, initial_state=(0.0, 0.0, 0.0))


def _distinct_b_scenario(seed):
    # mode 2 drives the actuator harder and mode 3's B differs from mode 1's
    # only in the sign of a zero, so the Kalman step after each event needs
    # its own B u
    b = {1: [[0.0], [0.0], [0.2]], 2: [[0.0], [0.0], [0.3]], 3: [[-0.0], [0.0], [0.2]]}
    states = [dict(state, B=b[state["id"]]) for state in ND_ACTUATOR["states"]]
    model = parse_model(dict(ND_ACTUATOR, states=states))
    config = train_gate_scenario(seed=seed, duration=70.0, model=model)
    return dataclasses.replace(config, initial_state=(0.0, 0.0, 0.0))


def _mute(config):
    # no observer transitions: the first event pair is inconsistent
    return config, ObserverFsm(root=(1, 2, 3), nodes=frozenset({(1, 2, 3)}), transitions={})


LOOP_CASES = {
    **{f"nominal-{seed}": lambda seed=seed: train_gate_scenario(seed=seed) for seed in (0, 1, 5)},
    **{
        f"ramp{slope}": lambda slope=slope: train_gate_scenario(seed=2, attack=ramp_attack(slope))
        for slope in (0.025, -0.06, 0.08)
    },
    "step-baseline": lambda: train_gate_scenario(
        seed=3, attack=AttackSpec(axes=(0,), kind="step", magnitude=1.0, start_time=1.5)
    ),
    "custom": lambda: train_gate_scenario(
        seed=4,
        attack=AttackSpec(
            axes=(0, 1),
            kind="custom",
            samples=tuple(0.01 * (j % 7 - 3) for j in range(300)),
            start_time=2.0,
        ),
    ),
    "nd-nominal": lambda: _nd_scenario(6),
    "nd-ramp": lambda: _nd_scenario(7, slope=0.06),
    "nd-ramp-falling": lambda: _nd_scenario(8, slope=-0.06),
    # a noise bound of zero: every draw on that axis clips to +0.0
    "nd-noiseless-actuator": lambda: _nd_scenario(9, w=[0.01, 0.01, 0.0]),
    "nd-distinct-b": lambda: _distinct_b_scenario(10),
    # from mode 2, the estimate predicts with the root node's mode 1 and its
    # B (0.2) while the plant steps with mode 2's (0.3), until s_2 at sample
    # 176 moves the node to (3,); the run stops on s_3 at sample 278
    "nd-distinct-b-from-mode-2": lambda: dataclasses.replace(
        _distinct_b_scenario(11), initial_mode=2, initial_state=(70.0, 0.2, 0.2)
    ),
    "inconsistency": lambda: _mute(train_gate_scenario(seed=0)),
    **{
        f"samples-{k}": lambda k=k: train_gate_scenario(seed=k, duration=k / 10)
        for k in (1, 127, 128, 129, 257)
    },
    # from 34.7 m, seed 0 reaches the 45 m sensor at sample 127
    "stop-on-block-end": lambda: dataclasses.replace(
        train_gate_scenario(seed=0, duration=30.0),
        initial_state=(34.7, 0.0),
        stop_events=frozenset({"s_1"}),
    ),
    # the run ends by its duration on sample 127, the sample whose state fires s_1
    "event-on-last-sample": lambda: _start_at(34.7, duration=12.8),
    # a new controller output on the run's last sample, row 127 of block 1
    "output-on-last-sample": lambda: _start_at(
        0.0, duration=25.6, controller=TimeKeyedController(switches=(255,))
    ),
    # a new controller output on row 127 of block 0, the run going on
    "output-on-row-127": lambda: _start_at(
        0.0, controller=TimeKeyedController(switches=(127,))
    ),
}

# the `LOOP_CASES` entries on the train-gate model
TRAIN_GATE_CASES = sorted(name for name in LOOP_CASES if not name.startswith("nd-"))


class TestBlockLoop:
    """`simulate` against the per-sample loop it replaced (loop_reference.py)."""

    @pytest.mark.parametrize("name", sorted(LOOP_CASES))
    def test_matches_per_sample_loop(self, name, tmp_path):
        config = LOOP_CASES[name]()
        config, observer = config if isinstance(config, tuple) else (config, None)
        model = config.model
        detector, bank = Detector(model), synthesize_gains(model)
        observer = observer or build_observer(extract_fsm(model))
        got = simulate(config, detector=detector, bank=bank, observer=observer)
        want = reference_simulate(config, detector, bank, observer)
        assert got.summary == want.summary
        if name == "stop-on-block-end":
            assert got.summary.samples == BLOCK and got.summary.stop_event == "s_1"
        if name == "inconsistency":
            assert got.summary.discrete_inconsistency is not None
        if name == "event-on-last-sample":
            assert got.summary.samples == BLOCK and got.summary.stop_event is None
            assert [e.sample for e in got.summary.events] == [BLOCK - 1]
        if name == "output-on-last-sample":
            assert got.summary.samples == 2 * BLOCK
        for writer, suffix in ((write_trace_csv, "csv"), (write_trace_jsonl, "jsonl")):
            writer(got.trace, str(tmp_path / f"got.{suffix}"))
            writer(want.trace, str(tmp_path / f"want.{suffix}"))
            assert (tmp_path / f"got.{suffix}").read_bytes() == (
                tmp_path / f"want.{suffix}"
            ).read_bytes()
        summary_only = simulate(
            config, keep_trace=False, detector=detector, bank=bank, observer=observer
        )
        assert summary_only.summary == want.summary


FINGERPRINTS = Path(__file__).resolve().parent / "trace_fingerprints.json"


class TestTraceFingerprints:
    """Train-gate's `LOOP_CASES` against SHA-256 digests committed in `FINGERPRINTS`.

    The runs take `literal_bank`'s gains, so the digests hold on any host
    whose BLAS gives train-gate's detector tables their bits. Each case hashes
    the summary's repr, the same with and without a kept trace, and the CSV
    and JSONL bytes of the trace.
    """

    def test_digests_match_the_committed_file(self, tmp_path):
        fresh = {}
        for name in TRAIN_GATE_CASES:
            config = LOOP_CASES[name]()
            config, observer = config if isinstance(config, tuple) else (config, None)
            assert config.model == train_gate_model(), name
            bank = literal_bank(config.model)
            kept = simulate(config, bank=bank, observer=observer)
            alone = simulate(config, keep_trace=False, bank=bank, observer=observer)
            assert repr(alone.summary) == repr(kept.summary), name
            digests = {"summary": hashlib.sha256(repr(kept.summary).encode()).hexdigest()}
            for writer, suffix in ((write_trace_csv, "csv"), (write_trace_jsonl, "jsonl")):
                path = tmp_path / f"{name}.{suffix}"
                writer(kept.trace, str(path))
                digests[suffix] = hashlib.sha256(path.read_bytes()).hexdigest()
            fresh[name] = digests
        committed = json.loads(FINGERPRINTS.read_text(encoding="utf-8"))
        assert fresh == committed, "fresh digests:\n" + json.dumps(fresh, indent=1, sort_keys=True)


class TimeKeyedController:
    """Output 0.8, then 1.2 from the first switch sample on and 0.5 from the second.

    The switches default to samples 128 and 255.
    """

    def __init__(self, switches=(128, 255)):
        self.switches = switches
        self.outputs = [np.array([value]) for value in (0.8, 1.2, 0.5)]

    def control(self, y, t):
        sample = round(t * 10)
        return self.outputs[sum(sample >= switch for switch in self.switches)]


def _start_at(position, **kwargs):
    # seed 0 from 34.7 m reaches the 45 m sensor at sample 127, from 34.6 m at 128
    return dataclasses.replace(
        train_gate_scenario(seed=0, duration=30.0), initial_state=(position, 0.0), **kwargs
    )


BOUNDARY_CASES = {
    "event-on-127": lambda: _start_at(34.7),
    "event-on-128": lambda: _start_at(34.6),
    # the Kalman step needs the new mode's B u from row 0 of the next block
    "distinct-b-event-on-127": lambda: dataclasses.replace(
        _distinct_b_scenario(10), initial_state=(34.8, 0.0, 0.0), duration=30.0
    ),
    "output-switches-on-128-and-255": lambda: _start_at(0.0, controller=TimeKeyedController()),
    "inconsistency-on-127": lambda: _mute(_start_at(34.7)),
}


class TestBlockBoundaries:
    """Change points on the rows where the monitor pass splits its blocks."""

    @pytest.mark.parametrize("name", sorted(BOUNDARY_CASES))
    def test_matches_per_sample_loop(self, name, tmp_path):
        config = BOUNDARY_CASES[name]()
        config, observer = config if isinstance(config, tuple) else (config, None)
        model = config.model
        detector, bank = Detector(model), synthesize_gains(model)
        observer = observer or build_observer(extract_fsm(model))
        got = simulate(config, detector=detector, bank=bank, observer=observer)
        want = reference_simulate(config, detector, bank, observer)
        _assert_bit_equal(got, want, tmp_path)
        summary = got.summary
        sample = {"event-on-128": 128}.get(name, 127)
        if "event-on" in name:
            assert summary.events[0].sample == sample
            assert got.trace.mode_true[sample : sample + 2] == (1, 2)
            assert got.trace.node[sample + 1] == (2,)
        if name == "inconsistency-on-127":
            assert summary.samples == BLOCK and summary.discrete_inconsistency == 12.8
        if name.startswith("output"):
            assert summary.samples > 255
        summary_only = simulate(
            config, keep_trace=False, detector=detector, bank=bank, observer=observer
        )
        assert summary_only.summary == want.summary


# (base scenario, seeds) that `sweep` runs
LOCKSTEP_CASES = {
    "train-gate": (lambda: train_gate_scenario(duration=60.0), (0, 1, 5)),
    "nd-nominal": (LOOP_CASES["nd-nominal"], (6, 9, 13)),
    "nd-ramp-falling": (LOOP_CASES["nd-ramp-falling"], (8, 11)),
    "nd-noiseless-actuator": (LOOP_CASES["nd-noiseless-actuator"], (9, 12, 14)),
    "nd-distinct-b": (LOOP_CASES["nd-distinct-b"], (10, 15, 16)),
    # seeds stop on s_1 at samples 125, 126 and 127, the last of block 0
    "stop-on-block-end": (LOOP_CASES["stop-on-block-end"], range(6)),
    "ramp-shared": (
        lambda: train_gate_scenario(attack=ramp_attack(-0.06), duration=60.0), (2, 3, 4)
    ),
}


class TestLockstep:
    """A sweep gives each seed the bits of its own run."""

    @pytest.mark.parametrize("name", sorted(LOCKSTEP_CASES))
    def test_sweep_is_separate_runs(self, name, tmp_path):
        make, seeds = LOCKSTEP_CASES[name]
        base = make()
        results = sweep(base, seeds, keep_traces=True)
        assert [r.summary.seed for r in results] == sorted(seeds)
        for got in results:
            want = simulate(dataclasses.replace(base, seed=got.summary.seed))
            _assert_bit_equal(got, want, tmp_path)
        if name == "stop-on-block-end":
            assert {r.summary.samples for r in results} == {126, 127, 128}

    def test_controller_sees_one_run_after_another(self):
        # a controller that keeps state sees the lowest seed's calls from
        # its first sample to its last, then the next seed's
        base = train_gate_scenario(duration=20.0)

        class Recorder:
            def __init__(self):
                self.times = []

            def control(self, y, t):
                self.times.append(t)
                return base.controller.control(y, t)

        recorder = Recorder()
        results = sweep(dataclasses.replace(base, controller=recorder), [1, 0])
        assert [r.summary.samples for r in results] == [200, 200]
        times = [t * base.model.sampling_period for t in range(200)]
        assert recorder.times == times + times

    def test_lowest_failing_seed_raises(self):
        # the output turns NaN past 20 m: at 22.2 s for seed 0 and at 22.0 s
        # for seed 1; the sweep raises seed 0's error, as its run alone does
        base = train_gate_scenario(duration=40.0)

        class NanPast20:
            def control(self, y, t):
                return np.array([np.nan]) if y[0] > 20.0 else base.controller.control(y, t)

        config = dataclasses.replace(base, controller=NanPast20())
        messages = []
        for seed in (0, 1):
            with pytest.raises(ValueError) as alone:
                simulate(dataclasses.replace(config, seed=seed))
            messages.append(str(alone.value))
        assert "at 22.2" in messages[0] and "at 22.0 s" in messages[1]
        with pytest.raises(ValueError) as refused:
            sweep(config, [1, 0])
        assert str(refused.value) == messages[0]


WRITER_CASES = (
    "nominal-0", "ramp-0.06", "ramp0.08", "nd-nominal", "nd-ramp", "nd-ramp-falling",
    "samples-1", "samples-127", "samples-128", "samples-129", "samples-257",
)

SPECIAL_FLOATS = (
    float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3,
    1e16, -1e16, 1.7976931348623157e308, 0.1, 1 / 3,
)


def _hand_trace(k, dim, seed=0):
    """A trace of k rows with special floats, awkward mode ids and mixed-type nodes."""
    rng = np.random.default_rng(seed)

    def floats(*shape):
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-320, 300, shape)
        mask = rng.random(shape) < 0.3
        values[mask] = rng.choice(SPECIAL_FLOATS, size=int(mask.sum()))
        return values

    def flags():
        return rng.random(k) < 0.5

    modes = (1, 2, "a,b", 'q"x', "x|y", "l\nm", " pad ", "")
    nodes = ((1,), ("a,b",), (1, "a,b", 'q"x'), ("x|y", 2), ("l\nm", ""), (" pad ",))
    return Trace(
        times=floats(k),
        x_true=floats(k, dim),
        y=floats(k, dim),
        x_est=floats(k, dim),
        residual=floats(k, dim),
        mode_true=tuple(modes[j] for j in rng.integers(0, len(modes), k)),
        node=tuple(nodes[j] for j in rng.integers(0, len(nodes), k)),
        steady=flags(),
        warming_up=flags(),
        conflict_a=flags(),
        conflict_b=flags(),
        conflict_c=flags(),
        alarm=flags(),
        volume=floats(k),
    )


WRITERS = (
    (write_trace_csv, reference_write_csv, "csv"),
    (write_trace_jsonl, reference_write_jsonl, "jsonl"),
)


def _assert_same_bytes(trace, directory):
    for writer, reference, suffix in WRITERS:
        got, want = directory / f"got.{suffix}", directory / f"want.{suffix}"
        writer(trace, str(got))
        reference(trace, str(want))
        assert got.read_bytes() == want.read_bytes(), suffix


class TestBlockWriters:
    """The block writers against the per-row writers they replaced (trace_io_reference.py)."""

    @pytest.mark.parametrize("name", WRITER_CASES)
    def test_simulated_traces(self, name, tmp_path):
        config = LOOP_CASES[name]()
        trace = simulate(config).trace
        if name.startswith("samples-"):
            assert len(trace) == int(name.split("-")[1])
        _assert_same_bytes(trace, tmp_path)

    @pytest.mark.parametrize("k, dim", [(1, 1), (6, 2), (BLOCK, 3), (2 * BLOCK + 1, 2)])
    def test_special_floats_and_labels(self, k, dim, tmp_path):
        _assert_same_bytes(_hand_trace(k, dim, seed=k), tmp_path)

    def test_all_special_floats_in_one_row(self, tmp_path):
        values = np.array(SPECIAL_FLOATS)
        trace = dataclasses.replace(
            _hand_trace(1, values.size),
            x_true=values[None], y=-values[None], x_est=values[None], residual=values[None],
        )
        _assert_same_bytes(trace, tmp_path)
        assert '"x": [NaN, Infinity, -Infinity, -0.0, 0.0, 5e-324, ' in (
            tmp_path / "got.jsonl"
        ).read_text()

    def test_kept_trace_peak_stays_near_the_trace(self, tg_machinery):
        """A run that keeps its trace peaks at no more than 1.5 times what it returns."""
        detector, bank, observer = tg_machinery
        config = train_gate_scenario(seed=5, attack=ramp_attack(-0.06))
        simulate(config, detector=detector, bank=bank, observer=observer)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = simulate(config, detector=detector, bank=bank, observer=observer)
            retained, peak = (m - base for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert len(result.trace) == 2_000
        assert peak <= 1.5 * retained

    def test_writer_peak_is_one_block_beyond_the_trace(self, tg_machinery, tmp_path):
        """Each writer peaks under 100 KB above the live 2,000-row ramp trace."""
        detector, bank, observer = tg_machinery
        config = train_gate_scenario(seed=5, attack=ramp_attack(-0.06))
        trace = simulate(config, detector=detector, bank=bank, observer=observer).trace
        assert len(trace) == 2_000
        peaks = {}
        for writer, _, suffix in WRITERS:
            path = str(tmp_path / f"trace.{suffix}")
            writer(trace, path)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                writer(trace, path)
                peaks[suffix] = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        assert max(peaks.values()) < 100_000, peaks

    def test_csv_cell_quotes_as_csv_writer(self):
        """Every label of up to 3 characters over the awkward ones is quoted as csv.writer does."""
        alphabet = ("a", ",", '"', "\r", "\n", " ", "|", "\t", "'", "\\", "é", "\0", "%")
        texts = ["".join(chars) for n in range(4) for chars in itertools.product(alphabet, repeat=n)]
        assert len(texts) == 2_380
        assert [text for text in texts if _csv_cell(text) != reference_csv_cell(text)] == []

    def test_files_are_utf8_whatever_the_locale(self, tmp_path):
        """Under an ASCII locale both writers give the reference's UTF-8 bytes."""
        trace = dataclasses.replace(
            _hand_trace(6, 2, seed=2),
            mode_true=("zone-é",) * 3 + ('é,"q"',) * 3,
            node=(("zone-é", 1),) * 6,
        )
        (tmp_path / "trace.pickle").write_bytes(pickle.dumps(trace))
        script = (
            "import pickle, sys\n"
            "from hybridmon.simulate import write_trace_csv, write_trace_jsonl\n"
            "with open(sys.argv[1], 'rb') as handle:\n"
            "    trace = pickle.load(handle)\n"
            "write_trace_csv(trace, sys.argv[2])\n"
            "write_trace_jsonl(trace, sys.argv[3])\n"
        )
        src = str(Path(hybridmon.__file__).parents[1])
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        paths = [str(tmp_path / name) for name in ("trace.pickle", "got.csv", "got.jsonl")]
        proc = subprocess.run(
            [sys.executable, "-c", script, *paths], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        for _, reference, suffix in WRITERS:
            reference(trace, str(tmp_path / f"want.{suffix}"))
            want = (tmp_path / f"want.{suffix}").read_bytes()
            assert (tmp_path / f"got.{suffix}").read_bytes() == want, suffix
        assert "zone-é".encode() in (tmp_path / "got.csv").read_bytes()

    def test_memory_stays_flat(self, tmp_path):
        """A writer's peak above the live trace does not grow with its length."""
        peaks = {}
        for k in (2_000, 20_000):
            trace = _hand_trace(k, 2, seed=1)
            for writer, _, suffix in WRITERS:
                tracemalloc.start()
                try:
                    base = tracemalloc.get_traced_memory()[0]
                    writer(trace, str(tmp_path / f"trace.{suffix}"))
                    peaks[k, suffix] = tracemalloc.get_traced_memory()[1] - base
                finally:
                    tracemalloc.stop()
        for suffix in ("csv", "jsonl"):
            assert peaks[20_000, suffix] < 1.5 * peaks[2_000, suffix], peaks
