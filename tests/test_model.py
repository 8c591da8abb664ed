"""Model construction, validation, and region decomposition."""

import dataclasses
import re

import numpy as np
import pytest
from loop_reference import satisfied

from hybridmon import (
    DegenerateModelError,
    Event,
    Guard,
    HybridAutomaton,
    Invariant,
    Mode,
    ModelError,
    RiccatiError,
    Transition,
    decompose_regions,
    extract_fsm,
    synthesize_gains,
    validate_model,
)
from hybridmon.model import neighbor_value
from hybridmon.train_gate import train_gate_model, train_gate_scenario


def dyn1(a=0.5):
    """A and B of a 1-D mode whose one input has no effect."""
    return ([[a]], [[0.0]])


# w_bounds, v_bounds and input_bound of the 1-D test models
NOISE = ((0.01,), (0.1,), 1.0)


def _inside(box, pt):
    return all(lo <= value <= hi for value, (lo, hi) in zip(pt, box))


def corridor(
    lo_a=0.0, hi_a=2.0, lo_b=1.0, hi_b=3.0, guard_at=1.0, tie_guard=None, sign=1, w=0.01, v=0.1
):
    """Two 1-D modes whose invariants overlap on [lo_b, hi_a]."""
    threshold = guard_at if tie_guard is None else tie_guard
    return HybridAutomaton(
        modes=(
            Mode("a", *dyn1(), Invariant(((lo_a, hi_a),))),
            Mode("b", *dyn1(), Invariant(((lo_b, hi_b),))),
        ),
        events=(Event("go", "input"), Event("went", "output")),
        transitions=(
            Transition("a", "go", "went", "b", Guard(axis=0, sign=sign, threshold=threshold)),
        ),
        w_bounds=(w,),
        v_bounds=(v,),
        input_bound=1.0,
        dwell_time=1,
        sampling_period=0.1,
        theta=0.05,
    )


class TestPrimitives:
    def test_event_kind_checked(self):
        with pytest.raises(ModelError):
            Event("e", "internal")

    def test_invariant_accessors(self):
        inv = Invariant(((0.0, 46.0), (0.0, 1.5)))
        assert inv.dim == 2
        lo, hi = inv.bounds()
        assert lo.tolist() == [0.0, 0.0] and hi.tolist() == [46.0, 1.5]

    def test_invariant_contains_with_tolerance(self):
        inv = Invariant(((0.0, 1.0),))
        assert inv.contains([1.0])
        assert not inv.contains([1.0 + 1e-6])

    @pytest.mark.parametrize("x", [[10.0], [10.0, 1.0, 9e9]], ids=["short", "long"])
    def test_invariant_contains_refuses_wrong_length(self, x):
        # zip stops at the shorter side, so unchecked both would read as inside
        inv = Invariant(((0.0, 46.0), (0.0, 1.5)))
        with pytest.raises(ValueError) as refused:
            inv.contains(x)
        assert str(refused.value) == f"state of shape ({len(x)},) against a 2-axis invariant"

    def test_invariant_rejects_bad_bounds(self):
        refusals = [
            (((1.0, 0.0),), "invariant axis 0: lower bound 1.0 > upper bound 0.0"),
            (((0.0, float("inf")),), "invariant axis 0 upper bound must be finite, got inf"),
            (((0.0, 1.0), (np.nan, 1.0)), "invariant axis 1 lower bound must be finite, got nan"),
            (((-np.inf, 1.0),), "invariant axis 0 lower bound must be finite, got -inf"),
            (
                ((0.0, 10**400),),
                "invariant axis 0 upper bound must be finite, got a number too large for a float",
            ),
            ((("0", 1.0),), "invariant axis 0 lower bound must be a real number, got '0'"),
            (((0.0, True),), "invariant axis 0 upper bound must be a real number, got True"),
        ]
        for intervals, message in refusals:
            with pytest.raises(ModelError) as refused:
                Invariant(intervals)
            assert str(refused.value) == message

    def test_dynamics_shape_checks(self):
        fields = dict(mode_id="m", a=[[1.0]], b=[[0.0]], invariant=Invariant(((0.0, 1.0),)))
        refusals = [
            ({"a": [[1.0, 0.0]]}, "A must be square, got shape (1, 2)"),
            ({"a": np.zeros((1, 1, 1))}, "A must be square, got shape (1, 1, 1)"),
            ({"b": [[0.0], [0.0]]}, "B must have 1 rows, got shape (2, 1)"),
            ({"a": [[np.inf]]}, "system matrices must be finite"),
            ({"b": [[np.nan]]}, "system matrices must be finite"),
        ]
        for change, message in refusals:
            with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
                Mode(**{**fields, **change})

    def test_dynamics_store_read_only_copies(self):
        a, b = [[0.5, 0.1], [0.0, 0.9]], np.array([[0.0], [0.1]])
        mode = Mode("m", a, b, Invariant(((0.0, 1.0),) * 2))
        a[0][0], b[1, 0] = 7.0, 7.0
        assert mode.a.tolist() == [[0.5, 0.1], [0.0, 0.9]]
        assert mode.b.tolist() == [[0.0], [0.1]]
        for arr in (mode.a, mode.b):
            assert arr.dtype == np.float64 and not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_dynamics_promote_low_rank_inputs(self):
        box = Invariant(((0.0, 1.0),))
        scalar = Mode("m", 0.5, 0.0, box)
        assert scalar.a.shape == (1, 1) and scalar.b.shape == (1, 1)
        row = Mode("m", [[0.5]], [0.1, 0.2], box)
        assert row.b.shape == (1, 2)

    def test_dynamics_norms(self):
        mode = Mode("m", [[1.0, 0.1], [0.0, -0.95]], [[0.0], [0.05]], Invariant(((0.0, 1.0),) * 2))
        assert mode.dim == 2
        assert mode.a_norm == 1.1

    def test_guard_satisfied_is_closed_halfspace(self):
        up = Guard(axis=0, sign=1, threshold=45.0)
        down = Guard(axis=1, sign=-1, threshold=0.4)
        assert satisfied(up, [45.0, 0.0])
        assert satisfied(up, [45.1, 0.0])
        assert not satisfied(up, [44.9, 0.0])
        assert satisfied(down, [0.0, 0.4])
        assert satisfied(down, [0.0, 0.39])
        assert not satisfied(down, [0.0, 0.41])

    def test_guard_sign_checked(self):
        with pytest.raises(ModelError):
            Guard(axis=0, sign=0, threshold=1.0)

    def test_guard_refuses_fractional_and_bool_fields(self):
        refusals = [
            ((0.5, 1), "guard axis must be a whole number, got 0.5"),
            ((True, 1), "guard axis must be a whole number, got True"),
            ((np.nan, 1), "guard axis must be a whole number, got nan"),
            ((np.True_, 1), "guard axis must be a whole number, got np.True_"),
            ((0, True), "guard sign must be -1 or +1, got True"),
            ((0, np.True_), "guard sign must be -1 or +1, got np.True_"),
            ((0, 0.5), "guard sign must be -1 or +1, got 0.5"),
        ]
        for (axis, sign), message in refusals:
            with pytest.raises(ModelError) as refused:
                Guard(axis=axis, sign=sign, threshold=1.0)
            assert str(refused.value) == message

    def test_guard_refuses_text_and_other_non_numbers(self):
        refusals = [
            (dict(axis="0"), "guard axis must be a whole number, got '0'"),
            (dict(axis=None), "guard axis must be a whole number, got None"),
            (dict(sign="1"), "guard sign must be -1 or +1, got '1'"),
            (dict(threshold="45.0"), "guard threshold must be a real number, got '45.0'"),
            (dict(threshold=None), "guard threshold must be a real number, got None"),
            (dict(threshold=True), "guard threshold must be a real number, got True"),
            (dict(threshold=[1.0]), "guard threshold must be a real number, got [1.0]"),
            (dict(threshold=np.nan), "guard threshold must be finite, got nan"),
            (dict(threshold=-np.inf), "guard threshold must be finite, got -inf"),
            (
                dict(threshold=10**400),
                "guard threshold must be finite, got a number too large for a float",
            ),
            (dict(axis=-1), "guard axis must be nonnegative, got -1"),
        ]
        for fields, message in refusals:
            with pytest.raises(ModelError) as refused:
                Guard(**{"axis": 0, "sign": 1, "threshold": 1.0, **fields})
            assert str(refused.value) == message

    def test_guard_numpy_numbers_become_python_numbers(self):
        guard = Guard(axis=np.int64(1), sign=np.int64(-1), threshold=np.float32(0.5))
        assert (guard.axis, guard.sign, guard.threshold) == (1, -1, 0.5)
        assert (type(guard.axis), type(guard.sign), type(guard.threshold)) == (int, int, float)

    def test_guard_integral_floats_become_ints(self):
        guard = Guard(axis=1.0, sign=-1.0, threshold=1.0)
        assert (guard.axis, guard.sign) == (1, -1)
        assert type(guard.axis) is int and type(guard.sign) is int

    def test_mode_dimension_mismatch(self):
        message = "mode 'm': dynamics dimension 1 != invariant dimension 2"
        with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
            Mode("m", *dyn1(), Invariant(((0.0, 1.0), (0.0, 1.0))))


class TestValueEquality:
    """Models compare and hash by value, through each `Mode`'s arrays and the noise tuples."""

    def test_fresh_train_gate_models_are_equal(self):
        first, second = train_gate_model(), train_gate_model()
        assert first is not second
        assert first == second and not first != second
        assert hash(first) == hash(second)

    def test_changed_entry_is_unequal(self):
        model = train_gate_model()
        a = model.modes[0].a.copy()
        a[0, 1] += 1e-12
        mode = dataclasses.replace(model.modes[0], a=a)
        changed = dataclasses.replace(model, modes=(mode,) + model.modes[1:])
        assert changed != model and model != changed
        assert mode != model.modes[0]

    def test_other_fields_are_compared(self):
        mode = Mode("m", *dyn1(), Invariant(((0.0, 1.0),)))
        assert mode != dataclasses.replace(mode, b=[[0.0, 0.0]])
        assert mode != dataclasses.replace(mode, mode_id="n")
        assert mode != dataclasses.replace(mode, invariant=Invariant(((0.0, 2.0),)))
        assert mode != "m"
        model = corridor()
        assert model != dataclasses.replace(model, input_bound=2.0)
        assert model != dataclasses.replace(model, w_bounds=[0.02])
        assert model != dataclasses.replace(model, v_bounds=[0.2])
        assert model == dataclasses.replace(model, v_bounds=np.array([0.1]))

    def test_signed_zeros_are_equal_and_hash_equal(self):
        plus = Mode("m", [[0.0]], [[0.0]], Invariant(((0.0, 1.0),)))
        minus = Mode("m", [[-0.0]], [[-0.0]], Invariant(((-0.0, 1.0),)))
        assert plus == minus and hash(plus) == hash(minus)
        base = corridor()
        plus = dataclasses.replace(base, w_bounds=(0.0,), input_bound=0.0)
        minus = dataclasses.replace(base, w_bounds=(-0.0,), input_bound=-0.0)
        assert plus == minus and hash(plus) == hash(minus)

    def test_scenarios_compare_equal(self):
        assert train_gate_scenario() == train_gate_scenario()
        assert train_gate_scenario(seed=1) != train_gate_scenario(seed=2)
        assert len({train_gate_scenario(), train_gate_scenario()}) == 1


class TestAutomatonValidation:
    def test_corridor_builds(self):
        model = corridor()
        assert model.dim == 1
        assert model.mode_ids == ("a", "b")

    def test_accessors_raise_keyerror_on_unknown(self):
        model = corridor()
        with pytest.raises(KeyError):
            model.mode("c")
        assert model.transitions_from("b") == ()
        assert model.transitions_from("a")[0].target == "b"

    def test_rejects_nonpositive_theta(self):
        base = corridor()
        with pytest.raises(ModelError):
            HybridAutomaton(base.modes, base.events, base.transitions, *NOISE, 1, 0.1, 0.0)

    def test_noise_checks(self):
        base = corridor()
        refusals = [
            ({"w_bounds": [0.0, 0.0]}, "process noise bounds must have length 1"),
            ({"v_bounds": [[0.0]]}, "measurement noise bounds must have length 1"),
            ({"v_bounds": ()}, "measurement noise bounds must have length 1"),
            ({"w_bounds": [-0.1]}, "noise bounds must be nonnegative"),
            ({"v_bounds": [np.nan]}, "noise bounds must be nonnegative"),
            ({"input_bound": np.nan}, "input bound must be finite and nonnegative"),
            ({"input_bound": np.inf}, "input bound must be finite and nonnegative"),
            ({"input_bound": -1.0}, "input bound must be finite and nonnegative"),
            ({"input_bound": "1"}, "input_bound must be a real number, got '1'"),
            ({"input_bound": True}, "input_bound must be a real number, got True"),
            (
                {"input_bound": 10**400},
                "input_bound must be finite, got a number too large for a float",
            ),
        ]
        for change, message in refusals:
            with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
                dataclasses.replace(base, **change)

    def test_infinite_noise_bounds_refused_by_axis(self):
        # an infinite bound would give an infinite reach hull, NaN residuals
        # or a Riccati solve that never settles
        base = train_gate_model()
        refusals = [
            (base, {"w_bounds": (np.inf, 0.01)}, "process noise bound 0"),
            (base, {"v_bounds": (0.1, float("inf"))}, "measurement noise bound 1"),
            (corridor(), {"v_bounds": [np.inf]}, "measurement noise bound 0"),
        ]
        for model, change, name in refusals:
            with pytest.raises(ModelError, match=f"^{name} must be finite, got inf$"):
                dataclasses.replace(model, **change)

    def test_ints_too_long_to_print_are_named_by_size(self):
        # Python refuses to print an int of more than 4,300 digits, so a
        # refusal names its size
        huge, size = 10**5000, "an integer of 16610 bits"
        base = corridor()
        (tr,) = base.transitions
        refusals = [
            (lambda: Guard(-huge, 1, 0.0), f"guard axis must be nonnegative, got {size}"),
            (lambda: Guard(0, huge, 0.0), f"guard sign must be -1 or +1, got {size}"),
            (
                lambda: dataclasses.replace(base, transitions=(dataclasses.replace(tr, target=huge),)),
                f"transition references unknown mode {size}",
            ),
        ]
        for build, message in refusals:
            with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
                build()

    def test_noise_stored_as_float_tuples(self):
        w, v = np.array([0.01]), [np.float32(0.5)]
        model = dataclasses.replace(corridor(), w_bounds=w, v_bounds=v, input_bound=1)
        w[0], v[0] = 7.0, 7.0
        assert (model.w_bounds, model.v_bounds, model.input_bound) == ((0.01,), (0.5,), 1.0)
        assert all(type(x) is float for x in model.w_bounds + model.v_bounds)
        assert type(model.input_bound) is float
        scalar = dataclasses.replace(corridor(), w_bounds=0.01, v_bounds=0.1)
        assert (scalar.w_bounds, scalar.v_bounds) == ((0.01,), (0.1,))

    def test_step_bounds_are_per_mode(self):
        # ||B_q|| mu + ||w||: mode "b" takes a B of norm 0.5 + 0.25
        base = corridor(w=0.01)
        wide = Mode("b", [[0.5]], [[0.5, -0.25]], base.modes[1].invariant)
        narrow = Mode("a", [[0.5]], [[0.0, 0.0]], base.modes[0].invariant)
        model = dataclasses.replace(base, modes=(narrow, wide), input_bound=2.0)
        assert dict(model.step_bounds) == {"a": 0.01, "b": 1.5 + 0.01}
        assert model.step_bounds is model.step_bounds

    def test_refuses_header_values_that_disarm_the_monitor(self):
        base = corridor()
        refusals = [
            ((1, 0.1, np.nan), "theta must be finite and positive, got nan"),
            ((1, 0.1, np.inf), "theta must be finite and positive, got inf"),
            ((1, 0.1, -0.05), "theta must be finite and positive, got -0.05"),
            ((1, np.nan, 0.05), "sampling_period must be finite and positive, got nan"),
            ((1, np.inf, 0.05), "sampling_period must be finite and positive, got inf"),
            ((1, 0.0, 0.05), "sampling_period must be finite and positive, got 0.0"),
            ((15.7, 0.1, 0.05), "dwell_time must be a whole number, got 15.7"),
            ((True, 0.1, 0.05), "dwell_time must be a whole number, got True"),
            ((np.True_, 0.1, 0.05), "dwell_time must be a whole number, got np.True_"),
            ((np.nan, 0.1, 0.05), "dwell_time must be a whole number, got nan"),
            (("15", 0.1, 0.05), "dwell_time must be a whole number, got '15'"),
            ((1, "0.1", 0.05), "sampling_period must be a real number, got '0.1'"),
            ((1, True, 0.05), "sampling_period must be a real number, got True"),
            ((1, 0.1, "0.05"), "theta must be a real number, got '0.05'"),
            ((1, 0.1, True), "theta must be a real number, got True"),
            ((1, 0.1, None), "theta must be a real number, got None"),
            ((-1, 0.1, 0.05), "dwell_time must be nonnegative, got -1"),
            (
                (1, 10**400, 0.05),
                "sampling_period must be finite, got a number too large for a float",
            ),
            ((1, 0.1, -(10**400)), "theta must be finite, got a number too large for a float"),
            ((10**400, 0.1, 0.05), "dwell_time must be finite, got a number too large for a float"),
        ]
        for header, message in refusals:
            with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
                HybridAutomaton(base.modes, base.events, base.transitions, *NOISE, *header)

    def test_integral_float_dwell_accepted(self):
        base = corridor()
        model = HybridAutomaton(base.modes, base.events, base.transitions, *NOISE, 15.0, 0.1, 0.05)
        assert model.dwell_time == 15 and type(model.dwell_time) is int

    def test_rejects_zero_dwell(self):
        base = corridor()
        with pytest.raises(ModelError):
            HybridAutomaton(base.modes, base.events, base.transitions, *NOISE, 0, 0.1, 0.05)

    def test_rejects_duplicate_mode_input_pair(self):
        base = corridor()
        dup = base.transitions + (
            Transition("a", "go", "went", "a", Guard(axis=0, sign=-1, threshold=0.5)),
        )
        with pytest.raises(ModelError, match="duplicate transition"):
            HybridAutomaton(base.modes, base.events, dup, *NOISE, 1, 0.1, 0.05)

    def test_rejects_dangling_references(self):
        base = corridor()
        bad_mode = (Transition("a", "go", "went", "zz", Guard(0, 1, 1.0)),)
        with pytest.raises(ModelError, match="unknown mode"):
            HybridAutomaton(base.modes, base.events, bad_mode, *NOISE, 1, 0.1, 0.05)
        bad_event = (Transition("a", "warp", "went", "b", Guard(0, 1, 1.0)),)
        with pytest.raises(ModelError, match="unknown event"):
            HybridAutomaton(base.modes, base.events, bad_event, *NOISE, 1, 0.1, 0.05)

    def test_rejects_event_kind_swap(self):
        base = corridor()
        swapped = (Transition("a", "went", "go", "b", Guard(0, 1, 1.0)),)
        with pytest.raises(ModelError, match="declared output"):
            HybridAutomaton(base.modes, base.events, swapped, *NOISE, 1, 0.1, 0.05)

    def test_rejects_guard_axis_out_of_range(self):
        base = corridor()
        off = (Transition("a", "go", "went", "b", Guard(axis=3, sign=1, threshold=1.0)),)
        with pytest.raises(ModelError, match="guard axis"):
            HybridAutomaton(base.modes, base.events, off, *NOISE, 1, 0.1, 0.05)

    def test_rejects_mixed_dimensions(self):
        modes = (
            Mode("a", *dyn1(), Invariant(((0.0, 2.0),))),
            Mode(
                "b",
                [[0.5, 0.0], [0.0, 0.5]],
                [[0.0], [0.0]],
                Invariant(((1.0, 3.0), (0.0, 1.0))),
            ),
        )
        with pytest.raises(ModelError, match="one continuous dimension"):
            HybridAutomaton(modes, (), (), *NOISE, 1, 0.1, 0.05)


class TestValidateModel:
    def test_train_gate_is_clean(self, tg_model):
        assert validate_model(tg_model) == []

    def test_flags_unstable_mode(self):
        base = corridor(tie_guard=2.0)  # clean geometry, see below
        hot = (
            Mode("a", *dyn1(a=1.2), base.modes[0].invariant),
            base.modes[1],
        )
        model = HybridAutomaton(hot, base.events, base.transitions, *NOISE, 1, 0.1, 0.05)
        tags = validate_model(model)
        assert len(tags) == 1
        assert tags[0].startswith("stability: mode 'a'")

    def test_one_eigenvalue_solve_per_distinct_a(self, monkeypatch):
        # modes "a" and "b" share A = 1.2 and are flagged one by one; "c" has
        # A = -0.0, which differs in its bits from the +0.0 of "d" and "e"
        base = corridor(tie_guard=2.0)
        box = Invariant(((0.0, 1.0),))
        model = HybridAutomaton(
            (
                Mode("a", *dyn1(a=1.2), base.modes[0].invariant),
                Mode("b", *dyn1(a=1.2), base.modes[1].invariant),
                Mode("c", *dyn1(a=-0.0), box),
                Mode("d", *dyn1(a=0.0), box),
                Mode("e", *dyn1(a=0.0), box),
            ),
            base.events, base.transitions, *NOISE, 1, 0.1, 0.05,
        )
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a) or eigvals(a))
        assert validate_model(model) == [
            "stability: mode 'a' has eigenvalue modulus 1.2 > 1",
            "stability: mode 'b' has eigenvalue modulus 1.2 > 1",
        ]
        assert len(calls) == 3

    def test_flags_noise_the_filter_cannot_invert(self):
        # w = v = 0 leaves P + R singular; the noise is the model's, so it is
        # named once, with no mode
        model = corridor(tie_guard=2.0, w=0.0, v=0.0)
        text = (
            "axis 0 has zero process and measurement noise variance "
            "(w = 0, v = 0), so P + R is singular"
        )
        assert validate_model(model) == ["noise: " + text]
        with pytest.raises(RiccatiError, match="^" + re.escape(text) + "$"):
            synthesize_gains(model)

    def test_flags_guard_outside_invariant(self):
        model = corridor(tie_guard=5.0)
        tags = validate_model(model)
        assert any(t.startswith("guard-placement:") for t in tags)

    def test_flags_band_not_delimited_by_guard(self):
        # overlap is [1, 2] but the guard sits at 1.5, away from both faces
        model = corridor(tie_guard=1.5)
        tags = validate_model(model)
        assert any(t.startswith("intermediate-region:") for t in tags)

    def test_guard_on_invariant_face_is_clean(self):
        # guard on the source invariant's upper face: the band is empty
        model = corridor(tie_guard=2.0)
        assert validate_model(model) == []


class TestNeighborValue:
    def test_picks_nearest_face(self):
        model = corridor(tie_guard=1.8)
        tr = model.transitions[0]
        assert neighbor_value(model, tr) == 2.0

    def test_tie_picks_lower_face(self):
        model = corridor(tie_guard=1.0)  # equidistant from faces 0 and 2
        tr = model.transitions[0]
        assert neighbor_value(model, tr) == 0.0

    def test_falling_tie_picks_upper_face(self):
        # the face behind a falling guard is the upper one, as in the mirror
        model = corridor(tie_guard=1.0, sign=-1)
        tr = model.transitions[0]
        assert neighbor_value(model, tr) == 2.0


class TestDecomposeRegions:
    def test_train_gate_intermediate(self, tg_regions):
        assert tg_regions.intermediate == (
            ((1, 2), ((45.0, 46.0), (0.0, 0.4))),
            ((2, 3), ((75.0, 76.0), (0.0, 0.4))),
        )

    def test_train_gate_normal(self, tg_regions):
        assert tg_regions.normal[1] == (
            ((0.0, 45.0), (0.0, 1.5)),
            ((45.0, 46.0), (0.4, 1.5)),
        )
        assert tg_regions.normal[2] == (((46.0, 75.0), (0.0, 0.4)),)
        assert tg_regions.normal[3] == (
            ((76.0, 80.0), (0.0, 1.5)),
            ((75.0, 76.0), (0.4, 1.5)),
        )

    def test_train_gate_neighbor_values(self, tg_regions):
        assert tg_regions.neighbor_values == {
            (1, "c_down"): 46.0,
            (2, "c_up"): 76.0,
            (3, "c_next"): 80.0,
        }

    def test_normal_and_intermediate_partition_invariants(self, tg_model, tg_regions):
        # sampled points of each invariant land in exactly one region kind
        rng = np.random.default_rng(7)
        for q in tg_model.mode_ids:
            lo, hi = tg_model.invariant(q).bounds()
            pts = rng.uniform(lo, hi, size=(200, 2))
            for pt in pts:
                inter = any(_inside(box, pt) for _, box in tg_regions.intermediate)
                assert inter or any(_inside(box, pt) for box in tg_regions.normal[q])

    def test_identical_invariants_rejected(self):
        modes = (
            Mode("a", *dyn1(), Invariant(((0.0, 2.0),))),
            Mode("b", *dyn1(), Invariant(((0.0, 2.0),))),
        )
        model = HybridAutomaton(
            modes,
            (Event("go", "input"), Event("went", "output")),
            (),
            *NOISE,
            1,
            0.1,
            0.05,
        )
        with pytest.raises(DegenerateModelError):
            decompose_regions(model)

    def test_disjoint_invariants_have_no_intermediate(self):
        model = corridor(lo_b=5.0, hi_b=6.0, tie_guard=2.0)
        regions = decompose_regions(model)
        assert regions.intermediate == ()
        assert regions.normal["a"] == (((0.0, 2.0),),)
        assert regions.normal["b"] == (((5.0, 6.0),),)


class TestExtractFsm:
    def test_train_gate_skeleton(self, tg_model):
        fsm = extract_fsm(tg_model)
        assert fsm.states == (1, 2, 3)
        assert fsm.transitions == {
            (1, "c_down"): 2,
            (2, "c_up"): 3,
            (3, "c_next"): 1,
        }
        assert fsm.outputs == {
            (1, "c_down"): "s_1",
            (2, "c_up"): "s_2",
            (3, "c_next"): "s_3",
        }

    def test_active_pairs_sorted(self):
        base = corridor()
        extra = base.transitions + (
            Transition("a", "back", "tock", "a", Guard(axis=0, sign=-1, threshold=0.2)),
        )
        events = base.events + (Event("back", "input"), Event("tock", "output"))
        model = HybridAutomaton(base.modes, events, extra, *NOISE, 1, 0.1, 0.05)
        fsm = extract_fsm(model)
        assert fsm.active_pairs("a") == (("back", "tock"), ("go", "went"))
        assert fsm.active_pairs("b") == ()
