"""Schema document parsing and serialization round-trips."""

import copy
import dataclasses
import json
import types

import numpy as np
import pytest

from hybridmon import ModelError, dump_model, load_model, model_to_dict, parse_model
from hybridmon.model_io import UnknownKeyError
from hybridmon.train_gate import TRAIN_GATE_MODEL_DICT


def test_parse_builtin_document(tg_model):
    model = parse_model(TRAIN_GATE_MODEL_DICT)
    assert model.mode_ids == tg_model.mode_ids
    assert model.dwell_time == tg_model.dwell_time
    assert model.sampling_period == tg_model.sampling_period
    assert model.theta == tg_model.theta


def test_round_trip_dict(tg_model):
    doc = model_to_dict(tg_model)
    again = parse_model(doc)
    assert model_to_dict(again) == doc


def test_dict_matches_model_fields(tg_model):
    doc = model_to_dict(tg_model)
    assert [s["id"] for s in doc["states"]] == [1, 2, 3]
    assert doc["states"][0]["A"] == [[1.0, 0.1], [0.0, 0.95]]
    assert doc["states"][0]["B"] == [[0.0], [0.05]]
    assert doc["states"][1]["invariant"] == [[45.0, 76.0], [0.0, 0.4]]
    assert doc["noise"] == {"w": [0.01, 0.01], "v": [0.1, 0.1]}
    assert doc["input_bound"] == 1.0
    assert doc["theta"] == 0.05
    assert [e["id"] for e in doc["events"]] == [
        "c_down",
        "s_1",
        "c_up",
        "s_2",
        "c_next",
        "s_3",
    ]


def test_unknown_top_level_key_rejected():
    doc = copy.deepcopy(TRAIN_GATE_MODEL_DICT)
    doc["extra"] = 1
    with pytest.raises(UnknownKeyError, match="unknown keys.*extra"):
        parse_model(doc)


def test_unknown_nested_key_rejected():
    doc = copy.deepcopy(TRAIN_GATE_MODEL_DICT)
    doc["transitions"][0]["guard"]["slack"] = 0.0
    with pytest.raises(UnknownKeyError, match=r"transitions\[0\].guard"):
        parse_model(doc)


def test_missing_key_rejected():
    doc = copy.deepcopy(TRAIN_GATE_MODEL_DICT)
    del doc["theta"]
    with pytest.raises(ModelError, match="missing keys.*theta"):
        parse_model(doc)


def test_unknown_key_error_is_a_model_error():
    assert issubclass(UnknownKeyError, ModelError)


def test_non_object_where_object_expected():
    doc = copy.deepcopy(TRAIN_GATE_MODEL_DICT)
    doc["noise"] = [0.01, 0.1]
    with pytest.raises(ModelError, match="^noise: expected an object, got list$"):
        parse_model(doc)


def test_read_only_mapping_sections_accepted(tg_model):
    # any collections.abc.Mapping is an object, not only a dict
    doc = copy.deepcopy(TRAIN_GATE_MODEL_DICT)
    doc["noise"] = types.MappingProxyType(doc["noise"])
    doc["states"] = [types.MappingProxyType(state) for state in doc["states"]]
    model = parse_model(types.MappingProxyType(doc))
    assert model_to_dict(model) == model_to_dict(tg_model)


def test_file_round_trip(tmp_path, tg_model):
    path = tmp_path / "model.json"
    dump_model(tg_model, path)
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text) == json.loads(json.dumps(model_to_dict(tg_model)))
    loaded = load_model(path)
    assert model_to_dict(loaded) == model_to_dict(tg_model)
    np.testing.assert_array_equal(loaded.dynamics(2).a, tg_model.dynamics(2).a)


def test_dump_is_deterministic(tmp_path, tg_model):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    dump_model(tg_model, p1)
    dump_model(tg_model, p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize(
    "field, value", [("v_bounds", [0.3, 0.3]), ("w_bounds", [0.01, 0.02]), ("input_bound", 2.0)]
)
def test_per_mode_noise_refused(tg_model, field, value):
    # the schema has one noise block; writing mode 1's values for mode 2
    # would silently change the model on the way back in
    modes = tuple(
        dataclasses.replace(m, dynamics=dataclasses.replace(m.dynamics, **{field: value}))
        if m.mode_id == 2
        else m
        for m in tg_model.modes
    )
    model = dataclasses.replace(tg_model, modes=modes)
    with pytest.raises(ModelError, match=f"mode 2: {field} differs"):
        model_to_dict(model)


def test_unobservable_event_rejected():
    # the observer has no closure over unobservable events: it would still
    # move (1,) to (2,) on s_1, so the flag is refused instead of ignored
    doc = copy.deepcopy(TRAIN_GATE_MODEL_DICT)
    doc["events"][1]["observable"] = False
    with pytest.raises(ModelError, match=r"events\[1\] \('s_1'\): unobservable"):
        parse_model(doc)


@pytest.mark.parametrize(
    "field, text, message",
    [
        ("theta", "NaN", "theta must be finite and positive, got nan"),
        ("theta", "Infinity", "theta must be finite and positive, got inf"),
        ("sampling_period", "NaN", "sampling_period must be finite and positive, got nan"),
        ("dwell_time", "15.7", "dwell_time must be a whole number of samples, got 15.7"),
        ("dwell_time", "true", "dwell_time must be a whole number of samples, got True"),
    ],
)
def test_header_values_that_disarm_the_monitor_refused(tmp_path, field, text, message):
    # Python's json reads NaN and Infinity, so a document can carry them
    path = tmp_path / "model.json"
    doc = json.dumps({**TRAIN_GATE_MODEL_DICT, field: 0})
    path.write_text(doc.replace(f'"{field}": 0', f'"{field}": {text}'))
    with pytest.raises(ModelError) as refused:
        load_model(path)
    assert str(refused.value) == message


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("dwell_time", "15", "dwell_time must be a whole number of samples, got '15'"),
        ("theta", "0.05", "theta must be a real number, got '0.05'"),
        ("sampling_period", "0.1", "sampling_period must be a real number, got '0.1'"),
        ("theta", True, "theta must be a real number, got True"),
        ("sampling_period", True, "sampling_period must be a real number, got True"),
        ("input_bound", "1", "input_bound must be a real number, got '1'"),
        ("input_bound", True, "input_bound must be a real number, got True"),
    ],
)
def test_text_or_bool_header_numbers_refused(field, value, message):
    # float() reads "15" and true, and model_to_dict would write them back
    # as numbers, so the document would not round-trip
    doc = {**copy.deepcopy(TRAIN_GATE_MODEL_DICT), field: value}
    with pytest.raises(ModelError) as refused:
        parse_model(doc)
    assert str(refused.value) == message


@pytest.mark.parametrize("value", [1, "yes"])
def test_observable_must_be_a_bool(value):
    doc = copy.deepcopy(TRAIN_GATE_MODEL_DICT)
    doc["events"][1]["observable"] = value
    with pytest.raises(ModelError) as refused:
        parse_model(doc)
    message = f"events[1] ('s_1'): observable must be true or false, got {value!r}"
    assert str(refused.value) == message


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("axis", 0.5, "guard axis must be a whole number, got 0.5"),
        ("axis", True, "guard axis must be a whole number, got True"),
        ("sign", True, "guard sign must be -1 or +1, got True"),
    ],
)
def test_fractional_or_bool_guard_fields_refused(field, value, message):
    # 0.5 would read as axis 0, and true as sign +1, since True == 1
    doc = copy.deepcopy(TRAIN_GATE_MODEL_DICT)
    doc["transitions"][0]["guard"][field] = value
    with pytest.raises(ModelError) as refused:
        parse_model(doc)
    assert str(refused.value) == message


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("axis", "0", "guard axis must be a whole number, got '0'"),
        ("sign", "1", "guard sign must be -1 or +1, got '1'"),
        ("threshold", "45.0", "guard threshold must be a real number, got '45.0'"),
        ("threshold", None, "guard threshold must be a real number, got None"),
        ("threshold", False, "guard threshold must be a real number, got False"),
    ],
)
def test_text_guard_fields_refused(field, value, message):
    # float() reads "0" and "45.0", and model_to_dict would write them back
    # as numbers, so a document that carried them would not round-trip
    doc = copy.deepcopy(TRAIN_GATE_MODEL_DICT)
    doc["transitions"][0]["guard"][field] = value
    with pytest.raises(ModelError) as refused:
        parse_model(doc)
    assert str(refused.value) == message


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("states", 0, "A", 0, 0), "1.0", "states[0].A[0][0] must be a real number, got '1.0'"),
        (("states", 0, "A", 0, 0), True, "states[0].A[0][0] must be a real number, got True"),
        (("states", 1, "B", 1, 0), "0.05", "states[1].B[1][0] must be a real number, got '0.05'"),
        (
            ("states", 2, "invariant", 0, 1),
            "80",
            "states[2].invariant[0][1] must be a real number, got '80'",
        ),
        (
            ("states", 1, "invariant", 1, 0),
            False,
            "states[1].invariant[1][0] must be a real number, got False",
        ),
        (("states", 0, "A", 1), True, "states[0].A[1] must be a real number, got True"),
        (("noise", "w", 1), "0.01", "noise.w[1] must be a real number, got '0.01'"),
        (("noise", "v", 0), None, "noise.v[0] must be a real number, got None"),
    ],
)
def test_text_or_bool_array_entries_refused(path, value, message):
    # NumPy reads "1.0" and true as numbers, even true among floats, and
    # model_to_dict would write them back as numbers, so the document would
    # not round-trip
    doc = copy.deepcopy(TRAIN_GATE_MODEL_DICT)
    *parents, last = path
    entry = doc
    for key in parents:
        entry = entry[key]
    entry[last] = value
    with pytest.raises(ModelError) as refused:
        parse_model(doc)
    assert str(refused.value) == message
