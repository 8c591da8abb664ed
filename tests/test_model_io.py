"""Schema document parsing and serialization round-trips."""

import copy
import functools
import json
import math
import operator
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def test_unknown_keys_of_mixed_types_rejected():
    # a document built in Python may hold keys that are not text
    doc = {**TRAIN_GATE_MODEL_DICT, 1: 0, "extra": 0}
    with pytest.raises(UnknownKeyError) as refused:
        parse_model(doc)
    assert str(refused.value) == "model: unknown keys [1, 'extra']"


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
    np.testing.assert_array_equal(loaded.mode(2).a, tg_model.mode(2).a)


def test_dump_is_deterministic(tmp_path, tg_model):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    dump_model(tg_model, p1)
    dump_model(tg_model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_noise_maps_one_to_one(tg_model):
    # the document's one noise block is the model's, field for field
    doc = copy.deepcopy(TRAIN_GATE_MODEL_DICT)
    doc["noise"] = {"w": [0.01, 0.0], "v": [0.1, 0.25]}
    doc["input_bound"] = 2
    model = parse_model(doc)
    assert (model.w_bounds, model.v_bounds, model.input_bound) == ((0.01, 0.0), (0.1, 0.25), 2.0)
    assert model_to_dict(model)["noise"] == doc["noise"]
    assert model_to_dict(model)["input_bound"] == 2.0
    noise = {"w": list(tg_model.w_bounds), "v": list(tg_model.v_bounds)}
    assert model_to_dict(tg_model)["noise"] == noise


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
        ("dwell_time", "15.7", "dwell_time must be a whole number, got 15.7"),
        ("dwell_time", "true", "dwell_time must be a whole number, got True"),
        pytest.param(
            "theta",
            "1" + "0" * 400,
            "theta must be finite, got a number too large for a float",
            id="theta-10**400",
        ),
        pytest.param(
            "dwell_time",
            "1" + "0" * 400,
            "dwell_time must be finite, got a number too large for a float",
            id="dwell_time-10**400",
        ),
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
        ("dwell_time", "15", "dwell_time must be a whole number, got '15'"),
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


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("states", 0, "id"), None, "states[0].id must be text or an integer, got None"),
        (("states", 0, "id"), True, "states[0].id must be text or an integer, got True"),
        (("states", 0, "id"), 1.0, "states[0].id must be text or an integer, got 1.0"),
        (
            ("transitions", 0, "source"),
            [1.0],
            "transitions[0].source must be text or an integer, got [1.0]",
        ),
        (("events", 2, "id"), {}, "events[2].id must be text, got {}"),
        (("events", 2, "kind"), None, "events[2].kind must be text, got None"),
        (("transitions", 1, "output_event"), 2, "transitions[1].output_event must be text, got 2"),
        (("states",), {}, "states: expected a list, got dict"),
        (("events",), -1, "events: expected a list, got int"),
        # every row as long as the first
        (("states", 0, "A", 0), [1.0], "states[0].A[1]: expected a list of 1, got a list of 2"),
        (("states", 0, "A", 1), [1.0], "states[0].A[1]: expected a list of 2, got a list of 1"),
        (("states", 0, "A", 1), 1.0, "states[0].A[1]: expected a list of 2, got float"),
        (("states", 0, "B"), 0.0, "states[0].B: expected a list, got float"),
        (
            ("states", 2, "invariant", 1),
            {},
            "states[2].invariant[1]: expected a list of 2, got dict",
        ),
        (
            ("states", 2, "invariant", 0),
            [75.0, 80.0, 1.0],
            "states[2].invariant[0]: expected a list of 2, got a list of 3",
        ),
        (("states", 1, "A", 0, 1), [1.0], "states[1].A[0][1] must be a real number, got [1.0]"),
        pytest.param(
            ("states", 1, "B", 1, 0),
            10**400,
            "states[1].B[1][0] must be finite, got a number too large for a float",
            id="B-10**400",
        ),
        pytest.param(
            ("noise", "v", 1),
            -(10**400),
            "noise.v[1] must be finite, got a number too large for a float",
            id="v-minus-10**400",
        ),
        (("noise", "w"), {}, "noise.w: expected a list, got dict"),
    ],
)
def test_misfits_refused_by_path(path, value, message):
    # the walk checks kinds and shapes before anything is converted, so a
    # list as a mode id or 10**400 in B is named, not raised as TypeError or
    # OverflowError from inside the model types
    doc = copy.deepcopy(TRAIN_GATE_MODEL_DICT)
    *parents, last = path
    functools.reduce(operator.getitem, parents, doc)[last] = value
    with pytest.raises(ModelError) as refused:
        parse_model(doc)
    assert str(refused.value) == message


DOCUMENTS = {
    "train-gate": TRAIN_GATE_MODEL_DICT,
    "nd-actuator": json.loads(
        (Path(__file__).resolve().parents[1] / "monbench" / "nd_actuator.json").read_text()
    ),
}
DELETE = "<delete the key>"
# text, bools, None, non-finite and signed-zero floats, ints past a float and
# past int64, and lists and objects where a value belongs, or the reverse
MUTANTS = (
    "text", True, False, None, math.nan, math.inf, -math.inf, -0.0, 10**400, 2**63,
    [], {}, [1.0], [[1.0]],
)


def _paths(node, path=()):
    """The path of every value below node, each key and list entry at every depth."""
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    for key in keys:
        yield path + (key,)
        if isinstance(node[key], (dict, list)):
            yield from _paths(node[key], path + (key,))


PATHS = {name: tuple(_paths(doc)) for name, doc in DOCUMENTS.items()}


@st.composite
def mutations(draw):
    """A document's name, the path of one of its values, and what replaces it or DELETE."""
    name = draw(st.sampled_from(sorted(DOCUMENTS)))
    path = draw(st.sampled_from(PATHS[name]))
    deletable = isinstance(path[-1], str)
    return name, path, draw(st.sampled_from(MUTANTS + (DELETE,) * deletable))


@settings(max_examples=20 * settings.default.max_examples, deadline=None)
@given(mutations())
@example(("train-gate", ("transitions", 0, "source"), [1.0]))
@example(("nd-actuator", ("states", 1, "B", 2, 0), 10**400))
@example(("nd-actuator", ("states", 0, "A", 2), [0.0, 0.8]))
@example(("train-gate", ("events",), -1))
def test_a_mutated_document_round_trips_or_is_refused(mutation):
    # one value replaced or one key deleted: the document either parses to a
    # model that round-trips exactly, or is refused with ModelError; any
    # other exception escapes and fails the test
    name, path, value = mutation
    doc = copy.deepcopy(DOCUMENTS[name])
    *parents, last = path
    parent = functools.reduce(operator.getitem, parents, doc)
    if value is DELETE:
        del parent[last]
    else:
        parent[last] = copy.deepcopy(value)
    try:
        model = parse_model(doc)
    except ModelError:
        return
    assert parse_model(model_to_dict(model)) == model
