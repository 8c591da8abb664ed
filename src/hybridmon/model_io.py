"""Model file parsing and serialization.

A model file is a JSON document of the schema `_SCHEMA` below. Before
anything is converted, one walk checks the document's kinds and shapes
against it: exact keys, lists where lists belong, [lo, hi] pairs, rows of
one length in A and B, every array entry a real number that a float
holds, mode ids of text or int, and event names and kinds of text. The
first misfit is refused with ModelError naming its path, such as
`states[0].A[1][0]`. The values (finiteness, whole numbers, signs,
dimensions) are checked by `Mode`, `Invariant`, `Guard` and
`HybridAutomaton` as the model is built, with their own messages.

The top-level keys: `states`, one `Mode` each; `events`, each observable,
as the observer has no closure over unobservable ones; `transitions`, each
with its guard; `noise` {w, v} and `input_bound`, the per-axis noise bounds
and the control input's bound, shared by every mode; `sampling_period` in
seconds; `dwell_time`, the minimum inter-event gap in samples; and
`theta`, the detector's bound on the settled estimation error.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Set
from pathlib import Path
from typing import Any

from .model import (
    Event,
    Guard,
    HybridAutomaton,
    Invariant,
    Mode,
    ModelError,
    Transition,
    as_real,
)

# A dict is an object with exactly its keys, None marking a value that the
# model types check. [spec] is a list whose items fit spec, [spec, spec] a
# [lo, hi] pair, and the rows of a list of lists have one length. A tuple of
# types takes a value of one of them by type alone: a bool, 1.0 or None as
# a mode id would label the trace's modes with another type. as_real takes
# every real number that a float holds.
_SCHEMA = {
    "states": [
        {"id": (str, int), "A": [[as_real]], "B": [[as_real]], "invariant": [[as_real, as_real]]}
    ],
    "events": [{"id": (str,), "kind": (str,), "observable": None}],
    "transitions": [
        {
            "source": (str, int),
            "input_event": (str,),
            "output_event": (str,),
            "target": (str, int),
            "guard": {"axis": None, "sign": None, "threshold": None},
        }
    ],
    "noise": {"w": [as_real], "v": [as_real]},
    "input_bound": None,
    "sampling_period": None,
    "dwell_time": None,
    "theta": None,
}


class UnknownKeyError(ModelError):
    """The document contains a key outside the published schema."""


def _check_keys(obj: Any, allowed: Set[str], where: str) -> None:
    if not isinstance(obj, Mapping):
        raise ModelError(f"{where}: expected an object, got {type(obj).__name__}")
    if unknown := set(obj) - allowed:
        raise UnknownKeyError(f"{where}: unknown keys {sorted(unknown, key=str)}")
    if missing := allowed - set(obj):
        raise ModelError(f"{where}: missing keys {sorted(missing)}")


def _walk(node: Any, spec: Any, length: int | None = None) -> None:
    """Check node against spec, and a list's length if given.

    The first misfit raises ModelError with the message that follows its
    path; each level adds its key or index to the error's args as the walk
    unwinds, so the path text is built only for a refusal.
    """
    if type(spec) is dict:
        if type(node) is not dict and not isinstance(node, Mapping) or node.keys() != spec.keys():
            _check_keys(node, spec.keys(), "")
        for key, sub in spec.items():
            item = node[key]
            if sub is None or type(sub) is tuple and type(item) in sub:
                continue
            try:
                _walk(item, sub)
            except ModelError as refusal:
                refusal.args += (key,)
                raise
    elif type(spec) is list:
        length = len(spec) if len(spec) > 1 else length
        if type(node) not in (list, tuple) or length is not None and len(node) != length:
            # in a numeric array, a scalar where a row belongs is named as an entry
            if type(spec[0]) is not dict and not isinstance(node, (list, tuple, Mapping)):
                as_real(node, "")
            got = f"a list of {len(node)}" if type(node) in (list, tuple) else type(node).__name__
            expected = "a list" if length is None else f"a list of {length}"
            raise ModelError(f": expected {expected}, got {got}")
        for i, item in enumerate(node):
            sub = spec[i] if len(spec) > 1 else spec[0]
            if sub is as_real and type(item) is float:
                continue
            try:
                # every row as long as the first, which is checked first
                _walk(item, sub, len(node[0]) if i and type(sub) is list else None)
            except ModelError as refusal:
                refusal.args += (i,)
                raise
    elif type(spec) is tuple:
        if type(node) not in spec:
            kind = "text or an integer" if int in spec else "text"
            raise ModelError(f" must be {kind}, got {node!r}")
    else:
        as_real(node, "")


def parse_model(doc: Mapping[str, Any]) -> HybridAutomaton:
    """Build an automaton from a schema document, once the document fits the schema."""
    try:
        _walk(doc, _SCHEMA)
    except ModelError as refusal:
        tail, *path = refusal.args
        where = "".join(f"[{k}]" if type(k) is int else f".{k}" for k in reversed(path))
        raise type(refusal)((where[1:] or "model") + tail) from None
    for i, event in enumerate(doc["events"]):
        # the one field no model type keeps, refused unless true
        if (observable := event["observable"]) is not True:
            problem = (
                "unobservable events are not supported; "
                "the discrete observer has no closure over them"
                if observable is False
                else f"observable must be true or false, got {observable!r}"
            )
            raise ModelError(f"events[{i}] ({event['id']!r}): {problem}")
    return HybridAutomaton(
        modes=tuple(
            Mode(state["id"], state["A"], state["B"], Invariant(state["invariant"]))
            for state in doc["states"]
        ),
        events=tuple(Event(event["id"], event["kind"]) for event in doc["events"]),
        transitions=tuple(
            Transition(
                tr["source"], tr["input_event"], tr["output_event"], tr["target"],
                Guard(tr["guard"]["axis"], tr["guard"]["sign"], tr["guard"]["threshold"]),
            )
            for tr in doc["transitions"]
        ),
        w_bounds=doc["noise"]["w"],
        v_bounds=doc["noise"]["v"],
        input_bound=doc["input_bound"],
        dwell_time=doc["dwell_time"],
        sampling_period=doc["sampling_period"],
        theta=doc["theta"],
    )


def model_to_dict(model: HybridAutomaton) -> dict[str, Any]:
    """Canonical schema document for a model; inverse of parse_model."""
    return {
        "states": [
            {
                "id": m.mode_id,
                "A": [[float(x) for x in row] for row in m.a],
                "B": [[float(x) for x in row] for row in m.b],
                "invariant": [[lo, hi] for lo, hi in m.invariant.intervals],
            }
            for m in model.modes
        ],
        "events": [
            {"id": e.name, "kind": e.kind, "observable": True}
            for e in model.events
        ],
        "transitions": [
            {
                "source": t.source,
                "input_event": t.input_event,
                "output_event": t.output_event,
                "target": t.target,
                "guard": {
                    "axis": t.guard.axis,
                    "sign": t.guard.sign,
                    "threshold": t.guard.threshold,
                },
            }
            for t in model.transitions
        ],
        "noise": {"w": list(model.w_bounds), "v": list(model.v_bounds)},
        "input_bound": model.input_bound,
        "sampling_period": model.sampling_period,
        "dwell_time": model.dwell_time,
        "theta": model.theta,
    }


def load_model(path: str | Path) -> HybridAutomaton:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return parse_model(doc)


def dump_model(model: HybridAutomaton, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=2, sort_keys=True)
        fh.write("\n")
