"""Model file parsing and serialization.

The model file is a JSON document with a fixed schema; unknown keys are
rejected at every level so typos fail loudly instead of being ignored.

Top-level keys:
  states          list of {id, A, B, invariant}, one `Mode` each; A and B
                  are row-major nested lists, invariant is a list of
                  [lo, hi] pairs, and every B has the same number of columns
  events          list of {id, kind: "input"|"output", observable: true};
                  unobservable events are rejected, because the observer
                  has no closure over them
  transitions     list of {source, input_event, output_event, target,
                  guard: {axis, sign, threshold}}
  noise           {w: [per-axis bound], v: [per-axis bound]}, shared by
                  every mode
  input_bound     scalar infinity-norm bound on the control input, shared
                  by every mode
  sampling_period sample time in seconds
  dwell_time      minimum inter-event gap in samples
  theta           steady-state estimation error bound used by the detector
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Mapping
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

_TOP_KEYS = {
    "states",
    "events",
    "transitions",
    "noise",
    "input_bound",
    "sampling_period",
    "dwell_time",
    "theta",
}
_STATE_KEYS = {"id", "A", "B", "invariant"}
_EVENT_KEYS = {"id", "kind", "observable"}
_TRANSITION_KEYS = {"source", "input_event", "output_event", "target", "guard"}
_GUARD_KEYS = {"axis", "sign", "threshold"}
_NOISE_KEYS = {"w", "v"}
_ARRAY_KEYS = ("A", "B", "invariant")


class UnknownKeyError(ModelError):
    """The document contains a key outside the published schema."""


def _check_keys(obj: Mapping[str, Any], allowed: set[str], where: str) -> None:
    if not isinstance(obj, Mapping):
        raise ModelError(f"{where}: expected an object, got {type(obj).__name__}")
    unknown = set(obj) - allowed
    if unknown:
        raise UnknownKeyError(f"{where}: unknown keys {sorted(unknown)}")
    missing = allowed - set(obj)
    if missing:
        raise ModelError(f"{where}: missing keys {sorted(missing)}")


def _check_numbers(values: Any, where: str) -> None:
    """Refuse the first entry of a nested array that is not a real number, naming its path."""
    if isinstance(values, (list, tuple)):
        for i, value in enumerate(values):
            if type(value) is not float:
                _check_numbers(value, f"{where}[{i}]")
    else:
        as_real(values, where)


def _check_arrays(states: Any, noise: Mapping[str, Any]) -> None:
    """Refuse text, bools and other non-numbers among the states' A, B and
    invariant entries and the noise bounds.

    NumPy reads "1.0" and true as numbers, and model_to_dict would write
    them back as numbers, so a document that carried them would not
    round-trip. Matrices and vectors of floats and ints, the usual case,
    are read in one pass in C; any other document is walked to name its
    first bad entry.
    """
    matrices = [state[key] for state in states for key in _ARRAY_KEYS]
    try:
        entries = itertools.chain(
            itertools.chain.from_iterable(itertools.chain.from_iterable(matrices)),
            noise["w"],
            noise["v"],
        )
        if set(map(type, entries)) <= {float, int}:
            return
    except TypeError:  # an entry where a row belongs
        pass
    for key in ("w", "v"):
        _check_numbers(noise[key], f"noise.{key}")
    for i, state in enumerate(states):
        for key in _ARRAY_KEYS:
            _check_numbers(state[key], f"states[{i}].{key}")


def parse_model(doc: Mapping[str, Any]) -> HybridAutomaton:
    """Build a validated-for-structure automaton from a schema document."""
    _check_keys(doc, _TOP_KEYS, "model")
    noise = doc["noise"]
    _check_keys(noise, _NOISE_KEYS, "noise")
    states = doc["states"]
    for i, state in enumerate(states):
        _check_keys(state, _STATE_KEYS, f"states[{i}]")
    _check_arrays(states, noise)
    modes = [
        Mode(
            mode_id=state["id"],
            a=state["A"],
            b=state["B"],
            invariant=Invariant(tuple((lo, hi) for lo, hi in state["invariant"])),
        )
        for state in states
    ]
    events = []
    for i, ev in enumerate(doc["events"]):
        _check_keys(ev, _EVENT_KEYS, f"events[{i}]")
        if not isinstance(ev["observable"], bool):
            raise ModelError(
                f"events[{i}] ({ev['id']!r}): observable must be true or false, "
                f"got {ev['observable']!r}"
            )
        if not ev["observable"]:
            raise ModelError(
                f"events[{i}] ({ev['id']!r}): unobservable events are not supported; "
                "the discrete observer has no closure over them"
            )
        events.append(Event(name=ev["id"], kind=ev["kind"]))
    transitions = []
    for i, tr in enumerate(doc["transitions"]):
        _check_keys(tr, _TRANSITION_KEYS, f"transitions[{i}]")
        guard = tr["guard"]
        _check_keys(guard, _GUARD_KEYS, f"transitions[{i}].guard")
        transitions.append(
            Transition(
                source=tr["source"],
                input_event=tr["input_event"],
                output_event=tr["output_event"],
                target=tr["target"],
                guard=Guard(
                    axis=guard["axis"],
                    sign=guard["sign"],
                    threshold=guard["threshold"],
                ),
            )
        )
    return HybridAutomaton(
        modes=tuple(modes),
        events=tuple(events),
        transitions=tuple(transitions),
        w_bounds=noise["w"],
        v_bounds=noise["v"],
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
