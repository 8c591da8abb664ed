"""Inputs of the benchmark: the ring-model family and the 3-D actuator model.

A ring model lays 3 to 6 modes along the position axis (axis 0). Mode i
covers [b_i, b_{i+1} + overlap] and leaves through a rising guard at
b_{i+1}; the last mode ends exactly at its guard, which sends the ring back
to mode 0, as the train-gate crossing does. The 2-D variant carries
[position, speed], the 3-D variant adds a first-order actuator state between
the command and the speed. The mirrored variant negates the position axis,
so every guard falls; it describes the same system and must give the same
horizons and thresholds.

Every model is a schema document (the JSON the program parses), built here
from numbers drawn with numpy; the program sees only the document.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

ND_MODEL_PATH = Path(__file__).resolve().parent / "nd_actuator.json"

# Ranges the family is drawn from (one draw per ring, shared by its four
# variants). Guards sit between 10 m and 40 m apart, the overlap between
# neighbouring invariants is 0.5-2 m, the speed pole 0.85-0.97, the actuator
# pole 0.6-0.9, and per-mode speed ceilings 0.5-2 m/s.
RING_MODES = (3, 6)
SEGMENT_M = (10.0, 40.0)
OVERLAP_M = (0.5, 2.0)
SAMPLING_S = (0.05, 0.2)
SPEED_POLE = (0.85, 0.97)
ACTUATOR_POLE = (0.6, 0.9)
CEILING_MPS = (0.5, 2.0)
W_BOUND = (0.005, 0.02)
V_BOUND = (0.05, 0.15)
THETA = (0.03, 0.08)
DWELL = (10, 20)


def draw_ring(rng: np.random.Generator, n: int) -> dict:
    """Numbers of one ring of n modes, drawn from the ranges above."""
    return {
        "bounds": np.concatenate([[0.0], np.cumsum(rng.uniform(*SEGMENT_M, size=n))]),
        "overlap": float(rng.uniform(*OVERLAP_M)),
        "h": float(rng.uniform(*SAMPLING_S)),
        "speed_pole": float(rng.uniform(*SPEED_POLE)),
        "actuator_pole": float(rng.uniform(*ACTUATOR_POLE)),
        "ceilings": rng.uniform(*CEILING_MPS, size=n),
        "w": rng.uniform(*W_BOUND, size=3),
        "v": rng.uniform(*V_BOUND, size=3),
        "theta": float(rng.uniform(*THETA)),
        "dwell": int(rng.integers(DWELL[0], DWELL[1] + 1)),
    }


def ring_document(ring: dict, dim: int, mirrored: bool) -> dict:
    """Schema document of one variant of a drawn ring."""
    h, a_v, a_u = ring["h"], ring["speed_pole"], ring["actuator_pole"]
    if dim == 2:
        a = np.array([[1.0, h], [0.0, a_v]])
        b = np.array([[0.0], [1.0 - a_v]])
    elif dim == 3:
        a = np.array([[1.0, h, 0.0], [0.0, a_v, 1.0 - a_v], [0.0, 0.0, a_u]])
        b = np.array([[0.0], [0.0], [1.0 - a_u]])
    else:
        raise ValueError("ring models are 2-D or 3-D")
    sign = -1.0 if mirrored else 1.0
    if mirrored:
        a[0, :] *= -1.0
        a[:, 0] *= -1.0
        b[0, :] *= -1.0
    bounds = ring["bounds"]
    n = bounds.size - 1
    states, events, transitions = [], [], []
    for i in range(n):
        lo = float(bounds[i])
        hi = float(bounds[i + 1]) + (ring["overlap"] if i < n - 1 else 0.0)
        position = sorted((sign * lo, sign * hi))
        speed = [0.0, float(ring["ceilings"][i])]
        states.append(
            {
                "id": i,
                "A": a.tolist(),
                "B": b.tolist(),
                "invariant": [position] + [speed] * (dim - 1),
            }
        )
        events += [
            {"id": f"c_{i}", "kind": "input", "observable": True},
            {"id": f"s_{i}", "kind": "output", "observable": True},
        ]
        transitions.append(
            {
                "source": i,
                "input_event": f"c_{i}",
                "output_event": f"s_{i}",
                "target": (i + 1) % n,
                "guard": {
                    "axis": 0,
                    "sign": -1 if mirrored else 1,
                    "threshold": sign * float(bounds[i + 1]),
                },
            }
        )
    return {
        "states": states,
        "events": events,
        "transitions": transitions,
        "noise": {"w": ring["w"][:dim].tolist(), "v": ring["v"][:dim].tolist()},
        "input_bound": 1.0,
        "sampling_period": h,
        "dwell_time": ring["dwell"],
        "theta": ring["theta"],
    }
