"""Per-row reference of the trace writers, used by the tests.

It keeps the CSV and JSONL writers as they were before they formatted a
block of rows at a time: one `float()` per numpy scalar and one list or
dict of cells per row, written through `csv.writer` and `json.dumps`, into
UTF-8 files. `write_trace_csv` and `write_trace_jsonl` must write the same
bytes, and `_csv_cell` must quote a label as `reference_csv_cell` does.
"""

import csv
import io
import json


def reference_csv_cell(text):
    """The cell `csv.writer` writes for text inside a row, quoted if it must be."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow([text, ""])
    return buffer.getvalue()[: -len(",\r\n")]


def reference_write_csv(trace, path):
    """Fixed column order: time, state, output, estimate, residual, modes, verdicts."""
    dim = trace.x_true.shape[1]
    header = (
        ["t"]
        + [f"x_{i}" for i in range(dim)]
        + [f"y_{i}" for i in range(dim)]
        + [f"xest_{i}" for i in range(dim)]
        + [f"r_{i}" for i in range(dim)]
        + ["q", "q_node", "conflict_a", "conflict_b", "conflict_c", "alarm",
           "volume", "steady", "warming_up"]
    )
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for i in range(len(trace)):
            writer.writerow(
                [repr(float(trace.times[i]))]
                + [repr(float(value)) for value in trace.x_true[i]]
                + [repr(float(value)) for value in trace.y[i]]
                + [repr(float(value)) for value in trace.x_est[i]]
                + [repr(float(value)) for value in trace.residual[i]]
                + [
                    str(trace.mode_true[i]),
                    "|".join(str(m) for m in trace.node[i]),
                    int(trace.conflict_a[i]),
                    int(trace.conflict_b[i]),
                    int(trace.conflict_c[i]),
                    int(trace.alarm[i]),
                    repr(float(trace.volume[i])),
                    int(trace.steady[i]),
                    int(trace.warming_up[i]),
                ]
            )


def reference_write_jsonl(trace, path):
    """Same records as the CSV, one JSON object per line."""
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(len(trace)):
            record = {
                "t": float(trace.times[i]),
                "x": [float(v) for v in trace.x_true[i]],
                "y": [float(v) for v in trace.y[i]],
                "xest": [float(v) for v in trace.x_est[i]],
                "r": [float(v) for v in trace.residual[i]],
                "q": trace.mode_true[i],
                "q_node": list(trace.node[i]),
                "conflict_a": bool(trace.conflict_a[i]),
                "conflict_b": bool(trace.conflict_b[i]),
                "conflict_c": bool(trace.conflict_c[i]),
                "alarm": bool(trace.alarm[i]),
                "volume": float(trace.volume[i]),
                "steady": bool(trace.steady[i]),
                "warming_up": bool(trace.warming_up[i]),
            }
            handle.write(json.dumps(record) + "\n")
