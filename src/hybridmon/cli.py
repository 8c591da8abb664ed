"""Command-line front end.

Subcommands: run one scenario, sweep it over seeds, and print the static
analyses (observability, per-state horizons, detection bounds, empirical
estimation error). The model argument is a schema JSON path or the
literal `train-gate` for the built-in scenario. Exit codes: 0 completed,
2 an alarm was raised, 1 error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Sequence

from .guarantees import EmptyGeometryError, state_guarantees
from .model import HybridAutomaton, decompose_regions, extract_fsm, refuse_invalid, validate_model
from .model_io import load_model
from .observer import build_observer, check_current_state_observability
from .reachability import compute_delta
from .simulate import (
    AttackSpec,
    ConstantController,
    ScenarioConfig,
    SimulationSummary,
    simulate,
    sweep,
    write_trace_csv,
    write_trace_jsonl,
)
from .train_gate import train_gate_model, train_gate_scenario

TRAIN_GATE_ALIAS = "train-gate"


def _load(model_arg: str) -> HybridAutomaton:
    if model_arg == TRAIN_GATE_ALIAS:
        return train_gate_model()
    return load_model(model_arg)


def parse_attack(text: str) -> AttackSpec:
    """Parse `kind:key=value,...`, e.g. `ramp:axis=0,slope=0.02,start=1.5`."""
    kind, _, body = text.partition(":")
    kind = kind.strip()
    fields: dict[str, str] = {}
    if body:
        for item in body.split(","):
            key, sep, value = item.partition("=")
            if not sep:
                raise ValueError(f"attack option {item!r} is not key=value")
            fields[key.strip()] = value.strip()
    known = {"axis", "slope", "magnitude", "start"}
    unknown = set(fields) - known
    if unknown:
        raise ValueError(f"unknown attack options: {sorted(unknown)}")
    return AttackSpec(
        axes=(int(fields.get("axis", "0")),),
        kind=kind,
        slope=float(fields.get("slope", "0")),
        magnitude=float(fields.get("magnitude", "0")),
        start_time=float(fields.get("start", "0")),
    )


def _generic_scenario(
    model: HybridAutomaton, seed: int, duration: float, attack: AttackSpec | None
) -> ScenarioConfig:
    """Fallback wiring for model files with no scenario of their own."""
    first = model.mode_ids[0]
    inv = model.invariant(first)
    center = tuple((lo + hi) / 2.0 for lo, hi in inv.intervals)
    n_inputs = model.dynamics(first).n_inputs
    return ScenarioConfig(
        model=model,
        controller=ConstantController(values=(0.0,) * n_inputs),
        initial_state=center,
        initial_mode=first,
        duration=duration,
        seed=seed,
        attack=attack,
    )


def _scenario(
    model_arg: str,
    model: HybridAutomaton,
    seed: int,
    duration: float,
    attack: AttackSpec | None,
) -> ScenarioConfig:
    if model_arg == TRAIN_GATE_ALIAS:
        return train_gate_scenario(seed=seed, duration=duration, attack=attack)
    return _generic_scenario(model, seed, duration, attack)


def _format_number(value: float | None) -> str:
    if value is None:
        return "none"
    return f"{value:.6g}"


def _summary_lines(summary: SimulationSummary, model: HybridAutomaton) -> list[str]:
    lines = [
        f"seed: {summary.seed}",
        f"samples: {summary.samples}",
        f"end_time: {_format_number(summary.end_time)}",
        f"completed: {str(summary.completed).lower()}",
        f"stop_event: {summary.stop_event or 'none'}",
    ]
    for event in summary.events:
        state = ", ".join(f"{value:.3f}" for value in event.state)
        lines.append(
            f"event: {event.input_event}/{event.output_event} at "
            f"{event.time:.1f} s (mode {event.source} -> {event.target}, state [{state}])"
        )
    lines.append(f"baseline_threshold: {_format_number(summary.baseline_threshold)}")
    lines.append(f"first_baseline_alarm: {_format_number(summary.first_baseline_alarm)}")
    if summary.first_conflict is None:
        lines.append("first_conflict: none")
    else:
        alarm = summary.first_conflict
        lines.append(
            f"first_conflict: {alarm.kind} at {alarm.time:.1f} s in mode {alarm.mode}"
        )
    if summary.safety_violation is None:
        lines.append("safety_violation: none")
    else:
        violation = summary.safety_violation
        state = ", ".join(f"{value:.3f}" for value in violation.state)
        lines.append(f"safety_violation: at {violation.time:.1f} s, state [{state}]")
    lines.append(f"dwell_ok: {str(summary.dwell_ok).lower()}")
    lines.append(
        "discrete_inconsistency: "
        + _format_number(summary.discrete_inconsistency)
    )
    lines.append(f"max_residual: {_format_number(summary.max_residual)}")
    lines.append(f"max_estimation_error: {_format_number(summary.max_estimation_error)}")
    lines.append(f"max_volume: {_format_number(summary.max_volume)}")
    try:
        bounds = state_guarantees(model)
    except EmptyGeometryError as error:
        lines.append(f"detection_threshold: unavailable ({error})")
        return lines
    for mode_id, bound in bounds.items():
        shown = "n/a" if bound.threshold is None else f"{bound.threshold:.6g}"
        lines.append(f"detection_threshold[{mode_id}]: {shown}")
    return lines


_TRACE_WRITERS = {".csv": write_trace_csv, ".jsonl": write_trace_jsonl}


def _trace_writer(out: str):
    """The writer for a trace path, refused before the run if it cannot be written."""
    suffix = os.path.splitext(out)[1]
    if suffix not in _TRACE_WRITERS:
        raise ValueError(f"--out {out!r} must end in .csv or .jsonl")
    directory = os.path.dirname(out) or "."
    if not os.path.isdir(directory):
        raise ValueError(f"--out directory {directory!r} does not exist")
    return _TRACE_WRITERS[suffix]


def _cmd_run(args: argparse.Namespace) -> int:
    model = _load(args.model)
    attack = parse_attack(args.attack) if args.attack else None
    config = _scenario(args.model, model, args.seed, args.duration, attack)
    write = _trace_writer(args.out) if args.out else None
    result = simulate(config, keep_trace=write is not None)
    if write is not None:
        write(result.trace, args.out)
    for line in _summary_lines(result.summary, model):
        print(line)
    return 2 if result.summary.alarm else 0


def _parse_seed_range(text: str) -> range:
    first, sep, last = text.partition("..")
    if not sep:
        value = int(text)
        return range(value, value + 1)
    return range(int(first), int(last) + 1)


def _cmd_sweep(args: argparse.Namespace) -> int:
    model = _load(args.model)
    attack = parse_attack(args.attack) if args.attack else None
    seeds = _parse_seed_range(args.seeds)
    if len(seeds) == 0:
        raise ValueError(f"empty seed range {args.seeds!r}")
    base = _scenario(args.model, model, seeds[0], args.duration, attack)
    results = sweep(base, seeds)
    alarmed = 0
    for result in results:
        summary = result.summary
        conflict = (
            "none"
            if summary.first_conflict is None
            else f"{summary.first_conflict.kind}@{summary.first_conflict.time:.1f}s"
        )
        baseline = (
            "none"
            if summary.first_baseline_alarm is None
            else f"{summary.first_baseline_alarm:.1f}s"
        )
        violation = (
            "none"
            if summary.safety_violation is None
            else f"{summary.safety_violation.time:.1f}s"
        )
        if summary.alarm:
            alarmed += 1
        print(
            f"seed {summary.seed}: conflict {conflict}, baseline {baseline}, "
            f"safety_violation {violation}, max_residual {summary.max_residual:.4f}"
        )
    print(f"alarms: {alarmed}/{len(results)}")
    return 2 if alarmed else 0


def _cmd_check_observability(args: argparse.Namespace) -> int:
    model = _load(args.model)
    observer = build_observer(extract_fsm(model))
    result = check_current_state_observability(observer)
    if result.observable:
        print(f"observable: k = {result.k}")
    else:
        nodes = ", ".join("{" + ", ".join(str(m) for m in node) + "}" for node in result.witness)
        print(f"NOT-OBSERVABLE: persistent ambiguous nodes {nodes}")
    return 0


def _cmd_compute_delta(args: argparse.Namespace) -> int:
    model = _load(args.model)
    refuse_invalid(validate_model(model))
    regions = decompose_regions(model)
    for mode_id in model.mode_ids:
        delta, per_guard = compute_delta(model, regions, mode_id)
        detail = ", ".join(
            f"{event}: {steps}" for (_, event), steps in sorted(per_guard.items(), key=str)
        )
        suffix = f" ({detail})" if detail else ""
        print(f"state {mode_id}: delta = {delta}{suffix}")
    return 0


def _cmd_compute_bounds(args: argparse.Namespace) -> int:
    model = _load(args.model)
    refuse_invalid(validate_model(model))
    for mode_id, bound in state_guarantees(model).items():
        z = "n/a" if bound.z_star is None else f"{bound.z_star:.6g}"
        d = "n/a" if bound.d_star is None else f"{bound.d_star:.6g}"
        threshold = "n/a" if bound.threshold is None else f"{bound.threshold:.6g}"
        print(f"state {mode_id}: z* = {z}, d* = {d}, threshold = {threshold}")
    return 0


def _cmd_calibrate_theta(args: argparse.Namespace) -> int:
    if args.runs < 1:
        raise ValueError(f"--runs must be at least 1, got {args.runs}")
    model = _load(args.model)
    # a duration with no sample at all keeps `ScenarioConfig`'s own refusal
    samples = args.duration / model.sampling_period
    if math.isfinite(samples) and 0 < round(samples) <= model.dwell_time:
        raise ValueError(
            f"--duration {args.duration:g} s gives {round(samples)} samples, but a sample settles "
            f"only after the dwell time of {model.dwell_time} samples"
        )
    base = _scenario(args.model, model, args.seed, args.duration, None)
    results = sweep(base, range(args.seed, args.seed + args.runs))
    worst = max(result.summary.max_estimation_error for result in results)
    print(f"runs: {args.runs}")
    print(f"max_steady_estimation_error: {worst:.6g}")
    print(f"theta: {model.theta:.6g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridmon",
        description="Conflict-driven anomaly detection on hybrid systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one scenario and print its summary")
    run.add_argument("model", help=f"model JSON path or '{TRAIN_GATE_ALIAS}'")
    run.add_argument("--attack", help="e.g. ramp:axis=0,slope=0.02,start=1.5")
    run.add_argument("--duration", type=float, default=200.0, help="seconds")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", help="trace path (.csv or .jsonl)")
    run.set_defaults(func=_cmd_run)

    swp = sub.add_parser("sweep", help="run a seed range and print per-seed outcomes")
    swp.add_argument("model", help=f"model JSON path or '{TRAIN_GATE_ALIAS}'")
    swp.add_argument("--seeds", required=True, help="range A..B, inclusive")
    swp.add_argument("--attack", help="e.g. ramp:axis=0,slope=0.02,start=1.5")
    swp.add_argument("--duration", type=float, default=200.0, help="seconds")
    swp.set_defaults(func=_cmd_sweep)

    obs = sub.add_parser(
        "check-observability", help="discrete-state observability and settling depth"
    )
    obs.add_argument("model")
    obs.set_defaults(func=_cmd_check_observability)

    delta = sub.add_parser("compute-delta", help="per-state reachability horizons")
    delta.add_argument("model")
    delta.set_defaults(func=_cmd_compute_delta)

    bounds = sub.add_parser(
        "compute-bounds", help="per-state guaranteed-detection thresholds"
    )
    bounds.add_argument("model")
    bounds.set_defaults(func=_cmd_compute_bounds)

    calibrate = sub.add_parser(
        "calibrate-theta", help="empirical steady estimation error over nominal runs"
    )
    calibrate.add_argument("model")
    calibrate.add_argument("--runs", type=int, default=20)
    calibrate.add_argument("--seed", type=int, default=0)
    calibrate.add_argument("--duration", type=float, default=200.0)
    calibrate.set_defaults(func=_cmd_calibrate_theta)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as error:  # noqa: BLE001 - single reporting point for exit code 1
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
