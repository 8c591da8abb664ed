"""The public surface: the names `hybridmon` exports, their call signatures and the README's library example."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import hybridmon

README = Path(__file__).resolve().parents[1] / "README.md"
WORKLOADS = Path(__file__).resolve().parents[1] / "monbench" / "workloads.py"

# adding or removing a public name is a deliberate edit of this list
PUBLIC_NAMES = [
    "AttackSpec",
    "ConstantController",
    "DegenerateModelError",
    "Detector",
    "DiscreteInconsistencyError",
    "EmptyGeometryError",
    "Event",
    "FdiaClassification",
    "Fsm",
    "GuaranteeBound",
    "Guard",
    "HorizonError",
    "HybridAutomaton",
    "Invariant",
    "KalmanBank",
    "KalmanGain",
    "Mode",
    "ModelError",
    "NoGuaranteeError",
    "ObservabilityResult",
    "ObserverFsm",
    "RegionDecomposition",
    "RiccatiError",
    "ScenarioConfig",
    "SimulationResult",
    "SimulationSummary",
    "Transition",
    "ZoneController",
    "ZoneSpeedLimit",
    "box_max",
    "build_observer",
    "check_current_state_observability",
    "check_dwell",
    "classify_fdia",
    "compute_delta",
    "decompose_regions",
    "detection_threshold",
    "dump_model",
    "extract_fsm",
    "load_model",
    "model_to_dict",
    "parse_model",
    "ramp_attack",
    "simulate",
    "state_guarantees",
    "step_discrete",
    "sweep",
    "synthesize_gains",
    "train_gate_model",
    "train_gate_scenario",
    "validate_model",
    "volume_bound",
]


def test_public_names():
    names = hybridmon.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(hybridmon, name)] == []
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert names == PUBLIC_NAMES


# parameter names and defaults of each public callable, with annotations left
# out; None for an exception class, which has the builtin signature. Adding,
# removing or renaming an option is a deliberate edit of this table.
PUBLIC_SIGNATURES = {
    "AttackSpec": "(axes, kind='ramp', slope=0.0, magnitude=0.0, start_time=0.0, samples=())",
    "ConstantController": '(values)',
    "DegenerateModelError": None,
    "Detector": '(model, deltas=None)',
    "DiscreteInconsistencyError": '(node, pair)',
    "EmptyGeometryError": None,
    "Event": '(name, kind)',
    "FdiaClassification": '(feasible, indeterminate, eigenvalue, eigenvector, reason)',
    "Fsm": '(states, transitions, outputs)',
    "GuaranteeBound": '(mode_id, guards, z_star, d_star, threshold)',
    "Guard": '(axis, sign, threshold)',
    "HorizonError": None,
    "HybridAutomaton": '(modes, events, transitions, w_bounds, v_bounds, input_bound, dwell_time, sampling_period, theta)',
    "Invariant": '(intervals)',
    "KalmanBank": '(gains)',
    "KalmanGain": '(gain, predicted_covariance, iterations, final_increment)',
    "Mode": '(mode_id, a, b, invariant)',
    "ModelError": None,
    "NoGuaranteeError": None,
    "ObservabilityResult": '(observable, k, witness)',
    "ObserverFsm": '(root, nodes, transitions)',
    "RegionDecomposition": '(intermediate, normal, neighbor_values)',
    "RiccatiError": None,
    "ScenarioConfig": '(model, controller, initial_state, initial_mode, duration, seed=0, attack=None, safety=None, stop_events=frozenset())',
    "SimulationResult": '(summary, trace)',
    "SimulationSummary": '(seed, completed, end_time, samples, stop_event, events, first_conflict, first_baseline_alarm, baseline_threshold, safety_violation, dwell_ok, discrete_inconsistency, max_residual, max_estimation_error, max_volume)',
    "Transition": '(source, input_event, output_event, target, guard)',
    "ZoneController": '(axis, center, half_width, inside_value, outside_value)',
    "ZoneSpeedLimit": '(position_axis, center, half_width, speed_axis, limit)',
    "box_max": '(a, lo, hi)',
    "build_observer": '(fsm)',
    "check_current_state_observability": '(obs)',
    "check_dwell": '(model, event_samples)',
    "classify_fdia": '(model, mode_id, gamma_axes)',
    "compute_delta": '(model, regions, mode_id)',
    "decompose_regions": '(model)',
    "detection_threshold": '(model, mode_id)',
    "dump_model": '(model, path)',
    "extract_fsm": '(model)',
    "load_model": '(path)',
    "model_to_dict": '(model)',
    "parse_model": '(doc)',
    "ramp_attack": '(slope, start_time=1.5)',
    "simulate": '(config, *, keep_trace=True, detector=None, bank=None, observer=None)',
    "state_guarantees": '(model, regions=None, deltas=None)',
    "step_discrete": '(obs, node, pair)',
    "sweep": '(base, seeds, *, keep_traces=False)',
    "synthesize_gains": '(model)',
    "train_gate_model": '()',
    "train_gate_scenario": '(seed=0, duration=200.0, attack=None, model=None)',
    "validate_model": '(model)',
    "volume_bound": '(model)',
    "reachability.compute_all_deltas": '(model, regions)',
}


def _plain_signature(obj):
    try:
        signature = inspect.signature(obj)
    except ValueError:
        return None
    params = [p.replace(annotation=inspect.Parameter.empty) for p in signature.parameters.values()]
    return str(signature.replace(parameters=params, return_annotation=inspect.Signature.empty))


def test_public_signatures():
    public = {name: getattr(hybridmon, name) for name in hybridmon.__all__}
    public["reachability.compute_all_deltas"] = hybridmon.reachability.compute_all_deltas
    assert {name: _plain_signature(obj) for name, obj in public.items()} == PUBLIC_SIGNATURES


def _workload_calls():
    """(callable, positional count, keyword names) of each package call in the benchmark.

    A call is `hm.f(...)`, `self.hm.f(...)` or `self.<attr>(...)` for the
    package functions the workloads keep as attributes, made directly or
    through a tracer's `call(name, f, *args, **kwargs)`.
    """
    # the package exports a function named simulate, which hides the module
    simulate = importlib.import_module("hybridmon.simulate")
    kept = {
        "compute_all_deltas": hybridmon.reachability.compute_all_deltas,
        "write_csv": simulate.write_trace_csv,
        "write_jsonl": simulate.write_trace_jsonl,
    }

    def resolve(node):
        if not isinstance(node, ast.Attribute):
            return None
        owner = node.value
        if isinstance(owner, ast.Name) and owner.id == "hm":
            return getattr(hybridmon, node.attr)
        if isinstance(owner, ast.Attribute) and owner.attr == "hm":
            return getattr(hybridmon, node.attr)
        if isinstance(owner, ast.Name) and owner.id == "self":
            return kept.get(node.attr)
        return None

    calls = []
    for node in ast.walk(ast.parse(WORKLOADS.read_text())):
        if not isinstance(node, ast.Call):
            continue
        fn, args = resolve(node.func), node.args
        traced = isinstance(node.func, (ast.Name, ast.Attribute)) and (
            getattr(node.func, "id", None) == "call" or getattr(node.func, "attr", None) == "call"
        )
        if fn is None and traced and len(args) >= 2:
            fn, args = resolve(args[1]), args[2:]
        if fn is None:
            continue
        assert not any(isinstance(a, ast.Starred) for a in args), ast.unparse(node)
        assert all(kw.arg is not None for kw in node.keywords), ast.unparse(node)
        calls.append((fn, len(args), tuple(kw.arg for kw in node.keywords), ast.unparse(node)))
    return calls


def test_benchmark_calls_bind():
    calls = _workload_calls()
    reached = {fn.__name__ for fn, *_ in calls}
    # the entry points the benchmark's operations stand on
    assert {
        "Detector",
        "compute_all_deltas",
        "decompose_regions",
        "simulate",
        "state_guarantees",
        "sweep",
        "synthesize_gains",
    } <= reached
    for fn, positional, keywords, source in calls:
        try:
            inspect.signature(fn).bind(*[None] * positional, **dict.fromkeys(keywords))
        except TypeError as error:
            raise AssertionError(f"{source}: {error}") from error


def test_readme_library_example(capsys):
    library = README.read_text().split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(code, f"{README}:Library", "exec"), {})
    conflict, violation, threshold, z_stars = capsys.readouterr().out.splitlines()
    match = re.fullmatch(r"ConflictAlarm\(time=(\S+), kind='C', mode=1\)", conflict)
    assert float(match.group(1)) == pytest.approx(48.4, abs=1e-9)
    assert re.fullmatch(r"SafetyViolation\(time=180\.0, state=\(\S+, \S+\)\)", violation)
    assert float(threshold) == pytest.approx(0.7, abs=1e-9)
    assert ast.literal_eval(z_stars) == pytest.approx({1: 0.67, 2: 0.45, 3: 0.46}, abs=1e-9)


def test_modules_import_no_private_names():
    # a module reaches into no other module's underscore names; imports from
    # outside the package (numpy's `_umath_linalg` in kalman) are theirs
    package = Path(hybridmon.__file__).resolve().parent
    private = [
        f"{path.name}:{node.lineno} imports {alias.name}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_number_predicates_are_called_only_by_the_field_helpers():
    # every other module checks a number it is handed through `as_real`,
    # `as_finite` or `as_index`, so the field rule lives in `model` alone
    package = Path(hybridmon.__file__).resolve().parent
    calls = [
        f"{path.name}:{node.lineno} calls {name}"
        for path in sorted(package.glob("*.py"))
        if path.name != "model.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        for name in [getattr(node.func, "id", None) or getattr(node.func, "attr", None)]
        if name in ("real_number", "whole_number")
    ]
    assert calls == []


def test_run_time_modules_import_no_zonotope_or_solver():
    # the monitor's path and the static analyses decide from tables and
    # guard-axis hulls. The zonotope algebra they are tested against, the
    # per-sample attack value, guard test and baseline scan, and the solver
    # are the tests' references: no module defines, imports or reads them
    package = Path(hybridmon.__file__).resolve().parent
    banned = {
        "Zonotope", "box_zonotope", "linear_map", "inflate", "reach", "intersects_box",
        "residual_baseline", "magnitude_at", "satisfied", "v_norm", "linprog",
    }
    found = [
        f"{path.name}:{node.lineno} {kind} {name}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        for kind, names in (
            ("defines", [node.name] if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else []),
            ("imports", [a.name for a in node.names] if isinstance(node, ast.ImportFrom) else []),
            ("reads", [node.attr] if isinstance(node, ast.Attribute) else []),
        )
        for name in names
        if name in banned
    ]
    assert found == []


def test_package_imports_no_scipy():
    # numpy is the only runtime dependency; scipy is the tests' reference solver
    package = Path(hybridmon.__file__).resolve().parent
    found = [
        f"{path.relative_to(package)}:{node.lineno} imports {name}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        for name in (
            [alias.name for alias in node.names] if isinstance(node, ast.Import)
            else [node.module or ""] if isinstance(node, ast.ImportFrom) and node.level == 0
            else []
        )
        if name.partition(".")[0] == "scipy"
    ]
    assert found == []
