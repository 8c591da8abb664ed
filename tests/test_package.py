"""The public surface: the names `hybridmon` exports and the README's library example."""

import ast
import re
from pathlib import Path

import pytest

import hybridmon

README = Path(__file__).resolve().parents[1] / "README.md"

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
    "LtiDynamics",
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
    "Zonotope",
    "box_max",
    "box_zonotope",
    "build_observer",
    "check_current_state_observability",
    "check_dwell",
    "classify_fdia",
    "compute_delta",
    "decompose_regions",
    "detection_threshold",
    "dump_model",
    "extract_fsm",
    "inflate",
    "intersects_box",
    "linear_map",
    "load_model",
    "model_to_dict",
    "parse_model",
    "ramp_attack",
    "reach",
    "residual_baseline",
    "simulate",
    "solve_d_star",
    "solve_z_star",
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
