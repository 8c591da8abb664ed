"""Conflict-driven anomaly detection for hybrid (mixed discrete/continuous) systems.

The package models hybrid automata with per-mode linear dynamics, builds a
hybrid observer (discrete-event observer plus per-mode steady-state Kalman
filters), runs a three-conflict detector that decides each horizon check from
separating-axis tables of the forward reachable sets, and computes
guaranteed-detectable attack magnitudes by robust optimization over box
uncertainty sets. A train-gate false-data-injection case study ships as the
built-in scenario. The zonotope algebra the detector and the horizon
analyses are tested against is the tests' reference, in
`tests/zonotope_reference.py`.
"""

from .model import (
    DegenerateModelError,
    Event,
    Fsm,
    Guard,
    HybridAutomaton,
    Invariant,
    Mode,
    ModelError,
    RegionDecomposition,
    Transition,
    decompose_regions,
    extract_fsm,
    validate_model,
)
from .model_io import dump_model, load_model, model_to_dict, parse_model
from .observer import (
    DiscreteInconsistencyError,
    ObservabilityResult,
    ObserverFsm,
    build_observer,
    check_current_state_observability,
    step_discrete,
)
from .kalman import (
    KalmanBank,
    KalmanGain,
    RiccatiError,
    check_dwell,
    synthesize_gains,
)
from .reachability import HorizonError, compute_delta
from .conflicts import Detector, volume_bound
from .guarantees import (
    EmptyGeometryError,
    FdiaClassification,
    GuaranteeBound,
    NoGuaranteeError,
    detection_threshold,
    box_max,
    classify_fdia,
    state_guarantees,
)
from .simulate import (
    AttackSpec,
    ConstantController,
    ScenarioConfig,
    SimulationResult,
    SimulationSummary,
    ZoneController,
    ZoneSpeedLimit,
    simulate,
    sweep,
)
from .train_gate import ramp_attack, train_gate_model, train_gate_scenario

__version__ = "0.1.0"

__all__ = [
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
