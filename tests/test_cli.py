"""Command-line front end: argument parsing, output format, exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from hybridmon import model_to_dict, parse_model
from hybridmon.cli import _parse_seed_range, main, parse_attack
from hybridmon.train_gate import TRAIN_GATE_MODEL_DICT, train_gate_model

ND_ACTUATOR = Path(__file__).resolve().parents[1] / "monbench" / "nd_actuator.json"

# mode 1 has no threshold arm: its guard-axis coefficient A[0, 0] = -0.5 is
# negative, so the d* arm is unavailable, and it maps the guard at 5 to -2.5,
# which the noise w = 3 lifts only to 0.5, so z* has no overshoot. The model
# is valid and runs.
UNSOLVABLE_MODEL = {
    "states": [
        {
            "id": 1,
            "A": [[-0.5, 0.0], [0.0, 0.9]],
            "B": [[0.0], [0.0]],
            "invariant": [[0.0, 6.0], [-5.0, 5.0]],
        },
        {
            "id": 2,
            "A": [[0.9, 0.0], [0.0, 0.9]],
            "B": [[0.0], [0.0]],
            "invariant": [[5.0, 10.0], [-5.0, 5.0]],
        },
    ],
    "events": [
        {"id": "go", "kind": "input", "observable": True},
        {"id": "seen", "kind": "output", "observable": True},
    ],
    "transitions": [
        {
            "source": 1,
            "input_event": "go",
            "output_event": "seen",
            "target": 2,
            "guard": {"axis": 0, "sign": 1, "threshold": 5.0},
        }
    ],
    "noise": {"w": [3.0, 0.1], "v": [0.1, 0.1]},
    "input_bound": 0.0,
    "sampling_period": 0.1,
    "dwell_time": 5,
    "theta": 0.5,
}
UNSOLVABLE_REASON = "one-step overshoot tops out at 0.5, below the guard 5.0"


def write_model(tmp_path, doc):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


class TestParseAttack:
    def test_ramp(self):
        spec = parse_attack("ramp:axis=0,slope=0.02,start=1.5")
        assert spec.kind == "ramp"
        assert spec.axes == (0,)
        assert spec.slope == 0.02
        assert spec.start_time == 1.5

    def test_step(self):
        spec = parse_attack("step:magnitude=1.0,start=2")
        assert spec.kind == "step"
        assert spec.magnitude == 1.0
        assert spec.start_time == 2.0

    def test_bare_kind_uses_defaults(self):
        spec = parse_attack("ramp")
        assert spec.axes == (0,)
        assert spec.slope == 0.0
        assert spec.start_time == 0.0

    def test_missing_equals(self):
        with pytest.raises(ValueError, match="not key=value"):
            parse_attack("ramp:slope")

    def test_unknown_option(self):
        with pytest.raises(ValueError, match="unknown attack options"):
            parse_attack("ramp:sloop=1")

    def test_unknown_kind_propagates(self):
        with pytest.raises(ValueError, match="unknown attack kind"):
            parse_attack("pulse:magnitude=1")

    @pytest.mark.parametrize(
        "option, message",
        [
            ("axis=0.5", "attack option axis must be a whole number, got '0.5'"),
            ("slope=fast", "attack option slope must be a real number, got 'fast'"),
            ("magnitude=", "attack option magnitude must be a real number, got ''"),
            ("start=1.5s", "attack option start must be a real number, got '1.5s'"),
        ],
    )
    def test_option_that_is_not_a_number_is_named(self, capsys, option, message):
        # the error names the option and its text, not only the parse failure
        code, out, err = run_cli(capsys, "run", "train-gate", "--attack", f"ramp:{option}")
        assert (code, out, err) == (1, [], f"error: {message}\n")


class TestSeedRange:
    def test_range_is_inclusive(self):
        assert _parse_seed_range("3..5") == range(3, 6)

    def test_single_seed(self):
        assert _parse_seed_range("7") == range(7, 8)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            _parse_seed_range("a..b")


class TestRun:
    def test_nominal_run_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "run", "train-gate", "--duration", "30")
        assert code == 0
        assert "seed: 0" in out
        assert "samples: 300" in out
        assert "completed: true" in out
        assert "stop_event: none" in out
        assert "baseline_threshold: 0.15" in out
        assert "first_baseline_alarm: none" in out
        assert "first_conflict: none" in out
        assert "safety_violation: none" in out
        assert "detection_threshold[1]: 0.92" in out
        assert "detection_threshold[2]: 0.7" in out
        assert "detection_threshold[3]: 0.71" in out

    def test_alarm_exits_two(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "run",
            "train-gate",
            "--duration",
            "30",
            "--attack",
            "step:magnitude=1.0,start=1.5",
        )
        assert code == 2
        assert "first_baseline_alarm: 1.5" in out

    def test_event_lines_report_the_crossing(self, capsys):
        code, out, _ = run_cli(capsys, "run", "train-gate", "--duration", "60")
        assert code == 0
        events = [line for line in out if line.startswith("event: ")]
        assert len(events) == 1
        assert events[0].startswith("event: c_down/s_1 at ")
        assert "(mode 1 -> 2, state [45." in events[0]

    def test_csv_out(self, capsys, tmp_path):
        path = tmp_path / "trace.csv"
        code, _, _ = run_cli(
            capsys, "run", "train-gate", "--duration", "10", "--out", str(path)
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0].startswith("t,x_0,x_1,")
        assert len(lines) == 101

    def test_jsonl_out(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        code, _, _ = run_cli(
            capsys, "run", "train-gate", "--duration", "10", "--out", str(path)
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 100
        assert json.loads(lines[0])["q"] == 1

    @pytest.mark.parametrize("name", ["trace.txt", "trace", "trace.csv.gz"])
    def test_out_suffix_refused_before_the_run(self, capsys, tmp_path, monkeypatch, name):
        monkeypatch.setattr("hybridmon.cli.simulate", pytest.fail)
        path = tmp_path / name
        code, out, err = run_cli(capsys, "run", "train-gate", "--out", str(path))
        assert code == 1
        assert out == []
        assert err.startswith("error: ") and ".csv" in err and ".jsonl" in err
        assert not path.exists()

    def test_out_missing_directory_refused_before_the_run(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr("hybridmon.cli.simulate", pytest.fail)
        path = tmp_path / "nosuch" / "trace.jsonl"
        code, out, err = run_cli(capsys, "run", "train-gate", "--out", str(path))
        assert code == 1
        assert out == []
        assert err.startswith("error: ") and "nosuch" in err and "does not exist" in err

    def test_model_file_runs_generic_scenario(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_to_dict(train_gate_model())))
        code, out, _ = run_cli(capsys, "run", str(path), "--duration", "5")
        assert code == 0
        assert "completed: true" in out

    def test_missing_model_file_errors(self, capsys):
        code, _, err = run_cli(capsys, "run", "nosuch.json")
        assert code == 1
        assert err.startswith("error: ")

    def test_unsolvable_threshold_keeps_the_summary(self, capsys, tmp_path):
        from hybridmon import validate_model
        from hybridmon.model_io import parse_model

        assert validate_model(parse_model(UNSOLVABLE_MODEL)) == []
        model, trace = write_model(tmp_path, UNSOLVABLE_MODEL), tmp_path / "t.csv"
        code, out, err = run_cli(capsys, "run", model, "--duration", "2", "--out", str(trace))
        assert (code, err) == (0, "")
        assert len(trace.read_text().splitlines()) == 21
        assert out[1] == "samples: 20"
        assert out[-2].startswith("max_volume: ")
        assert out[-1] == f"detection_threshold: unavailable ({UNSOLVABLE_REASON})"

    def test_without_out_keeps_no_trace(self, capsys, tmp_path, monkeypatch):
        from hybridmon import cli

        seen = []

        def spy(config, **kwargs):
            seen.append(kwargs["keep_trace"])
            return simulate(config, **kwargs)

        simulate = cli.simulate
        monkeypatch.setattr(cli, "simulate", spy)
        argv = ("run", "train-gate", "--duration", "60", "--attack", "ramp:slope=0.05,start=1.5")
        code, out, _ = run_cli(capsys, *argv)
        traced_code, traced_out, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "t.csv"))
        assert seen == [False, True]
        assert code == traced_code == 2
        assert out == traced_out

    def test_axis_without_noise_names_mode_and_axis(self, capsys, tmp_path):
        # validate_model refuses w = v = 0 on an axis with the Riccati solve's
        # words, where numpy alone would say only "Singular matrix"
        doc = model_to_dict(train_gate_model())
        doc["noise"] = {"w": [0.01, 0.0], "v": [0.1, 0.0]}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "run", str(path), "--duration", "1")
        assert code == 1
        assert err == (
            "error: model failed validation: noise: axis 1 has zero process and "
            "measurement noise variance (w = 0, v = 0), so P + R is singular\n"
        )


class TestSweep:
    def test_sweep_prints_per_seed_lines(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "train-gate", "--seeds", "1..3", "--duration", "20"
        )
        assert code == 0
        assert out[-1] == "alarms: 0/3"
        assert out[0].startswith("seed 1: conflict none, baseline none, ")
        assert len(out) == 4

    def test_sweep_alarm_exit_code(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "train-gate",
            "--seeds",
            "3..3",
            "--duration",
            "20",
            "--attack",
            "step:magnitude=1.0,start=1.5",
        )
        assert code == 2
        assert out[-1] == "alarms: 1/1"

    @pytest.mark.parametrize(
        "argv, seed",
        [(("run", "train-gate", "--seed", "-1"), -1), (("sweep", "train-gate", "--seeds=-2..1"), -2)],
    )
    def test_negative_seed_refused(self, capsys, argv, seed):
        code, out, err = run_cli(capsys, *argv, "--duration", "5")
        assert (code, out) == (1, [])
        assert err == f"error: seed must be nonnegative, got {seed}\n"

    @pytest.mark.parametrize(
        "seeds, bound", [("0.5..3", "0.5"), ("x", "x"), ("1..3.0", "3.0"), ("1..", "")]
    )
    def test_seed_bound_that_is_not_a_whole_number_is_named(self, capsys, seeds, bound):
        code, out, err = run_cli(capsys, "sweep", "train-gate", f"--seeds={seeds}")
        assert (code, out) == (1, [])
        assert err == f"error: --seeds bound must be a whole number, got {bound!r}\n"

    def test_empty_seed_range_errors(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "train-gate", "--seeds", "5..4")
        assert code == 1
        assert "empty seed range" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "train-gate", "--duration", "5"),
        ("sweep", "train-gate", "--seeds", "0..1", "--duration", "5"),
        ("calibrate-theta", "train-gate", "--runs", "2", "--duration", "5"),
    ],
)
def test_train_gate_is_parsed_once(capsys, monkeypatch, argv):
    # the runs and the printed figures share the one model the command loads
    parsed = []

    def counted(doc):
        parsed.append(doc)
        return parse_model(doc)

    monkeypatch.setattr("hybridmon.train_gate.parse_model", counted)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out
    assert parsed == [TRAIN_GATE_MODEL_DICT]


class TestStaticCommands:
    def test_malformed_model_file_names_the_path(self, capsys, tmp_path):
        # an object where an invariant's [lo, hi] pair belongs
        doc = json.loads(json.dumps(TRAIN_GATE_MODEL_DICT))
        doc["states"][0]["invariant"][1] = {}
        code, out, err = run_cli(capsys, "compute-bounds", write_model(tmp_path, doc))
        assert (code, out) == (1, [])
        assert err == "error: states[0].invariant[1]: expected a list of 2, got dict\n"

    @pytest.mark.parametrize("command", ["compute-bounds", "compute-delta", "run"])
    def test_infinite_noise_bound_is_named(self, capsys, tmp_path, command):
        # refused as the model is built, before a reach hull or a Riccati
        # solve meets it
        doc = json.loads(ND_ACTUATOR.read_text())
        doc["noise"]["w"][0] = float("inf")
        code, out, err = run_cli(capsys, command, write_model(tmp_path, doc))
        assert (code, out) == (1, [])
        assert err == "error: process noise bound 0 must be finite, got inf\n"

    def test_check_observability(self, capsys):
        code, out, _ = run_cli(capsys, "check-observability", "train-gate")
        assert code == 0
        assert out == ["observable: k = 1"]

    def test_compute_delta(self, capsys):
        code, out, _ = run_cli(capsys, "compute-delta", "train-gate")
        assert code == 0
        assert out == [
            "state 1: delta = 8 (c_down: 8)",
            "state 2: delta = 8 (c_up: 8)",
            "state 3: delta = 0 (c_next: 0)",
        ]

    def test_compute_bounds(self, capsys):
        code, out, _ = run_cli(capsys, "compute-bounds", "train-gate")
        assert code == 0
        assert out == [
            "state 1: z* = 0.67, d* = n/a, threshold = 0.92",
            "state 2: z* = 0.45, d* = n/a, threshold = 0.7",
            "state 3: z* = 0.46, d* = n/a, threshold = 0.71",
        ]

    @pytest.mark.parametrize("command", ["compute-delta", "compute-bounds"])
    def test_invalid_model_refused_as_run_refuses_it(self, capsys, tmp_path, command):
        doc = json.loads(json.dumps(TRAIN_GATE_MODEL_DICT))
        doc["states"][0]["A"][0][0] = 1.2
        model = write_model(tmp_path, doc)
        want = "error: model failed validation: stability: mode 1 has eigenvalue modulus 1.2 > 1\n"
        assert run_cli(capsys, "run", model, "--duration", "1") == (1, [], want)
        assert run_cli(capsys, command, model) == (1, [], want)

    @pytest.mark.parametrize("command", ["compute-delta", "compute-bounds"])
    def test_noiseless_axis_refused(self, capsys, tmp_path, command):
        doc = json.loads(ND_ACTUATOR.read_text())
        doc["noise"]["w"][0] = doc["noise"]["v"][0] = 0.0
        code, out, err = run_cli(capsys, command, write_model(tmp_path, doc))
        assert (code, out) == (1, [])
        assert err == (
            "error: model failed validation: noise: axis 0 has zero process and "
            "measurement noise variance (w = 0, v = 0), so P + R is singular\n"
        )

    @pytest.mark.parametrize("command", ["compute-delta", "compute-bounds", "run"])
    def test_modes_with_different_input_counts_refused_at_load(self, capsys, tmp_path, command):
        doc = json.loads(ND_ACTUATOR.read_text())
        doc["states"][1]["B"] = [row + [0.0] for row in doc["states"][1]["B"]]
        want = "error: modes take different numbers of inputs; one controller cannot drive them\n"
        assert run_cli(capsys, command, write_model(tmp_path, doc)) == (1, [], want)

    def test_unsolvable_threshold_stays_an_error_in_compute_bounds(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "compute-bounds", write_model(tmp_path, UNSOLVABLE_MODEL))
        assert (code, out, err) == (1, [], f"error: {UNSOLVABLE_REASON}\n")

    def test_unbisectable_d_star_leaves_the_z_star_arm(self, capsys, tmp_path):
        # A[0, 1] = 0.9 lifts mode 1's overshoot to 5.0, so z* = 3.2 stands
        # alone while the d* arm is unavailable
        doc = json.loads(json.dumps(UNSOLVABLE_MODEL))
        doc["states"][0]["A"] = [[-0.5, 0.9], [0.0, 0.9]]
        code, out, err = run_cli(capsys, "compute-bounds", write_model(tmp_path, doc))
        assert (code, err) == (0, "")
        assert out == [
            "state 1: z* = 3.2, d* = n/a, threshold = 3.9",
            "state 2: z* = n/a, d* = n/a, threshold = n/a",
        ]

    @pytest.mark.parametrize("command", ["compute-delta", "run"])
    def test_horizon_without_inflation_names_the_guard(self, capsys, tmp_path, command):
        # without process noise or input the reach hull never grows, and the
        # horizon search gives up at its cap instead of overflowing a_norm^d
        doc = json.loads(json.dumps(TRAIN_GATE_MODEL_DICT))
        doc["noise"]["w"] = [0.0, 0.0]
        doc["input_bound"] = 0.0
        code, out, err = run_cli(capsys, command, write_model(tmp_path, doc))
        assert (code, out) == (1, [])
        assert err == (
            "error: mode 1, guard at 45.0 on axis 0: no contact with neighbor value "
            "46.0 within 10000 steps\n"
        )

    def test_calibrate_theta(self, capsys):
        code, out, _ = run_cli(
            capsys, "calibrate-theta", "train-gate", "--runs", "2", "--duration", "30"
        )
        assert code == 0
        assert out[0] == "runs: 2"
        assert out[1].startswith("max_steady_estimation_error: 0.0")
        assert out[2] == "theta: 0.05"

    @pytest.mark.parametrize("runs", ["0", "-3"])
    def test_calibrate_theta_refuses_no_runs(self, capsys, runs):
        code, out, err = run_cli(capsys, "calibrate-theta", "train-gate", "--runs", runs)
        assert code == 1
        assert out == []
        assert err == f"error: --runs must be at least 1, got {runs}\n"

    @pytest.mark.parametrize("duration, samples", [("1", 10), ("1.5", 15)])
    def test_calibrate_theta_refuses_durations_that_never_settle(self, capsys, duration, samples):
        code, out, err = run_cli(
            capsys, "calibrate-theta", "train-gate", "--runs", "2", "--duration", duration
        )
        assert (code, out) == (1, [])
        assert err == (
            f"error: --duration {duration} s gives {samples} samples, but a sample settles "
            "only after the dwell time of 15 samples\n"
        )


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hybridmon", "compute-delta", "train-gate"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "state 1: delta = 8" in proc.stdout
