"""Command-line front end: argument parsing, output format, exit codes."""

import json
import subprocess
import sys

import pytest

from hybridmon import model_to_dict
from hybridmon.cli import _parse_seed_range, main, parse_attack
from hybridmon.train_gate import train_gate_model


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

    def test_axis_without_noise_names_mode_and_axis(self, capsys, tmp_path):
        # validate_model accepts w = v = 0 on an axis; the Riccati solve
        # refuses it, where numpy alone would say only "Singular matrix"
        doc = model_to_dict(train_gate_model())
        doc["noise"] = {"w": [0.01, 0.0], "v": [0.1, 0.0]}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "run", str(path), "--duration", "1")
        assert code == 1
        assert err == (
            "error: mode 1: axis 1 has zero process and measurement noise variance "
            "(w = 0, v = 0), so P + R is singular\n"
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

    def test_empty_seed_range_errors(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "train-gate", "--seeds", "5..4")
        assert code == 1
        assert "empty seed range" in err


class TestStaticCommands:
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

    def test_calibrate_theta(self, capsys):
        code, out, _ = run_cli(
            capsys, "calibrate-theta", "train-gate", "--runs", "2", "--duration", "30"
        )
        assert code == 0
        assert out[0] == "runs: 2"
        assert out[1].startswith("max_steady_estimation_error: 0.0")
        assert out[2] == "theta: 0.05"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hybridmon", "compute-delta", "train-gate"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "state 1: delta = 8" in proc.stdout
