"""End-to-end command-line behavior, run in process via main()."""

import dataclasses
import json
import math
import re
import warnings
import xml.etree.ElementTree as ET

import pytest

from dimer_hysteresis import (ConfigError, DomainError, EtaSchedule,
                              IntegratorConfig, ModelParams, PhaseState,
                              R_THRESHOLD, integrate, trace_branches,
                              trajectory_from_csv, wrap_angle)
from dimer_hysteresis import cli, config, dynamics
from dimer_hysteresis.cli import main
from dimer_hysteresis.config import ENV_VAR
from dimer_hysteresis.serialize import TRAJECTORY_HEADER, trajectory_to_csv
from kernel_oracles import diagram_json_by_dumps


@pytest.fixture(autouse=True)
def isolated_env(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)


BIFURCATE = ["--r", "5", "--eta-min", "3", "--eta-max", "8", "--steps", "5"]
SIMULATE = ["--r", "1", "--schedule", "constant", "--eta-start=-1", "--T", "1"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_csv_round_trip(self, capsys, tmp_path):
        out = tmp_path / "traj.csv"
        code, _, err = run_cli(
            capsys, "simulate", "--r", "1", "--schedule", "constant",
            "--eta-start", "-1", "--T", "10", "--out", str(out))
        assert code == 0, err
        text = out.read_text()
        assert text.splitlines()[0] == TRAJECTORY_HEADER
        traj = trajectory_from_csv(
            text, ModelParams(r=1.0, nu=0.0),
            EtaSchedule(kind="constant", eta_start=-1.0, T=10.0))
        assert trajectory_to_csv(traj) == text
        assert traj.samples[-1].tau == 10.0

    def test_csv_round_trip_of_a_winding_phase(self):
        # a self-trapped orbit: theta runs through many turns, so the
        # written phase is wrapped while the in-memory one is not
        params = ModelParams(r=1.0)
        schedule = EtaSchedule(kind="constant", eta_start=-6.0, T=20.0)
        traj = integrate(PhaseState(z=0.6, theta=0.0), params, schedule,
                         IntegratorConfig(sample_stride=4), (0.0, 20.0))
        assert traj.theta.max() > 10 * math.pi
        text = trajectory_to_csv(traj)
        back = trajectory_from_csv(text, params, schedule)
        assert trajectory_to_csv(back) == text
        assert back.theta.tolist() == [
            float("%.15g" % wrap_angle(t)) for t in traj.theta.tolist()]
        assert -math.pi < back.theta.min() and back.theta.max() <= math.pi

    def test_a_span_too_long_to_count_is_an_error_line(self, capsys):
        # 1000 T overflows the step budget: an OverflowError traceback
        code, out, err = run_cli(
            capsys, "simulate", "--r", "1", "--schedule", "constant",
            "--eta-start=-1", "--T", "1e306")
        assert code == 1 and out == ""
        assert err == ("error: tau_span (0.0, 1e+306) is too long to count "
                       "its samples and steps\n")

    def test_a_span_with_too_many_samples_is_an_error_line(
            self, capsys, monkeypatch):
        # a finite budget that once ran for hours with no output
        def no_kernels(*args):
            raise AssertionError("kernels built for a refused span")

        monkeypatch.setattr(dynamics, "_kernels", no_kernels)
        code, out, err = run_cli(
            capsys, "simulate", "--r", "1", "--schedule", "constant",
            "--eta-start=-1", "--T", "1e12")
        assert code == 1 and out == ""
        assert err == ("error: tau_span (0.0, 1000000000000.0) at "
                       "sample_stride 1 asks for 999999999000 samples past "
                       "the first, more than 10000000\n")

    @pytest.mark.parametrize("ramp", [
        ["--eta-start=-1", "--eta-peak=-3", "--T", "5e-324"],
        ["--eta-start=-1", "--eta-peak=-3", "--T", "1e-310"],
        ["--eta-start=-1e308", "--eta-peak=1e308", "--T", "10"],
    ], ids=["half-underflows", "rate-overflows", "difference-overflows"])
    def test_a_ramp_without_a_finite_rate_is_an_error_line(self, capsys,
                                                           ramp):
        # once a ZeroDivisionError traceback, or a run at rate +-inf
        # that failed with "step size underflowed"
        code, out, err = run_cli(capsys, "simulate", "--r", "1",
                                 "--schedule", "triangular", *ramp)
        assert code == 1 and out == ""
        assert err.startswith("error: triangular ramp rate (eta_peak - "
                              "eta_start) / (T / 2) must be finite, got ")
        assert err.count("\n") == 1

    def test_a_damped_arrival_at_the_pole_is_an_error_line(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--r", "1", "--nu", "0.5", "--schedule",
            "constant", "--eta-start=-1", "--T", "5", "--z0", "0.9",
            "--theta0", "1.5")
        assert code == 1 and out == ""
        assert err.startswith("error: reached the pole |z|=1 at tau=0.10")
        assert err.count("\n") == 1

    def test_csv_rows_must_have_six_columns(self):
        # a long row next to a short one must not pass as two full rows
        text = "\n".join([TRAJECTORY_HEADER, "0,1,0,0,1,1,9", "1,1,0,0,1"])
        with pytest.raises(DomainError, match="expected 6 columns"):
            trajectory_from_csv(text, ModelParams(r=1.0),
                                EtaSchedule(kind="constant", T=1.0))

    @pytest.mark.parametrize("rows", [
        ["0,1,0,0,1,1,9", "1,1,0,0,1,1,9"],  # every row one too long
        ["0,1,0,0,1"],
        ["0,1,0,0,1,1", "", "1,1,0,0,1,1"],  # a blank line is a row of one field
    ], ids=["seven-wide", "one-short-row", "blank-line"])
    def test_csv_of_another_width_is_refused(self, rows):
        text = "\n".join([TRAJECTORY_HEADER, *rows])
        with pytest.raises(DomainError, match="expected 6 columns"):
            trajectory_from_csv(text, ModelParams(r=1.0),
                                EtaSchedule(kind="constant", T=1.0))

    def test_csv_with_one_row(self):
        text = TRAJECTORY_HEADER + "\n0,-1,0.5,0.25,1.5,-0.75\n"
        traj = trajectory_from_csv(
            text, ModelParams(r=1.0),
            EtaSchedule(kind="constant", eta_start=-1.0, T=1.0))
        assert traj.samples == ((0.0, 0.5, 0.25, -1.0, 1.5, -0.75),)
        assert trajectory_to_csv(traj) == text

    def test_stdout_when_no_out_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--r", "1", "--schedule", "constant",
            "--eta-start", "-1", "--T", "5")
        assert code == 0
        assert out.splitlines()[0] == TRAJECTORY_HEADER
        assert len(out.splitlines()) == 7

    def test_decay_below_the_square_underflow_exits_0(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--r", "1", "--nu", "0.5", "--schedule",
            "constant", "--eta-start=-1", "--T", "2000")
        assert code == 0, err
        assert out.splitlines()[-1].startswith("2000,")

    def test_zero_seed_stays_symmetric(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--r", "5", "--z0", "0", "--schedule",
            "constant", "--eta-start", "-8", "--T", "5")
        assert code == 0
        for line in out.splitlines()[1:]:
            assert line.split(",")[2] == "0"

    def test_plot_is_valid_svg(self, capsys, tmp_path):
        plot = tmp_path / "traj.svg"
        code, _, _ = run_cli(
            capsys, "simulate", "--r", "1", "--schedule", "constant",
            "--eta-start", "-3", "--z0", "0.3", "--T", "20",
            "--out", str(tmp_path / "t.csv"), "--plot", str(plot))
        assert code == 0
        root = ET.fromstring(plot.read_text())
        assert root.tag.endswith("svg")
        assert len(plot.read_text()) > 500

    def test_invalid_seed_is_a_numerical_error(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--r", "1", "--z0", "1.5",
            "--schedule", "constant", "--T", "5")
        assert code == 1
        assert "error:" in err

    def test_failed_allocation_exits_one(self, capsys, monkeypatch):
        # a stride of 10^12 over one unit of tau asks numpy for 7.28 TiB
        # of samples; the callees raise in its place, with numpy's message
        # and bare
        def numpy_refuses(*args):
            raise MemoryError("Unable to allocate 7.28 TiB")

        def bare(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "integrate", numpy_refuses)
        code, _, err = run_cli(
            capsys, "simulate", "--r", "1", "--schedule", "constant",
            "--T", "1", "--sample-stride", "1000000000000")
        assert (code, err) == (1, "error: Unable to allocate 7.28 TiB\n")
        monkeypatch.setattr(cli, "trace_branches", bare)
        code, _, err = run_cli(capsys, "bifurcate", "--r", "5",
                               "--eta-min", "1", "--eta-max", "8")
        assert (code, err) == (1, "error: MemoryError\n")

    def test_triangular_needs_peak(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--r", "1", "--T", "5")
        assert code == 2
        assert "eta-peak" in err

    def test_missing_power_is_a_config_error(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--T", "5")
        assert code == 2
        assert "r" in err

    def test_malformed_float_exits_two(self, capsys):
        # a malformed value, and the removed stepper and flow flags
        for extra in (["--r", "abc"], ["--r", "1", "--method", "rk4_fixed"],
                      ["--r", "1", "--rhs-mode", "as_printed"]):
            with pytest.raises(SystemExit) as exc:
                main(["simulate", *extra])
            assert exc.value.code == 2, extra

    @pytest.mark.parametrize("text", ["-5e-05", "-1e-300", "-.5e-3", "-2E+1",
                                      "-1.", "-0.25"])
    def test_negative_values_follow_their_flag(self, text):
        # argparse alone takes "-5e-05" for an option and exits 2
        parser = cli.build_parser()
        for argv in (["--theta0", text], [f"--theta0={text}"]):
            args = parser.parse_args(["simulate", "--r", "1", *argv])
            assert args.theta0 == float(text)
        args = parser.parse_args(["bifurcate", "--eta-min", text,
                                  "--eta-max=-1e-3"])
        assert (args.eta_min, args.eta_max) == (float(text), -1e-3)

    def test_negative_exponent_start_runs(self, capsys, tmp_path):
        out = tmp_path / "traj.csv"
        code, _, err = run_cli(capsys, "simulate", "--r", "1", "--T", "1",
                               "--schedule", "constant", "--theta0", "-5e-05",
                               "--z0", "-1e-300", "--out", str(out))
        assert code == 0, err
        row = out.read_text().splitlines()[1].split(",")
        assert (float(row[2]), float(row[3])) == (-1e-300, -5e-05)

    def test_option_like_values_still_exit_two(self):
        for value in ("-x", "--T", "-5e"):
            with pytest.raises(SystemExit) as exc:
                main(["simulate", "--r", "1", "--theta0", value])
            assert exc.value.code == 2, value


class TestBifurcate:
    def test_csv_and_sidecar(self, capsys, tmp_path):
        out = tmp_path / "branches.csv"
        code, _, err = run_cli(
            capsys, "bifurcate", "--r", "1", "--eta-min", "0.5",
            "--eta-max", "4", "--steps", "50", "--out", str(out))
        assert code == 0, err
        lines = out.read_text().splitlines()
        assert lines[0] == "branch_id,kind,theta_star,eta,z_star,stability"
        assert len(lines) > 50
        sidecar = tmp_path / "branches.json"
        doc = json.loads(sidecar.read_text())
        assert doc["eta_star"] == 2.0
        assert doc["eta_plus"] is None
        assert doc["classification"] == "supercritical"
        assert len(doc["branches"]) == 3
        assert doc["effective_config"]["steps"] == 50
        point = doc["branches"][0]["points"][0]
        assert set(point) == {"eta", "z_star", "stability", "eigenvalues"}

    def test_sidecar_bytes_match_the_json_dumps_writer(self, capsys,
                                                       tmp_path):
        out = tmp_path / "b.csv"
        code, _, err = run_cli(
            capsys, "bifurcate", "--r", "5", "--eta-min", "3",
            "--eta-max", "8", "--steps", "120", "--out", str(out))
        assert code == 0, err
        text = (tmp_path / "b.json").read_text(encoding="utf-8")
        effective = json.loads(text)["effective_config"]
        assert effective["out"] == str(out)
        diagram = trace_branches(5.0, (3.0, 8.0), 120)
        assert text == diagram_json_by_dumps(diagram, effective)

    def test_couplings_next_to_the_float_range(self, capsys, tmp_path):
        # the eigenvalue discriminant 8 H_zz overflows here although
        # every Jacobian entry is finite
        out = tmp_path / "b.csv"
        code, _, err = run_cli(
            capsys, "bifurcate", "--r", "1", "--eta-min", "1e308",
            "--eta-max", "1.5e308", "--steps", "2", "--out", str(out))
        assert code == 0, err
        doc = json.loads((tmp_path / "b.json").read_text(encoding="utf-8"))
        (branch,) = doc["branches"]
        for point in branch["points"]:
            # z = 0, r = 1: H_zz = |eta| - 2, eigenvalues +-sqrt(2 H_zz)
            root = math.sqrt(2.0) * math.sqrt(-point["eta"] - 2.0)
            assert point["stability"] == "unstable"
            (re1, im1), (re2, im2) = point["eigenvalues"]
            assert (im1, im2) == (0.0, 0.0)
            assert re1 == pytest.approx(root, rel=1e-15)
            assert re2 == pytest.approx(-root, rel=1e-15)

    def test_couplings_up_to_1e300_at_the_largest_power_warn_nothing(
            self, capsys, tmp_path):
        # m * m overflows above about 1.3e154, in rows below the fold
        out = tmp_path / "b.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(
                capsys, "bifurcate", "--r", "1013", "--eta-min", "1",
                "--eta-max", "1e300", "--steps", "4", "--out", str(out))
        assert (code, err) == (0, "")
        assert "asymmetric" in out.read_text()

    def test_stdout_without_out_flag(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "bifurcate", "--r", "2", "--eta-min", "0.1",
            "--eta-max", "1", "--steps", "20")
        assert code == 0
        assert out.startswith("branch_id,")
        assert not list(tmp_path.iterdir())

    def test_plot_is_valid_svg(self, capsys, tmp_path):
        plot = tmp_path / "diagram.svg"
        code, _, _ = run_cli(
            capsys, "bifurcate", "--r", "5", "--eta-min", "3",
            "--eta-max", "8", "--steps", "60",
            "--out", str(tmp_path / "b.csv"), "--plot", str(plot))
        assert code == 0
        root = ET.fromstring(plot.read_text())
        assert root.tag.endswith("svg")

    def test_missing_range_is_a_config_error(self, capsys):
        code, _, err = run_cli(capsys, "bifurcate", "--r", "1")
        assert code == 2
        assert "eta-m" in err


class TestOutputPaths:
    """Outputs that would overwrite one another are refused before any
    work, with exit 2 and no file written; an output that cannot be
    written exits 2 as well."""

    @pytest.mark.parametrize("argv, names", [
        (["bifurcate", *BIFURCATE, "--out", "d.json"],
         "out and the JSON sidecar of out"),
        (["bifurcate", *BIFURCATE, "--out", "d.csv", "--plot", "d.json"],
         "plot and the JSON sidecar of out"),
        (["bifurcate", *BIFURCATE, "--out", "d.csv", "--plot", "./d.csv"],
         "out and plot"),
        (["simulate", "--r", "1", "--T", "1", "--out", "a.csv",
          "--plot", "a.csv"], "out and plot"),
        (["sweep", "--hysteresis", "--r", "1", "--schedule", "triangular",
          "--eta-start=-1", "--eta-peak=-3", "--T", "10",
          "--out", "a.json", "--plot", "sub/../a.json"], "out and plot"),
    ])
    def test_coinciding_outputs_exit_2(self, capsys, tmp_path, monkeypatch,
                                       argv, names):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith(f"error: {names} both name {tmp_path}")
        assert out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["sub"]

    def test_distinct_outputs_are_all_written(self, capsys, tmp_path,
                                              monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(capsys, "bifurcate", *BIFURCATE,
                               "--out", "d.csv", "--plot", "d.svg")
        assert code == 0, err
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["d.csv", "d.json", "d.svg"]

    @pytest.mark.parametrize("argv, bad", [
        (["bifurcate", *BIFURCATE, "--out", "missing/d.csv"],
         "missing/d.csv"),
        (["simulate", *SIMULATE, "--out", "sub"], "sub"),
        (["simulate", *SIMULATE, "--out", "a.csv", "--plot", "missing/a.svg"],
         "missing/a.svg"),
        (["sweep", "--hysteresis", "--r", "1", "--schedule", "triangular",
          "--eta-start=-1", "--eta-peak=-3", "--T", "100", "--grid", "16",
          "--out", "a.json", "--plot", "sub"], "sub"),
        (["bifurcate", *BIFURCATE, "--out", "sub.csv"], "sub.json"),
    ])
    def test_unwritable_output_exits_2_naming_it(self, capsys, tmp_path,
                                                 monkeypatch, argv, bad):
        # a missing directory, or a directory where the file goes: one
        # error line, no traceback
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub.json").mkdir()
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"'{bad}'" in err


class TestCritical:
    def test_json_lines_per_power(self, capsys):
        code, out, _ = run_cli(capsys, "critical", "--r", "1", "--r", "4")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        first, second = (json.loads(line) for line in lines)
        assert first["r"] == 1.0
        assert first["eta_star"] == 2.0
        assert first["eta_plus"] is None
        assert first["classification"] == "supercritical"
        assert second["eta_star"] == 4.0
        assert second["eta_plus"] == pytest.approx(3.674, abs=0.01)
        assert second["classification"] == "subcritical"
        assert first["effective_config"] == {"r": [1.0, 4.0]}

    def test_large_power_answers(self, capsys):
        code, out, err = run_cli(capsys, "critical", "--r", "300")
        assert code == 0, err
        doc = json.loads(out)
        assert doc["eta_plus"] == pytest.approx(40.3009, abs=1e-4)
        assert doc["classification"] == "subcritical"

    def test_requires_a_power(self, capsys):
        code, _, err = run_cli(capsys, "critical")
        assert code == 2
        assert "--r" in err


class TestSweep:
    def test_threshold_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--r-min", "3", "--r-max", "4",
            "--tol", "1e-4")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["r_threshold"] - R_THRESHOLD) < 1e-4
        assert doc["effective_config"]["tol"] == 1e-4

    def test_threshold_mode_rejects_infinite_tol(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--r-min", "3", "--r-max", "4", "--tol", "inf")
        assert code == 1
        assert out == ""
        assert "tol must be finite" in err

    def test_hysteresis_mode_null_case(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--hysteresis", "--r", "1", "--nu", "0.5",
            "--eta-peak", "-3")
        assert code == 0
        doc = json.loads(out)
        assert doc["detected"] is False
        assert doc["reference"]["eta_star"] == 2.0
        assert doc["reference"]["eta_plus"] is None
        assert len(doc["forward_trace"]) == 128

    def test_hysteresis_mode_detected_case(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        plot = tmp_path / "sweep.svg"
        code, _, err = run_cli(
            capsys, "sweep", "--hysteresis", "--r", "5", "--nu", "0.5",
            "--eta-start", "-3", "--eta-peak", "-8",
            "--out", str(out_path), "--plot", str(plot))
        assert code == 0, err
        doc = json.loads(out_path.read_text())
        assert doc["detected"] is True
        assert doc["window"] is not None
        lo, hi = doc["window"]
        assert lo < 6.4 < hi or lo < 4.41 < hi or (4.41 < lo and hi < 6.4) \
            or (lo < 4.41 and 6.4 < hi)
        root = ET.fromstring(plot.read_text())
        assert root.tag.endswith("svg")

    def test_threshold_mode_writes_to_out(self, capsys, tmp_path):
        out_path = tmp_path / "threshold.json"
        code, out, err = run_cli(
            capsys, "sweep", "--r-min", "3", "--r-max", "4",
            "--out", str(out_path))
        assert code == 0, err
        assert out == ""
        doc = json.loads(out_path.read_text())
        assert abs(doc["r_threshold"] - R_THRESHOLD) < 1e-4

    def test_needs_a_mode(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--r", "1")
        assert code == 2
        assert "hysteresis" in err


class TestConfigFile:
    def write_cfg(self, tmp_path, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        return cfg

    def test_file_supplies_defaults(self, capsys, tmp_path, monkeypatch):
        cfg = self.write_cfg(
            tmp_path,
            "# base run\nr = 1.0\nschedule = constant\n"
            "eta_start = -1.0\nT = 5.0\n")
        monkeypatch.setenv(ENV_VAR, str(cfg))
        code, out, _ = run_cli(capsys, "simulate")
        assert code == 0
        last = out.splitlines()[-1]
        assert float(last.split(",")[0]) == 5.0

    def test_cli_overrides_file(self, capsys, tmp_path, monkeypatch):
        cfg = self.write_cfg(
            tmp_path,
            "r = 1.0\nschedule = constant\neta-start = -1.0\nT = 5.0\n")
        monkeypatch.setenv(ENV_VAR, str(cfg))
        code, out, _ = run_cli(capsys, "simulate", "--T", "10")
        assert code == 0
        last = out.splitlines()[-1]
        assert float(last.split(",")[0]) == 10.0

    def test_underscore_and_dash_keys_equivalent(self, capsys, tmp_path,
                                                 monkeypatch):
        cfg = self.write_cfg(tmp_path, "r_min = 3.0\nr_max = 4.0\n")
        monkeypatch.setenv(ENV_VAR, str(cfg))
        code, out, _ = run_cli(capsys, "sweep")
        assert code == 0
        assert abs(json.loads(out)["r_threshold"] - R_THRESHOLD) < 1e-4

    def test_unknown_key_names_the_line(self, capsys, tmp_path, monkeypatch):
        # bogus keys, and the keys of the removed stepper and flow settings
        for line, key in (("bogus = 3", "bogus"),
                          ("method = rk45_adaptive", "method"),
                          ("rhs_mode = hamiltonian", "rhs-mode")):
            cfg = self.write_cfg(tmp_path, f"r = 1.0\n{line}\n")
            monkeypatch.setenv(ENV_VAR, str(cfg))
            code, _, err = run_cli(capsys, "critical")
            assert code == 2
            assert f"'{key}'" in err
            assert f"{cfg.name}:2:" in err

    def test_duplicate_key_rejected(self, capsys, tmp_path, monkeypatch):
        cfg = self.write_cfg(tmp_path, "r = 1.0\nr = 2.0\n")
        monkeypatch.setenv(ENV_VAR, str(cfg))
        code, _, err = run_cli(capsys, "critical")
        assert code == 2
        assert "duplicate" in err

    def test_bad_value_rejected(self, capsys, tmp_path, monkeypatch):
        cfg = self.write_cfg(tmp_path, "r = abc\n")
        monkeypatch.setenv(ENV_VAR, str(cfg))
        code, _, err = run_cli(capsys, "critical")
        assert code == 2

    def test_line_without_equals_is_refused(self):
        with pytest.raises(ConfigError, match=re.escape(
                "run.cfg:2: expected key=value, got 'r 2.0'")):
            config.parse_config_text("# a run\nr 2.0  # no =\n", "run.cfg")

    @pytest.mark.parametrize("text", ("off", "false", "No", "0"))
    def test_false_booleans_read_as_false(self, text):
        assert config.parse_config_text(f"hysteresis = {text}\n") == {
            "hysteresis": False}

    def test_critical_takes_r_from_the_file(self, capsys, tmp_path,
                                            monkeypatch):
        cfg = self.write_cfg(tmp_path, "r = 4\n")
        monkeypatch.setenv(ENV_VAR, str(cfg))
        code, out, err = run_cli(capsys, "critical")
        assert code == 0, err
        doc = json.loads(out)
        assert (doc["r"], doc["eta_star"], doc["classification"]) == (
            4.0, 4.0, "subcritical")
        assert doc["effective_config"] == {"r": [4.0]}

    def test_missing_file_rejected(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_VAR, str(tmp_path / "absent.cfg"))
        code, _, err = run_cli(capsys, "critical", "--r", "1")
        assert code == 2


def test_every_integrator_setting_is_a_cli_setting():
    # a stepper setting that only tests can set is a constant
    for field in dataclasses.fields(IntegratorConfig):
        assert field.name.replace("_", "-") in config.SETTINGS


SUBCOMMAND_KEYS = {"simulate": cli._SIM_KEYS, "bifurcate": cli._BIF_KEYS,
                   "sweep": cli._SWEEP_KEYS}


def sample_texts(key):
    """A well-formed and a malformed file value of a setting; the
    malformed one is None for free text, which takes any value."""
    setting = config.SETTINGS[key]
    if setting.choices:
        return setting.choices[-1], "bogus"
    return {float: ("2.5", "abc"), int: ("7", "2.5"),
            str: ("x.out", None)}.get(setting.cast, ("yes", "maybe"))


def flag_argv(key):
    good, _ = sample_texts(key)
    if config.SETTINGS[key].flag().get("action") == "store_true":
        return [f"--{key}"]
    return [f"--{key}", good]


@pytest.mark.parametrize("key", list(config.SETTINGS))
class TestSettingsTable:
    """Every row of config.SETTINGS works as a flag and as a file key."""

    def test_parses_from_a_file_in_both_spellings(self, key):
        good, _ = sample_texts(key)
        want = {key: config.SETTINGS[key].cast(good)}
        for spelling in (key, key.replace("-", "_")):
            assert config.parse_config_text(f"{spelling} = {good}\n") == want

    def test_is_a_flag_of_each_subcommand_that_lists_it(self, key):
        good, _ = sample_texts(key)
        want = config.SETTINGS[key].cast(good)
        parser = cli.build_parser()
        takers = [cmd for cmd, keys in SUBCOMMAND_KEYS.items() if key in keys]
        assert takers
        for cmd in SUBCOMMAND_KEYS:
            if cmd in takers:
                args = parser.parse_args([cmd, *flag_argv(key)])
                assert getattr(args, key.replace("-", "_")) == want
            else:
                with pytest.raises(SystemExit):
                    parser.parse_args([cmd, *flag_argv(key)])

    def test_flag_over_file_over_default(self, key):
        good, _ = sample_texts(key)
        want = config.SETTINGS[key].cast(good)
        from_file = object()
        for cmd, keys in SUBCOMMAND_KEYS.items():
            if key not in keys:
                continue
            parser = cli.build_parser()
            unset = parser.parse_args([cmd])
            flagged = parser.parse_args([cmd, *flag_argv(key)])
            resolved = config.resolve({}, unset, keys)
            assert list(resolved) == list(keys)
            assert resolved[key] == config.SETTINGS[key].default
            assert config.resolve({key: from_file}, unset, (key,)) == {
                key: from_file}
            assert config.resolve({key: from_file}, flagged, (key,)) == {
                key: want}

    def test_malformed_file_value_exits_two_naming_the_line(
            self, key, capsys, tmp_path, monkeypatch):
        _, bad = sample_texts(key)
        if bad is None:
            assert key in ("out", "plot")
            return
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# one bad line\n{key.replace('-', '_')} = {bad}\n")
        monkeypatch.setenv(ENV_VAR, str(cfg))
        cmd = next(c for c, keys in SUBCOMMAND_KEYS.items() if key in keys)
        code, _, err = run_cli(capsys, cmd)
        assert code == 2
        assert f"{cfg.name}:2: bad value for '{key}'" in err
