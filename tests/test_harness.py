"""Configuration grammar, scenario runner, sweeps, scans, and CLI tests."""

import subprocess
import sys

import numpy as np
import pytest

from starknls import (
    ScenarioConfig,
    SweepSpec,
    a_star_bisection,
    backend_difference,
    convergence_study,
    run_scenario,
    sweep,
    threshold_scan,
)
from starknls.cli import main as cli_main
from starknls.errors import BracketError, ConfigError
from starknls.storage import read_trajectory_csv

BASE = """
[scenario]
id = base
t_end = 0.3

[grid]
n = 1
N = 512
L = 20

[physics]
a = 0.1
E = 0

[initial]
recipe = gaussian
amplitude = 0.5
width = 1.0

[controller]
dt0 = 1e-3

[observers]
sample_every_steps = 5
"""



def with_initial(text, **keys):
    """Insert keys into the [initial] section right after the recipe line."""
    lines = []
    for line in text.splitlines():
        lines.append(line)
        if line.strip().startswith("recipe ="):
            for k, v in keys.items():
                lines.append(f"{k} = {v}")
    return "\n".join(lines) + "\n"

class TestConfigGrammar:
    def test_parses_and_validates(self):
        cfg = ScenarioConfig.from_text(BASE)
        assert cfg.scenario_id == "base"
        assert cfg.N == (512,)
        assert cfg.a == 0.1

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ConfigError, match="unknown key 'amplitud'"):
            ScenarioConfig.from_text(BASE.replace("amplitude", "amplitud"))

    def test_unknown_section_is_hard_error(self):
        with pytest.raises(ConfigError, match=r"unknown section \[extra\]"):
            ScenarioConfig.from_text(BASE + "\n[extra]\nfoo = 1\n")

    def test_error_carries_line_number(self):
        bad = BASE + "\n[output]\nbogus_key = 1\n"
        with pytest.raises(ConfigError, match=r":\d+: unknown key 'bogus_key'"):
            ScenarioConfig.from_text(bad)

    def test_missing_required(self):
        text = BASE.replace("t_end = 0.3", "")
        with pytest.raises(ConfigError, match="missing required"):
            ScenarioConfig.from_text(text)

    def test_bad_value_type(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            ScenarioConfig.from_text(BASE.replace("a = 0.1", "a = fast"))

    def test_unresolvable_recipe_rejected(self):
        text = BASE.replace("N = 512", "N = 64").replace(
            "recipe = gaussian", "recipe = scaled_q"
        )
        with pytest.raises(ConfigError, match="too coarse"):
            ScenarioConfig.from_text(text)

    def test_quadratic_phase_wavenumber_guard(self):
        text = with_initial(
            BASE.replace("recipe = gaussian", "recipe = quadratic_phase_q"),
            b=100,
        )
        with pytest.raises(ConfigError, match="Nyquist"):
            ScenarioConfig.from_text(text)

    @pytest.mark.parametrize(
        "line, value",
        [
            ("cfl", "nan"), ("cfl", "-1"), ("cfl", "0"), ("cfl", "inf"),
            ("grad_stop", "nan"), ("grad_stop", "-1"), ("grad_stop", "inf"),
            ("E", "nan"), ("E", "inf"),
        ],
    )
    def test_nonfinite_or_nonpositive_rejected(self, line, value):
        if line == "E":
            text = BASE.replace("E = 0", f"E = {value}")
        else:
            text = BASE.replace("dt0 = 1e-3", f"dt0 = 1e-3\n{line} = {value}")
        with pytest.raises(ConfigError, match=line):
            ScenarioConfig.from_text(text)

    def test_echo_round_trip(self):
        cfg = ScenarioConfig.from_text(BASE)
        again = ScenarioConfig.from_text(cfg.to_text())
        assert again == cfg

    def test_overrides(self):
        cfg = ScenarioConfig.from_text(BASE)
        new = cfg.apply_overrides(["physics.a=0.5", "grid.N=256"])
        assert new.a == 0.5 and new.N == (256,)
        with pytest.raises(ConfigError):
            cfg.apply_overrides(["physics.bogus=1"])


class TestRunScenario:
    def test_bundle_contents(self, tmp_path):
        cfg = ScenarioConfig.from_text(BASE)
        result = run_scenario(cfg, out_dir=tmp_path / "run")
        assert result.exit_code == 0
        for name in ("config_echo.cfg", "trajectory.csv", "summary.csv",
                     "law_checks.csv"):
            assert (result.out_dir / name).exists()
        cols = read_trajectory_csv(result.out_dir / "trajectory.csv")
        assert list(cols) == ["t", "mass_sq", "grad_norm_sq", "E0", "EV",
                              "Px", "variance", "dt", "spectral_fill"]
        assert cols["t"][0] == 0.0
        assert cols["dt"][0] == 0.0

    def test_rerun_from_echo_is_byte_identical(self, tmp_path):
        cfg = ScenarioConfig.from_text(BASE)
        first = run_scenario(cfg, out_dir=tmp_path / "a")
        echo = (first.out_dir / "config_echo.cfg").read_text()
        cfg2 = ScenarioConfig.from_text(echo)
        second = run_scenario(cfg2, out_dir=tmp_path / "b")
        for name in ("trajectory.csv", "law_checks.csv", "config_echo.cfg"):
            assert (first.out_dir / name).read_bytes() == (
                second.out_dir / name
            ).read_bytes()

    def test_exit_code_blowup(self, gs_1d):
        text = BASE.replace("recipe = gaussian", "recipe = quadratic_phase_q")
        text = text.replace("a = 0.1", "a = 0.01")
        text = text.replace("N = 512", "N = 8192").replace("L = 20", "L = 13")
        text = text.replace("t_end = 0.3", "t_end = 5.0")
        cfg = ScenarioConfig.from_text(with_initial(text, c=1.2))
        cfg = cfg.apply_overrides(["controller.grad_stop=100"])
        result = run_scenario(cfg, write=False)
        assert result.exit_code == 2
        assert result.blowup is not None and result.blowup.blew_up

    def test_ah_equivalence_summary(self, tmp_path):
        text = BASE.replace("id = base", "id = ah_equivalence")
        text = text.replace("E = 0", "E = 0.5")
        cfg = ScenarioConfig.from_text(text)
        result = run_scenario(cfg, out_dir=tmp_path / "ah")
        assert float(result.summary["backend_l2_difference"]) < 1e-6

    def test_snapshot_files_written_and_readable(self, tmp_path):
        from starknls import read_snapshot

        text = BASE + "\nsnapshot_every_steps = 100\n"
        text += "\n[output]\nwrite_snapshots = true\n"
        cfg = ScenarioConfig.from_text(text)
        result = run_scenario(cfg, out_dir=tmp_path / "snaps")
        files = sorted((result.out_dir / "snapshots").glob("*.dnls"))
        assert len(files) == len(result.traj.snapshots) > 1
        first = read_snapshot(files[0])
        assert np.array_equal(first.data, result.traj.snapshots[0].field.data)

    def test_snapshot_recipe_round_trip(self, tmp_path):
        cfg = ScenarioConfig.from_text(BASE)
        u0 = cfg.build_initial_field()
        from starknls import write_snapshot

        path = tmp_path / "init.dnls"
        write_snapshot(path, u0)
        text = with_initial(
            BASE.replace("recipe = gaussian", "recipe = snapshot"), path=path
        )
        cfg2 = ScenarioConfig.from_text(text)
        v0 = cfg2.build_initial_field()
        assert np.array_equal(u0.data, v0.data)


class TestThresholdScan:
    def test_classification(self):
        text = BASE.replace("recipe = gaussian", "recipe = scaled_q")
        text = text.replace("t_end = 0.3", "t_end = 3.0")
        text = text.replace("N = 512", "N = 4096").replace("L = 20", "L = 13")
        text = text.replace("a = 0.1", "a = 0.05")
        cfg = ScenarioConfig.from_text(text)
        cfg = cfg.apply_overrides(
            ["initial.b=1", "controller.grad_stop=60", "observers.sample_every_steps=10"]
        )
        rows = threshold_scan(cfg, [0.9, 1.0])
        outcomes = {row["c"]: row["outcome"] for row in rows}
        assert outcomes[0.9] == "global"
        assert outcomes[1.0] == "global"

    def test_blowup_leg_with_quadratic_phase(self):
        text = BASE.replace("recipe = gaussian", "recipe = quadratic_phase_q")
        text = text.replace("t_end = 0.3", "t_end = 5.0")
        text = text.replace("N = 512", "N = 8192").replace("L = 20", "L = 13")
        text = text.replace("a = 0.1", "a = 0.01")
        cfg = ScenarioConfig.from_text(text)
        cfg = cfg.apply_overrides(["controller.grad_stop=100"])
        rows = threshold_scan(cfg, [1.2])
        assert rows[0]["outcome"] == "blowup"
        assert rows[0]["T_star_est"] <= rows[0]["t_star_bound"] + 0.05


class TestMonotonicityMarking:
    def test_violation_flagged(self):
        from starknls.harness import mark_monotonicity_warnings

        rows = [
            {"c": 0.9, "outcome": "global", "notes": ""},
            {"c": 1.0, "outcome": "blowup", "notes": ""},
            {"c": 1.1, "outcome": "global", "notes": ""},
            {"c": 1.2, "outcome": "blowup", "notes": ""},
        ]
        mark_monotonicity_warnings(rows)
        assert "resolution warning" in rows[1]["notes"]
        assert rows[3]["notes"] == ""

    def test_clean_scan_untouched(self):
        from starknls.harness import mark_monotonicity_warnings

        rows = [
            {"c": 0.9, "outcome": "global", "notes": ""},
            {"c": 1.2, "outcome": "blowup", "notes": ""},
        ]
        mark_monotonicity_warnings(rows)
        assert all(r["notes"] == "" for r in rows)


class TestBisection:
    def _cfg(self):
        text = BASE.replace("recipe = gaussian", "recipe = quadratic_phase_q")
        text = text.replace("N = 512", "N = 4096").replace("L = 20", "L = 13")
        text = text.replace("t_end = 0.3", "t_end = 3.0")
        cfg = ScenarioConfig.from_text(with_initial(text, c=1.2, b=1))
        return cfg.apply_overrides(
            ["controller.grad_stop=60", "observers.sample_every_steps=20",
             "controller.dt0=2e-3"]
        )

    def test_returns_bracket(self):
        result = a_star_bisection(self._cfg(), 0.0, 2.0, t_cap=3.0, resolution=0.5)
        assert result.a_lo < result.a_hi
        assert result.monotone_pattern()
        blew = dict(result.tested)
        assert blew[0.0] is True      # undamped negative-energy data collapses
        assert blew[2.0] is False     # strong damping arrests the collapse

    def test_positive_energy_rejected(self):
        cfg = ScenarioConfig.from_text(BASE)  # small Gaussian, E0 > 0
        with pytest.raises(ConfigError, match="negative-energy"):
            a_star_bisection(cfg, 0.0, 2.0, t_cap=1.0)

    def test_bad_range_rejected(self):
        with pytest.raises(BracketError):
            a_star_bisection(self._cfg(), 1.0, 0.5, t_cap=1.0)


class TestConvergenceStudy:
    def test_orders(self):
        cfg = ScenarioConfig.from_text(BASE.replace("t_end = 0.3", "t_end = 0.25"))
        cfg = cfg.apply_overrides(["initial.amplitude=0.9", "initial.width=0.7"])
        rep = convergence_study(
            cfg, dt_values=(4e-3, 2e-3, 1e-3), N_values=(128, 256, 512)
        )
        for ratio in rep["dt_ratios"]:
            assert 3.5 <= ratio <= 4.5
        # spectral convergence: at least one pre-saturation 10x drop
        assert max(rep["N_drops"]) >= 10.0


class TestSweep:
    def test_deterministic_under_parallelism(self, tmp_path):
        cfg = ScenarioConfig.from_text(BASE)
        values = ("0.01", "0.1", "1.0")
        rows_serial = sweep(
            SweepSpec(parameter="a", values=values, parallelism=1),
            cfg, tmp_path / "serial",
        )
        rows_parallel = sweep(
            SweepSpec(parameter="a", values=values, parallelism=8),
            cfg, tmp_path / "parallel",
        )
        assert rows_serial == rows_parallel
        assert (tmp_path / "serial" / "sweep_summary.csv").read_bytes() == (
            tmp_path / "parallel" / "sweep_summary.csv"
        ).read_bytes()
        for sub in ("a_000", "a_001", "a_002"):
            assert (tmp_path / "serial" / sub / "trajectory.csv").read_bytes() == (
                tmp_path / "parallel" / sub / "trajectory.csv"
            ).read_bytes()

    def test_empty_values_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            SweepSpec(parameter="a", values=())

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigError, match="sweep parameter"):
            SweepSpec(parameter="q", values=("1",))

    def test_partial_failure_recorded(self, tmp_path):
        cfg = ScenarioConfig.from_text(BASE)
        rows = sweep(
            SweepSpec(parameter="N", values=("512", "17"), parallelism=2),
            cfg, tmp_path / "bad",
        )
        assert rows[0]["outcome"] == "global"
        assert rows[1]["outcome"] == "error"


class TestValidationGuards:
    def test_controller_invariants(self):
        from starknls import StepController

        with pytest.raises(ValueError):
            StepController(dt_min=0.0)
        with pytest.raises(ValueError):
            StepController(spectral_fill_max=1.5)
        with pytest.raises(ValueError):
            StepController(dt0=-1.0)

    def test_phys_params_invariants(self):
        from starknls import PhysParams

        with pytest.raises(ValueError):
            PhysParams(n=1, a=-0.1)
        with pytest.raises(ValueError):
            PhysParams(n=1, p=0.5)
        with pytest.raises(ValueError):
            PhysParams(n=2, E=(1.0, 2.0, 3.0))
        assert PhysParams(n=2).p == 3.0
        assert PhysParams(n=2).E == (0.0, 0.0)

    def test_hooks_invariants(self):
        from starknls import DiagnosticHooks

        with pytest.raises(ValueError):
            DiagnosticHooks(sample_every_steps=0)


class TestBackendDifference:
    def test_small_for_interior_data(self):
        text = BASE.replace("E = 0", "E = 0.5").replace("t_end = 0.3", "t_end = 0.5")
        cfg = ScenarioConfig.from_text(text)
        assert backend_difference(cfg) < 1e-6


class TestCLI:
    def test_ground_state_verb(self, tmp_path):
        rc = cli_main([
            "ground-state", "--dim", "1", "--points", "512",
            "--half-width", "20", "--out", str(tmp_path / "gs"),
        ])
        assert rc == 0
        assert (tmp_path / "gs" / "ground_state.dnls").exists()
        report = (tmp_path / "gs" / "ground_state_report.csv").read_text()
        assert "threshold" in report

    def test_run_verb_exit_codes(self, tmp_path):
        cfg_path = tmp_path / "cfg.cfg"
        cfg_path.write_text(BASE)
        rc = cli_main(["run", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 0

    def test_run_verb_reports_config_errors(self, tmp_path):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(BASE + "\n[grid]\n")  # duplicate section
        rc = cli_main(["run", str(cfg_path)])
        assert rc == 1

    def test_fit_blowup_verb(self, tmp_path, capsys):
        text = BASE.replace("recipe = gaussian", "recipe = quadratic_phase_q")
        text = text.replace("N = 512", "N = 8192").replace("L = 20", "L = 13")
        text = text.replace("t_end = 0.3", "t_end = 5.0")
        text = text.replace("a = 0.1", "a = 0.01")
        cfg_path = tmp_path / "blowup.cfg"
        cfg_path.write_text(with_initial(text, c=1.2))
        rc = cli_main([
            "run", str(cfg_path), "--out", str(tmp_path / "runout"),
            "--set", "controller.grad_stop=100",
        ])
        assert rc == 2
        capsys.readouterr()
        rc = cli_main(["fit-blowup", str(tmp_path / "runout")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "blew_up=True" in out

    def test_sweep_verb(self, tmp_path):
        cfg_path = tmp_path / "cfg.cfg"
        cfg_path.write_text(BASE)
        rc = cli_main([
            "sweep", str(cfg_path), "--param", "a", "--values", "0.05,0.2",
            "--parallel", "2", "--out", str(tmp_path / "sw"),
        ])
        assert rc == 0
        assert (tmp_path / "sw" / "sweep_summary.csv").exists()

    def test_output_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STARKNLS_OUTPUT_ROOT", str(tmp_path))
        cfg_path = tmp_path / "cfg.cfg"
        cfg_path.write_text(BASE + "\n[output]\ndir = enveloped\n")
        rc = cli_main(["run", str(cfg_path)])
        assert rc == 0
        assert (tmp_path / "enveloped" / "trajectory.csv").exists()

    def test_threshold_scan_verb(self, tmp_path, capsys):
        text = BASE.replace("recipe = gaussian", "recipe = scaled_q")
        text = text.replace("t_end = 0.3", "t_end = 0.5")
        cfg_path = tmp_path / "scan.cfg"
        cfg_path.write_text(text)
        rc = cli_main([
            "threshold-scan", str(cfg_path), "--c-values", "0.5,0.8",
            "--out", str(tmp_path / "scan.csv"),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "c=0.5: global" in out
        assert (tmp_path / "scan.csv").exists()

    def test_convergence_verb(self, tmp_path, capsys):
        cfg_path = tmp_path / "conv.cfg"
        cfg_path.write_text(BASE.replace("t_end = 0.3", "t_end = 0.1"))
        rc = cli_main([
            "convergence", str(cfg_path),
            "--dts", "4e-3,2e-3", "--Ns", "128,256",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "temporal" in out and "spatial" in out

    def test_bisect_verb(self, tmp_path, capsys):
        text = BASE.replace("recipe = gaussian", "recipe = quadratic_phase_q")
        text = text.replace("N = 512", "N = 4096").replace("L = 20", "L = 13")
        text = text.replace("t_end = 0.3", "t_end = 2.0")
        cfg_path = tmp_path / "bisect.cfg"
        cfg_path.write_text(with_initial(text, c=1.2, b=1))
        rc = cli_main([
            "bisect-a", str(cfg_path), "--a-lo", "0", "--a-hi", "2",
            "--t-cap", "2", "--resolution", "1.5",
            "--set", "controller.grad_stop=60",
            "--set", "observers.sample_every_steps=20",
            "--set", "controller.dt0=2e-3",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "bracket" in out and "monotone outcome pattern: True" in out

    def test_console_script_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "starknls.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "ground-state" in proc.stdout
