"""Configuration grammar, scenario runner, sweeps, scans, and CLI tests."""

import concurrent.futures.process
import csv
import dataclasses
import math
import os
import re
import subprocess
import sys
from concurrent.futures import Future

import numpy as np
import pytest

from starknls import (
    ScenarioConfig,
    SweepSpec,
    a_star_bisection,
    backend_difference,
    convergence_study,
    harness,
    run_scenario,
    sweep,
    threshold_scan,
)
from starknls.cli import load_bundle_record, main as cli_main
from starknls.config import RECIPES
from starknls.diagnostics import detect_blowup_and_fit
from starknls.errors import BracketError, ConfigError, StarkNLSError
from starknls.storage import read_trajectory_csv, trajectory_header

from conftest import child_env

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

# BASE on a 64 x 64 grid, with N and L written once for both axes
BASE_2D = BASE.replace("n = 1", "n = 2").replace("N = 512", "N = 64").replace(
    "L = 20", "L = 8"
)

BAD_CHOICES = [
    ("scenario", "backend", "gauge, direct"),
    ("initial", "recipe", ", ".join(RECIPES)),
]


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


_TEST_PID = os.getpid()


def _kill_worker(cfg, parameter, out_root, indexed):
    """A sweep member that kills the worker process it runs in (never the
    test process: there it fails instead)."""
    if os.getpid() != _TEST_PID:
        os._exit(1)
    raise AssertionError("sweep member ran in the test process")


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records the worker count asked
    for, starts no process and runs each submission inline."""

    requested = []

    def __init__(self, max_workers, mp_context=None):
        self.requested.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


class _PoolBrokenAtSecondSubmission(_RecordingPool):
    """A pool whose worker died while the members were being submitted."""

    submitted = False

    def submit(self, fn, *args):
        if self.submitted:
            raise concurrent.futures.process.BrokenProcessPool(
                "a worker died during submission"
            )
        self.submitted = True
        return super().submit(fn, *args)


def with_initial(text, **keys):
    """Insert keys into the [initial] section right after the recipe line."""
    lines = []
    for line in text.splitlines():
        lines.append(line)
        if line.strip().startswith("recipe ="):
            for k, v in keys.items():
                lines.append(f"{k} = {v}")
    return "\n".join(lines) + "\n"


def collapse_cfg(*overrides):
    """Negative-energy quadratic-phase data (c = 1.2, a = 0.1) that collapses
    to grad_stop = 60 undamped and is arrested at a = 2."""
    text = BASE.replace("recipe = gaussian", "recipe = quadratic_phase_q")
    text = text.replace("N = 512", "N = 4096").replace("L = 20", "L = 13")
    text = text.replace("t_end = 0.3", "t_end = 3.0")
    cfg = ScenarioConfig.from_text(with_initial(text, c=1.2, b=1))
    return cfg.apply_overrides(
        ["controller.grad_stop=60", "observers.sample_every_steps=20",
         "controller.dt0=2e-3", *overrides]
    )


# collapse_cfg's adaptive step falls below this dt_min at |grad u| of about 47,
# before grad_stop: the run ends dt_underflow, whose outcome is error
UNDERFLOWING_DT_MIN = "controller.dt_min=1e-4"


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

    def test_removed_seed_key_names_its_line(self):
        # [output] seed was never read (nothing in a run is random); a config
        # that still sets it fails like any unknown key
        bad = BASE + "\n[output]\nseed = 0\n"
        line = len(bad.splitlines())
        with pytest.raises(ConfigError, match=rf":{line}: unknown key 'seed'"):
            ScenarioConfig.from_text(bad)
        assert "seed" not in ScenarioConfig.from_text(BASE).to_text()

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
            ("E", "nan"), ("E", "inf"), ("t_end", "inf"), ("t_end", "nan"),
            ("p", "inf"), ("snapshot_every_steps", "-3"),
            ("width", "inf"), ("amplitude", "nan"), ("x0", "inf"),
            ("k0", "nan"), ("c", "inf"), ("b", "nan"), ("theta", "inf"),
            ("T", "nan"), ("T", "inf"),
            ("dt_min", "inf"), ("dt_min", "1"), ("dt_min", "1e-3"),
        ],
    )
    def test_nonfinite_or_nonpositive_rejected(self, line, value):
        set_in_base = {"width": "width = 1.0", "amplitude": "amplitude = 0.5"}
        if line in set_in_base:
            text = BASE.replace(set_in_base[line], f"{line} = {value}")
        elif line in ("x0", "k0", "c", "b", "theta", "T"):
            text = with_initial(BASE, **{line: value})
        elif line == "E":
            text = BASE.replace("E = 0", f"E = {value}")
        elif line == "t_end":
            text = BASE.replace("t_end = 0.3", f"t_end = {value}")
        else:
            anchor = {"p": "E = 0", "snapshot_every_steps": "sample_every_steps = 5"}
            after = anchor.get(line, "dt0 = 1e-3")
            text = BASE.replace(after, f"{after}\n{line} = {value}")
        with pytest.raises(ConfigError, match=rf"\b{line}\b"):
            ScenarioConfig.from_text(text)

    @pytest.mark.parametrize("value", ["1", "0.5", "-1", "nan", "inf"])
    def test_snapshot_grad_factor_must_exceed_one(self, value):
        text = BASE.replace(
            "sample_every_steps = 5",
            f"sample_every_steps = 5\nsnapshot_grad_factor = {value}",
        )
        with pytest.raises(ConfigError, match="snapshot_grad_factor"):
            ScenarioConfig.from_text(text)

    @pytest.mark.parametrize("key", ["x0", "k0"])
    def test_vector_of_wrong_length_rejected(self, key):
        # a 2-vector on a 1D grid would fail in np.broadcast_to at run time
        text = with_initial(BASE, **{key: "1,2"})
        with pytest.raises(ConfigError, match=rf"\[initial\] {key} has 2 comp"):
            ScenarioConfig.from_text(text)
        cfg = ScenarioConfig.from_text(with_initial(BASE, **{key: "1"}))
        assert cfg.recipe_params[key] == (1.0,)

    def test_one_component_per_axis_vectors_broadcast(self):
        cfg = ScenarioConfig.from_text(BASE_2D.replace("E = 0\n", ""))
        assert cfg.phys_params().E == (0.0, 0.0)
        assert cfg.grid().shape == (64, 64)
        assert cfg.grid().half_widths == (8.0, 8.0)
        # kept as written, so the echo repeats the one component
        assert (cfg.N, cfg.L, cfg.E) == ((64,), (8.0,), (0.0,))
        assert "\nN = 64\nL = 8\n" in cfg.to_text()

    @pytest.mark.parametrize("section, line, bad", [
        ("grid", "N = 64", "N = 64,64,64"),
        ("grid", "L = 8", "L = 8,8,8"),
        ("physics", "E = 0", "E = 1,2,3"),
    ])
    def test_per_axis_vector_of_wrong_length_names_key(self, section, line, bad):
        key = line.split()[0]
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key} has 3 comp"):
            ScenarioConfig.from_text(BASE_2D.replace(line, bad))

    @pytest.mark.parametrize("section, key, allowed", BAD_CHOICES)
    def test_bad_choice_names_key_and_allowed_values(self, section, key, allowed):
        kept = "\n".join(line for line in BASE.splitlines()
                         if not line.startswith(f"{key} ="))
        text = kept.replace(f"[{section}]", f"[{section}]\n{key} = bogus")
        with pytest.raises(ConfigError) as info:
            ScenarioConfig.from_text(text)
        assert f"[{section}] {key}" in str(info.value)
        assert allowed in str(info.value)

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
        # the echo holds one line per key
        with pytest.raises(ConfigError, match="several lines"):
            cfg.apply_overrides(["scenario.id=a\n[output]"])


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

    @pytest.mark.parametrize("text", [
        BASE,
        BASE.replace("n = 1", "n = 2").replace("N = 512", "N = 64,64")
        .replace("L = 20", "L = 8,8").replace("E = 0", "E = 0.3,-0.2"),
    ], ids=["1d", "2d_stark"])
    def test_trajectory_csv_round_trip_is_bit_exact(self, tmp_path, text):
        cfg = ScenarioConfig.from_text(text)
        result = run_scenario(cfg, out_dir=tmp_path / "run")
        cols = read_trajectory_csv(result.out_dir / "trajectory.csv")
        assert list(cols) == trajectory_header(cfg.n)
        assert sorted(result.traj.columns) == sorted(
            [*trajectory_header(cfg.n), "lp_sum", "stark_moment"]
        )
        assert len(cols["t"]) > 2
        for name, values in cols.items():
            assert values.tobytes() == result.traj.columns[name].tobytes(), name

    def test_law_checks_csv_quotes_cells_with_commas(self, tmp_path):
        cfg = ScenarioConfig.from_text(BASE.replace("E = 0", "E = 0.3"))
        result = run_scenario(cfg, out_dir=tmp_path / "run")
        table = read_csv_rows(result.out_dir / "law_checks.csv")
        assert table[0] == ["law", "max_rel_dev", "notes"]
        assert all(len(row) == 3 for row in table)
        notes = {row[0]: row[2] for row in table[1:]}
        assert notes["momentum_decay"].count(",") == 1  # residual q=1: ..., q=2: ...

    def test_zero_momentum_obeys_momentum_law(self):
        # a real Gaussian keeps P = 0 to round-off; the law check must not
        # divide that round-off by itself
        cfg = ScenarioConfig.from_text(BASE)
        result = run_scenario(cfg, write=False)
        assert np.max(np.abs(result.traj.columns["Px"])) < 1e-12
        reports = {r.law_id: r for r in harness.run_law_checks(result.traj, cfg)}
        assert reports["momentum_decay"].max_rel_dev < 1e-10

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

    def test_snapshot_recipe_missing_file(self, tmp_path):
        text = with_initial(
            BASE.replace("recipe = gaussian", "recipe = snapshot"),
            path=tmp_path / "absent.dnls",
        )
        cfg = ScenarioConfig.from_text(text)
        with pytest.raises(ConfigError, match="absent.dnls"):
            cfg.build_initial_field()


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

    def test_dt_underflow_member_reads_error_as_in_sweep(self, tmp_path):
        cfg = collapse_cfg(UNDERFLOWING_DT_MIN)
        rows = threshold_scan(cfg, [1.2])
        members = sweep(SweepSpec(parameter="c", values=("1.2",)), cfg, tmp_path)
        assert rows[0]["outcome"] == members[0]["outcome"] == "error"
        assert rows[0]["t_final"] == members[0]["t_final"] < 3.0
        assert members[0]["stop_reason"] == "dt_underflow"
        assert members[0]["exit_code"] == 1
        table = read_csv_rows(tmp_path / "sweep_summary.csv")
        assert table[1][table[0].index("outcome")] == "error"


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
    def test_returns_bracket(self):
        result = a_star_bisection(collapse_cfg(), 0.0, 2.0, t_cap=3.0, resolution=0.5)
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
            a_star_bisection(collapse_cfg(), 1.0, 0.5, t_cap=1.0)

    def test_error_outcome_raises_naming_its_trigger(self):
        # a step collapse is neither blow-up nor survival
        match = r"bisection at a=0 aborted: .*\(dt_underflow \(\S+ against 0\.0001\)\)"
        with pytest.raises(StarkNLSError, match=match) as info:
            a_star_bisection(collapse_cfg(UNDERFLOWING_DT_MIN), 0.0, 2.0, t_cap=3.0)
        assert not isinstance(info.value, BracketError)


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

    def test_early_stop_names_its_trigger(self):
        cfg = ScenarioConfig.from_text(BASE).apply_overrides(
            ["controller.grad_stop=0.1"]
        )
        match = r"stopped early \(grad_threshold \(0\.\d+ against 0\.1\)\)"
        with pytest.raises(StarkNLSError, match=match):
            convergence_study(cfg, dt_values=(2e-3, 1e-3), N_values=(128, 256))


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

    def test_workers_capped_by_values(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_RecordingPool, "requested", [])
        monkeypatch.setattr(
            concurrent.futures.process, "ProcessPoolExecutor", _RecordingPool
        )
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        rows = sweep(
            SweepSpec(parameter="a", values=("0.01", "0.1"), parallelism=10**6),
            ScenarioConfig.from_text(BASE), tmp_path / "capped",
        )
        assert _RecordingPool.requested == [2]
        assert [r["outcome"] for r in rows] == ["global", "global"]

    def test_dead_worker_becomes_error_rows(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "_sweep_member", _kill_worker)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        rows = sweep(
            SweepSpec(parameter="a", values=("0.01", "0.1"), parallelism=2),
            ScenarioConfig.from_text(BASE), tmp_path / "dead",
        )
        assert [r["index"] for r in rows] == [0, 1]
        for row in rows:
            assert row["outcome"] == "error" and row["exit_code"] == 1
            assert row["stop_reason"].startswith("exception: ")
            assert math.isnan(row["t_final"])
        summary = (tmp_path / "dead" / "sweep_summary.csv").read_text()
        assert len(summary.splitlines()) == 3

    def test_pool_broken_at_submission_becomes_error_rows(self, tmp_path,
                                                          monkeypatch):
        monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor",
                            _PoolBrokenAtSecondSubmission)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        rows = sweep(
            SweepSpec(parameter="a", values=("0.01", "0.1"), parallelism=2),
            ScenarioConfig.from_text(BASE), tmp_path / "broken",
        )
        assert [r["outcome"] for r in rows] == ["global", "error"]
        assert rows[1]["stop_reason"] == "exception: a worker died during submission"

    def test_summary_cells_with_commas_are_quoted(self, tmp_path):
        rows = sweep(SweepSpec(parameter="N", values=("512", "64,64")),
                     ScenarioConfig.from_text(BASE), tmp_path / "sw")
        assert [r["outcome"] for r in rows] == ["global", "error"]
        table = read_csv_rows(tmp_path / "sw" / "sweep_summary.csv")
        assert [len(row) for row in table] == [6, 6, 6]
        assert table[2][1] == "64,64"
        assert "[grid] N has 2 components" in table[2][3]

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
        # at or above dt0 the first step would end the run with DT_UNDERFLOW
        with pytest.raises(ValueError, match=r"\bdt_min=.*\bdt0="):
            StepController(dt0=1e-3, dt_min=1e-3)

    def test_phys_params_invariants(self):
        from starknls import PhysParams

        with pytest.raises(ValueError):
            PhysParams(n=1, a=-0.1)
        with pytest.raises(ValueError):
            PhysParams(n=1, p=0.5)
        with pytest.raises(ValueError, match=r"\bp\b"):
            PhysParams(n=1, p=np.inf)
        with pytest.raises(ValueError):
            PhysParams(n=2, E=(1.0, 2.0, 3.0))
        assert PhysParams(n=2).p == 3.0
        assert PhysParams(n=2).E == (0.0, 0.0)

    def test_hooks_invariants(self):
        from starknls import DiagnosticHooks

        with pytest.raises(ValueError):
            DiagnosticHooks(sample_every_steps=0)
        with pytest.raises(ValueError, match="snapshot_every_steps"):
            DiagnosticHooks(snapshot_every_steps=-3)


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

    def test_run_verb_prints_the_stop_trigger(self, tmp_path, capsys):
        text = BASE.replace("recipe = gaussian", "recipe = quadratic_phase_q")
        text = text.replace("N = 512", "N = 8192").replace("L = 20", "L = 13")
        text = text.replace("t_end = 0.3", "t_end = 5.0")
        text = text.replace("a = 0.1", "a = 0.01")
        cfg_path = tmp_path / "blowup.cfg"
        cfg_path.write_text(with_initial(text, c=1.2))
        rc = cli_main(["run", str(cfg_path), "--out", str(tmp_path / "out"),
                       "--set", "controller.grad_stop=100"])
        out = capsys.readouterr().out
        trigger = re.search(r"stop=grad_threshold \((\S+) against 100\) ", out)
        assert rc == 2 and trigger, out
        assert float(trigger.group(1)) > 100

    def test_run_verb_last_step_below_dt_min_reaches_t_end(self, tmp_path, capsys):
        # the step cut to end at t_end = 0.0105 is 5e-4 < dt_min = 6e-4, but
        # dt_min bounds only the adaptive step: the run is global
        text = BASE.replace("t_end = 0.3", "t_end = 0.0105")
        cfg_path = tmp_path / "cfg.cfg"
        cfg_path.write_text(text.replace("dt0 = 1e-3", "dt0 = 1e-3\ndt_min = 6e-4"))
        out = tmp_path / "out"
        assert cli_main(["run", str(cfg_path), "--out", str(out)]) == 0
        assert "stop=t_end (0.0105 against 0.0105) t_final=0.010500" in (
            capsys.readouterr().out
        )
        laws = {row[0]: float(row[1]) for row in read_csv_rows(out / "law_checks.csv")[1:]}
        assert laws["mass_decay"] < 1e-12

    def test_run_verb_reports_config_errors(self, tmp_path):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(BASE + "\n[grid]\n")  # duplicate section
        rc = cli_main(["run", str(cfg_path)])
        assert rc == 1

    def assert_clean_error(self, argv, name, capsys):
        """The verb fails with one 'error:' line naming the file."""
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ") and name in err
        return err

    @pytest.mark.parametrize("key", ["x0", "k0"])
    def test_run_verb_vector_of_wrong_length(self, tmp_path, capsys, key):
        cfg_path = tmp_path / "vector.cfg"
        cfg_path.write_text(with_initial(BASE, **{key: "1,2"}))
        self.assert_clean_error(["run", str(cfg_path)], key, capsys)

    @pytest.mark.parametrize("section, key, allowed", BAD_CHOICES)
    def test_run_verb_bad_choice_override(self, tmp_path, capsys, section, key,
                                          allowed):
        cfg_path = tmp_path / "cfg.cfg"
        cfg_path.write_text(BASE)
        argv = ["run", str(cfg_path), "--set", f"{section}.{key}=bogus"]
        err = self.assert_clean_error(argv, f"[{section}] {key}", capsys)
        assert allowed in err

    def test_run_verb_missing_config(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.cfg")
        self.assert_clean_error(["run", missing], missing, capsys)

    def test_run_verb_missing_snapshot(self, tmp_path, capsys):
        cfg_path = tmp_path / "snap.cfg"
        cfg_path.write_text(with_initial(
            BASE.replace("recipe = gaussian", "recipe = snapshot"),
            path=tmp_path / "absent.dnls",
        ))
        self.assert_clean_error(["run", str(cfg_path)], "absent.dnls", capsys)

    def test_fit_blowup_missing_path(self, tmp_path, capsys):
        missing = str(tmp_path / "nowhere" / "trajectory.csv")
        self.assert_clean_error(["fit-blowup", missing], missing, capsys)

    def test_fit_blowup_bundle_without_summary(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        run_scenario(ScenarioConfig.from_text(BASE), out_dir=out)
        (out / "summary.csv").unlink()
        self.assert_clean_error(["fit-blowup", str(out)], "summary.csv", capsys)

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("empty.csv", "", "no trajectory rows"),
            ("header_only.csv", "t,grad_norm_sq\n", "no trajectory rows"),
            ("text_cell.csv", "t,grad_norm_sq\n0.0,1.0\n0.1,abc\n", "abc"),
            ("ragged.csv", "t,grad_norm_sq\n0.0,1.0\n0.1\n", "number of columns"),
            ("no_grad.csv", "t,mass_sq\n0.0,1.0\n0.1,1.0\n", "no grad_norm_sq column"),
            ("no_t.csv", "time,grad_norm_sq\n0.0,1.0\n", "no t column"),
        ],
    )
    def test_fit_blowup_bad_trajectory(self, tmp_path, capsys, name, text, message):
        path = tmp_path / name
        path.write_text(text)
        err = self.assert_clean_error(
            ["fit-blowup", str(path), "--stop-reason", "grad_threshold"],
            str(path), capsys,
        )
        assert message in err

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("0.0,1\n0.1,2\ninf,3\n", "column t holds non-finite values"),
            ("0.0,1\nnan,2\n0.2,3\n", "column t holds non-finite values"),
            ("0.0,1\n0.1,inf\n0.2,3\n", "column grad_norm_sq holds non-finite values"),
            ("0.0,1\n0.1,nan\n0.2,3\n", "column grad_norm_sq holds non-finite values"),
            # sigma = T* - t_last needs the last sample to be the latest
            ("0.0,1\n0.2,2\n0.1,3\n", "column t decreases"),
        ],
        ids=["t-inf", "t-nan", "grad-inf", "grad-nan", "t-decreasing"],
    )
    def test_fit_blowup_unfittable_record(self, tmp_path, capsys, rows, message):
        path = tmp_path / "trajectory.csv"
        path.write_text("t,grad_norm_sq\n" + rows)
        self.assert_clean_error(
            ["fit-blowup", str(path), "--stop-reason", "grad_threshold"],
            message, capsys,
        )

    def test_fit_blowup_unknown_stop_reason(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        run_scenario(ScenarioConfig.from_text(BASE), out_dir=out)
        (out / "summary.csv").write_text("stop_reason,foo\n")
        err = self.assert_clean_error(["fit-blowup", str(out)], str(out), capsys)
        assert "unknown stop_reason 'foo'" in err

    def test_fit_blowup_verb(self, tmp_path, capsys):
        text = BASE.replace("recipe = gaussian", "recipe = quadratic_phase_q")
        text = text.replace("N = 512", "N = 8192").replace("L = 20", "L = 13")
        text = text.replace("t_end = 0.3", "t_end = 5.0")
        text = text.replace("a = 0.1", "a = 0.01")
        cfg_path = tmp_path / "blowup.cfg"
        cfg_path.write_text(with_initial(text, c=1.2))
        # sampled every step up to grad_stop 400, the collapse window holds
        # enough samples for the fit (test_fit_on_bundle_equals_live_fit)
        rc = cli_main([
            "run", str(cfg_path), "--out", str(tmp_path / "runout"),
            "--set", "controller.grad_stop=400",
            "--set", "observers.sample_every_steps=1",
        ])
        assert rc == 2
        capsys.readouterr()
        rc = cli_main(["fit-blowup", str(tmp_path / "runout")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "blew_up=True" in out
        printed = dict(item.split("=", 1) for item in out.split())
        for key in ("gamma", "loglog_residual", "power_residual",
                    "sqrt_rate_residual"):
            assert math.isfinite(float(printed[key])), key

    def test_check_laws_verb_runs_the_checks_once(self, tmp_path, capsys,
                                                  monkeypatch):
        calls = []
        run_law_checks = harness.run_law_checks

        def counted(*args, **kwargs):
            calls.append(args)
            return run_law_checks(*args, **kwargs)

        monkeypatch.setattr(harness, "run_law_checks", counted)
        cfg_path = tmp_path / "cfg.cfg"
        cfg_path.write_text(BASE)
        out = tmp_path / "out"
        assert cli_main(["check-laws", str(cfg_path), "--out", str(out)]) == 0
        assert len(calls) == 1
        # the printout is law_checks.csv, row for row
        printed = capsys.readouterr().out.splitlines()
        rows = (out / "law_checks.csv").read_text().splitlines()
        assert rows[0] == "law,max_rel_dev,notes"
        assert len(printed) == len(rows) - 1 >= 3
        for line, row in zip(printed, rows[1:]):
            law, dev, notes = row.split(",", 2)
            assert line == f"{law}: max_rel_dev={float(dev):.3e}  {notes}"

    def test_fit_on_bundle_equals_live_fit(self, tmp_path):
        text = BASE.replace("recipe = gaussian", "recipe = quadratic_phase_q")
        text = text.replace("N = 512", "N = 8192").replace("L = 20", "L = 13")
        text = text.replace("t_end = 0.3", "t_end = 5.0")
        text = text.replace("a = 0.1", "a = 0.01")
        cfg = ScenarioConfig.from_text(with_initial(text, c=1.2))
        cfg = cfg.apply_overrides(
            ["controller.grad_stop=400", "observers.sample_every_steps=1"]
        )
        result = run_scenario(cfg, out_dir=tmp_path / "runout")
        assert result.blowup is not None
        assert result.blowup.window_points >= 20  # a fit, not the bare fallback
        # what fit-blowup RUNDIR fits: the record read back from the bundle
        refit = detect_blowup_and_fit(load_bundle_record(result.out_dir))
        for field in dataclasses.fields(refit):
            got = getattr(refit, field.name)
            want = getattr(result.blowup, field.name)
            assert type(got) is type(want), field.name
            assert got == want, field.name

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
        header = (tmp_path / "scan.csv").read_text().splitlines()[0]
        assert header == "c,outcome,t_final,notes"

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

    def test_import_loads_no_scipy(self):
        # nor the process pool of a parallel sweep, which imports it lazily
        code = ("import sys, starknls, starknls.cli; "
                "print([m for m in sys.modules if m.split('.')[0] in "
                "('scipy', 'multiprocessing') or m == 'concurrent.futures.process'])")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_console_script_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "starknls.cli", "--help"],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0
        assert "ground-state" in proc.stdout
