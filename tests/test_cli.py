"""End-to-end command line checks via subprocess (exit codes, files, determinism)."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import tracemalloc

import pytest

import twolevel
from twolevel import ModelParams, SingularSystem, cli, fluid, oracle, sim

# Directory holding the imported `twolevel` package; the child process gets it
# as an absolute PYTHONPATH entry, so it runs the same code from any cwd.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(twolevel.__file__)))


def run_cli(*args, cwd=None, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "twolevel.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=300,
    )


def kv_lines(stdout):
    out = {}
    for line in stdout.strip().split("\n"):
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


class TestParamsCommand:
    def test_default_instance_is_critical(self):
        proc = run_cli("params")
        assert proc.returncode == 0
        got = kv_lines(proc.stdout)
        assert got["n"] == "100" and got["c2"] == "50"
        assert got["capacity_ratio r"] == "0.5"
        assert got["critical_ratio r_c"] == "0.5"
        assert got["regime"] == "Critical"
        assert got["minimal_c2_without_congestion"] == "51"
        assert "omitted" in got["fixed_point"]

    def test_overloaded_instance_reports_fixed_point(self):
        proc = run_cli("params", "--c2", "30")
        got = kv_lines(proc.stdout)
        assert got["regime"] == "Overloaded"
        assert got["overloaded_fixed_point (y_star, y)"] == "(0.4, 0.3)"
        assert got["blocked_fraction_limit"] == "0.4"

    def test_underloaded_instance_reports_fixed_point(self):
        proc = run_cli("params", "--c2", "70")
        got = kv_lines(proc.stdout)
        assert got["regime"] == "Underloaded"
        assert got["underloaded_fixed_point (y, z)"] == "(0.5, 0.2)"

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "instance.json"
        cfg.write_text(json.dumps({"c2": 30}))
        proc = run_cli("params", "--config", str(cfg), "--c2", "70")
        assert kv_lines(proc.stdout)["regime"] == "Underloaded"

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "instance.json"
        cfg.write_text(json.dumps({"c_two": 30}))
        proc = run_cli("params", "--config", str(cfg))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")

    def test_dump_config_round_trips(self, tmp_path):
        dump = run_cli("params", "--c2", "30", "--dump-config")
        assert dump.returncode == 0
        cfg = tmp_path / "dumped.json"
        cfg.write_text(dump.stdout)
        via_config = run_cli("params", "--config", str(cfg))
        direct = run_cli("params", "--c2", "30")
        assert via_config.stdout == direct.stdout


class TestSharedConfig:
    """``cli.main`` loads the config, checks the seed and handles --dump-config for every command."""

    @pytest.mark.parametrize("argv", [
        ["params"],
        ["simulate", "--process", "aux-noblock", "--seed", "3"],
        ["fluid", "--system", "hybrid"],
        ["experiment", "--experiment", "saturation", "--seed", "3"],
    ], ids=lambda argv: argv[0])
    def test_dump_config_prints_effective_config(self, capsys, tmp_path, argv):
        out = tmp_path / "out"
        code = cli.main([*argv, "--n", "40", "--horizon", "7", "--dump-config", "--out", str(out)])
        assert code == 0
        expected = dict(cli.DEFAULTS, n=40, c2=20, horizon=7.0,
                        seed=3 if argv[0] in ("simulate", "experiment") else None)
        assert json.loads(capsys.readouterr().out) == expected
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate"], ["experiment", "--experiment", "saturation"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("dump", [[], ["--dump-config"]], ids=["run", "dump"])
    def test_missing_seed_exits_2(self, capsys, tmp_path, argv, dump):
        assert cli.main([*argv, *dump, "--out", str(tmp_path / "out")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: seed is required") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["simulate"], ["experiment", "--experiment", "saturation"],
    ], ids=lambda argv: argv[0])
    def test_negative_seed_exits_2(self, capsys, tmp_path, argv):
        """numpy refused it with 'expected non-negative integer', naming no input."""
        assert cli.main([*argv, "--seed", "-1", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr() == ("", "error: seed must be >= 0, got -1\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,value", [
        ("n", 40.7), ("c2", 12.5), ("replications", True), ("seed", 1.5), ("seed", False),
        ("n", float("inf")), ("n", "4.5"), ("n", None),
    ])
    def test_config_count_that_is_no_integer_exits_2(self, capsys, tmp_path, key, value):
        """int() truncated it: n 40.7 ran with n = 40, and true as 1 replication."""
        cfg = tmp_path / "instance.json"
        cfg.write_text(json.dumps({"n": 40, "seed": 1, key: value}))
        argv = ["simulate", "--config", str(cfg), "--horizon", "1", "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {key} must be an integer, got {value!r}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,value", [
        ("horizon", True),     # ran with horizon 1.0
        ("p", False),          # ran with p 0.0
        ("horizon", "soon"),   # exited 2 with a message naming no key
        ("horizon", None),     # exited 4 as an internal error
    ])
    def test_config_value_that_is_no_number_exits_2(self, capsys, tmp_path, key, value):
        cfg = tmp_path / "instance.json"
        cfg.write_text(json.dumps({"n": 40, "seed": 1, "horizon": 1.0, key: value}))
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr() == ("", f"error: {key} must be a number, got {value!r}\n")
        assert not (tmp_path / "out").exists()

    def test_config_numeric_strings_accepted(self, capsys, tmp_path):
        cfg = tmp_path / "instance.json"
        cfg.write_text(json.dumps({"n": "40", "horizon": "2.5", "p": 0, "seed": 1}))
        assert cli.main(["simulate", "--config", str(cfg), "--dump-config"]) == 0
        got = json.loads(capsys.readouterr().out)
        assert (got["n"], got["horizon"], got["p"], got["c2"]) == (40, 2.5, 0.0, 20)

    def test_config_integral_float_accepted(self, capsys, tmp_path):
        cfg = tmp_path / "instance.json"
        cfg.write_text(json.dumps({"n": 40.0, "c2": 12.0, "replications": 2.0, "seed": 3.0}))
        assert cli.main(["simulate", "--config", str(cfg), "--dump-config"]) == 0
        got = json.loads(capsys.readouterr().out)
        assert (got["n"], got["c2"], got["replications"], got["seed"]) == (40, 12, 2, 3)
        assert all(type(got[k]) is int for k in ("n", "c2", "replications", "seed"))


class TestSimulateCommand:
    def test_writes_trajectories_and_manifest(self, tmp_path):
        proc = run_cli(
            "simulate", "--n", "5", "--c2", "2", "--horizon", "5", "--seed", "42",
            "--replications", "2", "--out", str(tmp_path),
        )
        assert proc.returncode == 0
        for seed in (42, 43):
            lines = (tmp_path / f"sim_main_seed{seed}.csv").read_text().split("\n")
            assert lines[0] == "t,y_star,y,z"
            assert lines[1] == "0,0,0,0"
        manifest = json.loads((tmp_path / "sim_main_seed42_manifest.json").read_text())
        assert manifest["seeds"] == [42, 43]
        assert manifest["files"] == ["sim_main_seed42.csv", "sim_main_seed43.csv"]
        assert manifest["process"] == "main"
        assert manifest["config"]["n"] == 5

    def test_zero_horizon_single_row(self, tmp_path):
        run_cli(
            "simulate", "--n", "4", "--c2", "2", "--horizon", "0", "--seed", "1",
            "--out", str(tmp_path),
        )
        lines = (tmp_path / "sim_main_seed1.csv").read_text().strip().split("\n")
        assert len(lines) == 2

    def test_repeat_run_byte_identical(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        for sub in ("a", "b"):
            run_cli(
                "simulate", "--n", "8", "--c2", "3", "--horizon", "10", "--seed", "7",
                "--out", str(tmp_path / sub),
            )
        name = "sim_main_seed7.csv"
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_aux_process_columns(self, tmp_path):
        proc = run_cli(
            "simulate", "--process", "aux-noblock", "--init", "0,0", "--n", "6",
            "--c2", "2", "--horizon", "5", "--seed", "2", "--out", str(tmp_path),
        )
        assert proc.returncode == 0
        lines = (tmp_path / "sim_aux-noblock_seed2.csv").read_text().split("\n")
        assert lines[0] == "t,y,z"

    def test_missing_seed_is_config_error(self, tmp_path):
        proc = run_cli("simulate", "--n", "4", "--c2", "2", "--out", str(tmp_path))
        assert proc.returncode == 2
        assert "seed" in proc.stderr

    def test_refused_replication_leaves_no_csv(self, monkeypatch, capsys, tmp_path):
        real = sim.simulate_process

        def truncate_seed_2(*args, **kwargs):
            traj = real(*args, **kwargs)
            return dataclasses.replace(traj, truncated=traj.seed == 2)

        monkeypatch.setattr(sim, "simulate_process", truncate_seed_2)
        code = cli.main(["simulate", "--n", "20", "--c2", "6", "--horizon", "4", "--seed", "1",
                         "--replications", "2", "--out", str(tmp_path)])
        assert code == 2
        assert "seed 2" in capsys.readouterr().err
        assert not [name for name in os.listdir(tmp_path) if name.startswith("sim_")]

    @pytest.mark.parametrize("reps", ["0", "-2"])
    def test_replications_below_one_rejected(self, capsys, tmp_path, reps):
        out = tmp_path / "out"
        code = cli.main(["simulate", "--seed", "1", "--replications", reps, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: replications must be at least 1, got {reps}\n"
        assert not out.exists()

    @pytest.mark.parametrize("init", ["1,2,3", "1", "1,x"])
    def test_bad_init_is_config_error(self, capsys, tmp_path, init):
        out = tmp_path / "out"
        code = cli.main([
            "simulate", "--process", "aux-noblock", "--init", init, "--seed", "1",
            "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "--init" in err and "aux-noblock" in err and "(y,z)" in err
        assert not out.exists()

    @pytest.mark.parametrize("process", ["main", "aux-saturated", "aux-noblock"])
    def test_negative_horizon_rejected(self, capsys, tmp_path, process):
        out = tmp_path / "out"
        code = cli.main([
            "simulate", "--process", process, "--horizon", "-1", "--seed", "1",
            "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "horizon" in err
        assert not out.exists() or not any(out.iterdir())


class TestFluidCommand:
    def test_underloaded_ode_reaches_fixed_point(self, tmp_path):
        proc = run_cli(
            "fluid", "--system", "underloaded-ode", "--n", "100", "--c2", "70",
            "--horizon", "50", "--out", str(tmp_path),
        )
        assert proc.returncode == 0
        lines = (tmp_path / "fluid_underloaded-ode.csv").read_text().strip().split("\n")
        assert lines[0] == "t,y_star,y,z,u"
        last = [float(v) for v in lines[-1].split(",")]
        assert last[0] == pytest.approx(50.0)
        assert last[1] == 0.0
        assert last[2] == pytest.approx(0.5, abs=1e-6)
        assert last[3] == pytest.approx(0.2, abs=1e-6)
        assert last[4] == 0.0

    def test_saturated_regulator_monotone(self, tmp_path):
        run_cli(
            "fluid", "--system", "aux-saturated", "--n", "100", "--c2", "30",
            "--horizon", "10", "--out", str(tmp_path),
        )
        rows = (tmp_path / "fluid_aux-saturated.csv").read_text().strip().split("\n")[1:]
        u = [float(r.split(",")[4]) for r in rows]
        assert u[0] == 0.0
        assert all(b >= a for a, b in zip(u, u[1:]))
        assert u[-1] > 0.1

    def test_no_row_past_the_horizon(self, tmp_path):
        """1 / 0.6 = 1.67 steps: the path once rounded to 2 and wrote a row at t = 1.2."""
        assert cli.main(["fluid", "--system", "hybrid", "--n", "100", "--c2", "30",
                         "--horizon", "1", "--dt", "0.6", "--init", "0,0,0",
                         "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "fluid_hybrid.csv").read_text().strip().split("\n")[1:]
        assert [r.split(",")[0] for r in rows] == ["0", "0.6"]

    def test_regime_mismatch_exits_2(self, tmp_path):
        proc = run_cli(
            "fluid", "--system", "overloaded-ode", "--n", "100", "--c2", "70",
            "--out", str(tmp_path),
        )
        assert proc.returncode == 2
        assert "overloaded-ode" in proc.stderr

    @pytest.mark.parametrize("system, c2", [
        ("hybrid", "30"), ("aux-saturated", "30"), ("aux-noblock", "70"),
        ("overloaded-ode", "30"), ("underloaded-ode", "70"),
    ])
    @pytest.mark.parametrize("flags, field", [
        (["--dt", "0"], "dt"),
        (["--dt", "-0.1"], "dt"),
        (["--horizon", "-1"], "horizon"),
        (["--horizon", "inf"], "horizon"),
        (["--horizon", "0.0006"], "horizon"),
        (["--horizon", "1e308", "--dt", "1e-300"], "horizon"),
    ], ids=["dt-zero", "dt-negative", "horizon-negative", "horizon-inf", "horizon-below-dt",
            "steps-overflow"])
    def test_bad_step_or_horizon_rejected(self, capsys, tmp_path, system, c2, flags, field):
        out = tmp_path / "out"
        code = cli.main([
            "fluid", "--system", system, "--n", "100", "--c2", c2, *flags, "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {field} ")
        assert not out.exists()

    @pytest.mark.parametrize("system, c2", [("hybrid", 30), ("aux-saturated", 30)])
    def test_csv_bytes_match_row_by_row_writer(self, tmp_path, system, c2):
        """Over two 16,384-row blocks, the bytes of one f-string per grid row."""
        code = cli.main([
            "fluid", "--system", system, "--n", "100", "--c2", str(c2), "--horizon", "40",
            "--out", str(tmp_path),
        ])
        assert code == 0
        params = ModelParams(0.5, 1.0, 1.0, 1.0)  # the CLI defaults
        sol = fluid.solve_system(system, params, c2 / 100, (0.0, 0.0, 0.0), 40.0, 1e-3)
        assert len(sol.path) > 2 * 16384
        expected = "t,y_star,y,z,u\n" + "".join(
            f"{t:.9g},{ys:.9g},{y:.9g},{z:.9g},{u:.9g}\n"
            for t, (ys, y, z), u in zip(sol.path.times, sol.path.values, sol.regulator.values)
        )
        assert (tmp_path / f"fluid_{system}.csv").read_text() == expected

    @pytest.mark.parametrize("system, init, c2, field", [
        ("overloaded-ode", "-5,2,0", "30", "y_star"),
        ("underloaded-ode", "0,1.2,0", "70", "y"),
    ], ids=["overloaded-ode--5,2,0-30", "underloaded-ode-0,1.2,0-70"])
    def test_ode_start_outside_domain_exits_2(self, capsys, tmp_path, system, init, c2, field):
        """Both once wrote a path whose first row lay outside the fluid domain.

        The underloaded ODE holds y_star at 0, so its bound is on y alone."""
        out = tmp_path / "out"
        code = cli.main(["fluid", "--system", system, f"--init={init}", "--n", "100",
                         "--c2", c2, "--horizon", "6", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {field} ")
        assert not out.exists()

    def test_bad_init_shape_rejected(self, tmp_path):
        proc = run_cli(
            "fluid", "--system", "hybrid", "--init", "0,0", "--n", "100",
            "--c2", "30", "--out", str(tmp_path),
        )
        assert proc.returncode == 2


class TestExperimentCommand:
    def test_oracle_check_passes_and_writes_report(self, tmp_path):
        proc = run_cli(
            "experiment", "--experiment", "oracle-check", "--n", "2", "--c2", "1",
            "--horizon", "1100", "--seed", "5", "--out", str(tmp_path),
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("oracle_check: PASS\n")
        assert "  all_summaries_within_3se: ok\n" in proc.stdout
        report = json.loads((tmp_path / "oracle_check_seed5.json").read_text())
        assert report["passed"] is True
        assert (tmp_path / "oracle_check_seed5.csv").exists()

    def test_failing_verdict_exits_1(self, tmp_path):
        proc = run_cli(
            "experiment", "--experiment", "no-blocking", "--n", "20", "--c2", "14",
            "--n-list", "20", "--horizon", "25", "--burn-in", "10",
            "--replications", "4", "--seed", "3", "--out", str(tmp_path),
        )
        assert proc.returncode == 1
        assert proc.stdout.startswith("no_blocking: FAIL\n")

    def test_unknown_experiment_rejected_by_parser(self, tmp_path):
        proc = run_cli(
            "experiment", "--experiment", "warp", "--seed", "0", "--out", str(tmp_path)
        )
        assert proc.returncode == 2
        assert "invalid choice" in proc.stderr

    def test_reports_identical_across_runs_and_workers(self, tmp_path):
        outs = {}
        for tag, workers in (("a", "1"), ("b", "1"), ("c", "2")):
            d = tmp_path / tag
            d.mkdir()
            run_cli(
                "experiment", "--experiment", "convergence", "--target",
                "aux-saturated", "--n", "100", "--c2", "30", "--n-list", "15,30",
                "--horizon", "6", "--burn-in", "2", "--replications", "4",
                "--seed", "11", "--workers", workers, "--out", str(d),
            )
            outs[tag] = (d / "convergence_aux-saturated_seed11.json").read_bytes()
        assert outs["a"] == outs["b"] == outs["c"]

    @pytest.mark.parametrize("flags, field", [
        (["--experiment", "phase-scan", "--replications", "0"], "replications"),
        (["--experiment", "martingale-decay", "--n-list", "20,40", "--replications", "0"],
         "replications"),
        (["--experiment", "martingale-decay", "--n-list", "20"], "n_list"),
        (["--experiment", "martingale-decay", "--n-list", "20,20"], "n_list"),
        (["--experiment", "phase-scan", "--burn-in", "0.5", "--workers", "0"], "workers"),
        (["--experiment", "martingale-decay", "--n-list", "20,40", "--workers", "-3"],
         "workers"),
    ], ids=["phase-scan-reps0", "martingale-reps0", "martingale-one-n", "martingale-repeated-n",
            "phase-scan-workers0", "martingale-workers-negative"])
    def test_unusable_sweep_exits_2(self, capsys, tmp_path, flags, field):
        """Workers below 1 once ran serially without a word."""
        code = cli.main([
            "experiment", *flags, "--n", "20", "--c2", "6", "--horizon", "2",
            "--seed", "1", "--out", str(tmp_path),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {field} ")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flags, field", [
        (["--experiment", "convergence", "--target", "aux-noblock", "--n", "60", "--c2", "42",
          "--n-list", "0,10"], "n_list"),
        (["--experiment", "saturation", "--n-list=-5,10"], "n_list"),
        (["--experiment", "martingale-decay", "--n-list", "0,100"], "n_list"),
        (["--experiment", "phase-scan", "--r-grid=-0.5,0.3"], "r_grid"),
        (["--experiment", "phase-scan", "--r-grid", "0.3,nan"], "r_grid"),
        (["--experiment", "saturation", "--burn-in", "1", "--band", "nan"], "band"),
        (["--experiment", "no-blocking", "--burn-in", "1", "--c2", "70", "--band", "-1"],
         "fixed_point_band"),
        (["--experiment", "phase-scan", "--r-grid", "0.3,0.3"], "r_grid"),
    ], ids=["convergence-n0", "saturation-n-negative", "martingale-n0", "phase-scan-r-negative",
            "phase-scan-r-nan", "saturation-band-nan", "no-blocking-band-negative",
            "phase-scan-r-repeated"])
    def test_bad_scale_ratio_or_band_exits_2(self, capsys, tmp_path, flags, field):
        """Each once crashed (exit 4), failed with a foreign message, or exited 1."""
        code = cli.main(["experiment", "--n", "100", "--c2", "30", "--horizon", "4",
                         "--replications", "2", *flags, "--seed", "1",
                         "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {field} ")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flags", [
        ["--experiment", "saturation", "--c2", "30", "--n-list", "20,40", "--horizon", "6"],
        ["--experiment", "phase-scan", "--n", "20", "--horizon", "4", "--r-grid", "0.3,0.7"],
    ], ids=["saturation-empty-sensitivity-window", "phase-scan-burn-in-at-horizon"])
    def test_empty_window_exits_2(self, capsys, tmp_path, flags):
        """Before the check these wrote -0.0 or NaN blocked fractions and exited 1."""
        code = cli.main(["experiment", *flags, "--burn-in", "4", "--seed", "1",
                         "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: burn_in ")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("experiment", ["convergence", "no-blocking", "saturation",
                                            "phase-scan"])
    def test_infinite_horizon_exits_2(self, capsys, tmp_path, experiment):
        """Convergence and no-blocking once failed with 'cannot convert float infinity to
        integer' and exit 4."""
        code = cli.main(["experiment", "--experiment", experiment, "--horizon", "inf",
                         "--burn-in", "1", "--seed", "1", "--n", "20", "--c2", "6",
                         "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: horizon ")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("grid_dt", ["nan", "0", "-0.5", "inf"])
    def test_bad_grid_dt_exits_2(self, capsys, tmp_path, grid_dt):
        """NaN once reached the grid and failed with 'cannot convert float NaN to integer'."""
        code = cli.main(["experiment", "--experiment", "no-blocking", "--n", "50", "--c2", "35",
                         "--horizon", "2", "--burn-in", "0.5", "--replications", "2",
                         "--seed", "1", "--grid-dt", grid_dt, "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: grid_dt ")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("experiment, flag, value", [
        ("phase-scan", "--grid-dt", "nan"),
        ("phase-scan", "--grid-dt", "0.01"),
        ("oracle-check", "--grid-dt", "0.01"),
        ("martingale-decay", "--grid-dt", "0.01"),
        ("phase-scan", "--band", "0.05"),
        ("convergence", "--band", "0.05"),
        ("oracle-check", "--band", "0.05"),
        ("martingale-decay", "--band", "0.05"),
        ("oracle-check", "--burn-in", "7"),
        ("martingale-decay", "--burn-in", "1"),
        ("oracle-check", "--replications", "9"),
        ("oracle-check", "--target", "aux-noblock"),
        ("phase-scan", "--target", "main"),
        ("martingale-decay", "--target", "main"),
        ("oracle-check", "--n-list", "5,6"),
        ("phase-scan", "--n-list", "20,40"),
        ("oracle-check", "--r-grid", "0.3"),
        ("convergence", "--r-grid", "0.3,0.7"),
        ("martingale-decay", "--r-grid", "0.3,0.7"),
        ("oracle-check", "--workers", "3"),
    ])
    def test_unread_flag_exits_2(self, capsys, tmp_path, experiment, flag, value):
        """Each was once taken and ignored: phase-scan ran on with --grid-dt nan."""
        code = cli.main(["experiment", "--experiment", experiment, "--n", "20", "--c2", "6",
                         "--horizon", "4", "--seed", "1", flag, value, "--out", str(tmp_path)])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {flag} is not read by the {experiment} experiment\n"
        assert not any(tmp_path.iterdir())

    def test_first_unread_flag_named(self, capsys, tmp_path):
        """oracle-check reads none of the six; this ran and exited 0."""
        code = cli.main(["experiment", "--experiment", "oracle-check", "--n", "4", "--c2", "2",
                         "--horizon", "20", "--burn-in", "7", "--target", "aux-noblock",
                         "--r-grid", "0.3", "--n-list", "5,6", "--workers", "3",
                         "--replications", "9", "--seed", "1", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr() == (
            "", "error: --burn-in is not read by the oracle-check experiment\n")
        assert not any(tmp_path.iterdir())

    def test_config_grid_dt_is_not_a_given_flag(self, capsys, tmp_path):
        """A config file may hold every key; only flags on the command line are refused."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid_dt": 0.02}))
        out = tmp_path / "out"
        code = cli.main(["experiment", "--experiment", "phase-scan", "--config", str(cfg),
                         "--n", "20", "--r-grid", "0.3,0.7", "--horizon", "4", "--burn-in", "1",
                         "--seed", "1", "--out", str(out)])
        assert code in (0, 1)
        assert capsys.readouterr().out.startswith("phase_scan: ")

    @pytest.mark.parametrize("experiment, c2", [("saturation", "6"), ("no-blocking", "14")])
    def test_certificates_read_band_and_grid_dt(self, capsys, tmp_path, experiment, c2):
        code = cli.main(["experiment", "--experiment", experiment, "--n", "20", "--c2", c2,
                         "--n-list", "20", "--horizon", "4", "--burn-in", "1",
                         "--replications", "2", "--seed", "1", "--band", "0.05",
                         "--grid-dt", "0.02", "--out", str(tmp_path)])
        assert code in (0, 1)
        assert capsys.readouterr().out.startswith(experiment.replace("-", "_") + ": ")

    def test_out_dir_env_var_honored(self, tmp_path):
        proc = run_cli(
            "experiment", "--experiment", "oracle-check", "--n", "1", "--c2", "1",
            "--horizon", "50", "--seed", "2",
            cwd=str(tmp_path), env_extra={"TWOLEVEL_OUT": str(tmp_path / "nested")},
        )
        assert proc.returncode in (0, 1)
        assert re.match(r"oracle_check: (PASS|FAIL)\n", proc.stdout), proc.stderr
        assert (tmp_path / "nested" / "oracle_check_seed2.json").exists()


class TestExitCodes:
    """In-process: toolkit errors exit 2, anything else 4, so only a verdict exits 1."""

    ORACLE_CHECK = ["experiment", "--experiment", "oracle-check", "--n", "2", "--c2", "1",
                    "--horizon", "10", "--seed", "1"]

    @pytest.mark.parametrize("exc, code", [
        (SingularSystem("forced singular solve"), 2),
        (RuntimeError("forced bug"), 4),
        (MemoryError(), 4),
    ])
    def test_crash_is_not_a_fail_verdict(self, monkeypatch, capsys, tmp_path, exc, code):
        def explode(*args, **kwargs):
            raise exc

        monkeypatch.setattr(oracle, "build_generator", explode)
        assert cli.main(self.ORACLE_CHECK + ["--out", str(tmp_path)]) == code
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: " if code == 2 else "internal error: ")

    def test_real_fail_verdict_still_exits_1(self, capsys, tmp_path):
        code = cli.main([
            "experiment", "--experiment", "no-blocking", "--n", "20", "--c2", "14",
            "--n-list", "20", "--horizon", "25", "--burn-in", "10",
            "--replications", "4", "--seed", "3", "--out", str(tmp_path),
        ])
        assert code == 1
        assert capsys.readouterr().out.startswith("no_blocking: FAIL\n")

    def test_oracle_too_large_refused_before_allocating(self, capsys, tmp_path):
        """n=400, c2=100 has 120,701 states: a 108 GiB dense generator."""
        tracemalloc.start()
        try:
            code = cli.main([
                "experiment", "--experiment", "oracle-check", "--n", "400", "--c2", "100",
                "--horizon", "10", "--seed", "1", "--out", str(tmp_path),
            ])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "120701 states, exceeding the cap of 11585" in capsys.readouterr().err
        # One float row of the generator alone would be 0.9 MiB.
        assert peak < 2**19
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, message", [
        (["fluid", "--system", "hybrid", "--init", "0,x,0"],
         "--init for hybrid takes 3 comma-separated numbers (y_star,y,z), got '0,x,0'"),
        (["experiment", "--experiment", "martingale-decay", "--n-list", "20,x", "--seed", "1"],
         "--n-list takes comma-separated integers, got '20,x'"),
        (["experiment", "--experiment", "phase-scan", "--r-grid", "0.3,,0.7", "--seed", "1"],
         "--r-grid takes comma-separated numbers, got '0.3,,0.7'"),
    ], ids=["fluid-init", "n-list", "r-grid"])
    def test_malformed_list_flag_is_config_error(self, capsys, tmp_path, argv, message):
        out = tmp_path / "out"
        assert cli.main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
