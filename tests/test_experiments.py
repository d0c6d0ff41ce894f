"""Experiment harness: configs, report artifacts, and the six experiment types."""

import dataclasses
import io
import json
import math
import os
import re
import warnings

import numpy as np
import pytest

from twolevel import (
    DomainError,
    ExperimentConfig,
    InvalidState,
    ModelParams,
    RegimeMismatch,
    Report,
    ScalingParams,
    blocked_fraction_limit,
    cli,
    convergence_sweep,
    critical_ratio,
    martingale_decay,
    no_blocking_certificate,
    oracle_cross_check,
    phase_scan,
    saturation_certificate,
    save_report,
    sim,
    underloaded_fixed_point,
)

SYM = ModelParams(0.5, 1.0, 1.0, 1.0)


def small_cfg(r, **overrides):
    base = dict(
        params=SYM,
        r=r,
        n_list=(30, 60),
        horizon=25.0,
        burn_in=10.0,
        replications=6,
        base_seed=3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_burn_in_must_precede_horizon(self):
        with pytest.raises(DomainError):
            small_cfg(0.7, burn_in=25.0)

    def test_replications_positive(self):
        with pytest.raises(DomainError):
            small_cfg(0.7, replications=0)

    @pytest.mark.parametrize("burn_in", [12.5, 20.0, -1.0])
    def test_sensitivity_window_must_be_nonempty(self, burn_in):
        """The rows average over [burn_in, horizon] and [2 burn_in, horizon]."""
        with pytest.raises(DomainError) as info:
            small_cfg(0.7, burn_in=burn_in)
        assert info.value.field == "burn_in"

    def test_grid_dt_positive(self):
        with pytest.raises(DomainError):
            small_cfg(0.7, grid_dt=0.0)

    def test_n_list_normalized(self):
        cfg = small_cfg(0.7, n_list=[10, 20])
        assert cfg.n_list == (10, 20)
        assert all(isinstance(n, int) for n in cfg.n_list)


class TestReportArtifacts:
    @staticmethod
    def tiny_report():
        return Report(
            name="demo",
            config={"base_seed": 5, "alpha": 0.25},
            metrics=[
                {"n": 10, "score": 0.5, "ok": True, "gap": None, "raw": [1.0, 2.0]},
                {"n": 20, "score": 0.25, "ok": False, "gap": None, "raw": [3.0]},
            ],
            criteria={"score_drops": True},
        )

    def test_json_round_trip_and_trailing_newline(self):
        rep = self.tiny_report()
        text = rep.to_json()
        assert text.endswith("\n")
        assert json.loads(text) == rep.to_dict()
        assert rep.to_json() == text

    def test_csv_scalars_only(self):
        buf = io.StringIO()
        self.tiny_report().write_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "n,score,ok,gap"
        assert lines[1] == "10,0.5,true,"
        assert lines[2] == "20,0.25,false,"

    def test_save_report_paths_and_content(self, tmp_path):
        rep = self.tiny_report()
        json_path, csv_path = save_report(rep, str(tmp_path))
        assert os.path.basename(json_path) == "demo_seed5.json"
        assert os.path.basename(csv_path) == "demo_seed5.csv"
        with open(json_path) as fp:
            assert fp.read() == rep.to_json()


class TestConvergenceSweep:
    def test_unknown_target_rejected(self):
        with pytest.raises(DomainError):
            convergence_sweep(small_cfg(0.3), "sideways")

    def test_critical_ratio_has_no_main_reference(self):
        with pytest.raises(RegimeMismatch):
            convergence_sweep(small_cfg(0.5), "main")

    def test_small_sweep_structure(self):
        cfg = small_cfg(0.3, n_list=(20, 40), horizon=8.0, burn_in=2.0,
                        replications=4, base_seed=9)
        rep = convergence_sweep(cfg, "aux-saturated", threshold=1.0)
        assert rep.name == "convergence_aux-saturated"
        assert [row["n"] for row in rep.metrics] == [20, 40]
        for row, srow in zip(rep.metrics, rep.sensitivity):
            assert row["window_start"] == 2.0 and srow["window_start"] == 4.0
            assert len(row["sup_distances"]) == 4
            assert row["median_sup_distance"] == float(np.median(row["sup_distances"]))
            assert row["p90_sup_distance"] >= row["median_sup_distance"]
            assert row["seed_start"] == 9 and row["seed_end"] == 12
        assert set(rep.criteria) == {
            "median_non_increasing", "final_median_within_threshold",
        }
        assert rep.passed == all(rep.criteria.values())
        assert rep.criteria["final_median_within_threshold"]

    def test_verdict_rederivable_from_raw_distances(self):
        cfg = small_cfg(0.7, n_list=(25, 50), horizon=8.0, burn_in=2.0,
                        replications=4, base_seed=30)
        rep = convergence_sweep(cfg, "aux-noblock", threshold=0.05)
        medians = [float(np.median(row["sup_distances"])) for row in rep.metrics]
        assert rep.criteria["median_non_increasing"] == (medians[1] <= medians[0] + 1e-12)
        assert rep.criteria["final_median_within_threshold"] == (medians[-1] <= 0.05)

    def test_byte_identical_across_runs_and_worker_counts(self):
        cfg = small_cfg(0.3, n_list=(15, 30), horizon=6.0, burn_in=2.0,
                        replications=4, base_seed=11)
        texts = {
            convergence_sweep(cfg, "main", workers=w).to_json() for w in (1, 1, 2)
        }
        assert len(texts) == 1


class TestNoBlockingCertificate:
    def test_overloaded_ratio_rejected(self):
        with pytest.raises(RegimeMismatch):
            no_blocking_certificate(small_cfg(0.3))

    def test_small_certificate_structure(self):
        cfg = small_cfg(0.7)
        rep = no_blocking_certificate(cfg, fixed_point_band=0.5)
        assert rep.name == "no_blocking"
        fp = underloaded_fixed_point(SYM, 0.7)
        assert any(repr(fp[0]) in note for note in rep.notes)
        for row in rep.metrics:
            flags = row["zero_blocking_flags"]
            assert len(flags) == 6
            assert row["prob_zero_blocking"] == pytest.approx(sum(flags) / 6)
            assert 0.0 <= row["prob_zero_blocking"] <= 1.0
            assert row["path_sample_dt"] == 1.0
            assert len(row["path_samples"]) == 6
        for srow in rep.sensitivity:
            assert "path_samples" not in srow
        assert set(rep.criteria) == {
            "prob_at_largest_n", "prob_non_decreasing", "fixed_point_within_band",
        }

    def test_mean_path_distance_rederivable_from_samples(self):
        cfg = small_cfg(0.7, n_list=(40,), replications=5, base_seed=8)
        rep = no_blocking_certificate(cfg)
        row = rep.metrics[0]
        sampled = np.array(row["path_samples"])
        grid = row["path_sample_dt"] * np.arange(sampled.shape[1])
        mean_path = sampled.mean(axis=0)
        fp = underloaded_fixed_point(SYM, 0.7)
        dist = np.abs(mean_path[grid >= cfg.burn_in] - np.asarray(fp)).max()
        assert row["mean_path_fixed_point_distance"] == pytest.approx(float(dist))
        assert "fixed_point_within_band" not in rep.criteria


class TestSaturationCertificate:
    def test_underloaded_ratio_rejected(self):
        with pytest.raises(RegimeMismatch):
            saturation_certificate(small_cfg(0.7))

    def test_small_certificate_structure(self):
        rep = saturation_certificate(small_cfg(0.3), band=1.0)
        assert rep.name == "saturation"
        last = rep.metrics[-1]
        assert last["n"] == 60 and last["c2"] == 18
        assert last["blocked_fraction_limit"] == pytest.approx(
            blocked_fraction_limit(SYM, 0.3)
        )
        assert 0.0 <= last["prob_zero_idle"] <= 1.0
        assert 0.0 <= last["min_occupancy_fraction"] <= 1.0
        assert len(last["blocked_fraction_averages"]) == 6
        assert set(rep.criteria) == {
            "prob_at_largest_n", "prob_non_decreasing",
            "blocked_fraction_within_band", "occupancy_above_lower_bound",
        }
        assert rep.criteria["blocked_fraction_within_band"]


class TestPhaseScan:
    def test_short_grid_rejected(self):
        with pytest.raises(DomainError):
            phase_scan(SYM, [0.5], n=20, horizon=5.0, t1=1.0, reps=2, seed=0)

    def test_small_scan_locates_transition(self):
        rep = phase_scan(
            SYM, [0.3, 0.45, 0.6, 0.75], n=80, horizon=20.0, t1=8.0, reps=3, seed=17
        )
        rows = rep.metrics
        assert [row["r"] for row in rows] == [0.3, 0.45, 0.6, 0.75]
        excluded = [row["r"] for row in rows if row["near_critical_excluded"]]
        assert excluded == [0.45]
        assert rows[0]["blocked_fraction_limit"] == pytest.approx(0.4)
        assert rows[2]["blocked_fraction_limit"] is None
        assert rep.criteria["threshold_found"]
        assert rep.criteria["threshold_within_grid_spacing"]
        assert any(repr(critical_ratio(SYM)) in note for note in rep.notes)
        assert any("threshold" in note for note in rep.notes)

    def test_zero_replications_rejected(self):
        with pytest.raises(DomainError) as info:
            phase_scan(SYM, [0.3, 0.7], n=20, horizon=5.0, t1=1.0, reps=0, seed=0)
        assert info.value.field == "replications"

    @pytest.mark.parametrize("t1", [2.5, 5.0, 6.0, -0.5])
    def test_empty_window_rejected(self, t1):
        with pytest.raises(DomainError) as info:
            phase_scan(SYM, [0.3, 0.7], n=20, horizon=5.0, t1=t1, reps=2, seed=0)
        assert info.value.field == "burn_in"

    def test_unsorted_grid_normalized(self):
        rep = phase_scan(
            SYM, [0.75, 0.3], n=20, horizon=6.0, t1=2.0, reps=2, seed=1
        )
        assert [row["r"] for row in rep.metrics] == [0.3, 0.75]
        assert rep.config["r_grid"] == [0.3, 0.75]


class TestOracleCrossCheck:
    def test_tiny_instance_agrees(self):
        rep = oracle_cross_check(SYM, ScalingParams(n=2, c2=1), 1100.0, seed=5)
        assert rep.passed
        assert {row["summary"] for row in rep.metrics} == {
            "mean_y_star_frac", "mean_y_frac", "mean_z_frac", "p_block",
        }
        for row in rep.metrics:
            assert len(row["batch_means"]) == 20
            assert row["within_3se"]
            assert abs(row["estimate"] - row["exact"]) <= 3 * row["standard_error"] + 1e-12
        assert not any("low confidence" in note for note in rep.notes)

    def test_short_window_flagged_low_confidence(self):
        rep = oracle_cross_check(SYM, ScalingParams(n=2, c2=1), 10.0, seed=5)
        assert any("low confidence" in note for note in rep.notes)


class TestMartingaleDecay:
    def test_rms_ratio_and_report_shape(self):
        rep = martingale_decay(
            SYM, 0.3, (100, 200), horizon=5.0, reps=8, seed=4242,
            slope_range=(-1.0, -0.05), bootstrap=200,
        )
        assert [row["n"] for row in rep.metrics] == [100, 200]
        for coord in ("y_star", "y", "z"):
            r100 = rep.metrics[0][f"rms_sup_{coord}"]
            r200 = rep.metrics[1][f"rms_sup_{coord}"]
            assert 1.1 <= r100 / r200 <= 1.8
        assert set(rep.criteria) == {
            "slope_y_star_in_range", "slope_y_in_range", "slope_z_in_range",
        }
        assert rep.config["slope_range"] == [-1.0, -0.05]
        assert sum("bootstrap 95% interval" in note for note in rep.notes) == 3

    @pytest.mark.parametrize("n_list, reps, field", [
        ((20,), 4, "n_list"),
        ((20, 20), 4, "n_list"),
        ((20, 40), 0, "replications"),
    ])
    def test_unfittable_input_rejected(self, n_list, reps, field):
        with pytest.raises(DomainError) as info:
            martingale_decay(SYM, 0.3, n_list, horizon=2.0, reps=reps, seed=1, bootstrap=10)
        assert info.value.field == field

    def test_bootstrap_below_one_rejected(self):
        with pytest.raises(DomainError) as info:
            martingale_decay(SYM, 0.3, (20, 40), horizon=2.0, reps=4, seed=1, bootstrap=0)
        assert info.value.field == "bootstrap"

    def test_slope_close_to_inverse_sqrt(self):
        """log-log slope over doubling n sits near -1/2 for each coordinate."""
        rep = martingale_decay(
            SYM, 0.3, (50, 100, 200, 400), horizon=5.0, reps=10, seed=99,
            slope_range=(-0.75, -0.25), bootstrap=200,
        )
        assert rep.passed, rep.criteria


    def test_zero_rms_draws_left_out_of_interval(self):
        """Above r_c most y* sups are 0, so some resamples have an RMS of 0:
        they drop out of y*'s interval and leave y's and z's alone."""
        params = ModelParams(0.3, 1.7, 0.6, 1.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = martingale_decay(params, 0.3, (100, 200, 400), horizon=5.0, reps=6, seed=1)
        for note in rep.notes:
            lo, hi = re.search(r"interval \[(\S+), (\S+)\]", note).groups()
            assert math.isfinite(float(lo)) and math.isfinite(float(hi)), note
        assert "left out" in rep.notes[0]
        assert "left out" not in rep.notes[1] + rep.notes[2]

    def test_zero_rms_point_estimate_is_undefined_and_fails(self):
        params = ModelParams(0.3, 1.7, 0.6, 1.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = martingale_decay(params, 0.7, (50, 100), horizon=5.0, reps=5, seed=5,
                                   bootstrap=200)
        assert [row["rms_sup_y_star"] for row in rep.metrics] == [0.0, 0.0]
        assert rep.notes[0] == "slope_y_star undefined: RMS of 0 at n = [50, 100]"
        assert rep.criteria["slope_y_star_in_range"] is False
        for note in rep.notes[1:]:
            assert "nan" not in note


class TestTruncatedRunsRefused:
    """A run cut short by the event cap stops before its horizon: every
    suite refuses it instead of averaging it."""

    @pytest.fixture(autouse=True)
    def truncate_every_run(self, monkeypatch):
        real = sim.simulate_process

        def truncated(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), truncated=True)

        monkeypatch.setattr(sim, "simulate_process", truncated)

    @pytest.mark.parametrize("suite", [
        lambda: convergence_sweep(small_cfg(0.3, n_list=(20,), replications=2), "aux-saturated"),
        lambda: convergence_sweep(small_cfg(0.3, n_list=(20,), replications=2), "main"),
        lambda: no_blocking_certificate(small_cfg(0.7, n_list=(20,), replications=2)),
        lambda: saturation_certificate(small_cfg(0.3, n_list=(20,), replications=2)),
        lambda: phase_scan(SYM, (0.3, 0.7), 20, 4.0, 1.0, 2, 1),
        lambda: martingale_decay(SYM, 0.3, (20, 40), 2.0, 2, 1, bootstrap=10),
        lambda: oracle_cross_check(SYM, ScalingParams(n=2, c2=1), 10.0, seed=5),
    ], ids=["convergence-aux", "convergence-main", "no-blocking", "saturation", "phase-scan",
            "martingale", "oracle-check"])
    def test_suite_raises(self, suite):
        with pytest.raises(InvalidState, match="event cap"):
            suite()

    def test_cli_exits_2(self, capsys, tmp_path):
        code = cli.main(["experiment", "--experiment", "saturation", "--n", "20", "--c2", "6",
                         "--horizon", "4", "--burn-in", "1", "--seed", "1",
                         "--out", str(tmp_path)])
        assert code == 2
        assert "event cap" in capsys.readouterr().err

    def test_cli_simulate_exits_2_without_manifest(self, capsys, tmp_path):
        code = cli.main(["simulate", "--n", "20", "--c2", "6", "--horizon", "4", "--seed", "1",
                         "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "event cap" in err
        assert os.listdir(tmp_path) == []


class TestAbsorbedRuns:
    """With p = 0 nothing feeds class 0, so every run absorbs at (0, 0, c2); the report says so."""

    def test_no_blocking_notes_absorbed_runs(self):
        cfg = small_cfg(0.7, params=ModelParams(0.0, 1.0, 1.0, 1.0), n_list=(50,), replications=4)
        rep = no_blocking_certificate(cfg)
        assert rep.passed
        assert rep.notes[-1] == "4 of 4 replications absorbed"

    def test_no_note_without_absorbed_runs(self):
        rep = no_blocking_certificate(small_cfg(0.7, n_list=(20,), replications=2))
        assert not any("absorbed" in note for note in rep.notes)
