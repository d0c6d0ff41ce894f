"""Experiment harness: configs, report artifacts, and the six experiment types."""

import concurrent.futures
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
    experiments,
    critical_ratio,
    martingale_decay,
    no_blocking_certificate,
    oracle,
    oracle_cross_check,
    phase_scan,
    saturation_certificate,
    save_report,
    sim,
    underloaded_fixed_point,
)

SYM = ModelParams(0.5, 1.0, 1.0, 1.0)


def seed_rep(seed):
    """A replication that returns its seed and never absorbs."""
    return False, seed


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

    @pytest.mark.parametrize("horizon", [math.inf, math.nan, 0.0, -5.0])
    def test_horizon_must_be_finite_and_positive(self, horizon):
        """An infinite horizon passed the window check and crashed at the grid."""
        with pytest.raises(DomainError) as info:
            small_cfg(0.7, horizon=horizon, burn_in=0.0)
        assert info.value.field == "horizon"

    def test_grid_dt_positive(self):
        with pytest.raises(DomainError):
            small_cfg(0.7, grid_dt=0.0)
        for bad in (math.nan, math.inf, -0.5):
            with pytest.raises(DomainError, match="grid_dt") as info:
                small_cfg(0.7, grid_dt=bad)
            assert info.value.field == "grid_dt"

    @pytest.mark.parametrize("r, n_list, field", [
        (0.7, (), "n_list"),
        (0.7, (0, 10), "n_list"),
        (0.7, (-5, 10), "n_list"),
        (math.nan, (30, 60), "r"),
        (math.inf, (30, 60), "r"),
        (0.0, (30, 60), "r"),
        (-0.3, (30, 60), "r"),
    ])
    def test_scales_and_ratio_refused(self, r, n_list, field):
        """n = 0 once failed with ZeroDivisionError; an empty list was accepted."""
        with pytest.raises(DomainError) as info:
            small_cfg(r, n_list=n_list)
        assert info.value.field == field

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

    def test_csv_without_rows_is_one_newline(self):
        buf = io.StringIO()
        dataclasses.replace(self.tiny_report(), metrics=[]).write_csv(buf)
        assert buf.getvalue() == "\n"

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

    @pytest.mark.parametrize("band", [-1.0, math.nan, math.inf])
    def test_bad_band_rejected(self, band):
        with pytest.raises(DomainError) as info:
            no_blocking_certificate(small_cfg(0.7), fixed_point_band=band)
        assert info.value.field == "fixed_point_band"

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

    def test_critical_floored_ratio_falls_back_to_r(self):
        """At n = 20 and r = 0.52, c2 = 10 puts c2/n at r_c = 0.5, where no underloaded
        fixed point exists: the distances are taken from the one at r."""
        cfg = small_cfg(0.52, n_list=(20,), replications=3)
        row = no_blocking_certificate(cfg).metrics[0]
        assert row["c2"] == 10
        sampled = np.array(row["path_samples"])
        grid = row["path_sample_dt"] * np.arange(sampled.shape[1])
        fp = underloaded_fixed_point(SYM, 0.52)
        dist = np.abs(sampled.mean(axis=0)[grid >= cfg.burn_in] - np.asarray(fp)).max()
        assert row["mean_path_fixed_point_distance"] == pytest.approx(float(dist))


class TestSaturationCertificate:
    def test_underloaded_ratio_rejected(self):
        with pytest.raises(RegimeMismatch):
            saturation_certificate(small_cfg(0.7))

    @pytest.mark.parametrize("band", [-1.0, math.nan, math.inf])
    def test_bad_band_rejected(self, band):
        with pytest.raises(DomainError) as info:
            saturation_certificate(small_cfg(0.3), band=band)
        assert info.value.field == "band"

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

    def test_critical_floored_ratio_falls_back_to_r(self):
        """At n = 2 and r = 0.3, c2 = max(1, 0) = 1 puts c2/n at r_c = 0.5, where no
        blocked fraction exists: the limit reported is the one at r."""
        rep = saturation_certificate(small_cfg(0.3, n_list=(2,), replications=3), band=1.0)
        assert rep.metrics[0]["c2"] == 1
        assert rep.metrics[0]["blocked_fraction_limit"] == blocked_fraction_limit(SYM, 0.3)


class TestExclusiveStatesChecked:
    """A main run holding blocked operators and idle specialists at once is refused."""

    @pytest.mark.parametrize("certificate, r", [(no_blocking_certificate, 0.7),
                                                (saturation_certificate, 0.3)])
    def test_certificate_raises(self, monkeypatch, certificate, r):
        def both(process, init, params, scaling, horizon, seed):
            return sim.Trajectory(process, [0.0, 1.0], [[0, 0, 0], [1, 0, 1]], horizon, seed,
                                  params, scaling)

        monkeypatch.setattr(sim, "simulate_process", both)
        with pytest.raises(InvalidState, match="blocked operators and idle specialists"):
            certificate(small_cfg(r, n_list=(20,), replications=2))


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

    @pytest.mark.parametrize("r_grid, n, field", [
        ([-0.5, 0.3], 20, "r_grid"),
        ([0.3, math.nan], 20, "r_grid"),
        ([0.0, 0.3], 20, "r_grid"),
        ([0.3, math.inf], 20, "r_grid"),
        ([0.3, 0.7], 0, "n"),
        ([0.3, 0.3], 20, "r_grid"),
        ([0.3, 0.7, 0.3], 20, "r_grid"),
    ])
    def test_bad_ratio_or_scale_rejected(self, r_grid, n, field):
        """r < 0 once ran and reported a blocked-fraction limit of 2.0; a repeated ratio
        gave a grid spacing of 0 and a FAIL verdict."""
        with pytest.raises(DomainError) as info:
            phase_scan(SYM, r_grid, n=n, horizon=5.0, t1=1.0, reps=2, seed=0)
        assert info.value.field == field

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
        assert "grid_dt" not in rep.config


class TestTimeAverage:
    """``experiments._time_average`` against fsum of value x overlap over every row."""

    TIMES = np.array([0.0, 0.7, 1.3, 2.0, 3.1])
    VALUES = np.array([0.2, 1.0, 0.45, 0.6, 0.35])
    HORIZON = 4.0

    @staticmethod
    def reference(times, values, t_lo, t_hi, horizon):
        ends = list(times[1:]) + [horizon]
        overlap = (max(0.0, min(end, t_hi) - max(start, t_lo))
                   for start, end in zip(times, ends))
        return math.fsum(v * w for v, w in zip(values, overlap)) / (t_hi - t_lo)

    @pytest.mark.parametrize("t_lo,t_hi", [
        (0.0, 1.0), (0.0, HORIZON), (0.8, 1.2), (0.5, 2.0), (1.3, 3.1), (2.5, HORIZON),
        (3.3, HORIZON),
    ], ids=["from-0", "whole-path", "inside-one-row", "ends-on-jump", "jump-to-jump",
            "ends-at-horizon", "after-last-jump"])
    def test_matches_reference(self, t_lo, t_hi):
        got = experiments._time_average(self.TIMES, self.VALUES, t_lo, t_hi)
        expected = self.reference(self.TIMES, self.VALUES, t_lo, t_hi, self.HORIZON)
        assert got == pytest.approx(expected, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("t_lo,t_hi", [(0.0, 2.5), (1.0, 2.5), (0.3, 0.9)])
    def test_one_row_path(self, t_lo, t_hi):
        times, values = np.array([0.0]), np.array([0.35])
        assert experiments._time_average(times, values, t_lo, t_hi) == pytest.approx(
            self.reference(times, values, t_lo, t_hi, 2.5), rel=1e-14, abs=0.0)

    def test_long_path_batches(self):
        """The oracle cross-check's use: 20 batches over a path of many rows."""
        rng = np.random.default_rng(7)
        times = np.concatenate([[0.0], np.cumsum(rng.exponential(0.05, 4000))])
        horizon = float(times[-1]) + 0.03
        values = rng.integers(0, 9, len(times)) / 8
        edges = np.linspace(horizon / 10, horizon, 21)
        for t_lo, t_hi in zip(edges[:-1], edges[1:]):
            got = experiments._time_average(times, values, t_lo, t_hi)
            assert got == pytest.approx(self.reference(times, values, t_lo, t_hi, horizon),
                                        rel=1e-14, abs=0.0)


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

    @pytest.mark.parametrize("field, kwargs", [
        ("seed", {"seed": -1}),
        ("horizon", {"horizon": 0.0}),
        ("horizon", {"horizon": -5.0}),
        ("horizon", {"horizon": math.inf}),
        ("horizon", {"horizon": math.nan}),
    ])
    def test_bad_input_refused_before_the_oracle_build(self, monkeypatch, field, kwargs):
        """A bad seed or horizon is refused by name before the build."""
        built = []
        monkeypatch.setattr(oracle, "build_generator", lambda *args: built.append(args))
        args = {"horizon": 10.0, "seed": 5, **kwargs}
        with pytest.raises(DomainError) as err:
            oracle_cross_check(SYM, ScalingParams(n=2, c2=1), **args)
        assert err.value.field == field
        assert built == []


class TestMartingaleDecay:
    def test_rms_ratio_and_report_shape(self, monkeypatch):
        monkeypatch.setattr(experiments, "SLOPE_RANGE", (-1.0, -0.05))
        monkeypatch.setattr(experiments, "BOOTSTRAP", 200)
        rep = martingale_decay(SYM, 0.3, (100, 200), horizon=5.0, reps=8, seed=4242)
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
        ((0, 100), 4, "n_list"),
        ((-5, 10), 4, "n_list"),
    ])
    def test_unfittable_input_rejected(self, n_list, reps, field):
        with pytest.raises(DomainError) as info:
            martingale_decay(SYM, 0.3, n_list, horizon=2.0, reps=reps, seed=1)
        assert info.value.field == field

    @pytest.mark.parametrize("r", [math.nan, -0.3, 0.0, math.inf])
    def test_bad_ratio_rejected(self, r):
        with pytest.raises(DomainError) as info:
            martingale_decay(SYM, r, (20, 40), horizon=2.0, reps=4, seed=1)
        assert info.value.field == "r"

    @pytest.mark.parametrize("keyword, value", [("bootstrap", 200),
                                                ("slope_range", (-1.0, -0.05))])
    def test_removed_keywords_raise_type_error(self, keyword, value):
        """The slope range and the draw count are the module constants, not arguments."""
        with pytest.raises(TypeError, match=keyword):
            martingale_decay(SYM, 0.3, (20, 40), horizon=2.0, reps=4, seed=1, **{keyword: value})

    def test_slope_close_to_inverse_sqrt(self, monkeypatch):
        """log-log slope over doubling n sits near -1/2 for each coordinate."""
        monkeypatch.setattr(experiments, "SLOPE_RANGE", (-0.75, -0.25))
        monkeypatch.setattr(experiments, "BOOTSTRAP", 200)
        rep = martingale_decay(SYM, 0.3, (50, 100, 200, 400), horizon=5.0, reps=10, seed=99)
        assert rep.passed, rep.criteria

    @pytest.mark.parametrize("reps", [1, 2, 7, 20, 33])
    def test_bootstrap_mean_squares_match_the_gathered_mean(self, reps):
        """The replication-major gather sums in the order of the mean over axis -2 of the
        gathered draws, bit for bit, on residuals of several magnitudes and a column of 0s."""
        rng = np.random.default_rng(reps)
        for trial in range(10):
            sups = rng.random((4, reps, 3)) * 10.0 ** rng.integers(-8, 4, (4, reps, 3))
            sups[:, :, trial % 3] *= trial >= 3  # all 0 in one column in the first 3 trials
            picks = rng.integers(0, reps, (experiments.BOOTSTRAP, 4, reps))
            expected = np.mean(sups[np.arange(4)[:, None], picks]**2, axis=-2)
            got = experiments._bootstrap_mean_squares(sups, picks)
            assert got.shape == expected.shape == (experiments.BOOTSTRAP, 4, 3)
            assert got.tobytes() == expected.tobytes()
            assert (trial >= 3) or not got[..., trial % 3].any()

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

    def test_zero_rms_point_estimate_is_undefined_and_fails(self, monkeypatch):
        params = ModelParams(0.3, 1.7, 0.6, 1.3)
        monkeypatch.setattr(experiments, "BOOTSTRAP", 200)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = martingale_decay(params, 0.7, (50, 100), horizon=5.0, reps=5, seed=5)
        assert [row["rms_sup_y_star"] for row in rep.metrics] == [0.0, 0.0]
        assert rep.notes[0] == "slope_y_star undefined: RMS of 0 at n = [50, 100]"
        assert rep.criteria["slope_y_star_in_range"] is False
        for note in rep.notes[1:]:
            assert "nan" not in note


class TestRefusedBeforeAnyRun:
    """Input that leaves a suite nothing to measure is a DomainError (CLI exit 2)
    raised before the first run, never a FAIL verdict or a foreign error."""

    @pytest.fixture(autouse=True)
    def no_run(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(sim, "simulate_process", refused)

    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.nan, math.inf])
    def test_martingale_bad_horizon(self, horizon):
        """At horizon 0 every residual is 0: the slopes were undefined and the verdict FAIL."""
        with pytest.raises(DomainError, match="horizon must be finite and > 0") as info:
            martingale_decay(SYM, 0.3, (100, 200), horizon, reps=2, seed=1)
        assert info.value.field == "horizon"

    def test_martingale_zero_horizon_cli_exits_2(self, capsys, tmp_path):
        code = cli.main(["experiment", "--experiment", "martingale-decay", "--horizon", "0",
                         "--seed", "1", "--n-list", "100,200", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: horizon ")
        assert not any(tmp_path.iterdir())

    # Grid points 0 and 15: none in the sensitivity window [16, 20].
    COARSE = dict(n_list=(20,), horizon=20.0, burn_in=8.0, replications=2, grid_dt=15.0)

    @pytest.mark.parametrize("suite", [
        lambda cfg: convergence_sweep(cfg(0.3), "aux-saturated"),
        lambda cfg: convergence_sweep(cfg(0.3), "main"),
        lambda cfg: no_blocking_certificate(cfg(0.7)),
    ], ids=["convergence-aux", "convergence-main", "no-blocking"])
    def test_grid_without_point_in_sensitivity_window(self, suite):
        """Numpy once refused the empty window: 'zero-size array to reduction operation'."""
        with pytest.raises(DomainError, match="no grid point in the window") as info:
            suite(lambda r: small_cfg(r, **self.COARSE))
        assert info.value.field == "grid_dt"

    @pytest.mark.parametrize("flags", [
        ["--experiment", "convergence", "--target", "aux-noblock", "--c2", "70"],
        ["--experiment", "no-blocking", "--c2", "70"],
    ], ids=["convergence", "no-blocking"])
    def test_coarse_grid_cli_exits_2(self, capsys, tmp_path, flags):
        code = cli.main(["experiment", *flags, "--n", "100", "--n-list", "20,40",
                         "--horizon", "20", "--burn-in", "8", "--grid-dt", "15",
                         "--seed", "1", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: grid_dt ")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("suite, horizon, grid_dt, field", [
        pytest.param("convergence", 1.0, 2.0, "grid_dt", id="1.0-2.0"),
        pytest.param("convergence", 0.5, 0.75, "grid_dt", id="0.5-0.75"),
        pytest.param("no-blocking", 20.0, 50.0, "grid_dt", id="no-blocking"),
        pytest.param("no-blocking", 0.5, 0.01, "path_sample_dt", id="no-blocking-path-samples"),
    ])
    def test_grid_dt_past_the_horizon_refused(self, monkeypatch, suite, horizon, grid_dt, field):
        """The grid's only point is then t = 0.  The convergence fluid path has no step; it
        was refused from inside the fluid solve as 'horizon must be at least dt', after the
        first n's reference, naming horizon.  No-blocking took its fixed-point distance at
        t = 0 alone, before any jump, and printed FAIL; its 1-unit path samples
        (``PATH_SAMPLE_DT``) past the horizon are refused by name the same way."""
        monkeypatch.setattr(experiments.fluid, "solve_system",
                            lambda *a: pytest.fail("a fluid path was solved"))
        monkeypatch.setattr(experiments, "_replicate", lambda *a: pytest.fail("a run started"))
        cfg = small_cfg(0.3 if suite == "convergence" else 0.7, n_list=(20,), horizon=horizon,
                        burn_in=0.0, replications=2, grid_dt=grid_dt)
        with pytest.raises(DomainError, match="exceeds the horizon") as info:
            if suite == "convergence":
                convergence_sweep(cfg, "aux-saturated")
            else:
                no_blocking_certificate(cfg)
        assert info.value.field == field

    def test_grid_dt_past_the_horizon_cli_exits_2(self, capsys, tmp_path):
        for flags in (["--experiment", "convergence", "--target", "main", "--horizon", "1",
                       "--grid-dt", "2"],
                      ["--experiment", "no-blocking", "--n", "100", "--c2", "70",
                       "--replications", "2", "--horizon", "20", "--grid-dt", "50"]):
            code = cli.main(["experiment", *flags, "--n-list", "20", "--burn-in", "0",
                             "--seed", "1", "--out", str(tmp_path)])
            assert code == 2, flags
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and err.startswith("error: grid_dt "), flags
            assert not any(tmp_path.iterdir())

    # Whole time units 0-5: none in the sensitivity window [5.2, 5.5].
    SHORT = dict(n_list=(20, 40), horizon=5.5, burn_in=2.6, replications=2)

    def test_no_path_sample_in_sensitivity_window(self):
        """The mean path's 1-unit samples (``PATH_SAMPLE_DT``) once met numpy's
        'zero-size array to reduction operation maximum' after every run."""
        with pytest.raises(DomainError, match="no grid point in the window") as info:
            no_blocking_certificate(small_cfg(0.7, **self.SHORT))
        assert info.value.field == "path_sample_dt"
        assert str(info.value).startswith(f"path_sample_dt {experiments.PATH_SAMPLE_DT!r} ")

    def test_no_path_sample_cli_exits_2(self, capsys, tmp_path):
        code = cli.main(["experiment", "--experiment", "no-blocking", "--horizon", "5.5",
                         "--burn-in", "2.6", "--n-list", "20,40", "--n", "40", "--c2", "28",
                         "--replications", "2", "--seed", "1", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: path_sample_dt ")
        assert not any(tmp_path.iterdir())


def test_no_blocking_runs_with_one_path_sample_in_the_window():
    """The last whole time unit at 2 burn_in still leaves the window one sample."""
    report = no_blocking_certificate(small_cfg(0.7, n_list=(20,), horizon=5.5, burn_in=2.5,
                                               replications=2))
    assert len(report.metrics) == len(report.sensitivity) == 1


@pytest.mark.parametrize("target, r", [("main", 0.3), ("aux-saturated", 0.3),
                                       ("aux-noblock", 0.7)])
def test_fluid_row_past_the_horizon_not_compared(target, r):
    """20 / 0.03 = 666.67: the fluid path once rounded to 668 rows, one past the horizon,
    against the run's 667 grid points, and numpy refused 'operands could not be broadcast
    together'.  Both now floor to the same 667."""
    cfg = small_cfg(r, n_list=(20, 40), horizon=20.0, burn_in=5.0, replications=2, grid_dt=0.03)
    report = convergence_sweep(cfg, target)
    scaling = ScalingParams(40, experiments.c2_for(40, r))
    ref = experiments._fluid_reference(target, SYM, scaling.c2 / 40, 20.0, 0.03)
    assert len(ref) == sim.grid_points(20.0, 0.03) == 667
    assert ref.flags.c_contiguous  # so grid_sup reads it without a copy a call
    traj = sim.simulate_process(target, (0,) * ref.shape[1], SYM, scaling, 20.0, cfg.base_seed)
    sups = sim.grid_sup(traj, 0.03, ref, (5.0, 10.0)).tolist()
    assert [row["sup_distances"][0] for row in (report.metrics[1], report.sensitivity[1])] == sups


def test_fluid_row_past_the_horizon_cli_runs(capsys, tmp_path):
    code = cli.main(["experiment", "--experiment", "convergence", "--target", "aux-saturated",
                     "--n-list", "50,100", "--replications", "3", "--horizon", "20",
                     "--burn-in", "5", "--grid-dt", "0.03", "--seed", "1", "--out", str(tmp_path)])
    assert code in (0, 1)
    assert capsys.readouterr().err == ""
    assert sorted(p.suffix for p in tmp_path.iterdir()) == [".csv", ".json"]


def test_saturation_does_not_read_the_grid():
    """The coarse grid that the path suites refuse leaves the saturation report as it was."""
    cfg = small_cfg(0.3, n_list=(20,), horizon=20.0, burn_in=8.0, replications=2)
    fine = saturation_certificate(cfg)
    coarse = saturation_certificate(dataclasses.replace(cfg, grid_dt=15.0))
    assert (coarse.metrics, coarse.sensitivity, coarse.criteria, coarse.notes) == (
        fine.metrics, fine.sensitivity, fine.criteria, fine.notes)


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
        lambda: martingale_decay(SYM, 0.3, (20, 40), 2.0, 2, 1),
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


class TestNegativeSeedRefused:
    """A negative seed is refused by name in the simulator, before numpy sees it."""

    @pytest.mark.parametrize("suite", [
        lambda: convergence_sweep(small_cfg(0.3, n_list=(20,), replications=2, base_seed=-5),
                                  "aux-saturated"),
        lambda: no_blocking_certificate(small_cfg(0.7, n_list=(20,), replications=2,
                                                  base_seed=-5)),
        lambda: saturation_certificate(small_cfg(0.3, n_list=(20,), replications=2,
                                                 base_seed=-5)),
        lambda: phase_scan(SYM, [0.3, 0.7], 20, 4.0, 1.0, 2, -1),
        lambda: martingale_decay(SYM, 0.3, (20, 40), 2.0, 2, -3),
        lambda: oracle_cross_check(SYM, ScalingParams(n=2, c2=1), 10.0, seed=-1),
    ], ids=["convergence", "no-blocking", "saturation", "phase-scan", "martingale",
            "oracle-check"])
    def test_suite_raises(self, suite):
        with pytest.raises(DomainError, match="seed must be >= 0") as err:
            suite()
        assert err.value.field == "seed"


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


class TestReplicate:
    """The run sweep behind every suite's ``workers``."""

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        """Both once ran serially without a word."""
        with pytest.raises(DomainError) as info:
            phase_scan(SYM, [0.3, 0.7], n=20, horizon=5.0, t1=1.0, reps=2, seed=0,
                       workers=workers)
        assert info.value.field == "workers"

    @pytest.mark.parametrize("workers, reps, cpus, pools", [
        (500, 2, 4, [2]), (500, 9, 4, [4]), (3, 9, 4, [3]), (2, 9, 1, []), (2, 9, None, []),
        (2, 1, 4, []),
    ])
    def test_pool_capped_at_replications_and_cpus(self, monkeypatch, workers, reps, cpus,
                                                   pools):
        """A pool forks all its processes at once: 500 workers once meant 500 interpreters."""
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, seeds, chunksize):
                return map(fn, seeds)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert experiments._replicate(seed_rep, (), 7, reps, workers) == (
            list(range(7, 7 + reps)), 0)
        assert sizes == pools
