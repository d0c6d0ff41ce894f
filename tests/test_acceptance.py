"""Acceptance gate: ten numbered criteria, one verdict line each.

Each test prints `ACCEPTANCE criterion NN <slug>: PASS|FAIL` directly to the
terminal (bypassing capture) and then asserts, so the tee'd run log always
contains the full scoreboard.  Base seed 12345 throughout.
"""

import json
import math
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

import twolevel
from twolevel import (
    ExperimentConfig,
    ModelParams,
    ScalingParams,
    aux_saturated_fluid,
    build_generator,
    convergence_sweep,
    critical_ratio,
    gbar_functional,
    h_bar,
    martingale_decay,
    no_blocking_certificate,
    oracle_cross_check,
    overloaded_fixed_point,
    phase_scan,
    saturation_certificate,
    solve_generalized,
    underloaded_fixed_point,
    y_b_closed_form,
)
from fluid_reference import overloaded_rhs, underloaded_rhs
from rate_clauses import all_states, rate_clauses
from sim_reference import enabled

SYM = ModelParams(0.5, 1.0, 1.0, 1.0)
BASE_SEED = 12345


@pytest.fixture
def verdict(capsys):
    """Writes the per-criterion scoreboard line past pytest's capture."""

    def _verdict(num, slug, ok, started):
        elapsed = time.monotonic() - started
        line = (
            f"ACCEPTANCE criterion {num:02d} {slug}: "
            f"{'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)\n"
        )
        with capsys.disabled():
            sys.stdout.write(line)
            sys.stdout.flush()

    return _verdict


def draw_overloaded(rng):
    params = ModelParams(
        rng.uniform(0.25, 0.85),
        rng.uniform(0.5, 2.0),
        rng.uniform(0.5, 2.0),
        rng.uniform(0.5, 2.0),
    )
    return params, rng.uniform(0.15, 0.85) * critical_ratio(params)


def test_criterion_01_threshold_reproduction(verdict):
    started = time.monotonic()
    grid = [round(0.10 + 0.05 * i, 2) for i in range(17)]
    rep = phase_scan(
        SYM, grid, n=200, horizon=50.0, t1=10.0, reps=20, seed=BASE_SEED
    )
    threshold = next(
        (row["r"] for row in rep.metrics if row["mean_blocked_fraction"] < 0.02), None
    )
    elapsed = time.monotonic() - started
    ok = threshold is not None and abs(threshold - 0.5) <= 0.05 + 1e-12 and elapsed <= 600
    verdict(1, "threshold-reproduction", ok, started)
    assert ok, f"estimated threshold {threshold}, elapsed {elapsed:.0f}s"


def test_criterion_02_overloaded_limit(verdict):
    started = time.monotonic()
    cfg = ExperimentConfig(
        params=SYM, r=0.3, n_list=(400,), horizon=50.0, burn_in=10.0,
        replications=50, base_seed=BASE_SEED,
    )
    rep = saturation_certificate(cfg, band=0.05)
    elapsed = time.monotonic() - started
    ok = (
        rep.criteria["prob_at_largest_n"]
        and rep.criteria["blocked_fraction_within_band"]
        and elapsed <= 300
    )
    verdict(2, "overloaded-limit", ok, started)
    assert ok, rep.metrics[-1]


def test_criterion_03_underloaded_limit(verdict):
    started = time.monotonic()
    cfg = ExperimentConfig(
        params=SYM, r=0.7, n_list=(400,), horizon=50.0, burn_in=10.0,
        replications=50, base_seed=BASE_SEED,
    )
    rep = no_blocking_certificate(cfg, fixed_point_band=0.08)
    elapsed = time.monotonic() - started
    ok = (
        rep.criteria["prob_at_largest_n"]
        and rep.criteria["fixed_point_within_band"]
        and elapsed <= 300
    )
    verdict(3, "underloaded-limit", ok, started)
    assert ok, rep.metrics[-1]


def test_criterion_04_scaling_convergence(verdict):
    # The median sup distance shrinks like C / sqrt(n), with C ~ 1.9-2.1 set by
    # the model's fluctuations (see TestStationaryFluctuations in test_sim.py):
    # ~0.10 at n=400, so the 0.08 bound is checked at n=1600 (~0.05).
    started = time.monotonic()
    results = {}
    for target, r in (("aux-saturated", 0.3), ("aux-noblock", 0.7)):
        cfg = ExperimentConfig(
            params=SYM, r=r, n_list=(50, 100, 200, 400, 1600), horizon=20.0,
            burn_in=0.0, replications=20, base_seed=BASE_SEED,
        )
        rep = convergence_sweep(cfg, target, threshold=0.08)
        results[target] = (
            rep.passed,
            [row["median_sup_distance"] for row in rep.metrics],
        )
    ok = all(passed for passed, _ in results.values())
    verdict(4, "scaling-convergence", ok, started)
    assert ok, {t: medians for t, (_, medians) in results.items()}


def test_criterion_05_oracle_equivalence(verdict):
    started = time.monotonic()
    ok = True
    for n in (2, 3):
        rep = oracle_cross_check(SYM, ScalingParams(n=n, c2=1), 2000.0, BASE_SEED)
        ok = ok and rep.passed
    params = ModelParams(0.35, 1.3, 0.8, 1.1)
    for n in range(1, 5):
        for c2 in range(1, 4):
            scaling = ScalingParams(n=n, c2=c2)
            states = all_states(scaling)
            index = {s: k for k, s in enumerate(states)}
            g = build_generator(params, scaling)
            for i, state in enumerate(states):
                # Independent hand-written clauses vs the oracle generator and
                # the table's rates as the simulator reads them.
                expected = np.zeros(len(states))
                for target, rate in rate_clauses(state, params, scaling):
                    expected[index[target]] += rate
                simulated = np.zeros(len(states))
                for delta, rate in enabled("main", state, params, scaling):
                    simulated[index[tuple(a + b for a, b in zip(state, delta))]] += rate
                ok = ok and np.abs(np.delete(g[i], i) - np.delete(expected, i)).max() <= 1e-13
                ok = ok and np.abs(simulated - expected).max() <= 1e-13
    verdict(5, "oracle-equivalence", ok, started)
    assert ok


def test_criterion_06_cross_method_skorokhod(verdict):
    started = time.monotonic()
    rng = np.random.default_rng(BASE_SEED)
    instances = [(SYM, 0.3)] + [draw_overloaded(rng) for _ in range(20)]
    worst = 0.0
    for params, r in instances:
        picard, _, _ = solve_generalized(gbar_functional(params, r, (0.0, 0.0)), 10.0, 1e-3)
        exact = aux_saturated_fluid(params, r, (0.0, 0.0), 10.0, dt=1e-3)
        worst = max(worst, float(np.abs(picard.values - exact.y_star).max()))
    # Worst measured gap with windowed Picard: 1.8e-7 here, 2.2e-7 on perfbench's draws
    # (seeds 1-10), each within 3e-11 of full-horizon Picard's.
    ok = worst <= 1e-5
    verdict(6, "cross-method-skorokhod", ok, started)
    assert ok, f"worst sup-norm gap {worst}"


def test_criterion_07_analytic_identities(verdict):
    started = time.monotonic()
    rng = np.random.default_rng(BASE_SEED)
    worst_fp = worst_h = worst_fd = 0.0
    for _ in range(1000):
        params, r = draw_overloaded(rng)
        d = overloaded_rhs(overloaded_fixed_point(params, r), params, r)
        worst_fp = max(worst_fp, abs(d[0]), abs(d[1]))
        r_u = critical_ratio(params) * rng.uniform(1.05, 1.6)
        d = underloaded_rhs(underloaded_fixed_point(params, r_u), params, r_u)
        worst_fp = max(worst_fp, abs(d[0]), abs(d[1]))
        limit = h_bar(1e6, params, r, 0.0)
        worst_h = max(worst_h, abs(limit - sum(overloaded_fixed_point(params, r))))
        y0 = rng.uniform(0.0, 1.0)
        t = rng.uniform(0.1, 5.0)
        h = 1e-5
        fd = (y_b_closed_form(t + h, params, y0) - y_b_closed_form(t - h, params, y0)) / (2 * h)
        mubar = (1 - params.p) * params.mu01 + params.p * params.mu11
        rhs = -mubar * y_b_closed_form(t, params, y0) + params.p * params.mu11
        worst_fd = max(worst_fd, abs(fd - rhs))
    ok = worst_fp <= 1e-12 and worst_h <= 1e-12 and worst_fd <= 1e-6
    verdict(7, "analytic-identities", ok, started)
    assert ok, (worst_fp, worst_h, worst_fd)


def test_criterion_08_martingale_decay(verdict):
    started = time.monotonic()
    rep = martingale_decay(
        SYM, 0.3, (100, 200, 400, 800), horizon=10.0, reps=50, seed=BASE_SEED
    )
    ok = rep.passed
    verdict(8, "martingale-decay", ok, started)
    assert ok, rep.criteria


def test_criterion_09_lower_bound(verdict):
    started = time.monotonic()
    rng = np.random.default_rng(BASE_SEED)
    dt = 1e-3
    worst = math.inf
    instances = [(SYM, 0.3, 0.0)] + [
        (*draw_overloaded(rng), rng.uniform(0.0, 0.5)) for _ in range(100)
    ]
    for params, r, y0 in instances:
        sol = aux_saturated_fluid(params, r, (0.0, y0), 10.0, dt=dt)
        envelope = h_bar(sol.path.times, params, r, y0)
        worst = min(worst, float((sol.y_star + sol.y - envelope).min()))
    # Worst measured margin: -1.6e-13 here, 0.0 on perfbench's draws (seeds 1-10).
    ok = worst >= -1e-9
    verdict(9, "lower-bound", ok, started)
    assert ok, f"worst margin {worst}"


# Directory holding the imported `twolevel` package; the child process gets it
# as an absolute PYTHONPATH entry, so it runs the same code from any cwd.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(twolevel.__file__)))


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "twolevel.cli", *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_criterion_10_determinism(verdict, tmp_path):
    started = time.monotonic()
    ok = True

    stdouts = {run_cli("params", "--c2", "30").stdout for _ in range(2)}
    ok = ok and len(stdouts) == 1

    sim_bytes = set()
    for sub in ("s1", "s2"):
        d = tmp_path / sub
        d.mkdir()
        run_cli(
            "simulate", "--n", "50", "--c2", "15", "--horizon", "10", "--seed",
            str(BASE_SEED), "--replications", "2", "--out", str(d),
        )
        sim_bytes.add(
            b"".join((d / name).read_bytes() for name in sorted(os.listdir(d)))
        )
    ok = ok and len(sim_bytes) == 1

    fluid_bytes = set()
    for sub in ("f1", "f2"):
        d = tmp_path / sub
        d.mkdir()
        run_cli(
            "fluid", "--system", "hybrid", "--n", "100", "--c2", "30",
            "--horizon", "5", "--out", str(d),
        )
        fluid_bytes.add((d / "fluid_hybrid.csv").read_bytes())
    ok = ok and len(fluid_bytes) == 1

    report_bytes = set()
    for sub, workers in (("e1", "1"), ("e2", "1"), ("e3", "3")):
        d = tmp_path / sub
        d.mkdir()
        run_cli(
            "experiment", "--experiment", "convergence", "--target", "aux-noblock",
            "--n", "100", "--c2", "70", "--n-list", "25,50", "--horizon", "8",
            "--burn-in", "2", "--replications", "6", "--seed", str(BASE_SEED),
            "--workers", workers, "--out", str(d),
        )
        report_bytes.add(
            b"".join(
                (d / name).read_bytes()
                for name in sorted(os.listdir(d))
            )
        )
    ok = ok and len(report_bytes) == 1

    verdict(10, "determinism", ok, started)
    assert ok


def test_reports_archived_for_inspection(tmp_path):
    """The acceptance-scale phase scan CLI round-trip stays loadable as JSON."""
    proc = run_cli(
        "experiment", "--experiment", "phase-scan", "--n", "40", "--r-grid",
        "0.2,0.8", "--horizon", "10", "--burn-in", "4", "--replications", "2",
        "--seed", "1", "--out", str(tmp_path),
    )
    assert proc.returncode in (0, 1)
    assert re.match(r"phase_scan: (PASS|FAIL)\n", proc.stdout), proc.stderr
    data = json.loads((tmp_path / "phase_scan_seed1.json").read_text())
    assert data["name"] == "phase_scan"
    assert data["criteria"]
