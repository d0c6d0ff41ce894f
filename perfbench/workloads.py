"""The four workloads: seeded inputs and the jobs of one pass.

Each workload is a closed loop: a job is one call into the toolkit's public
API, and the next job starts only when the previous one has returned.  All
calls go through module attributes (``experiments.``, ``sim.``, ``fluid.``,
...) so the probe in tracing.py sees them.  Every experiment runs with
``workers=1``, in this process.

Sizes are the acceptance configurations with fewer replications and
instances, so that one pass takes a few seconds and every job gets several
tries in a run (the run reports each job's best time; see README.md).
"""

import contextlib
import io
import os
import sys
from dataclasses import dataclass
from typing import Callable

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "twolevel", "__init__.py")):
    raise ImportError(f"the twolevel sources are not under {SRC}")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from twolevel import cli, experiments, fluid, model, oracle, skorokhod  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402

SYM = model.ModelParams(0.5, 1.0, 1.0, 1.0)
FLUID_HORIZON, FLUID_DT = 10.0, 1e-3

# mc-main: criteria 02, 03 and 08 with 20 replications.  The two
# certificates are called once per block of 5 replications (base seeds
# seed, seed+5, ...), which runs exactly the replications of one call with
# 20; short jobs make the best-of-k time steady on a noisy host.
MC_REPS, MC_BLOCK = 20, 5
# paths-aux: criterion 04's sweep, called once per n, and the `simulate`
# command at n=2000.
CONV_REPS = 20
CLI_REPS = 1
# fluid-paths: criterion 06's 21 instances, plus drawn instances for the
# three reflected fluid solvers.
CROSS_DRAWS = 20
REFLECTED_DRAWS = 20
# oracle-exact: 3,721 states, a 106 MiB dense generator.  With BLAS on one
# thread, uniformization to t=5 alone takes about 6 s; t=0.25 and t=1 keep
# two calls and a transient share near the 57% measured with all cores at
# t=1 and t=5.
ORACLE_SCALING = model.ScalingParams(60, 30)
TRANSIENT_TIMES = (0.25, 1.0)
CROSS_CHECK_SCALING = model.ScalingParams(20, 10)


@dataclass(frozen=True)
class Job:
    """One call into the public API.

    ``run(ctx)`` makes the call and returns its output; ``check(out, ctx)``
    runs after the pass, outside the timed region, raises CheckFailed on a
    bad output and returns counts.  ``ctx`` is a dict shared by the jobs
    of one pass (the oracle jobs pass the generator along through it).
    """

    group: str
    label: str
    run: Callable
    check: Callable


def _draw_overloaded(rng):
    """Random overloaded instance, as drawn by the acceptance criteria."""
    params = model.ModelParams(
        rng.uniform(0.25, 0.85),
        rng.uniform(0.5, 2.0),
        rng.uniform(0.5, 2.0),
        rng.uniform(0.5, 2.0),
    )
    return params, rng.uniform(0.15, 0.85) * model.critical_ratio(params)


def mc_main_jobs(seed):
    jobs = []
    for certificate, r, group, kwargs in (
            (experiments.saturation_certificate, 0.3, "saturation_s", {"band": 0.05}),
            (experiments.no_blocking_certificate, 0.7, "no_blocking_s",
             {"fixed_point_band": 0.08})):
        for start in range(0, MC_REPS, MC_BLOCK):
            cfg = experiments.ExperimentConfig(SYM, r, (400,), 50.0, 10.0, MC_BLOCK, seed + start)
            jobs.append(Job(
                group, f"{certificate.__name__} base_seed {seed + start}",
                lambda ctx, f=certificate, cfg=cfg, kw=kwargs: f(cfg, workers=1, **kw),
                lambda rep, ctx: checks.check_report(rep, 1, MC_BLOCK)))
    n_list = (100, 200, 400, 800)
    jobs.append(Job(
        "martingale_s", "martingale_decay",
        lambda ctx: experiments.martingale_decay(
            SYM, 0.3, n_list, horizon=10.0, reps=MC_REPS, seed=seed, workers=1),
        lambda rep, ctx: checks.check_report(rep, len(n_list), MC_REPS)))
    return jobs


def paths_aux_jobs(seed):
    jobs = []
    for target, r in (("aux-saturated", 0.3), ("aux-noblock", 0.7)):
        # Criterion 04's configuration; its verdict is red by design and is
        # recorded, never gated on.
        for n in (50, 100, 200, 400):
            cfg = experiments.ExperimentConfig(SYM, r, (n,), 20.0, 0.0, CONV_REPS, seed)
            jobs.append(Job(
                "convergence_s", f"convergence_sweep {target} n={n}",
                lambda ctx, cfg=cfg, target=target: experiments.convergence_sweep(
                    cfg, target, threshold=0.08, workers=1),
                lambda rep, ctx: checks.check_report(rep, 1, CONV_REPS)))
    for process, ncols in (("main", 3), ("aux-saturated", 2), ("aux-noblock", 2)):
        argv = ["simulate", "--process", process, "--n", "2000", "--c2", "600",
                "--horizon", "30", "--replications", str(CLI_REPS), "--seed", str(seed)]
        jobs.append(Job(
            "simulate_csv_s", f"cli simulate {process}",
            lambda ctx, argv=argv: _cli(argv + ["--out", ctx["out_dir"]]),
            lambda code, ctx, process=process, ncols=ncols: _check_simulate(
                code, ctx, process, ncols)))
    return jobs


def _cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _check_simulate(code, ctx, process, ncols):
    checks.require(code == 0, f"simulate --process {process} exited with {code}")
    names = [f for f in sorted(os.listdir(ctx["out_dir"]))
             if f.startswith(f"sim_{process}_seed") and f.endswith(".csv")]
    checks.require(len(names) == CLI_REPS,
                   f"simulate --process {process} wrote {len(names)} CSV files")
    counts = {}
    for name in names:
        path = os.path.join(ctx["out_dir"], name)
        rows = ctx["csv_rows"].get(path)
        checks.require(rows is not None, f"{name} was not written by write_trajectory_csv")
        for key, value in checks.check_csv(path, rows, ncols + 1).items():
            counts[key] = counts.get(key, 0) + value
    return counts


def fluid_paths_jobs(seed):
    rng = np.random.default_rng(seed)
    cross = [(SYM, 0.3)] + [_draw_overloaded(rng) for _ in range(CROSS_DRAWS)]
    reflected = []
    for _ in range(REFLECTED_DRAWS):
        params, r = _draw_overloaded(rng)
        reflected.append((params, r, 1.3 * model.critical_ratio(params)))
    jobs = []
    for i, (params, r) in enumerate(cross):
        jobs.append(Job("cross_method_s", f"cross-method instance {i}",
                        lambda ctx, params=params, r=r: _cross_method(params, r),
                        _check_cross_method))
    for i, (params, r, r_under) in enumerate(reflected):
        jobs.append(Job("reflected_paths_s", f"reflected instance {i}",
                        lambda ctx, params=params, r=r, r_under=r_under: _reflected(
                            params, r, r_under),
                        lambda out, ctx, params=params, r=r: _check_reflected(out, params, r)))
    return jobs


def _cross_method(params, r):
    picard = skorokhod.solve_generalized(
        fluid.gbar_functional(params, r, (0.0, 0.0)), FLUID_HORIZON, FLUID_DT)
    euler = fluid.aux_saturated_fluid(params, r, (0.0, 0.0), FLUID_HORIZON, dt=FLUID_DT)
    return picard, euler


def _check_cross_method(out, ctx):
    (x, x_reg, _), euler = out
    y_star = skorokhod.SampledPath(0.0, FLUID_DT, euler.y_star)
    return checks.check_cross_method(
        skorokhod.check_complementarity, x, x_reg, y_star, euler.regulator)


def _reflected(params, r, r_under):
    origin = (0.0, 0.0)
    return (
        fluid.aux_saturated_fluid(params, r, origin, FLUID_HORIZON, dt=FLUID_DT),
        fluid.hybrid_fluid(params, r, model.FluidState(0.0, 0.0, 0.0), FLUID_HORIZON,
                           dt=FLUID_DT),
        fluid.aux_noblock_fluid(params, r_under, origin, FLUID_HORIZON, dt=FLUID_DT),
    )


def _check_reflected(out, params, r):
    sat, hybrid, noblock = out
    for sol, col in ((sat, 0), (noblock, 2)):
        reflected = skorokhod.SampledPath(0.0, FLUID_DT, sol.path.values[:, col])
        checks.check_reflection(skorokhod.check_complementarity, reflected, sol.regulator)
    checks.require(len(hybrid) == len(sat.path), "hybrid path has the wrong length")
    checks.lower_bound_margin(model.h_bar, sat, params, r, 0.0, FLUID_DT)
    return {}


def oracle_exact_jobs(seed):
    sc = ORACLE_SCALING

    def build(ctx):
        ctx["g"] = oracle.build_generator(SYM, sc)
        return ctx["g"]

    def stationary(ctx):
        ctx["pi"] = oracle.stationary_distribution(ctx["g"])
        return ctx["pi"]

    transient = [
        Job("transient_s", f"transient_distribution t={t:g}",
            lambda ctx, t=t: oracle.transient_distribution(ctx["g"], 0, t),
            lambda dist, ctx: checks.check_transient(dist))
        for t in TRANSIENT_TIMES
    ]
    return [
        Job("stationary_s", "build_generator", build,
            lambda g, ctx: checks.check_generator(g)),
        Job("stationary_s", "stationary_distribution", stationary,
            lambda pi, ctx: checks.check_stationary(ctx["g"], pi)),
        Job("stationary_s", "stationary_moments",
            lambda ctx: oracle.stationary_moments(ctx["pi"], sc),
            lambda mom, ctx: checks.require(
                len(mom) == 4 and all(np.isfinite(mom)), f"moments {mom}")),
        *transient,
        Job("cross_check_s", "oracle_cross_check",
            lambda ctx: experiments.oracle_cross_check(SYM, CROSS_CHECK_SCALING, 2000.0, seed),
            lambda rep, ctx: checks.check_report(rep, 4, 1, per_rep_lists=False)),
    ]


WORKLOADS = {
    "mc-main": mc_main_jobs,
    "paths-aux": paths_aux_jobs,
    "fluid-paths": fluid_paths_jobs,
    "oracle-exact": oracle_exact_jobs,
}


# The reference kernel of each workload: the one whose work is most like the
# workload's own inner loop (see reference.py).
KERNELS = {
    "mc-main": reference.Interpreter,
    "paths-aux": reference.Interpreter,
    "fluid-paths": reference.Interpreter,
    "oracle-exact": reference.DenseProduct,
}


def warm_blas(seed):
    """One dense solve and product, so thread start-up is not charged to a job."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((1024, 1024)) + 1024 * np.eye(1024)
    np.linalg.solve(a, np.ones(1024))
    return float((a @ a).trace())


def fluid_err_max():
    """Largest sup gap of three named fluid paths against the same solver at dt/100."""
    origin = (0.0, 0.0)
    named = (
        lambda dt: fluid.aux_saturated_fluid(SYM, 0.3, origin, FLUID_HORIZON, dt=dt).path.values,
        lambda dt: fluid.hybrid_fluid(SYM, 0.3, model.FluidState(0.0, 0.0, 0.0),
                                      FLUID_HORIZON, dt=dt).values,
        lambda dt: fluid.aux_noblock_fluid(SYM, 0.7, origin, FLUID_HORIZON, dt=dt).path.values,
    )
    return max(float(np.abs(path(FLUID_DT) - path(FLUID_DT / 100)[::100]).max())
               for path in named)
