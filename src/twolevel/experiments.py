"""Statistical experiment suites over the simulator, fluids, and exact oracle.

Each experiment runs a batch of seeded replications, aggregates
symmetric summary statistics, and emits a Report whose verdict can be
re-derived from the raw per-replication metrics it carries.  Replication
i always uses seed base_seed + i, so a report is a pure function of its
configuration; distributing replications over a process pool cannot
change a single byte of it.
"""

import functools
import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import fluid, model, oracle, sim
from .errors import DomainError, InvalidState, RegimeMismatch
from .model import (
    ModelParams,
    Regime,
    ScalingParams,
    blocked_fraction_limit,
    classify_regime,
    critical_ratio,
    underloaded_fixed_point,
    y_bar,
)

TARGETS = tuple(model.PROCESSES)


@dataclass(frozen=True)
class ExperimentConfig:
    params: ModelParams
    r: float
    n_list: tuple
    horizon: float
    burn_in: float
    replications: int
    base_seed: int
    grid_dt: float = 0.01

    def __post_init__(self):
        object.__setattr__(self, "n_list", tuple(int(n) for n in self.n_list))
        _check_scales("n_list", self.n_list)
        _check_positive("r", self.r)
        _check_windows(self.burn_in, self.horizon)
        _check_replications(self.replications)
        _check_positive("grid_dt", self.grid_dt)


@dataclass
class Report:
    """Machine-readable experiment outcome."""

    name: str
    config: dict
    metrics: list
    criteria: dict
    sensitivity: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def passed(self):
        """Conjunction of ``criteria``."""
        return all(self.criteria.values())

    def to_dict(self):
        return {**asdict(self), "passed": self.passed}

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def write_csv(self, fp):
        rows = self.metrics + self.sensitivity
        if not rows:
            fp.write("\n")
            return
        cols = [k for k in rows[0] if not isinstance(rows[0][k], (list, tuple))]
        fp.write(",".join(cols) + "\n")
        for row in rows:
            fp.write(",".join(_csv_cell(row.get(c)) for c in cols) + "\n")


def _csv_cell(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return repr(v)
    return str(v)


def save_report(report, out_dir):
    """Write <name>_seed<base_seed>.json and .csv under out_dir; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{report.name}_seed{report.config['base_seed']}"
    json_path = os.path.join(out_dir, stem + ".json")
    csv_path = os.path.join(out_dir, stem + ".csv")
    with open(json_path, "w") as fp:
        fp.write(report.to_json())
    with open(csv_path, "w") as fp:
        report.write_csv(fp)
    return json_path, csv_path


def _check_replications(reps):
    if reps < 1:
        raise DomainError("replications", f"replications must be at least 1, got {reps}")


def _check_scales(field, n_list):
    if not n_list or min(n_list) < 1:
        raise DomainError(field, f"{field} needs scales, each n >= 1, got {list(n_list)}")


def _check_positive(field, value):
    if not 0 < value < math.inf:
        raise DomainError(field, f"{field} must be finite and > 0, got {value!r}")
    return value


def _check_band(field, band):
    if not 0 <= band < math.inf:
        raise DomainError(field, f"{field} must be finite and >= 0, got {band!r}")


def _check_windows(t1, horizon):
    """Refuse a horizon T that is not finite and > 0, and a metrics window [t1, T]
    or sensitivity window [2 t1, T] that is empty or starts before time 0."""
    _check_positive("horizon", horizon)
    if not 0 <= 2 * t1 < horizon:
        raise DomainError(
            "burn_in",
            f"burn_in must lie in [0, horizon / 2) for the windows [burn_in, horizon] "
            f"and [2 burn_in, horizon]; got burn_in {t1!r}, horizon {horizon!r}",
        )


def _check_grid(cfg, field="grid_dt", dt=None):
    """Refuse a grid k * dt (``cfg.grid_dt`` by default), of ``sim.grid_points`` points,
    with no point in [2 t1, T], or with a step past the horizon (its only point t = 0);
    the DomainError names ``field``."""
    dt = cfg.grid_dt if dt is None else dt
    last = (sim.grid_points(cfg.horizon, dt) - 1) * dt
    if last < 2 * cfg.burn_in:
        raise DomainError(field, f"{field} {dt!r} puts no grid point in the window "
                          f"[2 burn_in, horizon] = [{2 * cfg.burn_in!r}, {cfg.horizon!r}]")
    if cfg.horizon < dt:
        raise DomainError(field, f"{field} {dt!r} exceeds the horizon {cfg.horizon!r}")


def c2_for(n, r):
    """Specialist pool size floor(r*n), at least 1."""
    return max(1, int(math.floor(n * r + 1e-9)))


def _replicate(rep, args, base_seed, reps, workers):
    """rep(*args, base_seed + i) for i < reps, run serially or on up to ``workers`` processes.

    ``rep`` returns (absorbed, value); the result is the list of values
    and the number of absorbed runs.
    """
    _check_replications(reps)
    if workers < 1:
        raise DomainError("workers", f"workers must be at least 1, got {workers}")
    seeds = range(base_seed, base_seed + reps)
    workers = min(workers, reps, os.cpu_count() or 1)  # a pool starts all its processes at once
    if workers == 1:
        results = [rep(*args, seed) for seed in seeds]
    else:
        from concurrent.futures import ProcessPoolExecutor  # 12-14 ms a serial run never needs
        chunk = max(1, math.ceil(reps / (4 * workers)))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(functools.partial(rep, *args), seeds, chunksize=chunk))
    return [value for _, value in results], sum(absorbed for absorbed, _ in results)


def _absorbed_notes(absorbed, runs):
    """A note when some runs ended in an absorbing state, else none."""
    return [f"{absorbed} of {runs} replications absorbed"] if absorbed else []


def _window_rows(key, value, c2, t1, reps, seed, stats):
    """Metrics row (window [t1, T]) and sensitivity row ([2 t1, T]) of one grid point.

    Both start with the grid point, its window and its seed range;
    ``stats(j)`` gives the rest of the row for window j = 0, 1.  The key
    order is the CSV column order.
    """
    return tuple(
        {key: value, "c2": c2, "window_start": t1 * (j + 1), "replications": reps,
         "seed_start": seed, "seed_end": seed + reps - 1, **stats(j)}
        for j in (0, 1)
    )


def _time_average(times, values, t_lo, t_hi):
    """Exact time average of a piecewise-constant path on [t_lo, t_hi], t_hi at most its
    horizon, read from the rows whose holding interval meets the window alone."""
    first = max(0, np.searchsorted(times, t_lo, side="right") - 1)  # the row held at t_lo
    stop = np.searchsorted(times, t_hi)
    edges = np.concatenate(([t_lo], times[first + 1:stop], [t_hi]))
    return float(np.sum(values[first:stop] * np.diff(edges)) / (t_hi - t_lo))


def _params_echo(params, **extra):
    return {"p": params.p, "mu01": params.mu01, "mu11": params.mu11, "mu02": params.mu02,
            **extra}


def _config_echo(cfg, **extra):
    return _params_echo(
        cfg.params, r=cfg.r, n_list=list(cfg.n_list), horizon=cfg.horizon,
        burn_in=cfg.burn_in, replications=cfg.replications, base_seed=cfg.base_seed,
        grid_dt=cfg.grid_dt, **extra,
    )


def _fluid_reference(target, params, r, horizon, grid_dt):
    """Fluid comparison path from the origin sampled on the grid, columns matching the target."""
    system = "hybrid" if target == "main" else target
    sol = fluid.solve_system(system, params, r, (0.0, 0.0, 0.0), horizon, grid_dt)
    cols = [("y_star", "y", "z").index(c) for c in model.PROCESSES[target].columns]
    return np.ascontiguousarray(sol.path.values[:, cols])  # a column pick is Fortran-ordered


def _simulate(process, init, params, scaling, horizon, seed):
    """One full run of ``process``; InvalidState if the event cap truncated it."""
    traj = sim.simulate_process(process, init, params, scaling, horizon, seed)
    if traj.truncated:
        raise InvalidState(f"{process} run (seed {seed}) hit the event cap before t={horizon}")
    return traj


def _convergence_rep(target, params, n, c2, horizon, grid_dt, fluid_values, t1, seed):
    init = (0,) * len(model.PROCESSES[target].columns)
    traj = _simulate(target, init, params, ScalingParams(n, c2), horizon, seed)
    sups = sim.grid_sup(traj, grid_dt, fluid_values, (t1, 2 * t1))
    return traj.absorbed, tuple(sups.tolist())


def convergence_sweep(cfg, target, threshold=0.08, workers=1):
    """Sup-norm distance between rescaled runs and the matching fluid path, per n.

    Verdict passes iff the per-n median distances are non-increasing and
    the final median is at or below ``threshold``.
    """
    if target not in TARGETS:
        raise DomainError("target", f"target must be one of {TARGETS}")
    _check_grid(cfg)
    regime = classify_regime(cfg.params, cfg.r)
    if target == "main" and regime is Regime.Critical:
        raise RegimeMismatch("no fluid prediction exists at the critical ratio")
    pairs, absorbed = [], 0
    for n in cfg.n_list:
        c2 = c2_for(n, cfg.r)
        r_n = c2 / n
        fluid_values = _fluid_reference(target, cfg.params, r_n, cfg.horizon, cfg.grid_dt)
        args = (target, cfg.params, n, c2, cfg.horizon, cfg.grid_dt, fluid_values, cfg.burn_in)
        sups, k = _replicate(_convergence_rep, args, cfg.base_seed, cfg.replications, workers)
        absorbed += k

        def stats(j):
            vals = [s[j] for s in sups]
            return {
                "median_sup_distance": float(np.median(vals)),
                "p90_sup_distance": float(np.quantile(vals, 0.9)),
                "sup_distances": vals,
            }

        pairs.append(_window_rows("n", n, c2, cfg.burn_in, cfg.replications, cfg.base_seed, stats))
    metrics, sensitivity = map(list, zip(*pairs))
    medians = [row["median_sup_distance"] for row in metrics]
    criteria = {
        "median_non_increasing": all(b <= a + 1e-12 for a, b in zip(medians, medians[1:])),
        "final_median_within_threshold": medians[-1] <= threshold,
    }
    return Report(
        name=f"convergence_{target}",
        config=_config_echo(cfg, target=target, threshold=threshold),
        metrics=metrics,
        criteria=criteria,
        sensitivity=sensitivity,
        notes=_absorbed_notes(absorbed, cfg.replications * len(cfg.n_list)),
    )


PATH_SAMPLE_DT = 1.0


def _scale_ratio(cfg, n, c2, regime):
    """c2/n for a certificate's closed form at n, or ``cfg.r`` if flooring c2 left ``regime``."""
    ratio = c2 / n
    return ratio if classify_regime(cfg.params, ratio) is regime else cfg.r


def _noblock_rep(params, n, c2, horizon, grid_dt, t1, fp, seed):
    traj = _simulate("main", (0, 0, 0), params, ScalingParams(n, c2), horizon, seed)
    blocked = sim.window_summary(traj, (t1, 2 * t1)).max_y_star
    dists = sim.grid_sup(traj, grid_dt, fp, (t1, 2 * t1)).tolist()
    out = [(not most > 0, dist) for most, dist in zip(blocked, dists)]
    coarse = sim.rescale(traj, PATH_SAMPLE_DT)
    return traj.absorbed, out + [coarse.values[:, 1:]]


def no_blocking_certificate(cfg, fixed_point_band=None, workers=1):
    """Probability that no operator ever blocks on the window [t1, horizon].

    Passes iff that probability is >= 0.9 at the largest n and
    non-decreasing in n.  When ``fixed_point_band`` is given, the
    across-replication mean path of rescaled (y, z) -- the estimator of
    the limit path, recorded in the report at 1-unit sampling -- must
    additionally stay within the band of the underloaded fixed point
    over the window at the largest n.
    """
    if fixed_point_band is not None:
        _check_band("fixed_point_band", fixed_point_band)
    _check_grid(cfg)
    _check_grid(cfg, "path_sample_dt", PATH_SAMPLE_DT)  # the mean path's samples
    if classify_regime(cfg.params, cfg.r) is not Regime.Underloaded:
        raise RegimeMismatch(f"r={cfg.r} is not underloaded for these parameters")
    fp = underloaded_fixed_point(cfg.params, cfg.r)
    pairs, absorbed = [], 0
    for n in cfg.n_list:
        c2 = c2_for(n, cfg.r)
        fp_n = underloaded_fixed_point(cfg.params, _scale_ratio(cfg, n, c2, Regime.Underloaded))
        args = (cfg.params, n, c2, cfg.horizon, cfg.grid_dt, cfg.burn_in, fp_n)
        results, k = _replicate(_noblock_rep, args, cfg.base_seed, cfg.replications, workers)
        absorbed += k
        sampled = np.array([res[2] for res in results])
        mean_path = sampled.mean(axis=0)
        coarse_grid = PATH_SAMPLE_DT * np.arange(mean_path.shape[0])

        def stats(j):
            zero = [res[j][0] for res in results]
            dists = [res[j][1] for res in results]
            window = coarse_grid >= cfg.burn_in * (j + 1)
            mean_dist = float(np.max(np.abs(mean_path[window] - np.asarray(fp_n))))
            row = {
                "prob_zero_blocking": sum(zero) / len(zero),
                "mean_path_fixed_point_distance": mean_dist,
                "median_fixed_point_distance": float(np.median(dists)),
                "zero_blocking_flags": [bool(b) for b in zero],
                "fixed_point_distances": dists,
            }
            if j == 0:
                row["path_sample_dt"] = PATH_SAMPLE_DT
                row["path_samples"] = [s.tolist() for s in sampled]
            return row

        pairs.append(_window_rows("n", n, c2, cfg.burn_in, cfg.replications, cfg.base_seed, stats))
    metrics, sensitivity = map(list, zip(*pairs))
    probs = [row["prob_zero_blocking"] for row in metrics]
    criteria = {
        "prob_at_largest_n": probs[-1] >= 0.9,
        "prob_non_decreasing": all(b >= a - 1e-12 for a, b in zip(probs, probs[1:])),
    }
    if fixed_point_band is not None:
        criteria["fixed_point_within_band"] = (
            metrics[-1]["mean_path_fixed_point_distance"] <= fixed_point_band
        )
    return Report(
        name="no_blocking",
        config=_config_echo(cfg, fixed_point_band=fixed_point_band),
        metrics=metrics,
        criteria=criteria,
        sensitivity=sensitivity,
        notes=[f"underloaded fixed point (y, z) = ({fp[0]!r}, {fp[1]!r})",
               *_absorbed_notes(absorbed, cfg.replications * len(cfg.n_list))],
    )


def _saturation_rep(params, n, c2, horizon, t1, seed):
    traj = _simulate("main", (0, 0, 0), params, ScalingParams(n, c2), horizon, seed)
    s = sim.window_summary(traj, (t1, 2 * t1), averages=True)
    return traj.absorbed, [(not idle > 0, avg, occupied / n)
                           for idle, avg, occupied in zip(s.max_z, s.average, s.min_occupancy)]


def saturation_certificate(cfg, band=0.05, workers=1):
    """Probability that no specialist idles on [t1, horizon], plus level checks.

    Mirrors no_blocking_certificate for the idle-specialist count, and
    additionally requires the across-replication mean of the window
    time-average of y_star/n to sit within ``band`` of the
    blocked-fraction limit, and the window minimum of (y_star+y)/n to
    stay above y_bar - 0.05.
    """
    _check_band("band", band)
    if classify_regime(cfg.params, cfg.r) is not Regime.Overloaded:
        raise RegimeMismatch(f"r={cfg.r} is not overloaded for these parameters")
    pairs, absorbed = [], 0
    for n in cfg.n_list:
        c2 = c2_for(n, cfg.r)
        limit_n = blocked_fraction_limit(cfg.params, _scale_ratio(cfg, n, c2, Regime.Overloaded))
        args = (cfg.params, n, c2, cfg.horizon, cfg.burn_in)
        results, k = _replicate(_saturation_rep, args, cfg.base_seed, cfg.replications, workers)
        absorbed += k

        def stats(j):
            zero, avgs, mins = (list(col) for col in zip(*(res[j] for res in results)))
            return {
                "prob_zero_idle": sum(zero) / len(zero),
                "mean_blocked_fraction": float(np.mean(avgs)),
                "blocked_fraction_limit": limit_n,
                "min_occupancy_fraction": min(mins),
                "zero_idle_flags": [bool(b) for b in zero],
                "blocked_fraction_averages": avgs,
                "occupancy_minima": mins,
            }

        pairs.append(_window_rows("n", n, c2, cfg.burn_in, cfg.replications, cfg.base_seed, stats))
    metrics, sensitivity = map(list, zip(*pairs))
    probs = [row["prob_zero_idle"] for row in metrics]
    last = metrics[-1]
    criteria = {
        "prob_at_largest_n": probs[-1] >= 0.9,
        "prob_non_decreasing": all(b >= a - 1e-12 for a, b in zip(probs, probs[1:])),
        "blocked_fraction_within_band": (
            abs(last["mean_blocked_fraction"] - last["blocked_fraction_limit"]) <= band
        ),
        "occupancy_above_lower_bound": (
            last["min_occupancy_fraction"] >= y_bar(cfg.params) - 0.05
        ),
    }
    return Report(
        name="saturation",
        config=_config_echo(cfg, band=band),
        metrics=metrics,
        criteria=criteria,
        sensitivity=sensitivity,
        notes=_absorbed_notes(absorbed, cfg.replications * len(cfg.n_list)),
    )


def _phase_rep(params, n, c2, horizon, t1, seed):
    traj = _simulate("main", (0, 0, 0), params, ScalingParams(n, c2), horizon, seed)
    return traj.absorbed, tuple(sim.window_summary(traj, (t1, 2 * t1), averages=True).average)


# phase_scan's cut-off for "no blocking" and its tolerance for the blocked-fraction formula.
BLOCKED_TOL = 0.02
FORMULA_BAND = 0.07


def phase_scan(params, r_grid, n, horizon, t1, reps, seed, workers=1):
    """Empirical blocked fraction across a grid of capacity ratios.

    The estimated threshold is the first grid ratio whose mean blocked
    fraction drops below ``BLOCKED_TOL``; it must land within one grid
    spacing of the critical ratio.  Overloaded grid points (except the
    one nearest the critical ratio, where relaxation is arbitrarily slow)
    must match the blocked-fraction formula within ``FORMULA_BAND``.
    """
    r_grid = sorted(_check_positive("r_grid", float(r)) for r in r_grid)
    if len(set(r_grid)) < max(2, len(r_grid)):
        raise DomainError("r_grid", f"r_grid needs at least two distinct ratios, got {r_grid}")
    _check_scales("n", [n])
    _check_replications(reps)
    _check_windows(t1, horizon)
    r_c = critical_ratio(params)
    spacing = max(b - a for a, b in zip(r_grid, r_grid[1:]))
    nearest = min(range(len(r_grid)), key=lambda i: abs(r_grid[i] - r_c))
    pairs, absorbed = [], 0
    for i, r in enumerate(r_grid):
        c2 = c2_for(n, r)
        results, k = _replicate(_phase_rep, (params, n, c2, horizon, t1), seed, reps, workers)
        absorbed += k
        overloaded = classify_regime(params, r) is Regime.Overloaded
        limit = blocked_fraction_limit(params, r) if overloaded else None

        def stats(j):
            vals = [res[j] for res in results]
            return {
                "mean_blocked_fraction": float(np.mean(vals)),
                "blocked_fraction_limit": limit,
                "near_critical_excluded": i == nearest,
                "blocked_fraction_averages": vals,
            }

        pairs.append(_window_rows("r", r, c2, t1, reps, seed, stats))
    metrics, sensitivity = map(list, zip(*pairs))
    means = [row["mean_blocked_fraction"] for row in metrics]
    threshold = next((r for r, m in zip(r_grid, means) if m < BLOCKED_TOL), None)
    formula_ok = all(
        abs(row["mean_blocked_fraction"] - row["blocked_fraction_limit"]) <= FORMULA_BAND
        for i, row in enumerate(metrics)
        if row["blocked_fraction_limit"] is not None and i != nearest
    )
    criteria = {
        "threshold_found": threshold is not None,
        "threshold_within_grid_spacing": (
            threshold is not None and abs(threshold - r_c) <= spacing + 1e-12
        ),
        "overloaded_points_match_formula": formula_ok,
    }
    return Report(
        name="phase_scan",
        config=_params_echo(
            params, r_grid=r_grid, n=n, horizon=horizon, burn_in=t1, replications=reps,
            base_seed=seed, blocked_tol=BLOCKED_TOL, formula_band=FORMULA_BAND,
        ),
        metrics=metrics,
        criteria=criteria,
        sensitivity=sensitivity,
        notes=[
            f"critical ratio r_c = {r_c!r}",
            f"estimated threshold = {threshold!r}",
            *_absorbed_notes(absorbed, reps * len(r_grid)),
        ],
    )


def oracle_cross_check(params, scaling, horizon, seed):
    """One long run against the exact stationary moments of the same instance.

    Splits the post-burn-in window into 20 batches, estimates each summary
    by the batch-mean average, and passes iff every summary lands within
    3 batch-mean standard errors of the exact value.  A negative seed and
    a horizon that is not finite and > 0 are refused before the oracle is
    built.
    """
    if seed < 0:
        raise DomainError("seed", f"seed must be >= 0, got {seed}")
    _check_positive("horizon", horizon)
    batches = 20
    gen = oracle.build_generator(params, scaling)
    pi = oracle.stationary_distribution(gen)
    exact = oracle.stationary_moments(pi, scaling)
    burn_in = min(horizon / 10.0, 100.0)
    traj = _simulate("main", (0, 0, scaling.c2), params, scaling, horizon, seed)
    n = scaling.n
    summaries = {
        "mean_y_star_frac": traj.states[:, 0] / n,
        "mean_y_frac": traj.states[:, 1] / n,
        "mean_z_frac": traj.states[:, 2] / n,
        "p_block": (traj.states[:, 0] > 0).astype(float),
    }
    edges = np.linspace(burn_in, horizon, batches + 1)
    metrics = []
    window = horizon - burn_in
    low_confidence = window < 1000.0
    for (key, values), exact_val in zip(summaries.items(), exact):
        batch_means = [
            _time_average(traj.times, values, lo, hi)
            for lo, hi in zip(edges[:-1], edges[1:])
        ]
        estimate = float(np.mean(batch_means))
        se = float(np.std(batch_means, ddof=1) / math.sqrt(batches))
        within = abs(estimate - exact_val) <= 3 * se + 1e-12
        metrics.append({
            "summary": key,
            "n": scaling.n,
            "c2": scaling.c2,
            "replications": 1,
            "seed_start": seed,
            "seed_end": seed,
            "estimate": estimate,
            "exact": exact_val,
            "standard_error": se,
            "within_3se": bool(within),
            "batch_means": batch_means,
        })
    criteria = {"all_summaries_within_3se": all(row["within_3se"] for row in metrics)}
    notes = [f"burn_in = {burn_in!r}, batches = {batches}"]
    if low_confidence:
        notes.append("low confidence: averaging window shorter than 1000 time units")
    notes += _absorbed_notes(int(traj.absorbed), 1)
    return Report(
        name="oracle_check",
        config=_params_echo(params, n=scaling.n, c2=scaling.c2, horizon=horizon,
                            base_seed=seed, batches=batches),
        metrics=metrics,
        criteria=criteria,
        notes=notes,
    )


def _martingale_rep(params, n, c2, horizon, seed):
    traj = _simulate("main", (0, 0, 0), params, ScalingParams(n, c2), horizon, seed)
    return traj.absorbed, tuple(float(s) for s in sim.residual_sup(traj))


def _bootstrap_mean_squares(sups, picks):
    """``np.mean(sups[np.arange(len(sups))[:, None], picks]**2, axis=-2)`` bit for bit: per
    draw and n, the mean square of the picked replications' residuals.

    ``sups`` is (n, replication, coordinate), ``picks`` (draw, n, replication).  Each
    replication's squared triple is gathered as one item, replication-major, and summed over
    the leading axis: the same sequential sum, with no 3-wide inner loop.
    """
    squares = np.ascontiguousarray(sups**2)
    triples = squares.view(np.dtype((np.void, squares.itemsize * squares.shape[-1])))[..., 0]
    gathered = triples[np.arange(len(sups)), np.ascontiguousarray(np.moveaxis(picks, -1, 0))]
    return np.sum(gathered.view(squares.dtype).reshape(gathered.shape + squares.shape[-1:]),
                  axis=0) / picks.shape[-1]


# martingale_decay's accepted range of log-log slopes and its number of bootstrap draws.
SLOPE_RANGE = (-0.7, -0.3)
BOOTSTRAP = 1000


def martingale_decay(params, r, n_list, horizon, reps, seed, workers=1):
    """Decay of the sup-residuals as n grows; slope should sit near -1/2.

    Fits a log-log slope of the per-n RMS of each residual coordinate and
    passes iff every coordinate's slope lies in ``SLOPE_RANGE``.  A
    bootstrap of ``BOOTSTRAP`` draws over replications gives a 95% interval
    per coordinate.  A coordinate with an RMS of 0 at some n has no slope
    and fails; its bootstrap draws with an RMS of 0 are left out of its
    interval.  A horizon that is not finite and > 0 is refused before any
    run: at 0 every residual is 0, so no slope exists.
    """
    n_list = [int(n) for n in n_list]
    _check_scales("n_list", n_list)
    _check_positive("r", r)
    _check_positive("horizon", horizon)
    if len(set(n_list)) < 2:
        raise DomainError("n_list", f"n_list needs two distinct n to fit a slope, got {n_list}")
    coord_names = ("y_star", "y", "z")
    runs = [_replicate(_martingale_rep, (params, n, c2_for(n, r), horizon), seed, reps, workers)
            for n in n_list]
    absorbed = sum(k for _, k in runs)
    log_n = np.log(np.asarray(n_list, dtype=float))

    def fit(mean_squares):
        """Per-n RMS and the log-log slope of each column.

        ``mean_squares`` is (..., n, coordinate); one polyfit fits every
        leading index and coordinate at once.  A column with an RMS of 0 at
        some n has no slope: it is left out of the fit and gets NaN, since a
        non-finite column would turn every column's least-squares fit to NaN.
        """
        rms = np.sqrt(mean_squares)
        with np.errstate(divide="ignore"):
            ys = np.moveaxis(np.log(rms), -2, 0).reshape(len(log_n), -1)
        finite = np.isfinite(ys).all(axis=0)
        slopes = np.full(ys.shape[1], np.nan)
        slopes[finite] = np.polyfit(log_n, ys[:, finite], 1)[0]
        return rms, slopes.reshape(rms.shape[:-2] + rms.shape[-1:])

    sups = np.array([values for values, _ in runs])
    rms, slopes = fit(np.mean(sups**2, axis=-2))
    slopes = slopes.tolist()
    rng = np.random.default_rng([seed, 0xB00])
    # One draw for every (bootstrap sample, n): the same stream as a draw per pair in that order.
    picks = rng.integers(0, reps, (BOOTSTRAP, len(n_list), reps))
    boot = fit(_bootstrap_mean_squares(sups, picks))[1]
    metrics = []
    for i, n in enumerate(n_list):
        row = {
            "n": n,
            "c2": c2_for(n, r),
            "replications": reps,
            "seed_start": seed,
            "seed_end": seed + reps - 1,
        }
        for c, name in enumerate(coord_names):
            row[f"rms_sup_{name}"] = float(rms[i, c])
        row["sup_residuals"] = [list(map(float, s)) for s in sups[i]]
        metrics.append(row)
    criteria = {}
    notes = []
    for c, name in enumerate(coord_names):
        # False for an undefined (NaN) slope.
        criteria[f"slope_{name}_in_range"] = bool(
            SLOPE_RANGE[0] <= slopes[c] <= SLOPE_RANGE[1]
        )
        if math.isnan(slopes[c]):
            zero_at = [n for n, v in zip(n_list, rms[:, c]) if v == 0.0]
            notes.append(f"slope_{name} undefined: RMS of 0 at n = {zero_at}")
            continue
        lo, hi = (float(q) for q in np.nanquantile(boot[:, c], [0.025, 0.975]))
        note = f"slope_{name} = {slopes[c]!r}, bootstrap 95% interval [{lo!r}, {hi!r}]"
        left_out = int(np.isnan(boot[:, c]).sum())
        if left_out:
            note += f" from {BOOTSTRAP - left_out} draws; {left_out} left out (RMS of 0 at some n)"
        notes.append(note)
    notes += _absorbed_notes(absorbed, reps * len(n_list))
    return Report(
        name="martingale_decay",
        config=_params_echo(params, r=r, n_list=n_list, horizon=horizon, replications=reps,
                            base_seed=seed, bootstrap=BOOTSTRAP,
                            slope_range=list(SLOPE_RANGE)),
        metrics=metrics,
        criteria=criteria,
        notes=notes,
    )
