"""Command-line interface.

Subcommands:

* ``params``      -- print derived quantities for a parameter set
* ``simulate``    -- run seeded replications, one CSV per replication
* ``fluid``       -- solve a fluid system exactly and write its path as CSV
* ``experiment``  -- run an experiment suite and write its report

Configuration is a flat JSON object (keys p, mu01, mu11, mu02, n, c2,
horizon, burn_in, replications, seed, grid_dt); command-line flags
override file values.  The TWOLEVEL_OUT environment variable supplies
the default output directory.

Exit codes: 0 success (or experiment pass), 1 experiment verdict fail,
2 configuration, validation or numerical error raised by the toolkit,
3 I/O error, 4 any other failure (a bug or exhausted memory), so that a
crash never reads as a failed verdict.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import experiments, fluid, model, oracle, sim
from .errors import BuildError, NoConvergence, NonFinite, SingularSystem, TooManySwitches

CONFIG_KEYS = ("p", "mu01", "mu11", "mu02", "n", "c2", "horizon",
               "burn_in", "replications", "seed", "grid_dt")

DEFAULTS = {
    "p": 0.5, "mu01": 1.0, "mu11": 1.0, "mu02": 1.0,
    "n": 100, "c2": None, "horizon": 50.0, "burn_in": 10.0,
    "replications": 1, "seed": None, "grid_dt": 0.01,
}

EXPERIMENT_NAMES = ("phase-scan", "convergence", "no-blocking",
                    "saturation", "oracle-check", "martingale-decay")

_INT_KEYS = ("n", "c2", "replications", "seed")
_FLOAT_KEYS = ("p", "mu01", "mu11", "mu02", "horizon", "burn_in", "grid_dt")

# The experiments that read each of these flags.  Given on the command line to any
# other experiment, a flag is refused; of several, the first listed here is named.
_SWEEPS = ("convergence", "no-blocking", "saturation")
_FLAG_READERS = {
    "burn_in": ("phase-scan", *_SWEEPS),
    "replications": ("phase-scan", *_SWEEPS, "martingale-decay"),
    "grid_dt": _SWEEPS,
    "target": ("convergence",),
    "n_list": (*_SWEEPS, "martingale-decay"),
    "r_grid": ("phase-scan",),
    "band": ("no-blocking", "saturation"),
    "workers": ("phase-scan", *_SWEEPS, "martingale-decay"),
}


class ConfigError(Exception):
    pass


def _load_config(args):
    cfg = dict(DEFAULTS)
    if args.config is not None:
        try:
            with open(args.config) as fp:
                loaded = json.load(fp)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a flat JSON object")
        for key, value in loaded.items():
            if key not in CONFIG_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            cfg[key] = value
    for key in CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    # int() truncates 40.7, int() and float() take true as 1, and neither names the key.
    for key in (*_INT_KEYS, *_FLOAT_KEYS):
        value, kind = cfg[key], int if key in _INT_KEYS else float
        if value is None and DEFAULTS[key] is None:
            continue
        try:
            if isinstance(value, bool) or kind is int and not float(value).is_integer():
                raise ValueError
            cfg[key] = kind(value)
        except (TypeError, ValueError, OverflowError):
            what = "an integer" if kind is int else "a number"
            raise ConfigError(f"{key} must be {what}, got {value!r}") from None
    if cfg["c2"] is None:
        cfg["c2"] = max(1, cfg["n"] // 2)
    return cfg


def _params_of(cfg):
    params = model.ModelParams(cfg["p"], cfg["mu01"], cfg["mu11"], cfg["mu02"])
    scaling = model.ScalingParams(cfg["n"], cfg["c2"])
    model.validate(params, scaling)
    return params, scaling


def _out_dir(args):
    if args.out is not None:
        return args.out
    return os.environ.get("TWOLEVEL_OUT", ".")


def _dump(cfg):
    sys.stdout.write(json.dumps(cfg, sort_keys=True, indent=2) + "\n")


def _fmt(x):
    return f"{x:.12g}"


def _parse_list(text, flag, kind, columns=None):
    """Comma-separated ``text`` as a tuple of ``kind``, one per name in ``columns`` if given."""
    try:
        values = tuple(kind(part) for part in text.split(","))
        if columns is None or len(values) == len(columns):
            return values
    except ValueError:
        pass
    expected = "comma-separated " + ("integers" if kind is int else "numbers")
    if columns is not None:
        expected = f"{len(columns)} {expected} ({','.join(columns)})"
    raise ConfigError(f"{flag} takes {expected}, got {text!r}")


def _cmd_params(args, cfg):
    params, scaling = _params_of(cfg)
    r = scaling.r
    r_c = model.critical_ratio(params)
    regime = model.classify_regime(params, r)
    lines = [
        f"p = {_fmt(params.p)}",
        f"mu01 = {_fmt(params.mu01)}",
        f"mu11 = {_fmt(params.mu11)}",
        f"mu02 = {_fmt(params.mu02)}",
        f"n = {scaling.n}",
        f"c2 = {scaling.c2}",
        f"capacity_ratio r = {_fmt(r)}",
        f"critical_ratio r_c = {_fmt(r_c)}",
        f"regime = {regime.name}",
    ]
    if regime is model.Regime.Overloaded:
        ys, y = model.overloaded_fixed_point(params, r)
        lines.append(f"overloaded_fixed_point (y_star, y) = ({_fmt(ys)}, {_fmt(y)})")
        lines.append(f"blocked_fraction_limit = {_fmt(ys)}")
    elif regime is model.Regime.Underloaded:
        y, z = model.underloaded_fixed_point(params, r)
        lines.append(f"underloaded_fixed_point (y, z) = ({_fmt(y)}, {_fmt(z)})")
    else:
        lines.append(
            "fixed_point = omitted: the capacity ratio sits at the critical value,"
            " where neither fluid fixed point applies"
        )
    minimal = int(math.floor(r_c * scaling.n + 1e-12)) + 1
    lines.append(f"minimal_c2_without_congestion = {minimal}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_simulate(args, cfg):
    params, scaling = _params_of(cfg)
    experiments._check_replications(cfg["replications"])
    process = args.process
    columns = model.PROCESSES[process].columns
    if args.init is not None:
        init = _parse_list(args.init, f"--init for {process}", int, columns)
    else:
        init = (0,) * len(columns)
    out_dir = _out_dir(args)
    os.makedirs(out_dir, exist_ok=True)
    files = []
    try:
        for i in range(cfg["replications"]):
            seed = cfg["seed"] + i
            traj = experiments._simulate(process, init, params, scaling, cfg["horizon"], seed)
            name = f"sim_{process}_seed{seed}.csv"
            with open(os.path.join(out_dir, name), "w") as fp:
                files.append(name)
                sim.write_trajectory_csv(traj, fp)
    except BaseException:
        # No manifest will name them: a refused or failed call leaves no CSV behind.
        for name in files:
            os.remove(os.path.join(out_dir, name))
        raise
    manifest = {
        "process": process,
        "init": list(init),
        "config": cfg,
        "seeds": [cfg["seed"] + i for i in range(cfg["replications"])],
        "files": files,
    }
    manifest_name = f"sim_{process}_seed{cfg['seed']}_manifest.json"
    with open(os.path.join(out_dir, manifest_name), "w") as fp:
        fp.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    sys.stdout.write(
        f"wrote {len(files)} trajectory file(s) and {manifest_name} to {out_dir}\n"
    )
    return 0


def _cmd_fluid(args, cfg):
    params, scaling = _params_of(cfg)
    init = _parse_list(args.init, f"--init for {args.system}", float, ("y_star", "y", "z"))
    sol = fluid.solve_system(args.system, params, scaling.r, init, cfg["horizon"], args.dt)
    out_dir = _out_dir(args)
    os.makedirs(out_dir, exist_ok=True)
    name = f"fluid_{args.system}.csv"
    with open(os.path.join(out_dir, name), "w") as fp:
        fp.write("t,y_star,y,z,u\n")
        sim.write_csv_rows(fp, "%.9g" + ",%.9g" * 4 + "\n", sol.path.times,
                           np.column_stack((sol.path.values, sol.regulator.values)))
    sys.stdout.write(f"wrote {name} to {out_dir}\n")
    return 0


def _experiment_config(cfg, n_list):
    params, _ = _params_of(cfg)
    return experiments.ExperimentConfig(
        params=params,
        r=cfg["c2"] / cfg["n"],
        n_list=n_list,
        horizon=cfg["horizon"],
        burn_in=cfg["burn_in"],
        replications=cfg["replications"],
        base_seed=cfg["seed"],
        grid_dt=cfg["grid_dt"],
    )


def _cmd_experiment(args, cfg):
    name = args.experiment
    for key, readers in _FLAG_READERS.items():
        if getattr(args, key) is not None and name not in readers:
            raise ConfigError(f"--{key.replace('_', '-')} is not read by the {name} experiment")
    params, scaling = _params_of(cfg)
    n_list = _parse_list(args.n_list, "--n-list", int) if args.n_list else [cfg["n"]]
    workers = 1 if args.workers is None else args.workers
    if name == "phase-scan":
        if args.r_grid:
            r_grid = _parse_list(args.r_grid, "--r-grid", float)
        else:
            r_grid = [round(0.10 + 0.05 * i, 2) for i in range(17)]
        report = experiments.phase_scan(
            params, r_grid, cfg["n"], cfg["horizon"], cfg["burn_in"],
            cfg["replications"], cfg["seed"], workers=workers,
        )
    elif name == "convergence":
        report = experiments.convergence_sweep(
            _experiment_config(cfg, n_list), args.target or "main", workers=workers
        )
    elif name == "no-blocking":
        report = experiments.no_blocking_certificate(
            _experiment_config(cfg, n_list),
            fixed_point_band=args.band, workers=workers,
        )
    elif name == "saturation":
        report = experiments.saturation_certificate(
            _experiment_config(cfg, n_list),
            band=args.band if args.band is not None else 0.05,
            workers=workers,
        )
    elif name == "oracle-check":
        report = experiments.oracle_cross_check(
            params, scaling, cfg["horizon"], cfg["seed"]
        )
    else:
        report = experiments.martingale_decay(
            params, cfg["c2"] / cfg["n"], n_list, cfg["horizon"],
            cfg["replications"], cfg["seed"], workers=workers,
        )
    json_path, csv_path = experiments.save_report(report, _out_dir(args))
    verdict = "PASS" if report.passed else "FAIL"
    sys.stdout.write(f"{report.name}: {verdict}\n")
    for key, ok in report.criteria.items():
        sys.stdout.write(f"  {key}: {'ok' if ok else 'violated'}\n")
    sys.stdout.write(f"report: {json_path}\ntable: {csv_path}\n")
    return 0 if report.passed else 1


def build_parser():
    shared = argparse.ArgumentParser(add_help=False)
    for key in _FLOAT_KEYS:
        shared.add_argument(f"--{key.replace('_', '-')}", dest=key, type=float)
    for key in _INT_KEYS:
        shared.add_argument(f"--{key}", dest=key, type=int)
    shared.add_argument("--config", help="flat JSON config file")
    shared.add_argument("--dump-config", action="store_true",
                        help="print the effective config as JSON and exit")
    shared.add_argument("--out", help="output directory (default: $TWOLEVEL_OUT or .)")

    parser = argparse.ArgumentParser(
        prog="twolevel",
        description="Two-level blocking network: simulation, fluid limits, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("params", parents=[shared],
                   help="print derived quantities for a parameter set")

    p_sim = sub.add_parser("simulate", parents=[shared],
                           help="run seeded replications and write CSV trajectories")
    p_sim.add_argument("--process", choices=tuple(model.PROCESSES), default="main")
    p_sim.add_argument("--init", help="comma-separated integer start state")

    p_fluid = sub.add_parser("fluid", parents=[shared],
                             help="solve a fluid system exactly and write its path")
    p_fluid.add_argument("--system", required=True, choices=fluid.SYSTEMS)
    p_fluid.add_argument("--init", default="0,0,0",
                         help="comma-separated y_star,y,z start point")
    p_fluid.add_argument("--dt", type=float, default=1e-3)

    p_exp = sub.add_parser("experiment", parents=[shared],
                           help="run an experiment suite and write its report")
    p_exp.add_argument("--experiment", required=True, choices=EXPERIMENT_NAMES)
    p_exp.add_argument("--target", choices=experiments.TARGETS,
                       help="process compared against its fluid (convergence; default main)")
    p_exp.add_argument("--n-list", help="comma-separated scale parameters")
    p_exp.add_argument("--r-grid", help="comma-separated capacity ratios (phase-scan)")
    p_exp.add_argument("--band", type=float,
                       help="tolerance band for certificate level checks")
    p_exp.add_argument("--workers", type=int, help="worker processes (default 1)")
    return parser


_HANDLERS = {
    "params": _cmd_params,
    "simulate": _cmd_simulate,
    "fluid": _cmd_fluid,
    "experiment": _cmd_experiment,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command in ("simulate", "experiment"):
            if cfg["seed"] is None:
                raise ConfigError("seed is required (pass --seed or set it in the config file)")
            if cfg["seed"] < 0:
                raise ConfigError(f"seed must be >= 0, got {cfg['seed']}")
        if args.dump_config:
            _dump(cfg)
            return 0
        return _HANDLERS[args.command](args, cfg)
    except (ConfigError, ValueError, BuildError, NoConvergence, NonFinite, SingularSystem,
            TooManySwitches) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 3
    except Exception as exc:
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
