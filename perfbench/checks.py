"""Output checks behind ``failed`` and ``fail_frac``.

Every check here holds for any seed: it tests invariants of the output
(finiteness, counts, conservation, complementarity, solver residuals),
never a statistical verdict, because those move with the random stream.
A check raises CheckFailed; what it measures on the way is returned as
counts for the traced run.
"""

import math

import numpy as np


class CheckFailed(Exception):
    """An output violates an invariant the benchmark requires."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def trajectory_faults(traj):
    """Reasons a simulated trajectory is unusable, independent of the random stream."""
    faults = []
    if traj.truncated:
        faults.append("truncated by the event cap")
    if traj.absorbed:
        faults.append("absorbed")
    if traj.process == "main":
        states = traj.states
        if ((states[:, 0] > 0) & (states[:, 2] > 0)).any():
            faults.append("blocked operators and idle specialists at once (y*·z > 0)")
    return faults


def _numbers(value):
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return
    if isinstance(value, (int, float)):
        yield value
    elif isinstance(value, dict):
        for v in value.values():
            yield from _numbers(v)
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from _numbers(v)


def check_report(report, rows, reps, per_rep_lists=True):
    """Every value finite; row count and replication counts as configured.

    With ``per_rep_lists`` every list held by a metrics row is a
    per-replication list and must hold ``reps`` entries.
    """
    data = report.to_dict()
    bad = [x for x in _numbers(data["metrics"] + data["sensitivity"]) if not math.isfinite(x)]
    require(not bad, f"{report.name}: non-finite report values {bad[:3]}")
    require(len(report.metrics) == rows,
            f"{report.name}: {len(report.metrics)} metric rows, expected {rows}")
    for row in report.metrics + report.sensitivity:
        require(row["replications"] == reps,
                f"{report.name}: row reports {row['replications']} replications, expected {reps}")
        if per_rep_lists:
            for key, value in row.items():
                if isinstance(value, list):
                    require(len(value) == reps,
                            f"{report.name}: {key} holds {len(value)} entries, expected {reps}")
    return {"verdict": bool(report.passed)}


def check_csv(path, data_rows, ncols):
    """The trajectory CSV parses back to ``data_rows`` rows of ``ncols`` numbers."""
    with open(path) as fp:
        header = fp.readline()
        body = fp.read()
    require(header.count(",") == ncols - 1, f"{path}: header {header.strip()!r}")
    lines = body.count("\n")
    require(lines == data_rows, f"{path}: {lines} data rows, expected {data_rows}")
    values = np.array(body.replace("\n", ",").split(",")[:-1], dtype=float)
    require(values.size == data_rows * ncols, f"{path}: ragged rows")
    require(np.isfinite(values).all(), f"{path}: non-finite entries")
    return {"sim.write_trajectory_csv.bytes": len(header) + len(body)}


def check_stationary(g, pi):
    """pi @ g = 0 to 1e-10, pi >= 0 and sums to 1."""
    residual = float(np.max(np.abs(pi @ g)))
    require(residual <= 1e-10, f"stationary residual {residual:.3e} > 1e-10")
    require(pi.min() >= 0.0, f"negative stationary mass {pi.min():.3e}")
    require(abs(pi.sum() - 1.0) <= 1e-12, f"stationary mass sums to {pi.sum()!r}")
    return {"oracle.residual": residual}


def check_transient(dist):
    """The transient law keeps its mass within 1e-9 of 1."""
    mass = float(dist.sum())
    require(abs(mass - 1.0) <= 1e-9, f"transient mass {mass!r}")
    return {}


def check_generator(g):
    require(g.ndim == 2 and g.shape[0] == g.shape[1], f"generator shape {g.shape}")
    require(float(np.abs(g.sum(axis=1)).max()) <= 1e-9, "generator rows do not sum to 0")
    return {
        "oracle.states": g.shape[0],
        "oracle.nnz": int(np.count_nonzero(g)),
        "oracle.generator_mb": g.nbytes / 2**20,
    }


def check_reflection(check_complementarity, reflected, regulator):
    """The regulator grows only while the reflected coordinate sits at 0."""
    require(check_complementarity(reflected, regulator, 1e-12),
            "complementarity violated by the reflected path")


def check_cross_method(check_complementarity, picard, picard_reg, euler, euler_reg,
                       bound=1e-3):
    """Picard and projected Euler paths of y* agree to ``bound``; both are
    complementary with their regulators."""
    check_reflection(check_complementarity, picard, picard_reg)
    check_reflection(check_complementarity, euler, euler_reg)
    gap = float(np.abs(picard.values - euler.values).max())
    require(gap <= bound, f"Picard vs projected Euler gap {gap:.3e} > {bound}")
    return {"skorokhod.picard_gap_max": gap}


def lower_bound_margin(h_bar, sol, params, r, y0, dt):
    """y* + y stays above the envelope h_bar, to within 10 dt."""
    envelope = h_bar(sol.path.times, params, r, y0)
    margin = float((sol.y_star + sol.y - envelope).min())
    require(margin >= -10 * dt, f"lower-bound margin {margin:.3e} < -10 dt")
    return margin
