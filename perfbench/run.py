"""Benchmark of the twolevel toolkit: four workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload mc-main --seed 1 --seconds 22 --trace 0

Runs passes over one workload's jobs (see workloads.py) until ``--seconds``
have gone by, checks every output, and prints as its last line one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Times
are process CPU time (BLAS on one thread) normalised with a reference kernel
timed just before and after each job (see reference.py); raw CPU and wall
times are printed alongside.  The first pass is a warm-up and is left out.
With ``--trace 0`` the metrics are the end-to-end ones, measured with no
spans recorded; with ``--trace 1`` they are the per-layer ones, taken from
passes that alternate between recording spans and not, so the same run also
gives the tracing overhead.  The lines before the last hold the
environment, the per-group times, the layer shares and any failed checks.
Run from the root of a source checkout; it imports the toolkit from
``src/``.
"""

import os
import time

# One BLAS thread: the timed metrics are process CPU time, which would count
# the spin-waits of idle BLAS threads, and a shared host has few cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import reference  # noqa: E402
from checks import CheckFailed  # noqa: E402
from tracing import SIMULATORS, TRACED, Probe, summarize, under_layer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(os.path.dirname(HERE), ".perfbench_out")
WORKLOAD_NAMES = ("mc-main", "paths-aux", "fluid-paths", "oracle-exact")
SETUP_CHILDREN = 3

END_TO_END = (("setup_s", "s"), ("norm_cpu_s", "s"), ("peak_rss_mb", "MiB"))

# Normalised CPU time-to-result of each job group, untraced, on the workload
# that runs it.
GROUPS = ("saturation_s", "no_blocking_s", "martingale_s", "convergence_s",
          "simulate_csv_s", "cross_method_s", "reflected_paths_s",
          "stationary_s", "transient_s")
FLUIDS = ("fluid.aux_saturated_fluid", "fluid.aux_noblock_fluid", "fluid.hybrid_fluid")
ORACLE_STEPS = ("oracle.build_generator", "oracle.stationary_distribution",
                "oracle.transient_distribution")
EXPERIMENTS = ("experiments.saturation_certificate", "experiments.no_blocking_certificate",
               "experiments.martingale_decay", "experiments.convergence_sweep",
               "experiments.oracle_cross_check")
MAX_COUNTS = ("skorokhod.picard_gap_max", "oracle.residual")


def per_layer_metrics():
    """(name, unit, better) of every metric the traced run reports."""
    out = []
    for f in SIMULATORS:
        out += [(f"{f}.calls", "count", "lower"), (f"{f}.self_s", "s", "lower"),
                (f"{f}.events", "count", "lower"), (f"{f}.events_per_s", "1/s", "higher")]
    out += [("sim.write_trajectory_csv.self_s", "s", "lower"),
            ("sim.write_trajectory_csv.bytes", "B", "lower"),
            ("cli.main.calls", "count", "lower"), ("cli.main.self_s", "s", "lower"),
            ("sim.rescale.self_s", "s", "lower"), ("sim.residual_sup.self_s", "s", "lower"),
            ("sim.truncated_runs", "count", "lower"), ("sim.absorbed_runs", "count", "lower")]
    for f in FLUIDS:
        out += [(f"{f}.calls", "count", "lower"), (f"{f}.self_s", "s", "lower"),
                (f"{f}.steps", "count", "lower")]
    out += [("skorokhod.solve_generalized.calls", "count", "lower"),
            ("skorokhod.solve_generalized.self_s", "s", "lower"),
            ("skorokhod.solve_generalized.iterations", "count", "lower"),
            ("skorokhod.picard_gap_max", "1", "lower"),
            ("fluid.err_max", "1", "lower")]
    out += [(f"{f}.self_s", "s", "lower") for f in ORACLE_STEPS]
    out += [("oracle.states", "count", "lower"), ("oracle.nnz", "count", "lower"),
            ("oracle.generator_mb", "MiB", "lower"), ("oracle.residual", "1", "lower")]
    out += [(f"{f}.self_s", "s", "lower") for f in EXPERIMENTS]
    out += [("experiments.replications", "count", "lower")]
    out += [(g, "s", "lower") for g in GROUPS]
    out += [("trace.overhead_s", "s", "lower")]
    return out


# Share of a workload's traced time that the named spans (by name prefix)
# should take, as measured when the benchmark was defined.  A miss is
# reported in the output; it never resizes a workload or fails a run.
TRAFFIC = {
    "mc-main": ("sim.simulate ~95%", ("sim.simulate",), 0.85, 1.0),
    "paths-aux": ("simulator loops plus CSV writer ~80%",
                  ("sim.simulate", "sim.write_trajectory_csv"), 0.70, 0.90),
    "fluid-paths": ("fluid plus skorokhod >=90%", ("fluid.", "skorokhod."), 0.90, 1.0),
    "oracle-exact": ("oracle >=90%", ("oracle.",), 0.90, 1.0),
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit (used for setup_s)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def environment(seed):
    blas = {"config": "unknown", "threads": None}
    try:
        libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
        lib = ctypes.CDLL(sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so")))[0])
        config, threads = lib.scipy_openblas_get_config64_, lib.scipy_openblas_get_num_threads64_
        config.restype, config.argtypes = ctypes.c_char_p, []
        threads.restype, threads.argtypes = ctypes.c_int, []
        blas = {"config": config().decode(), "threads": threads()}
    except (OSError, IndexError, AttributeError):
        pass  # another BLAS build: recorded as unknown
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "memory_gib": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "seed": seed,
    }


def setup(args):
    """Import the toolkit, warm BLAS and draw every input; returns the jobs."""
    import workloads
    workloads.warm_blas(args.seed)
    return workloads.WORKLOADS[args.workload](args.seed)


def child_setup_times(args):
    """Set-up time of fresh processes doing exactly what this one did."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--setup-only"]
    times = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


@dataclass
class PassResult:
    traced: bool
    wall: float = 0.0
    cpu: float = 0.0
    scale: float = 1.0  # nominal over median reference time of the pass
    job_s: list = field(default_factory=list)  # normalised CPU time
    job_cpu_s: list = field(default_factory=list)
    job_wall_s: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    spans: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)
    attempted: int = 0


def run_pass(jobs, probe, traced, work_dir, kernel):
    """Run every job once, timed, with the reference kernel timed between
    jobs; then check every output, untimed."""
    os.makedirs(work_dir)
    probe.counts.clear()
    probe.faults.clear()
    probe.csv_rows.clear()
    probe.spans.clear()
    ctx = {"out_dir": work_dir, "csv_rows": probe.csv_rows}
    res = PassResult(traced)
    done = []
    probe.recording = traced
    refs = [kernel()]
    for job in jobs:
        before = len(probe.faults)
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            out, err = job.run(ctx), None
        except Exception:  # a job that raises is a failed job, not a failed benchmark
            out, err = None, traceback.format_exc(limit=-1).strip().splitlines()[-1]
        cpu, wall = time.process_time() - c0, time.perf_counter() - t0
        refs.append(kernel())
        res.job_s.append(cpu * kernel.nominal_s / ((refs[-2] + refs[-1]) / 2))
        res.job_cpu_s.append(cpu)
        res.job_wall_s.append(wall)
        done.append((job, out, err, probe.faults[before:]))
    probe.recording = False
    res.cpu, res.wall = sum(res.job_cpu_s), sum(res.job_wall_s)
    res.scale = kernel.nominal_s / statistics.median(refs)
    res.spans = [list(s) for s in probe.spans]
    res.counts.update(probe.counts)
    for job, out, err, faults in done:
        res.attempted += 1
        if err is None and faults:
            err = "; ".join(faults)
        if err is None:
            try:
                found = dict(job.check(out, ctx) or {})
            except CheckFailed as exc:
                err = str(exc)
            else:
                if "verdict" in found:
                    res.verdicts[job.label] = found.pop("verdict")
                for key, value in found.items():
                    if key in MAX_COUNTS:
                        res.counts[key] = max(res.counts[key], value)
                    else:
                        res.counts[key] += value
        if err is not None:
            res.failures.append(f"{job.label}: {err}")
    shutil.rmtree(work_dir)
    return res


def median_of(passes, jobs, group=None, times="job_s"):
    """Pass time: each job's median normalised time (or ``times``) over
    ``passes``, summed over the jobs (of ``group``, if given)."""
    return sum(statistics.median(getattr(p, times)[i] for p in passes)
               for i, job in enumerate(jobs) if group in (None, job.group))


def traced_metrics(passes, untraced, jobs, err_max):
    """Per-layer metrics: medians over the traced passes.  Span times are
    normalised with their pass's median reference time."""
    rows = []
    for p in passes:
        calls, cpu_own, _ = summarize(p.spans)
        own = Counter({name: t * p.scale for name, t in cpu_own.items()})
        m = {}
        for f in SIMULATORS:
            events = p.counts[f"{f}.events"]
            m.update({f"{f}.calls": calls[f], f"{f}.self_s": own[f], f"{f}.events": events,
                      f"{f}.events_per_s": events / own[f] if own[f] > 0 else 0.0})
        for f in FLUIDS:
            m.update({f"{f}.calls": calls[f], f"{f}.self_s": own[f],
                      f"{f}.steps": p.counts[f"{f}.steps"]})
        for f in ("sim.write_trajectory_csv", "sim.rescale", "sim.residual_sup",
                  "cli.main", "skorokhod.solve_generalized", *ORACLE_STEPS, *EXPERIMENTS):
            m[f"{f}.self_s"] = own[f]
        m["cli.main.calls"] = calls["cli.main"]
        m["skorokhod.solve_generalized.calls"] = calls["skorokhod.solve_generalized"]
        m["experiments.replications"] = under_layer(p.spans, "sim.simulate", "experiments")
        for key in ("sim.write_trajectory_csv.bytes", "sim.truncated_runs", "sim.absorbed_runs",
                    "skorokhod.solve_generalized.iterations", "skorokhod.picard_gap_max",
                    "oracle.states", "oracle.nnz", "oracle.generator_mb", "oracle.residual"):
            m[key] = p.counts[key]
        rows.append(m)
    out = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    for g in GROUPS:
        out[g] = median_of(untraced, jobs, g)
    out["fluid.err_max"] = err_max
    out["trace.overhead_s"] = median_of(passes, jobs) - median_of(untraced, jobs)
    return out


def layer_shares(passes, workload):
    shares = {layer: [] for layer in TRACED}
    shares["bench"] = []
    matched = []
    label, prefixes, lo, hi = TRAFFIC[workload]
    for p in passes:
        _, own, by_layer = summarize(p.spans)
        for layer in TRACED:
            shares[layer].append(by_layer[layer] / p.cpu)
        shares["bench"].append(1.0 - sum(by_layer.values()) / p.cpu)
        matched.append(sum(v for k, v in own.items() if k.startswith(prefixes)) / p.cpu)
    share = statistics.median(matched)
    traffic = {"expected": label, "measured_share": share,
               "miss": not lo <= share <= hi}
    return {k: statistics.median(v) for k, v in shares.items()}, traffic


def main(argv=None):
    args = parse_args(argv)
    # Set-up time is CPU time since the interpreter started, so it covers
    # the imports, normalised with the interpreter kernel timed before and
    # after the bulk of it (the toolkit's import); the first timing is left
    # out of it.
    c0 = time.process_time()
    interpreter = reference.Interpreter()
    ref_start = interpreter(repeats=5)
    ref_cpu = time.process_time() - c0
    try:
        jobs = setup(args)
    except ImportError as exc:
        sys.stderr.write(f"cannot load the toolkit: {exc}\n")
        return 2
    setup_cpu = time.process_time() - ref_cpu
    setup_own = setup_cpu * interpreter.nominal_s / ((ref_start + interpreter(repeats=5)) / 2)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_own}))
        return 0

    import twolevel
    import workloads
    kernel = workloads.KERNELS[args.workload]()
    setup_times = [setup_own] + child_setup_times(args)
    env = environment(args.seed)
    probe = Probe()
    probe.install(twolevel)
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = os.path.join(OUT_DIR, f"run-{os.getpid()}")
    passes = []
    try:
        start = time.perf_counter()
        while True:
            # An untraced warm-up pass; then the traced run alternates
            # traced and untraced passes.
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(run_pass(jobs, probe, traced,
                                   os.path.join(scratch, f"pass{len(passes)}"), kernel))
            elapsed = time.perf_counter() - start
            all_kinds = len({p.traced for p in passes[1:]}) == 1 + args.trace
            if all_kinds and elapsed * (1 + 0.5 / len(passes)) >= args.seconds:
                break
        err_max = 0.0
        if args.trace and args.workload == "fluid-paths":
            err_max = workloads.fluid_err_max()
    finally:
        probe.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)

    untraced = [p for p in passes[1:] if not p.traced]
    traced = [p for p in passes[1:] if p.traced]
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    detail = {
        "workload": args.workload,
        "env": env,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "pass_cpu_s": [p.cpu for p in passes],
        "pass_wall_s": [p.wall for p in passes],
        "reference_kernel": type(kernel).__name__,
        "pass_reference_s": [kernel.nominal_s / p.scale for p in passes],
        "cpu_s": median_of(untraced, jobs, times="job_cpu_s"),
        "wall_s": median_of(untraced, jobs, times="job_wall_s"),
        "fail_frac": len(failures) / attempted,
        "failures": failures[:10],
        "group_s": {g: {"value": median_of(untraced, jobs, g), "unit": "s"}
                    for g in sorted({job.group for job in jobs})},
        "verdicts_informational": passes[-1].verdicts,
    }
    if args.trace:
        shares, traffic = layer_shares(traced, args.workload)
        detail["layer_shares"] = shares
        detail["traffic"] = traffic
        values = traced_metrics(traced, untraced, jobs, err_max)
        units = {name: unit for name, unit, _ in per_layer_metrics()}
        spans_path = os.path.join(OUT_DIR, f"spans_{args.workload}_seed{args.seed}.json")
        with open(spans_path, "w") as fp:
            json.dump({"env": env, "workload": args.workload,
                       "passes": [{"traced": p.traced, "cpu_s": p.cpu, "spans": p.spans}
                                  for p in passes]}, fp)
        detail["spans_file"] = os.path.relpath(spans_path)
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "norm_cpu_s": median_of(untraced, jobs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
    print(json.dumps(detail, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
