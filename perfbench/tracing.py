"""Spans and counts recorded around calls into the toolkit's public functions.

The probe replaces public functions on their module objects (and on every
other toolkit module that imported them by name), so calls made by
``experiments`` and ``cli`` through ``sim.`` and ``fluid.`` attributes are
seen too.  Spans (name, start, end, parent), in process CPU time, are kept
in memory while ``recording`` is set and written out only when the
benchmark ends.
Return-value hooks run on every call, recording or not, and always outside
the span, so output checks never count as time spent in a layer.
"""

import functools
import time
from collections import Counter

from checks import trajectory_faults

# Public functions that get a span, by layer (module name).  The per-step
# helpers (drifts, transition tables) are left alone: a span per fluid step
# would cost more than the step.
TRACED = {
    "sim": ("simulate", "simulate_aux_saturated", "simulate_aux_noblock",
            "rescale", "residual_sup", "write_trajectory_csv"),
    "fluid": ("aux_saturated_fluid", "aux_noblock_fluid", "hybrid_fluid"),
    "skorokhod": ("solve_generalized",),
    "oracle": ("build_generator", "stationary_distribution", "stationary_moments",
               "transient_distribution"),
    "experiments": ("saturation_certificate", "no_blocking_certificate",
                    "martingale_decay", "convergence_sweep", "oracle_cross_check"),
    "cli": ("main",),
    "model": ("validate", "critical_ratio", "classify_regime", "blocked_fraction_limit",
              "overloaded_fixed_point", "underloaded_fixed_point", "y_bar",
              "y_underline", "h_bar", "y_b_closed_form"),
}

SIMULATORS = ("sim.simulate", "sim.simulate_aux_saturated", "sim.simulate_aux_noblock")


def layer_of(name):
    return name.split(".", 1)[0]


class Probe:
    """Wraps the functions in TRACED; records spans and return-value counts."""

    def __init__(self):
        self.recording = False
        self.spans = []  # [name, start, end, parent index or None]
        self.counts = Counter()
        self.faults = []
        self.csv_rows = {}  # CSV file name -> data rows it must hold
        self._stack = []
        self._undo = []

    def install(self, package):
        """Wrap every TRACED function wherever a toolkit module holds it."""
        modules = [package] + [getattr(package, m) for m in TRACED]
        for layer, names in TRACED.items():
            owner = getattr(package, layer)
            for attr in names:
                original = getattr(owner, attr)
                wrapper = self._wrap(f"{layer}.{attr}", original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, key, original))
                            setattr(mod, key, wrapper)

    def uninstall(self):
        for mod, key, original in reversed(self._undo):
            setattr(mod, key, original)
        self._undo.clear()

    def _wrap(self, name, fn):
        hook = _HOOKS.get(name)
        spans, stack, clock = self.spans, self._stack, time.process_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.recording:
                index = len(spans)
                spans.append([name, clock(), None, stack[-1] if stack else None])
                stack.append(index)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    spans[index][2] = clock()
            else:
                out = fn(*args, **kwargs)
            if hook is not None:
                hook(self, name, args, out)
            return out

        return wrapper


def _on_trajectory(probe, name, args, traj):
    probe.counts[f"{name}.events"] += traj.num_events
    for fault in trajectory_faults(traj):
        probe.faults.append(f"{name} seed {traj.seed}: {fault}")
    probe.counts["sim.truncated_runs"] += int(traj.truncated)
    probe.counts["sim.absorbed_runs"] += int(traj.absorbed)


def _on_csv(probe, name, args, out):
    traj, fp = args[0], args[1]
    probe.csv_rows[fp.name] = traj.num_events + 1


def _on_fluid(probe, name, args, out):
    path = out.path if hasattr(out, "path") else out
    probe.counts[f"{name}.steps"] += len(path) - 1


def _on_picard(probe, name, args, out):
    probe.counts[f"{name}.iterations"] += out[2]


_HOOKS = {
    **{name: _on_trajectory for name in SIMULATORS},
    "sim.write_trajectory_csv": _on_csv,
    "fluid.aux_saturated_fluid": _on_fluid,
    "fluid.aux_noblock_fluid": _on_fluid,
    "fluid.hybrid_fluid": _on_fluid,
    "skorokhod.solve_generalized": _on_picard,
}


def _covered(intervals, start, end):
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans):
    """Per span: its duration minus the part of it that its child spans cover."""
    children = [[] for _ in spans]
    for name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    return [end - start - _covered(children[i], start, end)
            for i, (name, start, end, parent) in enumerate(spans)]


def summarize(spans):
    """Calls and self time per function name, and self time per layer."""
    calls, by_name, by_layer = Counter(), Counter(), Counter()
    for (name, *_), own in zip(spans, self_times(spans)):
        calls[name] += 1
        by_name[name] += own
        by_layer[layer_of(name)] += own
    return calls, by_name, by_layer


def under_layer(spans, name_prefix, layer):
    """Number of spans whose name starts with ``name_prefix`` and that have an
    ancestor span in ``layer``."""
    count = 0
    for name, _, _, parent in spans:
        if not name.startswith(name_prefix):
            continue
        while parent is not None:
            if layer_of(spans[parent][0]) == layer:
                count += 1
                break
            parent = spans[parent][3]
    return count
