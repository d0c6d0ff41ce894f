"""Write the outputs of a fixed set of CLI commands, or compare two such sets.

    PYTHONPATH=src python tests/report_bytes.py run OUT
    python tests/report_bytes.py compare A B

``run`` calls ``twolevel.cli.main`` in this process for each command in
``COMMANDS``, with ``--out OUT/<label>``.  Beside the files a command writes
it keeps ``stdout.txt`` (the output directory masked as ``<out>``) and
``exit_code.txt``.  The ``twolevel`` it runs is the one on ``PYTHONPATH``, so
pointing that at another checkout's ``src`` records that checkout.

``compare`` prints one line per file found under either directory:
"identical", or the number of numbers that differ with their largest
absolute and relative difference, or a note that the text around the numbers
or the set of files differs.  It exits 0 when every file is identical, else 1.

The file name has no ``test_`` prefix: pytest does not collect it.
"""

import contextlib
import io
import math
import os
import re
import sys

SEED = "12345"
SYM = ["--p", "0.5", "--mu01", "1", "--mu11", "1", "--mu02", "1"]
# At symmetric rates every exit rate sums alike in any order, and a run's rates and jump
# times are those of one rate unit; at these rates neither holds.
ASYM = ["--p", "0.35", "--mu01", "1.3", "--mu11", "0.8", "--mu02", "1.1"]


def _fluid(system, c2, init):
    return ["fluid", "--system", system, *SYM, "--n", "100", "--c2", c2, "--init", init,
            "--horizon", "10"]


def _experiment(name, *args, rates=SYM):
    return ["experiment", "--experiment", name, *rates, "--seed", SEED, *args]


def _criterion_04(target, c2):
    return _experiment("convergence", "--target", target, "--n", "100", "--c2", c2,
                       "--n-list", "50,100,200,400,1600", "--horizon", "20",
                       "--burn-in", "0", "--replications", "20")


def _simulate(process):
    return ["simulate", "--process", process, *SYM, "--n", "200", "--c2", "60",
            "--horizon", "10", "--replications", "2", "--seed", SEED]


def _saturation(c2, rates=SYM):
    return _experiment("saturation", "--n", "100", "--c2", c2, "--n-list", "100,200",
                       "--horizon", "30", "--burn-in", "10", "--replications", "10", rates=rates)


def _no_blocking(c2, rates=SYM):
    return _experiment("no-blocking", "--n", "100", "--c2", c2, "--n-list", "100,200",
                       "--horizon", "30", "--burn-in", "10", "--replications", "10", rates=rates)


def _oracle_check(n, c2, rates=SYM):
    return _experiment("oracle-check", "--n", n, "--c2", c2, "--horizon", "2000", rates=rates)


COMMANDS = {
    "fluid-aux-saturated": _fluid("aux-saturated", "30", "0.2,0.5,0"),
    "fluid-aux-noblock": _fluid("aux-noblock", "70", "0,0.6,0.3"),
    "fluid-overloaded-ode": _fluid("overloaded-ode", "30", "0.2,0.5,0"),
    "fluid-underloaded-ode": _fluid("underloaded-ode", "70", "0,0.6,0.3"),
    "fluid-hybrid": _fluid("hybrid", "30", "0,0.2,0.3"),
    "convergence-aux-saturated": _criterion_04("aux-saturated", "30"),
    "convergence-aux-noblock": _criterion_04("aux-noblock", "70"),
    "convergence-main": _experiment("convergence", "--target", "main", "--n", "100",
                                    "--c2", "30", "--n-list", "50,100", "--horizon", "10",
                                    "--burn-in", "2", "--replications", "4"),
    "simulate-main": _simulate("main"),
    "simulate-aux-saturated": _simulate("aux-saturated"),
    "simulate-aux-noblock": _simulate("aux-noblock"),
    "saturation": _saturation("30"),
    "saturation-asym": _saturation("15", ASYM),
    "no-blocking": _no_blocking("70"),
    "no-blocking-asym": _no_blocking("60", ASYM),
    "martingale-decay": _experiment("martingale-decay", "--n", "100", "--c2", "30",
                                    "--n-list", "100,200,400", "--horizon", "10",
                                    "--replications", "10"),
    "phase-scan": _experiment("phase-scan", "--n", "100", "--horizon", "30", "--burn-in", "10",
                              "--replications", "4"),
    "oracle-check-n20": _oracle_check("20", "10"),
    "oracle-check-n60": _oracle_check("60", "30"),
    "oracle-check-asym-n60": _oracle_check("60", "30", ASYM),
}


def run(out):
    from twolevel import cli

    sys.stderr.write(f"recording {cli.__file__}\n")
    for label, argv in COMMANDS.items():
        target = os.path.join(out, label)
        os.makedirs(target, exist_ok=True)
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = cli.main([*argv, "--out", target])
        with open(os.path.join(target, "stdout.txt"), "w") as fp:
            fp.write(captured.getvalue().replace(target, "<out>"))
        with open(os.path.join(target, "exit_code.txt"), "w") as fp:
            fp.write(f"{code}\n")
        sys.stderr.write(f"{label}: exit {code}\n")


NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?Infinity|NaN|-?inf|nan")


def _files(root):
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, names in os.walk(root) for f in names}


def _difference(a, b):
    """One line on how text ``b`` differs from text ``a``."""
    nums_a, nums_b = NUMBER.findall(a), NUMBER.findall(b)
    if NUMBER.split(a) != NUMBER.split(b) or len(nums_a) != len(nums_b):
        return "text differs outside its numbers"
    pairs = [(float(x.replace("Infinity", "inf")), float(y.replace("Infinity", "inf")))
             for x, y in zip(nums_a, nums_b) if x != y]
    gaps = [abs(x - y) for x, y in pairs]
    rel = [gap / max(abs(x), abs(y)) for gap, (x, y) in zip(gaps, pairs)
           if max(abs(x), abs(y)) > 0]
    return (f"{len(pairs)} of {len(nums_a)} numbers differ, largest absolute "
            f"{max(gaps, default=math.nan):.3g}, relative {max(rel, default=math.nan):.3g}")


def compare(a, b):
    same = True
    files_a, files_b = _files(a), _files(b)
    for name in sorted(files_a | files_b):
        if name not in files_b or name not in files_a:
            line = f"only in {a if name in files_a else b}"
        else:
            with open(os.path.join(a, name), "rb") as fa, open(os.path.join(b, name), "rb") as fb:
                data_a, data_b = fa.read(), fb.read()
            line = ("identical" if data_a == data_b
                    else _difference(data_a.decode(), data_b.decode()))
        same = same and line == "identical"
        print(f"{name}: {line}")
    return 0 if same else 1


def main(argv):
    if len(argv) == 2 and argv[0] == "run":
        return run(argv[1])
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
