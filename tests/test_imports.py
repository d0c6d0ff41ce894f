"""Import hygiene: scipy loads only where it is used, and then only linalg and sparse;
the toolkit's modules import each other at the top, and only `native` builds C."""

import ast
import os
import subprocess
import sys

import pytest

import twolevel

PACKAGE_DIR = os.path.dirname(os.path.abspath(twolevel.__file__))
# scipy subpackages that each cost a large share of a run's start-up and that
# the toolkit does without.
UNWANTED = ("scipy.optimize", "scipy.signal", "scipy.stats", "scipy.integrate",
            "scipy.interpolate")


def unwanted(module):
    return any(module == u or module.startswith(u + ".") for u in UNWANTED)


def modules_after(code):
    """The modules loaded after running ``code`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.dirname(PACKAGE_DIR), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys; print(*sorted(sys.modules))"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def scipy_subpackages(loaded):
    return {m.split(".")[1] for m in loaded
            if m.startswith("scipy.") and not m.split(".")[1].startswith("_")}


def test_import_loads_only_linalg_and_sparse():
    loaded = modules_after("import twolevel, twolevel.cli")
    assert "twolevel.cli" in loaded
    assert [m for m in loaded if unwanted(m)] == []
    public = scipy_subpackages(loaded)
    assert public - {"version"} <= {"linalg", "sparse"}


@pytest.mark.parametrize("code", [
    "import twolevel, twolevel.cli",
    "from twolevel import cli\n"
    "argv = ['simulate', '--n', '40', '--c2', '12', '--horizon', '2', '--seed', '1',\n"
    "        '--out', {out!r}]\n"
    "assert cli.main(argv) == 0",
    "from twolevel import ExperimentConfig, ModelParams, saturation_certificate\n"
    "cfg = ExperimentConfig(ModelParams(0.5, 1.0, 1.0, 1.0), 0.3, (20,), 4.0, 1.0, 2, 3)\n"
    "saturation_certificate(cfg, workers=1)",
    "from twolevel import ModelParams, gbar_functional, solve_generalized\n"
    "phi = gbar_functional(ModelParams(0.5, 1.0, 1.0, 1.0), 0.3, (0.0, 0.0))\n"
    "solve_generalized(phi, 3.0, 1e-3)",
    "from twolevel import ModelParams, fluid\n"
    "sym = ModelParams(0.5, 1.0, 1.0, 1.0)\n"
    "for system, r, init in [('hybrid', 0.3, (0.2, 0.3, 0.0)), ('aux-saturated', 0.3, (0, 0, 0)),\n"
    "                        ('aux-noblock', 0.7, (0, 0, 0)), ('overloaded-ode', 0.3, (0, 0, 0)),\n"
    "                        ('underloaded-ode', 0.7, (0.0, 0.2, 0.5))]:\n"
    "    fluid.solve_system(system, sym, r, init, 5.0, 1e-2)",
    "from twolevel import ExperimentConfig, ModelParams, convergence_sweep\n"
    "for target, r in [('main', 0.3), ('aux-saturated', 0.3), ('aux-noblock', 0.7)]:\n"
    "    cfg = ExperimentConfig(ModelParams(0.5, 1.0, 1.0, 1.0), r, (20, 40), 4.0, 1.0, 2, 3)\n"
    "    convergence_sweep(cfg, target)",
], ids=["import", "simulate", "saturation-certificate", "picard", "fluid", "convergence"])
def test_scipy_not_loaded_where_unused(code, tmp_path):
    """scipy takes about 0.4 s to import; the simulator, its certificates, the
    Picard solve on Gbar, the exact fluid solves of the five systems and the
    convergence sweep never need it."""
    loaded = modules_after(code.format(out=str(tmp_path)))
    assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []
    # Nor the process pool, which only a run on several workers needs.
    assert "concurrent.futures.process" not in loaded


def test_solvers_load_only_linalg_and_sparse():
    """The oracle's generator and stationary solve are scipy's only users; the fluid
    solvers, in the compiled library, load none of it (``test_scipy_not_loaded_where_unused``)."""
    loaded = modules_after(
        "from twolevel import ModelParams, ScalingParams, oracle\n"
        "sym = ModelParams(0.5, 1.0, 1.0, 1.0)\n"
        "oracle.stationary_distribution(oracle.build_generator(sym, ScalingParams(4, 2)))")
    assert scipy_subpackages(loaded) - {"version"} == {"linalg", "sparse"}


def package_trees():
    """(file name, syntax tree) of each module of the package."""
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE_DIR, name)) as fh:
                yield name, ast.parse(fh.read(), name)


def imports(tree):
    """(line, module) for each module an import under ``tree`` names, at any depth.

    A relative import's module keeps its leading dots: ``from . import sim``
    names ``.`` and ``.sim``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            sep = "." if node.module else ""
            modules = [base] + [f"{base}{sep}{a.name}" for a in node.names]
        else:
            continue
        yield from ((node.lineno, m) for m in modules)


def test_source_imports_no_unwanted_module():
    """No import of them anywhere in the package, at module level or inside a function."""
    found = [f"{name}:{line} {m}" for name, tree in package_trees()
             for line, m in imports(tree) if unwanted(m)]
    assert found == []


def test_no_function_imports_a_toolkit_module():
    """Each module imports the toolkit's others at its top, so an import cycle cannot hide
    inside a function; only third-party imports (scipy) may wait for first use."""
    found = [f"{name}:{line} {m}" for name, tree in package_trees() for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             for line, m in imports(node)
             if m.startswith(".") or m.split(".")[0] == "twolevel"]
    assert found == []


def test_only_native_builds_or_loads_the_library():
    """The compile command and ctypes' loader are named in ``native`` alone."""
    naming = []
    for name, tree in package_trees():
        names = {getattr(node, "id", None) or getattr(node, "attr", None)
                 or getattr(node, "name", None) for node in ast.walk(tree)}
        if names & {"CDLL", "_COMPILE"}:
            naming.append(name)
    assert naming == ["native.py"]


def test_import_builds_and_loads_no_simulator_library(tmp_path):
    """The simulator library is built or loaded at the first run, never at import."""
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.dirname(PACKAGE_DIR), env.get("PYTHONPATH")]))
    code = ("import subprocess; subprocess.Popen = None; import twolevel, twolevel.cli; "
            "print(twolevel.native._library.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]
    assert list(tmp_path.iterdir()) == []
