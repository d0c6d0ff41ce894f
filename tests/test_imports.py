"""Import hygiene: the toolkit loads scipy.linalg and scipy.sparse, nothing heavier."""

import ast
import os
import subprocess
import sys

import twolevel

PACKAGE_DIR = os.path.dirname(os.path.abspath(twolevel.__file__))
# scipy subpackages that each cost a large share of a run's start-up and that
# the toolkit does without.
UNWANTED = ("scipy.optimize", "scipy.signal", "scipy.stats", "scipy.integrate",
            "scipy.interpolate")


def unwanted(module):
    return any(module == u or module.startswith(u + ".") for u in UNWANTED)


def test_import_loads_only_linalg_and_sparse():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.dirname(PACKAGE_DIR), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, twolevel, twolevel.cli; print(*sorted(sys.modules))"],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    loaded = proc.stdout.split()
    assert "twolevel.cli" in loaded
    assert [m for m in loaded if unwanted(m)] == []
    public = {m.split(".")[1] for m in loaded
              if m.startswith("scipy.") and not m.split(".")[1].startswith("_")}
    assert public - {"version"} <= {"linalg", "sparse"}


def unwanted_imports(source, name):
    """``name:line module`` for each unwanted import in ``source``, at any depth."""
    found = []
    for node in ast.walk(ast.parse(source, name)):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        found += [f"{name}:{node.lineno} {m}" for m in modules if unwanted(m)]
    return found


def test_source_imports_no_unwanted_module():
    """No import of them anywhere in the package, at module level or inside a function."""
    found = []
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE_DIR, name)) as fh:
                found += unwanted_imports(fh.read(), name)
    assert found == []


def test_import_builds_and_loads_no_simulator_library(tmp_path):
    """The simulator library is built or loaded at the first run, never at import."""
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.dirname(PACKAGE_DIR), env.get("PYTHONPATH")]))
    code = ("import subprocess; subprocess.Popen = None; import twolevel, twolevel.cli; "
            "print(twolevel.sim._library.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]
    assert list(tmp_path.iterdir()) == []
