"""Packaging: ``import repro`` needs only what ``setup.py`` declares,
a solve loads only what it runs, and every public name a module lists
resolves."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Runs in a fresh interpreter: refuse every top-level module that is
#: neither the standard library, ``repro``, nor one of the names passed
#: on the command line, then import the package.
_BLOCKED_IMPORT = """
import sys

allowed = set(sys.argv[1:]) | {"repro"}


def standard(top):
    # sysconfig's generated data module is stdlib but not listed.
    return top in sys.stdlib_module_names or top.startswith("_sysconfigdata")


class Undeclared:
    def find_spec(self, name, path=None, target=None):
        top = name.partition(".")[0]
        if top in allowed or standard(top):
            return None
        raise ModuleNotFoundError(f"{top} is not declared in setup.py")


sys.meta_path.insert(0, Undeclared())
import repro
"""


def _install_requires() -> list[str]:
    """The distribution names in ``setup.py``'s ``install_requires``."""
    tree = ast.parse((ROOT / "setup.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg == "install_requires":
            return [re.split(r"[<>=!~\s\[;]", req, 1)[0] for req in ast.literal_eval(node.value)]
    raise AssertionError("setup.py has no install_requires")


def test_import_needs_only_declared_dependencies():
    declared = _install_requires()
    assert "numpy" in declared
    done = subprocess.run(
        [sys.executable, "-c", _BLOCKED_IMPORT, *declared],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]


def test_every_all_name_resolves():
    """A stale ``__all__`` entry breaks only ``from ... import *``, so no
    other test notices it: import every ``repro`` module and look each
    listed name up."""
    import repro

    names = ["repro"] + [
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    ]
    assert len(names) > 100
    missing = []
    for name in names:
        module = importlib.import_module(name)
        missing += [
            f"{name}.{public}"
            for public in getattr(module, "__all__", ())
            if not hasattr(module, public)
        ]
    assert missing == []


def test_solves_load_no_scipy_solvers_or_perf_models():
    """Whatever ``import repro`` and a solve load, every process that
    solves pays for: SciPy's iterative solvers and LAPACK wrappers and the
    performance models are about 10 MiB of resident memory that no solve
    runs.  The fresh interpreter is the footprint child of
    ``benchmarks/run_all.py --profile``, on the ``src`` tree this process
    imported ``repro`` from."""
    spec = importlib.util.spec_from_file_location(
        "run_all", ROOT / "benchmarks" / "run_all.py"
    )
    run_all = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_all)
    assert run_all.run_footprint_child()["off_path"] == []
