"""Every call point ``perfbench/tracing.py`` hooks exists in the library.

The benchmark times each layer by wrapping a library function named by
module and attribute.  A call point that moved or was renamed shows in a
benchmark run only as a missing layer; installing every hook here turns
it into a test failure.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    """Load the module by path: the tests do not put the repository root
    on ``sys.path``."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module
    spec.loader.exec_module(module)
    return module


def test_every_hook_resolves():
    tracing = _load_tracing()
    hooks = tracing.LIBRARY_HOOKS + tracing.SERVER_HOOKS + tracing.CLIENT_HOOKS
    recorder = tracing.Recorder()
    installed = tracing.install(hooks, recorder)
    try:
        assert recorder.missing == {}
    finally:
        installed.remove()
