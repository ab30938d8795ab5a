"""Shared fixtures: the package's memo tables are cleared around every test
that patches the package; and a runner of scripts in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from toruslie import fields, probe, tensor
from toruslie.linalg import SparseVec

#: every functools.lru_cache of the package; a patched dependency would
#: otherwise leave entries built from it for the tests that run later.
#: The per-instance memos (a FinModule's unit and merged unit tables, a
#: Context's derived contexts) need no clearing: the suites build their
#: modules and contexts afresh on every run, and a module that outlives a
#: run (_derham_table's target, or a cache key) goes when its cache is
#: cleared.
PACKAGE_CACHES = (fields._units, tensor._derham_table, tensor._probe_table,
                  probe._gen_kernel, probe._coeff_of_nodes)


def vec_sum(*scaled) -> SparseVec:
    """Sum of c * vec over the (c, vec) pairs, as one SparseVec: the linear
    combinations that the Fraction oracles of the tests build."""
    return SparseVec.make((key, c * a) for c, vec in scaled for key, a in vec.items())


def run_fresh(script: str, *args: str) -> subprocess.CompletedProcess:
    """Run `python -c script *args` in a fresh interpreter that imports this
    package from the same source tree; its output is captured as text."""
    src = str(Path(probe.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.fixture(autouse=True)
def fresh_package_caches(request):
    """Clear PACKAGE_CACHES before and after each test that requests
    monkeypatch; the clearing after runs once the patches are undone."""
    patched = "monkeypatch" in request.fixturenames
    if patched:
        for cached in PACKAGE_CACHES:
            cached.cache_clear()
    yield
    if patched:
        for cached in PACKAGE_CACHES:
            cached.cache_clear()
