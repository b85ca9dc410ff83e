"""Output bytes do not depend on the number of OpenBLAS threads."""

import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ipsmf import blas, cli

SRC = str(Path(__file__).resolve().parents[1] / "src")

# the observation-model fit on a shape at which OpenBLAS splits its matrix
# products over threads
_FIT_HASH = """
import hashlib
from ipsmf import SimulationSpec, estimate_mf_propensity, simulate
train = simulate(SimulationSpec(num_users=1500, num_items=500, gamma=0.5, seed=2)).bundle.train
table = estimate_mf_propensity(train, dim=8, learning_rate=0.05, max_steps=40, seed=0).table
print(hashlib.sha256(table.tobytes()).hexdigest())
"""


def _table_hash(blas_threads: int) -> str:
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": str(blas_threads),
        "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))),
    }
    done = subprocess.run([sys.executable, "-c", _FIT_HASH], env=env, capture_output=True,
                          text=True, check=True)
    return done.stdout.strip()


@pytest.mark.skipif(cli._usable_cores() < 2, reason="needs two usable cores")
def test_mf_propensity_table_independent_of_blas_threads():
    assert _table_hash(1) == _table_hash(2)


def test_pin_restores_the_thread_count():
    found = blas._entry_points()
    if found is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS")
    get, set_ = found
    before = get()
    set_(2)
    try:
        with blas.one_blas_thread():
            assert get() == 1
        assert get() == 2
    finally:
        set_(before)


def test_missing_entry_point_warns_once(monkeypatch, caplog):
    monkeypatch.setattr(blas, "_ENTRY_POINTS", (("no_such_get", "no_such_set"),))
    blas._entry_points.cache_clear()
    try:
        with caplog.at_level(logging.WARNING, logger="ipsmf.blas"):
            for _ in range(3):
                with blas.one_blas_thread():
                    pass
    finally:
        blas._entry_points.cache_clear()  # look the real entry points up again
    assert [r.getMessage() for r in caplog.records] == [
        "no OpenBLAS thread-count entry point found: matrix products run at the BLAS "
        "library's own thread count, so their last bits may depend on the host"
    ]
