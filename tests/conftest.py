import os
from pathlib import Path

import hypothesis
import pytest

# subprocess tests run `python -m ramsum`; let them import this checkout's src
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

hypothesis.settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    derandomize=True,
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)
hypothesis.settings.load_profile("suite")


@pytest.fixture
def cleared(monkeypatch):
    """Empty exactnum's Bernoulli rows, csum's period tables (and with them
    exp-weight's class sums) and moment states, and the direct route's mask
    window and class memo before the test, after it and at each call of the
    returned function; a call given a byte count also sets the row budget to
    it for the rest of the test."""
    from ramsum import csum, exactnum

    def clear(budget=None):
        with exactnum._bern_lock:
            exactnum._rows.clear()
            exactnum._rows_nbytes = 0
        for cache in (csum._table, csum._moment_state, csum._mask, csum._root_class):
            cache.cache_clear()
        if budget is not None:
            monkeypatch.setattr(exactnum, "_ROW_BUDGET", budget)

    clear()
    yield clear
    clear()


@pytest.fixture
def broken_moebius_route(monkeypatch):
    """The Moebius route one more than the truth in its g = 1 class at s >= 2:
    a broken evaluator that log-weight must report as a mismatch."""
    from ramsum import csum

    real = csum._moebius_value
    monkeypatch.setattr(csum, "_moebius_value", lambda k, s, g: real(k, s, g) + (s >= 2 and g == 1))


@pytest.fixture
def mutant_mask(monkeypatch, cleared):
    """The direct route reads the mask of (30, 2) with entry 1 (set) and entry
    4 (unset) swapped: its count still passes _mask's check."""
    from functools import lru_cache

    from ramsum import csum

    mask = csum._mask(30, 2).copy()
    mask[[1, 4]] = mask[[4, 1]]
    mask.flags.writeable = False
    cleared()
    monkeypatch.setattr(csum, "_mask", lru_cache(lambda k, s: mask))
