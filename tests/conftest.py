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
    """Empty ramsum.store and the direct route's mask window before the test,
    after it and at each call of the returned function; a call given a byte
    count also sets the store's budget to it for the rest of the test."""
    from ramsum import csum, store

    def clear(budget=None):
        store.clear()
        csum._direct_context.cache_clear()
        if budget is not None:
            monkeypatch.setattr(store, "BUDGET", budget)

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
