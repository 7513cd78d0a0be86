"""Fixtures shared by the engine and CLI tests."""

import threading

import pytest

from fadestream import engine


class CountingPool(engine.ProcessPoolExecutor):
    """Counts pools started, tasks submitted and the most tasks submitted and
    not yet done."""

    starts = 0
    submits = 0
    peak = 0
    _lock = threading.Lock()
    _outstanding = 0

    def __init__(self, *args, **kwargs):
        type(self).starts += 1
        super().__init__(*args, **kwargs)

    def submit(self, fn, /, *args, **kwargs):
        future = super().submit(fn, *args, **kwargs)
        cls = type(self)
        with cls._lock:
            cls.submits += 1
            cls._outstanding += 1
            cls.peak = max(cls.peak, cls._outstanding)
        future.add_done_callback(cls._done)
        return future

    @classmethod
    def _done(cls, future):
        with cls._lock:
            cls._outstanding -= 1


@pytest.fixture
def counting_pool(monkeypatch):
    pool = type("Pool", (CountingPool,), {"starts": 0, "submits": 0, "peak": 0, "_outstanding": 0})
    monkeypatch.setattr(engine, "ProcessPoolExecutor", pool)
    return pool
