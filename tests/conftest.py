from concurrent.futures import Future

import pytest


class _InlineExecutor:
    """Stands in for a thread pool: each task at once, on this thread."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)

    def submit(self, fn, *args):
        done = Future()
        try:
            done.set_result(fn(*args))
        except Exception as exc:  # delivered by result(), as a pool would
            done.set_exception(exc)
        return done


@pytest.fixture
def run_inline(monkeypatch):
    """Call with a module to run its thread-pool work inline from then on."""
    return lambda module: monkeypatch.setattr(module, "ThreadPoolExecutor", _InlineExecutor)
