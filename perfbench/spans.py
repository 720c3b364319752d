"""In-memory span tracing for the benchmark's traced run.

A span is (name, start, end, parent, attrs). The benchmark opens spans
around its own calls into each layer, and `patched` wraps the package
functions that the layers call by name inside the package, at the attribute
of the calling module, so those inner calls get spans too. Self time is a
span's duration minus the durations of its direct children; spans nest
strictly because the benchmark runs one caller in one thread.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager, nullcontext

from footfall.nmf import ITERS

# (calling module, attribute, span name): callees the package imports by name
WRAPPED = (
    ("footfall.nmf", "voice_templates", "nmf.voice_templates"),
    ("footfall.nmf", "nmf_fit", "nmf.nmf_fit"),
    ("footfall.nmf", "analyze_padded", "dsp.analyze_padded"),
    ("footfall.nmf", "synthesize_padded", "dsp.synthesize_padded"),
    ("footfall.wiener", "analyze_padded", "dsp.analyze_padded"),
    ("footfall.wiener", "synthesize_padded", "dsp.synthesize_padded"),
    ("footfall.detect", "mfc", "mfc.mfc"),
    ("footfall.detect", "gmm_classify", "gmm.gmm_classify"),
    ("footfall.scenes", "place_footstep", "footsteps.place_footstep"),
    ("footfall.scenes", "footstep_parts", "footsteps.footstep_parts"),
    ("footfall.scenes", "pink_noise", "interferers.pink_noise"),
)


def _observe(name, kwargs, result) -> dict:
    """Counts recorded at the boundary where the work happens."""
    if name == "nmf.nmf_fit":
        track = result[1]
        return {"sweeps": len(track) - 1, "div0": float(track[0]), "div1": float(track[-1])}
    if name == "nmf.voice_templates":
        return {"sweeps": int(kwargs.get("iters", ITERS))}
    if name == "dsp.analyze_padded":
        return {"frames": result[0].n_frames}
    return {}


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.attrs = {}

    def to_dict(self, index) -> dict:
        return {"id": index, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "attrs": self.attrs}


class Tracer:
    """Collects spans; `span` is a context manager yielding the open Span."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(name, time.perf_counter(), parent)
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
                s.attrs.update(_observe(name, kwargs, result))
            return result
        return traced

    @contextmanager
    def patched(self):
        """Install the wrappers of WRAPPED; the originals come back on exit."""
        saved = []
        try:
            for module_name, attr, name in WRAPPED:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def children(self) -> dict:
        kids: dict[int, list[int]] = {}
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                kids.setdefault(s.parent, []).append(i)
        return kids

    def self_times(self) -> list[float]:
        """Duration minus the direct children's durations, per span."""
        own = [s.end - s.start for s in self.spans]
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def subtree(self, root: int, kids: dict) -> list[int]:
        out, todo = [], [root]
        while todo:
            i = todo.pop()
            out.append(i)
            todo.extend(kids.get(i, ()))
        return out

    def to_list(self) -> list[dict]:
        return [s.to_dict(i) for i, s in enumerate(self.spans)]


class NullTracer:
    """Tracing off: spans cost one no-op context manager."""

    enabled = False
    _null = nullcontext(None)

    def span(self, name: str):
        return self._null

    @contextmanager
    def patched(self):
        yield self
