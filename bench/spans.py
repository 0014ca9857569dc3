"""Spans around metatext's public functions, recorded from outside the package.

The package's modules import names from each other directly (harness calls
`meta_test`, meta calls `grad_total`), so a function is wrapped in every
metatext module namespace that holds it, which is where callers look it up.
Wrapping draws no random numbers and leaves arguments and results untouched,
so traced runs write the same bytes as untraced ones.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

TRACED = (
    "episodes.load_corpus", "episodes.sample_episode",
    "model.primary_loss", "model.total_loss", "model.grad_primary",
    "model.grad_total", "model.MaskedBatch.build", "model.save_params",
    "meta.inner_adapt", "meta.gate", "meta.meta_step", "meta.fomaml_step",
    "meta.reptile_step", "meta.fine_tune", "meta.meta_test",
    "harness.run_training",
)
# Functions whose median call duration is reported.
P50_TRACED = ("model.grad_total", "model.total_loss", "meta.meta_step", "meta.meta_test")


class Tracer:
    """Context manager: while active, every call of a TRACED function appends a
    span (name index, parent span, start, end). take() hands the spans over
    and starts a fresh list."""

    def __init__(self):
        self._patches = []
        self._stack = []
        self.name, self.parent, self.t0, self.t1 = [], [], [], []

    def _wrap(self, index: int, fn):
        name, parent, t0, t1, stack = self.name, self.parent, self.t0, self.t1, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(name)
            name.append(index)
            parent.append(stack[-1] if stack else -1)
            t1.append(0.0)
            stack.append(span)
            t0.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                t1[span] = clock()
                stack.pop()
        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "metatext" or key.startswith("metatext.")]
        for index, dotted in enumerate(TRACED):
            module_name, attr = dotted.split(".", 1)
            module = importlib.import_module(f"metatext.{module_name}")
            if "." in attr:
                # A classmethod: wrap the bound method, install it as a static one.
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                wrapped = self._wrap(index, getattr(cls, method))
                self._patch(cls, method, staticmethod(wrapped))
                continue
            fn = getattr(module, attr)
            wrapped = self._wrap(index, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, wrapped)
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    def mark(self) -> int:
        """Index of the next span, to cut the span list at a boundary."""
        return len(self.name)

    def take(self) -> "Spans":
        spans = Spans(np.asarray(self.name, dtype=np.int64),
                      np.asarray(self.parent, dtype=np.int64),
                      np.asarray(self.t0), np.asarray(self.t1))
        for column in (self.name, self.parent, self.t0, self.t1):
            column.clear()
        return spans


class Spans:
    """Finished spans of one traced pass."""

    def __init__(self, name, parent, t0, t1):
        self.name, self.parent = name, parent
        self.duration = t1 - t0
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=self.duration[has_parent],
                            minlength=len(name))
        self.self_time = self.duration - child

    def calls(self, start: int = 0, stop: int | None = None) -> dict:
        counts = np.bincount(self.name[start:stop], minlength=len(TRACED))
        return {TRACED[i]: int(n) for i, n in enumerate(counts)}

    def self_seconds(self) -> dict:
        sums = np.bincount(self.name, weights=self.self_time, minlength=len(TRACED))
        return {TRACED[i]: float(s) for i, s in enumerate(sums)}

    def inclusive_seconds(self, dotted: str) -> float:
        """Summed durations of the function's calls; it must not call itself."""
        return float(self.durations_of(dotted).sum())

    def durations_of(self, dotted: str) -> np.ndarray:
        return self.duration[self.name == TRACED.index(dotted)]
