"""Span tracer that wraps the package's public functions from the outside.

Every public function is wrapped where callers look it up: in the module
namespaces of ``solvers``, ``local_nlp``, ``harness`` and ``qp_core``. The
``model`` layer is reached through ``harness.robot_model``, which is wrapped to
return a :class:`SystemModel` whose callables are traced. A span is named
``<layer>.<function>`` after the module that defines the function, so
``problem.eval_residual_stack`` is one span name whether ``solvers`` or
``local_nlp`` called it.

Spans (name, start, end, parent, window id) are kept in flat arrays while the
traced code runs and summarised or written out afterwards. A span's self time
is its duration minus the time its child spans cover; the code under trace is
single-threaded, so children never overlap and their durations simply add.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

NAMESPACES = ("solvers", "local_nlp", "harness", "qp_core")

# model callables grouped under the span names the benchmark reports
MODEL_SPANS = {
    "f": "model.f",
    "h": "model.h",
    "df_dx": "model.jac",
    "df_du": "model.jac",
    "dh_dx": "model.jac",
    "d2f": "model.curv",
    "d2h": "model.curv",
}


class Tracer:
    """In-memory span recorder plus the return values the metrics need."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.window = array("i")
        self._stack = [-1]
        self._window_id = -1
        self._windows = 0
        # return values observed at layer boundaries, keyed by span name
        self.returns: dict[str, list] = defaultdict(list)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, keep_return: bool = False, new_window: bool = False):
        nid = self._name_id(name)
        start, end, names, parent, window = (
            self.start, self.end, self.name, self.parent, self.window
        )
        stack = self._stack
        returns = self.returns[name] if keep_return else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if new_window:
                self._window_id = self._windows
                self._windows += 1
            idx = len(start)
            names.append(nid)
            parent.append(stack[-1])
            window.append(self._window_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if returns is not None:
                returns.append(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def traced_model(self, model):
        """Copy of ``model`` whose callables record ``model.*`` spans."""
        return dataclasses.replace(
            model,
            **{
                attr: self.wrap(span, getattr(model, attr))
                for attr, span in MODEL_SPANS.items()
            },
        )

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
            "name": np.frombuffer(self.name, dtype=np.int32).astype(np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32).astype(np.int64),
            "window": np.frombuffer(self.window, dtype=np.int32).astype(np.int64),
        }

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-span durations and self times, in seconds."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        covered = np.bincount(a["parent"][child], weights=dur[child], minlength=dur.size)
        return dur, dur - covered

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls, total and self milliseconds per span name."""
        _, self_s = self.self_times()
        a = self.arrays()
        dur = a["end"] - a["start"]
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        total = np.bincount(a["name"], weights=dur, minlength=k)
        own = np.bincount(a["name"], weights=self_s, minlength=k)
        return {
            name: {
                "calls": int(calls[i]),
                "total_ms": 1e3 * float(total[i]),
                "self_ms": 1e3 * float(own[i]),
            }
            for i, name in enumerate(self.names)
        }

    def write(self, path: Path) -> Path:
        """Write all spans as one compressed ``.npz`` file.

        Arrays ``start`` and ``end`` (seconds, ``perf_counter`` clock),
        ``name`` (index into ``names``), ``parent`` (span index, -1 for a root)
        and ``window`` (window id, -1 outside any window).
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        a = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            start=a["start"],
            end=a["end"],
            name=a["name"].astype(np.int32),
            parent=a["parent"].astype(np.int32),
            window=a["window"].astype(np.int32),
        )
        return path


def _defining_layer(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1]


@contextmanager
def installed(tracer: Tracer, keep_returns: tuple[str, ...] = ()):
    """Wrap the package's public functions for the duration of the block.

    Spans named in ``keep_returns`` also keep their return values. Every
    patched attribute is restored on exit, so code outside the block runs the
    package unmodified.
    """
    saved = []
    try:
        for ns in NAMESPACES:
            mod = importlib.import_module(f"splitmhe.{ns}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("splitmhe."):
                    continue
                if obj.__module__ == "splitmhe.model" and attr == "robot_model":
                    wrapped = _traced_factory(tracer, obj)
                else:
                    span = f"{_defining_layer(obj)}.{obj.__name__}"
                    wrapped = tracer.wrap(
                        span,
                        obj,
                        keep_return=span in keep_returns,
                        new_window=span == "harness.solve_window",
                    )
                saved.append((mod, attr, obj))
                setattr(mod, attr, wrapped)
        yield tracer
    finally:
        for mod, attr, obj in reversed(saved):
            setattr(mod, attr, obj)


def _traced_factory(tracer: Tracer, factory):
    def traced_factory(*args, **kwargs):
        return tracer.traced_model(factory(*args, **kwargs))

    traced_factory.__wrapped__ = factory
    return traced_factory
