"""Timing and counting wrappers installed over the exptree modules.

A wrapper replaces a function on every ``exptree.*`` module (and class)
attribute bound to it, because functions such as ``canonicalize``,
``middle_point`` and ``addresses_of`` are imported by name into several
modules and called through those names.  Each timed call is a span whose
parent is the innermost enclosing timed call, so a layer's self time is
its duration minus the time of the spans it caused.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter


class Layer:
    __slots__ = ("calls", "total_s", "self_s", "keys", "sizes")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.keys: set = set()
        self.sizes = 0


class Tracer:
    def __init__(self):
        self.layers: dict[str, Layer] = {}
        self.active = False
        self._stack: list[list[float]] = []  # [start, time of child spans]
        self._undo: list[tuple[object, str, object]] = []

    def layer(self, name: str) -> Layer:
        return self.layers.setdefault(name, Layer())

    def timed(self, owner, attr: str, name: str, key=None, size=None) -> None:
        """Time every call of ``owner.attr``; ``key(args)`` collects
        distinct call keys and ``size(result)`` sums result sizes."""
        stats = self.layer(name)
        stack = self._stack
        tracer = self

        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                frame = [perf_counter(), 0.0]
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    dur = perf_counter() - frame[0]
                    stats.calls += 1
                    stats.total_s += dur
                    stats.self_s += dur - frame[1]
                    if stack:
                        stack[-1][1] += dur
                if key is not None:
                    stats.keys.add(key(args))
                if size is not None:
                    stats.sizes += size(result)
                return result

            return wrapper

        self._install(owner, attr, wrap)

    def counted(self, owner, attr: str, name: str) -> None:
        """Count the calls of ``owner.attr``."""
        stats = self.layer(name)
        tracer = self

        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if tracer.active:
                    stats.calls += 1
                return fn(*args, **kwargs)

            return wrapper

        self._install(owner, attr, wrap)

    def _install(self, owner, attr: str, wrap) -> None:
        original = getattr(owner, attr)
        wrapper = wrap(original)
        if isinstance(owner, type):
            targets = [(owner, attr)]
        else:
            targets = [
                (mod, name)
                for modname, mod in list(sys.modules.items())
                if modname == "exptree" or modname.startswith("exptree.")
                for name, value in list(vars(mod).items())
                if value is original
            ]
        for obj, name in targets:
            self._undo.append((obj, name, original))
            setattr(obj, name, wrapper)

    def uninstall(self) -> None:
        for obj, name, original in reversed(self._undo):
            setattr(obj, name, original)
        self._undo.clear()
