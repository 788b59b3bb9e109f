"""Per-module timing of gqtlab from outside the package.

`Tracer.install` wraps the public functions of each gqtlab module and
rebinds every name under which any gqtlab module (or the package itself)
holds them, so `transforms.solve_phases` and `cli.gqet`, which were imported
by value, are timed too.  Each wrapped function records calls, total time
and self time (total minus the time of wrapped functions it called).
`Tracer.uninstall` puts the original objects back.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import inspect
import sys
import time

MODULES = ("polynomials", "phases", "encodings", "transforms", "bounds",
           "serialization", "cli")


@dataclasses.dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def _targets(mod) -> dict:
    """Public functions defined in `mod`: its __all__, or cli's cmd_* handlers."""
    if mod.__name__.endswith(".cli"):
        names = [n for n in vars(mod) if n.startswith("cmd_")]
    else:
        names = list(getattr(mod, "__all__", ()))
    return {n: getattr(mod, n) for n in names
            if inspect.isfunction(getattr(mod, n, None))
            and getattr(mod, n).__module__ == mod.__name__}


class Tracer:
    """Span statistics keyed by 'module.function'.

    ``hooks`` maps a key to ``fn(tracer, args, kwargs, result)``, run after the
    span closes, to add exact counts to ``counters``.  ``root_s`` accumulates
    the time of outermost spans, so a caller can compare it with the wall
    time of the work it timed.
    """

    def __init__(self, hooks: dict | None = None):
        self.stats: dict[str, Stat] = {}
        self.counters: dict[str, float] = {}
        self.root_s = 0.0
        self.hooks = hooks or {}
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def count(self, name: str, value: float = 1.0):
        self.counters[name] = self.counters.get(name, 0.0) + value

    def snapshot(self) -> tuple[dict, dict]:
        return copy.deepcopy(self.stats), dict(self.counters)

    def _wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, Stat())
        hook = self.hooks.get(key)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - children[0]
                if stack:
                    stack[-1][0] += dt
                else:
                    self.root_s += dt
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for name in MODULES:
            mod = sys.modules[f"gqtlab.{name}"]
            for fname, fn in _targets(mod).items():
                wrappers[id(fn)] = self._wrap(f"{name}.{fname}", fn)
        for mname, mod in list(sys.modules.items()):
            if mod is None or not (mname == "gqtlab"
                                   or mname.startswith("gqtlab.")):
                continue
            for attr, value in list(vars(mod).items()):
                w = wrappers.get(id(value))
                if w is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, w)

    def uninstall(self):
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()
