"""Layer spans recorded from outside the library.

``Tracer.install`` rebinds every public function of each stoqlift layer
module, and every alias of it (``from``-imports such as
``stoqlift.cli.check_cptp`` and the package re-exports), to a wrapper that
records a span: name, start, end and parent. The workloads look functions up
on the modules at call time, so they call the wrappers.
``scipy.linalg.expm`` and every module's ``expm`` alias are wrapped as the
``expm`` layer. ``uninstall`` puts every original back. Nothing under
``src/`` is edited.

Self time of a span is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import weakref
from collections import Counter

#: Modules of ``src/stoqlift`` that count as layers. ``random_ops``,
#: ``errors`` and ``_arrays`` are helpers, and their time stays with the caller.
LAYERS = ("cli", "serialization", "kernels", "lifts", "dynamics", "memory",
          "division", "simplex")
EXPM = "expm"


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Spans and counters of one run, kept in memory until the run ends.

    ``spans`` holds ``[name, start, end, parent]`` lists, where ``parent`` is
    the index of the enclosing span or -1.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object, object]] = []
        self._seen_superops = weakref.WeakKeyDictionary()

    # --- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if observe is not None:
                observe(args, result)
            return result
        return traced

    def merge(self, spans, counts, parent: int) -> None:
        """Adopt spans recorded by a child process under span ``parent``."""
        base = len(self.spans)
        for name, start, end, par in spans:
            self.spans.append([name, start, end, parent if par < 0 else par + base])
        self.counts.update(counts)

    # --- observers: counts taken at the layer boundaries --------------------

    def _observe_c_div(self, args, result):
        self.counts["c_div.calls"] += 1
        if getattr(result, "route", "inverse") != "inverse":
            self.counts["c_div.lp"] += 1

    def _observe_lp(self, args, result):
        a = args[0]
        self.counts["lp.size"] += len(a) * len(a[0])

    def _count_superop(self, original):
        seen = self._seen_superops

        @functools.wraps(original)
        def superop(family, t, s):
            self.counts["superop.evals"] += 1
            keys = seen.setdefault(family, set())
            if (t, s) not in keys:
                keys.add((t, s))
                self.counts["superop.unique"] += 1
            return original(family, t, s)
        return superop

    def _count_kraus(self, original):
        @functools.wraps(original)
        def init(kmap, *args, **kwargs):
            original(kmap, *args, **kwargs)
            self.counts["kraus.bytes"] += kmap.rank * kmap.n * kmap.n * 16
        return init

    # --- installation ------------------------------------------------------

    def _plan(self):
        observers = {"kernels.c_divisibility_check": self._observe_c_div,
                     "simplex.solve_lp": self._observe_lp}
        wrappers = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"stoqlift.{layer}")
            except ImportError:
                continue
            for attr, val in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(val)
                        and val.__module__ == mod.__name__):
                    name = f"{layer}.{attr}"
                    wrappers[id(val)] = (val, self.wrap(name, val,
                                                        observers.get(name)))
        import scipy.linalg
        expm = scipy.linalg.expm
        wrappers[id(expm)] = (expm, self.wrap(EXPM, expm))

        targets = [m for n, m in sorted(sys.modules.items())
                   if n == "stoqlift" or n.startswith("stoqlift.")]
        targets.append(scipy.linalg)
        for mod in targets:
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._bindings.append((mod, attr, val, hit[1]))

        dynamics = sys.modules.get("stoqlift.dynamics")
        family = getattr(dynamics, "SuperOperatorFamily", None)
        if family is not None and "superop" in vars(family):
            original = vars(family)["superop"]
            self._bindings.append((family, "superop", original,
                                   self._count_superop(original)))
        lifts = sys.modules.get("stoqlift.lifts")
        kraus = getattr(lifts, "KrausMap", None)
        if kraus is not None and "__init__" in vars(kraus):
            original = vars(kraus)["__init__"]
            self._bindings.append((kraus, "__init__", original,
                                   self._count_kraus(original)))

    def install(self) -> None:
        if not self._bindings:
            self._plan()
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    # --- results -----------------------------------------------------------

    def self_times(self):
        """Per span: (self time, time excluding child spans of other layers).

        The second figure keeps same-layer helpers (``check_cptp`` calling
        ``choi_from_kraus``) inside the caller's time.
        """
        n = len(self.spans)
        dur = [end - start for _, start, end, _ in self.spans]
        layer = [layer_of(s[0]) for s in self.spans]
        child = [0.0] * n
        foreign = [0.0] * n
        for i in range(n - 1, -1, -1):
            p = self.spans[i][3]
            if p >= 0:
                child[p] += dur[i]
                foreign[p] += dur[i] if layer[i] != layer[p] else foreign[i]
        return ([d - c for d, c in zip(dur, child)],
                [d - f for d, f in zip(dur, foreign)])
