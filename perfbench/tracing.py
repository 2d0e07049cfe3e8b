"""In-memory tracing of levynet's public functions, installed from outside.

Tracer.installed() rebinds functions and methods of the levynet modules to
wrappers for the duration of a `with` block and restores them afterwards, so
the program itself carries no tracing code.  Calls into the layers that run
a few times per point become spans (id, name, start, end, parent); the hot
per-iteration calls (exponents, rate functions, root-finder evaluations,
kappa, starred sets) only bump a count and a time total, because one span
each would cost more memory than the work they trace.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict

# (module, attribute, span name): every binding of the function in a levynet
# module is wrapped, so calls through `from .x import f` are seen as well.
SPANNED = (
    ("levynet.exact", "joint_lst_exact", "exact.joint_lst_exact"),
    ("levynet.limit", "joint_lst_limit", "limit.joint_lst_limit"),
    ("levynet.limit", "singular_limit", "limit.singular_limit"),
    ("levynet.simulate", "simulate_workload", "simulate.simulate_workload"),
    ("levynet.simulate", "empirical_lst", "simulate.empirical_lst"),
    ("levynet.config", "load_run_config", "config.load_run_config"),
    ("levynet.network", "build_network", "network.build_network"),
    ("levynet.network", "validate_assumptions", "network.validate_assumptions"),
)

# (module, attribute, counter): only this one binding is wrapped.
COUNTED = (
    ("levynet.exact", "kappa", "exact.kappa"),
    ("levynet.limit", "starred_sets", "partition.starred_sets"),
)

# (module, class names, methods, counter)
COUNTED_METHODS = (
    (
        "levynet.models",
        ("Brownian", "CenteredGamma", "CompoundPoisson", "StableSum"),
        ("laplace_exponent", "laplace_exponent_deriv"),
        "models.exponent",
    ),
    ("levynet.network", ("RateFunction",), ("__call__",), "network.rate"),
)

# Root solves: every binding of invert_increasing, with the function it
# inverts wrapped too so that its evaluations are counted.
ROOT_SOLVER = ("levynet.roots", "invert_increasing")


class NoTrace:
    """Stand-in used by untraced runs: unit spans cost one no-op `with`."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def reset_counts(self) -> None:
        pass


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._next_id = 0

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans.append((sid, name, start, time.perf_counter(), parent))

    def _spanned(self, fn, name: str):
        def wrapper(*args, **kwargs):
            with self.span(name):
                try:
                    return fn(*args, **kwargs)
                except Exception as exc:
                    self.counts[f"{name}.{type(exc).__name__}"] += 1
                    raise

        return wrapper

    def _counted(self, fn, key: str):
        counts, seconds = self.counts, self.seconds

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                counts[key] += 1
                seconds[key] += time.perf_counter() - start

        return wrapper

    def _root_solver(self, solve):
        counts, seconds = self.counts, self.seconds

        def wrapper(f, x, *args, **kwargs):
            def evaluated(s):
                counts["roots.f_eval"] += 1
                return f(s)

            start = time.perf_counter()
            try:
                return solve(evaluated, x, *args, **kwargs)
            finally:
                counts["roots.solve"] += 1
                seconds["roots.solve"] += time.perf_counter() - start

        return wrapper

    def reset_counts(self) -> None:
        self.counts.clear()
        self.seconds.clear()

    # -- installation ------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap the traced functions for the duration of the block."""
        saved = []

        def patch(owner, attr, wrapper):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

        def patch_everywhere(fn, wrapper):
            for name, mod in list(sys.modules.items()):
                if name == "levynet" or name.startswith("levynet."):
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            patch(mod, attr, wrapper)

        try:
            for module, attr, name in SPANNED:
                fn = getattr(importlib.import_module(module), attr)
                patch_everywhere(fn, self._spanned(fn, name))
            for module, attr, key in COUNTED:
                mod = importlib.import_module(module)
                patch(mod, attr, self._counted(getattr(mod, attr), key))
            for module, classes, methods, key in COUNTED_METHODS:
                mod = importlib.import_module(module)
                for cls_name in classes:
                    cls = getattr(mod, cls_name)
                    for method in methods:
                        patch(cls, method, self._counted(vars(cls)[method], key))
            solve = getattr(importlib.import_module(ROOT_SOLVER[0]), ROOT_SOLVER[1])
            patch_everywhere(solve, self._root_solver(solve))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of the spans called `name`."""
        return [end - start for _, n, start, end, _ in self.spans if n == name]

    def mean_ms(self, name: str) -> float:
        """Mean duration of the spans called `name`; 0 if there are none."""
        spans = self.durations(name)
        return 1e3 * statistics.fmean(spans) if spans else 0.0

    def mean_us(self, key: str) -> float:
        """Mean time of a counted call; 0 if it was never called."""
        n = self.counts[key]
        return 1e6 * self.seconds[key] / n if n else 0.0

    def write(self, path) -> None:
        payload = {
            "spans": [
                {"id": sid, "name": n, "start": s, "end": e, "parent": p}
                for sid, n, s, e, p in self.spans
            ],
            "counts": dict(self.counts),
            "seconds": dict(self.seconds),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)
