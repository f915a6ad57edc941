"""Per-layer tracing by wrapping the public names of the tqsl modules.

Nothing under ``src/tqsl`` knows about this. ``Tracer.installed`` replaces
every public function of the traced modules, wherever a tqsl module has
bound it (``from .dynamics import sample_trajectory`` makes a second
binding), and wraps the constructors of the public classes, then puts the
originals back.

- Every wrapped name counts its calls and the calls that raised.
- The names in ``SPANS`` also open a span. A span's self time is its
  duration minus the time of the spans it encloses; the pass is the root
  span, so self times add up to the traced pass time.
- Constructors of the ``states`` classes also add their time to
  ``validate_s``. That timer is not a span: the time stays in the self time
  of the enclosing span as well.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

MODULES = ("dynamics", "bounds", "uncertainty", "ensembles", "states", "linalg", "experiments")

# wrapped name -> span label. These are the layer boundaries the benchmark's
# per-layer metrics are reported at; everything else is counted only.
SPANS = {
    "experiments.run_experiment_gue": "experiments.run",
    "experiments.run_experiment_spin": "experiments.run",
    "dynamics.sample_trajectory": "dynamics.sample_trajectory",
    "bounds.bound_series": "bounds.bound_series",
    "bounds.BoundReport.csv_row": "bounds.csv_row",
    "bounds.correction_samples": "bounds.correction_samples",
    "bounds.optimize_basis": "bounds.optimize_basis",
    "linalg.expm_i_hermitian": "linalg.expm_i_hermitian",
    "ensembles.spin_chain_evolved_state": "ensembles.spin_chain_evolved_state",
    "ensembles.sample_gue": "ensembles.sample_gue",
    "ensembles.random_basis": "ensembles.random_basis",
    "uncertainty.correction_k_mixed": "uncertainty.correction_k_mixed",
}
ROOT_SPAN = "bench.pass"


class Tracer:
    """Aggregated spans and counts for one traced pass at a time."""

    def __init__(self):
        self.classes = set()  # keys of wrapped constructors
        self.reset()

    def reset(self) -> None:
        self.calls = Counter()
        self.raised = Counter()
        self.self_s = defaultdict(float)
        self.validate_s = 0.0
        self._stack = []  # [start, time covered by child spans]
        self._validating = 0

    def _close(self, label: str, frame: list) -> None:
        dur = perf_counter() - frame[0]
        self.self_s[label] += dur - frame[1]
        if self._stack:
            self._stack[-1][1] += dur

    @contextmanager
    def root(self):
        """The pass itself; returns its duration through the yielded list."""
        frame = [perf_counter(), 0.0]
        self._stack.append(frame)
        elapsed = [0.0]
        try:
            yield elapsed
        finally:
            self._stack.pop()
            elapsed[0] = perf_counter() - frame[0]
            self._close(ROOT_SPAN, frame)

    def _wrap(self, key: str, fn, validates: bool = False):
        label = SPANS.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[key] += 1
            if label is not None:
                frame = [perf_counter(), 0.0]
                self._stack.append(frame)
            if validates:
                self._validating += 1
                start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.raised[key] += 1
                raise
            finally:
                if validates:
                    self._validating -= 1
                    if not self._validating:
                        self.validate_s += perf_counter() - start
                if label is not None:
                    self._stack.pop()
                    self._close(label, frame)

        return traced

    @contextmanager
    def installed(self):
        """Swap wrapped versions in for the duration of the block."""
        restore = []  # (owner, attribute, original)
        by_id = {}  # id(original function) -> (original, wrapper)
        for modname in MODULES:
            mod = importlib.import_module(f"tqsl.{modname}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(modname, obj, restore)
                elif inspect.isfunction(obj):
                    by_id[id(obj)] = (obj, self._wrap(f"{modname}.{name}", obj))
        tqsl_modules = [m for n, m in list(sys.modules.items()) if n == "tqsl" or n.startswith("tqsl.")]
        for mod in tqsl_modules:
            for name, obj in list(vars(mod).items()):
                hit = by_id.get(id(obj))
                if hit is not None and hit[0] is obj:
                    restore.append((mod, name, obj))
                    setattr(mod, name, hit[1])
        try:
            yield self
        finally:
            for owner, name, original in reversed(restore):
                setattr(owner, name, original)

    def _wrap_class(self, modname: str, cls, restore: list) -> None:
        key = f"{modname}.{cls.__name__}"
        init = cls.__dict__.get("__init__")
        if init is not None:
            self.classes.add(key)
            restore.append((cls, "__init__", init))
            cls.__init__ = self._wrap(key, init, validates=modname == "states")
        for name, attr in list(vars(cls).items()):
            if f"{key}.{name}" in SPANS and inspect.isfunction(attr):
                restore.append((cls, name, attr))
                setattr(cls, name, self._wrap(f"{key}.{name}", attr))
