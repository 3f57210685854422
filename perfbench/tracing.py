"""Spans around calls into ssamp's layers, recorded from outside the package.

Each hook wraps one public function where its calling module looks it up
(``ssamp.solver.phi_zeta`` is the name the solver calls, not
``ssamp.kernels.phi_zeta``; ``ssamp.harness.generate`` is the name the
trial builder calls, not ``ssamp.signals.generate``), and the operator that
``harness.build_operator`` returns is wrapped in a pass-through that records
``apply`` and ``adjoint``.  A hook whose attribute no longer exists is
skipped and its layer reported absent.  Spans live in memory and are written
out when the run ends; nothing under ``src/`` is modified.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

# (module the caller looks the name up in, attribute, span name)
HOOKS = (
    ("ssamp.harness", "build_operator", "operators.build"),
    ("ssamp.harness", "generate", "signals.generate"),
    ("ssamp.harness", "measure", "signals.measure"),
    ("ssamp.harness", "solve", "solver.solve"),
    ("ssamp.harness", "tvamp_solve", "tvamp.solve"),
    ("ssamp.solver", "phi_zeta", "kernels.phi_zeta"),
    ("ssamp.solver", "eta_gamma", "kernels.eta_gamma"),
    ("ssamp.solver", "em_update", "solver.em_update"),
    ("ssamp.tvamp", "tv_prox", "tvamp.tv_prox"),
    ("ssamp.tvamp", "tv_divergence", "tvamp.tv_divergence"),
)

# Spans whose first argument is the per-coordinate input array.
_COORD_SPANS = ("kernels.phi_zeta", "kernels.eta_gamma")

# Spans whose result is an operator, handed back wrapped in a TracedOperator.
_OPERATOR_SPANS = ("operators.build",)

SOLVE_SPANS = ("solver.solve", "tvamp.solve")

# Span fields, kept as plain lists to keep recording cheap.
NAME, START, END, PARENT, TRIAL = range(5)


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1, trial]
        self.coords: Counter = Counter()  # span name -> coordinates processed
        self.trial = None
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.trial])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while span {popped} was open")

    def wrap(self, name: str, fn):
        count_coords = name in _COORD_SPANS
        returns_operator = name in _OPERATOR_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_coords:
                self.coords[name] += np.size(args[0])
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            return TracedOperator(result, self) if returns_operator else result

        return traced

    def wrap_operator(self, op):
        return TracedOperator(op, self)


class TracedOperator:
    """Pass-through operator: same results, with a span per apply/adjoint."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self._apply = tracer.wrap("operators.apply", inner.apply)
        self._adjoint = tracer.wrap("operators.adjoint", inner.adjoint)

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def apply(self, x):
        return self._apply(x)

    def adjoint(self, r):
        return self._adjoint(r)


def current_hooks() -> dict:
    """The object each hook point holds right now (None when missing)."""
    return {
        (module_name, attr): getattr(importlib.import_module(module_name), attr, None)
        for module_name, attr, _ in HOOKS
    }


@contextmanager
def patched(wrappers: dict):
    """Replace each ``(module name, attribute)`` by ``wrapper(original)``.

    Points whose attribute does not exist are skipped, and yielded as a
    list; every replaced attribute is restored on exit.
    """
    saved = []
    absent = []
    try:
        for (module_name, attr), wrapper in wrappers.items():
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                absent.append((module_name, attr))
                continue
            saved.append((module, attr, original))
            setattr(module, attr, wrapper(original))
        yield absent
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


@contextmanager
def installed(tracer: Tracer):
    """Install every available hook; restore the original attributes on exit.

    Yields the list of span names whose hook point is missing.
    """
    spans = {(module_name, attr): span for module_name, attr, span in HOOKS}
    wrappers = {
        point: functools.partial(tracer.wrap, span) for point, span in spans.items()
    }
    with patched(wrappers) as absent:
        yield [spans[point] for point in absent]


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the time its direct children cover, in ns."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _descends_from(spans, index: int, names) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] in names:
            return True
        parent = spans[parent][PARENT]
    return False


def layer_totals(spans: list[list]) -> dict:
    """Span time, self time and calls, summed by (name, in_solve).

    ``in_solve`` separates operator applies made by the solver from the one
    ``measure`` makes.
    """
    own = self_times(spans)
    total = defaultdict(int)
    self_ns = defaultdict(int)
    calls = Counter()
    for i, s in enumerate(spans):
        key = (s[NAME], _descends_from(spans, i, SOLVE_SPANS))
        total[key] += s[END] - s[START]
        self_ns[key] += own[i]
        calls[key] += 1
    return {"total_ns": total, "self_ns": self_ns, "calls": calls}


def self_times_sum_to_trials(spans: list[list]) -> bool:
    """In every trial, the self times of its spans sum exactly to its trial span."""
    own = self_times(spans)
    trial_ns = {}
    summed = Counter()
    for i, s in enumerate(spans):
        summed[s[TRIAL]] += own[i]
        if s[NAME] == "harness.trial":
            trial_ns[s[TRIAL]] = s[END] - s[START]
    return bool(trial_ns) and all(summed[t] == ns for t, ns in trial_ns.items())
