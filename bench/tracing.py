"""Per-layer timing of tvdp, recorded from outside the package.

Each tvdp module is one layer.  ``Tracer.install`` replaces every public
function of each module with a timing wrapper: in the module itself, in the
package namespace and in every module that imported the function by name
(``dpsgd``, ``asymptotics`` and ``cli`` do), so a call is attributed to the
module that defines the function whoever makes it.  A span's self time is
its duration minus the duration of the traced calls it made.  Nothing is
edited on disk; ``uninstall`` puts the original attributes back.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import sys
import time

LAYERS = (
    "curves",
    "divergences",
    "mechanisms",
    "composition",
    "amplification",
    "asymptotics",
    "localdp",
    "dpsgd",
    "cli",
)

# argparse construction is part of what a CLI call costs, so it stays inside
# the dispatch span instead of becoming a span of its own.
UNTRACED = {"cli.build_parser"}

# Functions and methods that read values off finished curves share one span.
QUERY_SPAN = "curves.query"
QUERY_FUNCTIONS = {
    "curves.delta_at_epsilon",
    "curves.min_gap",
    "curves.max_gap",
    "curves.sup_norm",
    "curves.strict_improvement",
    "curves.tv_of_curve",
    "curves.check_budget",
}
QUERY_METHODS = ("__call__", "tv", "check_budget")

# Ledger entries whose slope e^(j*eps) exceeds e^700 are capped by the curve code.
CAPPED_LOG_SLOPE = 700.0


class Tracer:
    """Accumulates self time, call counts and work counters per span name.

    ``take`` returns what was recorded since the previous ``take`` and
    starts a new interval, so a caller can read one interval per pass.
    """

    def __init__(self):
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []
        self._reset()

    def _reset(self):
        self.self_s = collections.defaultdict(float)
        self.calls = collections.Counter()
        self.counts = collections.Counter()
        self.ledgers = []  # (ledger, curve) pairs seen by ledger_to_curve

    def take(self):
        out = (dict(self.self_s), dict(self.calls), dict(self.counts), self.ledgers)
        self._reset()
        return out

    def _wrap(self, span: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._stack.append(0.0)
            start = time.perf_counter()
            end = None
            try:
                result = fn(*args, **kwargs)
                end = time.perf_counter()
                if hook is not None:
                    hook(self, args, kwargs, result)
                return result
            finally:
                now = time.perf_counter()
                self.self_s[span] += (now if end is None else end) - start - self._stack.pop()
                self.calls[span] += 1
                # the parent's self time excludes this call and its hook
                if self._stack:
                    self._stack[-1] += now - start

        return traced

    def install(self):
        package = importlib.import_module("tvdp")
        modules = {name: importlib.import_module(f"tvdp.{name}") for name in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                qualified = f"{layer}.{name}"
                if (
                    name.startswith("_")
                    or qualified in UNTRACED
                    or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                ):
                    continue
                span = QUERY_SPAN if qualified in QUERY_FUNCTIONS else qualified
                wrappers[id(obj)] = self._wrap(span, obj, HOOKS.get(qualified))
        for namespace in (package, *modules.values()):
            for name, obj in list(vars(namespace).items()):
                if id(obj) in wrappers:
                    self._patch(namespace, name, wrappers[id(obj)])
        curve_cls = modules["curves"].TradeoffCurve
        for name in QUERY_METHODS:
            self._patch(curve_cls, name, self._wrap(QUERY_SPAN, vars(curve_cls)[name]))

    def _patch(self, owner, name, value):
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self):
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)


def _count_ledger(tracer, args, kwargs, ledger):
    tracer.counts["composition.ledger_entries"] += len(ledger.entries)
    tracer.counts["composition.clamped_entries"] += sum(e.clamped for e in ledger.entries)
    tracer.counts["composition.capped_entries"] += sum(
        e.epsilon > CAPPED_LOG_SLOPE for e in ledger.entries
    )


def _count_ledger_curve(tracer, args, kwargs, curve):
    ledger = args[0] if args else kwargs["ledger"]
    tracer.ledgers.append((ledger, curve))
    # the zero line plus two lines per entry
    tracer.counts["curves.lines_in"] += 1 + 2 * len(ledger.entries)
    tracer.counts["curves.vertices_out"] += curve.xs.size


def _count_intersect(tracer, args, kwargs, curve):
    curves = args[0] if args else kwargs["curves"]
    if isinstance(curves, (list, tuple)):  # a consumed iterator cannot be re-read
        tracer.counts["curves.lines_in"] += sum(c.xs.size - 1 for c in curves)
    tracer.counts["curves.vertices_out"] += curve.xs.size


def _count_budget_curve(tracer, args, kwargs, curve):
    tracer.counts["curves.lines_in"] += 4  # two DP lines, the TV line, zero
    tracer.counts["curves.vertices_out"] += curve.xs.size


def _count_sgd(tracer, args, kwargs, report):
    tracer.counts["dpsgd.eta_clamped"] += sum(r["eta_clamped"] for r in report["per_epsilon"])
    tracer.counts["dpsgd.strict"] += int(report["dominance"]["strict"])


def _count_output(tracer, args, kwargs, code):
    # the caller captures stdout; count what this call wrote to it
    captured = getattr(sys.stdout, "getvalue", None)
    if captured is not None:
        tracer.counts["cli.bytes_out"] += len(captured().encode())


HOOKS = {
    "composition.compose_exact": _count_ledger,
    "composition.compose_types_approx": _count_ledger,
    "composition.compose_kairouz": _count_ledger,
    "composition.ledger_to_curve": _count_ledger_curve,
    "curves.intersect": _count_intersect,
    "curves.curve_from_budget": _count_budget_curve,
    "dpsgd.sgd_compare": _count_sgd,
    "cli.dispatch": _count_output,
}
