"""Spans around the public calls of sqtkit, recorded from outside the program.

While a `Tracer` is installed, each traced function is replaced, in every
sqtkit module namespace that holds it, by a wrapper that times the call and
notes which traced call it ran inside. `StateVector.__post_init__` is wrapped
to count constructions. Spans are kept in memory, grouped by name and by the
tag the caller sets (the workload's size class), and everything is restored
by `uninstall`.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

from sqtkit import cli, conditions, families, protocol, schmidt, statevec

# span name -> the functions it covers
SPANS = {
    "families.build": [(families, f) for f in (
        "ghz", "w_general", "separable_branch_family", "schmidt_branch_family",
        "acin_canonical", "acin_alternative", "zha_counterexample", "random_state")],
    "statevec.new_state": [(statevec, "new_state")],
    "statevec.permute_qubits": [(statevec, "permute_qubits")],
    "schmidt.split_by_receiver": [(schmidt, "split_by_receiver")],
    "schmidt.schmidt_form": [(schmidt, "schmidt_form")],
    "schmidt.concurrence_via_density": [(schmidt, "concurrence_via_density")],
    "conditions.check_general": [(conditions, "check_general")],
    "conditions.check_3qubit": [(conditions, "check_3qubit")],
    "conditions.classify": [(conditions, "classify_zha"), (conditions, "classify_acin_alt")],
    "protocol.outcome_table": [(protocol, "outcome_table")],
    "protocol.run_teleport": [(protocol, "run_teleport")],
    "protocol.average_fidelity_mc": [(protocol, "average_fidelity_mc")],
    "cli.load_document": [(cli, "load_document")],
    "cli.main": [(cli, "main")],
}


class Tracer:
    """Collects, per (span name, tag), one (seconds, {child span: seconds})
    record per call, plus the calls that raised."""

    def __init__(self):
        self.tag = ""
        self.calls = defaultdict(list)  # (name, tag) -> [(seconds, children)]
        self.failures = defaultdict(int)  # (name, tag) -> calls that raised
        self.constructions = 0  # StateVector constructions while installed
        self.rounds = 0  # traced rounds, analysed states and the constructions
        self.states = 0  # made during their analysis: all kept by the caller
        self.state_constructions = 0
        self._stack = []  # per active span: {child name: seconds}
        self._saved = []

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = defaultdict(float)
            tracer._stack.append(children)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                tracer.failures[(name, tracer.tag)] += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][name] += dt
                tracer.calls[(name, tracer.tag)].append((dt, children))

        return traced

    def durations(self, name, tag=None, minus=None):
        """Call durations of span `name` (all tags, or one), optionally minus
        the time each call spent inside child span `minus`."""
        out = []
        for (nm, tg), calls in self.calls.items():
            if nm == name and tag in (None, tg):
                out += [d - ch.get(minus, 0.0) for d, ch in calls]
        return out

    def failed(self, name):
        return sum(c for (nm, _), c in self.failures.items() if nm == name)

    def tags(self):
        return sorted({tg for (_, tg) in self.calls})

    def install(self):
        sv_cls = statevec.StateVector
        original_post_init = sv_cls.__post_init__
        tracer = self

        def counting_post_init(obj):
            tracer.constructions += 1
            original_post_init(obj)

        self._saved.append((sv_cls, "__post_init__", original_post_init))
        sv_cls.__post_init__ = counting_post_init
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "sqtkit" or name.startswith("sqtkit."))]
        for span, targets in SPANS.items():
            for mod, fname in targets:
                original = getattr(mod, fname)
                wrapper = self._wrap(span, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._saved.append((m, attr, original))
                            setattr(m, attr, wrapper)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
