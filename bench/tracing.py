"""Spans around the library's layer boundaries, recorded from outside.

``install`` rebinds each layer's public entry points, in the module
namespaces that call them, to wrappers that record a span: name, start, end,
parent span and request id.  Per-set calls that run thousands of times per
request (``choquet_value``) are aggregated instead: one count and one total
time per parent span.  Spans stay in memory and are written when the run
ends.  A layer's self time is its span time minus the time of the spans and
aggregated calls inside it, so per request the self times of all layers plus
the residual ``cli`` self time add up to the request's traced latency.

``extreal`` arithmetic has no call boundary that can be wrapped from outside;
its cost shows up in the self time of the layer that does the arithmetic.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

ROOT = "cli"
HOT = "choquet.value"


def _null_sets(measure) -> int:
    return sum(1 for _ in measure.null_sets())


# (module, attribute, span name, counters from (args, result, span seconds)).
# Counters read only public return values and are evaluated after the request
# has finished, so they cost nothing inside the timed spans.
BINDINGS = [
    ("cli", "load_problem", "specio.load", None),
    ("cli", "problem_to_dict", "specio.dump", None),
    ("specio", "make_measure", "measures.materialize", None),
    ("sigma_finite", "additive_measure", "measures.materialize", None),
    ("sigma_finite", "max_weight_measure", "measures.materialize", None),
    ("sigma_finite", "cardinality_measure", "measures.materialize", None),
    ("sigma_finite", "measure_from_table", "measures.materialize", None),
    ("sigma_finite", "MonotoneMeasure", "measures.materialize", None),
    ("cli", "is_weakly_null_additive", "measures.classify",
     lambda args, r, s: {"measures.null_sets": _null_sets(args[0])}),
    ("cli", "is_null_additive", "measures.classify",
     lambda args, r, s: {"measures.null_sets": _null_sets(args[0])}),
    ("cli", "has_property_sigma", "measures.classify",
     lambda args, r, s: {"measures.null_sets": _null_sets(args[0])}),
    ("cli", "abs_continuous", "measures.classify",
     lambda args, r, s: {"measures.null_sets": _null_sets(args[1])}),
    ("solver", "abs_continuous", "measures.classify",
     lambda args, r, s: {"measures.null_sets": _null_sets(args[1])}),
    ("cli", "strongly_abs_continuous", "measures.classify", None),
    ("cli", "check_decomposition", "decomposition.check",
     lambda args, r, s: {"decomposition.band_pair_checks": r.checked_pairs * r.checked_sets}),
    ("sigma_finite", "check_decomposition", "decomposition.check",
     lambda args, r, s: {"decomposition.band_pair_checks": r.checked_pairs * r.checked_sets}),
    ("cli", "lemma_tail_check", "decomposition.check", None),
    ("cli", "verify_rn", "decomposition.verify_rn",
     lambda args, r, s: {"decomposition.verify_rn_sets": r.checked}),
    ("solver", "verify_rn", "decomposition.verify_rn",
     lambda args, r, s: {"decomposition.verify_rn_sets": r.checked}),
    ("cli", "dyadic_approximant", "decomposition.dyadic", None),
    ("cli", "solve_rn", "solver.solve",
     lambda args, r, s: {"solver.chains_tried": len(r.chain_records) + int(r.solvable),
                         "solver.verdicts": 1,
                         "solver.feasible_s" if r.solvable else "solver.refute_s": s,
                         "solver.feasible_calls" if r.solvable else "solver.refute_calls": 1}),
    ("specio", "make_truncation_model", "sigma_finite.model", None),
    ("cli", "glue_derivative", "sigma_finite.glue", None),
    ("cli", "verify_sigma_finite", "sigma_finite.verify",
     lambda args, r, s: {"sigma_finite.test_sets": len(r.records)}),
    ("cli", "render_json", "report.render",
     lambda args, r, s: {"report.output_bytes": len(r.encode())}),
]

# Per-set calls: counted and timed in aggregate per parent span.  The
# choquet module's own binding is the one verify_rn imports at call time.
HOT_BINDINGS = [
    ("choquet", "choquet_value"),
    ("sigma_finite", "choquet_value"),
    ("cli", "choquet_integral"),
]


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent index, request id]
        self.hot = {}         # parent span index -> [calls, seconds]
        self.stack = []
        self.pending = []     # (counters, args, result, span) of this request
        self.counters = {}    # name -> total over the run
        self.request = None

    def install(self) -> None:
        for module, attribute, name, counters in BINDINGS:
            namespace = sys.modules[f"choquetrn.{module}"]
            setattr(namespace, attribute,
                    self._wrap(getattr(namespace, attribute), name, counters))
        for module, attribute in HOT_BINDINGS:
            namespace = sys.modules[f"choquetrn.{module}"]
            setattr(namespace, attribute, self._wrap_hot(getattr(namespace, attribute)))

    def _wrap(self, fn, name, counters):
        spans, stack, pending = self.spans, self.stack, self.pending

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else None, self.request]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if counters is not None:
                pending.append((counters, args, result, record))
            return result

        return traced

    def _wrap_hot(self, fn):
        hot, stack = self.hot, self.stack

        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                entry = hot.get(stack[-1])
                if entry is None:
                    hot[stack[-1]] = [1, elapsed]
                else:
                    entry[0] += 1
                    entry[1] += elapsed

        return traced

    def root(self, fn, sent):
        """Wraps the request entry point as the root span of each request.

        ``sent.seen`` counts the requests sent so far and names the next one.
        """
        traced = self._wrap(fn, ROOT, None)

        def run(*args):
            self.request = sent.seen
            return traced(*args)

        return run

    def finish_request(self) -> dict:
        """Evaluates the request's counters outside its timed spans."""
        totals = {}
        for counters, args, result, record in self.pending:
            for key, value in counters(args, result, record[2] - record[1]).items():
                totals[key] = totals.get(key, 0) + value
        self.pending.clear()
        for key, value in totals.items():
            self.counters[key] = self.counters.get(key, 0) + value
        return totals

    def self_times(self):
        """Self seconds per span name over the run, and the hot call count."""
        child = [0.0] * len(self.spans)
        out = {HOT: 0.0}
        calls = 0
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        for parent, (count, seconds) in self.hot.items():
            child[parent] += seconds
            calls += count
            out[HOT] += seconds
        for index, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[index]
        return out, calls

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, request) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request,
                }) + "\n")
            for parent, (count, seconds) in sorted(self.hot.items()):
                handle.write(json.dumps({
                    "name": HOT, "parent": parent, "calls": count,
                    "seconds": seconds,
                }) + "\n")
