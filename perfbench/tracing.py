"""Spans and counts at the program's layer boundaries, kept in memory.

``install`` replaces each layer's public functions where their callers
look them up (module attributes, class attributes, and the ``np`` name
inside ``lambeksem.tensor``) with wrappers that record one span per
call: name, parent span, start and end in nanoseconds, and two integer
counts filled from the call's arguments and result.  Nothing inside the
program changes.  ``layer_metrics`` turns one pass's spans into the
per-layer figures; self times subtract the time covered by child spans.
"""

from __future__ import annotations

import functools
import re
import time
import types

import numpy

# span record fields
NAME, PARENT, START, END, A, B = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.enabled = True
        self.einsum_calls: list[tuple] = []
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Replace ``owner.attr`` with a recording wrapper.  A missing
        attribute is skipped: its layer then reads as not run."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            rec = [name, stack[-1] if stack else -1, 0, 0, 0, 0]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[START] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter_ns()
                stack.pop()
            if note is not None:
                note(tracer, rec, args, result)
            return result

        setattr(owner, attr, traced)


class _NumpyView(types.ModuleType):
    """Stands in for ``numpy`` inside one module so that only that
    module's ``np.einsum`` calls are wrapped."""

    def __getattr__(self, attr):
        return getattr(numpy, attr)


def _note_prove(tracer, rec, args, result):
    rec[A] = 1 if result.proofs else 0
    rec[B] = getattr(getattr(result, "stats", None), "goals_expanded", 0)


def _note_nodes(tracer, rec, args, result):
    rec[A] = len(result.nodes)


def _note_removed(tracer, rec, args, result):
    rec[A] = len(args[0].nodes) - len(result.nodes)


def _note_einsum(tracer, rec, args, result):
    tracer.einsum_calls.append(args)


def install(tracer: Tracer) -> None:
    from lambeksem import diagram, lexicon, prover, tensor, translate

    tracer.wrap(lexicon, "builtin_lexicon", "lexicon.load")
    tracer.wrap(lexicon.Lexicon, "states", "lexicon.states")
    tracer.wrap(prover, "derive_sentence", "prover.derive")
    tracer.wrap(prover.Prover, "prove", "prover.prove", _note_prove)
    tracer.wrap(translate, "compile_sentence", "translate.compile", _note_nodes)
    tracer.wrap(translate, "extract_axiom_links", "translate.link")
    tracer.wrap(diagram, "normalize", "diagram.normalize", _note_removed)
    tracer.wrap(tensor, "eval_diagram", "tensor.eval")
    tracer.wrap(tensor.TensorStore, "get", "tensor.store_get")
    view = _NumpyView("numpy")
    view.einsum = numpy.einsum
    tracer.wrap(view, "einsum", "tensor.einsum", _note_einsum)
    tensor.np = view


_FLOPS = re.compile(r"Optimized FLOP count:\s*([0-9.eE+-]+)")


def einsum_flops(calls) -> float:
    """Summed ``np.einsum_path`` estimate over the recorded calls'
    own arguments, with the evaluator's greedy strategy."""
    total = 0.0
    for args in calls:
        _, report = numpy.einsum_path(*args, optimize="greedy")
        total += float(_FLOPS.search(report).group(1))
    return total


# fields of a span_sums entry
INCLUSIVE, SELF, CALLS, SUM_A, SUM_B = range(5)


def span_sums(spans) -> dict[tuple[str, str], list]:
    """Per (span name, parent span name): inclusive seconds, self seconds,
    calls, and the summed counts A and B."""
    child_ns = [0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child_ns[rec[PARENT]] += rec[END] - rec[START]
    sums: dict[tuple[str, str], list] = {}
    for k, rec in enumerate(spans):
        parent = spans[rec[PARENT]][NAME] if rec[PARENT] >= 0 else ""
        acc = sums.setdefault((rec[NAME], parent), [0.0, 0.0, 0, 0, 0])
        dur = rec[END] - rec[START]
        acc[INCLUSIVE] += dur / 1e9
        acc[SELF] += (dur - child_ns[k]) / 1e9
        acc[CALLS] += 1
        acc[SUM_A] += rec[A]
        acc[SUM_B] += rec[B]
    return sums


def layer_metrics(spans, count_cache_entries: int, flops: float) -> dict:
    """Per-layer figures of one pass, from its spans."""
    sums = span_sums(spans)

    def total(name, field=INCLUSIVE, parent=None):
        return sum(v[field] for (n, p), v in sums.items()
                   if n == name and parent in (None, p))

    prove_calls = total("prover.prove", CALLS, parent="prover.derive")
    proofs = total("prover.prove", SUM_A, parent="prover.derive")
    return {
        "lexicon.load_s": total("lexicon.load"),
        "lexicon.states_s": total("lexicon.states"),
        "prover.derive_s": total("prover.derive"),
        "prover.enumerate_s": total("prover.derive", SELF),
        "prover.search_s": total("prover.prove", parent="prover.derive"),
        "prover.prove_calls": prove_calls,
        "prover.goals_expanded": total("prover.prove", SUM_B,
                                       parent="prover.derive"),
        "prover.proof_yield": proofs / prove_calls if prove_calls else 0.0,
        "formula.count_cache_entries": count_cache_entries,
        "translate.compile_s": total("translate.compile"),
        "translate.link_s": total("translate.link",
                                  parent="translate.compile"),
        "translate.diagram_nodes": total("translate.compile", SUM_A),
        "diagram.normalize_s": total("diagram.normalize"),
        "diagram.nodes_removed": total("diagram.normalize", SUM_A),
        "tensor.eval_s": total("tensor.eval"),
        "tensor.einsum_s": total("tensor.einsum"),
        "tensor.einsum_flops": flops,
        "tensor.store_get_s": total("tensor.store_get"),
    }
