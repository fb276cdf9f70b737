"""Sentence meanings written out by hand, independently of the compiler.

Each function reads the word tensors from a store and builds the
meaning with plain loops, following the paper's reading of the
relative pronoun and the coordinating adjunct:

* The relative pronoun's spider merges the head noun, the output and the
  extraction site, and discards the clause's sentence wire (a sum over
  S).
* The parasitic-gap adjunct ``without`` adds no tensor of its own: its
  spiders identify the subjects, the sentence wires and the gap of the
  host verb and the gerund, so the two cubes are multiplied pointwise.

Verb and gerund cubes are stored over (N, S, N): subject, sentence,
object.
"""

from __future__ import annotations

import numpy as np


def relative(store, words) -> tuple[tuple[str, ...], np.ndarray]:
    """``head that subj verb``:  out[o] = head[o] Σ_s Σ_x subj[x] verb[x,s,o]."""
    head_w, _, subj_w, verb_w = words
    n, s_dim = store.dim("N"), store.dim("S")
    head = store.get(head_w, ("N",))
    subj = store.get(subj_w, ("N",))
    verb = store.get(verb_w, ("N", "S", "N"))
    out = np.zeros(n)
    for o in range(n):
        acc = 0.0
        for s in range(s_dim):
            for x in range(n):
                acc += subj[x] * verb[x, s, o]
        out[o] = head[o] * acc
    return ("N",), out


def gap_relative(store, words) -> tuple[tuple[str, ...], np.ndarray]:
    """``head that subj verb without gerund``:
    out[o] = head[o] Σ_s Σ_x subj[x] verb[x,s,o] gerund[x,s,o]."""
    head_w, _, subj_w, verb_w, _, ger_w = words
    n, s_dim = store.dim("N"), store.dim("S")
    head = store.get(head_w, ("N",))
    subj = store.get(subj_w, ("N",))
    verb = store.get(verb_w, ("N", "S", "N"))
    ger = store.get(ger_w, ("N", "S", "N"))
    out = np.zeros(n)
    for o in range(n):
        acc = 0.0
        for s in range(s_dim):
            for x in range(n):
                acc += subj[x] * verb[x, s, o] * ger[x, s, o]
        out[o] = head[o] * acc
    return ("N",), out


CLOSED_FORMS = {"relative": relative, "gap_relative": gap_relative}
