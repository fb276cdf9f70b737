"""Checks on one pass's outputs, made apart from the program.

Verdicts are compared with the answer fixed by the corpus (the
criterion-1 table, or the pattern a generated sentence was made from),
never with a stored copy of earlier output.  Proofs are re-validated and
their endpoints compared with an antecedent rebuilt here from the
reported bracketing and types.  Meanings are compared with hand-written
closed forms, with the proof-homomorphism route, and, where the term
count is small, with the brute-force oracle.
"""

from __future__ import annotations

import math

import numpy as np

from lambeksem.diagram import normalize
from lambeksem.formula import Dia, Mode, Tensor, parse_formula
from lambeksem.prover import Arrow, validate
from lambeksem.tensor import TensorStore, eval_diagram, oracle_eval
from lambeksem.translate import compile_sentence, proof_meaning

import corpus
from closed_forms import CLOSED_FORMS

# the oracle enumerates every index assignment in Python; above this many
# terms it takes longer than a whole pass
ORACLE_TERMS = 2**14
GOAL_SPACES = {"n": ("N",), "s": ("S",)}


def check_classes(lex) -> list[str]:
    """Every word of a substitution class has the same entries."""
    problems = []
    for name, words in corpus.CLASSES.items():
        entries = {w: [(e.syn, e.sem) for e in lex.entries if e.word == w]
                   for w in words}
        first = entries[words[0]]
        for w in words[1:]:
            if not first or entries[w] != first:
                problems.append(f"class {name}: {w} differs from {words[0]}")
    return problems


def _antecedent(tree, types):
    if hasattr(tree, "index"):
        f, leaves = types[tree.index], [tree.index]
    else:
        left, ll = _antecedent(tree.left, types)
        right, rl = _antecedent(tree.right, types)
        f, leaves = Tensor(left, right), ll + rl
    return (Dia(Mode.I, f) if tree.wrap else f), leaves


def check_parse(lex, words, goal, parse) -> list[str]:
    problems = []
    for w, t in zip(words, parse.types):
        if t not in lex.types(w):
            problems.append(f"type of {w!r} is not in the lexicon")
    antecedent, leaves = _antecedent(parse.bracketing, parse.types)
    if leaves != list(range(len(words))) or len(parse.types) != len(words):
        problems.append("bracketing does not cover the words in order")
    want = Arrow(antecedent, goal)
    if parse.antecedent != antecedent:
        problems.append("reported antecedent differs from the bracketing")
    try:
        got = validate(parse.proof)
    except Exception as err:
        return problems + [f"proof does not validate: {err}"]
    if got != want or parse.proof.arrow != want:
        problems.append("proof endpoints differ from antecedent -> goal")
    return problems


def _close(a, b) -> bool:
    return a.shape == b.shape and np.allclose(a, b, rtol=1e-9, atol=1e-12)


def check_meaning(lex, item, parse, value, full) -> list[str]:
    problems = []
    words = item["words"]
    if tuple(value.spaces) != GOAL_SPACES[item["goal"]]:
        problems.append(f"meaning over {value.spaces}")
    if not np.all(np.isfinite(value.array)):
        problems.append("meaning is not finite")
    closed = CLOSED_FORMS.get(item["closed_form"])
    if closed is not None:
        spaces, want = closed(TensorStore(item["dims"], item["store_seed"]), words)
        if tuple(value.spaces) != spaces or not _close(value.array, want):
            problems.append("meaning differs from the closed form")
    if not full:
        return problems
    fresh = TensorStore(item["dims"], seed=item["store_seed"])
    states = lex.states(words, parse.types)
    hom = eval_diagram(normalize(proof_meaning(parse, states)), fresh)
    if not _close(value.array, hom.array):
        problems.append("link route and proof route disagree")
    compiled = compile_sentence(parse, states)
    terms = math.prod(fresh.dim(compiled.port_space(p)) for p, _ in compiled.wires)
    if terms <= ORACLE_TERMS:
        oracle = oracle_eval(compiled, fresh)
        if not _close(value.array, oracle.array):
            problems.append("meaning differs from the brute-force oracle")
    return problems


def check_item(lex, item, result, value, full) -> list[str]:
    problems = []
    if result.ok != item["derivable"]:
        want = "derivable" if item["derivable"] else "underivable"
        problems.append(f"expected {want}")
    if not result.ok and result.bounded:
        problems.append("rejection hit the search bound")
    goal = parse_formula(item["goal"])
    for parse in result.parses:
        problems += check_parse(lex, item["words"], goal, parse)
    if value is not None:
        problems += check_meaning(lex, item, result.parses[0], value, full)
    return problems


def check_pass(lex, items, results, full):
    """Returns (outputs, problems): the meaning values, for comparing
    passes with each other, and one line per problem found."""
    problems = check_classes(lex) if full else []
    outputs = []
    for item, res in zip(items, results):
        if res is None:
            outputs.append(None)
            continue
        result, value = res
        where = f"{' '.join(item['words'])} -> {item['goal']}"
        problems += [f"{where}: {p}"
                     for p in check_item(lex, item, result, value, full)]
        outputs.append(None if value is None else value.array.ravel().tolist())
    return outputs, problems
