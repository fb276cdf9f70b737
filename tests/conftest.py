"""Shared test helpers: seeded random formulas, diagrams, and proofs."""

from __future__ import annotations

import contextlib
import importlib.util
import itertools
import random
from pathlib import Path

import numpy as np
import pytest

from lambeksem import prover
from lambeksem.diagram import Builder, Diagram, _normal_shape
from lambeksem.formula import (
    Atom,
    Box,
    Dia,
    Formula,
    Mode,
    Over,
    Tensor,
    Under,
    parse_formula,
)
from lambeksem.prover import (
    SearchConfig,
    _bracketings,
    _Chart,
    _charted,
    _Checks,
    _checks,
    _derive,
    _island_wraps,
    _locked,
    _wrap_count,
    derive_sentence,
    format_bracketing,
)
from lambeksem.tensor import _eval_plan, _eval_program
from lambeksem.translate import _compiled_shape, extract_axiom_links

SEM_ATOMS = ("np", "n", "s", "gp", "pp", "ap")


def random_formula(rng: random.Random, depth: int = 4, atoms=SEM_ATOMS) -> Formula:
    if depth <= 0 or rng.random() < 0.3:
        return Atom(rng.choice(atoms))
    kind = rng.randrange(5)
    if kind == 0:
        return Tensor(random_formula(rng, depth - 1, atoms),
                      random_formula(rng, depth - 1, atoms))
    if kind == 1:
        return Over(random_formula(rng, depth - 1, atoms),
                    random_formula(rng, depth - 1, atoms))
    if kind == 2:
        return Under(random_formula(rng, depth - 1, atoms),
                     random_formula(rng, depth - 1, atoms))
    mode = rng.choice((Mode.X, Mode.I))
    if kind == 3:
        return Dia(mode, random_formula(rng, depth - 1, atoms))
    return Box(mode, random_formula(rng, depth - 1, atoms))


def random_diagram(
    rng: random.Random, spaces=("N", "S"), max_nodes: int = 5, tag: str = ""
) -> Diagram:
    """A random valid diagram: nodes wired port-to-port per space, with
    surplus producers and consumers closed off through the boundary.
    Node legs carry spaces only; boundary polarities are random.  ``tag``
    keeps box names distinct across diagrams sharing a store."""
    bld = Builder()
    producers: list[tuple] = []  # (port, space)
    consumers: list[tuple] = []
    boxes = 0
    for _ in range(rng.randrange(3)):
        sp = rng.choice(spaces)
        port = bld.add_input(sp, rng.random() < 0.5)
        producers.append((port, sp))
    for _ in range(rng.randrange(1, max_nodes + 1)):
        kind = rng.choice(("box", "box", "spider", "cup", "cap", "swap"))
        if kind == "box":
            ins = tuple(rng.choice(spaces) for _ in range(rng.randrange(3)))
            outs = tuple(rng.choice(spaces) for _ in range(rng.randrange(3)))
            if not ins and not outs:
                outs = (rng.choice(spaces),)
            nid = bld.add_node("box", ins, outs, name=f"w{tag}_{boxes}")
            boxes += 1
        elif kind == "spider":
            sp = rng.choice(spaces)
            m, n = rng.randrange(3), rng.randrange(3)
            if m == n == 0:
                n = 1
            ins, outs = (sp,) * m, (sp,) * n
            nid = bld.add_node("spider", ins, outs)
        elif kind == "cup":
            sp = rng.choice(spaces)
            ins, outs = (sp, sp), ()
            nid = bld.add_node("cup", ins, outs)
        elif kind == "cap":
            sp = rng.choice(spaces)
            ins, outs = (), (sp, sp)
            nid = bld.add_node("cap", ins, outs)
        else:
            a, b = rng.choice(spaces), rng.choice(spaces)
            ins, outs = (a, b), (b, a)
            nid = bld.add_node("swap", ins, outs)
        consumers.extend((("i", nid, k), sp) for k, sp in enumerate(ins))
        producers.extend((("o", nid, k), sp) for k, sp in enumerate(outs))
    rng.shuffle(producers)
    rng.shuffle(consumers)
    for sp in spaces:
        prods = [p for p, s in producers if s == sp]
        cons = [c for c, s in consumers if s == sp]
        while prods and cons:
            bld.wire(prods.pop(), cons.pop())
        for port in prods:
            bld.wire(port, bld.add_output(sp, rng.random() < 0.5))
        for port in cons:
            bld.wire(bld.add_input(sp, rng.random() < 0.5), port)
    return bld.diagram()


def composable_proof_pairs(rng: random.Random, count: int):
    """Proof pairs f: A -> M and g: M -> B over random formulas, built
    from shapes (evaluation, coevaluation, modal unit and counit) that
    are derivable for every instantiation."""
    from lambeksem.prover import Arrow, SearchConfig, prove

    atoms = ("np", "n", "s")
    cfg = SearchConfig(max_proof_size=16)
    pairs = []
    while len(pairs) < count:
        mid = random_formula(rng, depth=2, atoms=atoms)
        aux = random_formula(rng, depth=1, atoms=atoms)
        src_kind = rng.randrange(3)
        if src_kind == 0:
            src = Dia(Mode.X, Box(Mode.X, mid))
        elif src_kind == 1:
            src = Tensor(Over(mid, aux), aux)
        else:
            src = Tensor(aux, Under(aux, mid))
        tgt_kind = rng.randrange(3)
        if tgt_kind == 0:
            tgt = Box(Mode.X, Dia(Mode.X, mid))
        elif tgt_kind == 1:
            tgt = Over(Tensor(mid, aux), aux)
        else:
            tgt = Under(aux, Tensor(aux, mid))
        r1 = prove(Arrow(src, mid), cfg)
        r2 = prove(Arrow(mid, tgt), cfg)
        if r1.proofs and r2.proofs:
            pairs.append((r1.proofs[0], r2.proofs[0]))
    return pairs


@pytest.fixture(autouse=True)
def cold_search_cache():
    """Each test starts with no sentence search, no chart check, no
    compiled, normalized or evaluation plan shape and no contraction
    program kept, so a test that counts what a search, a compile, a
    normalize or an evaluation does sees it done."""
    _derive.cache_clear()
    _checks.cache_clear()
    _compiled_shape.cache_clear()
    _normal_shape.cache_clear()
    _eval_plan.cache_clear()
    _eval_program.cache_clear()


@contextlib.contextmanager
def every_unlock(monkeypatch):
    """Within it, the prover unlocks any diamond-box pair at any position,
    the permissive reference for ``prover._unlocks_at``.  The sentence
    searches and chart checks kept on entry and on exit are dropped, so
    nothing decided under one rule is read under the other."""
    _derive.cache_clear()
    _checks.cache_clear()
    try:
        with monkeypatch.context() as m:
            m.setattr(prover, "_unlocks_at", lambda path, sub: True)
            yield
    finally:
        _derive.cache_clear()
        _checks.cache_clear()


def readings(result) -> set:
    """The distinct (types, axiom linking) pairs of a search's parses."""
    return {(p.types, extract_axiom_links(p.proof)) for p in result.parses}


def benchmark_corpus():
    """``perfbench/corpus.py``, the benchmark's inputs, which imports
    nothing of the program."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("perfbench_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def meaning_requests(lex, seed: int):
    """The benchmark's ``meanings`` items for ``seed``, each as (item,
    first parse, word networks), searched as the benchmark searches."""
    config = SearchConfig(max_proof_size=40)
    for item in benchmark_corpus().meaning_items(seed):
        result = derive_sentence(lex, item["words"], parse_formula(item["goal"]),
                                 bracketing=item["bracketing"], config=config)
        parse = result.parses[0]
        yield item, parse, lex.states(item["words"], parse.types)


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def np_rng():
    return np.random.default_rng(20240817)


def sentence_candidates(lex, words, goal):
    """Each candidate of the unbracketed search for ``words -> goal`` in
    the class the count check keeps, in search order, as (antecedent,
    admitted): ``admitted`` says whether the candidate is over a tree the
    chart yields, and is None where no chart is built."""
    choices = [lex.types(w) for w in words]
    checks = _Checks(SearchConfig()) if _charted(choices, goal, SearchConfig()) else None
    for assignment in itertools.product(*choices):
        locked = {i for i, t in enumerate(assignment) if _locked(t)}
        k = _wrap_count(assignment, goal, locked)
        if k is None:
            continue
        admitted = None
        if checks is not None:
            chart = _Chart(assignment, locked, goal, k, checks)
            admitted = {format_bracketing(cand, words) for tree, ante in chart.trees()
                        for cand, _ in _island_wraps(tree, ante, locked, k)}
        for tree, bare in _bracketings(assignment):
            for cand, ante in _island_wraps(tree, bare, locked, k):
                yield ante, (None if admitted is None
                             else format_bracketing(cand, words) in admitted)
