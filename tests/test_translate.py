"""Syntax-to-diagram translation: types, proofs, whole sentences."""

import functools
import random
from dataclasses import replace

import numpy as np
import pytest

from lambeksem.diagram import DiagramError, box, compose, normalize, tensor_par
from lambeksem.formula import Box, Dia, Mode, parse_formula
from lambeksem.lexicon import builtin_lexicon
from lambeksem.prover import (
    SEARCH_CACHE_SIZE,
    Arrow,
    SearchConfig,
    alpha,
    coev_box,
    coev_over,
    coev_under,
    compose as pcompose,
    derive_sentence,
    ev_box,
    ev_over,
    ev_under,
    mon_over,
    mon_tensor,
    mon_under,
    pid,
    proof_from_json,
    proof_to_json,
    prove,
    sigma,
)
from lambeksem.tensor import TensorStore, eval_diagram
from lambeksem.translate import (
    _compiled_shape,
    compile_sentence,
    extract_axiom_links,
    interpret_proof,
    interpret_type,
    link_diagram,
    proof_meaning,
)
from conftest import benchmark_corpus, composable_proof_pairs, random_formula

N = ("N", False)
Nd = ("N", True)
S = ("S", False)
Sd = ("S", True)

F = parse_formula


def test_interpret_type_atoms():
    assert interpret_type(F("np")) == (N,)
    assert interpret_type(F("n")) == (N,)
    assert interpret_type(F("pp")) == (N,)
    assert interpret_type(F("s")) == (S,)
    assert interpret_type(F("gp")) == (Nd, S)
    assert interpret_type(F("ap")) == (Nd, S)
    assert interpret_type(F("to_inf")) == (Nd, S)
    assert interpret_type(F("wh")) == (N, S)


def test_interpret_type_connectives():
    assert interpret_type(F("np\\s")) == (Nd, S)
    assert interpret_type(F("s/np")) == (S, Nd)
    assert interpret_type(F("np*s")) == (N, S)
    assert interpret_type(F("(np\\s)/np")) == (Nd, S, Nd)
    assert interpret_type(F("(n\\n)/(s/<x>[x]np)")) == (Nd, N, N, Sd)


def test_modalities_are_invisible():
    rng = random.Random(12)
    for _ in range(60):
        f = random_formula(rng, depth=3)
        assert interpret_type(Dia(Mode.X, f)) == interpret_type(f)
        assert interpret_type(Box(Mode.I, f)) == interpret_type(f)
        assert interpret_type(Dia(Mode.X, Box(Mode.X, f))) == interpret_type(f)


def test_interpret_proof_io_discipline():
    # a proof of A -> B becomes a diagram from the wires of A to those of B
    g = Arrow(F("np*(np\\s)"), F("s"))
    term = prove(g).proofs[0]
    d = interpret_proof(term)
    d.validate()
    assert d.inputs == interpret_type(g.source)
    assert d.outputs == interpret_type(g.target)


def test_functoriality_on_random_pairs():
    rng = random.Random(2024)
    store = TensorStore({"N": 2, "S": 2}, seed=6)
    for f, g in composable_proof_pairs(rng, 200):
        fused = interpret_proof(pcompose(g, f))
        split = compose(interpret_proof(f), interpret_proof(g))
        fused.validate()
        split.validate()
        v1 = eval_diagram(fused, store)
        v2 = eval_diagram(split, store)
        assert v1.spaces == v2.spaces
        np.testing.assert_allclose(v1.array, v2.array, rtol=1e-9, atol=1e-12)


def test_functoriality_matches_tensor_contraction():
    rng = random.Random(99)
    store = TensorStore({"N": 2, "S": 3}, seed=8)
    for f, g in composable_proof_pairs(rng, 30):
        df, dg = interpret_proof(f), interpret_proof(g)
        k = len(df.outputs)
        vf = eval_diagram(df, store).array
        vg = eval_diagram(dg, store).array
        if k:
            contracted = np.tensordot(
                vf, vg, axes=(tuple(range(vf.ndim - k, vf.ndim)), tuple(range(k)))
            )
        else:
            contracted = np.multiply.outer(vf, vg)
        whole = eval_diagram(compose(df, dg), store).array
        np.testing.assert_allclose(whole, contracted, rtol=1e-9, atol=1e-12)


def test_rebracketing_is_the_identity_permutation():
    term = prove(Arrow(F("(np*s)*<x>np"), F("np*(s*<x>np)"))).proofs[0]
    d = normalize(interpret_proof(term))
    assert d.inputs == (N, S, N)
    assert d.outputs == (N, S, N)
    assert len(d.nodes) == 0


def test_commutation_is_an_exact_transpose():
    term = sigma(F("gp"), F("s"), F("np"))
    d = interpret_proof(term)
    d.validate()
    assert d.inputs == (Nd, S, S, N)
    assert d.outputs == (Nd, S, N, S)
    store = TensorStore({"N": 3, "S": 2}, seed=14)
    probe = box("w", (), (Nd, S, S, N))
    moved = eval_diagram(compose(probe, d), store).array
    base = eval_diagram(probe, store).array
    np.testing.assert_array_equal(moved, np.transpose(base, (0, 1, 3, 2)))


def test_axiom_links_small_proof():
    term = prove(Arrow(F("np*(np\\s)"), F("s"))).proofs[0]
    linking = extract_axiom_links(term)
    assert set(linking.links) == {(0, 1), (2, 3)}
    d = link_diagram(linking)
    d.validate()
    assert d.inputs == (N, Nd, S)
    assert d.outputs == (S,)


def test_axiom_links_match_relative_clause_reading():
    lex = builtin_lexicon()
    words = ["papers", "that", "reviewers", "rejected", "without", "reading",
             "carefully"]
    text = "(papers (that (reviewers (rejected i:(without (reading carefully))))))"
    r = derive_sentence(lex, words, F("n"), bracketing=text)
    assert r.parses
    linking = extract_axiom_links(r.parses[0].proof)
    assert set(linking.links) == {
        (0, 1), (2, 21), (3, 13), (4, 14), (5, 12), (6, 9), (7, 10), (8, 11),
        (15, 20), (16, 18), (17, 19),
    }


def test_link_route_agrees_with_hom_route():
    lex = builtin_lexicon()
    store = TensorStore({"N": 3, "S": 2}, seed=21)
    sentences = [
        (["Bob", "left", "the", "room"], "s", None),
        (["papers", "that", "Bob", "rejected"], "n", None),
        (["which", "papers", "did", "Bob", "reject"], "wh", None),
        (
            ["Bob", "left", "the", "room", "without", "closing", "the",
             "window"],
            "s",
            None,
        ),
    ]
    for words, goal, bracketing in sentences:
        r = derive_sentence(lex, words, F(goal), bracketing=bracketing)
        assert r.parses, words
        parse = r.parses[0]
        states = lex.states(words, parse.types)
        via_links = compile_sentence(parse, states)
        via_hom = proof_meaning(parse, states)
        via_links.validate()
        via_hom.validate()
        assert via_links.inputs == () and via_hom.inputs == ()
        assert via_links.outputs == via_hom.outputs == interpret_type(F(goal))
        v1 = eval_diagram(via_links, store)
        v2 = eval_diagram(via_hom, store)
        np.testing.assert_allclose(v1.array, v2.array, rtol=1e-9, atol=1e-12)
        assert normalize(via_links).to_json() == normalize(via_hom).to_json()


# each axiom's constructor with the number of formulas it takes
AXIOMS = (
    (pid, 1), (ev_over, 2), (ev_under, 2), (coev_over, 2), (coev_under, 2),
    (lambda a: ev_box(Mode.X, a), 1), (lambda a: coev_box(Mode.I, a), 1),
    (alpha, 3), (sigma, 3),
)


def test_routes_agree_rule_by_rule(rng):
    # the sentence-level check meets only the params bundled sentences
    # use; here every axiom, monotonicity over axioms and composites meet
    # random ones over all of conftest's atoms, flipped two-wire gp and
    # ap included
    def axiom(build, arity):
        return build(*(random_formula(rng, depth=2) for _ in range(arity)))

    def agree(term):
        via_hom = normalize(interpret_proof(term))
        via_links = normalize(link_diagram(extract_axiom_links(term)))
        assert via_hom.to_json() == via_links.to_json(), term.rule

    for spec in AXIOMS:
        for _ in range(25):
            agree(axiom(*spec))
    for _ in range(60):
        f, g = (axiom(*rng.choice(AXIOMS)) for _ in range(2))
        for mon in (mon_over, mon_under, mon_tensor):
            agree(mon(f, g))
    for f, g in composable_proof_pairs(rng, 40):
        agree(pcompose(g, f))


def assert_cancelling_matching(linking):
    """The linking's own invariant, as the ``AxiomLinking`` docstring
    states it."""
    occ = linking.occurrences
    # each occurrence is in exactly one link
    assert sorted(k for pair in linking.links for k in pair) == list(range(len(occ)))
    for a, b in linking.links:
        (side_a, atom_a, pol_a), (side_b, atom_b, pol_b) = occ[a], occ[b]
        assert atom_a == atom_b, (a, b)
        # opposite polarities within a side, the same across the sides
        assert (pol_a == pol_b) == (side_a != side_b), (a, b)


def test_linking_is_a_matching_of_cancelling_atoms(rng):
    def axiom(build, arity):
        return build(*(random_formula(rng, depth=2) for _ in range(arity)))

    for spec in AXIOMS:
        for _ in range(25):
            assert_cancelling_matching(extract_axiom_links(axiom(*spec)))
    for _ in range(60):
        f, g, h = (axiom(*rng.choice(AXIOMS)) for _ in range(3))
        for mon in (mon_over, mon_under, mon_tensor):
            assert_cancelling_matching(extract_axiom_links(mon(f, g)))
            assert_cancelling_matching(extract_axiom_links(mon(mon_over(f, g), h)))
    for f, g in composable_proof_pairs(rng, 40):
        assert_cancelling_matching(extract_axiom_links(pcompose(g, f)))
        assert_cancelling_matching(extract_axiom_links(mon_under(f, pcompose(g, f))))
    lex = builtin_lexicon()
    every = SearchConfig(find_all=True)
    for item in benchmark_corpus().suite_items(1):
        result = derive_sentence(lex, item["words"], F(item["goal"]),
                                 bracketing=item["bracketing"], config=every)
        assert bool(result.parses) == item["derivable"], item["words"]
        for parse in result.parses:
            assert_cancelling_matching(extract_axiom_links(parse.proof))


def test_link_diagram_is_kept_per_proof():
    lex = builtin_lexicon()
    goal = F("n")
    words = ["papers", "that", "Bob", "rejected", "without", "reading"]
    parse = derive_sentence(lex, words, goal).parses[0]
    states = lex.states(words, parse.types)
    compiled = compile_sentence(parse, states)
    # the definition: the networks side by side, composed with the link
    # diagram of the proof
    cold = compose(functools.reduce(tensor_par, states),
                   link_diagram(extract_axiom_links(parse.proof)))
    assert compiled.to_json() == cold.to_json()
    _compiled_shape.cache_clear()
    assert compile_sentence(parse, states).to_json() == compiled.to_json()
    # the same types with other words: the same proof and network shapes,
    # so the sentence shape is read from the cache and only the box names
    # are the other words'
    other = ["report", "that", "I", "accept", "without", "liking"]
    hits = _compiled_shape.cache_info().hits
    parse2 = derive_sentence(lex, other, goal).parses[0]
    states2 = lex.states(other, parse2.types)
    via_links = compile_sentence(parse2, states2)
    assert _compiled_shape.cache_info().hits == hits + 1
    assert via_links.shape == compiled.shape
    assert via_links.box_names == ("report", "I", "accept", "liking")
    # a term read back from JSON is equal, not the same object: it too
    # is read from the cache
    reread = replace(parse2, proof=proof_from_json(proof_to_json(parse2.proof)))
    assert compile_sentence(reread, states2).to_json() == via_links.to_json()
    assert _compiled_shape.cache_info().hits == hits + 2
    dims = {"N": 3, "S": 2}
    v1 = eval_diagram(normalize(via_links), TensorStore(dims, seed=5))
    v2 = eval_diagram(normalize(proof_meaning(parse2, states2)),
                      TensorStore(dims, seed=5))
    np.testing.assert_allclose(v1.array, v2.array, rtol=1e-9, atol=1e-12)
    assert _compiled_shape.cache_info().maxsize == SEARCH_CACHE_SIZE


def test_gap_normal_form_has_one_copying_spider():
    # the paper's claim: the head noun and both gapped objects share one
    # N spider, which also carries the phrase's output
    lex = builtin_lexicon()
    words = ["papers", "that", "Bob", "rejected", "without", "reading"]
    text = "(papers (that (Bob (rejected i:(without reading)))))"
    parse = derive_sentence(lex, words, F("n"), bracketing=text).parses[0]
    d = normalize(compile_sentence(parse, lex.states(words, parse.types)))
    assert [n.name for n in d.nodes if n.kind == "box"] == [
        "papers", "Bob", "rejected", "reading"
    ]
    spiders = [n for n in d.nodes if n.kind == "spider"]
    assert sorted((n.space, len(n.ins) + len(n.outs)) for n in spiders) == [
        ("N", 3), ("N", 4), ("S", 2)
    ]
    (copy,) = [n.nid for n in spiders if len(n.ins) + len(n.outs) == 4]
    names = {n.nid: n.name for n in d.nodes}
    ends = sorted(
        other if other[0] == "O" else (names[other[1]], other[2])
        for wire in d.wires
        for here, other in (wire, wire[::-1])
        if here[0] in "io" and here[1] == copy
    )
    # the object leg is the last N wire of each transitive cube
    assert ends == [("O", 0), ("papers", 0), ("reading", 2), ("rejected", 2)]


def test_compile_rejects_mismatched_states():
    lex = builtin_lexicon()
    words = ["Bob", "left", "the", "room"]
    r = derive_sentence(lex, words, F("s"))
    parse = r.parses[0]
    states = lex.states(words, parse.types)
    with pytest.raises(DiagramError, match="boundary mismatch"):
        compile_sentence(parse, states[:-1])
