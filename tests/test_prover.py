"""Proof search: soundness, completeness on known arrows, search controls."""

import functools
import random
from dataclasses import FrozenInstanceError, replace

import pytest

from lambeksem import prover
from lambeksem.formula import MAX_DEPTH, count_vector, parse_formula
from lambeksem.lexicon import builtin_lexicon
from lambeksem.prover import (
    CHECKS_CONFIGS,
    MAX_SEARCH_WORDS,
    MAX_UNCHARTED_WORDS,
    SEARCH_CACHE_SIZE,
    Arrow,
    BracketLeaf,
    BracketNode,
    Mode,
    Prover,
    ProverError,
    SearchConfig,
    _bracketings,
    _checks,
    _Checks,
    _derive,
    _strip,
    alpha,
    coev_box,
    coev_over,
    coev_under,
    compose,
    derive_sentence,
    ev_box,
    ev_over,
    ev_under,
    format_bracketing,
    mon_box,
    mon_dia,
    mon_over,
    mon_tensor,
    mon_under,
    parse_bracketing,
    pid,
    proof_from_dict,
    proof_from_json,
    proof_to_json,
    prove,
    sigma,
    validate,
)
from conftest import (
    composable_proof_pairs,
    every_unlock,
    random_formula,
    readings,
    sentence_candidates,
)
from test_acceptance import CRITERION_1_SUITE
from test_differential import CLASSES, PATTERNS, substitute


def arrow(src, tgt):
    return Arrow(parse_formula(src), parse_formula(tgt))


def derivable(src, tgt, **kw):
    r = prove(arrow(src, tgt), SearchConfig(**kw))
    for t in r.proofs:
        a = validate(t)
        assert a == arrow(src, tgt)
    return bool(r.proofs), r.bounded


DERIVABLE = [
    ("np", "np"),
    ("(a/b)*b", "a"),
    ("b*(b\\a)", "a"),
    ("a", "(a*b)/b"),
    ("a", "b\\(b*a)"),
    ("<x>[x]a", "a"),
    ("a", "[x]<x>a"),
    ("<i>[i]a", "a"),
    ("a/b", "(a/<x>[x]c)/(b/<x>[x]c)"),
    ("(a*b)*<x>c", "a*(b*<x>c)"),
    ("(a*b)*<x>c", "(a*<x>c)*b"),
    ("np*(np\\s)", "s"),
    ("(s/(np\\s))*(np\\s)", "s"),
    ("a/b", "a/b"),
    ("d*((a*b)*<x>c)", "d*(a*(b*<x>c))"),
]

UNDERIVABLE = [
    ("np", "s"),
    ("a", "<x>[x]a"),
    ("[x]<x>a", "a"),
    ("a/b", "(a/c)/(b/c)"),
    ("(a\\b)/c", "(a/c)\\(b/c)"),
    ("(a*b)/c", "(a/c)*(b/c)"),
    ("(a*b)*<i>c", "a*(b*<i>c)"),
    ("(a*b)*<i>c", "(a*<i>c)*b"),
    ("a*b", "b*a"),
    ("a/b", "b\\a"),
]


@pytest.mark.parametrize("src,tgt", DERIVABLE)
def test_derivable_arrows(src, tgt):
    found, _ = derivable(src, tgt)
    assert found, f"{src} -> {tgt} should be derivable"


@pytest.mark.parametrize("src,tgt", UNDERIVABLE)
def test_underivable_arrows(src, tgt):
    found, bounded = derivable(src, tgt)
    assert not found, f"{src} -> {tgt} should not be derivable"
    assert not bounded, "rejection must come from an exhausted search"


def test_validate_accepts_primitives():
    # every rule's shape, written out by hand; evaluation and coevaluation
    # take the argument type first
    a, b = parse_formula("a"), parse_formula("b")
    # premises f: <x>[x]a -> a and g: b -> [i]<i>b
    f, g = ev_box(Mode.X, a), coev_box(Mode.I, b)
    cases = [
        (pid(a), "a", "a"),
        (ev_over(a, b), "b/a*a", "b"),
        (ev_under(a, b), "a*a\\b", "b"),
        (coev_over(a, b), "b", "(b*a)/a"),
        (coev_under(a, b), "b", "a\\(a*b)"),
        (ev_box(Mode.X, a), "<x>[x]a", "a"),
        (coev_box(Mode.I, a), "a", "[i]<i>a"),
        (alpha(a, b, parse_formula("c")), "(a*b)*<x>c", "a*(b*<x>c)"),
        (sigma(a, b, parse_formula("c")), "(a*b)*<x>c", "(a*<x>c)*b"),
        (mon_tensor(f, g), "(<x>[x]a)*b", "a*([i]<i>b)"),
        (mon_over(f, g), "(<x>[x]a)/([i]<i>b)", "a/b"),
        (mon_under(f, g), "a\\b", "(<x>[x]a)\\([i]<i>b)"),
        (mon_dia(Mode.I, f), "<i><x>[x]a", "<i>a"),
        (mon_box(Mode.X, g), "[x]b", "[x][i]<i>b"),
        (compose(coev_box(Mode.I, a), f), "<x>[x]a", "[i]<i>a"),
    ]
    for term, src, tgt in cases:
        got = validate(term)
        assert got == arrow(src, tgt)


def test_every_rule_preserves_counts():
    # the invariant behind count pruning: each constructor's source and
    # target have the same atom and modal counts
    rng = random.Random(17)
    for _ in range(200):
        a, b, c = (random_formula(rng, depth=3) for _ in range(3))
        mode = rng.choice((Mode.X, Mode.I))
        prims = [
            ev_over(a, b), coev_over(a, b), ev_under(a, b), coev_under(a, b),
            ev_box(mode, a), coev_box(mode, a), alpha(a, b, c), sigma(a, b, c),
        ]
        f, g = rng.choice(prims), rng.choice(prims)
        terms = prims + [
            mon_tensor(f, g), mon_over(f, g), mon_under(f, g),
            mon_dia(mode, f), mon_box(mode, f), compose(f, pid(f.source)),
        ]
        for t in terms:
            assert count_vector(t.source) == count_vector(t.target), t


def count_difference(lhs, rhs) -> dict:
    diff = dict(count_vector(lhs))
    for k, v in count_vector(rhs).items():
        diff[k] = diff.get(k, 0) - v
    return {k: v for k, v in diff.items() if v}


def test_strip_preserves_count_difference():
    # with the rules, this is why counts need checking only at the root
    rng = random.Random(29)
    stripped = 0
    for _ in range(300):
        src = random_formula(rng, depth=3)
        tgt = random_formula(rng, depth=4)
        lhs, rhs, steps = _strip(src, tgt)
        stripped += bool(steps)
        assert count_difference(lhs, rhs) == count_difference(src, tgt), (src, tgt)
    assert stripped >= 100


def test_search_meets_only_count_matching_goals(monkeypatch):
    # prove checks counts once at the root; below it, the goals the search
    # meets keep the root's counts or were checked by _branches
    search = Prover._search
    calls = []

    def checked(self, lhs, rhs, budget, consec):
        assert count_vector(lhs) == count_vector(rhs), f"{lhs} -> {rhs}"
        calls.append(budget)
        return search(self, lhs, rhs, budget, consec)

    monkeypatch.setattr(Prover, "_search", checked)
    lex = builtin_lexicon()
    # every parse too, as the chart leaves the first-parse search few goals
    for config in (SearchConfig(), SearchConfig(find_all=True, max_proofs=6)):
        for sentence, goal, bracketing, want in CRITERION_1_SUITE:
            result = derive_sentence(
                lex, sentence.split(), parse_formula(goal), bracketing=bracketing,
                config=config,
            )
            assert result.ok == want, sentence
    sentence_calls = len(calls)
    assert sentence_calls > 1000
    # random goals: the arrow pairs composable_proof_pairs draws and
    # proves, their composites, and random goals whose counts match
    rng = random.Random(31)
    goals = [arrow(s, t) for s, t in DERIVABLE + UNDERIVABLE]
    goals += [Arrow(f.source, g.target) for f, g in composable_proof_pairs(rng, 20)]
    while len(goals) < len(DERIVABLE + UNDERIVABLE) + 120:
        src, tgt = (random_formula(rng, depth=3, atoms=("a",)) for _ in range(2))
        if count_vector(src) == count_vector(tgt):
            goals.append(Arrow(src, tgt))
    for g in goals:
        prove(g, SearchConfig(max_proof_size=16))
    # more calls than goals: the search went below the roots
    assert len(calls) - sentence_calls > len(goals)


def test_count_failing_goal_expands_nothing():
    for src, tgt in [("a*b", "a"), ("a", "a/b"), ("<x>a", "a"), ("[i]a", "b\\a")]:
        assert count_vector(parse_formula(src)) != count_vector(parse_formula(tgt))
        for budget in (0, 40):
            r = prove(arrow(src, tgt), SearchConfig(max_proof_size=budget))
            assert r.proofs == () and not r.bounded, (src, tgt, budget)
            assert r.stats.goals_expanded == 0 and r.stats.deepest_failure is None


def test_compose_and_monotone():
    a, b = parse_formula("a"), parse_formula("b")
    f = ev_box(Mode.X, parse_formula("a/b"))
    g = mon_over(pid(a), pid(b))
    h = compose(g, f)
    got = validate(h)
    assert got == arrow("<x>[x](a/b)", "a/b")
    with pytest.raises(ProverError):
        compose(pid(a), pid(b))


def test_island_mode_blocks_rebracketing():
    # the same shape succeeds for the extraction mode and fails for the
    # island mode, with the rejection coming from a completed search
    ok, _ = derivable("(a*b)*<x>c", "a*(b*<x>c)")
    assert ok
    bad, bounded = derivable("(a*b)*<i>c", "a*(b*<i>c)")
    assert not bad and not bounded


def test_search_is_deterministic():
    g = arrow("np*((np\\s)/np*np)", "s")
    r1 = prove(g)
    r2 = prove(g)
    assert r1.proofs and proof_to_json(r1.proofs[0]) == proof_to_json(r2.proofs[0])


def test_proof_json_round_trip():
    goals = [
        arrow("(a/b)*b", "a"),
        arrow("<x>[x]a", "a"),
        arrow("a/b", "(a/<x>[x]c)/(b/<x>[x]c)"),
    ]
    proofs = [(prove(g).proofs[0], g) for g in goals]
    # the first proof of every derivable criterion-1 sentence
    lex = builtin_lexicon()
    for sentence, goal, bracketing, want in CRITERION_1_SUITE:
        if want:
            parse = derive_sentence(
                lex, sentence.split(), parse_formula(goal), bracketing=bracketing
            ).parses[0]
            proofs.append((parse.proof, Arrow(parse.antecedent, parse_formula(goal))))
    rules = set()
    for t, g in proofs:
        back = proof_from_json(proof_to_json(t))
        # a term keeps its hash once computed; an equal term built apart
        # hashes the same
        assert back == t and hash(back) == hash(t) == hash(back)
        assert validate(back) == g
        stack = [t]
        while stack:
            node = stack.pop()
            rules.add(node.rule)
            stack.extend(node.children)
    assert {"alpha", "sigma", "ev_box", "mon_dia"} <= rules


def test_proof_from_dict_rejects_malformed_terms():
    with pytest.raises(ProverError, match="ev_over"):
        proof_from_dict({"rule": "ev_over", "source": "a", "target": "a"})
    with pytest.raises(ProverError, match="alpha"):
        proof_from_dict(
            {"rule": "alpha", "mode": "x", "source": "a*b", "target": "a*b"}
        )
    ident = {"rule": "id", "source": "a", "target": "a"}
    malformed = [
        ("compose", {"rule": "compose", "children": [ident],
                     "source": "a", "target": "a"}),
        ("mon_dia", {"rule": "mon_dia", "children": [ident],
                     "source": "<x>a", "target": "<x>a"}),
        ("ev_box", {"rule": "ev_box", "source": "<x>[x]a", "target": "a"}),
        ("id", {"rule": "id", "source": "a"}),
        ("ev_box", {"rule": "ev_box", "mode": "q",
                    "source": "<x>[x]a", "target": "a"}),
        # an axiom takes no premises
        ("id", dict(ident, children=[ident])),
        # the structural rules hold in the extraction mode only
        ("alpha", {"rule": "alpha", "mode": "i",
                   "source": "(a*b)*<i>c", "target": "a*(b*<i>c)"}),
    ]
    for rule, d in malformed:
        with pytest.raises(ProverError, match=rf"\b{rule}\b"):
            proof_from_dict(d)


def test_find_all_returns_distinct_valid_proofs():
    g = arrow("np*(np\\s)", "s")
    r = prove(g, SearchConfig(find_all=True, max_proofs=16))
    assert r.proofs
    seen = set()
    for t in r.proofs:
        assert validate(t) == g
        key = proof_to_json(t)
        assert key not in seen
        seen.add(key)


def test_memoization_and_pruning_are_conservative(monkeypatch):
    rng = random.Random(41)
    atoms = ("a", "b")
    fast = SearchConfig(max_proof_size=12)
    slow = SearchConfig(max_proof_size=12, memoize=False, count_pruning=False)
    goals = [arrow(s, t) for s, t in DERIVABLE + UNDERIVABLE]
    for _ in range(60):
        src = random_formula(rng, depth=2, atoms=atoms)
        tgt = random_formula(rng, depth=2, atoms=atoms)
        goals.append(Arrow(src, tgt))
    found = 0
    for g in goals:
        r1 = prove(g, fast)
        r2 = prove(g, slow)
        assert bool(r1.proofs) == bool(r2.proofs), f"verdict differs on {g}"
        if r1.proofs:
            found += 1
            assert validate(r1.proofs[0]) == g
    assert found >= len(DERIVABLE)
    # whole sentences at the default budget: count-failing, count-matching
    # but underivable, and derivable
    lex = builtin_lexicon()
    fast = SearchConfig()
    slow = SearchConfig(memoize=False, count_pruning=False)
    sentences = [
        ("left Bob", "s", False),
        ("papers that Bob rejected", "s", False),
        ("Bob Bob left", "s", False),
        ("Bob rejected the proposal without reading", "s", False),
        ("Bob left the room", "s", True),
        ("papers that Bob rejected", "n", True),
    ]
    for text, goal, derivable in sentences:
        r1 = derive_sentence(lex, text.split(), parse_formula(goal), config=fast)
        r2 = derive_sentence(lex, text.split(), parse_formula(goal), config=slow)
        assert (r1.ok, r1.bounded) == (r2.ok, r2.bounded), text
        assert r1.ok == derivable and not r1.bounded, text
    # an island-locked word, whose modal counts drop the candidates without
    # a wrap: derivable only with a wrap, and a gap only inside the island
    # (compared with the memoized unpruned search; without memoization it
    # runs for over a minute)
    text = "papers that Bob rejected without reading".split()
    r1 = derive_sentence(lex, text, parse_formula("n"), config=fast)
    r2 = derive_sentence(lex, text, parse_formula("n"), config=slow)
    assert r1.ok and r2.ok and not r1.bounded and not r2.bounded
    assert format_bracketing(r1.parses[0].bracketing, text) == format_bracketing(
        r2.parses[0].bracketing, text
    ) == "(papers (that (Bob (rejected i:(without reading)))))"
    # every parse: the other wrap candidates reach the prover too, and
    # none of them is proved
    every = SearchConfig(find_all=True, max_proofs=1000)
    r1 = derive_sentence(lex, text, parse_formula("n"), config=every)
    r2 = derive_sentence(lex, text, parse_formula("n"),
                         config=SearchConfig(find_all=True, max_proofs=1000,
                                             count_pruning=False))
    assert search_outcome(r1, text) == search_outcome(r2, text)
    assert len(r1.parses) == 10 and not r1.bounded
    assert {format_bracketing(p.bracketing, text) for p in r1.parses} == {
        "(papers (that (Bob (rejected i:(without reading)))))"}
    # unlocking a hypothesis anywhere, not only where it is used, adds
    # proofs that differ only in where the unlock happens: no reading
    with every_unlock(monkeypatch):
        r3 = derive_sentence(lex, text, parse_formula("n"), config=every)
    assert len(r3.parses) == 120 and not r3.bounded
    assert readings(r3) == readings(r1)
    text = "papers that Bob left Bob without reading".split()
    r1 = derive_sentence(lex, text, parse_formula("n"), config=fast)
    r2 = derive_sentence(lex, text, parse_formula("n"),
                         config=SearchConfig(count_pruning=False))
    assert not r1.ok and not r2.ok and not r1.bounded and not r2.bounded


def test_counts_fix_the_wrap_count_per_assignment(monkeypatch):
    # two adjuncts, each an island: the counts ask for two wraps, one per
    # locked word, and the first parse has both
    lex = builtin_lexicon()
    for text, goal, bracketing in [
        ("papers that Bob rejected without reading before studying", "n",
         "(papers (that (Bob ((rejected i:(without reading)) i:(before studying)))))"),
        ("Bob rejected the paper without reading the report before studying the room",
         "s", "(Bob (((rejected (the paper)) i:(without (reading (the report)))) "
         "i:(before (studying (the room)))))"),
    ]:
        words = text.split()
        r = derive_sentence(lex, words, parse_formula(goal))
        assert r.ok and not r.bounded, text
        assert format_bracketing(r.parses[0].bracketing, words) == bracketing
    # "<i>s" needs two wraps and the words have one locked word: every
    # assignment is skipped whole, and the diagnostic names the goal the
    # unpruned search fails deepest
    words, goal = "Bob left without reading".split(), parse_formula("<i>s")
    want = derive_sentence(lex, words, goal, config=SearchConfig(count_pruning=False))
    calls = []
    prove_ = Prover.prove
    monkeypatch.setattr(Prover, "prove", lambda self, g: calls.append(g) or prove_(self, g))
    got = derive_sentence(lex, words, goal)
    assert not calls
    assert search_outcome(got, words) == search_outcome(want, words)
    assert "deepest failed subgoal: np*((np\\s)/np*<i>(" in got.diagnostics


def test_find_all_stops_at_max_proofs():
    # 60 proofs in all; a search that stops at the cap says it may have
    # left some unfound
    lex = builtin_lexicon()
    words = "I know which papers Bob will reject immediately".split()
    for cap, count, bounded in ((2, 2, True), (40, 40, True), (1000, 60, False)):
        r = derive_sentence(lex, words, parse_formula("s"),
                            config=SearchConfig(find_all=True, max_proofs=cap))
        assert (len(r.parses), r.bounded) == (count, bounded), cap


def test_bounded_flag_on_tight_budget():
    g = arrow("a/b", "(a/<x>[x]c)/(b/<x>[x]c)")
    r = prove(g, SearchConfig(max_proof_size=2))
    assert not r.proofs and r.bounded
    # with no budget left, a goal is cut off even when every branch it has
    # would fail the count check; with budget, the search is exhausted
    g = arrow("((a/b)*c)*(c\\b)", "a")
    r = prove(g, SearchConfig(max_proof_size=0))
    assert not r.proofs and r.bounded
    r = prove(g)
    assert not r.proofs and not r.bounded


def test_bracketing_round_trip():
    words = ["papers", "that", "Bob", "rejected", "without", "reading", "carefully"]
    text = "(papers (that (Bob (rejected i:(without (reading carefully))))))"
    tree = parse_bracketing(text, words)
    assert format_bracketing(tree, words) == text
    with pytest.raises(ProverError):
        parse_bracketing("(papers (that Bob))", words)
    with pytest.raises(ProverError):
        parse_bracketing("(papers that", words[:3])


def test_derive_sentence_basics():
    lex = builtin_lexicon()
    s = parse_formula("s")
    r = derive_sentence(lex, ["Bob", "left", "the", "room"], s)
    assert r.parses
    p = r.parses[0]
    assert validate(p.proof) == Arrow(p.antecedent, s)
    assert p.types and len(p.types) == 4


def test_derive_sentence_rejects_unknown_word():
    lex = builtin_lexicon()
    with pytest.raises(ProverError, match="'flurbled' is not in the lexicon"):
        derive_sentence(lex, ["Bob", "flurbled"], parse_formula("s"))


def test_derive_sentence_names_deepest_failure():
    # no candidate is expanded (every one fails the count check), yet the
    # diagnostic still names the failed goal
    r = derive_sentence(builtin_lexicon(), ["left", "Bob"], parse_formula("s"))
    assert not r.ok
    assert "deepest failed subgoal: (np\\s)/np*np -> s" in r.diagnostics


def test_derive_sentence_word_cap_without_bracketing():
    lex = builtin_lexicon()
    words = ["Bob"] * (MAX_SEARCH_WORDS + 1)
    with pytest.raises(ProverError, match="bracketing"):
        derive_sentence(lex, words, parse_formula("s"))
    # the chart prunes searches up to the cap: the 13-word control
    # sentence needs no recorded bracketing
    words = "this is a candidate whom I would persuade every friend of to_vote for".split()
    assert len(words) <= MAX_SEARCH_WORDS
    r = derive_sentence(lex, words, parse_formula("s"))
    assert format_bracketing(r.parses[0].bracketing, words) == (
        "(this (is (a (candidate (whom ((I (would (persuade (every (friend of))))) "
        "(to_vote for)))))))"
    )
    # a non-atomic goal is charted too: the island violation is
    # exhausted past the smaller cap
    words = "know which papers Bob will reject the proposal without reading carefully".split()
    assert MAX_UNCHARTED_WORDS < len(words) <= MAX_SEARCH_WORDS
    r = derive_sentence(lex, words, parse_formula("np\\s"))
    assert not r.parses and not r.bounded
    # a search the chart cannot prune keeps the smaller cap: without
    # count pruning, for a goal with a hypothesis that is not plain, and
    # for one with more hypotheses than a chart class counts
    for goal, config in (("s", SearchConfig(count_pruning=False)),
                         ("np\\s", SearchConfig(count_pruning=False)),
                         ("s/<x>[x](gp\\gp)", SearchConfig()),
                         ("((s/<x>[x]np)/<x>[x]np)/<x>[x]np", SearchConfig())):
        with pytest.raises(ProverError, match=f"capped at {MAX_UNCHARTED_WORDS} words"):
            derive_sentence(lex, words, parse_formula(goal), config=config)


def test_derive_sentence_negative_is_exhaustive():
    lex = builtin_lexicon()
    r = derive_sentence(
        lex, ["papers", "that", "Bob", "rejected", "the", "proposal"],
        parse_formula("n"),
    )
    assert not r.parses
    assert not r.bounded
    assert r.diagnostics


def test_derive_sentence_with_explicit_bracketing():
    lex = builtin_lexicon()
    words = ["papers", "that", "Bob", "rejected", "without", "reading", "carefully"]
    text = "(papers (that (Bob (rejected i:(without (reading carefully))))))"
    r = derive_sentence(lex, words, parse_formula("n"), bracketing=text)
    assert r.parses
    p = r.parses[0]
    assert format_bracketing(p.bracketing, words) == text
    assert validate(p.proof) == Arrow(p.antecedent, parse_formula("n"))
    # a tree with a wrap gets no more: one wrap leaves the second adjunct
    # locked
    words = "Bob left the room without reading the paper before reading the report".split()
    vp = "((left (the room)) i:(without (reading (the paper))))"
    s = parse_formula("s")
    for adjunct, ok in (("i:(before (reading (the report)))", True),
                        ("(before (reading (the report)))", False)):
        r = derive_sentence(lex, words, s, bracketing=f"(Bob ({vp} {adjunct}))")
        assert r.ok == ok and not r.bounded
    # the leaves of an explicit tree must be the words in order: the search
    # rejects "room the", so a tree may not read it as "the room"
    words, np_ = ["room", "the"], parse_formula("np")
    assert not derive_sentence(lex, words, np_).ok
    with pytest.raises(ProverError, match="in order"):
        derive_sentence(lex, words, np_,
                        bracketing=BracketNode(BracketLeaf(1), BracketLeaf(0)))
    # a tree built in code nests no deeper than a parsed one: right-
    # branching, n words nest n levels
    for n in (MAX_DEPTH, MAX_DEPTH + 1, 1500):
        words = ["Bob"] * n
        tree, text = BracketLeaf(n - 1, wrap=True), "i:Bob"
        for i in range(n - 2, -1, -1):
            tree, text = BracketNode(BracketLeaf(i), tree), f"(Bob {text})"
        if n == MAX_DEPTH:
            assert parse_bracketing(text, words) == tree
            assert not derive_sentence(lex, words, s, bracketing=tree).ok
            continue
        with pytest.raises(ProverError) as parsed:
            parse_bracketing(text, words)
        with pytest.raises(ProverError) as built:
            derive_sentence(lex, words, s, bracketing=tree)
        assert str(built.value) == str(parsed.value)
        assert "deeper than" in str(built.value)


def test_chart_rejects_a_gap_outside_the_island_without_the_candidates(monkeypatch):
    lex = builtin_lexicon()
    words, goal = "papers that Bob left Bob without reading".split(), parse_formula("n")
    candidates = sum(1 for _ in sentence_candidates(lex, words, goal))
    calls = []
    prove_ = Prover.prove
    monkeypatch.setattr(Prover, "prove", lambda self, g: calls.append(g) or prove_(self, g))
    r = derive_sentence(lex, words, goal)
    assert not r.ok and not r.bounded
    assert len(calls) < candidates


def test_no_candidate_the_chart_rejects_reaches_the_prover(monkeypatch):
    # the chart rejects every candidate, the first one included; the
    # chart's own checks of its arguments go to a prover too, but never
    # on a candidate's antecedent
    lex = builtin_lexicon()
    words, goal = "window that Bob left the room without closing".split(), parse_formula("n")
    candidates = list(sentence_candidates(lex, words, goal))
    assert candidates and not any(admitted for _, admitted in candidates)
    antecedents = {ante for ante, _ in candidates}
    calls = []
    prove_ = Prover.prove
    monkeypatch.setattr(Prover, "prove", lambda self, g: calls.append(g) or prove_(self, g))
    r = derive_sentence(lex, words, goal)
    assert calls and not [g for g in calls if g.source in antecedents]
    assert not r.ok and not r.bounded
    assert r.diagnostics == (
        "no bracketing succeeded; deepest failed subgoal: "
        "n*((n\\n)/(np/<x>[x]np*(np\\s)/<x>[x]np)*(np*((np\\s)/np*(np/n*(n*"
        "<i>([i](((np\\s)/<x>[x]np)\\((np\\s)/np))/gp/<x>[x]np*gp/np)))))) -> n"
    )


def test_a_skipped_first_candidate_names_its_stripped_goal():
    # an atomic goal: the stripped goal is the one the prover fails last
    # and deepest on that candidate, so the diagnostic is unchanged
    lex = builtin_lexicon()
    r = derive_sentence(lex, ["proposal", "thoroughly"], parse_formula("n"))
    assert not r.ok
    assert r.diagnostics.endswith("deepest failed subgoal: n*gp\\gp -> n")
    # a gap goal: the prover would fail first on a goal alpha rearranges,
    # as large as the stripped one; the stripped goal itself is named
    r = derive_sentence(lex, ["reject", "Bob"], parse_formula("s/<x>[x]np"))
    assert not r.ok and not r.bounded
    assert r.diagnostics.endswith(
        "deepest failed subgoal: ((np\\s)/np*np)*<x>[x]np -> s")


def _spy(events, name, real, *args):
    result = real(*args)
    events.append((name, result if name == "_wrap_count" else None))
    return result


def test_a_skipped_assignment_builds_nothing(monkeypatch):
    # eight lexical assignments, of which the counts keep only the last:
    # the seven skipped ones build no tree, antecedent, island wrap or
    # stripped goal, since a derivable search prints no diagnostic
    lex = builtin_lexicon()
    words = "this paper is easy to_explain well after studying thoroughly".split()
    events = []
    for name in ("_wrap_count", "_bracketings", "_island_wraps", "_strip", "_first_goal"):
        monkeypatch.setattr(prover, name,
                            functools.partial(_spy, events, name, getattr(prover, name)))
    r = derive_sentence(lex, words, parse_formula("s"))
    assert r.ok and not r.bounded
    counts = [event for event in events if event[0] == "_wrap_count"]
    assert [k for _, k in counts] == [None] * 7 + [1]
    skipped = events[events.index(counts[0]):events.index(counts[-1])]
    assert skipped == counts[:-1]
    assert ("_first_goal", None) not in events


def search_outcome(result, words):
    return (result.ok, result.bounded, result.diagnostics,
            [(format_bracketing(p.bracketing, words), p.types, proof_to_json(p.proof))
             for p in result.parses])


def test_slash_gap_and_product_inputs_search_as_unpruned():
    # goals with a slash, a gap or a product, which the chart checks as
    # arguments, and the two-gap "whom", whose argument is a product of
    # two arguments with a hypothesis each
    lex = builtin_lexicon()
    for text, goal in [
        ("rejected the paper", "np\\s"),
        ("Bob rejected", "s/<x>[x]np"),
        ("Bob rejected the", "s/n"),
        ("that Bob rejected without reading", "n\\n"),
        ("Bob rejected", "np*(np\\s)/np"),
        ("the report about left", "np/<x>[x]np*(np\\s)/<x>[x]np"),
        ("candidate whom Bob persuaded to_vote for", "n"),
        ("candidate whom Bob persuaded", "n"),
        # the count check skips a whole class: its first candidate's
        # stripped goal is the failure recorded, with the island wrap
        # for the wrapped class
        ("papers that Bob rejected without", "n/gp"),
        ("candidate that Bob rejected I despite reading", "n"),
        ("window that Bob left the room without closing", "n"),
    ]:
        words = text.split()
        got = derive_sentence(lex, words, parse_formula(goal))
        want = derive_sentence(lex, words, parse_formula(goal),
                               config=SearchConfig(count_pruning=False))
        assert search_outcome(got, words) == search_outcome(want, words), text
    # three hypotheses, more than a chart class counts, in the goal and
    # in an argument; each is derivable only on the left-branching tree,
    # and both searches exhaust the right-branching one first
    gap3 = "((s/<x>[x]np)/<x>[x]np)/<x>[x]np"
    lex = {w: [parse_formula(t)] for w, t in [
        ("p", "(s/z)/y"), ("q", "y/np"), ("r", "(z/np)/np"), ("x", f"t/({gap3})")]}
    for text, goal in [("p q r", gap3), ("x p q r", "t")]:
        words = text.split()
        got = derive_sentence(lex, words, parse_formula(goal))
        want = derive_sentence(lex, words, parse_formula(goal),
                               config=SearchConfig(count_pruning=False))
        assert got.parses and not got.bounded, text
        assert search_outcome(got, words) == search_outcome(want, words), text


def test_search_results_are_frozen():
    # a kept result is shared by every caller that asks again
    r = derive_sentence(builtin_lexicon(), ["Bob", "left", "the", "room"], parse_formula("s"))
    config = SearchConfig()
    for obj, field in ((r, "bounded"), (r.parses[0], "types"), (config, "find_all")):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, field, None)
    assert replace(config, find_all=True).find_all


def other_words(rng, pattern, words):
    """A substitution into ``pattern`` that differs from ``words`` in
    every slot whose class has another word."""
    return [rng.choice([w for w in CLASSES[t] if w != old] or [old]) if t in CLASSES else old
            for t, old in zip(pattern.split(), words)]


def test_cached_search_equals_a_cold_one_for_words_of_the_same_types():
    lex = builtin_lexicon()
    rng = random.Random(2023)
    for pattern, goal_text, _ in PATTERNS:
        goal = parse_formula(goal_text)
        first = substitute(rng, pattern)
        second = other_words(rng, pattern, first)
        assert first != second, pattern
        # unbracketed, then on the first parse's tree or the
        # right-branching one
        cold = derive_sentence(lex, second, goal)
        tree = (cold.parses[0].bracketing if cold.ok
                else next(_bracketings([lex.types(w)[0] for w in second]))[0])
        for bracketing in (None, tree):
            def search(words):
                text = bracketing and format_bracketing(bracketing, words)
                return derive_sentence(lex, words, goal, bracketing=text)

            _derive.cache_clear()
            want = search_outcome(search(second), second)
            _derive.cache_clear()
            search(first)
            hits = _derive.cache_info().hits
            got = search(second)
            assert _derive.cache_info().hits == hits + 1, (pattern, bracketing)
            assert search_outcome(got, second) == want, (pattern, bracketing)


def test_search_cache_is_bounded():
    lex = builtin_lexicon()
    words, s = ["Bob", "left"], parse_formula("s")
    for size in range(SEARCH_CACHE_SIZE + 10):
        derive_sentence(lex, words, s, config=SearchConfig(max_proof_size=size))
    info = _derive.cache_info()
    assert (info.misses, info.currsize) == (SEARCH_CACHE_SIZE + 10, SEARCH_CACHE_SIZE)


def test_kept_chart_checks_stay_within_their_bounds(monkeypatch):
    # more configs than the table keeps, and a bound on one config's
    # checks that every search passes, so that the checks start afresh
    # again and again: every result is still a cold search's
    size = 6
    monkeypatch.setattr(prover, "CHECKS_SIZE", size)
    clears = []
    clear = _Checks._clear
    monkeypatch.setattr(_Checks, "_clear", lambda self: clears.append(1) or clear(self))
    lex = builtin_lexicon()
    items = [(text.split(), parse_formula(goal))
             for text, goal, bracketing, _ in CRITERION_1_SUITE if bracketing is None][:6]
    configs = [SearchConfig(max_proof_size=40 + i) for i in range(CHECKS_CONFIGS + 2)]
    warm = []
    for config in configs:
        for words, goal in items:
            warm.append(search_outcome(derive_sentence(lex, words, goal, config=config), words))
            assert _checks.cache_info().currsize <= CHECKS_CONFIGS
            assert _checks(config).size() <= size
    assert _checks.cache_info().misses == len(configs) > CHECKS_CONFIGS
    assert len(clears) > 2 * len(configs)
    cold = []
    for config in configs:
        for words, goal in items:
            _derive.cache_clear()
            _checks.cache_clear()
            cold.append(search_outcome(derive_sentence(lex, words, goal, config=config), words))
    assert warm == cold


def test_input_errors_are_raised_on_every_call():
    lex = builtin_lexicon()
    s = parse_formula("s")
    # deep enough that hashing it as part of a key would recurse too far
    n = 1500
    deep = BracketLeaf(n - 1)
    for i in range(n - 2, -1, -1):
        deep = BracketNode(BracketLeaf(i), deep)
    for words, bracketing, match in (
        (["Bob", "flurbled"], None, "not in the lexicon"),
        (["Bob"] * (MAX_SEARCH_WORDS + 1), None, "capped"),
        (["Bob"] * n, deep, "deeper than"),
    ):
        for _ in range(2):
            with pytest.raises(ProverError, match=match):
                derive_sentence(lex, words, s, bracketing=bracketing)
    assert _derive.cache_info().currsize == 0
