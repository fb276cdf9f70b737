"""End-to-end acceptance checks.

Each test covers one acceptance criterion, collects every problem it
finds, and prints a single PASS/FAIL line (visible even under pytest's
capture) before asserting.
"""

import random
import time

import numpy as np

from lambeksem.diagram import (
    box,
    cap,
    compose,
    cup,
    identity,
    normalize,
    spider,
    tensor_par,
)
from lambeksem.formula import Box, Dia, Mode, parse_formula, print_formula
from lambeksem.lexicon import builtin_lexicon, parse_steps, run_pipeline
from lambeksem.prover import SearchConfig, compose as pcompose, derive_sentence, prove, Arrow
from lambeksem.tensor import TensorStore, closed_form_1d, eval_diagram, oracle_eval
from lambeksem.translate import (
    compile_sentence,
    extract_axiom_links,
    interpret_proof,
    interpret_type,
    proof_meaning,
)
from conftest import composable_proof_pairs, random_diagram, random_formula

F = parse_formula

GAP_BRACKETING = "(papers (that (Bob (rejected i:(without reading)))))"
TWO_GAP_BRACKETING = (
    "(papers (that (reviewers (rejected i:(without (reading carefully))))))"
)
TWO_CLAUSE_BRACKETING = (
    "(I (know ((which papers) (Bob (will "
    "(reject i:(before (even (reading cursorily)))))))))"
)
CONTROL_BRACKETING = (
    "(this (is (a (candidate (whom ((I (would (persuade "
    "(every (friend of))))) (to_vote for)))))))"
)


# (sentence, goal, bracketing or None, derivable)
CRITERION_1_SUITE = [
    ("papers that Bob rejected", "n", None, True),
    ("papers that Bob rejected immediately", "n", None, True),
    ("Bob left the room without closing the window", "s", None, True),
    ("window that Bob left the room without closing", "n", None, False),
    ("papers that Bob rejected without reading", "n", None, True),
    ("papers that Bob rejected without reading carefully", "n", None, True),
    ("security_breach that a report about in the NYT made public",
     "n", None, True),
    ("this is a candidate whom I would persuade every friend of to_vote for",
     "s", CONTROL_BRACKETING, True),
    ("which papers did Bob reject", "wh", None, True),
    ("which papers did Bob reject immediately", "wh", None, True),
    ("I know which papers Bob will reject", "s", None, True),
    ("I know which papers Bob will reject immediately", "s", None, True),
    ("this paper is hard to_understand", "s", None, True),
    ("which papers did Bob accept despite not liking", "wh", None, True),
    ("which papers did Bob accept despite not liking really",
     "wh", None, True),
    ("I know which papers Bob will reject before even reading cursorily",
     "s", TWO_CLAUSE_BRACKETING, True),
    ("this paper is easy to_explain well after studying thoroughly",
     "s", None, True),
    ("papers that Bob rejected the proposal", "n", None, False),
]


def report(capsys, number, description, problems, elapsed=None):
    status = "PASS" if not problems else "FAIL"
    timing = f"  [{elapsed:.2f}s]" if elapsed is not None else ""
    with capsys.disabled():
        print(f"criterion {number} {status}: {description}{timing}")
    assert not problems, "\n".join(problems)


def test_criterion_1_derivability_suite(capsys):
    lex = builtin_lexicon()
    cfg = SearchConfig(max_proof_size=40)
    suite = CRITERION_1_SUITE
    problems = []
    start = time.perf_counter()
    for sentence, goal, bracketing, want in suite:
        result = derive_sentence(
            lex, sentence.split(), F(goal), bracketing=bracketing, config=cfg
        )
        if result.ok != want:
            problems.append(
                f"{sentence!r} -> {goal}: expected "
                f"{'derivable' if want else 'underivable'}"
            )
        if not want and result.bounded:
            problems.append(f"{sentence!r}: rejection hit the search bound")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        problems.append(f"suite took {elapsed:.2f}s, budget is 10s")
    report(capsys, 1, f"derivability verdicts on {len(suite)} sentences",
           problems, elapsed)


def test_criterion_2_axiom_links(capsys):
    lex = builtin_lexicon()
    words = "papers that reviewers rejected without reading carefully".split()
    expected = {
        (0, 1), (2, 21), (3, 13), (4, 14), (5, 12), (6, 9), (7, 10), (8, 11),
        (15, 20), (16, 18), (17, 19),
    }
    problems = []
    result = derive_sentence(lex, words, F("n"),
                             bracketing=TWO_GAP_BRACKETING)
    if not result.ok:
        problems.append("reference sentence failed to parse")
    else:
        links = set(extract_axiom_links(result.parses[0].proof).links)
        if links != expected:
            problems.append(
                f"links {sorted(links)} != expected {sorted(expected)}"
            )
    report(capsys, 2, "axiom linking of the parasitic-gap derivation",
           problems)


def test_criterion_3_closed_form(capsys):
    lex = builtin_lexicon()
    words = "papers that Bob rejected without reading".split()
    store = TensorStore({"N": 4, "S": 3}, seed=7)
    problems = []
    start = time.perf_counter()
    result = derive_sentence(lex, words, F("n"), bracketing=GAP_BRACKETING)
    if not result.ok:
        problems.append("sentence failed to parse")
        value = None
    else:
        parse = result.parses[0]
        states = lex.states(words, parse.types)
        diagram = normalize(compile_sentence(parse, states))
        value = eval_diagram(diagram, store)
    elapsed = time.perf_counter() - start
    if value is not None:
        want = closed_form_1d(store)
        if value.spaces != want.spaces:
            problems.append(f"spaces {value.spaces} != {want.spaces}")
        elif not np.allclose(value.array, want.array, rtol=1e-9, atol=0):
            problems.append(
                f"value {value.array} != closed form {want.array}"
            )
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s, budget is 1s")
    report(capsys, 3, "compiled meaning matches the closed form at N=4, S=3",
           problems, elapsed)


def test_criterion_4_normalization_preserves_meaning(capsys):
    lex = builtin_lexicon()
    store = TensorStore({"N": 3, "S": 2}, seed=19)
    sentences = [
        ("papers that Bob rejected without reading", "n", None),
        ("security_breach that a report about in the NYT made public",
         "n", None),
        ("this is a candidate whom I would persuade every friend of to_vote for",
         "s", CONTROL_BRACKETING),
    ]
    problems = []
    for sentence, goal, bracketing in sentences:
        words = sentence.split()
        result = derive_sentence(lex, words, F(goal), bracketing=bracketing)
        if not result.ok:
            problems.append(f"{sentence!r} failed to parse")
            continue
        parse = result.parses[0]
        states = lex.states(words, parse.types)
        # The raw proof diagram is the one with actual yanks and
        # fusable spiders in it; the link-route diagram doubles as an
        # independent reference value.
        initial = proof_meaning(parse, states)
        reduced = normalize(initial)
        if len(reduced.nodes) >= len(initial.nodes):
            problems.append(f"{sentence!r}: normalization was a no-op")
        v1 = eval_diagram(initial, store)
        v2 = eval_diagram(reduced, store)
        v3 = eval_diagram(compile_sentence(parse, states), store)
        if v1.spaces != v2.spaces or not np.allclose(
            v1.array, v2.array, rtol=1e-9, atol=1e-12
        ):
            problems.append(f"{sentence!r}: normalization changed the value")
        if not np.allclose(v1.array, v3.array, rtol=1e-9, atol=1e-12):
            problems.append(f"{sentence!r}: link route disagrees")
        if reduced.to_json() != normalize(compile_sentence(parse, states)).to_json():
            problems.append(f"{sentence!r}: routes differ in normal form")
    report(capsys, 4, "evaluation is invariant under normalization", problems)


def _random_spider_graph(rng, space="N", max_width=4):
    width = rng.randint(1, 3)
    d = identity(((space, False),) * width)
    for _ in range(rng.randint(1, 5)):
        pos = rng.randrange(width)
        m = rng.randint(1, min(2, width - pos))
        n = rng.randint(1, min(3, max_width - (width - m)))
        left = identity(((space, False),) * pos)
        right = identity(((space, False),) * (width - pos - m))
        layer = tensor_par(tensor_par(left, spider(space, m, n)), right)
        d = compose(d, layer)
        width = width - m + n
    return d


def test_criterion_5_frobenius_identities(capsys):
    problems = []
    rng = random.Random(505)
    graphs = [_random_spider_graph(rng) for _ in range(100)]
    for dim in (2, 3, 4, 5):
        store = TensorStore({"N": dim}, seed=dim)
        N = ("N", False)
        probe = box("probe", (), (N,))
        base = eval_diagram(probe, store).array

        snake = compose(
            tensor_par(cap("N"), identity((N,))),
            tensor_par(identity((N,)), cup("N", left_dual=True)),
        )
        bent = eval_diagram(compose(probe, snake), store).array
        if not np.array_equal(bent, base):
            problems.append(f"dim {dim}: snake is not the identity")

        a = compose(spider("N", 2, 1), spider("N", 1, 2))
        b = compose(
            tensor_par(identity((N,)), spider("N", 1, 2)),
            tensor_par(spider("N", 2, 1), identity((N,))),
        )
        c = compose(
            tensor_par(spider("N", 1, 2), identity((N,))),
            tensor_par(identity((N,)), spider("N", 2, 1)),
        )
        va, vb, vc = (eval_diagram(d, store).array for d in (a, b, c))
        if not (np.allclose(va, vb, rtol=1e-12, atol=1e-12)
                and np.allclose(va, vc, rtol=1e-12, atol=1e-12)):
            problems.append(f"dim {dim}: associativity composites differ")

        merge_split = compose(spider("N", 1, 2), spider("N", 2, 1))
        round_trip = eval_diagram(compose(probe, merge_split), store).array
        if not np.array_equal(round_trip, base):
            problems.append(f"dim {dim}: split-then-merge is not the identity")

        for k, graph in enumerate(graphs):
            v1 = eval_diagram(graph, store)
            v2 = eval_diagram(normalize(graph), store)
            if v1.spaces != v2.spaces or not np.allclose(
                v1.array, v2.array, rtol=1e-12, atol=1e-12
            ):
                problems.append(f"dim {dim}: spider graph {k} changed value")
                break
    report(capsys, 5, "Frobenius identities at dimensions 2 through 5",
           problems)


def test_criterion_6_functoriality(capsys):
    problems = []
    rng = random.Random(606)
    store = TensorStore({"N": 2, "S": 2}, seed=16)
    for k, (f, g) in enumerate(composable_proof_pairs(rng, 200)):
        fused = interpret_proof(pcompose(g, f))
        split = compose(interpret_proof(f), interpret_proof(g))
        v1 = eval_diagram(fused, store)
        v2 = eval_diagram(split, store)
        if v1.spaces != v2.spaces or not np.allclose(
            v1.array, v2.array, rtol=1e-9, atol=1e-12
        ):
            problems.append(f"pair {k}: composite interpretation differs")
            break

    frng = random.Random(607)
    for _ in range(50):
        h = random_formula(frng, depth=3)
        if interpret_type(Dia(Mode.X, h)) != interpret_type(h):
            problems.append(f"diamond changed wires of {print_formula(h)}")
        if interpret_type(Box(Mode.I, h)) != interpret_type(h):
            problems.append(f"box changed wires of {print_formula(h)}")

    term = prove(Arrow(F("(np*s)*<x>np"), F("np*(s*<x>np)"))).proofs[0]
    moved = normalize(interpret_proof(term))
    if moved.nodes:
        problems.append("rebracketing is not interpreted as the identity")
    swap_term = prove(Arrow(F("(np*s)*<x>np"), F("(np*<x>np)*s"))).proofs[0]
    d = interpret_proof(swap_term)
    probe = box("w3", (), interpret_type(F("(np*s)*<x>np")))
    got = eval_diagram(compose(probe, d), store).array
    want = np.transpose(eval_diagram(probe, store).array, (0, 2, 1))
    if not np.array_equal(got, want):
        problems.append("commutation is not an exact transposition")
    report(capsys, 6, "interpretation is functorial and modality-transparent",
           problems)


def test_criterion_7_type_pipelines(capsys):
    lex = builtin_lexicon()
    expected = {
        "without": [
            "[i](np\\s\\(np\\s))/gp",
            "([i](np\\s\\(np\\s))/<x>[x]np)/gp/<x>[x]np",
            "[i](((np\\s)/<x>[x]np)\\((np\\s)/<x>[x]np))/gp/<x>[x]np",
            "[i](((np\\s)/<x>[x]np)\\((np\\s)/np))/gp/<x>[x]np",
        ],
        "that": [
            "(n\\n)/s/<x>[x]np",
            "(n\\n)/(np*np\\s)/<x>[x]np",
            "(n\\n)/(np/<x>[x]np*(np\\s)/<x>[x]np)",
        ],
        "whom": [
            "(n\\n)/s/<x>[x]np",
            "(n\\n)/(s/to_inf*to_inf)/<x>[x]np",
            "(n\\n)/((s/to_inf)/<x>[x]np*to_inf/<x>[x]np)",
            "(n\\n)/((s/<x>[x]to_inf)/<x>[x]np*to_inf/<x>[x]np)",
        ],
    }
    problems = []
    for word, rows in expected.items():
        base = lex.entry(word, lex.types(word)[0])
        derived = lex.entry(word, lex.types(word)[1])
        got = [print_formula(base.syn)] + [
            print_formula(f)
            for f, _ in run_pipeline(base.syn, parse_steps(derived.steps_text))
        ]
        if got != rows:
            problems.append(f"{word}: rows {got} != expected {rows}")
    report(capsys, 7, "lexical pipelines reproduce every intermediate type",
           problems)


def test_criterion_8_evaluator_against_oracle(capsys):
    problems = []
    rng = random.Random(808)
    store = TensorStore({"N": 3, "S": 2}, seed=88)
    worst = 0.0
    for k in range(500):
        d = random_diagram(rng, max_nodes=4, tag=f"a{k}")
        fast = eval_diagram(d, store)
        slow = oracle_eval(d, store)
        if fast.spaces != slow.spaces:
            problems.append(f"diagram {k}: space mismatch")
            continue
        scale = max(1.0, float(np.max(np.abs(slow.array))))
        err = float(np.max(np.abs(fast.array - slow.array))) / scale
        worst = max(worst, err)
        if err > 1e-9:
            problems.append(f"diagram {k}: relative error {err:.2e}")
    report(capsys, 8,
           f"evaluator matches brute-force oracle on 500 diagrams "
           f"(worst {worst:.1e})", problems)
