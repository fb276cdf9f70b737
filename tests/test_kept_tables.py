"""Tables kept across calls: the parsed goal texts, the bracketing trees
per skeleton and the evaluation programs per plan and dimensions.

Each is bounded by ``SEARCH_CACHE_SIZE``, cleared before every test
(``conftest.cold_search_cache``), and gives what a cold call gives; a
bad input raises the same error on every call and is never kept.
"""

import random

import pytest

from lambeksem.diagram import normalize
from lambeksem.formula import MAX_DEPTH, FormulaError, _parsed, parse_formula, print_formula
from lambeksem.lexicon import builtin_lexicon
from lambeksem.prover import (
    SEARCH_CACHE_SIZE,
    ProverError,
    _bracketings,
    _read_bracketing,
    _skeleton_tree,
    derive_sentence,
    format_bracketing,
    parse_bracketing,
)
from lambeksem.tensor import TensorError, TensorStore, _sized_program, eval_diagram
from lambeksem.translate import compile_sentence
from conftest import KEPT_TABLES, benchmark_corpus, meaning_requests, random_formula

WORDS = ["papers", "that", "Bob", "rejected"]
GOOD = "(papers (that (Bob rejected)))"

# deeper than a parsed bracketing may nest: n right-branching words nest
# n levels
DEEP_WORDS = ["Bob"] * (MAX_DEPTH + 1)
DEEP = "Bob"
for _ in DEEP_WORDS[1:]:
    DEEP = f"(Bob {DEEP})"

MALFORMED = (
    (WORDS, "(papers (that (Bob rejected))"),  # unbalanced
    (WORDS, "(papers (that (Bob accepted)))"),  # a wrong word, GOOD's skeleton
    (WORDS, "i:"),  # a lone island mark
    (WORDS, "(papers (that (Bob i:i:rejected)))"),  # the mark twice
    (WORDS, "((papers) (that (Bob rejected)))"),  # a bracketed single word
    (WORDS, "(papers (that (Bob rejected))) papers"),  # trailing tokens
    (WORDS, ""),
    (DEEP_WORDS, DEEP),
)


def test_malformed_bracketings_raise_the_parsers_error_on_every_call():
    lex = builtin_lexicon()
    n, s = parse_formula("n"), parse_formula("s")
    # GOOD's skeleton is kept, so a wrong word over it meets a kept tree
    assert derive_sentence(lex, WORDS, n, bracketing=GOOD).ok
    for words, text in MALFORMED:
        with pytest.raises(ProverError) as parsed:
            parse_bracketing(text, words)
        for _ in range(2):
            with pytest.raises(ProverError) as searched:
                derive_sentence(lex, words, s if words is DEEP_WORDS else n, bracketing=text)
            assert str(searched.value) == str(parsed.value), text
    assert _skeleton_tree.cache_info().currsize == 1


def test_a_kept_bracketing_is_the_parsed_one():
    corpus = benchmark_corpus()
    items = [item for seed in (1, 2, 3) for item in corpus.meaning_items(seed)]
    items += [item for item in corpus.suite_items(1) if item["bracketing"]]
    skeletons = set()
    for _ in range(2):
        for item in items:
            words, text = item["words"], item["bracketing"]
            tree = parse_bracketing(text, words)
            kept = _read_bracketing(text, words)
            assert kept == tree and hash(kept) == hash(tree), text
            assert format_bracketing(kept, words) == format_bracketing(tree, words)
            skeletons.add(kept)
    # each pattern's items share one tree, parsed once
    info = _skeleton_tree.cache_info()
    assert len(skeletons) == info.currsize == info.misses < 10
    # a search reads the kept tree as it reads the text's own
    lex = builtin_lexicon()
    item = items[0]
    goal = parse_formula(item["goal"])
    by_text = derive_sentence(lex, item["words"], goal, bracketing=item["bracketing"])
    by_tree = derive_sentence(lex, item["words"], goal,
                              bracketing=parse_bracketing(item["bracketing"], item["words"]))
    assert by_text is by_tree


def test_skeletons_past_the_bound_give_the_parsed_tree():
    words = ["Bob"] * 8
    texts = []
    for tree, _ in _bracketings([parse_formula("np")] * len(words)):
        texts.append(format_bracketing(tree, words))
        if len(texts) == SEARCH_CACHE_SIZE + 10:
            break
    assert len(texts) == SEARCH_CACHE_SIZE + 10
    for _ in range(2):
        for text in texts:
            assert _read_bracketing(text, words) == parse_bracketing(text, words)
            assert _skeleton_tree.cache_info().currsize <= SEARCH_CACHE_SIZE
    assert _skeleton_tree.cache_info().misses == 2 * len(texts)


def test_goal_texts_past_the_bound_give_a_cold_parse():
    rng = random.Random(26)
    texts = set()
    while len(texts) < SEARCH_CACHE_SIZE + 10:
        texts.add(print_formula(random_formula(rng)))
    warm = []
    for _ in range(2):
        for text in sorted(texts):
            warm.append(parse_formula(text))
            assert _parsed.cache_info().currsize <= SEARCH_CACHE_SIZE
    cold = []
    for _ in range(2):
        for text in sorted(texts):
            _parsed.cache_clear()
            cold.append(parse_formula(text))
    assert warm == cold
    # a repeated text is the same formula, unparsed
    assert parse_formula("s") is parse_formula("s")


def test_a_bad_goal_text_raises_on_every_call():
    for text in ("", "s/", "(np", "<z>np", "np np", "(" * 2000 + "s" + ")" * 2000):
        with pytest.raises(FormulaError) as first:
            parse_formula(text)
        with pytest.raises(FormulaError) as again:
            parse_formula(text)
        assert str(again.value) == str(first.value)
    assert _parsed.cache_info().currsize == 0


def test_program_and_dims_past_the_bound_evaluate_as_cold():
    lex = builtin_lexicon()
    item, parse, states = next(r for r in meaning_requests(lex, 1) if r[0]["family"] == "relative")
    meaning = normalize(compile_sentence(parse, states))
    tables = [{"N": n, "S": s} for n in range(1, 18) for s in range(1, 17)]
    assert len(tables) > SEARCH_CACHE_SIZE
    warm = []
    for dims in tables:
        warm.append(eval_diagram(meaning, TensorStore(dims, seed=item["store_seed"])))
        assert _sized_program.cache_info().currsize <= SEARCH_CACHE_SIZE
    assert _sized_program.cache_info().misses == len(tables)
    for dims, value in zip(tables, warm):
        for table in KEPT_TABLES:
            table.cache_clear()
        cold = eval_diagram(meaning, TensorStore(dims, seed=item["store_seed"]))
        assert value.spaces == cold.spaces
        assert value.array.tobytes() == cold.array.tobytes(), dims


def test_an_oversized_evaluation_raises_on_every_call():
    # about 1.7e10 entries in the value: refused before any fetch, which
    # a strict empty store would refuse with another error
    lex = builtin_lexicon()
    words = ["rejected", "rejected"]
    parse = derive_sentence(lex, words, parse_formula("((np\\s)/np)*((np\\s)/np)")).parses[0]
    meaning = normalize(compile_sentence(parse, lex.states(words, parse.types)))
    messages = []
    for _ in range(2):
        with pytest.raises(TensorError) as err:
            eval_diagram(meaning, TensorStore({"N": 256, "S": 2}, generate=False))
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("the value of shape (256, 2, 256, 256, 2, 256) has more than")
    assert _sized_program.cache_info()[:2] == (1, 1)
