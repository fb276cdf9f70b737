"""Structural work kept per diagram shape: compile, normalize, evaluate.

A shape is a diagram without its box names.  Each stage keeps what it
builds from the shape and redoes per call only what the names decide,
so a warm call must give what a cold one gives, byte for byte.
"""

import types

import numpy as np
import pytest

from lambeksem import tensor
from lambeksem.diagram import DiagramError, _normal_shape, normalize
from lambeksem.formula import parse_formula
from lambeksem.lexicon import builtin_lexicon
from lambeksem.prover import SEARCH_CACHE_SIZE, derive_sentence
from lambeksem.tensor import TensorStore, _eval_plan, eval_diagram
from lambeksem.translate import _compiled_shape, compile_sentence
from conftest import meaning_requests

MEMOS = (_compiled_shape, _normal_shape, _eval_plan)


def clear_memos():
    for memo in MEMOS:
        memo.cache_clear()


def test_each_memo_is_bounded_by_the_search_cache():
    for memo in MEMOS:
        assert memo.cache_info().maxsize == SEARCH_CACHE_SIZE


def test_warm_and_cold_compile_and_normalize_alike():
    lex = builtin_lexicon()
    requests = list(meaning_requests(lex, 1))
    cold = []
    for _, parse, states in requests:
        clear_memos()
        compiled = compile_sentence(parse, states)
        cold.append((compiled.to_json(), normalize(compiled).to_json()))
    clear_memos()
    for _ in range(2):
        warm = []
        for _, parse, states in requests:
            compiled = compile_sentence(parse, states)
            warm.append((compiled.to_json(), normalize(compiled).to_json()))
        assert warm == cold
    # 84 requests over a handful of shapes, each compiled and normalized
    # once
    assert len(requests) == 84
    shapes = _compiled_shape.cache_info().misses
    assert shapes < 10
    assert _normal_shape.cache_info()[:2] == (2 * 84 - shapes, shapes)


def test_a_plan_kept_at_some_dims_evaluates_alike_at_others():
    lex = builtin_lexicon()
    for item, parse, states in list(meaning_requests(lex, 1))[:12]:
        meaning = normalize(compile_sentence(parse, states))
        seed = item["store_seed"]
        _eval_plan.cache_clear()
        cold = eval_diagram(meaning, TensorStore({"N": 2, "S": 16}, seed=seed))
        _eval_plan.cache_clear()
        eval_diagram(meaning, TensorStore({"N": 16, "S": 2}, seed=seed))
        warm = eval_diagram(meaning, TensorStore({"N": 2, "S": 16}, seed=seed))
        assert _eval_plan.cache_info()[:2] == (1, 1)
        assert warm.spaces == cold.spaces
        assert warm.array.tobytes() == cold.array.tobytes()


def test_two_words_of_one_class_share_each_entry():
    lex = builtin_lexicon()
    goal = parse_formula("n")
    meanings = []
    for text in ("papers that Bob rejected without reading",
                 "report that I accept without liking"):
        words = text.split()
        parse = derive_sentence(lex, words, goal).parses[0]
        meanings.append(normalize(compile_sentence(parse, lex.states(words, parse.types))))
    assert meanings[0].shape == meanings[1].shape
    assert meanings[0].box_names != meanings[1].box_names
    store = TensorStore({"N": 3, "S": 2}, seed=4)
    values = [eval_diagram(m, store) for m in meanings]
    for memo in MEMOS:
        info = memo.cache_info()
        assert (info.hits, info.misses) == (1, 1), memo
    # the same plan, other tensors
    assert not np.array_equal(values[0].array, values[1].array)


def test_errors_are_raised_on_every_call():
    lex = builtin_lexicon()
    words = ["Bob", "left", "the", "room"]
    parse = derive_sentence(lex, words, parse_formula("s")).parses[0]
    states = lex.states(words, parse.types)
    for _ in range(2):
        with pytest.raises(DiagramError, match="boundary mismatch"):
            compile_sentence(parse, states[:-1])
    assert _compiled_shape.cache_info().currsize == 0
    compile_sentence(parse, states)
    assert _compiled_shape.cache_info().currsize == 1


def test_kept_path_is_the_greedy_path_at_each_requests_dims(monkeypatch):
    # what keeps the benchmark's meanings bitwise as they were before
    # the path was kept: numpy's greedy search on the call's own operands
    # chooses the path the shape's plan holds
    calls = []

    def einsum(*args, **kwargs):
        calls.append((args, kwargs))
        return np.einsum(*args, **kwargs)

    view = types.ModuleType("numpy")
    view.__getattr__ = lambda attr: getattr(np, attr)
    view.einsum = einsum
    monkeypatch.setattr(tensor, "np", view)
    lex = builtin_lexicon()
    for item, parse, states in meaning_requests(lex, 1):
        meaning = normalize(compile_sentence(parse, states))
        eval_diagram(meaning, TensorStore(item["dims"], seed=item["store_seed"]))
    assert len(calls) == 84
    for args, kwargs in calls:
        path, _ = np.einsum_path(*args, optimize="greedy")
        assert kwargs["optimize"] == path
