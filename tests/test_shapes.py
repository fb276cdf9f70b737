"""Structural work kept per diagram shape: compile, normalize, evaluate.

A shape is a diagram without its box names.  Each stage keeps what it
builds from the shape and redoes per call only what the names decide,
so a warm call must give what a cold one gives, byte for byte.  The
evaluator's contraction program is kept per shape and order of the
dimensions, and must give what ``np.einsum`` gives along the kept path.
"""

import random
import sys

import numpy as np
import pytest

from lambeksem.diagram import DiagramError, _normal_shape, normalize
from lambeksem.formula import parse_formula
from lambeksem.lexicon import builtin_lexicon
from lambeksem.prover import SEARCH_CACHE_SIZE, _checks, derive_sentence
from lambeksem.tensor import (
    TensorStore,
    _eval_plan,
    _eval_program,
    _sized_program,
    eval_diagram,
)
from lambeksem.translate import _compiled_shape, compile_sentence
from conftest import KEPT_TABLES, meaning_requests, random_diagram

MEMOS = (_compiled_shape, _normal_shape, _eval_plan, _eval_program, _sized_program)

# N < S, N > S, N = S and a dimension of 1, each order at two tables
DIM_PAIRS = (
    ({"N": 2, "S": 16}, {"N": 4, "S": 8}),
    ({"N": 16, "S": 2}, {"N": 3, "S": 2}),
    ({"N": 3, "S": 3}, {"N": 2, "S": 2}),
    ({"N": 1, "S": 4}, {"N": 1, "S": 2}),
    ({"N": 5, "S": 1}, {"N": 2, "S": 1}),
)
DIM_TABLES = [dims for pair in DIM_PAIRS for dims in pair]

# numpy 2.4's einsum runs each pairwise step by batched matmul
# (bmm_einsum), as the program does; an older one contracts pairs by
# tensordot, and then the two agree to rounding only
EINSUM_BY_MATMUL = any(hasattr(sys.modules.get(name), "bmm_einsum")
                       for name in ("numpy._core.einsumfunc", "numpy.core.einsumfunc"))


def clear_memos():
    for memo in MEMOS:
        memo.cache_clear()


def test_each_memo_is_bounded_by_the_search_cache():
    # every table kept across calls, the chart checks aside, which have
    # bounds of their own
    for memo in KEPT_TABLES:
        if memo is not _checks:
            assert memo.cache_info().maxsize == SEARCH_CACHE_SIZE, memo
    assert set(MEMOS) < set(KEPT_TABLES)


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
    # warm: the plan kept at every other table, and the program at the
    # other table of the same order
    lex = builtin_lexicon()
    for item, parse, states in list(meaning_requests(lex, 1))[:12]:
        meaning = normalize(compile_sentence(parse, states))
        seed = item["store_seed"]
        for dims in DIM_TABLES:
            _eval_plan.cache_clear()
            _eval_program.cache_clear()
            cold = eval_diagram(meaning, TensorStore(dims, seed=seed))
            _eval_plan.cache_clear()
            _eval_program.cache_clear()
            for other in DIM_TABLES:
                if other is not dims:
                    eval_diagram(meaning, TensorStore(other, seed=seed))
            warm = eval_diagram(meaning, TensorStore(dims, seed=seed))
            assert _eval_plan.cache_info()[:2] == (len(DIM_TABLES) - 1, 1)
            programs = _eval_program.cache_info()
            assert programs.hits + programs.misses == len(DIM_TABLES)
            assert programs.misses <= len(DIM_PAIRS)
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
        # the second evaluation finds its program kept with its size
        # check, at the same dimensions
        want = (0, 1) if memo is _eval_program else (1, 1)
        assert (info.hits, info.misses) == want, memo
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


def plan_operands(d, store) -> list:
    """The operands of ``d``'s plan at ``store``, each followed by its
    labels, as ``np.einsum`` takes them."""
    plan = _eval_plan(d.shape)
    arrays = [store.get(name, spaces) for name, spaces in zip(d.box_names, plan.boxes)]
    arrays += [np.eye(store.dim(plan.spaces[a])) for a in plan.copies]
    arrays += [np.ones(store.dim(plan.spaces[a])) for a in plan.ones]
    args = []
    for array, term in zip(arrays, plan.terms):
        args += (array, list(term))
    return args


def einsum_value(d, store) -> np.ndarray:
    """``np.einsum`` along the plan's kept path: the reference the
    contraction program must match bitwise."""
    plan = _eval_plan(d.shape)
    scalar = 1.0
    for space in plan.loops:
        scalar *= store.dim(space)
    if not plan.terms:
        return np.array(scalar)
    return np.einsum(*plan_operands(d, store), plan.out, optimize=plan.path) * scalar


def assert_einsum_value(value, reference):
    assert value.shape == reference.shape
    if EINSUM_BY_MATMUL:
        assert value.tobytes() == reference.tobytes()
    else:
        np.testing.assert_allclose(value, reference, rtol=1e-12, atol=0)


def test_kept_path_is_the_greedy_path_at_each_requests_dims():
    # what keeps the benchmark's meanings bitwise as they were before
    # the path was kept: numpy's greedy search on the call's own operands
    # chooses the path the shape's plan holds
    lex = builtin_lexicon()
    for item, parse, states in meaning_requests(lex, 1):
        meaning = normalize(compile_sentence(parse, states))
        store = TensorStore(item["dims"], seed=item["store_seed"])
        path, _ = np.einsum_path(*plan_operands(meaning, store), _eval_plan(meaning.shape).out,
                                 optimize="greedy")
        assert tuple(path) == _eval_plan(meaning.shape).path


def test_the_program_is_einsum_along_the_kept_path(monkeypatch):
    searched = []
    einsum_path = np.einsum_path
    monkeypatch.setattr(np, "einsum_path",
                        lambda *args, **kwargs: searched.append(1) or einsum_path(*args, **kwargs))
    lex = builtin_lexicon()
    meanings = [(normalize(compile_sentence(parse, states)), item)
                for seed in (1, 2, 3) for item, parse, states in meaning_requests(lex, seed)]
    assert len(meanings) == 3 * 84
    for warm in (False, True):
        for meaning, item in meanings:
            store = TensorStore(item["dims"], seed=item["store_seed"])
            assert_einsum_value(eval_diagram(meaning, store).array, einsum_value(meaning, store))
        # numpy's path search runs once per shape, on a program miss, and
        # not again once every program is kept
        programs = _eval_program.cache_info()
        assert len(searched) == _eval_plan.cache_info().misses <= programs.misses
        if warm:
            assert programs.misses == missed
        missed = programs.misses
    # at most one program per shape and order of N and S: N < S, N = S,
    # N > S, since the benchmark's dims have no 1
    assert missed <= 3 * _eval_plan.cache_info().misses


def test_the_program_is_einsum_on_random_diagrams():
    # dims of 1 and unequal sizes, where numpy's pairwise steps drop
    # labels of size 1 and order each intermediate's labels by size
    rng = random.Random(41)
    tables = [{"N": n, "S": s} for n, s in ((1, 3), (3, 1), (2, 3), (3, 2), (2, 2), (1, 1), (4, 2))]
    for k in range(700):
        d = random_diagram(rng, max_nodes=5, tag=str(k))
        store = TensorStore(tables[k % len(tables)], seed=k)
        assert_einsum_value(eval_diagram(d, store).array, einsum_value(d, store))
