"""Wiring-level diagram algebra and its normal form."""

import random

import numpy as np
import pytest

from lambeksem.diagram import (
    Diagram,
    DiagramError,
    box,
    cap,
    compose,
    cup,
    dual_type,
    frobenius_network,
    identity,
    named,
    normalize,
    permutation,
    spider,
    swap,
    tensor_par,
)
from lambeksem.lexicon import builtin_lexicon
from lambeksem.tensor import TensorStore, eval_diagram
from lambeksem.translate import compile_sentence
from conftest import meaning_requests, random_diagram

N = ("N", False)
Nd = ("N", True)
S = ("S", False)


def ev(d, store):
    return eval_diagram(d, store)


@pytest.fixture
def store():
    return TensorStore({"N": 3, "S": 2}, seed=11)


def test_primitives_validate():
    for d in (
        box("f", (N, S), (N,)),
        cup("N"),
        cap("N"),
        spider("N", 2, 3),
        swap(N, S),
        identity((N, S, Nd)),
        permutation((N, S), (1, 0)),
    ):
        d.validate()


def test_boundary_types():
    assert cup("N").inputs == (N, Nd) and cup("N").outputs == ()
    assert cap("N").outputs == (N, Nd) and cap("N").inputs == ()
    assert cup("N", left_dual=True).inputs == (Nd, N)
    assert swap(N, S).outputs == (S, N)
    assert dual_type((N, S)) == (("S", True), ("N", True))
    assert dual_type(dual_type((N, Nd, S))) == (N, Nd, S)


def test_compose_type_checks():
    f = box("f", (N,), (S,))
    g = box("g", (S,), (N,))
    compose(f, g).validate()
    with pytest.raises(DiagramError):
        compose(f, f)
    with pytest.raises(DiagramError):
        compose(f, box("h", (("S", True),), (N,)))


def test_tensor_par_concatenates():
    f = box("f", (N,), (S,))
    g = box("g", (S,), (N,))
    d = tensor_par(f, g)
    assert d.inputs == (N, S)
    assert d.outputs == (S, N)
    d.validate()


def test_snake_equals_identity(store):
    # bend a wire up and back down; the result must act as the identity
    left = tensor_par(cap("N"), identity((N,)))
    right = tensor_par(identity((N,)), cup("N", left_dual=True))
    snake = compose(left, right)
    snake.validate()
    assert snake.inputs == (N,) and snake.outputs == (N,)
    probe = box("v", (), (N,))
    for d in (snake, normalize(snake)):
        out = ev(compose(probe, d), store)
        base = ev(probe, store)
        assert out.spaces == base.spaces
        np.testing.assert_allclose(out.array, base.array, rtol=0, atol=0)


def test_snake_other_orientation(store):
    left = tensor_par(identity((Nd,)), cap("N"))
    right = tensor_par(cup("N", left_dual=True), identity((Nd,)))
    snake = compose(left, right)
    snake.validate()
    assert snake.inputs == (Nd,) and snake.outputs == (Nd,)


def spider_equal(d1, d2, store):
    v1, v2 = ev(d1, store), ev(d2, store)
    assert v1.spaces == v2.spaces
    np.testing.assert_allclose(v1.array, v2.array, rtol=1e-12, atol=1e-12)


def test_frobenius_composites_agree(store):
    # three ways of wiring a 2-in 2-out spider web evaluate identically,
    # even though the graphs differ node by node
    a = compose(spider("N", 2, 1), spider("N", 1, 2))
    b = compose(
        tensor_par(identity((N,)), spider("N", 1, 2)),
        tensor_par(spider("N", 2, 1), identity((N,))),
    )
    c = compose(
        tensor_par(spider("N", 1, 2), identity((N,))),
        tensor_par(identity((N,)), spider("N", 2, 1)),
    )
    for d in (a, b, c):
        d.validate()
        assert d.inputs == (N, N) and d.outputs == (N, N)
    spider_equal(a, b, store)
    spider_equal(a, c, store)
    spider_equal(normalize(b), normalize(c), store)


def test_special_property(store):
    # contraction after splitting is the identity: one leg in, one leg out
    d = compose(spider("N", 1, 2), spider("N", 2, 1))
    merged = normalize(d)
    val = ev(d, store)
    assert val.spaces == ("N", "N") or val.spaces == ("N",) * len(val.spaces)
    for dim in (2, 3, 4, 5):
        st = TensorStore({"N": dim}, seed=3)
        out = ev(compose(box("v", (), (N,)), d), st)
        base = ev(box("v", (), (N,)), st)
        np.testing.assert_array_equal(out.array, base.array)
    assert len(merged.nodes) <= len(d.nodes)


def test_spider_fusion_chain(store):
    # a long chain of 1-1 spiders fuses to nothing extra and keeps its value
    d = identity((N,))
    for _ in range(100):
        d = compose(d, spider("N", 1, 1))
    nd = normalize(d)
    assert len(nd.nodes) <= 1
    probe = box("u", (), (N,))
    spider_equal(compose(probe, d), compose(probe, nd), store)


def test_normalize_idempotent_and_monotone():
    rng = random.Random(77)
    store = TensorStore({"N": 2, "S": 3}, seed=23)
    for i in range(40):
        d = random_diagram(rng, tag=str(i))
        d.validate()
        nd = normalize(d)
        nd.validate()
        assert nd.inputs == d.inputs and nd.outputs == d.outputs
        assert len(nd.nodes) <= len(d.nodes)
        assert normalize(nd).to_json() == nd.to_json()
        v1, v2 = ev(d, store), ev(nd, store)
        assert v1.spaces == v2.spaces
        np.testing.assert_allclose(v1.array, v2.array, rtol=1e-9, atol=1e-12)


def test_json_round_trip():
    rng = random.Random(5)
    for i in range(10):
        d = random_diagram(rng, tag=f"j{i}")
        back = Diagram.from_json(d.to_json())
        back.validate()
        assert back.inputs == d.inputs
        assert back.outputs == d.outputs
        assert back.to_json() == d.to_json()
    with pytest.raises(DiagramError):
        Diagram.from_json("{}")


def test_to_dot_mentions_every_node():
    d = compose(box("f", (N,), (S,)), box("g", (S,), (N,)))
    dot = d.to_dot()
    assert dot.startswith("digraph")
    assert "f" in dot and "g" in dot


def test_frobenius_network_dsl():
    d = frobenius_network(
        """
        out h o gap sv
        spider N : h o gap
        spider S : sv
        """,
        out_types=(N, N, Nd, S),
        word="that",
    )
    d.validate()
    assert d.inputs == ()
    assert d.outputs == (N, N, Nd, S)


def test_frobenius_network_errors():
    with pytest.raises(DiagramError):
        frobenius_network("out a b\nspider N : a", out_types=(N, N))
    with pytest.raises(DiagramError):
        frobenius_network(
            "out a\nspider N : a\nspider S : a", out_types=(N,)
        )
    with pytest.raises(DiagramError):
        frobenius_network("spider N : a", out_types=(N,))


def test_validate_catches_corruption():
    d = box("f", (N,), (S,))
    broken = Diagram(d.inputs, d.outputs, d.nodes, d.wires[:-1])
    with pytest.raises(DiagramError):
        broken.validate()


def test_node_and_port_space_lookups(rng):
    for _ in range(20):
        d = random_diagram(rng)
        for n in d.nodes:
            assert d.node(n.nid) is n
        for src, dst in d.wires:
            assert d.port_space(src) == d.port_space(dst)
    with pytest.raises(DiagramError, match="no node 99"):
        d.node(99)


def test_permutation_round_trip(store):
    wt = (N, S, Nd)
    perm = (2, 0, 1)
    d = permutation(wt, perm)
    inverse = [0] * len(perm)
    for i, p in enumerate(perm):
        inverse[p] = i
    back = compose(d, permutation(d.outputs, tuple(inverse)))
    back.validate()
    assert back.inputs == wt and back.outputs == wt
    nb = normalize(back)
    assert len(nb.nodes) == 0


def test_named_is_the_diagram_built_the_ordinary_way():
    # every shape of the benchmark's meanings, compiled and normalized:
    # naming a kept shape gives what the constructor gives from the named
    # nodes and the wires in any order
    lex = builtin_lexicon()
    seen = set()
    for _, parse, states in meaning_requests(lex, 1):
        compiled = compile_sentence(parse, states)
        meaning = normalize(compiled)
        # compiling and normalizing read only shapes and box names, so
        # neither built a node
        assert "nodes" not in compiled.__dict__ and "nodes" not in meaning.__dict__
        for d in (compiled, meaning):
            if d.shape in seen:
                continue
            seen.add(d.shape)
            ordinary = Diagram(d.inputs, d.outputs, d.nodes[::-1], d.wires[::-1])
            # compared and hashed before its nodes are read, and then
            # read as they were built, once
            nd = named(d.shape, d.box_names)
            assert type(nd) is Diagram
            assert nd == ordinary and hash(nd) == hash(ordinary)
            assert nd.nodes is nd.nodes
            assert nd.nodes == ordinary.nodes and nd.wires == ordinary.wires
            assert nd.shape == ordinary.shape and nd.box_names == ordinary.box_names
            assert [nd.node(n.nid) for n in nd.nodes] == list(nd.nodes)
            for fresh in (named(d.shape, d.box_names), nd):
                assert fresh.to_json() == ordinary.to_json()
                assert fresh.to_dot() == ordinary.to_dot()
                assert repr(fresh) == repr(ordinary)
            nd.validate()
    assert len(seen) == 12
