"""Numeric backend: the store, the evaluator, and its brute-force check."""

import math
import random

import numpy as np
import pytest

from lambeksem.diagram import (
    Diagram,
    DiagramError,
    Node,
    box,
    cap,
    compose,
    cup,
    frobenius_network,
    identity,
    spider,
    tensor_par,
)
from lambeksem.tensor import (
    MAX_TENSOR_ELEMENTS,
    TensorError,
    TensorStore,
    _eval_plan,
    _generator,
    closed_form_1d,
    eval_diagram,
    oracle_eval,
)
from conftest import random_diagram

N = ("N", False)
Nd = ("N", True)
S = ("S", False)


def test_store_is_deterministic():
    # frozen draws; these bytes must never change across runs or platforms
    s0 = TensorStore({"N": 2, "S": 2}, seed=0)
    np.testing.assert_array_equal(
        s0.get("Bob", ("N",)),
        np.array([0.2767138884007567, 0.21526283926332945]),
    )
    s7 = TensorStore({"N": 2, "S": 2}, seed=7)
    np.testing.assert_array_equal(
        s7.get("Bob", ("N",)),
        np.array([0.5925599268387697, 0.04509534888188382]),
    )
    again = TensorStore({"N": 2, "S": 2}, seed=0)
    np.testing.assert_array_equal(again.get("Bob", ("N",)), s0.get("Bob", ("N",)))


def test_generated_streams_are_pinned():
    # the first entries at seed 0 and past 2**64, as float.hex() of the
    # draws PCG64(sha256(name) ^ seed) made before the seeding was sped up
    pinned = {
        0: {"Bob": ["0x1.1b5ae2b41ef84p-2", "0x1.b8dbb93570dacp-3", "0x1.7c70921659180p-7"],
            "rejected": ["0x1.06d8a9a05c8e4p-1", "0x1.57626685f9fb2p-1",
                         "0x1.cb1d42748ee30p-5"],
            "without": ["0x1.78c997e57fbebp-1", "0x1.86750eceb23e8p-3",
                        "0x1.d8e667aae7e5ep-2"]},
        2**64 + 12345: {
            "Bob": ["0x1.d10b1689da00cp-2", "0x1.e6f364589c580p-7", "0x1.78134e4827764p-2"],
            "rejected": ["0x1.6385ad00f2cb0p-4", "0x1.6b69f683972c0p-3",
                         "0x1.be081b2a25818p-4"],
            "without": ["0x1.ac7f453927f8ap-1", "0x1.133fd1aac502ap-2",
                        "0x1.f293649cb28b1p-1"]},
    }
    spaces = {"Bob": ("N",), "rejected": ("N", "S", "N"), "without": ("S", "S")}
    for seed, firsts in pinned.items():
        store = TensorStore({"N": 3, "S": 2}, seed=seed)
        for name, hexes in firsts.items():
            drawn = store.get(name, spaces[name]).ravel()[:3]
            assert [float(x).hex() for x in drawn] == hexes, (seed, name)
    drawn = TensorStore({"N": 3}, seed=2**300 + 1).get("papers", ("N",))
    assert [float(x).hex() for x in drawn] == [
        "0x1.b07f2de4be0ccp-1", "0x1.56ea01f5203c4p-2", "0x1.034c66a0bf85ep-1"]


def test_the_generator_is_pcg64_of_the_key():
    # numpy reads an integer seed as its 32-bit words: keys of zero, one
    # and several words, past the pool's four or not
    for key in (0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**255, 2**256 - 1, 3 << 300):
        want = np.random.Generator(np.random.PCG64(key)).random(5)
        assert _generator(key).random(5).tobytes() == want.tobytes(), key


def test_different_names_and_seeds_differ():
    s = TensorStore({"N": 4}, seed=0)
    assert not np.array_equal(s.get("alice", ("N",)), s.get("bob", ("N",)))
    other = TensorStore({"N": 4}, seed=1)
    assert not np.array_equal(s.get("alice", ("N",)), other.get("alice", ("N",)))


def test_negative_seed_is_refused():
    # a negative seed would make a negative generator key, which numpy
    # refuses only at the first draw, with an error of its own
    with pytest.raises(TensorError, match="seed must be 0 or more, not -1"):
        TensorStore({"N": 2}, seed=-1)
    doc = '{"schema": "tensors/1", "dims": {"N": 2}, "seed": -7, "tensors": {}}'
    with pytest.raises(TensorError, match="not -7"):
        TensorStore.from_json(doc)
    assert TensorStore({"N": 2}, seed=0).seed == 0


def test_store_shape_discipline():
    s = TensorStore({"N": 3, "S": 2})
    arr = s.get("f", ("N", "S"))
    assert arr.shape == (3, 2)
    with pytest.raises(TensorError):
        s.get("f", ("S", "N"))
    with pytest.raises(TensorError):
        s.get("g", ("Q",))
    with pytest.raises(TensorError):
        s.set("h", ("N",), np.zeros((2,)))


def test_store_json_round_trip_is_bit_exact():
    s = TensorStore({"N": 3, "S": 2}, seed=9)
    s.get("w", ("N", "S"))
    s.get("v", ("S",))
    back = TensorStore.from_json(s.to_json())
    assert back.dims == s.dims and back.seed == s.seed
    for name, t in s.tensors.items():
        np.testing.assert_array_equal(back.get(name, t.spaces), t.array)
    assert back.to_json() == s.to_json()


def test_strict_store_refuses_to_generate():
    s = TensorStore({"N": 2}, generate=False)
    with pytest.raises(TensorError, match="not in the store"):
        s.get("missing", ("N",))
    s.set("present", ("N",), np.array([1.0, 2.0]))
    np.testing.assert_array_equal(s.get("present", ("N",)), [1.0, 2.0])


def test_spider_tensor_semantics():
    # a spider is the generalized Kronecker delta: copy when fanning out,
    # pointwise multiply when fanning in
    st = TensorStore({"N": 3}, seed=2)
    v = st.get("v", ("N",))
    w = st.get("w", ("N",))
    word_v = box("v", (), (N,))
    word_w = box("w", (), (N,))
    merged = compose(tensor_par(word_v, word_w), spider("N", 2, 1))
    out = eval_diagram(merged, st)
    np.testing.assert_allclose(out.array, v * w, rtol=1e-15)
    copied = eval_diagram(compose(word_v, spider("N", 1, 2)), st)
    np.testing.assert_allclose(copied.array, np.diag(v), rtol=0, atol=0)


def test_cup_cap_semantics():
    st = TensorStore({"N": 4}, seed=3)
    v = st.get("v", ("N",))
    w = st.get("w", ("N",))
    paired = compose(
        tensor_par(box("v", (), (N,)), box("w", (), (Nd,))), cup("N")
    )
    out = eval_diagram(paired, st)
    assert out.spaces == ()
    np.testing.assert_allclose(out.array, np.dot(v, w), rtol=1e-15)
    loop = compose(cap("N"), cup("N"))
    val = eval_diagram(loop, st)
    assert val.spaces == ()
    np.testing.assert_allclose(val.array, 4.0, rtol=0)


def test_eval_matches_oracle_on_random_diagrams():
    rng = random.Random(13)
    st = TensorStore({"N": 3, "S": 2}, seed=17)
    for i in range(80):
        d = random_diagram(rng, max_nodes=4, tag=f"o{i}")
        fast = eval_diagram(d, st)
        slow = oracle_eval(d, st)
        assert fast.spaces == slow.spaces
        np.testing.assert_allclose(fast.array, slow.array, rtol=1e-9, atol=1e-12)


def test_oracle_budget():
    st = TensorStore({"N": 3}, seed=1)
    d = box("big", (), (N,) * 8)
    with pytest.raises(TensorError, match="budget|enumerate"):
        oracle_eval(d, st, budget=10)


def test_closed_form_with_unit_vectors():
    # all-ones word vectors and matrices reduce the closed form to pure
    # counting, which is checkable by hand
    st = TensorStore({"N": 2, "S": 2}, generate=False)
    ones = np.ones
    st.set("papers", ("N",), ones(2))
    st.set("Bob", ("N",), ones(2))
    st.set("rejected", ("N", "S", "N"), ones((2, 2, 2)))
    st.set("reading", ("N", "S", "N"), ones((2, 2, 2)))
    out = closed_form_1d(st)
    assert out.spaces == ("N",)
    np.testing.assert_allclose(out.array, [4.0, 4.0], rtol=0)


def test_closed_form_seeded_reference():
    st = TensorStore({"N": 4, "S": 3}, seed=7)
    out = closed_form_1d(st)
    assert out.spaces == ("N",)
    again = closed_form_1d(TensorStore({"N": 4, "S": 3}, seed=7))
    np.testing.assert_array_equal(out.array, again.array)


def test_missing_dimension_is_an_error():
    st = TensorStore({"N": 2})
    d = box("f", (), (S,))
    with pytest.raises(TensorError):
        eval_diagram(d, st)


def test_index_budget_is_reported():
    st = TensorStore({"N": 2}, seed=0)
    d = box("b0", (), (N,) * 2)
    for i in range(30):
        d = tensor_par(d, box(f"b{i + 1}", (), (N,) * 2))
    # on every call: errors are never kept
    for _ in range(2):
        with pytest.raises(TensorError, match="52"):
            eval_diagram(d, st)
    assert _eval_plan.cache_info().currsize == 0


def test_scalar_boxes_match_the_oracle():
    st = TensorStore({"N": 2, "S": 2}, seed=3)
    c, e = box("c", (), ()), box("e", (), ())
    for d in (c, tensor_par(c, e), identity(())):
        np.testing.assert_array_equal(eval_diagram(d, st).array, oracle_eval(d, st).array)
    assert eval_diagram(tensor_par(c, e), st).array == pytest.approx(0.159, abs=5e-4)
    assert eval_diagram(identity(()), st).array == 1.0


def test_a_missing_tensor_is_an_error_on_every_call():
    st = TensorStore({"N": 2}, generate=False)
    d = box("absent", (), (N,))
    for _ in range(2):
        with pytest.raises(TensorError, match="not in the store"):
            eval_diagram(d, st)
    st.set("absent", ("N",), np.array([2.0, 3.0]))
    np.testing.assert_array_equal(eval_diagram(d, st).array, [2.0, 3.0])


def test_an_oversized_contraction_is_refused_before_any_fetch():
    # strict empty stores: a fetch would raise "not in the store", so a
    # size error shows that nothing was fetched or allocated; at one of
    # these dims, diagram 10 of this stream has 536,870,912 entries
    rng = random.Random(29)
    refused = []
    for k in range(20):
        d = random_diagram(rng, max_nodes=5)
        boundary = [s for s, _ in d.inputs + d.outputs]
        for dims in ({"N": 16, "S": 2}, {"N": 2, "S": 16}):
            store = TensorStore(dims, generate=False)
            try:
                eval_diagram(d, store)
            except TensorError as err:
                if "not in the store" not in str(err):
                    assert f"has more than {MAX_TENSOR_ELEMENTS} entries" in str(err)
                    refused.append((k, dims["N"]))
            if math.prod(store.shape(boundary)) > MAX_TENSOR_ELEMENTS:
                assert refused[-1:] == [(k, dims["N"])]
    assert refused == [(10, 2), (13, 16)]


def test_an_oversized_copy_operand_is_refused():
    # the boundary visits one class twice, so the evaluator would build
    # an identity matrix of dim ** 2 entries
    st = TensorStore({"N": 2**13}, generate=False)
    with pytest.raises(TensorError, match=r"copy operand over 'N' of shape \(8192, 8192\)"):
        eval_diagram(spider("N", 0, 2), st)
    assert eval_diagram(spider("N", 0, 2), TensorStore({"N": 3})).array.tolist() == np.eye(3).tolist()


def test_network_evaluation_shapes():
    st = TensorStore({"N": 3, "S": 2}, seed=5)
    d = frobenius_network(
        """
        out h o gap sv
        spider N : h o gap
        spider S : sv
        """,
        out_types=(N, N, Nd, S),
    )
    out = eval_diagram(d, st)
    assert out.spaces == ("N", "N", "N", "S")
    assert out.array.shape == (3, 3, 3, 2)
    # the triple spider leg is a copied basis: nonzero only on the diagonal
    for i in range(3):
        for j in range(3):
            if i != j:
                assert np.all(out.array[i, j] == 0)


def test_a_kept_shape_still_checks_every_box_name():
    d = compose(box("a", (), (N,)), box("f", (N,), (S,)))
    st = TensorStore({"N": 2, "S": 2}, seed=3)
    eval_diagram(d, st)
    misses = _eval_plan.cache_info().misses
    nodes = tuple(Node(n.nid, n.kind, n.ins, n.outs, "" if n.nid else n.name)
                  for n in d.nodes)
    unnamed = Diagram(d.inputs, d.outputs, nodes, d.wires)
    assert unnamed.shape == d.shape
    for _ in range(2):
        with pytest.raises(DiagramError, match="box node needs a name"):
            eval_diagram(unnamed, st)
    assert _eval_plan.cache_info().misses == misses
    # the oracle, the independent check, validates the whole diagram
    with pytest.raises(DiagramError, match="box node needs a name"):
        oracle_eval(unnamed, st)


def test_a_broken_shape_raises_on_every_call_and_is_not_kept():
    st = TensorStore({"N": 2}, seed=3)
    dangling = Diagram((), (N,), (Node(0, "box", (), ("N", "N"), "a"),),
                       ((("o", 0, 0), ("O", 0)),))
    duplicate = Diagram((), (N, N), (Node(0, "box", (), ("N",), "a"),
                                     Node(0, "box", (), ("N",), "b")),
                        ((("o", 0, 0), ("O", 0)), (("o", 0, 0), ("O", 1))))
    for d, message in ((dangling, "dangling ports"), (duplicate, "duplicate node id 0")):
        before = _eval_plan.cache_info()
        for _ in range(2):
            with pytest.raises(DiagramError, match=message):
                eval_diagram(d, st)
        after = _eval_plan.cache_info()
        # each call plans the shape again, and none keeps it
        assert (after.hits, after.misses) == (before.hits, before.misses + 2)
        assert after.currsize == before.currsize
        with pytest.raises(DiagramError, match=message):
            oracle_eval(d, st)
