"""Numeric evaluation of string diagrams.

Two independent routes are provided on purpose.  ``eval_diagram``
collapses spiders, cups, caps and swaps into shared-index classes and
contracts the rest pairwise, with the steps ``numpy.einsum`` takes
along a kept path, each bounded before it allocates.  ``oracle_eval``
enumerates every assignment of basis indices to wires and sums the
products of node entries; it is slow and dumb, which is exactly what a
cross-check should be.  The two must agree to float precision on any
diagram small enough for the oracle.

Tensors live in named spaces.  A store maps box names to arrays and
fills missing entries deterministically from its seed, so that a
diagram, a store seed, and a dimension table fully determine a value.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .diagram import Diagram, DiagramError, index_classes
from .formula import SEARCH_CACHE_SIZE


class TensorError(ValueError):
    pass


# The most entries a store generates for one tensor, and the most an
# evaluation's operands and intermediates may have (128 MiB of float64).
MAX_TENSOR_ELEMENTS = 2**24


@dataclass
class TensorValue:
    """An array with one named space per axis."""

    spaces: tuple[str, ...]
    array: np.ndarray

    def __post_init__(self):
        self.spaces = tuple(self.spaces)
        self.array = np.asarray(self.array, dtype=np.float64)
        if self.array.ndim != len(self.spaces):
            raise TensorError(
                f"rank {self.array.ndim} array labelled with {len(self.spaces)} spaces"
            )


class TensorStore:
    """Named tensors over a fixed dimension table.

    Lookups for absent names are filled with uniform [0, 1) samples from
    a PCG64 stream keyed by the store seed xor the SHA-256 of the name,
    so the same (dims, seed, name, spaces) always yields the same data.
    With ``generate=False`` absent names raise instead, for stores whose
    tensors are meant to be supplied explicitly.
    """

    def __init__(self, dims: dict[str, int], seed: int = 0, tensors=None, generate: bool = True):
        self.dims = dict(dims)
        for space, size in self.dims.items():
            if size < 1:
                raise TensorError(f"space {space!r} needs a dimension of 1 or more, not {size}")
        self.seed = int(seed)
        if self.seed < 0:
            raise TensorError(f"tensor store seed must be 0 or more, not {self.seed}")
        self.generate = bool(generate)
        self.tensors: dict[str, TensorValue] = {}
        for name, t in (tensors or {}).items():
            self.set(name, t.spaces, t.array)

    def dim(self, space: str) -> int:
        return self.shape((space,))[0]

    def shape(self, spaces) -> tuple[int, ...]:
        try:
            return tuple([self.dims[s] for s in spaces])
        except KeyError as err:
            raise TensorError(f"no dimension declared for space {err.args[0]!r}") from None

    def set(self, name: str, spaces, array) -> None:
        t = TensorValue(tuple(spaces), array)
        if t.array.shape != self.shape(t.spaces):
            raise TensorError(
                f"tensor {name!r}: shape {t.array.shape} does not match "
                f"spaces {t.spaces} under dims {self.dims}"
            )
        self.tensors[name] = t

    def get(self, name: str, spaces) -> np.ndarray:
        spaces = tuple(spaces)
        if name in self.tensors:
            t = self.tensors[name]
            if t.spaces != spaces:
                raise TensorError(
                    f"tensor {name!r} stored over {t.spaces}, requested {spaces}"
                )
            return t.array
        if not self.generate:
            raise TensorError(f"tensor {name!r} is not in the store")
        shape = self.shape(spaces)
        if math.prod(shape) > MAX_TENSOR_ELEMENTS:
            raise TensorError(
                f"tensor {name!r} of shape {shape} has more than "
                f"{MAX_TENSOR_ELEMENTS} entries"
            )
        digest = hashlib.sha256(name.encode("utf-8")).digest()
        arr = _generator(int.from_bytes(digest, "big") ^ self.seed).random(shape)
        # a float64 array of the spaces' rank: stored as it is, without
        # TensorValue's conversion and check
        t = self.tensors[name] = object.__new__(TensorValue)
        t.spaces, t.array = spaces, arr
        return arr

    # -- serialization

    def to_json(self) -> str:
        doc = {
            "schema": "tensors/1",
            "dims": self.dims,
            "seed": self.seed,
            "tensors": {
                name: {"spaces": list(t.spaces), "data": t.array.ravel().tolist()}
                for name, t in sorted(self.tensors.items())
            },
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str, generate: bool = True) -> "TensorStore":
        doc = json.loads(text)
        if not isinstance(doc, dict) or doc.get("schema") != "tensors/1":
            raise TensorError("unsupported tensor store schema")
        dims, seed, tensors = doc.get("dims"), doc.get("seed", 0), doc.get("tensors", {})
        if not isinstance(dims, dict) or not all(type(d) is int for d in dims.values()):
            raise TensorError("tensor store needs 'dims' mapping each space to a size")
        if type(seed) is not int:
            raise TensorError("tensor store 'seed' must be an integer")
        if not isinstance(tensors, dict):
            raise TensorError("tensor store 'tensors' must map names to entries")
        store = cls(dims, seed, generate=generate)
        for name, entry in tensors.items():
            spaces = entry.get("spaces") if isinstance(entry, dict) else None
            if not (isinstance(spaces, list) and all(isinstance(s, str) for s in spaces)
                    and "data" in entry):
                raise TensorError(f"tensor {name!r} needs a 'spaces' list of names and 'data'")
            try:
                shape = store.shape(spaces)
            except TensorError as err:
                raise TensorError(f"tensor {name!r}: {err}") from None
            arr = _entries(entry["data"])
            if arr is None:
                raise TensorError(f"tensor {name!r}: 'data' must be a list of finite numbers")
            if arr.size != math.prod(shape):
                raise TensorError(
                    f"tensor {name!r}: 'data' has {arr.size} entries, but spaces "
                    f"{tuple(spaces)} under dims {store.dims} need {math.prod(shape)}"
                )
            store.set(name, spaces, arr.reshape(shape))
        return store

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path, generate: bool = True) -> "TensorStore":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(fh.read(), generate=generate)


def _generator(key: int) -> np.random.Generator:
    """``Generator(PCG64(key))``, seeded faster.  A seed sequence reads
    an integer as its 32-bit words, least significant first; given those
    words as an array, it mixes the same entropy without converting them
    one by one in Python."""
    words = (key.bit_length() + 31) // 32
    entropy = np.frombuffer(key.to_bytes(4 * words, "little"), dtype="<u4")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def _entries(data) -> np.ndarray | None:
    """The flat list of finite numbers ``data`` as an array, or None."""
    if not (isinstance(data, list) and all(type(x) in (int, float) for x in data)):
        return None
    try:
        arr = np.array(data, dtype=np.float64)
    except OverflowError:  # an integer past the float range
        return None
    return arr if np.isfinite(arr).all() else None


# -- einsum evaluation


def eval_diagram(d: Diagram, store: TensorStore) -> TensorValue:
    """Contract ``d`` against ``store``.

    The result covers the boundary, inputs first then outputs, with dual
    flags dropped (every space is modelled as self-dual).

    Everything but the tensors depends on the shape of ``d`` and on the
    store's dimensions: :func:`_eval_plan` checks the structure of a
    shape and keeps its operands and contraction path, and
    :func:`_eval_program` the pairwise steps numpy's
    ``einsum(optimize=path)`` would take, per shape and dimension order.
    Whether an operand or a step's result has more than
    ``MAX_TENSOR_ELEMENTS`` entries is checked once per plan and
    dimensions, and kept with the program (:func:`_sized_program`).  A
    call checks that every box of ``d`` has a name, and raises a kept
    failing bound before it fetches anything.  Then it fetches the box
    tensors, builds the copy and ones operands and runs the steps at the
    reshape sizes kept with the program.
    """
    out_spaces = tuple(s for s, _ in d.inputs) + tuple(s for s, _ in d.outputs)
    plan = _eval_plan(d.shape)
    d.check_names()
    scalar = 1.0
    for space in plan.loops:
        scalar *= store.dim(space)
    if not plan.terms:
        return TensorValue(out_spaces, np.array(scalar))
    dims = store.shape(plan.spaces)
    program, sizes, too_big = _sized_program(plan, dims)
    if too_big is not None:
        what, shape = too_big
        if type(what) is int:
            what = f"tensor {d.box_names[what]!r}"
        raise TensorError(
            f"{what} of shape {shape} has more than {MAX_TENSOR_ELEMENTS} entries"
        )
    operands = [store.get(name, spaces) for name, spaces in zip(d.box_names, plan.boxes)]
    operands += [np.eye(dims[a]) for a in plan.copies]
    operands += [np.ones(dims[a]) for a in plan.ones]
    for step, size in zip(program.steps, sizes):
        operands.append(step.run([operands.pop(p) for p in step.take], size))
    return TensorValue(out_spaces, operands[0] * scalar)


# The size every space takes when a plan chooses its contraction order.
PATH_DIM = 2

# numpy's einsum letters for labels 0..51, in label order.
_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True, eq=False)
class _Plan:
    """How a shape contracts, at any dimensions.

    ``spaces`` are the spaces the operands use, and an axis is a position
    in it.  The operands are one box tensor over each of ``boxes`` in
    node order, then an identity matrix on each of ``copies`` and a ones
    vector on each of ``ones``.  ``terms`` holds each operand's einsum
    labels, ``out`` the output's, and ``axes`` the axis of each label.
    ``loops`` are the spaces of the closed loops, and ``path`` the
    einsum path over the operands.  A plan compares by identity: it
    stands for the shape :func:`_eval_plan` keeps it under.
    """

    spaces: tuple[str, ...]
    boxes: tuple[tuple[str, ...], ...]
    copies: tuple[int, ...]
    ones: tuple[int, ...]
    terms: tuple[tuple[int, ...], ...]
    out: tuple[int, ...]
    axes: tuple[int, ...]
    loops: tuple[str, ...]
    path: tuple | None


@functools.lru_cache(maxsize=SEARCH_CACHE_SIZE)
def _eval_plan(shape: Diagram) -> _Plan:
    """The contraction plan of a shape.

    Spiders, cups, caps and swaps collapse into shared-index classes.
    A class the boundary visits twice gets an explicit copy operand,
    since einsum cannot repeat an output label; an output class no box
    touches gets a ones operand; a class touching nothing visible is a
    closed loop, a scalar factor of its dimension.  The path is numpy's
    greedy choice with every space at ``PATH_DIM``, so it is a function
    of the shape alone, whatever the dimensions or the order of calls.
    A shape that fails :meth:`Diagram.check_structure` raises, and is
    not kept.
    """
    shape.check_structure()
    port_class, spaces = index_classes(shape)
    boundary_ports = [("I", k) for k in range(len(shape.inputs))]
    boundary_ports += [("O", k) for k in range(len(shape.outputs))]
    boundary_classes = [port_class[p] for p in boundary_ports]

    boxes: list[tuple[tuple[str, ...], list[int]]] = []
    for n in shape.nodes:
        if n.kind != "box":
            continue
        idx = [port_class[("i", n.nid, k)] for k in range(len(n.ins))]
        idx += [port_class[("o", n.nid, k)] for k in range(len(n.outs))]
        boxes.append((n.ins + n.outs, idx))

    covered = {c for _, idx in boxes for c in idx}
    copies: list[tuple[str, list[int]]] = []
    out_idx: list[int] = []
    seen_out: set[int] = set()
    for c in boundary_classes:
        if c not in seen_out:
            seen_out.add(c)
            out_idx.append(c)
            continue
        # the copy's second label is a new class of the same space
        copies.append((spaces[c], [c, len(spaces)]))
        covered.update((c, len(spaces)))
        out_idx.append(len(spaces))
        spaces.append(spaces[c])
    ones: list[tuple[str, list[int]]] = []
    for c in seen_out:
        if c not in covered:
            ones.append((spaces[c], [c]))
            covered.add(c)
    loops = tuple(space for c, space in enumerate(spaces) if c not in covered)

    operands = boxes + copies + ones
    if not operands:
        return _Plan((), (), (), (), (), (), (), loops, None)
    labels = sorted({c for _, idx in operands for c in idx})
    if len(labels) > 52:
        raise TensorError("diagram needs more than 52 einsum indices")
    dense = {c: i for i, c in enumerate(labels)}
    used = sorted({spaces[c] for c in labels})
    axis = {space: a for a, space in enumerate(used)}
    terms = tuple(tuple(dense[c] for c in idx) for _, idx in operands)
    out = tuple(dense[c] for c in out_idx)
    sized: list = []
    for term in terms:
        sized += (np.empty((PATH_DIM,) * len(term)), term)
    path, _ = np.einsum_path(*sized, out, optimize="greedy")
    return _Plan(
        tuple(used),
        tuple(sp for sp, _ in boxes),
        tuple(axis[sp] for sp, _ in copies),
        tuple(axis[sp] for sp, _ in ones),
        terms,
        out,
        tuple(axis[spaces[c]] for c in labels),
        loops,
        tuple(path),
    )


@dataclass(frozen=True)
class _Step:
    """One step of a contraction program: pop the operands at ``take``
    and push what the rest computes from them.  With ``equation`` set,
    that is one einsum call over all of them.  Otherwise it is numpy's
    pairwise one: prepare each side by its einsum equation (diagonals,
    sums) or, where numpy's equation only reorders the axes, by that
    transpose, which einsum returns as a view; reshape it to the fused
    sizes of its label groups, multiply the two by ``matmul``, or
    elementwise when nothing is contracted, then unfuse and permute the
    result.  A group is a tuple of axes, and fuses to the product of
    their dimensions."""

    take: tuple[int, ...]
    equation: str | None = None
    prepare: tuple = (None, None)
    fuse: tuple = (None, None)
    matmul: bool = False
    unfuse: tuple | None = None
    perm: tuple[int, ...] | None = None

    def sizes(self, dims: tuple[int, ...]) -> tuple:
        """The shapes the step reshapes to at ``dims``: each side's
        fused sizes, then the result's unfused ones, or None for no
        reshape."""
        return tuple(None if groups is None else
                     tuple([math.prod([dims[a] for a in g]) for g in groups])
                     for groups in (*self.fuse, self.unfuse))

    def run(self, ops: list, sizes: tuple) -> np.ndarray:
        """The step on ``ops`` at the ``sizes`` of :meth:`sizes`."""
        if self.equation is not None:
            return np.einsum(self.equation, *ops)
        for k, prep in enumerate(self.prepare):
            if type(prep) is str:
                ops[k] = np.einsum(prep, ops[k])
            elif prep is not None:
                ops[k] = ops[k].transpose(prep)
            if sizes[k] is not None:
                ops[k] = ops[k].reshape(sizes[k])
        if not self.matmul:
            return np.multiply(*ops)
        value = np.matmul(*ops)
        if sizes[2] is not None:
            value = value.reshape(sizes[2])
        if self.perm is not None:
            value = value.transpose(self.perm)
        return value


@dataclass(frozen=True)
class _Program:
    """The steps that contract a plan's operands, and what a call bounds
    before it fetches them: (what, axes) for each operand, the box
    operands by their position, and for each step's result."""

    bounds: tuple
    steps: tuple[_Step, ...]


@functools.lru_cache(maxsize=SEARCH_CACHE_SIZE)
def _sized_program(plan: _Plan, dims: tuple[int, ...]) -> tuple:
    """The program of ``plan`` at the dimensions ``dims`` of its spaces,
    the reshape sizes of each of its steps there (:meth:`_Step.sizes`),
    and the first of its bounds over ``MAX_TENSOR_ELEMENTS`` entries, as
    (what, shape), or None.  All three are functions of the plan and the
    dimensions alone, so they are kept per pair, and a call that fails
    its bound finds the failure here again."""
    distinct = sorted({1, *dims})
    program = _eval_program(plan, tuple(distinct.index(n) for n in dims))
    sizes = tuple(step.sizes(dims) for step in program.steps)
    for what, axes in program.bounds:
        shape = tuple(dims[a] for a in axes)
        if math.prod(shape) > MAX_TENSOR_ELEMENTS:
            return program, sizes, (what, shape)
    return program, sizes, None


@functools.lru_cache(maxsize=SEARCH_CACHE_SIZE)
def _eval_program(plan: _Plan, order: tuple[int, ...]) -> _Program:
    """The steps numpy's ``einsum(..., optimize=path)`` takes along a
    plan's path, at any dimensions of ``order``.

    ``order`` ranks each space of the plan among the distinct dimensions
    and 1, so a rank of 0 is a dimension of 1.  numpy's steps depend on
    the dimensions through that alone: it orders each intermediate's
    labels by (dimension, label), and its pairwise split drops the
    labels of size 1.  So, step for step, the program makes the calls
    that einsum makes, on the same arrays, and the value is bitwise
    einsum's.  That is numpy 2.4's einsum, which runs each pairwise step
    by batched matmul; an older one contracts pairs by ``tensordot``,
    and agrees with the program to rounding.
    """
    rank = [order[a] for a in plan.axes]
    bounds: list = [(k, tuple(plan.axes[c] for c in term))
                    for k, term in enumerate(plan.terms[:len(plan.boxes)])]
    bounds += [(f"the copy operand over {plan.spaces[a]!r}", (a, a)) for a in plan.copies]
    bounds += [(f"the ones operand over {plan.spaces[a]!r}", (a,)) for a in plan.ones]
    terms = list(plan.terms)
    steps = []
    for n, take in enumerate(plan.path[1:], 1):
        take = tuple(sorted(take, reverse=True))
        ins = [terms.pop(p) for p in take]
        last = n == len(plan.path) - 1
        if last:
            result = plan.out
        else:
            kept = set(plan.out).union(*terms)
            result = tuple(sorted(set().union(*ins) & kept, key=lambda c: (rank[c], c)))
        terms.append(result)
        what = "the value" if last else f"contraction step {n}'s result"
        bounds.append((what, tuple(plan.axes[c] for c in result)))
        if len(ins) == 2:
            steps.append(_pair_step(take, *ins, result, rank, plan.axes))
        else:
            steps.append(_Step(take, ",".join(map(_letters, ins)) + "->" + _letters(result)))
    return _Program(tuple(bounds), tuple(steps))


def _letters(term) -> str:
    return "".join(_LETTERS[c] for c in term)


def _pair_step(take, a, b, out, rank, axes) -> _Step:
    """numpy's ``bmm_einsum`` split of ``a,b->out``: labels of size 1
    are left to the prepare equations, and the others are batch, kept
    or contracted as they appear on both sides and the output, on one
    side and the output, or on both sides only."""
    left = [c for c in dict.fromkeys(a) if rank[c]]
    right = [c for c in dict.fromkeys(b) if rank[c]]
    batch = [c for c in left if c in right and c in out]
    summed = [c for c in left if c in right and c not in out]
    keep_a = [c for c in left if c not in right and c in out]
    keep_b = [c for c in right if c not in left and c in out]

    def prepare(term, want):
        if tuple(want) == term:
            return None
        if len(want) == len(set(term)) == len(term):
            return tuple(term.index(c) for c in want)
        return f"{_letters(term)}->{_letters(want)}"

    def fused(groups):
        if all(len(g) == 1 for g in groups):
            return None
        return tuple(tuple(axes[c] for c in g) for g in groups)

    if not summed:
        # broadcast multiply: each side in output order, size 1 where it
        # lacks a label
        return _Step(
            take,
            prepare=(prepare(a, [c for c in out if c in a]),
                     prepare(b, [c for c in out if c in b])),
            fuse=tuple(tuple((axes[c],) if c in t else () for c in out) for t in (a, b)),
        )
    groups = [(keep_a, summed), (summed, keep_b), (keep_a, keep_b)]
    if batch:
        groups = [(batch, *g) for g in groups]
    units = [c for c in out if not rank[c]]
    produced = units + batch + keep_a + keep_b
    unfuse = None
    if units or any(len(g) != 1 for g in groups[2]):
        unfuse = ((),) * len(units) + tuple((axes[c],) for g in groups[2] for c in g)
    return _Step(
        take,
        prepare=(prepare(a, batch + keep_a + summed), prepare(b, batch + summed + keep_b)),
        fuse=(fused(groups[0]), fused(groups[1])),
        matmul=True,
        unfuse=unfuse,
        perm=None if tuple(produced) == out else tuple(produced.index(c) for c in out),
    )


# -- brute-force oracle


def _node_tensor(n, store: TensorStore) -> np.ndarray:
    spaces = n.ins + n.outs
    shape = store.shape(spaces)
    match n.kind:
        case "box":
            return store.get(n.name, spaces)
        case "cup" | "cap":
            dim = shape[0]
            arr = np.zeros(shape)
            for i in range(dim):
                arr[i, i] = 1.0
            return arr
        case "swap":
            arr = np.zeros(shape)
            for a in range(shape[0]):
                for b in range(shape[1]):
                    arr[a, b, b, a] = 1.0
            return arr
        case "spider":
            dim = shape[0]
            arr = np.zeros(shape)
            for i in range(dim):
                arr[(i,) * len(shape)] = 1.0
            return arr
    raise DiagramError(f"unknown node kind {n.kind!r}")


def oracle_eval(d: Diagram, store: TensorStore, budget: int = 10**8) -> TensorValue:
    """Sum over every assignment of basis indices to wires.

    Exponential in the wire count; refuses to start above ``budget``
    enumerated terms.
    """
    d.validate()
    out_spaces = tuple(s for s, _ in d.inputs) + tuple(s for s, _ in d.outputs)
    wire_dims = [store.dim(d.port_space(prod)) for prod, _ in d.wires]
    total = math.prod(wire_dims, start=1)
    if total > budget:
        raise TensorError(f"oracle would enumerate {total} terms, over {budget}")

    port_wire: dict = {}
    for pos, (prod, cons) in enumerate(d.wires):
        port_wire[prod] = pos
        port_wire[cons] = pos
    node_tensors = [(_node_tensor(n, store), n) for n in d.nodes]
    node_ports = []
    for arr, n in node_tensors:
        ports = [("i", n.nid, k) for k in range(len(n.ins))]
        ports += [("o", n.nid, k) for k in range(len(n.outs))]
        node_ports.append((arr, [port_wire[p] for p in ports]))
    boundary = [("I", k) for k in range(len(d.inputs))]
    boundary += [("O", k) for k in range(len(d.outputs))]
    boundary_wires = [port_wire[p] for p in boundary]

    result = np.zeros(store.shape(out_spaces))
    assignment = [0] * len(d.wires)

    def rec(pos):
        if pos == len(assignment):
            term = 1.0
            for arr, wires in node_ports:
                term *= arr[tuple(assignment[w] for w in wires)]
                if term == 0.0:
                    return
            result[tuple(assignment[w] for w in boundary_wires)] += term
            return
        for i in range(wire_dims[pos]):
            assignment[pos] = i
            rec(pos + 1)

    rec(0)
    return TensorValue(out_spaces, result if out_spaces else np.array(result[()]))


def closed_form_1d(
    store: TensorStore,
    names: tuple[str, str, str, str] = ("papers", "Bob", "rejected", "reading"),
) -> TensorValue:
    """Gapped relative clause meaning, written out with plain loops.

    For a head noun, a subject, a transitive verb cube and an adjunct
    gerund cube (the "(without) reading" content), the clause meaning is

        head ⊙ (collapse_S ⊗ id)(subject^T × (verb ⊙ gerund))

    pointwise product of the verb and gerund cubes, contraction with the
    subject vector, summation over the sentence space, then pointwise
    product with the head noun vector.  Returns a vector in N.
    """
    head_n, subj_n, verb_n, ger_n = names
    n_dim, s_dim = store.dim("N"), store.dim("S")
    head = store.get(head_n, ("N",))
    subj = store.get(subj_n, ("N",))
    verb = store.get(verb_n, ("N", "S", "N"))
    ger = store.get(ger_n, ("N", "S", "N"))

    out = np.zeros(n_dim)
    for obj in range(n_dim):
        acc = 0.0
        for s in range(s_dim):
            for sub in range(n_dim):
                acc += subj[sub] * verb[sub, s, obj] * ger[sub, s, obj]
        out[obj] = head[obj] * acc
    return TensorValue(("N",), out)
