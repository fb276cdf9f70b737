"""Numeric evaluation of string diagrams.

Two independent routes are provided on purpose.  ``eval_diagram``
contracts a diagram with ``numpy.einsum`` after collapsing spiders,
cups, caps and swaps into shared-index classes.  ``oracle_eval``
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
from .prover import SEARCH_CACHE_SIZE


class TensorError(ValueError):
    pass


# The most entries a store generates for one tensor (128 MiB of float64).
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
        try:
            return self.dims[space]
        except KeyError:
            raise TensorError(f"no dimension declared for space {space!r}") from None

    def shape(self, spaces) -> tuple[int, ...]:
        return tuple(self.dim(s) for s in spaces)

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
        digest = hashlib.sha256(name.encode("utf-8")).digest()
        key = int.from_bytes(digest, "big") ^ self.seed
        shape = self.shape(spaces)
        if math.prod(shape) > MAX_TENSOR_ELEMENTS:
            raise TensorError(
                f"tensor {name!r} of shape {shape} has more than "
                f"{MAX_TENSOR_ELEMENTS} entries"
            )
        rng = np.random.Generator(np.random.PCG64(key))
        arr = rng.random(shape)
        self.set(name, spaces, arr)
        return self.tensors[name].array

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
            if not (isinstance(entry, dict) and isinstance(entry.get("spaces"), list)
                    and "data" in entry):
                raise TensorError(f"tensor {name!r} needs a 'spaces' list and 'data'")
            spaces = tuple(entry["spaces"])
            arr = np.array(entry["data"], dtype=np.float64).reshape(store.shape(spaces))
            store.set(name, spaces, arr)
        return store

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path, generate: bool = True) -> "TensorStore":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(fh.read(), generate=generate)


# -- einsum evaluation


def eval_diagram(d: Diagram, store: TensorStore) -> TensorValue:
    """Contract ``d`` against ``store``.

    The result covers the boundary, inputs first then outputs, with dual
    flags dropped (every space is modelled as self-dual).

    Everything but the tensors depends on the shape of ``d`` alone, and
    :func:`_eval_plan` keeps it per shape, the contraction order
    included.  A call validates ``d``, fetches its box tensors and the
    copy and ones operands at the store's dimensions, and makes one
    ``np.einsum`` call along the kept path.
    """
    d.validate()
    out_spaces = tuple(s for s, _ in d.inputs) + tuple(s for s, _ in d.outputs)
    plan = _eval_plan(d.shape)
    args: list = []
    for name, (spaces, idx) in zip(d.box_names, plan.boxes):
        args += (store.get(name, spaces), idx)
    for space, idx in plan.copies:
        args += (np.eye(store.dim(space)), idx)
    for space, idx in plan.ones:
        args += (np.ones(store.dim(space)), idx)
    scalar = 1.0
    for space in plan.loops:
        scalar *= store.dim(space)
    if not args:
        return TensorValue(out_spaces, np.array(scalar))
    value = np.einsum(*args, plan.out, optimize=plan.path) * scalar
    return TensorValue(out_spaces, value)


# The size every space takes when a plan chooses its contraction order.
PATH_DIM = 2


@dataclass(frozen=True)
class _Plan:
    """How a shape contracts: the (spaces, labels) of each box operand in
    node order, the (space, labels) of each copy and each ones operand,
    the spaces of the closed loops, the output labels, and the einsum
    path over those operands."""

    boxes: tuple
    copies: tuple
    ones: tuple
    loops: tuple[str, ...]
    out: list[int]
    path: list | None


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
    """
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
    next_free = len(spaces)
    for c in boundary_classes:
        if c not in seen_out:
            seen_out.add(c)
            out_idx.append(c)
            continue
        copies.append((spaces[c], [c, next_free]))
        covered.add(c)
        covered.add(next_free)
        out_idx.append(next_free)
        next_free += 1
    ones: list[tuple[str, list[int]]] = []
    for c in seen_out:
        if c not in covered:
            ones.append((spaces[c], [c]))
            covered.add(c)
    loops = tuple(space for c, space in enumerate(spaces) if c not in covered)

    operands = boxes + copies + ones
    if not operands:
        return _Plan((), (), (), loops, [], None)
    labels = sorted({c for _, idx in operands for c in idx})
    if len(labels) > 52:
        raise TensorError("diagram needs more than 52 einsum indices")
    dense = {c: i for i, c in enumerate(labels)}

    def relabel(ops):
        return tuple((sp, [dense[c] for c in idx]) for sp, idx in ops)

    boxes, copies, ones = relabel(boxes), relabel(copies), relabel(ones)
    out = [dense[c] for c in out_idx]
    sized: list = []
    for _, idx in boxes + copies + ones:
        sized += (np.empty((PATH_DIM,) * len(idx)), idx)
    path, _ = np.einsum_path(*sized, out, optimize="greedy")
    return _Plan(boxes, copies, ones, loops, out, path)


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
