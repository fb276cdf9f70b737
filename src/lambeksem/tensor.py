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

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .diagram import Diagram, DiagramError, index_classes


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
    """
    d.validate()
    out_spaces = tuple(s for s, _ in d.inputs) + tuple(s for s, _ in d.outputs)
    if not d.wires:
        return TensorValue(out_spaces, np.array(1.0))
    port_class, spaces = index_classes(d)
    boundary_ports = [("I", k) for k in range(len(d.inputs))]
    boundary_ports += [("O", k) for k in range(len(d.outputs))]
    boundary_classes = [port_class[p] for p in boundary_ports]

    operands: list[tuple[np.ndarray, list[int]]] = []
    for n in d.nodes:
        if n.kind != "box":
            continue
        idx = [port_class[("i", n.nid, k)] for k in range(len(n.ins))]
        idx += [port_class[("o", n.nid, k)] for k in range(len(n.outs))]
        operands.append((store.get(n.name, n.ins + n.outs), idx))

    covered = {c for _, idx in operands for c in idx}
    # repeated boundary visits need explicit copy tensors, since einsum
    # cannot repeat an output label
    out_idx: list[int] = []
    seen_out: set[int] = set()
    next_free = len(spaces)
    for c in boundary_classes:
        if c not in seen_out:
            seen_out.add(c)
            out_idx.append(c)
            continue
        eye = np.eye(store.dim(spaces[c]))
        operands.append((eye, [c, next_free]))
        covered.add(c)
        covered.add(next_free)
        out_idx.append(next_free)
        next_free += 1
    for c in seen_out:
        if c not in covered:
            operands.append((np.ones(store.dim(spaces[c])), [c]))
            covered.add(c)

    # classes touching nothing visible are closed loops: scalar factors
    scalar = 1.0
    for c, space in enumerate(spaces):
        if c not in covered:
            scalar *= store.dim(space)

    if not operands:
        return TensorValue(out_spaces, np.array(scalar))
    labels = sorted({c for _, idx in operands for c in idx})
    if len(labels) > 52:
        raise TensorError("diagram needs more than 52 einsum indices")
    dense = {c: i for i, c in enumerate(labels)}
    args: list = []
    for arr, idx in operands:
        args.append(arr)
        args.append([dense[c] for c in idx])
    args.append([dense[c] for c in out_idx])
    value = np.einsum(*args, optimize="greedy") * scalar
    return TensorValue(out_spaces, value)


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
