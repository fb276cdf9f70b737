"""From syntax to vector space semantics.

Types become lists of typed wires over the spaces N (individuals) and S
(sentence meanings): slash types contribute the result wires followed by
the dualized argument wires, and both modal operators are transparent.
Proofs become string diagrams, with the evaluation and coevaluation
arrows turning into nested cups and caps, monotonicity under a slash
into a transposition, and the controlled structural rules into pure
rewiring: reassociation does not move any wire at all and the
controlled commutation is a block permutation.

The same proofs also yield their axiom linkings, the pairing-off of
atom occurrences that survives into the diagram as the pattern of cup
arcs.  ``compile_sentence`` builds a sentence meaning that way: one
Frobenius network per word, wired together along the linking.  The
linking is a function of the proof alone, and the wiring a function of
the proof and the shapes of the word networks (their diagrams without
box names), whichever words fill them.  So the sentence shape of each of
the last ``SEARCH_CACHE_SIZE`` (proof, network shapes) keys is kept, and
a call only names its boxes after the words' boxes;
``lambeksem.translate._compiled_shape.cache_info()`` reads the hits and
misses.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

from .diagram import (
    Builder,
    Diagram,
    DiagramError,
    WireType,
    cap,
    compose,
    cup,
    dual_type,
    identity,
    named,
    permutation,
    tensor_par,
)
from .formula import (
    Atom,
    Box,
    Dia,
    Formula,
    FormulaError,
    Over,
    Polarity,
    Tensor,
    Under,
    iter_atoms,
    print_formula,
)
from .prover import SEARCH_CACHE_SIZE, ProofTerm


ATOM_SPACES: dict[str, WireType] = {
    "s": (("S", False),),
    "np": (("N", False),),
    "n": (("N", False),),
    "pp": (("N", False),),
    "to_inf": (("N", True), ("S", False)),
    "ap": (("N", True), ("S", False)),
    "gp": (("N", True), ("S", False)),
    "wh": (("N", False), ("S", False)),
}


def interpret_type(f: Formula) -> WireType:
    """Wire list of a type.  Modalities leave no trace."""
    match f:
        case Atom(name):
            try:
                return ATOM_SPACES[name]
            except KeyError:
                raise FormulaError(f"no semantic space registered for atom {name!r}") from None
        case Tensor(left, right):
            return interpret_type(left) + interpret_type(right)
        case Over(result, arg):
            return interpret_type(result) + dual_type(interpret_type(arg))
        case Under(arg, result):
            return dual_type(interpret_type(arg)) + interpret_type(result)
        case Dia(_, body) | Box(_, body):
            return interpret_type(body)
    raise FormulaError(f"cannot interpret {f!r}")


@dataclass(frozen=True)
class AtomBlock:
    """Where one atom occurrence sits in the wire list of its formula."""

    name: str
    polarity: Polarity
    start: int
    size: int
    flipped: bool


def atom_wire_blocks(f: Formula) -> tuple[AtomBlock, ...]:
    """Atom occurrences in preorder, each with its wire span.

    Dualized positions reverse the block layout, so preorder atom order
    does not mean left-to-right wire order.
    """
    blocks, total = _blocks(f)
    if total != len(interpret_type(f)):
        raise FormulaError("internal error: wire accounting drifted")
    return tuple(blocks)


def _blocks(f: Formula):
    match f:
        case Atom(name):
            size = len(ATOM_SPACES.get(name, ())) or len(interpret_type(f))
            return [AtomBlock(name, Polarity.POS, 0, size, False)], size
        case Tensor(left, right):
            lb, lt = _blocks(left)
            rb, rt = _blocks(right)
            rb = [_shift_block(b, lt) for b in rb]
            return lb + rb, lt + rt
        case Over(result, arg):
            bb, bt = _blocks(result)
            ab, at = _blocks(arg)
            ab = [_shift_block(_dual_block(b, at), bt) for b in ab]
            return bb + ab, bt + at
        case Under(arg, result):
            ab, at = _blocks(arg)
            bb, bt = _blocks(result)
            ab = [_dual_block(b, at) for b in ab]
            bb = [_shift_block(b, at) for b in bb]
            return ab + bb, at + bt
        case Dia(_, body) | Box(_, body):
            return _blocks(body)
    raise FormulaError(f"cannot lay out {f!r}")


def _shift_block(b: AtomBlock, by: int) -> AtomBlock:
    return AtomBlock(b.name, b.polarity, b.start + by, b.size, b.flipped)


def _dual_block(b: AtomBlock, total: int) -> AtomBlock:
    return AtomBlock(
        b.name, b.polarity.flip(), total - b.start - b.size, b.size, not b.flipped
    )


# -- proofs to diagrams


def _cups(w: WireType) -> Diagram:
    """Nested cups closing ``w``: wire t meets wire len(w)-1-t."""
    d = identity(())
    for t in reversed(range(len(w) // 2)):
        x, y = w[t:t + 1], w[len(w) - 1 - t:len(w) - t]
        d = compose(tensor_par(tensor_par(identity(x), d), identity(y)), cup(*x[0]))
    return d


def _caps(w: WireType) -> Diagram:
    """Nested caps opening ``w``: wire t meets wire len(w)-1-t."""
    d = identity(())
    for t in reversed(range(len(w) // 2)):
        x, y = w[t:t + 1], w[len(w) - 1 - t:len(w) - t]
        d = compose(cap(*x[0]), tensor_par(tensor_par(identity(x), d), identity(y)))
    return d


def transpose_diagram(g: Diagram) -> Diagram:
    """The name-dual of a map X -> Y, from Y* to X*: the snake of caps
    opening X* X, the map, and cups closing Y Y*."""
    xd, yd = dual_type(g.inputs), dual_type(g.outputs)
    opened = tensor_par(_caps(xd + g.inputs), identity(yd))
    mapped = tensor_par(tensor_par(identity(xd), g), identity(yd))
    closed = tensor_par(identity(xd), _cups(g.outputs + yd))
    return compose(compose(opened, mapped), closed)


def interpret_proof(term: ProofTerm) -> Diagram:
    """The diagram of a proof along the proof homomorphism.

    Evaluation is the identity beside the cups closing the argument
    against its dual (ev = id ⊗ cups), coevaluation the identity beside
    the caps opening them (coev = id ⊗ caps), and monotonicity under a
    slash transposes the argument's map by the snake of caps, map and
    cups.  The modal and associativity rules move no wire; commutation
    is a block permutation.
    """
    match term.rule:
        case "id" | "ev_box" | "coev_box" | "alpha":
            return identity(interpret_type(term.source))
        case "compose":
            g, f = term.children
            return compose(interpret_proof(f), interpret_proof(g))
        case "mon_tensor":
            f, g = term.children
            return tensor_par(interpret_proof(f), interpret_proof(g))
        case "mon_dia" | "mon_box":
            return interpret_proof(term.children[0])
        case "mon_over":
            f, g = term.children
            return tensor_par(interpret_proof(f), transpose_diagram(interpret_proof(g)))
        case "mon_under":
            f, g = term.children
            return tensor_par(transpose_diagram(interpret_proof(f)), interpret_proof(g))
        case "ev_over":
            # (B/A) * A -> B
            wa, wb = map(interpret_type, term.params)
            return tensor_par(identity(wb), _cups(dual_type(wa) + wa))
        case "ev_under":
            # A * (A\B) -> B
            wa, wb = map(interpret_type, term.params)
            return tensor_par(_cups(wa + dual_type(wa)), identity(wb))
        case "coev_over":
            # B -> (B*A)/A
            wa, wb = map(interpret_type, term.params)
            return tensor_par(identity(wb), _caps(wa + dual_type(wa)))
        case "coev_under":
            # B -> A\(A*B)
            wa, wb = map(interpret_type, term.params)
            return tensor_par(_caps(dual_type(wa) + wa), identity(wb))
        case "sigma":
            # (A*B) * <x>C -> (A*<x>C) * B: swap the B and C blocks
            wa, wb, wc = map(interpret_type, term.params)
            la, lb, lc = len(wa), len(wb), len(wc)
            perm = [*range(la), *range(la + lc, la + lc + lb), *range(la, la + lc)]
            return permutation(wa + wb + wc, perm)
    raise DiagramError(f"cannot interpret proof rule {term.rule!r}")


# -- axiom linkings


def _parallel(n: int, side: str, at: int, side2: str, at2: int) -> frozenset:
    """The n in-order links from the run of atoms at ``at`` on ``side``
    to the run at ``at2`` on ``side2``."""
    return frozenset(frozenset(((side, at + i), (side2, at2 + i))) for i in range(n))


def _remap(links, fn) -> frozenset:
    return frozenset(frozenset(fn(tok) for tok in pair) for pair in links)


def _term_links(term: ProofTerm) -> frozenset:
    match term.rule:
        case "id" | "ev_box" | "coev_box" | "alpha":
            return _parallel(term.source.n_atoms, "s", 0, "t", 0)
        case "mon_dia" | "mon_box":
            return _term_links(term.children[0])
        case "compose":
            g, f = term.children
            return _glue(_term_links(f), _term_links(g))
        case "mon_tensor":
            f, g = term.children
            ds, dt = f.source.n_atoms, f.target.n_atoms

            def shift(tok):
                side, i = tok
                return (side, i + (ds if side == "s" else dt))

            return _term_links(f) | _remap(_term_links(g), shift)
        case "mon_over":
            # f: A->B, g: C->D  gives  A/D -> B/C
            f, g = term.children
            na, nb = f.source.n_atoms, f.target.n_atoms

            def turn(tok):
                side, i = tok
                # g's source C sits in the composite target, its target D
                # in the composite source
                if side == "s":
                    return ("t", nb + i)
                return ("s", na + i)

            return _term_links(f) | _remap(_term_links(g), turn)
        case "mon_under":
            # f: A->B, g: C->D  gives  B\C -> A\D
            f, g = term.children
            na, nb = f.source.n_atoms, f.target.n_atoms

            def turn(tok):
                side, i = tok
                if side == "s":
                    return ("t", i)
                return ("s", i)

            def shift(tok):
                side, i = tok
                return (side, i + (nb if side == "s" else na))

            return _remap(_term_links(f), turn) | _remap(_term_links(g), shift)
        case "ev_over":
            # (B/A) * A -> B
            na, nb = (p.n_atoms for p in term.params)
            return _parallel(nb, "s", 0, "t", 0) | _parallel(na, "s", nb, "s", nb + na)
        case "ev_under":
            # A * (A\B) -> B
            na, nb = (p.n_atoms for p in term.params)
            return _parallel(na, "s", 0, "s", na) | _parallel(nb, "s", 2 * na, "t", 0)
        case "coev_over":
            # B -> (B*A)/A
            na, nb = (p.n_atoms for p in term.params)
            return _parallel(nb, "s", 0, "t", 0) | _parallel(na, "t", nb, "t", nb + na)
        case "coev_under":
            # B -> A\(A*B)
            na, nb = (p.n_atoms for p in term.params)
            return _parallel(na, "t", 0, "t", na) | _parallel(nb, "s", 0, "t", 2 * na)
        case "sigma":
            # (A*B) * <x>C -> (A*<x>C) * B
            na, nb, nc = (p.n_atoms for p in term.params)
            return (_parallel(na, "s", 0, "t", 0)
                    | _parallel(nb, "s", na, "t", na + nc)
                    | _parallel(nc, "s", na + nb, "t", na))
    raise DiagramError(f"cannot link proof rule {term.rule!r}")


def _glue(lf: frozenset, lg: frozenset) -> frozenset:
    """Compose two linkings along the shared middle formula.

    Middle occurrences pair up twice, once per side; following the
    alternating paths joins the outer occurrences.  Paths closing on
    themselves vanish, which is what should happen to material consumed
    entirely inside the composition.
    """
    adj: dict = {}

    def add_edge(u, v):
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)

    for pair in lf:
        u, v = tuple(pair) if len(pair) == 2 else (next(iter(pair)),) * 2
        add_edge(_lift_f(u), _lift_f(v))
    for pair in lg:
        u, v = tuple(pair) if len(pair) == 2 else (next(iter(pair)),) * 2
        add_edge(_lift_g(u), _lift_g(v))

    out = set()
    visited = set()
    for node in adj:
        if node[0] == "m" or node in visited:
            continue
        visited.add(node)
        prev, cur = node, adj[node][0]
        while cur[0] == "m":
            visited.add(cur)
            step = [x for x in adj[cur] if x != prev]
            # a middle occurrence has exactly two incident edges; when
            # both lead back the path doubles on itself
            nxt = step[0] if step else prev
            prev, cur = cur, nxt
        visited.add(cur)
        out.add(frozenset((node[1], cur[1])))
    return frozenset(out)


def _lift_f(tok):
    side, i = tok
    if side == "t":
        return ("m", i)
    return ("a", ("s", i))


def _lift_g(tok):
    side, i = tok
    if side == "s":
        return ("m", i)
    return ("a", ("t", i))


@dataclass(frozen=True)
class AxiomLinking:
    """A perfect matching of the atom occurrences of an arrow.

    Occurrences are indexed over the source atoms in preorder followed
    by the target atoms, so index ``k`` for ``k < n_source`` sits in the
    source.  Every link joins occurrences that cancel: either two source
    atoms of opposite polarity or a source and a target atom of the same
    written polarity.
    """

    source: Formula
    target: Formula
    links: tuple[tuple[int, int], ...]

    @property
    def occurrences(self):
        occ = [
            ("source", name, pol) for _, name, pol in iter_atoms(self.source)
        ]
        occ += [
            ("target", name, pol) for _, name, pol in iter_atoms(self.target)
        ]
        return tuple(occ)

    def to_json(self) -> str:
        occ = [
            {"index": i, "side": side, "atom": name, "polarity": pol.value}
            for i, (side, name, pol) in enumerate(self.occurrences)
        ]
        doc = {
            "schema": "linking/1",
            "source": print_formula(self.source),
            "target": print_formula(self.target),
            "occurrences": occ,
            "links": [list(pair) for pair in self.links],
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def extract_axiom_links(term: ProofTerm) -> AxiomLinking:
    ns = term.source.n_atoms
    raw = _term_links(term)
    pairs = []
    seen: set[int] = set()
    for pair in raw:
        toks = tuple(pair)
        if len(toks) == 1:
            raise DiagramError("degenerate axiom link")
        idx = []
        for side, i in toks:
            idx.append(i if side == "s" else ns + i)
        a, b = sorted(idx)
        pairs.append((a, b))
        seen.update((a, b))
    if seen != set(range(ns + term.target.n_atoms)):
        raise DiagramError("axiom linking is not a perfect matching")
    return AxiomLinking(term.source, term.target, tuple(sorted(pairs)))


# -- sentence meanings


def link_diagram(linking: AxiomLinking) -> Diagram:
    """The linking as a diagram: inputs are the source wires, outputs
    the target wires, and every link becomes a cup arc, a through wire,
    or a cap arc depending on which sides it touches."""
    src_blocks = atom_wire_blocks(linking.source)
    tgt_blocks = atom_wire_blocks(linking.target)
    w_in = interpret_type(linking.source)
    w_out = interpret_type(linking.target)
    ns = len(src_blocks)

    bld = Builder()
    for sp, dl in w_in:
        bld.add_input(sp, dl)
    for sp, dl in w_out:
        bld.add_output(sp, dl)

    for a, b in linking.links:
        a_src, b_src = a < ns, b < ns
        ba = src_blocks[a] if a_src else tgt_blocks[a - ns]
        bb = src_blocks[b] if b_src else tgt_blocks[b - ns]
        if ba.size != bb.size:
            raise DiagramError("linked atoms with different wire widths")
        for t in range(ba.size):
            wa = ba.start + t
            wb = bb.start + (t if ba.flipped == bb.flipped else ba.size - 1 - t)
            sp = (w_in if a_src else w_out)[wa][0]
            match a_src, b_src:
                case True, True:
                    nid = bld.add_node("cup", (sp, sp), ())
                    bld.wire(("I", wa), ("i", nid, 0))
                    bld.wire(("I", wb), ("i", nid, 1))
                case True, False:
                    bld.wire(("I", wa), ("O", wb))
                case False, True:
                    bld.wire(("I", wb), ("O", wa))
                case False, False:
                    nid = bld.add_node("cap", (), (sp, sp))
                    bld.wire(("o", nid, 0), ("O", wa))
                    bld.wire(("o", nid, 1), ("O", wb))
    return bld.diagram()


def compile_sentence(parse, states) -> Diagram:
    """Meaning of a parsed sentence from its axiom linking.

    ``states`` holds one Frobenius network per word, each a closed
    diagram whose outputs are the word's type wires.  The networks sit
    side by side and the proof's linking wires them together; goal wires
    come out as the boundary.  Placing and composing keep the nodes in
    order, so the boxes are the words' boxes in sentence order, and the
    rest is kept per proof and network shapes by :func:`_compiled_shape`.
    """
    shape = _compiled_shape(parse.proof, tuple(s.shape for s in states))
    return named(shape, [name for s in states for name in s.box_names])


def _side_by_side(states) -> Diagram:
    """The word networks placed side by side, in sentence order."""
    return functools.reduce(tensor_par, states)


# Proof terms hash and compare by their fields and diagrams are frozen,
# so a kept shape is the one a cold call would build.  The bound is the
# search cache's: the first proof of every kept search keeps its shape.
@functools.lru_cache(maxsize=SEARCH_CACHE_SIZE)
def _compiled_shape(proof: ProofTerm, shapes: tuple[Diagram, ...]) -> Diagram:
    """The sentence shape: the network shapes side by side, composed
    with the link diagram of the proof's axiom linking."""
    # the link diagram's inputs are the antecedent's wires, so compose
    # checks that the networks line up with the parsed types
    return compose(_side_by_side(shapes), link_diagram(extract_axiom_links(proof)))


def proof_meaning(parse, states) -> Diagram:
    """Meaning of a parsed sentence along the proof homomorphism.

    Same boundary as ``compile_sentence``; the two agree under
    evaluation, which makes them a useful cross-check of each other.
    """
    return compose(_side_by_side(states), interpret_proof(parse.proof))
