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
arcs.  Atom occurrences are numbered one way, from the proof rule to the
link diagram: the source's atoms in preorder (printed order), then the
target's.  A linking is a list ``mate`` in which occurrence k is linked
to occurrence ``mate[k]``; each axiom links a few in-order runs of
occurrences.  Each wire of a type carries its occurrence and its place
in that atom's layout, from the same walk ``interpret_type`` reads, and
the link diagram joins the wires of linked occurrences place by place.
``compile_sentence`` builds a sentence meaning that way: one Frobenius
network per word, wired together along the linking.  The
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


# A wire of a type: (space, dual, atom, part), where ``atom`` numbers the
# atom occurrence it belongs to and ``part`` is its place in that atom's
# ``ATOM_SPACES`` layout.  Dualizing reverses the wires, so an atom's
# parts run backwards under an odd number of slash arguments.
Wire = tuple[str, bool, int, int]


def _wires(f: Formula, first: int = 0) -> tuple[Wire, ...]:
    """The wires of a type in order, its atom occurrences numbered in
    preorder from ``first``."""
    match f:
        case Atom(name):
            try:
                spaces = ATOM_SPACES[name]
            except KeyError:
                raise FormulaError(f"no semantic space registered for atom {name!r}") from None
            return tuple((sp, dl, first, part) for part, (sp, dl) in enumerate(spaces))
        case Tensor(left, right):
            return _wires(left, first) + _wires(right, first + left.n_atoms)
        case Over(result, arg):
            return _wires(result, first) + _dual(_wires(arg, first + result.n_atoms))
        case Under(arg, result):
            return _dual(_wires(arg, first)) + _wires(result, first + arg.n_atoms)
        case Dia(_, body) | Box(_, body):
            return _wires(body, first)
    raise FormulaError(f"cannot interpret {f!r}")


def _dual(wires: tuple[Wire, ...]) -> tuple[Wire, ...]:
    """As :func:`dual_type`, keeping each wire's atom and part."""
    return tuple((sp, not dl, atom, part) for sp, dl, atom, part in reversed(wires))


def interpret_type(f: Formula) -> WireType:
    """Wire list of a type.  Modalities leave no trace."""
    return tuple((sp, dl) for sp, dl, _, _ in _wires(f))


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


def _axiom(n: int, *runs: tuple[int, int, int]) -> list[int]:
    """The linking of an axiom with ``n`` atom occurrences, from runs
    ``(length, i, j)`` of in-order links: ``i + t`` meets ``j + t``."""
    # an occurrence no run covers stays its own mate, which
    # extract_axiom_links refuses
    mate = list(range(n))
    for length, i, j in runs:
        mate[i:i + length] = range(j, j + length)
        mate[j:j + length] = range(i, i + length)
    return mate


def _mate(term: ProofTerm) -> list[int]:
    """The axiom linking of a proof: occurrence k is linked to mate[k]."""
    ns = term.source.n_atoms
    n = ns + term.target.n_atoms
    match term.rule:
        case "id" | "ev_box" | "coev_box" | "alpha":
            return _axiom(n, (ns, 0, ns))
        case "mon_dia" | "mon_box":
            return _mate(term.children[0])
        case "compose":
            g, f = term.children
            return _compose(_mate(f), _mate(g), ns, f.target.n_atoms)
        case "mon_tensor" | "mon_over" | "mon_under":
            f, g = term.children
            na, nb = f.source.n_atoms, f.target.n_atoms
            # where the source and the target atoms of f: A -> B and of
            # g: C -> D start in the conclusion
            f_at, g_at = {
                "mon_tensor": ((0, ns), (na, ns + nb)),  # A*C -> B*D
                "mon_over": ((0, ns), (ns + nb, na)),  # A/D -> B/C
                "mon_under": ((ns, 0), (nb, ns + na)),  # B\C -> A\D
            }[term.rule]
            mate = [0] * n
            for premise, (s_at, t_at) in ((f, f_at), (g, g_at)):
                k_s, k_t = premise.source.n_atoms, premise.target.n_atoms
                place = [*range(s_at, s_at + k_s), *range(t_at, t_at + k_t)]
                for k, m in enumerate(_mate(premise)):
                    mate[place[k]] = place[m]
            return mate
        case "ev_over":
            # (B/A) * A -> B
            na, nb = (p.n_atoms for p in term.params)
            return _axiom(n, (nb, 0, ns), (na, nb, nb + na))
        case "ev_under":
            # A * (A\B) -> B
            na, nb = (p.n_atoms for p in term.params)
            return _axiom(n, (na, 0, na), (nb, 2 * na, ns))
        case "coev_over":
            # B -> (B*A)/A
            na, nb = (p.n_atoms for p in term.params)
            return _axiom(n, (nb, 0, ns), (na, ns + nb, ns + nb + na))
        case "coev_under":
            # B -> A\(A*B)
            na, nb = (p.n_atoms for p in term.params)
            return _axiom(n, (na, ns, ns + na), (nb, 0, ns + 2 * na))
        case "sigma":
            # (A*B) * <x>C -> (A*<x>C) * B
            na, nb, nc = (p.n_atoms for p in term.params)
            return _axiom(n, (na, 0, ns), (nb, na, ns + na + nc), (nc, na + nb, ns + na))
    raise DiagramError(f"cannot link proof rule {term.rule!r}")


def _compose(mf: list[int], mg: list[int], na: int, nm: int) -> list[int]:
    """The linking of g after f, for f: A -> M and g: M -> C with ``na``
    and ``nm`` atoms in A and M.  Each outer occurrence follows the
    alternating links of f and g through M until it leaves it; links
    closing on themselves inside M vanish, as material consumed entirely
    inside the composition should."""
    mate = []
    for k in range(len(mf) + len(mg) - 2 * nm):
        # j numbers an occurrence in f's arrow when in_f, else in g's,
        # where f's target atoms from na on are g's source atoms from 0
        in_f = k < na
        j = mf[k] if in_f else mg[k - na + nm]
        while (j >= na) if in_f else (j < nm):
            j = mg[j - na] if in_f else mf[j + na]
            in_f = not in_f
        mate.append(j if in_f else j - nm + na)
    return mate


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
    mate = _mate(term)
    if any(m == k or mate[m] != k for k, m in enumerate(mate)):
        raise DiagramError("axiom linking is not a perfect matching")
    return AxiomLinking(term.source, term.target,
                        tuple((k, m) for k, m in enumerate(mate) if k < m))


# -- sentence meanings


def link_diagram(linking: AxiomLinking) -> Diagram:
    """The linking as a diagram: inputs are the source wires, outputs
    the target wires, and every link joins each wire of one atom to the
    wire of the same part in the other, by a cup arc, a through wire, or
    a cap arc depending on which sides they touch."""
    bld = Builder()
    # each occurrence's wires in wire order, as (port, space, part)
    ends: list[list] = [[] for _ in range(linking.source.n_atoms + linking.target.n_atoms)]
    for sp, dl, atom, part in _wires(linking.source):
        ends[atom].append((bld.add_input(sp, dl), sp, part))
    for sp, dl, atom, part in _wires(linking.target, linking.source.n_atoms):
        ends[atom].append((bld.add_output(sp, dl), sp, part))

    for a, b in linking.links:
        mates = {part: port for port, _, part in ends[b]}
        if len(ends[a]) != len(mates):
            raise DiagramError("linked atoms with different wire widths")
        for port, sp, part in ends[a]:
            other = mates[part]
            match port[0], other[0]:
                case "I", "I":
                    nid = bld.add_node("cup", (sp, sp), ())
                    bld.wire(port, ("i", nid, 0))
                    bld.wire(other, ("i", nid, 1))
                case "I", "O":
                    bld.wire(port, other)
                case "O", "I":
                    bld.wire(other, port)
                case "O", "O":
                    nid = bld.add_node("cap", (), (sp, sp))
                    bld.wire(("o", nid, 0), port)
                    bld.wire(("o", nid, 1), other)
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
