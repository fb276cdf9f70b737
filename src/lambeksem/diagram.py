"""String-diagram IR for compact-closed vector space semantics.

A diagram is an open graph: boxes (named tensors), cups and caps (the
evaluation and coevaluation maps of a self-dual space), swaps, and
spiders (the basis-copying Frobenius generators), wired together and to
an input/output boundary.  Wires are directed from a producer end (a
node output or a diagram input) to a consumer end (a node input or a
diagram output); this orientation is bookkeeping for composition and
evaluation, not physics, since every space here is self-dual.

Wire types carry a space name plus a dual flag.  The flag matters when
gluing diagrams along a boundary; evaluation ignores it.

The shape of a diagram is the diagram without its box names
(``Diagram.shape``).  Compiling, normalizing and evaluating are
structural: what they build depends on the shape alone, and a box name
only says which tensor fills the box.  So each of the three keeps its
structural work per shape, in a memo of ``SEARCH_CACHE_SIZE`` entries,
and per call only puts the names back (:func:`named`) or fetches the
named tensors.  Here :func:`normalize` keeps the normal form of each
shape; ``lambeksem.diagram._normal_shape.cache_info()`` reads its hits
and misses.  Errors are raised on every call and never kept.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

from .prover import SEARCH_CACHE_SIZE


class DiagramError(ValueError):
    pass


# a boundary type: ((space, dual), ...)
WireType = tuple[tuple[str, bool], ...]


def dual_type(wtype: WireType) -> WireType:
    """Reverse the wire order and flip every dual flag (an involution)."""
    return tuple((space, not dual) for space, dual in reversed(wtype))


def concrete_spaces(wtype: WireType) -> tuple[str, ...]:
    return tuple(space for space, _ in wtype)


# Ports.  Producers: ("I", k) diagram input, ("o", nid, k) node output.
# Consumers: ("O", k) diagram output, ("i", nid, k) node input.
Port = tuple


@dataclass(frozen=True)
class Node:
    """One generator.  ``ins``/``outs`` list the port spaces in order.

    ``name`` is the box label (empty for the other kinds).  Spiders keep
    their space redundantly in every port entry.
    """

    nid: int
    kind: str  # box | cup | cap | swap | spider
    ins: tuple[str, ...]
    outs: tuple[str, ...]
    name: str = ""

    def check(self) -> None:
        """Check the legs against the kind; a box's name is not checked."""
        match self.kind:
            case "box":
                pass
            case "cup":
                if len(self.ins) != 2 or self.outs or self.ins[0] != self.ins[1]:
                    raise DiagramError(f"malformed cup node {self.nid}")
            case "cap":
                if len(self.outs) != 2 or self.ins or self.outs[0] != self.outs[1]:
                    raise DiagramError(f"malformed cap node {self.nid}")
            case "swap":
                if len(self.ins) != 2 or len(self.outs) != 2:
                    raise DiagramError(f"malformed swap node {self.nid}")
                if (self.ins[0], self.ins[1]) != (self.outs[1], self.outs[0]):
                    raise DiagramError(f"swap node {self.nid} spaces do not cross")
            case "spider":
                legs = self.ins + self.outs
                if not legs:
                    raise DiagramError("spider needs at least one leg")
                if any(s != legs[0] for s in legs):
                    raise DiagramError(f"spider node {self.nid} mixes spaces")
            case _:
                raise DiagramError(f"unknown node kind {self.kind!r}")

    @property
    def space(self) -> str:
        """Space of a single-space node (cup, cap, spider)."""
        legs = self.ins + self.outs
        return legs[0]


@dataclass(frozen=True)
class Diagram:
    inputs: WireType
    outputs: WireType
    nodes: tuple[Node, ...] = ()
    wires: tuple[tuple[Port, Port], ...] = ()
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(sorted(self.nodes, key=lambda n: n.nid)))
        object.__setattr__(self, "wires", tuple(sorted(self.wires)))

    def __hash__(self) -> int:
        # kept: a shape is a memo key, looked up on every request
        h = self._hash
        if h is None:
            h = hash((self.inputs, self.outputs, self.nodes, self.wires))
            object.__setattr__(self, "_hash", h)
        return h

    # -- queries

    @functools.cached_property
    def shape(self) -> "Diagram":
        """This diagram with every box name blank."""
        nodes = tuple(Node(n.nid, n.kind, n.ins, n.outs) if n.name else n for n in self.nodes)
        return Diagram(self.inputs, self.outputs, nodes, self.wires)

    @functools.cached_property
    def box_names(self) -> tuple[str, ...]:
        """The box names in node order."""
        return tuple(n.name for n in self.nodes if n.kind == "box")

    @functools.cached_property
    def _by_id(self) -> dict[int, Node]:
        # the first of duplicate ids wins; validate refuses duplicates
        return {n.nid: n for n in reversed(self.nodes)}

    def node(self, nid: int) -> Node:
        n = self._by_id.get(nid)
        if n is None:
            raise DiagramError(f"no node {nid}")
        return n

    def port_space(self, port: Port) -> str:
        match port:
            case ("I", k):
                return self.inputs[k][0]
            case ("O", k):
                return self.outputs[k][0]
            case ("i", nid, k):
                return self.node(nid).ins[k]
            case ("o", nid, k):
                return self.node(nid).outs[k]
        raise DiagramError(f"bad port {port!r}")

    def validate(self) -> None:
        """Check the structure, then that every box has a name."""
        self.check_structure()
        self.check_names()

    def check_names(self) -> None:
        if not all(self.box_names):
            raise DiagramError("box node needs a name")

    def check_structure(self) -> None:
        """Check everything but the box names: the node kinds and their
        legs, distinct node ids, and that wires join every port once,
        each to a port of its space.  A shape passes when every diagram
        of that shape does."""
        ids: set[int] = set()
        for n in self.nodes:
            if n.nid in ids:
                raise DiagramError(f"duplicate node id {n.nid}")
            n.check()
            ids.add(n.nid)
        # port -> space, for every producer and consumer end
        producers = {("I", k): s for k, (s, _) in enumerate(self.inputs)}
        consumers = {("O", k): s for k, (s, _) in enumerate(self.outputs)}
        for n in self.nodes:
            producers.update((("o", n.nid, k), s) for k, s in enumerate(n.outs))
            consumers.update((("i", n.nid, k), s) for k, s in enumerate(n.ins))
        seen_p: set = set()
        seen_c: set = set()
        for prod, cons in self.wires:
            if prod not in producers:
                raise DiagramError(f"wire producer {prod!r} is not a producer port")
            if cons not in consumers:
                raise DiagramError(f"wire consumer {cons!r} is not a consumer port")
            if prod in seen_p:
                raise DiagramError(f"producer {prod!r} used twice")
            if cons in seen_c:
                raise DiagramError(f"consumer {cons!r} used twice")
            if producers[prod] != consumers[cons]:
                raise DiagramError(
                    f"wire {prod!r} -> {cons!r} joins different spaces"
                )
            seen_p.add(prod)
            seen_c.add(cons)
        if seen_p != producers.keys() or seen_c != consumers.keys():
            raise DiagramError("dangling ports")

    # -- serialization

    def to_json(self) -> str:
        doc = {
            "schema": "diagram/1",
            "inputs": [[s, d] for s, d in self.inputs],
            "outputs": [[s, d] for s, d in self.outputs],
            "nodes": [
                {
                    "id": n.nid,
                    "kind": n.kind,
                    "name": n.name,
                    "ins": list(n.ins),
                    "outs": list(n.outs),
                }
                for n in self.nodes
            ],
            "wires": [[list(p), list(c)] for p, c in self.wires],
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "Diagram":
        doc = json.loads(text)
        if doc.get("schema") != "diagram/1":
            raise DiagramError("unsupported diagram schema")
        nodes = tuple(
            Node(
                nid=n["id"],
                kind=n["kind"],
                ins=tuple(n["ins"]),
                outs=tuple(n["outs"]),
                name=n.get("name", ""),
            )
            for n in doc["nodes"]
        )
        wires = tuple((tuple(p), tuple(c)) for p, c in doc["wires"])
        d = Diagram(
            inputs=tuple((s, bool(f)) for s, f in doc["inputs"]),
            outputs=tuple((s, bool(f)) for s, f in doc["outputs"]),
            nodes=nodes,
            wires=wires,
        )
        d.validate()
        return d

    def to_dot(self) -> str:
        lines = ["digraph diagram {", "  rankdir=TB;"]
        for k, (space, dl) in enumerate(self.inputs):
            label = space + ("*" if dl else "")
            lines.append(f'  in{k} [shape=plaintext, label="{label}"];')
        for k, (space, dl) in enumerate(self.outputs):
            label = space + ("*" if dl else "")
            lines.append(f'  out{k} [shape=plaintext, label="{label}"];')
        for n in self.nodes:
            match n.kind:
                case "box":
                    shape, label = "box", n.name
                case "spider":
                    shape, label = "circle", n.space
                case _:
                    shape, label = "diamond", n.kind
            lines.append(f'  n{n.nid} [shape={shape}, label="{label}"];')
        def ref(port):
            match port:
                case ("I", k):
                    return f"in{k}"
                case ("O", k):
                    return f"out{k}"
                case (_, nid, _):
                    return f"n{nid}"
        for prod, cons in self.wires:
            lines.append(f"  {ref(prod)} -> {ref(cons)};")
        lines.append("}")
        return "\n".join(lines)


class Builder:
    """Mutable accumulator for assembling a diagram port by port."""

    def __init__(self):
        self.inputs: list[tuple[str, bool]] = []
        self.outputs: list[tuple[str, bool]] = []
        self.nodes: list[Node] = []
        self.wires: list[tuple[Port, Port]] = []

    def add_node(self, kind, ins, outs, name="") -> int:
        nid = len(self.nodes)
        self.nodes.append(Node(nid, kind, tuple(ins), tuple(outs), name))
        return nid

    def add_input(self, space: str, dual: bool = False) -> Port:
        self.inputs.append((space, dual))
        return ("I", len(self.inputs) - 1)

    def add_output(self, space: str, dual: bool = False) -> Port:
        self.outputs.append((space, dual))
        return ("O", len(self.outputs) - 1)

    def wire(self, prod: Port, cons: Port) -> None:
        self.wires.append((prod, cons))

    def diagram(self) -> Diagram:
        d = Diagram(
            tuple(self.inputs), tuple(self.outputs), tuple(self.nodes), tuple(self.wires)
        )
        d.validate()
        return d


def named(shape: Diagram, names) -> Diagram:
    """``shape`` with its boxes named ``names``, in node order.

    Only the box nodes are built anew.  The other nodes and the wires
    are the shape's, already in order, so they are not sorted again, and
    the shape and names are set to what they would be recomputed to.
    """
    names = tuple(names)
    it = iter(names)
    nodes = tuple(Node(n.nid, n.kind, n.ins, n.outs, next(it)) if n.kind == "box" else n
                  for n in shape.nodes)
    d = object.__new__(Diagram)
    d.__dict__.update(inputs=shape.inputs, outputs=shape.outputs, nodes=nodes,
                      wires=shape.wires, _hash=None, shape=shape, box_names=names)
    return d


# -- primitive diagrams


def identity(wtype: WireType) -> Diagram:
    wires = tuple((("I", k), ("O", k)) for k in range(len(wtype)))
    return Diagram(tuple(wtype), tuple(wtype), (), wires)


def permutation(wtype: WireType, perm: list[int] | tuple[int, ...]) -> Diagram:
    """Pure rewiring: input ``k`` exits at output ``perm[k]``."""
    if sorted(perm) != list(range(len(wtype))):
        raise DiagramError("not a permutation")
    outputs = [None] * len(wtype)
    for k, target in enumerate(perm):
        outputs[target] = wtype[k]
    wires = tuple((("I", k), ("O", perm[k])) for k in range(len(wtype)))
    return Diagram(tuple(wtype), tuple(outputs), (), wires)


def box(name: str, ins: WireType, outs: WireType) -> Diagram:
    node = Node(0, "box", concrete_spaces(ins), concrete_spaces(outs), name)
    wires = [(("I", k), ("i", 0, k)) for k in range(len(ins))]
    wires += [(("o", 0, k), ("O", k)) for k in range(len(outs))]
    return Diagram(tuple(ins), tuple(outs), (node,), tuple(wires))


def cup(space: str, left_dual: bool = False) -> Diagram:
    """Evaluation map: two inputs, no outputs."""
    node = Node(0, "cup", (space, space), ())
    wires = ((("I", 0), ("i", 0, 0)), (("I", 1), ("i", 0, 1)))
    return Diagram(((space, left_dual), (space, not left_dual)), (), (node,), wires)


def cap(space: str, left_dual: bool = False) -> Diagram:
    """Coevaluation map: no inputs, two outputs."""
    node = Node(0, "cap", (), (space, space))
    wires = ((("o", 0, 0), ("O", 0)), (("o", 0, 1), ("O", 1)))
    return Diagram((), ((space, left_dual), (space, not left_dual)), (node,), wires)


def swap(a: tuple[str, bool], b: tuple[str, bool]) -> Diagram:
    node = Node(0, "swap", (a[0], b[0]), (b[0], a[0]))
    wires = (
        (("I", 0), ("i", 0, 0)),
        (("I", 1), ("i", 0, 1)),
        (("o", 0, 0), ("O", 0)),
        (("o", 0, 1), ("O", 1)),
    )
    return Diagram((a, b), (b, a), (node,), wires)


def spider(space: str, m: int, n: int, dual_ins=None, dual_outs=None) -> Diagram:
    """Frobenius spider with ``m`` inputs and ``n`` outputs."""
    node = Node(0, "spider", (space,) * m, (space,) * n)
    node.check()
    wires = [(("I", k), ("i", 0, k)) for k in range(m)]
    wires += [(("o", 0, k), ("O", k)) for k in range(n)]
    ins = tuple((space, bool(d)) for d in (dual_ins or [False] * m))
    outs = tuple((space, bool(d)) for d in (dual_outs or [False] * n))
    return Diagram(ins, outs, (node,), tuple(wires))


# -- composition


def _offset_port(port: Port, offset: int) -> Port:
    match port:
        case ("i" | "o", nid, k):
            return (port[0], nid + offset, k)
    return port


def compose(d1: Diagram, d2: Diagram) -> Diagram:
    """Plug ``d1``'s outputs into ``d2``'s inputs."""
    if d1.outputs != d2.inputs:
        raise DiagramError(
            f"cannot compose: boundary mismatch {d1.outputs} vs {d2.inputs}"
        )
    offset = max((n.nid for n in d1.nodes), default=-1) + 1
    nodes = list(d1.nodes)
    nodes += [
        Node(n.nid + offset, n.kind, n.ins, n.outs, n.name) for n in d2.nodes
    ]
    out_producer = {}
    wires = []
    for prod, cons in d1.wires:
        if cons[0] == "O":
            out_producer[cons[1]] = prod
        else:
            wires.append((prod, cons))
    for prod, cons in d2.wires:
        prod = _offset_port(prod, offset)
        cons = _offset_port(cons, offset)
        if prod[0] == "I":
            prod = out_producer[prod[1]]
        wires.append((prod, cons))
    return Diagram(d1.inputs, d2.outputs, tuple(nodes), tuple(wires))


def tensor_par(d1: Diagram, d2: Diagram) -> Diagram:
    """Place ``d2`` beside (after) ``d1``."""
    offset = max((n.nid for n in d1.nodes), default=-1) + 1
    li, lo = len(d1.inputs), len(d1.outputs)
    nodes = list(d1.nodes)
    nodes += [
        Node(n.nid + offset, n.kind, n.ins, n.outs, n.name) for n in d2.nodes
    ]
    wires = list(d1.wires)
    for prod, cons in d2.wires:
        prod = _offset_port(prod, offset)
        cons = _offset_port(cons, offset)
        if prod[0] == "I":
            prod = ("I", prod[1] + li)
        if cons[0] == "O":
            cons = ("O", cons[1] + lo)
        wires.append((prod, cons))
    return Diagram(
        d1.inputs + d2.inputs, d1.outputs + d2.outputs, tuple(nodes), tuple(wires)
    )


# -- normalization
#
# Spiders, cups, caps and swaps only say which wire ends carry the same
# basis index.  Grouping the ends into index classes is therefore the
# whole normal form: by the spider theorem for the copying Frobenius
# algebra, each connected web of those generators is a single spider.


def index_classes(d: Diagram) -> tuple[dict[Port, int], list[str]]:
    """Group the ports of ``d`` into shared-index classes.

    A wire joins its two ports; a spider, cup or cap joins all of its
    legs; a swap joins each input to the output it crosses to.  Returns
    the class of every port, with classes numbered densely in wire
    order, and the space of each class.
    """
    port_wire: dict[Port, int] = {}
    for pos, (prod, cons) in enumerate(d.wires):
        port_wire[prod] = pos
        port_wire[cons] = pos
    parent = list(range(len(d.wires)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for n in d.nodes:
        if n.kind == "box":
            continue
        if n.kind == "swap":
            groups = [[("i", n.nid, 0), ("o", n.nid, 1)], [("i", n.nid, 1), ("o", n.nid, 0)]]
        else:
            groups = [[("i", n.nid, k) for k in range(len(n.ins))]
                      + [("o", n.nid, k) for k in range(len(n.outs))]]
        for legs in groups:
            root = find(port_wire[legs[0]])
            for leg in legs[1:]:
                parent[find(port_wire[leg])] = root

    outs_of = {n.nid: n.outs for n in d.nodes}
    dense: dict[int, int] = {}
    spaces: list[str] = []
    port_class: dict[Port, int] = {}
    for pos, (prod, cons) in enumerate(d.wires):
        root = find(pos)
        if root not in dense:
            dense[root] = len(spaces)
            spaces.append(d.inputs[prod[1]][0] if prod[0] == "I" else outs_of[prod[1]][prod[2]])
        port_class[prod] = port_class[cons] = dense[root]
    return port_class, spaces


def normalize(d: Diagram) -> Diagram:
    """One spider per index class, boxes kept in their order.

    Box outputs and diagram inputs are producer ends; box inputs and
    diagram outputs are consumer ends.  A class with one end of each
    becomes a plain wire; any other open class becomes one spider from
    its producer ends to its consumer ends.  Spiders are ordered by
    their smallest end and legs by port, so the result depends only on
    the boxes and the classes, and evaluation is unchanged.  Closed
    classes are scalar loops: two per swap fed back into itself, an odd
    one as a self-looped 1-1 spider, so the normal form never has more
    nodes than its input.

    The normal form of each shape is kept, and boxes keep their order,
    so a call only names the kept form's boxes after ``d``'s.
    """
    return named(_normal_shape(d.shape), d.box_names)


@functools.lru_cache(maxsize=SEARCH_CACHE_SIZE)
def _normal_shape(d: Diagram) -> Diagram:
    """The normal form of a shape, as :func:`normalize` describes it."""
    port_class, spaces = index_classes(d)
    prods: list[list[Port]] = [[] for _ in spaces]
    cons: list[list[Port]] = [[] for _ in spaces]
    for k in range(len(d.inputs)):
        prods[port_class[("I", k)]].append(("I", k))
    for k in range(len(d.outputs)):
        cons[port_class[("O", k)]].append(("O", k))
    nodes: list[Node] = []
    for n in d.nodes:
        if n.kind != "box":
            continue
        nid = len(nodes)
        nodes.append(Node(nid, "box", n.ins, n.outs))
        for k in range(len(n.ins)):
            cons[port_class[("i", n.nid, k)]].append(("i", nid, k))
        for k in range(len(n.outs)):
            prods[port_class[("o", n.nid, k)]].append(("o", nid, k))

    wires: list[tuple[Port, Port]] = []
    webs = []
    loops = []
    for space, p, q in zip(spaces, prods, cons):
        if len(p) == len(q) == 1:
            wires.append((p[0], q[0]))
        elif p or q:
            p.sort()
            q.sort()
            webs.append((min(p[:1] + q[:1]), space, p, q))
        else:
            loops.append(space)
    for _, space, p, q in sorted(webs):
        nid = len(nodes)
        nodes.append(Node(nid, "spider", (space,) * len(p), (space,) * len(q)))
        wires += [(port, ("i", nid, k)) for k, port in enumerate(p)]
        wires += [(("o", nid, k), port) for k, port in enumerate(q)]
    loops.sort()
    for k in range(0, len(loops), 2):
        nid = len(nodes)
        pair = tuple(loops[k:k + 2])
        if len(pair) == 2:
            nodes.append(Node(nid, "swap", pair, pair[::-1]))
            wires += [(("o", nid, 0), ("i", nid, 1)), (("o", nid, 1), ("i", nid, 0))]
        else:
            nodes.append(Node(nid, "spider", pair, pair))
            wires.append((("o", nid, 0), ("i", nid, 0)))
    return Diagram(d.inputs, d.outputs, tuple(nodes), tuple(wires))


# -- textual Frobenius networks
#
# A tiny declaration language for lexical states.  The first line names
# the boundary output ports; each further line attaches a spider or a
# content box to named wires.  A wire name used by two statements links
# them; a name from the boundary line must be used by exactly one
# statement.  Example:
#
#     out head result subj svp
#     spider N : head result subj
#     spider S : svp
#
# Box legs are always producers (these networks are states); "@" as a
# box name is replaced by the owning word.


def frobenius_network(
    text: str, out_types: WireType | None = None, word: str | None = None
) -> Diagram:
    boundary: list[str] = []
    stmts: list[tuple[str, str, list[str]]] = []  # (kind, label, legs)
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("out"):
            if boundary or stmts:
                raise DiagramError("the 'out' line must come first, and only once")
            boundary = line[3:].split()
            continue
        head, _, legs = line.partition(":")
        parts = head.split()
        if len(parts) != 2 or parts[0] not in ("spider", "box"):
            raise DiagramError(f"cannot parse network line {raw!r}")
        kind, label = parts
        if kind == "box" and label == "@":
            if word is None:
                raise DiagramError("network uses '@' but no word was supplied")
            label = word
        stmts.append((kind, label, legs.split()))
    if len(set(boundary)) != len(boundary):
        raise DiagramError("boundary port names must be distinct")
    if out_types is not None and len(out_types) != len(boundary):
        raise DiagramError(
            f"network has {len(boundary)} ports but the type wants {len(out_types)}"
        )

    # where does each name occur?
    occur: dict[str, list[tuple[str, int, int]]] = {}
    for name in boundary:
        occur.setdefault(name, []).append(("boundary", -1, boundary.index(name)))
    for s, (kind, label, legs) in enumerate(stmts):
        for j, name in enumerate(legs):
            occur.setdefault(name, []).append(("stmt", s, j))
    for name, places in occur.items():
        if len(places) != 2:
            raise DiagramError(f"wire {name!r} has {len(places)} ends, wants 2")

    # solve wire spaces
    space_of: dict[str, str] = {}
    if out_types is not None:
        for name, (sp, _) in zip(boundary, out_types):
            space_of[name] = sp
    for kind, label, legs in stmts:
        if kind != "spider":
            continue
        for name in legs:
            if space_of.setdefault(name, label) != label:
                raise DiagramError(
                    f"wire {name!r} is {space_of[name]} but spider wants {label}"
                )
    for name in occur:
        if name not in space_of:
            raise DiagramError(f"cannot infer the space of wire {name!r}")

    # orient: box legs and first-seen spider legs produce; boundary and
    # second-seen legs consume
    bld = Builder()
    if out_types is not None:
        for sp, dl in out_types:
            bld.outputs.append((sp, dl))
    else:
        for name in boundary:
            bld.outputs.append((space_of[name], False))

    node_ids: list[int] = []
    leg_dir: dict[tuple[int, int], str] = {}  # (stmt, leg) -> "in"/"out"
    for name, places in occur.items():
        ends = [p for p in places if p[0] == "stmt"]
        if len(ends) == 0:
            raise DiagramError(f"boundary wire {name!r} reaches no node")
        if len(ends) == 2:
            a, b = ends
            kind_a = stmts[a[1]][0]
            kind_b = stmts[b[1]][0]
            if kind_a == "box" and kind_b == "box":
                raise DiagramError("direct box-to-box wires are not supported")
            if kind_b == "box":  # boxes always produce
                a, b = b, a
            leg_dir[(a[1], a[2])] = "out"
            leg_dir[(b[1], b[2])] = "in"
        else:
            s, j = ends[0][1], ends[0][2]
            leg_dir[(s, j)] = "out"

    ports: dict[tuple[int, int], Port] = {}
    for s, (kind, label, legs) in enumerate(stmts):
        ins = [j for j in range(len(legs)) if leg_dir[(s, j)] == "in"]
        outs = [j for j in range(len(legs)) if leg_dir[(s, j)] == "out"]
        if kind == "box" and ins:
            raise DiagramError(f"box {label!r} ended up with an input leg")
        nid = bld.add_node(
            kind,
            [space_of[legs[j]] for j in ins],
            [space_of[legs[j]] for j in outs],
            label if kind == "box" else "",
        )
        node_ids.append(nid)
        for slot, j in enumerate(ins):
            ports[(s, j)] = ("i", nid, slot)
        for slot, j in enumerate(outs):
            ports[(s, j)] = ("o", nid, slot)

    for name, places in occur.items():
        ends = [p for p in places if p[0] == "stmt"]
        if len(ends) == 2:
            a = next(p for p in ends if leg_dir[(p[1], p[2])] == "out")
            b = next(p for p in ends if leg_dir[(p[1], p[2])] == "in")
            bld.wire(ports[(a[1], a[2])], ports[(b[1], b[2])])
        else:
            k = next(p[2] for p in places if p[0] == "boundary")
            bld.wire(ports[(ends[0][1], ends[0][2])], ("O", k))
    return bld.diagram()
