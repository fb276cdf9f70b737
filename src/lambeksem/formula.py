"""Formula syntax for a non-associative Lambek calculus with two modal families.

Formulas are built from atoms with the binary connectives ``*`` (product),
``/`` (rightward implication) and ``\\`` (leftward implication), plus a
residuated pair of unary modalities per mode.  Mode ``x`` licenses controlled
restructuring (its diamond marks movable hypotheses), mode ``i`` demarcates
islands and has no structural behaviour at all.

Concrete syntax::

    F ::= atom | (F) | F/F | F\\F | F*F | <m>F | [m]F      m in {x, i}

``/`` chains associate to the right, ``\\`` chains to the left, and mixed
slash chains at equal precedence are rejected; products must be bracketed
explicitly.  Modal prefixes bind tightest, slashes bind tighter than ``*``.
"""

from __future__ import annotations

import enum
from typing import Iterator


class Mode(str, enum.Enum):
    """Modal family marker: X = extraction, I = island."""

    X = "x"
    I = "i"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Polarity(enum.Enum):
    POS = 1
    NEG = -1

    def flip(self) -> "Polarity":
        return Polarity.NEG if self is Polarity.POS else Polarity.POS


class FormulaError(ValueError):
    """Raised for lexical, parse and path errors on formulas."""


class Formula:
    """Base class; concrete nodes are Atom, Tensor, Over, Under, Dia, Box.

    Every node stores figures derived from its children's when it is built:
    ``size`` (connective and atom nodes), ``depth`` (nodes on the longest
    root-to-atom path), ``n_atoms`` (atom occurrences) and the hash.
    Equality compares ``_parts``, the tuple of the node's fields;
    ``_counts`` keeps the result of :func:`count_vector`.
    """

    __slots__ = ("_parts", "_hash", "size", "depth", "n_atoms", "_counts")

    def _binary(self, tag: str, a: "Formula", b: "Formula") -> None:
        self._parts = (a, b)
        self._hash = hash((tag, a._hash, b._hash))
        self.size = 1 + a.size + b.size
        self.depth = 1 + max(a.depth, b.depth)
        self.n_atoms = a.n_atoms + b.n_atoms
        self._counts = None

    def _modal(self, tag: str, mode: "Mode", body: "Formula") -> None:
        self._parts = (mode, body)
        self._hash = hash((tag, mode.value, body._hash))
        self.size = 1 + body.size
        self.depth = 1 + body.depth
        self.n_atoms = body.n_atoms
        self._counts = None

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not type(self) or other._hash != self._hash:
            return False
        if self.depth <= MAX_DEPTH:
            return other._parts == self._parts
        # the tuple comparison recurses once per level, so a formula
        # deeper than the parser allows is compared by a walk instead
        pairs = list(zip(self._parts, other._parts))
        while pairs:
            a, b = pairs.pop()
            if not isinstance(a, Formula):
                if a != b:
                    return False
            elif a is not b:
                if type(b) is not type(a) or b._hash != a._hash:
                    return False
                pairs += zip(a._parts, b._parts)
        return True

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"{type(self).__name__}({print_formula(self)!r})"

    def __str__(self) -> str:
        return print_formula(self)


class Atom(Formula):
    __slots__ = ("name",)
    __match_args__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self._parts = (name,)
        self._hash = hash(("a", name))
        self.size = self.depth = self.n_atoms = 1
        self._counts = None


class Tensor(Formula):
    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        self.left = left
        self.right = right
        self._binary("t", left, right)


class Over(Formula):
    """``result / arg``: seeks its argument to the right."""

    __slots__ = ("result", "arg")
    __match_args__ = ("result", "arg")

    def __init__(self, result: Formula, arg: Formula):
        self.result = result
        self.arg = arg
        self._binary("o", result, arg)


class Under(Formula):
    """``arg \\ result``: seeks its argument to the left."""

    __slots__ = ("arg", "result")
    __match_args__ = ("arg", "result")

    def __init__(self, arg: Formula, result: Formula):
        self.arg = arg
        self.result = result
        self._binary("u", arg, result)


class Dia(Formula):
    __slots__ = ("mode", "body")
    __match_args__ = ("mode", "body")

    def __init__(self, mode: Mode, body: Formula):
        self.mode = mode
        self.body = body
        self._modal("d", mode, body)


class Box(Formula):
    __slots__ = ("mode", "body")
    __match_args__ = ("mode", "body")

    def __init__(self, mode: Mode, body: Formula):
        self.mode = mode
        self.body = body
        self._modal("b", mode, body)


def share(f: Formula, table: dict) -> Formula:
    """``f`` with each subformula that equals one in ``table`` replaced
    by that one, and its other subformulas added: the formulas shared
    through one table are equal only when they are the same object, so
    a dict keyed on them finds its key by identity, without comparing
    subformulas.  It recurses once per level, so it takes formulas no
    deeper than the parser allows (``MAX_DEPTH``)."""
    got = table.get(f)
    if got is None:
        if type(f) is not Atom:
            f = type(f)(*(share(p, table) if isinstance(p, Formula) else p for p in f._parts))
        got = table[f] = f
    return got


# ---------------------------------------------------------------------------
# Lexing / parsing


_PUNCT = {"(", ")", "/", "\\", "*", "<", ">", "[", "]"}


def _lex(text: str) -> list[tuple[str, str, int]]:
    """Tokenize into (kind, value, position) triples.

    Kinds: 'ident', or one of the punctuation characters as its own kind.
    """
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _PUNCT:
            out.append((c, c, i))
            i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("ident", text[i:j], i))
            i = j
            continue
        raise FormulaError(f"unexpected character {c!r} at position {i}")
    return out


# Bounds the parser's recursion and the depth of the formulas it returns,
# so that hostile input is refused before any recursive walk meets it.
MAX_DEPTH = 100


class _Parser:
    def __init__(self, text: str, atoms: set[str] | None):
        self.text = text
        self.toks = _lex(text)
        self.pos = 0
        self.atoms = atoms
        self.nesting = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self, kind: str | None = None) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise FormulaError(f"unexpected end of input in {self.text!r}")
        if kind is not None and tok[0] != kind:
            raise FormulaError(
                f"expected {kind!r} but found {tok[1]!r} at position {tok[2]}"
            )
        self.pos += 1
        return tok

    def parse(self) -> Formula:
        f = self.expr()
        tok = self.peek()
        if tok is not None:
            raise FormulaError(f"trailing input {tok[1]!r} at position {tok[2]}")
        if f.depth > MAX_DEPTH:
            raise FormulaError(f"formula is deeper than {MAX_DEPTH} levels")
        return f

    def expr(self) -> Formula:
        left = self.slashes()
        tok = self.peek()
        if tok is not None and tok[0] == "*":
            self.take("*")
            right = self.slashes()
            nxt = self.peek()
            if nxt is not None and nxt[0] == "*":
                raise FormulaError(
                    f"ambiguous '*' chain at position {nxt[2]}; "
                    "products are non-associative, add parentheses"
                )
            return Tensor(left, right)
        return left

    def slashes(self) -> Formula:
        items = [self.prefixed()]
        ops: list[tuple[str, int]] = []
        while True:
            tok = self.peek()
            if tok is None or tok[0] not in ("/", "\\"):
                break
            ops.append((tok[0], tok[2]))
            self.take()
            items.append(self.prefixed())
        if not ops:
            return items[0]
        kinds = {op for op, _ in ops}
        if len(kinds) > 1:
            _, pos = ops[1]
            raise FormulaError(
                f"mixed '/' and '\\' chain at position {pos}; add parentheses"
            )
        if kinds == {"/"}:
            # right-associating: a/b/c = a/(b/c)
            acc = items[-1]
            for item in reversed(items[:-1]):
                acc = Over(item, acc)
            return acc
        # left-associating: a\b\c = (a\b)\c
        acc = Under(items[0], items[1])
        for item in items[2:]:
            acc = Under(acc, item)
        return acc

    def prefixed(self) -> Formula:
        tok = self.peek()
        if tok is None:
            raise FormulaError(f"unexpected end of input in {self.text!r}")
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise FormulaError(
                f"formula nests deeper than {MAX_DEPTH} levels at position {tok[2]}"
            )
        if tok[0] in ("<", "["):
            close, node = (">", Dia) if tok[0] == "<" else ("]", Box)
            self.take()
            mode = self.mode()
            self.take(close)
            f = node(mode, self.prefixed())
        else:
            f = self.base()
        self.nesting -= 1
        return f

    def mode(self) -> Mode:
        kind, value, pos = self.take("ident")
        try:
            return Mode(value)
        except ValueError:
            raise FormulaError(f"unknown mode {value!r} at position {pos}") from None

    def base(self) -> Formula:
        kind, value, pos = self.take()
        if kind == "(":
            f = self.expr()
            self.take(")")
            return f
        if kind == "ident":
            if self.atoms is not None and value not in self.atoms:
                raise FormulaError(f"unknown atom {value!r} at position {pos}")
            return Atom(value)
        raise FormulaError(f"unexpected token {value!r} at position {pos}")


def parse_formula(text: str, atoms: set[str] | None = None) -> Formula:
    """Parse concrete syntax into a Formula.

    When ``atoms`` is given, identifiers outside the set are rejected.
    Formulas nesting deeper than ``MAX_DEPTH`` are rejected.
    """
    return _Parser(text, atoms).parse()


def _needs_parens(child: Formula, side: str, parent: str) -> bool:
    # parent in {'over','under','tensor','modal'}; side in {'l','r'}
    if isinstance(child, (Atom, Dia, Box)):
        return False
    if parent == "modal":
        return True
    if parent == "tensor":
        # slashes bind tighter than '*'; '*' chains are always bracketed
        return isinstance(child, Tensor)
    if parent == "over":
        if side == "l":
            return True  # (a/b)/c, (a\b)/c, (a*b)/c all need brackets
        return isinstance(child, (Tensor, Under))  # a/b/c reads a/(b/c)
    # parent == 'under'
    if side == "l":
        return isinstance(child, (Tensor, Over))  # a\b\c reads (a\b)\c
    return True


def print_formula(f: Formula) -> str:
    """Minimal-parenthesis rendering; ``parse_formula`` round-trips it.
    The pieces are written from a stack, not by recursion, so a formula
    built in code prints whatever its depth."""
    out: list[str] = []
    stack: list = [f]
    while stack:
        g = stack.pop()
        t = type(g)
        if t is str:
            out.append(g)
            continue
        if t is Atom:
            out.append(g.name)
            continue
        # (child, side) pairs and the connective between them
        if t is Tensor:
            parent, pieces = "tensor", ((g.left, "l"), "*", (g.right, "r"))
        elif t is Over:
            parent, pieces = "over", ((g.result, "l"), "/", (g.arg, "r"))
        elif t is Under:
            parent, pieces = "under", ((g.arg, "l"), "\\", (g.result, "r"))
        elif t is Dia:
            parent, pieces = "modal", (f"<{g.mode.value}>", (g.body, "l"))
        elif t is Box:
            parent, pieces = "modal", (f"[{g.mode.value}]", (g.body, "l"))
        else:
            raise TypeError(f"not a formula: {g!r}")
        for piece in reversed(pieces):
            if type(piece) is str:
                stack.append(piece)
            elif _needs_parens(piece[0], piece[1], parent):
                stack += (")", piece[0], "(")
            else:
                stack.append(piece[0])
    return "".join(out)


# ---------------------------------------------------------------------------
# Paths and polarity

# A path is a tuple of steps: 'L' / 'R' for the printed left/right child of a
# binary connective, 'B' for a modal body.

Path = tuple[str, ...]


def _children(f: Formula) -> dict[str, Formula]:
    match f:
        case Tensor(l, r):
            return {"L": l, "R": r}
        case Over(res, arg):
            return {"L": res, "R": arg}
        case Under(arg, res):
            return {"L": arg, "R": res}
        case Dia(_, body) | Box(_, body):
            return {"B": body}
    return {}


def format_path(path: Path) -> str:
    return ".".join(path) if path else "(root)"


def subformula_at(f: Formula, path: Path) -> Formula:
    cur = f
    for i, step in enumerate(path):
        kids = _children(cur)
        if step not in kids:
            raise FormulaError(
                f"no subformula at {format_path(path)}: step {step!r} fails at "
                f"{format_path(path[:i])} in {print_formula(f)}"
            )
        cur = kids[step]
    return cur


# The index in ``_parts`` of the child each step names, per node type; a
# node is rebuilt from its ``_parts`` in order.
_STEP_PART = {
    (Tensor, "L"): 0, (Tensor, "R"): 1,
    (Over, "L"): 0, (Over, "R"): 1,
    (Under, "L"): 0, (Under, "R"): 1,
    (Dia, "B"): 1, (Box, "B"): 1,
}


def replace_at(f: Formula, path: Path, new: Formula) -> Formula:
    """``f`` with the subformula at ``path`` replaced by ``new``."""
    above = []
    for step in path:
        i = _STEP_PART.get((type(f), step))
        if i is None:
            raise FormulaError(
                f"no subformula at step {step!r} in {print_formula(f)}"
            )
        above.append((f, i))
        f = f._parts[i]
    for node, i in reversed(above):
        a, b = node._parts
        new = type(node)(new, b) if i == 0 else type(node)(a, new)
    return new


def polarity_at(f: Formula, path: Path, outer: Polarity = Polarity.POS) -> Polarity:
    """Polarity of the subformula at ``path``: arguments of / and \\ flip."""
    cur = f
    pol = outer
    for step in path:
        match cur:
            case Over(res, arg):
                if step == "R":
                    pol = pol.flip()
                cur = res if step == "L" else arg
            case Under(arg, res):
                if step == "L":
                    pol = pol.flip()
                cur = arg if step == "L" else res
            case _:
                kids = _children(cur)
                if step not in kids:
                    raise FormulaError(
                        f"no subformula at {format_path(path)} in {print_formula(f)}"
                    )
                cur = kids[step]
    return pol


def iter_atoms(
    f: Formula, outer: Polarity = Polarity.POS
) -> Iterator[tuple[Path, str, Polarity]]:
    """Yield (path, atom name, polarity) in preorder (= printed order)."""
    stack = [((), f, outer)]
    while stack:
        path, g, pol = stack.pop()
        match g:
            case Atom(name):
                yield path, name, pol
            case Tensor(l, r):
                stack += [(path + ("R",), r, pol), (path + ("L",), l, pol)]
            case Over(res, arg):
                stack += [(path + ("R",), arg, pol.flip()), (path + ("L",), res, pol)]
            case Under(arg, res):
                stack += [(path + ("R",), res, pol), (path + ("L",), arg, pol.flip())]
            case Dia(_, body) | Box(_, body):
                stack.append((path + ("B",), body, pol))


def _merge(a: dict[str, int], b: dict[str, int], sign: int) -> dict[str, int]:
    out = dict(a)
    for k, v in b.items():
        n = out.get(k, 0) + sign * v
        if n:
            out[k] = n
        else:
            del out[k]
    return out


def count_vector(f: Formula) -> dict[str, int]:
    """Signed occurrence count per atom (+1 positive, -1 negative), and per
    mode the signed balance of diamonds (+1) against boxes (-1) under the
    key ``<m>``, which no atom name can be; no zero entries.  Every rule of
    the calculus preserves it.  Computed on first use and kept on the node."""
    counts = f._counts
    if counts is not None:
        return counts
    if f.depth > MAX_DEPTH:
        # deeper than the parser allows: count the uncounted subformulas
        # first, deepest first, so that no call below recurses further
        below, stack = [], list(f._parts)
        while stack:
            g = stack.pop()
            if isinstance(g, Formula) and g._counts is None:
                below.append(g)
                stack += g._parts
        for g in reversed(below):
            count_vector(g)
    match f:
        case Atom(name):
            counts = {name: 1}
        case Tensor(l, r):
            counts = _merge(count_vector(l), count_vector(r), 1)
        case Over(res, arg) | Under(arg, res):
            counts = _merge(count_vector(res), count_vector(arg), -1)
        case Dia(mode, body):
            counts = _merge(count_vector(body), {f"<{mode.value}>": 1}, 1)
        case Box(mode, body):
            counts = _merge(count_vector(body), {f"<{mode.value}>": 1}, -1)
    f._counts = counts
    return counts
