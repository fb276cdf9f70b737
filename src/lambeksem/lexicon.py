"""Lexicons: typed words, derived entries, and their Frobenius networks.

A lexicon file is line oriented.  Blank lines and ``#`` comments pass
through untouched; an entry line reads

    word :: type [:: sem=<network>] [:: derived-from=<word> steps=<list>]

Types may use the ``iv`` macro for ``np\\s``.  A derived entry records
the type-shifting steps that produce its type from a base entry of
another word (usually the same word's plain type); loading replays the
steps and refuses the file if the printed result differs.  Steps:

    geach(C)            the whole type X/Z becomes (X/C)/(Z/C)
    distribute          pushes a /C inside a product or a boxed adjunct
    expand(a, F)        the unique, antitone atom ``a`` becomes F
    drop_modal(a, k)    strips <x>[x] off the k-th decorated ``a``
    add_modal(a, k)     wraps the k-th occurrence of ``a`` in <x>[x]

``geach``, ``expand``, ``drop_modal`` and ``add_modal`` are justified
by derivable arrows, which ``run_pipeline`` proves for the loader and
``derive-type`` alike.  The ``distribute`` step is a lexical postulate
with no underlying arrow; it re-scopes at the meaning level instead.

Every entry owns a semantic state: either a named Frobenius network
from the registry or, by default, a single content box labelled with
the word.  The state's boundary must match the interpretation of the
entry's type, which loading also checks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .diagram import Builder, Diagram, box, compose, frobenius_network, tensor_par
from .formula import (
    Atom,
    Box,
    Dia,
    Formula,
    FormulaError,
    Mode,
    Over,
    Path,
    Polarity,
    Tensor,
    Under,
    iter_atoms,
    parse_formula,
    polarity_at,
    print_formula,
    replace_at,
    share,
    subformula_at,
)
from .prover import Arrow, SearchConfig, prove
from .translate import interpret_type


class LexiconError(ValueError):
    pass


IV = Under(Atom("np"), Atom("s"))


def parse_type(text: str) -> Formula:
    """Parse a type, expanding the ``iv`` macro."""
    f = parse_formula(text)
    for path, name, _ in list(iter_atoms(f)):
        if name == "iv":
            f = replace_at(f, path, IV)
    return f


# -- the step DSL used in lexicon files
#
# Each step finds its own position in the current type, rewrites it and
# returns the new type with the arrow that justifies the move, or None
# for a lexical postulate.  ``run_pipeline`` proves every arrow.


def _kth(hits: list, k: str, what: str, f: Formula):
    if not k.isdigit() or int(k) >= len(hits):
        raise LexiconError(
            f"{print_formula(f)} has {len(hits)} {what}; no number {k}"
        )
    return hits[int(k)]


def _geach(f: Formula, arg: str):
    """X/Z becomes (X/C)/(Z/C); derivable when C carries the extraction
    marking, which licenses the rebracketing it needs."""
    match f:
        case Over(x, z):
            c = parse_type(arg)
            new = Over(Over(x, c), Over(z, c))
            return new, Arrow(f, new)
    raise LexiconError(f"geach wants a slash type, got {print_formula(f)}")


def _distribute(f: Formula):
    """The first (A*B)/C at an antitone position becomes (A/C)*(B/C);
    failing that, the first boxed adjunct [m](A\\B)/C becomes
    [m]((A/C)\\(B/C)).

    Both duplicate C, which no linear proof can do, so the step is a
    lexical postulate with no arrow."""
    boxed = None
    stack: list[tuple[Path, Formula]] = [((), f)]
    while stack:
        path, sub = stack.pop()
        match sub:
            case Over(Tensor(a, b), c) if polarity_at(f, path) is Polarity.NEG:
                return replace_at(f, path, Tensor(Over(a, c), Over(b, c))), None
            case Over(Box(m, Under(a, b)), c) if boxed is None:
                boxed = path, Box(m, Under(Over(a, c), Over(b, c)))
        match sub:
            case Tensor(l, r) | Over(l, r) | Under(l, r):
                stack += [(path + ("R",), r), (path + ("L",), l)]
            case Dia(_, b) | Box(_, b):
                stack.append((path + ("B",), b))
    if boxed is None:
        raise LexiconError(
            "distribute wants (A*B)/C at an antitone position or "
            f"[m](A\\B)/C, none in {print_formula(f)}"
        )
    return replace_at(f, *boxed), None


def _expand(f: Formula, name: str, replacement: str):
    """The one occurrence of atom ``name``, which must sit at an antitone
    position, becomes the replacement formula."""
    hits = [(p, pol) for p, a, pol in iter_atoms(f) if a == name]
    if len(hits) != 1:
        raise LexiconError(
            f"expand wants exactly one {name!r} in {print_formula(f)}, "
            f"found {len(hits)}"
        )
    path, pol = hits[0]
    if pol is not Polarity.NEG:
        raise LexiconError(
            f"expand only applies at antitone positions, not to {name!r} "
            f"in {print_formula(f)}"
        )
    new = replace_at(f, path, parse_type(replacement))
    return new, Arrow(f, new)


def _drop_modal(f: Formula, name: str, k: str):
    """Strip <x>[x] off the k-th decorated occurrence of atom ``name``."""
    decorated = Dia(Mode.X, Box(Mode.X, Atom(name)))
    hits = [
        (p[:-2], pol)
        for p, a, pol in iter_atoms(f)
        if a == name and len(p) >= 2 and subformula_at(f, p[:-2]) == decorated
    ]
    path, pol = _kth(hits, k, f"decorated {name!r}", f)
    new = replace_at(f, path, Atom(name))
    # <x>[x]a -> a: the decorated type derives the plain one at a
    # monotone position, the plain one the decorated at an antitone one
    return new, Arrow(f, new) if pol is Polarity.POS else Arrow(new, f)


def _add_modal(f: Formula, name: str, k: str):
    """Wrap the k-th occurrence of atom ``name`` in <x>[x]."""
    hits = [(p, pol) for p, a, pol in iter_atoms(f) if a == name]
    path, pol = _kth(hits, k, f"{name!r} atoms", f)
    new = replace_at(f, path, Dia(Mode.X, Box(Mode.X, Atom(name))))
    # as for drop_modal, with the decorated type now on the new side
    return new, Arrow(new, f) if pol is Polarity.POS else Arrow(f, new)


# op -> (step function, number of arguments)
_STEPS = {
    "geach": (_geach, 1),
    "distribute": (_distribute, 0),
    "expand": (_expand, 2),
    "drop_modal": (_drop_modal, 2),
    "add_modal": (_add_modal, 2),
}

_STEP_RE = re.compile(r"^(\w+)(?:\((.*)\))?$")


def parse_steps(text: str) -> tuple[tuple[str, tuple[str, ...]], ...]:
    steps = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        m = _STEP_RE.match(chunk)
        if not m:
            raise LexiconError(f"cannot parse step {chunk!r}")
        op, raw_args = m.group(1), m.group(2)
        if op not in _STEPS:
            raise LexiconError(f"unknown step {op!r}")
        args = tuple(a.strip() for a in (raw_args or "").split(",") if a.strip())
        arity = _STEPS[op][1]
        if len(args) != arity:
            raise LexiconError(
                f"{op} takes {arity} argument(s), got {len(args)} in {chunk!r}"
            )
        steps.append((op, args))
    return tuple(steps)


_CHECK_CONFIG = SearchConfig(max_proof_size=20)


def run_pipeline(f: Formula, steps) -> list[tuple[Formula, Arrow | None]]:
    """Run a step list and return the row after each step, paired with
    the arrow that justifies it (None for the distribution postulate).

    This is where steps are justified: every arrow is proven once, and
    a step whose arrow has no proof is refused."""
    if isinstance(steps, str):
        steps = parse_steps(steps)
    rows: list[tuple[Formula, Arrow | None]] = []
    for op, args in steps:
        new, arrow = _STEPS[op][0](f, *args)
        if arrow is not None:
            result = prove(arrow, _CHECK_CONFIG)
            if not result.ok:
                verdict = (
                    "undecided within budget" if result.bounded else "not derivable"
                )
                raise LexiconError(
                    f"step {op}({','.join(args)}): arrow "
                    f"{print_formula(arrow.source)} -> "
                    f"{print_formula(arrow.target)} is {verdict}"
                )
        rows.append((new, arrow))
        f = new
    return rows


# -- conjoinability (for coordination)


def is_conjoinable(f: Formula) -> bool:
    """Conjoinable types: s, and any slash type whose result is."""
    match f:
        case Atom("s"):
            return True
        case Over(result, _) | Under(_, result):
            return is_conjoinable(result)
    return False


def conjoin_states(f: Formula, p: Diagram, q: Diagram) -> Diagram:
    """Pointwise meet of two word meanings of a conjoinable type.

    Implemented wire by wire with merging spiders, which on basis
    inputs reduces to the usual clause: the conjunction applied to an
    argument is the meet of the two applications.
    """
    if not is_conjoinable(f):
        raise LexiconError(f"{print_formula(f)} is not a conjoinable type")
    wtype = interpret_type(f)
    if tuple(p.outputs) != tuple(wtype) or tuple(q.outputs) != tuple(wtype):
        raise LexiconError("conjoin_states: boundary mismatch")
    both = tensor_par(p, q)
    bld = Builder()
    for sp, dl in both.outputs:
        bld.add_input(sp, dl)
    n = len(wtype)
    for k, (sp, dl) in enumerate(wtype):
        bld.add_output(sp, dl)
        nid = bld.add_node("spider", (sp, sp), (sp,))
        bld.wire(("I", k), ("i", nid, 0))
        bld.wire(("I", n + k), ("i", nid, 1))
        bld.wire(("o", nid, 0), ("O", k))
    return compose(both, bld.diagram())


# -- named Frobenius networks


NETWORKS: dict[str, str] = {
    # relative pronoun: merge head noun, output and gap; discard the
    # clause's sentence wire
    "relative": """
        out h o gap sv
        spider N : h o gap
        spider S : sv
    """,
    # co-argument relative pronoun: the subject factor's result feeds
    # the verb factor's subject; head, output and both gaps merge
    "relative_coarg": """
        out h o vgap vs vsubj sgap sres
        spider N : h o vgap sgap
        spider N : vsubj sres
        spider S : vs
    """,
    # two-gap relative pronoun: both gaps merge with the head; the
    # complement factor plugs into the hypothetical complement slot
    "relative_two_gap": """
        out h o cgap cs csubj pgap hypn hyps sv
        spider N : h o cgap pgap
        spider N : csubj hypn
        spider S : cs hyps
        spider S : sv
    """,
    # coordinating adjunct: one spider per space merges the host
    # phrase, the result and the adjunct complement
    "coord_adjunct": """
        out hs hsubj rsubj rs gs gsubj
        spider N : hsubj rsubj gsubj
        spider S : hs rs gs
    """,
    # the same with a shared gap threaded through all three parts
    "coord_adjunct_gap": """
        out hgap hs hsubj rsubj rs rgap ggap gs gsubj
        spider N : hsubj rsubj gsubj
        spider S : hs rs gs
        spider N : hgap rgap ggap
    """,
    # object-control wrapper: lexical content plus a copy of the object
    # into the complement's understood subject
    "control_verb": """
        out subj s cs csubj obj
        box @ : subj s cs x
        spider N : x csubj obj
    """,
}


@dataclass(frozen=True)
class LexEntry:
    word: str
    syn: Formula
    syn_text: str
    sem: str | None = None  # network name; None means a plain content box
    derived_from: str | None = None
    steps_text: str | None = None

    def state(self) -> Diagram:
        """The entry's meaning as a closed diagram."""
        wtype = interpret_type(self.syn)
        if self.sem is None:
            return box(self.word, (), wtype)
        try:
            spec = NETWORKS[self.sem]
        except KeyError:
            raise LexiconError(f"unknown network {self.sem!r}") from None
        return frobenius_network(spec, out_types=wtype, word=self.word)


class Lexicon:
    def __init__(self):
        self.entries: list[LexEntry] = []
        self._raw: list[str] = []
        self._by_word: dict[str, list[LexEntry]] = {}
        self._states: dict[LexEntry, Diagram] = {}
        # every entry's type and subformulas, one object per formula
        self._formulas: dict[Formula, Formula] = {}

    # -- building

    def add(self, line: str) -> LexEntry | None:
        """Add one file line (entry, comment, or blank)."""
        self._raw.append(line.rstrip("\n"))
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            return None
        fields = [f.strip() for f in stripped.split("::")]
        if len(fields) < 2:
            raise LexiconError(f"cannot parse lexicon line {line!r}")
        word, syn_text = fields[0], fields[1]
        if not word or " " in word:
            raise LexiconError(f"bad word token {word!r}")
        try:
            syn = share(parse_type(syn_text), self._formulas)
        except FormulaError as err:
            raise LexiconError(f"{word}: bad type {syn_text!r}: {err}") from None
        sem = None
        derived_from = None
        steps_text = None
        for extra in fields[2:]:
            parts = extra.split()
            for part in parts:
                key, _, value = part.partition("=")
                match key:
                    case "sem":
                        sem = value
                    case "derived-from":
                        derived_from = value
                    case "steps":
                        steps_text = value
                    case _:
                        raise LexiconError(f"unknown entry field {part!r}")
        entry = LexEntry(word, syn, syn_text, sem, derived_from, steps_text)
        state = self._validate(entry)
        self.entries.append(entry)
        self._by_word.setdefault(word, []).append(entry)
        self._states[entry] = state
        return entry

    def _validate(self, entry: LexEntry) -> Diagram:
        """Check an entry against the lexicon; returns its meaning."""
        # the semantic boundary must interpret the type
        state = entry.state()
        state.validate()
        if (entry.derived_from is None) != (entry.steps_text is None):
            raise LexiconError(
                f"{entry.word}: derived-from and steps come together"
            )
        if entry.derived_from is not None:
            self.replay(entry)
        return state

    def replay(
        self, entry: LexEntry
    ) -> tuple[Formula, list[tuple[Formula, Arrow | None]]]:
        """The base type and the ``run_pipeline`` rows by which the steps
        of a derived entry reproduce its type, from the first entry of
        its ``derived-from`` word that they reproduce it from; raises
        LexiconError when there is none.  The loader accepts an entry
        through this, and ``derive-type`` prints what it returns."""
        bases = self._by_word.get(entry.derived_from)
        if not bases:
            raise LexiconError(
                f"{entry.word}: derived from unknown word {entry.derived_from!r}"
            )
        failures = []
        for base in bases:
            try:
                rows = run_pipeline(base.syn, entry.steps_text)
            except LexiconError as err:
                failures.append(str(err))
                continue
            derived = rows[-1][0] if rows else base.syn
            if derived == entry.syn:
                return base.syn, rows
            failures.append(f"steps give {print_formula(derived)}")
        raise LexiconError(
            f"{entry.word}: replaying steps from {entry.derived_from!r} does not "
            f"reproduce {print_formula(entry.syn)} ({'; '.join(failures)})"
        )

    # -- lookup

    def types(self, word: str) -> tuple[Formula, ...]:
        return tuple(e.syn for e in self._by_word.get(word, ()))

    def entry(self, word: str, syn: Formula) -> LexEntry:
        for e in self._by_word.get(word, ()):
            if e.syn == syn:
                return e
        raise LexiconError(f"no entry {word} :: {print_formula(syn)}")

    def state(self, word: str, syn: Formula) -> Diagram:
        """The meaning network of the entry ``word :: syn``.

        Each entry's network is built once, when the entry is added, and
        every call returns that diagram: entries are frozen and diagrams
        immutable, so it is safe to share.  The lexicon keeps one network
        per entry, so what it keeps is bounded by its own entries."""
        return self._states[self.entry(word, syn)]

    def states(self, words, types) -> list[Diagram]:
        return [self.state(w, t) for w, t in zip(words, types)]

    def __contains__(self, word: str) -> bool:
        return word in self._by_word

    # -- serialization

    @classmethod
    def loads(cls, text: str) -> "Lexicon":
        lex = cls()
        for line in text.splitlines():
            lex.add(line)
        return lex

    @classmethod
    def load(cls, path) -> "Lexicon":
        with open(path, encoding="utf-8") as fh:
            return cls.loads(fh.read())

    def dumps(self) -> str:
        return "\n".join(self._raw) + "\n"

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())


def builtin_lexicon() -> Lexicon:
    """The lexicon shipped with the package."""
    from importlib.resources import files

    text = files("lambeksem").joinpath("data/english.lex").read_text(encoding="utf-8")
    return Lexicon.loads(text)
