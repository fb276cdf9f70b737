"""Arrow-style proofs and backward-chaining search for the modal calculus.

Proofs are terms over an axiomatisation with identities, composition,
monotonicity rules for every connective, evaluation/coevaluation maps for the
two slashes, the unit/counit pair for each modal family, and the two
structural arrows (alpha, sigma) that let an extraction-marked hypothesis
restructure to its use site.  Each rule is defined once, in the table
``_RULES``, which the constructors, :func:`validate` and
:func:`proof_from_dict` all read; ``translate.py`` re-encodes the rules
independently in its two cross-checked routes from proofs to diagrams.
Residuation is implemented as a derived rule, so every search step compiles
down to a term in the base system.

The search normalizes a goal by stripping slashes and boxes off the succedent
(all invertible), then branches over: axiom closure, direct monotonicity,
slash application at any covariant position, unlocking of a diamond-box pair,
and the structural moves.  An extraction hypothesis ``<x>[x]a`` over an atom
is unlocked only where it is used, as the whole antecedent of its goal
(:func:`_unlocks_at`); any other pair is unlocked at any covariant position.
Search is depth-first over a step budget with memoized failures, so results
are deterministic.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from .formula import (
    MAX_DEPTH,
    Atom,
    Box,
    Dia,
    Formula,
    Mode,
    Over,
    Path,
    Tensor,
    Under,
    count_vector,
    format_path,
    parse_formula,
    print_formula,
    replace_at,
)


class ProverError(ValueError):
    """Raised for malformed proof terms and misused prover operations."""


@dataclass(frozen=True)
class Arrow:
    source: Formula
    target: Formula

    def __str__(self) -> str:
        return f"{print_formula(self.source)} -> {print_formula(self.target)}"


# ---------------------------------------------------------------------------
# Proof terms


@dataclass(slots=True)
class ProofTerm:
    """A proof tree; ``source`` and ``target`` are computed from the rule
    table by the constructors and can be re-derived with :func:`validate`.
    Terms are never changed once built, so each hashes by all its fields,
    and keeps its hash once computed, as a formula does.  Most terms the
    search builds are never hashed, so it is computed on first use."""

    rule: str
    mode: Mode | None
    params: tuple[Formula, ...]
    children: tuple["ProofTerm", ...]
    source: Formula
    target: Formula
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.rule, self.mode, self.params, self.children,
                                   self.source, self.target))
        return h

    @property
    def arrow(self) -> Arrow:
        return Arrow(self.source, self.target)

    def __repr__(self) -> str:
        return f"ProofTerm({self.rule}: {self.arrow})"


class _Rule(NamedTuple):
    arrow: Callable[..., tuple[Formula, Formula]]
    arity: int
    modes: tuple[Mode | None, ...] = (None,)
    read: Callable[[Formula, Formula], tuple[Formula, ...]] | None = None


def _composite(mode, g, f):
    # g after f
    if f.target != g.source:
        raise ProverError(
            f"cannot compose: {print_formula(f.target)} != {print_formula(g.source)}"
        )
    return f.source, g.target


def _read_structural(s: Formula, t: Formula) -> tuple[Formula, ...]:
    return s.left.left, s.left.right, s.right.body


# Every proof rule, defined once.  ``arrow`` maps the mode and either an
# axiom's params or the proofs of the premises, whose stored endpoints it
# reads, to the rule's (source, target).  ``arity`` counts an axiom's
# params or a rule's premises.  An axiom's ``read`` takes its params back
# off (source, target), and ``validate`` then checks the arrow they give
# against those endpoints.
_RULES: dict[str, _Rule] = {
    "id": _Rule(lambda m, a: (a, a), 1, read=lambda s, t: (s,)),
    "compose": _Rule(_composite, 2),
    # premises f: A -> B and g: C -> D give A*C -> B*D, A/D -> B/C, B\C -> A\D
    "mon_tensor": _Rule(lambda m, f, g: (Tensor(f.source, g.source),
                                         Tensor(f.target, g.target)), 2),
    "mon_over": _Rule(lambda m, f, g: (Over(f.source, g.target),
                                       Over(f.target, g.source)), 2),
    "mon_under": _Rule(lambda m, f, g: (Under(f.target, g.source),
                                        Under(f.source, g.target)), 2),
    "mon_dia": _Rule(lambda m, f: (Dia(m, f.source), Dia(m, f.target)), 1, tuple(Mode)),
    "mon_box": _Rule(lambda m, f: (Box(m, f.source), Box(m, f.target)), 1, tuple(Mode)),
    "ev_over": _Rule(lambda m, a, b: (Tensor(Over(b, a), a), b), 2,
                     read=lambda s, t: (s.right, t)),
    "coev_over": _Rule(lambda m, a, b: (b, Over(Tensor(b, a), a)), 2,
                       read=lambda s, t: (t.arg, s)),
    "ev_under": _Rule(lambda m, a, b: (Tensor(a, Under(a, b)), b), 2,
                      read=lambda s, t: (s.left, t)),
    "coev_under": _Rule(lambda m, a, b: (b, Under(a, Tensor(a, b))), 2,
                        read=lambda s, t: (t.arg, s)),
    "ev_box": _Rule(lambda m, a: (Dia(m, Box(m, a)), a), 1, tuple(Mode),
                    read=lambda s, t: (t,)),
    "coev_box": _Rule(lambda m, a: (a, Box(m, Dia(m, a))), 1, tuple(Mode),
                      read=lambda s, t: (s,)),
    # the structural rules, in the extraction mode only
    "alpha": _Rule(lambda m, a, b, c: (Tensor(Tensor(a, b), dc := Dia(m, c)),
                                       Tensor(a, Tensor(b, dc))),
                   3, (Mode.X,), read=_read_structural),
    "sigma": _Rule(lambda m, a, b, c: (Tensor(Tensor(a, b), dc := Dia(m, c)),
                                       Tensor(Tensor(a, dc), b)),
                   3, (Mode.X,), read=_read_structural),
}


def _build(rule: str, mode: Mode | None, params: tuple, premises: tuple) -> ProofTerm:
    """The term applying ``rule`` in ``mode`` to an axiom's ``params`` or to
    the proofs ``premises``, whose stored endpoints are used as they are.
    Raises ProverError naming the rule on any misuse."""
    spec = _RULES.get(rule)
    if spec is None:
        raise ProverError(f"unknown rule {rule!r}")
    arrow, arity, modes, read = spec
    args, rest = (params, premises) if read else (premises, params)
    if len(args) != arity or rest:
        raise ProverError(
            f"{rule} takes {arity} {'params' if read else 'children'} and nothing "
            f"else, got {len(params)} params and {len(premises)} children"
        )
    if mode not in modes:
        allowed = " or ".join(m.value if m else "none" for m in modes)
        got = mode.value if mode else "none"
        raise ProverError(f"{rule} takes mode {allowed}, got {got}")
    source, target = arrow(mode, *args)
    return ProofTerm(rule, mode, params, premises, source, target)


def pid(a: Formula) -> ProofTerm:
    return _build("id", None, (a,), ())


def compose(g: ProofTerm, f: ProofTerm) -> ProofTerm:
    """g after f."""
    return _build("compose", None, (), (g, f))


def compose_opt(g: ProofTerm, f: ProofTerm) -> ProofTerm:
    """Composition that drops identity factors."""
    if f.rule == "id" and f.target == g.source:
        return g
    if g.rule == "id" and f.target == g.source:
        return f
    return compose(g, f)


def mon_tensor(f: ProofTerm, g: ProofTerm) -> ProofTerm:
    return _build("mon_tensor", None, (), (f, g))


def mon_tensor_opt(f: ProofTerm, g: ProofTerm) -> ProofTerm:
    """Product monotonicity that collapses a pair of identities."""
    if f.rule == "id" and g.rule == "id":
        return pid(Tensor(f.source, g.source))
    return mon_tensor(f, g)


def mon_over(f: ProofTerm, g: ProofTerm) -> ProofTerm:
    return _build("mon_over", None, (), (f, g))


def mon_under(f: ProofTerm, g: ProofTerm) -> ProofTerm:
    return _build("mon_under", None, (), (f, g))


def mon_dia(mode: Mode, f: ProofTerm) -> ProofTerm:
    return _build("mon_dia", mode, (), (f,))


def mon_box(mode: Mode, f: ProofTerm) -> ProofTerm:
    return _build("mon_box", mode, (), (f,))


def ev_over(a: Formula, b: Formula) -> ProofTerm:
    return _build("ev_over", None, (a, b), ())


def coev_over(a: Formula, b: Formula) -> ProofTerm:
    return _build("coev_over", None, (a, b), ())


def ev_under(a: Formula, b: Formula) -> ProofTerm:
    return _build("ev_under", None, (a, b), ())


def coev_under(a: Formula, b: Formula) -> ProofTerm:
    return _build("coev_under", None, (a, b), ())


def ev_box(mode: Mode, a: Formula) -> ProofTerm:
    return _build("ev_box", mode, (a,), ())


def coev_box(mode: Mode, a: Formula) -> ProofTerm:
    return _build("coev_box", mode, (a,), ())


def alpha(a: Formula, b: Formula, c: Formula) -> ProofTerm:
    return _build("alpha", Mode.X, (a, b, c), ())


def sigma(a: Formula, b: Formula, c: Formula) -> ProofTerm:
    return _build("sigma", Mode.X, (a, b, c), ())


def validate(term: ProofTerm) -> Arrow:
    """Recompute the endpoints of ``term`` from the rule table, premises
    first; raises ProverError on any misapplied rule or stored endpoint
    that disagrees."""
    for child in term.children:
        validate(child)
    got = _build(term.rule, term.mode, term.params, term.children).arrow
    if got != term.arrow:
        raise ProverError(
            f"stored endpoints disagree for {term.rule}: {got} vs {term.arrow}"
        )
    return got


# ---------------------------------------------------------------------------
# Lifting arrows into a context


def _lift(ctx: Formula, path: Path, inner: ProofTerm) -> ProofTerm:
    """Lift an arrow on a covariant subformula position to the whole formula."""
    if not path:
        return inner
    step, rest = path[0], path[1:]
    match ctx:
        case Tensor(l, r):
            if step == "L":
                return mon_tensor(_lift(l, rest, inner), pid(r))
            if step == "R":
                return mon_tensor(pid(l), _lift(r, rest, inner))
        case Dia(mode, body):
            if step == "B":
                return mon_dia(mode, _lift(body, rest, inner))
        case Box(mode, body):
            if step == "B":
                return mon_box(mode, _lift(body, rest, inner))
    raise ProverError(
        f"cannot lift through {format_path(path)} in {print_formula(ctx)}: "
        "only product and modal positions are covariant"
    )


# ---------------------------------------------------------------------------
# Search


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the backward-chaining search.

    ``max_proof_size`` counts non-invertible steps (applications,
    monotonicity splits, modal unlocks, structural moves); identities and
    residuation bookkeeping are free.  Chains of consecutive structural
    moves on one goal line are capped at twice the antecedent tree depth
    of the goal at hand, which bounds the churn any single diamond
    hypothesis can cause.  An extraction hypothesis ``<x>[x]a`` over an
    atom is unlocked only as the whole antecedent (:func:`_unlocks_at`),
    so ``find_all`` does not list proofs that differ only in where it is
    unlocked.  ``count_pruning`` compares atom and modal
    counts once per top-level goal and once per branch, before the branch
    is built; it also turns on the chart of :func:`derive_sentence`, which
    checks the goal as it checks any argument and keeps from the prover
    the bracketings with a split that cannot reach it.  The arrows the
    chart checks are decided by a prover under this config, without
    ``find_all``, and kept per config across a process's searches
    (:func:`_checks`, at most ``CHECKS_CONFIGS`` configs and
    ``CHECKS_SIZE`` arguments and arrows each).
    Disabling ``memoize`` or ``count_pruning`` is only useful for
    conservativity tests; ``count_pruning=False`` is the unpruned
    reference.  A config is frozen, as it is part of the key under which
    :func:`derive_sentence` keeps a search's result.  With ``find_all``, a
    sentence search returns at most ``max_proofs`` parses, and one that
    stops there reports ``bounded``, as it may have left parses unfound.
    """

    max_proof_size: int = 40
    find_all: bool = False
    max_proofs: int = 64
    memoize: bool = True
    count_pruning: bool = True


@dataclass
class SearchStats:
    goals_expanded: int = 0
    deepest_failure: Arrow | None = None

    def record_failure(self, lhs: Formula, rhs: Formula) -> None:
        """Keep the failed goal with the largest antecedent."""
        if self.deepest_failure is None or lhs.size > self.deepest_failure.source.size:
            self.deepest_failure = Arrow(lhs, rhs)


@dataclass
class SearchResult:
    proofs: tuple[ProofTerm, ...]
    bounded: bool
    stats: SearchStats

    @property
    def ok(self) -> bool:
        return bool(self.proofs)


def _strip(lhs: Formula, rhs: Formula):
    """Strip slashes and boxes off the succedent (invertible steps)."""
    steps: list[tuple[str, Formula | Mode]] = []
    while True:
        match rhs:
            case Over(c, b):
                steps.append(("over", b))
                lhs, rhs = Tensor(lhs, b), c
            case Under(a, c):
                steps.append(("under", a))
                lhs, rhs = Tensor(a, lhs), c
            case Box(m, b):
                steps.append(("box", m))
                lhs, rhs = Dia(m, lhs), b
            case _:
                return lhs, rhs, steps


def _unstrip(term: ProofTerm, steps) -> ProofTerm:
    """Rebuild a proof of the unstripped goal from a proof of the stripped one."""
    for kind, param in reversed(steps):
        src = term.source
        if kind == "over":
            # term: L*B -> C  becomes  L -> C/B
            assert isinstance(src, Tensor)
            l, b = src.left, src.right
            term = compose(mon_over(term, pid(b)), coev_over(b, l))
        elif kind == "under":
            # term: A*L -> C  becomes  L -> A\C
            assert isinstance(src, Tensor)
            a, l = src.left, src.right
            term = compose(mon_under(pid(a), term), coev_under(a, l))
        else:
            # term: <m>L -> B  becomes  L -> [m]B
            assert isinstance(src, Dia)
            m, l = src.mode, src.body
            term = compose(mon_box(m, term), coev_box(m, l))
    return term


def _covariant_positions(f: Formula) -> list[tuple[Path, Formula]]:
    """Preorder list of the product and diamond positions reachable
    through products and modals: the only nodes an application, an
    unlock or a structural move rewrites."""
    out = []
    stack = [((), f)]
    while stack:
        path, g = stack.pop()
        if type(g) is Tensor:
            out.append((path, g))
            stack.append((path + ("R",), g.right))
            stack.append((path + ("L",), g.left))
        elif type(g) is Dia:
            out.append((path, g))
            stack.append((path + ("B",), g.body))
        elif type(g) is Box:
            stack.append((path + ("B",), g.body))
    return out


def _unlocks_at(path: Path, sub: Dia) -> bool:
    """Whether the search unlocks the diamond-box pair ``sub`` at ``path``
    in the antecedent.  An extraction hypothesis ``<x>[x]a`` over an atom
    is unlocked only as the whole antecedent: the bare ``a`` it leaves
    can no longer move (alpha and sigma move only ``<x>`` formulas) and
    is used only as an argument or matched by monotonicity, and either
    way the search meets ``<x>[x]a -> a`` at its root.  An island pair,
    or a hypothesis over a non-atomic formula, which acts as a functor
    once unlocked, is unlocked anywhere."""
    return not path or sub.mode is not Mode.X or type(sub.body.body) is not Atom


class Prover:
    """Backward-chaining prover with shared memo tables.

    Reusing one instance across many goals (as the sentence search does)
    shares failure caches between them.
    """

    def __init__(self, config: SearchConfig | None = None):
        self.config = config or SearchConfig()
        self._perm_fail: set = set()
        self._fail_at: dict = {}
        self._success: dict = {}
        self.stats = SearchStats()

    # -- public API

    def prove(self, goal: Arrow) -> SearchResult:
        """Search for proofs of ``goal``.  With ``count_pruning``, a goal
        whose two sides have different counts is refused here, before any
        goal is expanded: every rule and the stripping of the succedent
        keep the count difference, and ``_branches`` drops the subgoals
        that would fail it, so no goal below the root can."""
        self.stats = SearchStats()
        source, target = goal.source, goal.target
        if (
            self.config.count_pruning
            and source != target
            and count_vector(source) != count_vector(target)
        ):
            return SearchResult((), False, self.stats)
        proofs, cut = self._search(source, target, self.config.max_proof_size, 0)
        terms = []
        for term, _size in proofs:
            if term.source != source or term.target != target:
                raise ProverError("internal error: proof endpoints drifted")
            terms.append(term)
        return SearchResult(tuple(terms), cut, self.stats)

    # -- core search

    def _search(self, lhs0, rhs0, budget, consec):
        """Proofs of ``lhs0 -> rhs0`` within ``budget``, with the cut flag.
        The goal's counts are not checked here: ``prove`` checks them once
        at the root and ``_branches`` once per branch."""
        if lhs0 == rhs0:
            return [(pid(lhs0), 0)], False
        lhs, rhs, steps = _strip(lhs0, rhs0)
        key = (lhs, rhs, consec)
        if self.config.memoize:
            if key in self._perm_fail:
                return [], False
            failed_at = self._fail_at.get(key)
            if failed_at is not None and budget <= failed_at:
                return [], True
            if not self.config.find_all:
                hit = self._success.get(key)
                if hit is not None and hit[1] <= budget:
                    return [(_unstrip(hit[0], steps), hit[1])], False

        self.stats.goals_expanded += 1
        found: list[tuple[ProofTerm, int]] = []
        cut = False
        limit = 1 if not self.config.find_all else self.config.max_proofs

        if lhs == rhs:
            # close by identity, and only by identity
            found.append((pid(lhs), 0))
        else:
            # at budget 0 any branch, even a count-failing one, means a cut
            prune = self.config.count_pruning and budget >= 1
            for first, second, build, new_consec in self._branches(
                lhs, rhs, consec, prune
            ):
                if budget < 1:
                    cut = True
                    break
                sols, sub_cut = self._prove_list(
                    first, second, budget - 1, new_consec, limit - len(found)
                )
                cut = cut or sub_cut
                for terms, total in sols:
                    found.append((build(terms), total + 1))
                if len(found) >= limit:
                    break

        if not found:
            self.stats.record_failure(lhs, rhs)
            if self.config.memoize:
                if cut:
                    prev = self._fail_at.get(key, -1)
                    if budget > prev:
                        self._fail_at[key] = budget
                else:
                    self._perm_fail.add(key)
            return [], cut
        if self.config.memoize and not self.config.find_all:
            term, size_ = found[0]
            prev = self._success.get(key)
            if prev is None or size_ < prev[1]:
                self._success[key] = (term, size_)
        return [(_unstrip(t, steps), s) for t, s in found], cut

    def _prove_list(self, first, second, budget, consec, limit):
        """Joint proofs of the goal ``first`` and, unless ``second`` is
        None, of the goal that ``second()`` builds; it is called only once
        ``first`` has a proof.  Returns (solutions, cut) where each
        solution is (terms tuple, total size).

        The structural-chain counter applies to the first goal only; the
        second is a fresh antecedent.
        """
        sols, cut = self._search(first[0], first[1], budget, consec)
        if second is None:
            return [((term,), size_) for term, size_ in sols[:limit]], cut
        out: list[tuple[tuple[ProofTerm, ...], int]] = []
        if not sols:
            return out, cut
        goal2 = second()
        for term, size_ in sols:
            sols2, cut2 = self._search(goal2[0], goal2[1], budget - size_, 0)
            cut = cut or cut2
            for term2, size2 in sols2:
                out.append(((term, term2), size_ + size2))
                if len(out) >= limit:
                    return out, cut
        return out, cut

    def _branches(self, lhs, rhs, consec, prune):
        """Enumerate (first goal, second goal builder or None, build,
        consec') in the documented order: direct monotonicity,
        applications, modal unlock, alpha, sigma.  Identity closure is
        handled before branching.

        With ``prune``, a two-goal branch whose first goal fails the count
        check is dropped before anything is built, since ``_search`` would
        reject that goal at once; the second goal then always passes it.
        """
        # direct monotonicity on the (stripped) succedent
        if type(rhs) is Tensor and type(lhs) is Tensor:
            a, b, c, d = lhs.left, lhs.right, rhs.left, rhs.right
            if not (prune and count_vector(a) != count_vector(c)):
                yield (
                    (a, c),
                    lambda b=b, d=d: (b, d),
                    lambda ts: mon_tensor(ts[0], ts[1]),
                    0,
                )
        if type(rhs) is Dia and type(lhs) is Dia and lhs.mode is rhs.mode:
            m, a, b = lhs.mode, lhs.body, rhs.body
            yield (a, b), None, lambda ts, m=m: mon_dia(m, ts[0]), 0
        positions = _covariant_positions(lhs)
        # slash applications at any covariant product node
        for path, sub in positions:
            if type(sub) is not Tensor:
                continue
            l, r = sub.left, sub.right
            if type(l) is Over:
                res, arg = l.result, l.arg
                if not (prune and count_vector(r) != count_vector(arg)):

                    def build_fwd(ts, path=path, l=l, res=res, arg=arg):
                        g, rest = ts[0], ts[1]
                        inner = compose_opt(ev_over(arg, res), mon_tensor_opt(pid(l), g))
                        return compose_opt(rest, _lift(lhs, path, inner))

                    yield (
                        (r, arg),
                        lambda path=path, res=res: (replace_at(lhs, path, res), rhs),
                        build_fwd,
                        0,
                    )
            if type(r) is Under:
                arg, res = r.arg, r.result
                if not (prune and count_vector(l) != count_vector(arg)):

                    def build_bwd(ts, path=path, r=r, res=res, arg=arg):
                        g, rest = ts[0], ts[1]
                        inner = compose_opt(ev_under(arg, res), mon_tensor_opt(g, pid(r)))
                        return compose_opt(rest, _lift(lhs, path, inner))

                    yield (
                        (l, arg),
                        lambda path=path, res=res: (replace_at(lhs, path, res), rhs),
                        build_bwd,
                        0,
                    )
        # unlock a diamond-box pair
        for path, sub in positions:
            if (
                type(sub) is Dia
                and type(sub.body) is Box
                and sub.body.mode is sub.mode
                and _unlocks_at(path, sub)
            ):
                inner_f = sub.body.body
                rewritten = replace_at(lhs, path, inner_f)

                def build_unlock(ts, path=path, m=sub.mode, a=inner_f):
                    return compose_opt(ts[0], _lift(lhs, path, ev_box(m, a)))

                yield (rewritten, rhs), None, build_unlock, 0
        # structural moves, alpha before sigma; a move's target is read off
        # the parts of ``sub``, and its term is built once the branch has
        # a proof
        if consec < 2 * lhs.depth:
            for rule in (alpha, sigma):
                for path, sub in positions:
                    if not (
                        type(sub) is Tensor
                        and type(sub.left) is Tensor
                        and type(sub.right) is Dia
                        and sub.right.mode is Mode.X
                    ):
                        continue
                    a, b, dc = sub.left.left, sub.left.right, sub.right
                    if rule is alpha:
                        target = Tensor(a, Tensor(b, dc))
                    else:
                        target = Tensor(Tensor(a, dc), b)
                    rewritten = replace_at(lhs, path, target)

                    def build_struct(ts, path=path, rule=rule, a=a, b=b, c=dc.body):
                        return compose_opt(ts[0], _lift(lhs, path, rule(a, b, c)))

                    yield (rewritten, rhs), None, build_struct, consec + 1


def prove(goal: Arrow, config: SearchConfig | None = None) -> SearchResult:
    """One-shot proof search for a single arrow."""
    return Prover(config).prove(goal)


# ---------------------------------------------------------------------------
# Sentence-level search


@dataclass(frozen=True)
class BracketNode:
    """A binary bracketing over word indices; ``wrap`` marks island brackets."""

    left: "BracketNode | BracketLeaf"
    right: "BracketNode | BracketLeaf"
    wrap: bool = False


@dataclass(frozen=True)
class BracketLeaf:
    index: int
    wrap: bool = False


_TOO_DEEP = f"bracketing nests deeper than {MAX_DEPTH} levels"


def _check_bracketing(tree, n: int) -> None:
    """Refuse a bracketing built in code that :func:`parse_bracketing`
    would not give: its leaves, left to right, must be the words 0..n-1
    in order, and it may nest no deeper than a parsed one."""
    out_of_order = "bracketing leaves must be the sentence words in order"
    stack = [(tree, 1)]
    expected = 0
    while stack:
        node, depth = stack.pop()
        if depth > MAX_DEPTH:
            raise ProverError(_TOO_DEEP)
        if isinstance(node, BracketNode):
            stack += ((node.right, depth + 1), (node.left, depth + 1))
        elif node.index != expected:
            raise ProverError(out_of_order)
        else:
            expected += 1
    if expected != n:
        raise ProverError(out_of_order)


def _wrap_total(tree) -> int:
    """The number of island wraps in the bracketing ``tree``."""
    stack, total = [tree], 0
    while stack:
        node = stack.pop()
        total += node.wrap
        if isinstance(node, BracketNode):
            stack += (node.left, node.right)
    return total


def format_bracketing(tree, words: Sequence[str]) -> str:
    if isinstance(tree, BracketLeaf):
        s = words[tree.index]
    else:
        s = f"({format_bracketing(tree.left, words)} {format_bracketing(tree.right, words)})"
    return f"i:{s}" if tree.wrap else s


def parse_bracketing(text: str, words: Sequence[str]):
    """Parse ``(w1 (w2 w3))`` style bracketings; ``i:(...)`` marks an island.
    Nesting deeper than ``MAX_DEPTH`` is refused, as for formulas."""
    toks = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0
    next_word = 0

    def peek() -> str:
        if pos >= len(toks):
            raise ProverError(f"bracketing {text!r} ends unexpectedly")
        return toks[pos]

    def node(depth: int):
        nonlocal pos, next_word
        if depth > MAX_DEPTH:
            raise ProverError(_TOO_DEEP)
        wrap = False
        tok = peek()
        if tok == "i:":
            wrap = True
            pos += 1
            tok = peek()
        elif tok.startswith("i:") and tok != "i:":
            toks[pos] = tok[2:]
            wrap = True
            tok = toks[pos]
        if tok == "(":
            pos += 1
            left = node(depth + 1)
            right = node(depth + 1)
            if peek() != ")":
                raise ProverError(f"expected ')' in bracketing {text!r}")
            pos += 1
            return BracketNode(left, right, wrap)
        pos += 1
        if next_word >= len(words) or tok != words[next_word]:
            raise ProverError(
                f"bracketing word {tok!r} does not match sentence word "
                f"{words[next_word] if next_word < len(words) else '<end>'!r}"
            )
        idx = next_word
        next_word += 1
        return BracketLeaf(idx, wrap)

    tree = node(1)
    if pos != len(toks) or next_word != len(words):
        raise ProverError(f"bracketing {text!r} does not cover the sentence")
    return tree


def _bracketings(types: Sequence[Formula], splits: Mapping | None = None,
                 i: int = 0, j: int | None = None) -> Iterator:
    """The binary trees over the leaves i..j-1, all of ``types`` unless
    given, fully right-branching first, each with its antecedent: a
    leaf's type, and the ``Tensor`` of a node's halves.  ``splits`` maps
    a span (i, j) to the split points its trees may use, in order; a
    span it does not name has no trees.  The trees are then those of the
    full enumeration whose every node uses a listed split, in the same
    order.  Nothing is kept: a right half's trees are built again for
    each left half."""
    j = len(types) if j is None else j
    if j == i + 1:
        yield BracketLeaf(i), types[i]
        return
    for k in range(i + 1, j) if splits is None else splits.get((i, j), ()):
        for left, fl in _bracketings(types, splits, i, k):
            for right, fr in _bracketings(types, splits, k, j):
                yield BracketNode(left, right), Tensor(fl, fr)


def _locked(f: Formula) -> bool:
    """True for types whose result spine is box-sealed (island-locked heads)."""
    while isinstance(f, Over):
        f = f.result
    return isinstance(f, Box)


def _antecedent(tree, types: Sequence[Formula]) -> Formula:
    """The antecedent formula of the bracketing ``tree`` over ``types``:
    a leaf's type, the ``Tensor`` of a node's halves, each under ``<i>``
    where it is wrapped."""
    if isinstance(tree, BracketLeaf):
        f = types[tree.index]
    else:
        f = Tensor(_antecedent(tree.left, types), _antecedent(tree.right, types))
    return Dia(Mode.I, f) if tree.wrap else f


def _island_wraps(tree, antecedent: Formula, locked_leaves: set[int], k: int) -> Iterator:
    """The tree, which has no wrap and has the antecedent ``antecedent``,
    with ``k`` island wraps, and its antecedent, for each set of ``k``
    constituents whose leftmost words are distinct box-locked words (one
    wrap per locked word is all that is ever useful), nested ones
    included, in the lexicographic preorder of the constituents.  The
    nodes a preorder walk pops since the last leaf are the left spine
    down to the next leaf, its leftmost word."""
    if not k:
        yield tree, antecedent
        return
    starts, stack, spine = [], [(tree, ())], []
    while stack:
        node, above = stack.pop()
        spine.append((node, above))
        if isinstance(node, BracketNode):
            above += (id(node),)
            stack += ((node.right, above), (node.left, above))
            continue
        if node.index in locked_leaves:
            starts += ((sub, above, node.index) for sub, above in spine)
        spine = []
    for chosen in itertools.combinations(starts, k):
        if len({leaf for _, _, leaf in chosen}) == k:
            wrapped = {id(sub) for sub, _, _ in chosen}
            touched = wrapped.union(*(above for _, above, _ in chosen))
            yield _rewrap(tree, antecedent, wrapped, touched)


def _rewrap(node, f: Formula, wrapped: set, touched: set):
    """``node``, whose antecedent is ``f``, with a wrap over each subtree
    whose ``id`` is in ``wrapped``, and its antecedent; ``touched`` adds
    the ids of the nodes above them.  The formula is rewritten in step
    with the tree: a node's is the ``Tensor`` of its halves', and a wrap
    adds ``<i>``."""
    if id(node) not in touched:
        return node, f
    if isinstance(node, BracketLeaf):
        return BracketLeaf(node.index, True), Dia(Mode.I, f)
    left, fl = _rewrap(node.left, f.left, wrapped, touched)
    right, fr = _rewrap(node.right, f.right, wrapped, touched)
    if id(node) in wrapped:
        return BracketNode(left, right, True), Dia(Mode.I, Tensor(fl, fr))
    return BracketNode(left, right), Tensor(fl, fr)


# ---------------------------------------------------------------------------
# The chart: what each constituent can reduce to


# The most extraction hypotheses a chart class counts; a constituent that
# would hold more is assumed to prove what it must.
_MAX_HYPS = 2


def _hyp_atom(f: Formula) -> str | None:
    """``a`` for an extraction hypothesis ``<x>[x]a``, else None."""
    if (
        isinstance(f, Dia) and f.mode is Mode.X
        and isinstance(f.body, Box) and f.body.mode is Mode.X
        and isinstance(f.body.body, Atom)
    ):
        return f.body.body.name
    return None


def _msum(a: tuple, b: tuple) -> tuple:
    """The union of two multisets kept as sorted tuples."""
    return tuple(sorted(a + b)) if a and b else a or b


def _mdiff(a: tuple, b: tuple) -> tuple | None:
    """``a`` less the multiset ``b``, or None when ``b`` is not in ``a``."""
    rest = list(a)
    for x in b:
        if x not in rest:
            return None
        rest.remove(x)
    return tuple(rest)


def _join(c1, c2, k: int):
    """The class of a constituent made of parts of classes ``c1`` and
    ``c2``, or None when it holds over ``k`` wraps or too many hypotheses."""
    (w1, h1), (w2, h2) = c1, c2
    if w1 + w2 > k or len(h1) + len(h2) > _MAX_HYPS:
        return None
    return w1 + w2, _msum(h1, h2)


def _spine(t: Formula) -> list[Formula]:
    """``t`` and the formulas on its result spine, read through slashes
    and boxes: what a word of type ``t`` can reduce to by application
    and unlock."""
    out = [t]
    while isinstance(t, (Over, Under, Box)):
        t = t.body if isinstance(t, Box) else t.result
        out.append(t)
    return out


def _reducible(t: Formula) -> bool:
    """True for a lexical type the chart models: its result spine ends
    in an atom, with no product or diamond on it."""
    return isinstance(_spine(t)[-1], Atom)


def _plain(f: Formula) -> bool:
    """No product and no diamond anywhere in ``f``."""
    match f:
        case Atom():
            return True
        case Over(a, b) | Under(a, b):
            return _plain(a) and _plain(b)
        case Box(_, body):
            return _plain(body)
    return False


def _simple(c: Formula) -> bool:
    """True when stripping ``c`` adds only plain hypotheses and ends in
    an atom.  No structural rule can then apply, so a constituent proves
    ``c`` exactly when a formula it fully reduces to does."""
    while True:
        match c:
            case Over(res, hyp) | Under(hyp, res):
                if not _plain(hyp):
                    return False
                c = res
            case Box(_, body):
                c = body
            case Atom():
                return True
            case _:
                return False


def _kind(arg: Formula):
    """How a constituent is checked against the argument ``arg``, as
    (kind, hypotheses, rest).  'gap': proving ``arg`` adds the
    hypotheses ``<x>[x]a`` (their atoms, sorted) at its right and leaves
    the simple ``rest``; 'product'; 'simple'; or 'other', for the prover
    on the constituent itself."""
    hyps, rest = [], arg
    while isinstance(rest, Over) and (a := _hyp_atom(rest.arg)) is not None:
        hyps.append(a)
        rest = rest.result
    if hyps and _simple(rest):
        return "gap", tuple(sorted(hyps)), rest
    if isinstance(arg, Tensor):
        return "product", (), arg
    return "simple" if _simple(arg) else "other", (), arg


class _Checks:
    """The arrows the charts ask about, each decided once by a prover of
    their own, so that a search's prover and its memo tables see the
    same goals as without the charts.

    A process keeps one ``_Checks`` per config across its searches
    (:func:`_checks`): a verdict is a fact about the arrow and the
    config, whichever search asked first.  It decides at most
    ``CHECKS_SIZE`` arguments and arrows; the next new one starts it
    afresh, with a new prover and empty tables."""

    def __init__(self, config: SearchConfig):
        self.config = replace(config, find_all=False)
        self._clear()

    def _clear(self) -> None:
        self.prover = Prover(self.config)
        self._kinds: dict = {}
        self._derives: dict = {}
        self._hyps: dict = {}

    def size(self) -> int:
        """The arguments and arrows decided since the checks last started."""
        return len(self._kinds) + len(self._derives)

    def kind(self, arg: Formula):
        got = self._kinds.get(arg)
        if got is None:
            if self.size() >= CHECKS_SIZE:
                self._clear()
            got = self._kinds[arg] = _kind(arg)
        return got

    def hyp(self, a: str) -> Formula:
        """The hypothesis ``<x>[x]a``, one object per atom."""
        f = self._hyps.get(a)
        if f is None:
            f = self._hyps[a] = Dia(Mode.X, Box(Mode.X, Atom(a)))
        return f

    def derives(self, source: Formula, target: Formula) -> bool:
        """False only when the prover exhausts ``source -> target``."""
        if source == target:
            return True
        key = (source, target)
        ok = self._derives.get(key)
        if ok is None:
            if self.size() >= CHECKS_SIZE:
                self._clear()
            result = self.prover.prove(Arrow(source, target))
            ok = self._derives[key] = result.ok or result.bounded
        return ok


# The most arguments and arrows one config's chart checks decide before
# they start afresh, and the most configs whose checks a process keeps.
CHECKS_SIZE = 4096
CHECKS_CONFIGS = 8


@functools.lru_cache(maxsize=CHECKS_CONFIGS)
def _checks(config: SearchConfig) -> _Checks:
    """The chart checks of the searches under ``config``, kept across a
    process's searches, least recently used config dropped first;
    ``_checks.cache_clear()`` drops them all, and ``cache_info()`` counts
    the configs kept."""
    return _Checks(config)


class _Chart:
    """What the constituents of one lexical assignment can reduce to.

    By slash application and island unlock, what a constituent fully reduces
    to depends only on its words.  An item is (class, formula), and a class
    (w, hyps) says how many island wraps the constituent holds, at most the
    candidates' wrap count ``k`` (an unlock adds one), and which extraction
    hypotheses ``<x>[x]a`` it holds (their atoms, sorted).  Alpha and sigma
    can move a hypothesis from the right of a constituent to the right of
    any node in it outside an island, where the node's formula consumes it;
    hypotheses at one node stack, in either order.  An argument is proved by
    a formula the constituent reduces to when it is simple, by one the
    constituent with the argument's own hypotheses reduces to when it is
    ``A/<x>[x]a...``, by the two halves of its top split when it is a
    product (only a product of constituents proves one), and otherwise by
    the prover on the constituent.

    ``_items[i, j]`` unites the items of every tree over the words i..j-1,
    indexed by formula: it maps each formula to its classes, and each
    class to the splits and items that derive the item (there the
    prover's part is assumed to succeed).  So an atomic argument finds
    its classes in one probe, and a simple or gap argument is checked
    once per distinct formula.  The ways a span can be any other
    argument are worked out once per (argument, span) and shared by
    every functor and split that asks.  Read down from the items that
    prove the goal, checked as any argument is, the derivations give the
    splits a candidate can use at each span (``splits``).  A tree whose
    every node uses such a split may still not reach the goal, since a
    split is kept for any item some tree needs there; ``Prover.prove``
    decides every tree the chart yields.

    Every check errs towards keeping: a cut prover counts as a proof,
    and a constituent that would hold more than ``_MAX_HYPS`` hypotheses,
    or one from outside inside a product argument, is assumed to prove
    what it must.  So a candidate the prover can prove at any budget is
    never skipped.  The arrow checks are ``checks``, which a process keeps
    per config across its searches (:func:`_checks`).
    """

    def __init__(self, types, locked, goal, k: int, checks: _Checks):
        self.types, self.checks, self.k = types, checks, k
        n = len(types)
        # the product arguments and the hypotheses the goal and types add
        self.products = set()
        names = set()
        args = [goal] + [f.arg for t in types for f in _spine(t) if isinstance(f, (Over, Under))]
        while args:
            arg = args.pop()
            kind, hyps, _ = checks.kind(arg)
            names.update(hyps)
            if kind == "product":
                self.products.add(arg)
                args += (arg.left, arg.right)
        self.names = sorted(names)
        self.hyp_sets = [()] + [
            hs for size in range(1, _MAX_HYPS + 1)
            for hs in itertools.combinations_with_replacement(self.names, size)
        ]
        # the most wraps a span can hold: one per word of it a wrap can
        # start at, counted as the locked words before each end
        self._locked_before = list(itertools.accumulate(
            (w in locked for w in range(n)), initial=0))
        self._class_lists = [[(w, hs) for w in range(most + 1) for hs in self.hyp_sets]
                             for most in range(k + 1)]
        self._ways_of: dict = {}
        self._eaten: dict = {}
        items = self._items = {}
        for width in range(1, n + 1):
            for i in range(n - width + 1):
                items[i, i + width] = self._span(i, i + width, i in locked)
        # no hypothesis left over, none too many in the goal: no need is the prover's
        self.roots = [need for c, need in self._ways(goal, 0, n) if c == (k, ())]
        self.splits = self._useful(items, n, self.roots)

    def trees(self) -> Iterator:
        """The bracketings whose every node uses a split that can reach
        the goal, each with its antecedent, in the order of the full
        enumeration; each call builds them afresh."""
        return _bracketings(self.types, self.splits) if self.roots else iter(())

    def right_branching_first(self) -> bool:
        """Whether :meth:`trees` starts with the fully right-branching
        tree, the first of the full enumeration: whether each span
        (i, n) may split after its first word."""
        n, splits = len(self.types), self.splits
        return bool(self.roots) and all(
            (i, n) in splits and splits[i, n][0] == i + 1 for i in range(n - 1))

    # -- the span table

    def _most(self, i: int, j: int) -> int:
        before = self._locked_before
        return min(self.k, before[j] - before[i])

    def _span(self, i, j, locked) -> dict:
        """The items of span (i, j) by formula, each class mapped to its
        derivations: (s, left need, right need) for a split at s, (None,
        item, None) for one from another item of the span."""
        items, k = self._items, self.k
        out: dict = {self.types[i]: {(0, ()): []}} if j == i + 1 else {}
        for s in range(i + 1, j):
            # a product argument, read as the two halves of this split;
            # hypotheses from outside it are left to _ways.  A side with
            # no items still gives the classes the prover decides.
            for p in self.products:
                for c, lneed in self._ways(p.left, i, s):
                    for c2, rneed in self._ways(p.right, s, j):
                        c2 = _join(c2, c, k)
                        if c2 and not c2[1]:
                            out.setdefault(p, {}).setdefault(c2, []).append((s, lneed, rneed))
            for f, classes in items[i, s].items():
                if type(f) is Over and (ways := self._ways(f.arg, s, j)):
                    for cl in classes:
                        for c, need in ways:
                            if joined := _join(c, cl, k):
                                out.setdefault(f.result, {}).setdefault(joined, []).append(
                                    (s, (cl, f), need))
            for f, classes in items[s, j].items():
                if type(f) is Under and (ways := self._ways(f.arg, i, s)):
                    for cr in classes:
                        for c, need in ways:
                            if joined := _join(c, cr, k):
                                out.setdefault(f.result, {}).setdefault(joined, []).append(
                                    (s, need, (cr, f)))
        if locked:
            boxed = [(c, f) for f, classes in out.items()
                     if type(f) is Box and f.mode is Mode.I for c in classes]
            for item in boxed:
                (w, hs), f = item
                if w < k and not hs:
                    out.setdefault(f.body, {}).setdefault((w + 1, ()), []).append(
                        (None, item, None))
        # hypotheses stacked at the span's node, fewest first
        for size in range(_MAX_HYPS if self.names else 0):
            held = [((w, hs), f) for f, classes in out.items()
                    if type(f) is Over and self._eats(f)
                    for w, hs in classes if len(hs) == size]
            for item in held:
                (w, hs), f = item
                for a in self._eats(f):
                    out.setdefault(f.result, {}).setdefault((w, _msum(hs, (a,))), []).append(
                        (None, item, None))
        return out

    def _eats(self, f: Over) -> list:
        """The atoms ``a`` whose hypothesis ``<x>[x]a`` ``f`` takes at its right."""
        got = self._eaten.get(f)
        if got is None:
            checks = self.checks
            got = self._eaten[f] = [a for a in self.names
                                    if checks.derives(checks.hyp(a), f.arg)]
        return got

    def _ways(self, arg, i: int, j: int):
        """(class, need) for each way the span (i, j) can be the
        argument ``arg``: the class it adds to its functor's, and the
        need, the span's item that proves it, or (class, None) where the
        prover on the span decides.  An atom is looked up; any other
        argument is worked out once per span."""
        if type(arg) is Atom:
            found = self._items[i, j].get(arg)
            if not found:
                return ()
            most = self._most(i, j)
            return [(c, (c, arg)) for c in found if c[0] <= most]
        key = (arg, i, j)
        got = self._ways_of.get(key)
        if got is None:
            got = self._ways_of[key] = list(self._find_ways(arg, i, j))
        return got

    def _find_ways(self, arg, i, j) -> Iterator:
        side = self._items[i, j]
        kind, own, rest = self.checks.kind(arg)
        if kind == "gap":
            # the side's class counts the argument's own hypotheses too,
            # which are used up inside it
            for g, classes in side.items():
                if g == rest or type(rest) is not Atom and self.checks.derives(g, rest):
                    for c in classes:
                        outer = _mdiff(c[1], own)
                        if outer is not None:
                            yield (c[0], outer), (c, g)
            # more hypotheses from outside than the classes count
            for c in self._class_lists[self._most(i, j)]:
                if len(c[1]) + len(own) > _MAX_HYPS:
                    yield c, (c, None)
        elif kind == "other" or kind == "product":
            held = side.get(arg, ())
            for c in self._class_lists[self._most(i, j)]:
                if kind == "other" or c[1]:
                    yield c, (c, None)
                elif c in held:
                    yield c, (c, arg)
        else:
            for g, classes in side.items():
                if self.checks.derives(g, arg):
                    for c in classes:
                        yield c, (c, g)

    @staticmethod
    def _useful(items, n, roots) -> dict:
        """The splits of each span that derive an item some derivation
        of a root item needs, widest spans first.  A span whose argument
        the prover decides keeps every split, as do the spans inside."""
        needs = {span: set() for span in items}
        needs[0, n].update(roots)
        every: set = set()
        splits: dict = {}
        for width in range(n, 1, -1):
            for i in range(n - width + 1):
                j = i + width
                if (i, j) in every:
                    splits[i, j] = range(i + 1, j)
                    for k in range(i + 1, j):
                        every.update(((i, k), (k, j)))
                    continue
                todo = list(needs[i, j])
                seen = set(todo)
                ks = set()
                while todo:
                    c, f = todo.pop()
                    for k, left, right in items[i, j][f][c]:
                        if k is None:
                            if left not in seen:
                                seen.add(left)
                                todo.append(left)
                            continue
                        ks.add(k)
                        for span, need in (((i, k), left), ((k, j), right)):
                            if need[1] is None:
                                every.add(span)
                            else:
                                needs[span].add(need)
                if ks:
                    splits[i, j] = sorted(ks)
        return splits


@dataclass(frozen=True)
class SentenceParse:
    bracketing: "BracketNode | BracketLeaf"
    types: tuple[Formula, ...]
    antecedent: Formula
    proof: ProofTerm


@dataclass(frozen=True)
class SentenceResult:
    parses: tuple[SentenceParse, ...]
    bounded: bool
    diagnostics: str

    @property
    def ok(self) -> bool:
        return bool(self.parses)


def _wrap_count(types, goal: Formula, locked: set[int], wraps: int = 0) -> int | None:
    """The one wrap count k whose candidates over the lexical assignment
    ``types`` pass the count check, or None.  No bracketing changes an
    assignment's counts, the sum of its words' own (each kept on its
    formula by ``count_vector``), so no tree is built here.  A wrap adds
    one ``<i>``: the ``wraps`` of an explicit tree count, and each of
    the k more starts at a distinct ``locked`` word."""
    have: dict = {}
    for t in types:
        for key, v in count_vector(t).items():
            have[key] = have.get(key, 0) + v
    want = dict(count_vector(goal))
    k = want.pop("<i>", 0) - have.pop("<i>", 0) - wraps
    if 0 <= k <= len(locked) and want == {a: v for a, v in have.items() if v}:
        return k
    return None


class _Deepest:
    """The failed goal with the largest antecedent, the first of its
    size in search order, as ``SearchStats.record_failure`` keeps it.
    A goal is offered as the size of its antecedent and a function,
    with its arguments, that builds it; only the goal kept at the end
    is built, and only when a search ends without a parse."""

    def __init__(self):
        self.size, self._goal = 0, None

    def offer(self, size: int, build: Callable[..., Arrow], *args) -> None:
        if size > self.size:
            self.size, self._goal = size, (build, args)

    def goal(self) -> Arrow | None:
        return None if self._goal is None else self._goal[0](*self._goal[1])


def _first_goal(types, tree, locked: set[int], k: int, goal: Formula) -> Arrow:
    """The stripped goal of the first candidate over ``types`` with
    ``k`` island wraps, on the explicit ``tree``, or on the
    right-branching tree when it is None."""
    first = next(_bracketings(types)) if tree is None else (tree, _antecedent(tree, types))
    lhs, rhs, _ = _strip(next(_island_wraps(*first, locked, k))[1], goal)
    return Arrow(lhs, rhs)


def _candidates(choices, goal, tree, config, deepest: _Deepest) -> Iterator:
    """The candidates of a sentence search, in order, as (assignment,
    tree, antecedent): per lexical assignment, the explicit bracketing
    ``tree``, or each bracketing when it is None, with k island wraps,
    for the one k the counts fix (every k from 0 to the number of locked
    words without ``count_pruning``).  An explicit bracketing with a
    wrap is taken as it is.  Nothing of an assignment the count check
    skips is built: its counts are its words' own (:func:`_wrap_count`).

    For each k the count check skips, the stripped goal of its first
    candidate is offered to ``deepest``, as the prover would record it.
    Its size is known without building it: a bracketing of the words
    has their sizes and a product per split, a wrap adds one, and
    stripping the goal adds the same to every antecedent.  The sizes
    grow with k, so only the largest k skipped is offered.

    When :func:`_charted` holds, each assignment's chart is built first,
    with checks kept across searches (:func:`_checks`), and only the
    candidates over the trees it yields come, for ``Prover.prove`` to
    decide one by one.  When the chart skips the first candidate, its
    stripped goal is offered to ``deepest`` too: no goal the prover
    meets on any candidate of the assignment has a larger antecedent."""
    wraps = 0 if tree is None else _wrap_total(tree)
    charted = tree is None and _charted(choices, goal, config)
    checks = None
    # what stripping the goal adds to the size of any antecedent
    growth = _strip(goal, goal)[0].size - goal.size
    for assignment in itertools.product(*choices):
        locked = set() if wraps else {i for i, t in enumerate(assignment) if _locked(t)}
        # the size of a first candidate's stripped antecedent, less the wraps added
        size = lambda: sum(t.size for t in assignment) + len(assignment) - 1 + wraps + growth
        ks = range(len(locked) + 1)
        if config.count_pruning:
            k = _wrap_count(assignment, goal, locked, wraps)
            # the largest wrap count skipped, or -1 when none is
            skipped = len(locked) - (k == len(locked))
            if skipped >= 0:
                deepest.offer(size() + skipped, _first_goal, assignment, tree, locked,
                              skipped, goal)
            if k is None:
                continue
            ks = (k,)
        if tree is not None:
            kept = ((tree, _antecedent(tree, assignment)),)
        elif charted:
            # looked up once an assignment passes the count check
            if checks is None:
                checks = _checks(config)
            chart = _Chart(assignment, locked, goal, k, checks)
            if not chart.right_branching_first():
                deepest.offer(size() + k, _first_goal, assignment, None, locked, k, goal)
            kept = chart.trees()
        else:
            kept = _bracketings(assignment)
        for bare, ante in kept:
            for w in ks:
                for cand, wrapped in _island_wraps(bare, ante, locked, w):
                    yield assignment, cand, wrapped


def _charted(choices, goal: Formula, config: SearchConfig) -> bool:
    """Whether an unbracketed search for ``goal`` builds the chart: not for
    an 'other' goal, nor one with more hypotheses than a class counts."""
    kind, own, _ = _kind(goal)
    return config.count_pruning and kind != "other" and len(own) <= _MAX_HYPS and all(
        _reducible(t) for types in choices for t in types)


MAX_SEARCH_WORDS = 14
# Without the chart every bracketing goes to the prover, so that search
# keeps the smaller cap.
MAX_UNCHARTED_WORDS = 10
# The most sentence searches kept by :func:`_derive`, least recently
# used dropped first.
SEARCH_CACHE_SIZE = 256


def derive_sentence(
    lexicon,
    words: Sequence[str],
    goal: Formula,
    bracketing=None,
    config: SearchConfig | None = None,
) -> SentenceResult:
    """Search for derivations of ``words -> goal``.

    ``lexicon`` is either a mapping from word to a sequence of type formulas
    or an object with a ``types(word)`` method.  ``bracketing`` is a
    :func:`parse_bracketing`-style tree (or its textual form); ``None``
    enumerates all binary bracketings, right-branching first, and also tries
    island brackets around constituents headed by box-locked types.  The
    bracketings are generated with their antecedents, per lexical
    assignment and only as far as the search asks for them; nothing is
    kept from one assignment to the next.  A textual bracketing is
    checked once, by the parser; a tree built in code is checked here.

    With ``count_pruning`` on, counts are checked once per lexical
    assignment here, once per top-level goal by ``Prover.prove`` and once
    per branch inside the search.  Bracketings do not change an
    assignment's counts, which are the sum of its words' own, and each
    island wrap adds one ``<i>`` diamond, so the counts fix one wrap
    count per assignment (:func:`_wrap_count`) and skip every other
    before any tree is built; a skipped count still counts its first
    candidate's goal as a failed one for the diagnostics.

    The diagnostic is settled only when a search ends without a parse.
    Until then a failed goal the search has not built, such as a skipped
    count's, is kept as its size and what builds it, and only the goal
    with the largest antecedent, the first of that size, is built.  So a
    derivable search builds no goal for its diagnostics.

    ``count_pruning`` also turns on the chart (:class:`_Chart`) for an
    unbracketed search whose words' types it models (every bundled one),
    unless the goal has a stripped hypothesis that is not plain, such as
    ``s/<x>[x](gp\\gp)``, or more than two (:func:`_charted`).  Per
    assignment, it tabulates what each span can reduce to and enumerates
    only the bracketings whose every split can reach the goal;
    ``Prover.prove`` decides each of their candidates, and no other.  The
    order of the candidates, and so the first parse's bracketing, is
    unchanged.  When the chart skips an assignment's first candidate,
    that candidate's stripped goal counts as a failed one, as for a
    skipped wrap count.  Such a search is capped at ``MAX_SEARCH_WORDS``
    words, any other unbracketed one at ``MAX_UNCHARTED_WORDS``.  A
    chart indexes each span's items by formula.  The arrows it checks
    with a prover of its own are kept per config across a process's
    searches (:func:`_checks`): at most ``CHECKS_CONFIGS`` configs, each
    deciding at most ``CHECKS_SIZE`` arguments and arrows before it
    starts afresh; ``_checks.cache_clear()`` drops them.

    The words come into the search only through their types, and the
    bracketing names them by index.  So once the input is checked here,
    the result is a function of each word's type set, the goal, the
    bracketing tree and the config alone, whatever the words are:
    :func:`_derive` computes it and keeps the last ``SEARCH_CACHE_SIZE``
    results, which are frozen and shared by every caller that asks again.
    ``lambeksem.prover._derive.cache_info()`` reads its hits and misses,
    and ``_derive.cache_clear()`` drops them, as ``_checks.cache_clear()``
    drops the chart checks.  Input errors are raised on every call and
    never kept.

    With ``config.find_all`` the result lists every parse, up to
    ``config.max_proofs``; a search that reaches that many stops there and
    reports ``bounded``, so a capped list is never passed off as complete.
    """
    if not words:
        raise ProverError("no words to parse")
    config = config or SearchConfig()
    if hasattr(lexicon, "types"):
        lookup = lexicon.types
    else:
        lookup = lambda w: lexicon[w]
    choices: list[tuple[Formula, ...]] = []
    for w in words:
        if w not in lexicon:
            raise ProverError(f"word {w!r} is not in the lexicon")
        entry_types = tuple(lookup(w))
        if not entry_types:
            raise ProverError(f"word {w!r} has no types in the lexicon")
        choices.append(entry_types)

    if bracketing is None:
        # below the smaller cap, no need to ask whether the chart prunes
        if len(words) > MAX_UNCHARTED_WORDS:
            charted = _charted(choices, goal, config)
            cap = MAX_SEARCH_WORDS if charted else MAX_UNCHARTED_WORDS
            if len(words) > cap:
                raise ProverError(
                    f"bracketing search is capped at {cap} words"
                    + ("" if charted else " for this goal and these types")
                    + "; pass an explicit bracketing"
                )
    elif isinstance(bracketing, str):
        # parsed trees are in order, cover the words and nest no deeper
        # than MAX_DEPTH
        bracketing = parse_bracketing(bracketing, words)
    else:
        # checked before it is hashed as part of the key, which recurses
        _check_bracketing(bracketing, len(words))
    return _derive(tuple(choices), goal, bracketing, config)


@functools.lru_cache(maxsize=SEARCH_CACHE_SIZE)
def _derive(choices: tuple, goal: Formula, tree, config: SearchConfig) -> SentenceResult:
    """The search of :func:`derive_sentence` over checked input: the
    type sets ``choices`` of the words, in order, and an explicit
    bracketing ``tree`` or None."""
    prover = Prover(config)
    parses: list[SentenceParse] = []
    bounded = False
    deepest = _Deepest()
    for assignment, cand, ante in _candidates(choices, goal, tree, config, deepest):
        result = prover.prove(Arrow(ante, goal))
        bounded = bounded or result.bounded
        failed = result.stats.deepest_failure
        if failed is not None:
            deepest.offer(failed.source.size, Arrow, failed.source, failed.target)
        for proof in result.proofs:
            parses.append(SentenceParse(cand, assignment, ante, proof))
            if not config.find_all:
                return SentenceResult(tuple(parses), bounded, "derivable")
        if config.find_all and len(parses) >= config.max_proofs:
            # a capped list may not be every parse
            return SentenceResult(tuple(parses[:config.max_proofs]), True, "derivable")
    if parses:
        return SentenceResult(tuple(parses), bounded, "derivable")
    diag = "no bracketing succeeded"
    failed = deepest.goal()
    if failed is not None:
        diag += f"; deepest failed subgoal: {failed}"
    return SentenceResult((), bounded, diag)


# ---------------------------------------------------------------------------
# Serialization


def proof_to_dict(term: ProofTerm) -> dict:
    d: dict = {"rule": term.rule}
    if term.mode is not None:
        d["mode"] = term.mode.value
    d["children"] = [proof_to_dict(c) for c in term.children]
    d["source"] = print_formula(term.source)
    d["target"] = print_formula(term.target)
    return d


def proof_to_json(term: ProofTerm) -> str:
    return json.dumps(proof_to_dict(term), indent=2)


def proof_from_dict(d: Mapping) -> ProofTerm:
    """Read back what :func:`proof_to_dict` writes, then validate it.  Each
    axiom's params are read off its endpoints by its table entry; malformed
    input of any kind raises ProverError naming the rule."""
    term = _term_from_dict(d)
    validate(term)
    return term


def _term_from_dict(d) -> ProofTerm:
    rule = d.get("rule") if isinstance(d, Mapping) else None
    spec = _RULES.get(rule) if isinstance(rule, str) else None
    if spec is None:
        raise ProverError(f"unknown rule {rule!r} in proof")
    children = d.get("children", [])
    if not isinstance(children, list):
        raise ProverError(f"{rule} proof children must be a list")
    try:
        mode = Mode(d["mode"]) if "mode" in d else None
        source = parse_formula(d["source"])
        target = parse_formula(d["target"])
    except KeyError as err:
        raise ProverError(f"{rule} proof has no {err.args[0]!r}") from None
    except (TypeError, ValueError) as err:
        raise ProverError(f"malformed {rule} proof: {err}") from None
    try:
        params = spec.read(source, target) if spec.read else ()
    except AttributeError:
        raise ProverError(
            f"{rule} cannot prove {print_formula(source)} -> {print_formula(target)}"
        ) from None
    premises = tuple(_term_from_dict(c) for c in children)
    return ProofTerm(rule, mode, params, premises, source, target)


def proof_from_json(text: str) -> ProofTerm:
    return proof_from_dict(json.loads(text))
