"""Formula syntax: parsing, printing, paths, polarity, counts."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambeksem.formula import (
    Atom,
    Box,
    Dia,
    FormulaError,
    MAX_DEPTH,
    Mode,
    Over,
    Polarity,
    Tensor,
    Under,
    count_vector,
    iter_atoms,
    parse_formula,
    polarity_at,
    print_formula,
    replace_at,
    subformula_at,
)
from conftest import random_formula


def atoms_st():
    return st.sampled_from(["np", "n", "s", "gp", "pp", "x", "y"])


modes_st = st.sampled_from([Mode.X, Mode.I])

# max_leaves bounds the nesting of constructors; drawn formulas still
# reach depth 10
formulas_st = st.recursive(
    atoms_st().map(Atom),
    lambda sub: st.one_of(
        st.tuples(sub, sub).map(lambda p: Tensor(*p)),
        st.tuples(sub, sub).map(lambda p: Over(*p)),
        st.tuples(sub, sub).map(lambda p: Under(*p)),
        st.tuples(modes_st, sub).map(lambda p: Dia(*p)),
        st.tuples(modes_st, sub).map(lambda p: Box(*p)),
    ),
    max_leaves=10_000,
)


@settings(max_examples=300)
@given(formulas_st)
def test_parse_print_round_trip(f):
    assert parse_formula(print_formula(f)) == f


def test_concrete_syntax_fixtures():
    cases = {
        "np": Atom("np"),
        "(np\\s)/np": Over(Under(Atom("np"), Atom("s")), Atom("np")),
        "<x>[x]np": Dia(Mode.X, Box(Mode.X, Atom("np"))),
        "[i](np\\s)": Box(Mode.I, Under(Atom("np"), Atom("s"))),
        "n*(n\\n)": Tensor(Atom("n"), Under(Atom("n"), Atom("n"))),
    }
    for text, expected in cases.items():
        assert parse_formula(text) == expected


def test_print_is_minimal_and_reparses():
    f = parse_formula("(n\\n)/(s/<x>[x]np)")
    out = print_formula(f)
    assert parse_formula(out) == f
    # modal prefixes bind tightest, slashes tighter than the product
    assert print_formula(parse_formula("<x>np*s")) == "<x>np*s"
    assert parse_formula("<x>np*s") == Tensor(Dia(Mode.X, Atom("np")), Atom("s"))


def test_print_takes_any_depth():
    # formulas as deep as the parser allows round-trip
    for text in ("<x>" * (MAX_DEPTH - 1) + "np", "/".join(["np"] * MAX_DEPTH),
                 "(" * (MAX_DEPTH - 2) + "np" + "\\np)" * (MAX_DEPTH - 2) + "\\np"):
        f = parse_formula(text)
        assert f.depth == MAX_DEPTH
        assert parse_formula(print_formula(f)) == f
    # far deeper ones built in code print without running out of stack
    right = left = Atom("np")
    for _ in range(2999):
        right, left = Over(Atom("np"), right), Over(left, Atom("np"))
    assert print_formula(right) == "/".join(["np"] * 3000)
    assert print_formula(left) == "(" * 2998 + "np" + "/np)" * 2998 + "/np"


def test_counts_and_equality_take_any_depth():
    # chains built in code may be far deeper than the parser allows; the
    # count and the comparison walk them without running out of stack
    def chain(depth, leaf):
        f = Atom("s")
        for _ in range(depth):
            f = Over(f, Atom(leaf))
        return f

    deep, again, other = chain(3000, "np"), chain(3000, "np"), chain(3000, "n")
    assert count_vector(deep) == {"s": 1, "np": -3000}
    assert deep == again and deep is not again
    assert deep != other and again != Over(other, Atom("np"))
    assert count_vector(Tensor(deep, Box(Mode.X, Dia(Mode.X, other)))) == {
        "s": 2, "np": -3000, "n": -3000}


def test_slash_chain_associativity():
    # / nests to the right, \ to the left
    assert parse_formula("a/b/c") == Over(Atom("a"), Over(Atom("b"), Atom("c")))
    assert parse_formula("a\\b\\c") == Under(Under(Atom("a"), Atom("b")), Atom("c"))


def test_mixed_chains_rejected():
    for text in ("a/b\\c", "a\\b/c", "a*b*c"):
        with pytest.raises(FormulaError):
            parse_formula(text)


def test_parse_errors():
    for text in ("", "np/", "(np", "<z>np", "np np"):
        with pytest.raises(FormulaError):
            parse_formula(text)
    # nesting is limited, so deep input is refused before any recursion
    # runs out of stack
    assert parse_formula("<x>" * (MAX_DEPTH - 1) + "np").depth == MAX_DEPTH
    for text in (
        "(" * 2000 + "np" + ")" * 2000,
        "<x>" * MAX_DEPTH + "np",
        "/".join(["np"] * (MAX_DEPTH + 1)),
    ):
        with pytest.raises(FormulaError, match="deeper than"):
            parse_formula(text)


def test_structural_equality_and_hash():
    a = parse_formula("(np\\s)/np")
    b = parse_formula("(np\\s)/np")
    assert a == b and hash(a) == hash(b)
    assert parse_formula("np\\(s/np)") != a


def test_paths_and_replacement():
    f = parse_formula("(n\\n)/(s/<x>[x]np)")
    assert subformula_at(f, ()) == f
    assert subformula_at(f, ("R", "L")) == Atom("s")
    g = replace_at(f, ("R", "L"), parse_formula("np*(np\\s)"))
    assert print_formula(g) == "(n\\n)/(np*np\\s)/<x>[x]np"
    assert parse_formula(print_formula(g)) == g
    with pytest.raises(FormulaError):
        subformula_at(f, ("B",))


def reference_replace_at(f, path, new):
    """``replace_at`` rebuilt step by step from each node's children."""
    if not path:
        return new
    step, rest = path[0], path[1:]
    match f:
        case Tensor(l, r) | Over(l, r) | Under(l, r):
            kids = {"L": l, "R": r}
        case Dia(_, body) | Box(_, body):
            kids = {"B": body}
        case _:
            kids = {}
    if step not in kids:
        raise FormulaError(f"no subformula at step {step!r} in {print_formula(f)}")
    sub = reference_replace_at(kids[step], rest, new)
    match f:
        case Tensor(l, r) | Over(l, r) | Under(l, r):
            return type(f)(sub, r) if step == "L" else type(f)(l, sub)
        case Dia(mode, _) | Box(mode, _):
            return type(f)(mode, sub)


def test_replace_at_matches_the_reference(rng):
    new = parse_formula("<x>[x](np*s)")
    for _ in range(200):
        f = random_formula(rng)
        for path, _, _ in iter_atoms(f):
            for end in range(len(path) + 1):
                prefix = path[:end]
                got = replace_at(f, prefix, new)
                assert got == reference_replace_at(f, prefix, new), (f, prefix)
                assert subformula_at(got, prefix) == new
            # a step past an atom, or one its parent does not have
            for bad in (path + ("L",), path[:-1] + ("B" if path[-1:] != ("B",) else "L",)):
                with pytest.raises(FormulaError) as got_err:
                    replace_at(f, bad, new)
                with pytest.raises(FormulaError) as want_err:
                    reference_replace_at(f, bad, new)
                assert str(got_err.value) == str(want_err.value)


def test_polarity_rules():
    f = parse_formula("(np\\s)/np")
    # s positive, both np occurrences negative
    pols = {(path, name): polarity_at(f, path) for path, name, _ in iter_atoms(f)}
    assert pols[(("L", "R"), "s")] is Polarity.POS
    assert pols[(("L", "L"), "np")] is Polarity.NEG
    assert pols[(("R",), "np")] is Polarity.NEG
    # modalities are transparent
    g = parse_formula("<x>[x]np")
    assert polarity_at(g, ("B", "B")) is Polarity.POS


def test_iter_atoms_matches_polarity_at():
    rng = random.Random(3)
    for _ in range(50):
        f = random_formula(rng)
        for path, name, pol in iter_atoms(f):
            assert subformula_at(f, path) == Atom(name)
            assert polarity_at(f, path) is pol


def manual_count(f, atom, sign=1):
    """Independent recursion over the polarity rules."""
    match f:
        case Atom(name):
            return sign if name == atom else 0
        case Tensor(l, r):
            return manual_count(l, atom, sign) + manual_count(r, atom, sign)
        case Over(res, arg) | Under(arg, res):
            return manual_count(res, atom, sign) + manual_count(arg, atom, -sign)
        case Dia(_, b) | Box(_, b):
            return manual_count(b, atom, sign)
    raise AssertionError(f)


def manual_modal_count(f, mode, sign=1):
    """Diamonds of ``mode`` count +1 and boxes -1, at their polarity."""
    match f:
        case Atom(_):
            return 0
        case Tensor(l, r):
            return manual_modal_count(l, mode, sign) + manual_modal_count(r, mode, sign)
        case Over(res, arg) | Under(arg, res):
            return (manual_modal_count(res, mode, sign)
                    + manual_modal_count(arg, mode, -sign))
        case Dia(m, b):
            return (sign if m is mode else 0) + manual_modal_count(b, mode, sign)
        case Box(m, b):
            return (-sign if m is mode else 0) + manual_modal_count(b, mode, sign)
    raise AssertionError(f)


def test_atom_count_fixtures():
    tv = parse_formula("(np\\s)/np")
    assert count_vector(parse_formula("np")).get("np", 0) == 1
    assert count_vector(tv).get("s", 0) == 1
    assert count_vector(tv).get("np", 0) == -2
    # seen at negative outer polarity, every count flips its sign
    assert -count_vector(tv).get("np", 0) == 2
    # the gap subtype sits under two argument positions, so it surfaces
    # positively and balances the np of the clause body
    that = parse_formula("(n\\n)/(s/<x>[x]np)")
    assert count_vector(that).get("np", 0) == 1
    assert count_vector(that).get("n", 0) == 0
    # the gap's diamond and box cancel; an island-locked head is one box down
    assert count_vector(that) == {"np": 1, "s": -1}
    assert count_vector(parse_formula("[i](np\\s)/gp")) == {
        "<i>": -1, "np": -1, "s": 1, "gp": -1,
    }


def manual_nodes(f, leaf, combine):
    """Fold ``combine(children's values)`` up from ``leaf`` at each atom."""
    match f:
        case Atom(_):
            return leaf
        case Tensor(l, r) | Over(l, r) | Under(l, r):
            return combine(manual_nodes(l, leaf, combine),
                           manual_nodes(r, leaf, combine))
        case Dia(_, b) | Box(_, b):
            return combine(manual_nodes(b, leaf, combine))
    raise AssertionError(f)


def test_atom_count_matches_manual_recursion():
    rng = random.Random(9)
    for _ in range(100):
        f = random_formula(rng)
        assert f.n_atoms == manual_nodes(f, 1, lambda *kids: sum(kids))
        for a in {name for _, name, _ in iter_atoms(f)}:
            assert count_vector(f).get(a, 0) == manual_count(f, a)
            assert -count_vector(f).get(a, 0) == manual_count(f, a, -1)
        for mode in Mode:
            key = f"<{mode.value}>"
            assert count_vector(f).get(key, 0) == manual_modal_count(f, mode)
        assert all(count_vector(f).values())


def test_size():
    assert Atom("np").size == 1
    assert parse_formula("(np\\s)/np").size == 5
    assert parse_formula("<x>[x]np").size == 3
    assert parse_formula("<x>[x]np").depth == 3
    assert parse_formula("(np\\s)/np").depth == 3
    rng = random.Random(5)
    for _ in range(100):
        f = random_formula(rng)
        assert f.size == manual_nodes(f, 1, lambda *kids: 1 + sum(kids))
        assert f.depth == manual_nodes(f, 1, lambda *kids: 1 + max(kids))
