"""Lexicon files, the type-rewriting pipeline, and word states."""

import numpy as np
import pytest

from lambeksem.diagram import box
from lambeksem import lexicon as lexicon_module
from lambeksem.formula import parse_formula, print_formula
from lambeksem.lexicon import (
    LexEntry,
    LexiconError,
    Lexicon,
    builtin_lexicon,
    conjoin_states,
    is_conjoinable,
    parse_steps,
    run_pipeline,
)
from lambeksem.prover import Arrow, SearchConfig, prove
from lambeksem.translate import interpret_type
from lambeksem.tensor import TensorStore, eval_diagram

F = parse_formula
P = print_formula


# -- single steps, each run and checked by the pipeline


def last_row(f, steps):
    rows = run_pipeline(F(f), steps)
    return P(rows[-1][0]), rows[-1][1]


def test_geach_expand():
    out, arrow = last_row("a/b", "geach(<x>[x]c)")
    assert out == "(a/<x>[x]c)/b/<x>[x]c"
    assert arrow == Arrow(F("a/b"), F(out))
    with pytest.raises(LexiconError, match="slash type"):
        run_pipeline(F("a*b"), "geach(c)")


def test_s_distribute():
    # a boxed adjunct under a slash, the box carried along
    assert last_row("[i](a\\b)/c", "distribute") == ("[i]((a/c)\\(b/c))", None)
    with pytest.raises(LexiconError, match="distribute wants"):
        run_pipeline(F("(a/b)/c"), "distribute")


def test_prod_distribute_needs_antitone_position():
    assert last_row("x/((a*b)/c)", "distribute") == ("x/(a/c*b/c)", None)
    with pytest.raises(LexiconError, match="antitone"):
        run_pipeline(F("(a*b)/c"), "distribute")


def test_product_expand_checks_the_witness():
    # the witness is the lifted arrow, which the pipeline proves
    out, arrow = last_row("x/s", "expand(s,np*(np\\s))")
    assert out == "x/(np*np\\s)"
    assert arrow == Arrow(F("x/s"), F(out))
    with pytest.raises(LexiconError, match="antitone"):
        run_pipeline(F("s"), "expand(s,np*(np\\s))")
    with pytest.raises(LexiconError, match="exactly one"):
        run_pipeline(F("s/s"), "expand(s,np*(np\\s))")
    # np*np -> s has no proof, so neither has the lifted arrow
    with pytest.raises(
        LexiconError,
        match=r"step expand\(s,np\*np\): arrow x/s -> x/\(np\*np\) is not derivable",
    ):
        run_pipeline(F("x/s"), "expand(s,np*np)")


def test_calibrate():
    out, arrow = last_row("a/<x>[x]np", "drop_modal(np,0)")
    assert out == "a/np"
    assert arrow == Arrow(F("a/np"), F("a/<x>[x]np"))
    out, arrow = last_row("a/np", "add_modal(np,0)")
    assert out == "a/<x>[x]np"
    assert arrow == Arrow(F("a/np"), F("a/<x>[x]np"))
    # at a monotone position the arrows point the other way
    assert last_row("<x>[x]np", "drop_modal(np,0)") == (
        "np", Arrow(F("<x>[x]np"), F("np")))
    # no modal pair to drop
    with pytest.raises(LexiconError, match="0 decorated 'np'"):
        run_pipeline(F("a/np"), "drop_modal(np,0)")
    with pytest.raises(LexiconError, match="1 'np' atoms; no number 1"):
        run_pipeline(F("a/np"), "add_modal(np,1)")
    with pytest.raises(LexiconError, match="no number -1"):
        run_pipeline(F("a/np"), "add_modal(np,-1)")


def test_pipeline_names_an_undecided_step(monkeypatch):
    # a search cut off by its budget is not reported as "not derivable"
    monkeypatch.setattr(lexicon_module, "_CHECK_CONFIG", SearchConfig(max_proof_size=0))
    with pytest.raises(LexiconError, match=r"step geach.* is undecided within budget"):
        run_pipeline(F("a/b"), "geach(<x>[x]np)")


def test_load_proves_every_step_arrow_once(monkeypatch):
    proven = []

    def recording_prove(arrow, config=None):
        proven.append(arrow)
        return prove(arrow, config)

    monkeypatch.setattr(lexicon_module, "prove", recording_prove)
    lex = builtin_lexicon()
    loaded = list(proven)
    # one arrow per geach, expansion and modal step: the four adjunct
    # heads make two each, that one and whom two
    assert len(loaded) == 11
    replayed = []
    for e in lex.entries:
        if e.steps_text:
            base = lex.entry(e.derived_from, lex.types(e.derived_from)[0])
            replayed += [a for _, a in run_pipeline(base.syn, e.steps_text) if a]
    assert loaded == replayed


# -- the step pipeline over whole entries


def rows_for(lex, word, base_index=0, derived_index=1):
    base = lex.entry(word, lex.types(word)[base_index])
    derived = lex.entry(word, lex.types(word)[derived_index])
    rows = run_pipeline(base.syn, parse_steps(derived.steps_text))
    return [P(base.syn)] + [P(f) for f, _ in rows]


def test_adjunct_pipeline_rows():
    lex = builtin_lexicon()
    assert rows_for(lex, "without") == [
        "[i](np\\s\\(np\\s))/gp",
        "([i](np\\s\\(np\\s))/<x>[x]np)/gp/<x>[x]np",
        "[i](((np\\s)/<x>[x]np)\\((np\\s)/<x>[x]np))/gp/<x>[x]np",
        "[i](((np\\s)/<x>[x]np)\\((np\\s)/np))/gp/<x>[x]np",
    ]


def test_coargument_pipeline_rows():
    lex = builtin_lexicon()
    assert rows_for(lex, "that") == [
        "(n\\n)/s/<x>[x]np",
        "(n\\n)/(np*np\\s)/<x>[x]np",
        "(n\\n)/(np/<x>[x]np*(np\\s)/<x>[x]np)",
    ]


def test_two_gap_pipeline_rows():
    lex = builtin_lexicon()
    assert rows_for(lex, "whom") == [
        "(n\\n)/s/<x>[x]np",
        "(n\\n)/(s/to_inf*to_inf)/<x>[x]np",
        "(n\\n)/((s/to_inf)/<x>[x]np*to_inf/<x>[x]np)",
        "(n\\n)/((s/<x>[x]to_inf)/<x>[x]np*to_inf/<x>[x]np)",
    ]


def test_pipeline_emits_arrows_where_derivable():
    lex = builtin_lexicon()
    base = lex.entry("without", lex.types("without")[0])
    derived = lex.entry("without", lex.types("without")[1])
    rows = run_pipeline(base.syn, parse_steps(derived.steps_text))
    kinds = [arrow is not None for _, arrow in rows]
    # geach and the modal drop come with justifying arrows; the
    # distribution step is a postulate
    assert kinds == [True, False, True]


def test_parse_steps():
    steps = parse_steps("geach(<x>[x]np); distribute ;drop_modal(np, 1)")
    assert steps == (
        ("geach", ("<x>[x]np",)), ("distribute", ()), ("drop_modal", ("np", "1")),
    )
    with pytest.raises(LexiconError, match="unknown step"):
        parse_steps("frobnicate(np)")
    with pytest.raises(LexiconError, match="geach takes 1 argument"):
        parse_steps("geach()")
    with pytest.raises(LexiconError, match="distribute takes 0 argument"):
        parse_steps("distribute(np)")
    with pytest.raises(LexiconError, match="expand takes 2 argument"):
        parse_steps("expand(s)")


# -- lexicon files


def test_builtin_lexicon_loads():
    lex = builtin_lexicon()
    assert len(lex.entries) == 67
    words = {e.word for e in lex.entries}
    for w in ("papers", "that", "Bob", "rejected", "without", "reading",
              "which", "whom", "persuade"):
        assert w in lex
        assert w in words
    assert "flurbled" not in lex


def test_round_trip_is_bit_exact():
    lex = builtin_lexicon()
    text = lex.dumps()
    again = Lexicon.loads(text)
    assert again.dumps() == text
    assert len(again.entries) == len(lex.entries)


def test_iv_macro():
    lex = Lexicon()
    e = lex.add("sleeps :: iv")
    assert P(e.syn) == "np\\s"
    e2 = lex.add("sees :: (iv/np)\\iv")
    assert P(e2.syn) == "((np\\s)/np)\\(np\\s)"


def test_add_rejects_bad_entries():
    lex = builtin_lexicon()
    with pytest.raises(LexiconError):
        lex.add("foo :: np :: sem=nonexistent")
    with pytest.raises(LexiconError):
        lex.add("bar :: np :: derived-from=zzz steps=geach(np)")
    with pytest.raises(LexiconError, match="does not reproduce"):
        lex.add("baz :: (n\\n)/s :: derived-from=that steps=geach(<x>[x]np)")
    # the steps reproduce the type, but the Geach arrow has no proof
    with pytest.raises(LexiconError, match=r"/np/np is not derivable"):
        lex.add("qux :: ((np\\s)/np)/np/np :: derived-from=rejected steps=geach(np)")
    with pytest.raises(LexiconError):
        lex.add("incomplete ::")


def test_derived_entry_replays_against_any_base():
    lex = builtin_lexicon()
    line = ("despite2 :: [i]((iv/<x>[x]np)\\(iv/np))/(gp/<x>[x]np) "
            ":: sem=coord_adjunct_gap derived-from=despite "
            "steps=geach(<x>[x]np);distribute;drop_modal(np,1)")
    e = lex.add(line)
    assert e.derived_from == "despite"
    # replay names the base the loader accepted and the rows from it
    base, rows = lex.replay(e)
    assert base == lex.types("despite")[0]
    assert rows[-1][0] == e.syn
    wrong = LexEntry("despite3", lex.types("despite")[0], "", None,
                     "despite", e.steps_text)
    with pytest.raises(LexiconError, match="does not reproduce"):
        lex.replay(wrong)


def test_states_have_the_right_boundaries():
    lex = builtin_lexicon()
    types = [lex.types("Bob")[0], lex.types("left")[0]]
    states = lex.states(["Bob", "left"], types)
    assert len(states) == 2
    for st, t in zip(states, types):
        st.validate()
        assert st.inputs == ()
        assert st.outputs == interpret_type(t)


def test_each_entry_keeps_one_network():
    lex = builtin_lexicon()
    t = lex.types("rejected")[0]
    first = lex.state("rejected", t)
    assert lex.state("rejected", t) is first
    assert first.to_json() == lex.entry("rejected", t).state().to_json()
    # a word with two types keeps one network per entry
    relative, coarg = lex.types("that")
    a, b = lex.state("that", relative), lex.state("that", coarg)
    assert a is not b and a.to_json() != b.to_json()
    assert a.to_json() == lex.entry("that", relative).state().to_json()
    assert b.to_json() == lex.entry("that", coarg).state().to_json()
    # an entry added after a lookup gets its own network
    small = Lexicon.loads("Bob :: np\n")
    bob = small.state("Bob", F("np"))
    small.add("Bob :: s/(np\\s)")
    lifted = small.state("Bob", F("s/(np\\s)"))
    assert small.state("Bob", F("np")) is bob
    assert lifted is not bob
    assert lifted.outputs == interpret_type(F("s/(np\\s)"))
    assert lifted.to_json() == small.entry("Bob", F("s/(np\\s)")).state().to_json()


def test_word_state_network_shapes():
    lex = builtin_lexicon()
    that = lex.entry("that", lex.types("that")[0])
    d = that.state()
    d.validate()
    assert d.outputs == interpret_type(that.syn)
    # the head noun, output noun and gap share one spider
    spiders = [n for n in d.nodes if n.kind == "spider"]
    assert any(len(n.ins) + len(n.outs) == 3 for n in spiders)


# -- conjoinability


def test_is_conjoinable():
    assert is_conjoinable(F("s"))
    assert is_conjoinable(F("np\\s"))
    assert is_conjoinable(F("(np\\s)/np"))
    assert not is_conjoinable(F("np"))
    assert not is_conjoinable(F("n"))
    assert not is_conjoinable(F("np*s"))


def test_conjoin_states_is_elementwise():
    st = TensorStore({"N": 3, "S": 2}, seed=9)
    for i, txt in enumerate(("s", "np\\s", "(np\\s)/np")):
        f = F(txt)
        wt = interpret_type(f)
        p = box(f"cp{i}", (), wt)
        q = box(f"cq{i}", (), wt)
        d = conjoin_states(f, p, q)
        d.validate()
        out = eval_diagram(d, st)
        want = eval_diagram(p, st).array * eval_diagram(q, st).array
        assert out.spaces == tuple(s for s, _ in wt)
        np.testing.assert_allclose(out.array, want, rtol=1e-12, atol=0)


def test_conjoin_states_rejects_nonconjoinable():
    with pytest.raises(LexiconError):
        conjoin_states(F("np"), box("a", (), (("N", False),)),
                       box("b", (), (("N", False),)))
