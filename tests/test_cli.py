"""Command-line interface: exit codes, JSON reports, file outputs."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import lambeksem
from lambeksem.cli import main
from lambeksem.tensor import MAX_TENSOR_ELEMENTS, TensorStore


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_derivable(capsys):
    code, out, _ = run(capsys, "parse", "Bob", "left", "the", "room")
    assert code == 0
    assert "derivable" in out


def test_parse_does_not_import_numpy():
    # only eval needs numpy: parse in a fresh interpreter leaves it out
    src = str(Path(lambeksem.__file__).resolve().parents[1])
    script = ("import sys; from lambeksem.cli import main; "
              "code = main(['parse', 'papers', 'that', 'Bob', 'rejected', '--goal', 'n']); "
              "print(code, 'numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.stdout.split()[-2:] == ["0", "False"], proc.stderr


def test_parse_not_derivable_exits_1(capsys):
    code, out, _ = run(
        capsys, "parse", "papers", "that", "Bob", "rejected", "the",
        "proposal", "--goal", "n",
    )
    assert code == 1


def test_parse_undecided_exits_3(capsys):
    # a budget too small for the proof cuts the search off: undecided, not
    # "not derivable"; the default budget finds the proof
    argv = ("parse", "papers", "that", "Bob", "rejected", "--goal", "n")
    code, out, _ = run(capsys, *argv, "--max-size", "3")
    assert code == 3
    assert out.startswith("undecided within budget: ")
    code, out, _ = run(capsys, *argv, "--max-size", "3", "--json")
    assert code == 3
    doc = json.loads(out)
    assert doc["schema"] == "cli/1"
    assert (doc["verdict"], doc["derivable"], doc["bounded"]) == ("undecided", False, True)
    code, _, _ = run(capsys, *argv)
    assert code == 0


def test_compile_and_eval_undecided_exit_3(tmp_path, capsys):
    words = ("papers", "that", "Bob", "rejected", "--goal", "n", "--max-size", "3")
    code, _, err = run(capsys, "compile", *words, "--out", str(tmp_path / "x"))
    assert code == 3
    assert err.startswith("undecided within budget: ")
    code, _, err = run(capsys, "eval", *words)
    assert code == 3
    assert err.startswith("undecided within budget: ")


def test_parse_unknown_word_exits_2(capsys):
    code, _, err = run(capsys, "parse", "Bob", "flurbled")
    assert code == 2
    assert "flurbled" in err


def test_parse_json_report(capsys):
    code, out, _ = run(
        capsys, "parse", "papers", "that", "Bob", "rejected",
        "--goal", "n", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "cli/1"
    assert doc["derivable"] is True
    assert doc["words"] == ["papers", "that", "Bob", "rejected"]
    assert doc["goal"] == "n"
    assert "bracketing" in doc and "types" in doc and "proof" in doc


def test_parse_json_negative(capsys):
    code, out, _ = run(
        capsys, "parse", "window", "that", "Bob", "left", "the", "room",
        "without", "closing", "--goal", "n", "--json",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["derivable"] is False
    assert doc["verdict"] == "not derivable"
    assert doc["schema"] == "cli/1"


def test_parse_with_explicit_bracketing(capsys):
    code, out, _ = run(
        capsys, "parse", "papers", "that", "Bob", "rejected", "without",
        "reading", "--goal", "n",
        "--bracketing",
        "(papers (that (Bob (rejected i:(without reading)))))",
    )
    assert code == 0


def test_parse_finds_two_island_wraps_unbracketed(capsys):
    # each adjunct is an island: its bracket is found from the counts
    for text, goal, bracketing in [
        ("papers that Bob rejected without reading before studying", "n",
         "(papers (that (Bob ((rejected i:(without reading)) i:(before studying)))))"),
        ("Bob rejected the paper without reading the report before studying the room",
         "s", "(Bob (((rejected (the paper)) i:(without (reading (the report)))) "
         "i:(before (studying (the room)))))"),
    ]:
        code, out, _ = run(capsys, "parse", *text.split(), "--goal", goal, "--json")
        assert code == 0, text
        assert json.loads(out)["bracketing"] == bracketing


def test_parse_bad_bracketing_exits_2(capsys):
    code, _, err = run(
        capsys, "parse", "Bob", "left",
        "--bracketing", "(Bob (left",
    )
    assert code == 2


def test_malformed_bracketings_exit_2_on_every_call(capsys):
    # the well-formed text keeps its skeleton, which the wrong word shares
    from test_kept_tables import GOOD, MALFORMED

    assert run(capsys, "parse", *GOOD.replace("(", "").replace(")", "").split(),
               "--goal", "n", "--bracketing", GOOD)[0] == 0
    for words, text in MALFORMED:
        first = run(capsys, "parse", *words, "--goal", "n", "--bracketing", text)
        assert first[0] == 2 and first[2].startswith("error:"), text
        assert run(capsys, "parse", *words, "--goal", "n", "--bracketing", text) == first


def test_bad_goal_exits_2(capsys):
    code, _, err = run(capsys, "parse", "Bob", "left", "--goal", "s/")
    assert code == 2
    deep = "(" * 2000 + "s" + ")" * 2000
    code, _, err = run(capsys, "parse", "Bob", "left", "--goal", deep)
    assert code == 2
    assert err.startswith("error:") and "deeper than" in err


def test_deep_bracketing_exits_2(capsys):
    # 600 words right-branching nest deeper than any formula may
    words = ["Bob"] * 600
    text = "Bob"
    for _ in words[1:]:
        text = f"(Bob {text})"
    code, _, err = run(capsys, "parse", *words, "--bracketing", text)
    assert code == 2
    assert err.startswith("error:") and "deeper than" in err


def test_batch(tmp_path, capsys):
    batch = tmp_path / "sentences.txt"
    batch.write_text(
        "Bob left the room\n"
        "papers that Bob rejected :: n\n"
        "# comment line\n"
        "papers that Bob rejected without reading :: n :: "
        "(papers (that (Bob (rejected i:(without reading)))))\n"
    )
    code, out, _ = run(capsys, "parse", "--batch", str(batch), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "cli/1"
    assert len(doc["results"]) == 3
    assert all(r["derivable"] for r in doc["results"])
    assert all(r["verdict"] == "derivable" for r in doc["results"])


def test_batch_with_failure_exits_1(tmp_path, capsys):
    batch = tmp_path / "sentences.txt"
    batch.write_text(
        "Bob left the room\npapers that Bob rejected the proposal :: n\n"
    )
    code, out, _ = run(capsys, "parse", "--batch", str(batch), "--json")
    assert code == 1
    doc = json.loads(out)
    verdicts = [r["derivable"] for r in doc["results"]]
    assert verdicts == [True, False]


def test_batch_undecided_marks_and_exit_codes(tmp_path, capsys):
    undecided = "papers that Bob rejected :: n\n"
    batch = tmp_path / "sentences.txt"
    batch.write_text("Bob left the room\n" + undecided)
    code, out, _ = run(capsys, "parse", "--batch", str(batch), "--max-size", "3")
    assert code == 3
    assert out.splitlines() == [
        "ok  Bob left the room  ->  s",
        "??  papers that Bob rejected  ->  n",
    ]
    # a line that is not derivable outranks an undecided one
    batch.write_text(undecided + "papers that Bob rejected the proposal :: n\n")
    code, out, _ = run(capsys, "parse", "--batch", str(batch), "--max-size", "3",
                       "--json")
    assert code == 1
    doc = json.loads(out)
    assert [r["verdict"] for r in doc["results"]] == ["undecided", "not derivable"]


def test_batch_empty_sentence_exits_2(tmp_path, capsys):
    batch = tmp_path / "sentences.txt"
    batch.write_text("Bob left the room\n:: s\n")
    code, out, err = run(capsys, "parse", "--batch", str(batch))
    assert code == 2 and not out
    assert err == f"error: {batch}:2: no words to parse\n"


@pytest.mark.parametrize("line, message", [
    # README documents words [:: goal [:: bracketing]]: a fourth field is refused
    ("papers that Bob rejected :: n :: :: junk", "a batch line has at most three fields"),
    ("foo bar :: s", "word 'foo' is not in the lexicon"),
    ("papers that Bob rejected :: n/(", "unexpected end of input in 'n/('"),
    ("papers that Bob rejected :: n :: (papers (that Bob))", "does not cover the sentence"),
])
def test_batch_line_errors_name_their_line(tmp_path, capsys, line, message):
    # a comment and a blank line count as lines, as an editor numbers them
    batch = tmp_path / "sentences.txt"
    batch.write_text(f"# header\n\nBob left the room\n{line}\n")
    for extra in ((), ("--json",)):
        code, out, err = run(capsys, "parse", "--batch", str(batch), *extra)
        assert code == 2 and not out
        assert err.startswith(f"error: {batch}:4: ") and message in err, err


def test_batch_takes_no_sentence_words(tmp_path, capsys):
    batch = tmp_path / "sentences.txt"
    batch.write_text("Bob left the room\n")
    code, out, _ = run(capsys, "parse", "--batch", str(batch))
    assert code == 0 and out == "ok  Bob left the room  ->  s\n"
    # words beside --batch would be ignored, so they are refused
    code, out, err = run(capsys, "parse", "--batch", str(batch), "some", "words")
    assert code == 2 and not out
    assert err.startswith("error: --batch reads its sentences from the file")
    # and without --batch the words are still required
    code, out, err = run(capsys, "parse", "--goal", "s")
    assert code == 2 and not out
    assert err == "error: give the sentence words, or --batch FILE\n"


def test_negative_budget_exits_2(capsys):
    argv = ("parse", "Bob", "left", "the", "room", "--max-size")
    for size in ("-1", "-3"):
        with pytest.raises(SystemExit) as exit_:
            run(capsys, *argv, size)
        err = capsys.readouterr().err
        assert exit_.value.code == 2
        assert "error: argument --max-size: want a budget of 0 or more" in err
    # an empty budget is a budget: the search is cut off at once
    code, out, _ = run(capsys, *argv, "0")
    assert code == 3 and out.startswith("undecided within budget: ")


def test_compile_writes_files(tmp_path, capsys):
    prefix = tmp_path / "sentence"
    code, out, _ = run(
        capsys, "compile", "papers", "that", "Bob", "rejected",
        "--goal", "n", "--out", str(prefix), "--dot",
    )
    assert code == 0
    initial = json.loads((tmp_path / "sentence.initial.json").read_text())
    normalized = json.loads((tmp_path / "sentence.normalized.json").read_text())
    assert initial["schema"] == normalized["schema"]
    assert (tmp_path / "sentence.initial.dot").exists()
    assert (tmp_path / "sentence.normalized.dot").exists()


def test_compile_underivable_exits_1(tmp_path, capsys):
    code, _, _ = run(
        capsys, "compile", "papers", "that", "Bob", "rejected", "the",
        "proposal", "--goal", "n", "--out", str(tmp_path / "x"),
    )
    assert code == 1
    assert not (tmp_path / "x.initial.json").exists()


def test_eval_json(capsys):
    code, out, _ = run(
        capsys, "eval", "Bob", "left", "the", "room",
        "--dims", "N=3,S=2", "--seed", "11", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "cli/1"
    assert doc["spaces"] == ["S"]
    assert doc["shape"] == [2]
    assert len(doc["data"]) == 2


def test_eval_is_seed_deterministic(capsys):
    args = ("eval", "Bob", "left", "the", "room", "--dims", "N=3,S=2",
            "--seed", "5", "--json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert json.loads(out1)["data"] == json.loads(out2)["data"]


def test_eval_check_close_to_oracle(capsys):
    code, out, _ = run(
        capsys, "eval", "Bob", "left", "the", "room",
        "--dims", "N=2,S=2", "--seed", "3", "--check", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["oracle_max_abs_diff"] <= 1e-9


def test_eval_check_closed_form(capsys):
    code, out, _ = run(
        capsys, "eval", "papers", "that", "Bob", "rejected", "without",
        "reading", "--goal", "n",
        "--bracketing", "(papers (that (Bob (rejected i:(without reading)))))",
        "--dims", "N=3,S=2", "--seed", "2", "--check", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert "closed_form_max_abs_diff" in doc
    assert doc["closed_form_max_abs_diff"] <= 1e-9


def test_eval_bad_dims_exits_2(tmp_path, capsys):
    # a size that is not a number, or no name, is refused as the other
    # malformed items are, before any search: "Bob left" alone is not
    # derivable
    for dims in ("N=zero", "N=", "=2", "N"):
        for words in (("Bob", "left", "the", "room"), ("Bob", "left")):
            code, out, err = run(capsys, "eval", *words, "--dims", dims)
            assert code == 2 and not out, (dims, words)
            assert err == f"error: cannot parse dimension {dims!r}, want NAME=SIZE\n", dims
    # a size below 1, or a space given twice, is a stated error, whether
    # it comes from --dims or from a store file
    store = tmp_path / "store.json"
    store.write_text(json.dumps(
        {"schema": "tensors/1", "dims": {"N": 0, "S": 2}, "seed": 0, "tensors": {}}))
    words = ("papers", "that", "Bob", "rejected", "without", "reading", "--goal", "n",
             "--check")
    for source in (("--dims", "N=0,S=2"), ("--dims", "N=-1,S=2"),
                   ("--dims", "N=2,S=2,N=3"), ("--store", str(store))):
        code, out, err = run(capsys, "eval", *words, *source)
        assert code == 2 and not out, source
        assert err.startswith("error: ") and "'N'" in err, source
        assert "Traceback" not in err, source
    # an N x S x N verb at these dims would need about 8 PB
    code, out, err = run(
        capsys, "eval", "papers", "that", "Bob", "rejected", "without",
        "reading", "--goal", "n", "--dims", "N=100000,S=100000",
    )
    assert code == 2 and not out
    assert err.startswith("error: tensor ")
    assert f"(100000, 100000, 100000) has more than {MAX_TENSOR_ELEMENTS} entries" in err


def test_eval_over_the_size_bound_exits_2(capsys):
    # each verb box has 256 * 2 * 256 entries, but the value of the pair
    # would have about 1.7e10 (137 GB): it is refused before anything is
    # fetched or allocated
    code, out, err = run(capsys, "eval", "rejected", "rejected",
                         "--goal", "((np\\s)/np)*((np\\s)/np)", "--dims", "N=256,S=2")
    assert code == 2 and not out
    assert err.startswith("error: the value of shape (256, 2, 256, 256, 2, 256) has more "
                          f"than {MAX_TENSOR_ELEMENTS} entries")


def test_eval_negative_seed_exits_2(tmp_path, capsys):
    words = ("papers", "that", "Bob", "rejected", "without", "reading", "--goal", "n")
    store = tmp_path / "store.json"
    store.write_text(json.dumps(
        {"schema": "tensors/1", "dims": {"N": 2, "S": 2}, "seed": -3, "tensors": {}}))
    for source, value in ((("--seed", "-1"), "-1"), (("--store", str(store)), "-3")):
        code, out, err = run(capsys, "eval", *words, *source)
        assert code == 2 and not out, source
        assert err == f"error: tensor store seed must be 0 or more, not {value}\n", source


def test_eval_strict_store_missing_tensor_exits_2(tmp_path, capsys):
    store = TensorStore({"N": 2, "S": 2}, seed=0)
    store.get("Bob", ("N",))  # only Bob is materialized
    path = tmp_path / "store.json"
    path.write_text(store.to_json())
    code, _, err = run(
        capsys, "eval", "Bob", "left", "the", "room", "--store", str(path)
    )
    assert code == 2
    assert "not in the store" in err


def test_eval_malformed_store_exits_2(tmp_path, capsys):
    dims = {"N": 2, "S": 2}
    path = tmp_path / "store.json"
    bob = lambda entry: {"schema": "tensors/1", "dims": dims, "tensors": {"Bob": entry}}
    for doc in (
        None,  # no file
        [],
        {"schema": "tensors/1"},
        {"schema": "tensors/1", "dims": [1]},
        {"schema": "tensors/1", "dims": dims, "tensors": [1]},
        # an entry's error names its tensor
        bob({"spaces": ["N"]}),
        bob({"spaces": [["N"]], "data": [1, 2]}),
        bob({"spaces": [{"x": 1}], "data": [1, 2]}),
        bob({"spaces": ["X"], "data": [1, 2]}),
        bob({"spaces": ["N"], "data": {"a": 1}}),
        bob({"spaces": ["N"], "data": [1, 2, 3]}),
        bob({"spaces": ["N"], "data": [1, None]}),
        bob({"spaces": ["N"], "data": [1, "2"]}),
        bob({"spaces": ["N"], "data": [1, 10**400]}),
    ):
        if doc is not None:
            path.write_text(json.dumps(doc))
        # checked before any search: "Bob left" alone is not derivable
        for words in (("Bob", "left", "the", "room"), ("Bob", "left")):
            store = path if doc is not None else tmp_path / "missing.json"
            code, out, err = run(capsys, "eval", *words, "--store", str(store))
            assert code == 2 and not out, (doc, words)
            assert err.startswith("error: ") and err.count("\n") == 1, err
            if isinstance(doc, dict) and "Bob" in doc.get("tensors", ()):
                assert err.startswith("error: tensor 'Bob'"), err


def test_eval_an_overflowing_meaning_exits_2(tmp_path, capsys):
    # every entry 1e300: the meaning overflows to infinity, which is no
    # meaning, and which --json would print as the non-JSON Infinity;
    # numpy's overflow warnings are errors here, so none may escape
    store = TensorStore({"N": 2, "S": 2}, generate=False)
    for name, spaces in (("papers", ("N",)), ("Bob", ("N",)), ("rejected", ("N", "S", "N"))):
        store.set(name, spaces, np.full(store.shape(spaces), 1e300))
    path = tmp_path / "store.json"
    store.save(path)
    for flags in ((), ("--json",), ("--check",)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "eval", "papers", "that", "Bob", "rejected",
                                 "--goal", "n", "--store", str(path), *flags)
        assert code == 2 and not out, flags
        assert err == ("error: the meaning is not finite: evaluating it overflowed "
                       "the float range\n")


def test_eval_check_skips_an_oracle_over_its_budget(capsys):
    # 2^25 terms at N=2,S=2, which would take minutes; the oracle refuses
    # before it enumerates any
    code, out, _ = run(capsys, "eval", "papers", "that", "Bob", "rejected", "without",
                       "reading", "carefully", "--goal", "n", "--check", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["oracle_skipped"] == "oracle would enumerate 33554432 terms, over 2097152"
    assert "oracle_max_abs_diff" not in doc


def test_eval_zero_store_gives_zero_vector(tmp_path, capsys):
    store = TensorStore({"N": 2, "S": 2}, generate=False)
    for name, spaces in (
        ("Bob", ("N",)),
        ("left", ("N", "S", "N")),
        ("the", ("N", "N")),
        ("room", ("N",)),
    ):
        store.set(name, spaces, np.zeros(store.shape(spaces)))
    path = tmp_path / "zeros.json"
    path.write_text(store.to_json())
    code, out, _ = run(
        capsys, "eval", "Bob", "left", "the", "room",
        "--store", str(path), "--json",
    )
    assert code == 0
    assert json.loads(out)["data"] == [0.0, 0.0]


def test_eval_strict_store_complete(tmp_path, capsys):
    gen = TensorStore({"N": 2, "S": 2}, seed=0)
    for name, spaces in (
        ("Bob", ("N",)),
        ("left", ("N", "S", "N")),
        ("the", ("N", "N")),
        ("room", ("N",)),
    ):
        gen.get(name, spaces)
    path = tmp_path / "store.json"
    path.write_text(gen.to_json())
    code, out, _ = run(
        capsys, "eval", "Bob", "left", "the", "room",
        "--store", str(path), "--json",
    )
    assert code == 0
    doc = json.loads(out)
    ref, _, _ = run(
        capsys, "eval", "Bob", "left", "the", "room",
        "--dims", "N=2,S=2", "--seed", "0", "--json",
    )


def test_derive_type_golden_rows(capsys):
    code, out, _ = run(capsys, "derive-type", "without")
    assert code == 0
    assert out.splitlines() == [
        "[i](np\\s\\(np\\s))/gp",
        "([i](np\\s\\(np\\s))/<x>[x]np)/gp/<x>[x]np",
        "[i](((np\\s)/<x>[x]np)\\((np\\s)/<x>[x]np))/gp/<x>[x]np",
        "[i](((np\\s)/<x>[x]np)\\((np\\s)/np))/gp/<x>[x]np",
    ]


def test_derive_type_explicit_steps(capsys):
    code, out, _ = run(
        capsys, "derive-type", "that",
        "--steps", "expand(s,np*(np\\s));distribute",
    )
    assert code == 0
    assert out.splitlines() == [
        "(n\\n)/s/<x>[x]np",
        "(n\\n)/(np*np\\s)/<x>[x]np",
        "(n\\n)/(np/<x>[x]np*(np\\s)/<x>[x]np)",
    ]


def test_derive_type_json(capsys):
    code, out, _ = run(capsys, "derive-type", "whom", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "cli/1"
    assert doc["rows"] == [
        "(n\\n)/s/<x>[x]np",
        "(n\\n)/(s/to_inf*to_inf)/<x>[x]np",
        "(n\\n)/((s/to_inf)/<x>[x]np*to_inf/<x>[x]np)",
        "(n\\n)/((s/<x>[x]to_inf)/<x>[x]np*to_inf/<x>[x]np)",
    ]
    # expansion and the modal step are proven, distribution is a postulate
    assert doc["postulate"] == [False, True, False]


def test_derive_type_reads_a_lexicon_file(tmp_path, capsys):
    lex = tmp_path / "small.lex"
    lex.write_text(
        "# a word with a base and a derived type\n"
        "near :: [i](iv\\iv)/gp :: sem=coord_adjunct\n"
        "near :: [i]((iv/<x>[x]np)\\(iv/np))/(gp/<x>[x]np) "
        ":: sem=coord_adjunct_gap :: derived-from=near "
        "steps=geach(<x>[x]np);distribute;drop_modal(np,1)\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "derive-type", "near", "--lexicon", str(lex))
    assert code == 0
    assert out.splitlines()[-1] == "[i](((np\\s)/<x>[x]np)\\((np\\s)/np))/gp/<x>[x]np"
    code, _, err = run(capsys, "derive-type", "far", "--lexicon", str(lex))
    assert code == 2
    assert "'far' is not in the lexicon" in err


DESPITE2 = (
    "despite2 :: [i]((iv/<x>[x]np)\\(iv/np))/(gp/<x>[x]np) "
    ":: sem=coord_adjunct_gap :: derived-from=despite "
    "steps=geach(<x>[x]np);distribute;drop_modal(np,1)\n"
)


def test_derive_type_replays_from_the_derived_from_entry(tmp_path, capsys):
    # a derived entry of another word is replayed from that word's base,
    # the rows the loader checked, not from the entry's own type
    from importlib.resources import files

    bundled = files("lambeksem").joinpath("data/english.lex").read_text(encoding="utf-8")
    lex = tmp_path / "despite2.lex"
    lex.write_text(bundled + DESPITE2, encoding="utf-8")
    code, out, _ = run(capsys, "derive-type", "despite2", "--lexicon", str(lex))
    assert code == 0
    _, want, _ = run(capsys, "derive-type", "despite")
    assert out == want
    assert len(out.splitlines()) == 4
    assert out.splitlines()[0] == "[i](np\\s\\(np\\s))/gp"
    # a recorded type the steps do not reproduce is refused
    lex.write_text(
        bundled + DESPITE2.replace("\\(iv/np)", "\\(iv/<x>[x]np)"), encoding="utf-8"
    )
    code, out, err = run(capsys, "derive-type", "despite2", "--lexicon", str(lex))
    assert code == 2
    assert out == ""
    assert "replaying steps from 'despite' does not reproduce" in err


def test_derive_type_without_steps_exits_2(capsys):
    code, _, err = run(capsys, "derive-type", "papers")
    assert code == 2


def test_derive_type_bad_steps_exits_2(capsys):
    code, _, err = run(
        capsys, "derive-type", "that", "--steps", "frobnicate(np)"
    )
    assert code == 2
    # a step whose arrow has no proof is refused, not printed
    code, out, err = run(
        capsys, "derive-type", "rejected", "--steps", "geach(np)"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: step geach(np): arrow ")
    assert "(np\\s)/np -> ((np\\s)/np)/np/np is not derivable" in err
