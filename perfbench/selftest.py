"""Fast self-test of the benchmark itself.

    python3 perfbench/selftest.py        (from the root of a checkout)

Shows that the inputs depend on the seed alone, that the generated
corpus has the mix its patterns declare, and that a run reports a
failure when one expected verdict or one closed-form value is wrong.
Takes a few seconds; the functions also run under pytest.
"""

from __future__ import annotations

import copy
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402


def test_inputs_depend_on_the_seed_alone():
    for name, make in corpus.WORKLOADS.items():
        assert make(7) == make(7), name
    assert corpus.generated_items(7) != corpus.generated_items(8)
    assert corpus.meaning_items(7) != corpus.meaning_items(8)
    assert corpus.suite_items(7) == corpus.suite_items(8)


def test_generated_mix_is_fixed():
    for seed in (1, 2, 3):
        items = corpus.generated_items(seed)
        sentences = [(tuple(i["words"]), i["goal"]) for i in items]
        assert len({s for s, _ in sentences}) == len(sentences)
        counts = Counter(i["family"] for i in items)
        assert counts == {f[0]: f[4] for f in corpus.FAMILIES}
        assert all(3 <= len(i["words"]) <= 10 for i in items)
        assert [i["family"] for i in items] == [
            i["family"] for i in corpus.generated_items(0)]


def test_meaning_cells_are_fixed():
    items = corpus.meaning_items(5)
    cells = Counter((i["family"], i["dims"]["N"], i["dims"]["S"]) for i in items)
    assert set(cells.values()) == {1}
    assert [(i["family"], i["dims"]) for i in items] == [
        (i["family"], i["dims"]) for i in corpus.meaning_items(6)]
    assert len(cells) == sum(len(m[5]) for m in corpus.MEANINGS)


def test_wrong_expected_verdict_is_reported():
    items = [i for i in corpus.suite_items(0) if len(i["words"]) <= 5][:3]
    report = run.run_pass("suite", items, trace=False, full_check=True)
    assert report["problems"] == [] and report["errors"] == []
    wrong = copy.deepcopy(items)
    wrong[1]["derivable"] = not wrong[1]["derivable"]
    report = run.run_pass("suite", wrong, trace=False, full_check=True)
    assert len(report["problems"]) == 1
    assert "expected underivable" in report["problems"][0]


def test_wrong_closed_form_is_reported():
    from lambeksem.lexicon import builtin_lexicon

    lex = builtin_lexicon()
    item = next(i for i in corpus.meaning_items(3)
                if i["closed_form"] == "gap_relative")
    result, value = worker.serve(lex, item)
    assert checks.check_item(lex, item, result, value, full=True) == []
    right = checks.CLOSED_FORMS["gap_relative"]

    def off_by_one_part_in_a_million(store, words):
        spaces, out = right(store, words)
        out[0] *= 1 + 1e-6
        return spaces, out

    checks.CLOSED_FORMS["gap_relative"] = off_by_one_part_in_a_million
    try:
        problems = checks.check_item(lex, item, result, value, full=False)
    finally:
        checks.CLOSED_FORMS["gap_relative"] = right
    assert problems == ["meaning differs from the closed form"]


if __name__ == "__main__":
    tests = [(k, v) for k, v in sorted(globals().items()) if k.startswith("test_")]
    for name, fn in tests:
        fn()
        print("ok", name)
