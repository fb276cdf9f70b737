"""Command-line front end.

Subcommands: ``parse`` (derivability + proof), ``compile`` (diagram
files), ``eval`` (tensor evaluation), ``derive-type`` (lexical type
pipelines).  Exit codes: 0 success/derivable, 1 not derivable (the
search was exhausted), 2 usage or input error, 3 undecided (the search
was cut off by its budget).  All JSON reports carry
``"schema": "cli/1"``.  Only ``eval`` imports ``tensor`` and so numpy;
the other commands start without them.
"""

from __future__ import annotations

import argparse
import json
import sys

from .diagram import DiagramError, normalize
from .formula import FormulaError, parse_formula, print_formula
from .lexicon import Lexicon, LexiconError, builtin_lexicon, run_pipeline
from .prover import (
    ProverError,
    SearchConfig,
    derive_sentence,
    format_bracketing,
    proof_to_json,
)
from .translate import compile_sentence

SCHEMA = "cli/1"

# sentences with a registered closed-form evaluation oracle, keyed by
# their exact word sequence; each names its oracle in ``tensor``, which
# only ``eval`` imports, as it loads numpy
CLOSED_FORMS = {
    ("papers", "that", "Bob", "rejected", "without", "reading"): "closed_form_1d",
}

# the most terms ``eval --check`` lets the brute-force oracle enumerate:
# a few seconds of pure-Python loops; a diagram with more reports
# ``oracle_skipped``
CHECK_ORACLE_TERMS = 2**21


class UsageError(Exception):
    pass


# verdict of a sentence search -> exit code
EXIT_CODES = {"derivable": 0, "not derivable": 1, "undecided": 3}


def _verdict(result) -> str:
    if result.ok:
        return "derivable"
    return "undecided" if result.bounded else "not derivable"


def _failure(result) -> str:
    """The one-line report of a search that found no parse."""
    if result.bounded:
        return f"undecided within budget: {result.diagnostics}"
    return f"not derivable: {result.diagnostics}"


def _load_lexicon(path: str | None) -> Lexicon:
    if path is None:
        return builtin_lexicon()
    return Lexicon.load(path)


def _parse_dims(text: str) -> dict[str, int]:
    dims = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, value = item.partition("=")
        name = name.strip()
        try:
            size = int(value)
        except ValueError:
            size = None
        if not name or size is None:
            raise UsageError(f"cannot parse dimension {item!r}, want NAME=SIZE")
        if name in dims:
            raise UsageError(f"space {name!r} is given twice in --dims")
        dims[name] = size
    if not dims:
        raise UsageError("empty --dims")
    return dims


def _derive(args, lexicon: Lexicon):
    goal = parse_formula(args.goal)
    config = SearchConfig(max_proof_size=args.max_size)
    return derive_sentence(
        lexicon, args.words, goal, bracketing=args.bracketing, config=config
    )


def _compile_first(args, lexicon: Lexicon):
    result = _derive(args, lexicon)
    if not result.ok:
        return result, None, None
    parse = result.parses[0]
    states = lexicon.states(args.words, parse.types)
    return result, parse, compile_sentence(parse, states)


def cmd_parse(args) -> int:
    if args.batch and args.words:
        raise UsageError("--batch reads its sentences from the file; give no words with it")
    if not args.batch and not args.words:
        raise UsageError("give the sentence words, or --batch FILE")
    lexicon = _load_lexicon(args.lexicon)
    if args.batch:
        return _run_batch(args, lexicon)
    result = _derive(args, lexicon)
    verdict = _verdict(result)
    if not result.ok:
        if args.json:
            print(json.dumps({
                "schema": SCHEMA,
                "words": list(args.words),
                "goal": args.goal,
                "derivable": False,
                "verdict": verdict,
                "bounded": result.bounded,
                "diagnostics": result.diagnostics,
            }, indent=2))
        else:
            print(_failure(result))
        return EXIT_CODES[verdict]
    parse = result.parses[0]
    if args.json:
        print(json.dumps({
            "schema": SCHEMA,
            "words": list(args.words),
            "goal": args.goal,
            "derivable": True,
            "verdict": verdict,
            "bracketing": format_bracketing(parse.bracketing, args.words),
            "types": [print_formula(t) for t in parse.types],
            "antecedent": print_formula(parse.antecedent),
            "proof": json.loads(proof_to_json(parse.proof)),
        }, indent=2))
    else:
        print("derivable")
        print("bracketing:", format_bracketing(parse.bracketing, args.words))
        for w, t in zip(args.words, parse.types):
            print(f"  {w} :: {print_formula(t)}")
    return 0


def _batch_line(line: str, lexicon: Lexicon, max_size: int):
    fields = [f.strip() for f in line.split("::")]
    if len(fields) > 3:
        raise UsageError("a batch line has at most three fields: "
                         "words [:: goal [:: bracketing]]")
    words = fields[0].split()
    goal = parse_formula(fields[1]) if len(fields) > 1 and fields[1] else parse_formula("s")
    bracketing = fields[2] if len(fields) > 2 and fields[2] else None
    config = SearchConfig(max_proof_size=max_size)
    result = derive_sentence(lexicon, words, goal, bracketing=bracketing, config=config)
    return {
        "sentence": fields[0],
        "goal": print_formula(goal),
        "derivable": result.ok,
        "verdict": _verdict(result),
        "bounded": result.bounded,
    }


def _run_batch(args, lexicon: Lexicon) -> int:
    with open(args.batch, encoding="utf-8") as fh:
        lines = [(number, ln.strip()) for number, ln in enumerate(fh, 1)]
    reports = []
    for number, line in lines:
        if not line or line.startswith("#"):
            continue
        try:
            reports.append(_batch_line(line, lexicon, args.max_size))
        # every error of the package is a ValueError
        except (UsageError, ValueError) as err:
            raise UsageError(f"{args.batch}:{number}: {err}") from None
    if args.json:
        print(json.dumps({"schema": SCHEMA, "results": reports}, indent=2))
    else:
        marks = {"derivable": "ok ", "not derivable": "NO ", "undecided": "?? "}
        for rep in reports:
            print(f"{marks[rep['verdict']]} {rep['sentence']}  ->  {rep['goal']}")
    verdicts = {r["verdict"] for r in reports}
    for verdict in ("not derivable", "undecided"):
        if verdict in verdicts:
            return EXIT_CODES[verdict]
    return 0


def cmd_compile(args) -> int:
    lexicon = _load_lexicon(args.lexicon)
    result, parse, diagram = _compile_first(args, lexicon)
    if diagram is None:
        print(_failure(result), file=sys.stderr)
        return EXIT_CODES[_verdict(result)]
    normal = normalize(diagram)
    written = []
    for tag, d in (("initial", diagram), ("normalized", normal)):
        path = f"{args.out}.{tag}.json"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(d.to_json())
        written.append(path)
        if args.dot:
            dot_path = f"{args.out}.{tag}.dot"
            with open(dot_path, "w", encoding="utf-8") as fh:
                fh.write(d.to_dot())
            written.append(dot_path)
    if args.json:
        print(json.dumps({
            "schema": SCHEMA,
            "files": written,
            "nodes": {"initial": len(diagram.nodes), "normalized": len(normal.nodes)},
        }, indent=2))
    else:
        for path in written:
            print("wrote", path)
    return 0


def cmd_eval(args) -> int:
    import numpy as np

    from . import tensor

    # a bad store is an input error, whatever the search would find
    if args.store:
        store = tensor.TensorStore.load(args.store, generate=False)
    else:
        store = tensor.TensorStore(_parse_dims(args.dims), seed=args.seed)
    lexicon = _load_lexicon(args.lexicon)
    result, parse, diagram = _compile_first(args, lexicon)
    if diagram is None:
        print(_failure(result), file=sys.stderr)
        return EXIT_CODES[_verdict(result)]
    # an overflow is reported as an error, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        value = tensor.eval_diagram(diagram, store)
    if not np.isfinite(value.array).all():
        raise tensor.TensorError("the meaning is not finite: evaluating it overflowed "
                                 "the float range")
    report = {
        "schema": SCHEMA,
        "spaces": list(value.spaces),
        "shape": list(value.array.shape),
        "data": value.array.ravel().tolist(),
    }
    if args.check:
        try:
            oracle = tensor.oracle_eval(diagram, store, budget=CHECK_ORACLE_TERMS)
        except tensor.TensorError as err:
            report["oracle_skipped"] = str(err)
        else:
            report["oracle_max_abs_diff"] = float(
                np.abs(value.array - oracle.array).max() if value.array.size else 0.0
            )
        closed = CLOSED_FORMS.get(tuple(args.words))
        if closed is not None:
            ref = getattr(tensor, closed)(store)
            report["closed_form_max_abs_diff"] = float(
                np.abs(value.array - ref.array).max()
            )
    if args.json:
        print(json.dumps(report, indent=2, allow_nan=False))
    else:
        print("spaces:", " ".join(report["spaces"]))
        print("value:", np.array2string(value.array, precision=10))
        for key in ("oracle_max_abs_diff", "closed_form_max_abs_diff"):
            if key in report:
                print(f"{key}: {report[key]:.3e}")
        if "oracle_skipped" in report:
            print("oracle skipped:", report["oracle_skipped"])
    return 0


def cmd_derive_type(args) -> int:
    lexicon = _load_lexicon(args.lexicon)
    entries = [e for e in lexicon.entries if e.word == args.word]
    if not entries:
        raise UsageError(f"word {args.word!r} is not in the lexicon")
    steps = args.steps
    if steps is not None:
        base = entries[0].syn
        rows = run_pipeline(base, steps)
    else:
        recorded = [e for e in entries if e.steps_text]
        if not recorded:
            raise UsageError(
                f"{args.word!r} has no derived entry; pass --steps"
            )
        steps = recorded[0].steps_text
        base, rows = lexicon.replay(recorded[0])
    printed = [print_formula(base)] + [print_formula(f) for f, _ in rows]
    if args.json:
        print(json.dumps({
            "schema": SCHEMA, "word": args.word, "steps": steps, "rows": printed,
            "postulate": [arrow is None for _, arrow in rows],
        }, indent=2))
    else:
        for row in printed:
            print(row)
    return 0


def _budget(text: str) -> int:
    """A proof search budget: an integer, 0 or more."""
    try:
        size = int(text)
    except ValueError:
        size = -1
    if size < 0:
        raise argparse.ArgumentTypeError(f"want a budget of 0 or more, not {text!r}")
    return size


def _add_sentence_args(sub, words="+"):
    sub.add_argument("words", nargs=words, help="sentence words")
    sub.add_argument("--lexicon", help="lexicon file (default: bundled)")
    sub.add_argument("--goal", default="s", help="goal formula")
    sub.add_argument("--bracketing", help="explicit bracketing, e.g. (a (b c))")
    sub.add_argument("--max-size", type=_budget, default=40,
                     help="proof search budget")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lambeksem",
        description="Type-logical parsing and tensor semantics for "
                    "parasitic-gap constructions.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="derivability and proof extraction")
    _add_sentence_args(p, words="*")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--batch", help="file of sentences: words [:: goal [:: bracketing]]; "
                                   "give no words with it")
    p.set_defaults(func=cmd_parse)

    c = sub.add_parser("compile", help="write initial and normalized diagrams")
    _add_sentence_args(c)
    c.add_argument("--out", default="diagram", help="output file prefix")
    c.add_argument("--dot", action="store_true", help="also write DOT files")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_compile)

    e = sub.add_parser("eval", help="evaluate the sentence meaning tensor")
    _add_sentence_args(e)
    e.add_argument("--dims", default="N=2,S=2", help="space dimensions, NAME=SIZE,...")
    e.add_argument("--seed", type=int, default=0, help="tensor generation seed")
    e.add_argument("--store", help="tensor store JSON (strict: no generation)")
    e.add_argument("--check", action="store_true",
                   help="cross-check with the brute-force and closed-form oracles")
    e.add_argument("--json", action="store_true")
    e.set_defaults(func=cmd_eval)

    d = sub.add_parser("derive-type", help="print a checked lexical type-shift pipeline")
    d.add_argument("word")
    d.add_argument("--steps", help="step list, e.g. 'geach(<x>[x]np);distribute'")
    d.add_argument("--lexicon")
    d.add_argument("--json", action="store_true")
    d.set_defaults(func=cmd_derive_type)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.func(args)
    # a TensorError is a ValueError
    except (UsageError, LexiconError, FormulaError, DiagramError,
            ProverError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
