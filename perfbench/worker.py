"""One pass of a workload in a fresh interpreter.

Reads a job from standard input: the items, whether to trace, and
whether to make the full checks.  Loads the bundled lexicon once, times
each item, then checks the outputs outside the timed region and writes
one JSON object to standard output.  Set-up ends when the lexicon is
loaded; the parent measures it from just before it spawned this process.
The parent puts the checkout's ``src`` first on ``PYTHONPATH``.
"""

import json
import resource
import sys
import time

import lambeksem
from lambeksem import diagram as D
from lambeksem import formula as F
from lambeksem import lexicon as L
from lambeksem import prover as P
from lambeksem import tensor as T
from lambeksem import translate as TR

CONFIG = P.SearchConfig(max_proof_size=40)


def serve(lex, item):
    """One request: a verdict, or a verdict and a meaning when the item
    carries dimensions.  Calls go through module attributes, where a
    traced run has put its wrappers."""
    goal = F.parse_formula(item["goal"])
    result = P.derive_sentence(lex, item["words"], goal,
                               bracketing=item["bracketing"], config=CONFIG)
    if "dims" not in item or not result.ok:
        return result, None
    parse = result.parses[0]
    states = lex.states(item["words"], parse.types)
    compiled = TR.compile_sentence(parse, states)
    store = T.TensorStore(item["dims"], seed=item["store_seed"])
    return result, T.eval_diagram(D.normalize(compiled), store)


def main() -> int:
    job = json.load(sys.stdin)
    if not lambeksem.__file__.startswith(job["src"]):
        print(f"imported {lambeksem.__file__}, not the checkout's program",
              file=sys.stderr)
        return 2
    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    lex = L.builtin_lexicon()
    ready = time.monotonic()

    results, item_s, errors = [], [], []
    clock = time.perf_counter
    for item in job["items"]:
        start = clock()
        try:
            results.append(serve(lex, item))
        except Exception as err:  # a failed operation: counted, not fatal
            results.append(None)
            errors.append(f"{' '.join(item['words'])}: "
                          f"{type(err).__name__}: {err}")
            continue
        item_s.append(clock() - start)

    report = {
        "ready": ready,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "item_s": item_s,
        "errors": errors,
    }
    if tracer is not None:
        tracer.enabled = False
        report["spans"] = tracer.spans
        report["layers"] = tracing.layer_metrics(
            tracer.spans,
            len(getattr(F, "_COUNT_CACHE", ())),
            tracing.einsum_flops(tracer.einsum_calls),
        )

    import checks

    report["outputs"], report["problems"] = checks.check_pass(
        lex, job["items"], results, full=job["full_check"])
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
