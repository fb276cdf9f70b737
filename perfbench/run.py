"""Benchmark of sentence search and meaning evaluation.

    python3 perfbench/run.py --workload suite|generated|meanings \\
        --seed N --seconds S --trace 0|1

Runs from the root of a checkout and uses the program in its ``src``
directory.  A run is a closed loop with one client: passes over the
workload's items, one after another, each pass in a fresh interpreter
(``worker.py``) that loads the lexicon once, as ``lambeksem parse
--batch`` and ``lambeksem eval`` do.  Passes continue until ``--seconds``
have gone by and at least ``MIN_ITEMS`` items have been timed.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  With ``--trace 1`` passes alternate untraced and
traced; the line holds the per-layer metrics (medians over the traced
passes) and the tracing overhead against the untraced passes, and the
spans go to ``perfbench/out/``.  The exit code is 0 when every output
checked correct, 1 when one did not, and 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# 90th percentile with at least ten samples beyond it
MIN_ITEMS = 100
PASS_TIMEOUT_S = 150

# metric name -> unit, as declared for the driver
UNITS = {
    m["name"]: m["unit"]
    for key in ("end_to_end", "per_layer")
    for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]
}


def run_pass(workload: str, items: list, trace: bool, full_check: bool) -> dict:
    job = json.dumps({
        "src": str(SRC), "workload": workload, "items": items,
        "trace": trace, "full_check": full_check,
    })
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")], input=job, env=env,
        capture_output=True, text=True, timeout=PASS_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr}")
    report = json.loads(proc.stdout)
    report["setup_s"] = report["ready"] - spawned
    report["traced"] = trace
    return report


def compare_outputs(items, passes) -> list[str]:
    """Later passes must give the first pass's meanings."""
    problems = []
    first = passes[0]["outputs"]
    for p in passes[1:]:
        for item, a, b in zip(items, first, p["outputs"]):
            if a is not None and b is not None and (
                len(a) != len(b)
                or any(abs(x - y) > 1e-12 * max(1.0, abs(x)) for x, y in zip(a, b))
            ):
                problems.append(f"{' '.join(item['words'])}: meaning changed "
                                "between passes")
    return problems


def end_to_end(passes) -> dict:
    times = [t for p in passes for t in p["item_s"]]
    return {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "items_per_s": len(times) / sum(times),
        "item_p50_ms": statistics.median(times) * 1e3,
        "item_p90_ms": statistics.quantiles(times, n=10)[8] * 1e3,
        "peak_rss_mb": max(p["rss_kb"] for p in passes) / 1024,
    }


def per_layer(plain, traced) -> dict:
    out = {
        name: statistics.median(p["layers"][name] for p in traced)
        for name in traced[0]["layers"]
    }
    base = statistics.median(sum(p["item_s"]) for p in plain)
    with_trace = statistics.median(sum(p["item_s"]) for p in traced)
    out["trace.overhead_pct"] = 100 * (with_trace - base) / base
    return out


def write_trace(path: Path, workload, seed, traced) -> None:
    import tracing

    doc = {
        "workload": workload, "seed": seed,
        "span_fields": ["name", "parent", "start_ns", "end_ns", "a", "b"],
        "sum_fields": ["name", "parent_name", "inclusive_s", "self_s",
                       "calls", "a", "b"],
        "passes": [
            {"layers": p["layers"],
             "sums_by_name_and_parent": [
                 [name, parent, *sums]
                 for (name, parent), sums in tracing.span_sums(p["spans"]).items()
             ],
             "spans": p["spans"]}
            for p in traced
        ],
    }
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(doc, fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "lambeksem" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'lambeksem'} is missing",
              file=sys.stderr)
        return 2

    items = corpus.WORKLOADS[args.workload](args.seed)
    trace = bool(args.trace)
    passes: list[dict] = []
    start = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(args.workload, items, traced, not passes))
        plain = [p for p in passes if not p["traced"]]
        done = time.monotonic() - start >= args.seconds
        if trace:
            done = done and len(passes) >= 2
        else:
            done = done and sum(len(p["item_s"]) for p in plain) >= MIN_ITEMS
        if done:
            break

    problems = [q for p in passes for q in p["problems"]]
    problems += compare_outputs(items, passes)
    errors = [e for p in passes for e in p["errors"]]
    OUT.mkdir(exist_ok=True)
    if trace:
        traced_passes = [p for p in passes if p["traced"]]
        metrics = per_layer(plain, traced_passes)
        write_trace(OUT / f"trace-{args.workload}-{args.seed}.json.gz",
                    args.workload, args.seed, traced_passes)
    else:
        metrics = end_to_end(plain)
    with open(OUT / f"run-{args.workload}-{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump({"items": items, "passes": [
            {k: p[k] for k in ("traced", "setup_s", "rss_kb", "item_s", "errors")}
            for p in passes]}, fh)
    for line in sorted(set(problems)) + sorted(set(errors)):
        print(line, file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(items) * len(passes),
        "failed": len(errors),
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
