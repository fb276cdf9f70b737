"""Inputs of the three workloads, made from the run's seed.

Nothing here imports the program: the inputs and the answers they must
get are fixed by construction, before any sentence is parsed.

* ``suite``: the criterion-1 sentences of ``tests/test_acceptance.py``,
  with their goals, recorded bracketings and verdicts.  Fixed; the seed
  does not change it.
* ``generated``: distinct unbracketed sentences made by substituting
  words of one class into the criterion-1 patterns.  Every word of a
  class has the same type set (and the same meaning network) in the
  bundled lexicon, so a sentence gets the verdict of its pattern.  The
  seed picks the words; the number of items per pattern and their order
  are fixed, so every seed gives the same work.
* ``meanings``: one evaluation request per item: a sentence with its
  recorded bracketing, a dimension table and a store seed.  Every pass
  holds each (pattern, N, S) cell once, in a fixed order; the seed picks
  the words and the store seeds.
"""

from __future__ import annotations

import itertools
import random

# Word classes whose members carry identical type sets in the bundled
# lexicon.  Words outside a class stay fixed in their pattern.
CLASSES = {
    "N": ("papers", "window", "room", "proposal", "paper", "report", "NYT",
          "security_breach", "candidate", "friend"),
    "NP": ("Bob", "reviewers", "I"),
    "DET": ("a", "the", "every"),
    "TV": ("rejected", "reject", "accept", "left"),
    "GER": ("reading", "closing", "liking", "studying"),
    "GMOD": ("really", "cursorily", "thoroughly"),
    "GPRE": ("not", "even"),
    "ADJ": ("without", "despite", "before"),
    "AUX": ("will", "would"),
    "TOUGH": ("hard", "easy"),
    "TOINF": ("to_understand", "to_explain"),
    "CTRL": ("persuade", "persuaded"),
}

CONTROL_BRACKETING = (
    "(this (is (a (candidate (whom ((I (would (persuade "
    "(every (friend of))))) (to_vote for)))))))"
)
TWO_CLAUSE_BRACKETING = (
    "(I (know ((which papers) (Bob (will "
    "(reject i:(before (even (reading cursorily)))))))))"
)

# (sentence, goal, bracketing or None, derivable)
SUITE = (
    ("papers that Bob rejected", "n", None, True),
    ("papers that Bob rejected immediately", "n", None, True),
    ("Bob left the room without closing the window", "s", None, True),
    ("window that Bob left the room without closing", "n", None, False),
    ("papers that Bob rejected without reading", "n", None, True),
    ("papers that Bob rejected without reading carefully", "n", None, True),
    ("security_breach that a report about in the NYT made public",
     "n", None, True),
    ("this is a candidate whom I would persuade every friend of to_vote for",
     "s", CONTROL_BRACKETING, True),
    ("which papers did Bob reject", "wh", None, True),
    ("which papers did Bob reject immediately", "wh", None, True),
    ("I know which papers Bob will reject", "s", None, True),
    ("I know which papers Bob will reject immediately", "s", None, True),
    ("this paper is hard to_understand", "s", None, True),
    ("which papers did Bob accept despite not liking", "wh", None, True),
    ("which papers did Bob accept despite not liking really",
     "wh", None, True),
    ("I know which papers Bob will reject before even reading cursorily",
     "s", TWO_CLAUSE_BRACKETING, True),
    ("this paper is easy to_explain well after studying thoroughly",
     "s", None, True),
    ("papers that Bob rejected the proposal", "n", None, False),
)

# Patterns for ``generated``: (name, pattern, goal, derivable, items per
# pass).  Capitalised tokens are word classes.  The counts fix the mix:
# about half the items are underivable, the cheapest rejections and
# derivations fill the middle of the per-item distribution, and the
# island violations (about 15 %) fill its top decile, so that the median
# and the 90th percentile each sit inside one group of like items.
FAMILIES = (
    # derivable: criterion-1 patterns and two short transitive clauses
    ("relative", "N that NP TV", "n", True, 3),
    ("relative_adverb", "N that NP TV immediately", "n", True, 1),
    ("adjunct_clause", "NP TV DET N ADJ GER DET N", "s", True, 1),
    ("gap_relative", "N that NP TV ADJ GER", "n", True, 1),
    ("two_gap_relative", "N that NP TV ADJ GER carefully", "n", True, 1),
    ("question", "which N did NP TV", "wh", True, 2),
    ("question_adverb", "which N did NP TV immediately", "wh", True, 1),
    ("embedded_question", "NP know which N NP AUX TV", "s", True, 1),
    ("embedded_question_adverb", "NP know which N NP AUX TV immediately",
     "s", True, 1),
    ("tough", "this N is TOUGH TOINF", "s", True, 1),
    ("gap_question", "which N did NP TV ADJ GPRE GER", "wh", True, 1),
    ("clause", "NP TV NP", "s", True, 2),
    ("clause_det", "NP TV DET N", "s", True, 2),
    # underivable: island violations (the only gap sits inside the
    # island), filled gaps (an extra argument), wrong goals and a
    # missing argument
    ("island", "N that NP TV DET N ADJ GER", "n", False, 6),
    ("island_np", "N that NP TV NP ADJ GER", "n", False, 1),
    ("filled_relative", "N that NP TV DET N", "n", False, 5),
    ("filled_question", "which N did NP TV DET N", "wh", False, 1),
    ("filled_embedded", "NP know which N NP AUX TV NP", "s", False, 1),
    ("relative_as_clause", "N that NP TV", "s", False, 3),
    ("question_as_clause", "which N did NP TV", "s", False, 3),
    ("relative_no_verb", "N that NP", "n", False, 2),
    ("clause_as_noun", "NP TV NP", "n", False, 2),
)

# Patterns for ``meanings``: (name, pattern, goal, bracketing with one
# ``{}`` per word, closed form or None, dimension cells).  The control
# sentence derives in about 40 ms whatever the dimensions, so it gets the
# four square cells only; the others get all sixteen.
DIMS = (2, 4, 8, 16)
ALL_CELLS = tuple(itertools.product(DIMS, DIMS))
SQUARE_CELLS = tuple((d, d) for d in DIMS)
MEANINGS = (
    ("relative", "N that NP TV", "n", "({} ({} ({} {})))",
     "relative", ALL_CELLS),
    ("relative_adverb", "N that NP TV immediately", "n",
     "({} ({} ({} ({} {}))))", None, ALL_CELLS),
    ("gap_relative", "N that NP TV ADJ GER", "n",
     "({} ({} ({} ({} i:({} {})))))", "gap_relative", ALL_CELLS),
    ("two_gap_relative", "N that NP TV ADJ GER carefully", "n",
     "({} ({} ({} ({} i:({} ({} {}))))))", None, ALL_CELLS),
    ("two_clause", "NP know which N NP AUX TV ADJ GPRE GER GMOD", "s",
     "({} ({} (({} {}) ({} ({} ({} i:({} ({} ({} {})))))))))",
     None, ALL_CELLS),
    ("control", "this is a N whom NP AUX CTRL DET N of to_vote for", "s",
     "({} ({} ({} ({} ({} (({} ({} ({} ({} ({} {}))))) ({} {})))))))",
     None, SQUARE_CELLS),
)


def _fresh(pattern: str, rng: random.Random, used: set) -> list[str]:
    """A filling of ``pattern`` not in ``used``; adds it to ``used``."""
    for _ in range(1000):
        words = tuple(rng.choice(CLASSES[tok]) if tok in CLASSES else tok
                      for tok in pattern.split())
        if words not in used:
            used.add(words)
            return list(words)
    raise ValueError(f"pattern {pattern!r} has run out of fillings")


def suite_items(seed: int) -> list[dict]:
    del seed  # the reference corpus is fixed
    return [
        {"family": "suite", "words": s.split(), "goal": goal,
         "bracketing": br, "derivable": want}
        for s, goal, br, want in SUITE
    ]


# The order of items in a pass is one fixed interleaving of the
# patterns, the same for every seed: the program's caches then fill in
# the same order whatever the seed, since the words of a class share
# their types.


def generated_items(seed: int) -> list[dict]:
    slots = [f for f in FAMILIES for _ in range(f[4])]
    random.Random("generated/order").shuffle(slots)
    rng = random.Random(f"generated/{seed}")
    used: set = set()
    return [
        {"family": name, "words": _fresh(pattern, rng, used), "goal": goal,
         "bracketing": None, "derivable": want}
        for name, pattern, goal, want, _ in slots
    ]


def meaning_items(seed: int) -> list[dict]:
    slots = [(m, cell) for m in MEANINGS for cell in m[5]]
    random.Random("meanings/order").shuffle(slots)
    rng = random.Random(f"meanings/{seed}")
    used: set = set()
    items = []
    for (name, pattern, goal, shape, closed, _), (n, s) in slots:
        words = _fresh(pattern, rng, used)
        items.append({
            "family": name, "words": words, "goal": goal,
            "bracketing": shape.format(*words), "derivable": True,
            "dims": {"N": n, "S": s}, "store_seed": rng.randrange(2**32),
            "closed_form": closed,
        })
    return items


WORKLOADS = {
    "suite": suite_items,
    "generated": generated_items,
    "meanings": meaning_items,
}
