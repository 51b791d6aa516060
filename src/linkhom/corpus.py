"""Shared test corpus: braid presentations and seeded random generators.

Used both by the command-line ``verify`` suites and by the test suite,
so the two always exercise the same inputs.
"""

from __future__ import annotations

import random

from .linkdiag import BraidWord, parse_braid

# Diagrams with at most 12 crossings: torus family, twist/alternating
# samples, mirrors, and a few multi-strand words.
DIAGRAMS: tuple[str, ...] = (
    "1:",
    "2: 1",
    "2: -1",
    "2: 1 1",
    "2: -1 -1",
    "2: 1 1 1",
    "2: -1 -1 -1",
    "2: 1 1 1 1",
    "2: 1 1 1 1 1",
    "2: 1 1 1 1 1 1",
    "2: 1 1 1 1 1 1 1",
    "3: 1 2 1 2",
    "3: 1 2 1 2 1 2",
    "3: 1 2 1 2 1 2 1 2",
    "3: 1 2 1 2 1 2 1 2 1 2",
    "3: 1 -2 1 -2",
    "3: -1 2 -1 2",
    "3: 1 1 -2 1 -2",
    "3: 1 1 2 2",
    "3: 1 -1 2 -2",
    "3: 1 2 -1 2",
    "3: 2 2 1 1 2",
    "4: 1 2 3 1 2 3",
    "4: 1 -2 3 -2 1",
    "4: 1 2 -3 2 1",
    "4: 1 1 2 2 3 3",
    "4: 1 3 2 1 3 2",
    "4: -1 -2 -3 -1 -2 -3",
    "2: 1 -1 1 -1 1",
    "3: 1 1 1 -2 -2",
    "3: -1 -1 2 2 -1",
    "4: 2 1 3 2 1 1",
    "3: 1 2 2 1 2 2",
    "2: -1 -1 -1 -1 -1",
)

# Markov-related presentations of three reference links, six each.
MARKOV_FAMILIES: dict[str, tuple[str, ...]] = {
    "unknot": (
        "1:",
        "2: 1",
        "2: -1",
        "3: 1 2",
        "3: 1 -2",
        "2: 1 1 -1",
    ),
    "trefoil": (
        "2: 1 1 1",
        "2: -1 1 1 1 1",
        "3: 1 1 1 2",
        "3: 1 1 1 -2",
        "3: 1 2 1 2",
        "4: 1 1 1 2 3",
    ),
    "figure-eight": (
        "3: 1 -2 1 -2",
        "3: -2 1 -2 1",
        "4: 1 -2 1 -2 3",
        "4: 1 -2 1 -2 -3",
        "3: 1 1 -2 1 -2 -1",
        "3: -2 -2 1 -2 1 2",
    ),
}


def corpus_diagrams(max_crossings: int = 12) -> list[BraidWord]:
    out = []
    for text in DIAGRAMS:
        b = parse_braid(text)
        if len(b.letters) <= max_crossings:
            out.append(b)
    return out


def random_words(seed: int, count: int, max_strands: int = 4, max_crossings: int = 10):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        strands = rng.randint(2, max_strands)
        length = rng.randint(1, max_crossings)
        letters = []
        for _ in range(length):
            k = rng.randint(1, strands - 1)
            letters.append(rng.choice([k, -k]))
        out.append(BraidWord(strands, tuple(letters)))
    return out


def random_positive_knots(seed: int, count: int):
    """Positive braid words whose closure is a single component."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        strands = rng.randint(2, 4)
        length = rng.randint(strands, 12)
        letters = tuple(rng.randint(1, strands - 1) for _ in range(length))
        b = BraidWord(strands, letters)
        if b.is_knot():
            out.append(b)
    return out
