"""Small combinatorial enumerators shared across modules."""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple


def compositions(total: int, parts: int) -> Iterator[Tuple[int, ...]]:
    """All tuples of ``parts`` nonnegative ints summing to ``total``."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


def canon_key(exponents: Sequence[int]):
    """Graded order key: degree first, then lexicographic with x1 heaviest."""
    return (sum(exponents), tuple(-e for e in exponents))


def monomials_of_degree(nvars: int, degree: int) -> list[Tuple[int, ...]]:
    """Degree-``degree`` exponent vectors in canonical order (x1-heavy first)."""
    out = [tuple(c) for c in compositions(degree, nvars)]
    out.sort(key=canon_key)
    return out
