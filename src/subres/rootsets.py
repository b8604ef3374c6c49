"""Root sets with multiplicities and the pairing they induce.

A set carries one private store of what is derived from it alone: its
monic polynomial here, its integral confluent Vandermonde table, closed-form
Vandermonde determinant and Hermite basis in ``confluent``.  Each entry is
built on first use and lives as long as the set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence, Tuple

from .errors import DomainError
from .scalar import Scalar, _numerators, _quotient, as_scalar
from .unipoly import UniPoly


@dataclass(frozen=True)
class MultiRootSet:
    """Roots alpha_1..alpha_m with multiplicities d_1..d_m, pairwise distinct."""

    pairs: Tuple[Tuple[Scalar, int], ...]
    # Values derived from the set alone, by key (see ``_once``).  Not part
    # of the value: sets equal as values may hold entries of different
    # types (``Rat(3)``, ``ParamPoly.constant(3)``), so nothing is shared
    # between sets.
    _derived: dict = field(default=None, init=False, repr=False, compare=False)

    def __init__(self, pairs):
        norm = []
        for root, mult in pairs:
            if not isinstance(mult, int) or mult < 1:
                raise DomainError("multiplicity must be a positive int, got %r" % (mult,))
            norm.append((as_scalar(root), mult))
        if not norm:
            raise DomainError("a root set needs at least one root")
        for i in range(len(norm)):
            for j in range(i + 1, len(norm)):
                if norm[i][0] == norm[j][0]:
                    raise DomainError("repeated root %s" % (norm[i][0],))
        object.__setattr__(self, "pairs", tuple(norm))
        object.__setattr__(self, "_derived", {})

    @property
    def m(self) -> int:
        return len(self.pairs)

    @property
    def roots(self) -> Tuple[Scalar, ...]:
        return tuple(r for r, _ in self.pairs)

    @property
    def mults(self) -> Tuple[int, ...]:
        return tuple(d for _, d in self.pairs)

    @property
    def total(self) -> int:
        return sum(d for _, d in self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def _once(self, key, build, *args):
        """The value stored under ``key``, built as ``build(self, *args)``
        on first use.  Callers must not change it."""
        store = self._derived
        if key not in store:
            store[key] = build(self, *args)
        return store[key]


def poly_from_roots(a: MultiRootSet) -> UniPoly:
    """Monic polynomial with exactly these roots and multiplicities, built
    once per set."""
    return a._once("poly", _monic)


def _monic(pairs: Iterable[Tuple[Scalar, int]]) -> UniPoly:
    """prod (x - root)^mult over (root, multiplicity) pairs, a root set's
    or any others."""
    out = UniPoly.from_integers([1])
    for root, mult in pairs:
        out = out * UniPoly.root_factor(root) ** mult
    return out


def pairing_R(a: Iterable[Tuple[Scalar, int]], b: Iterable[Tuple[Scalar, int]]) -> Scalar:
    """Product of (alpha_i - beta_j)^(d_i e_j) over all root pairs, of two
    root sets or of any (root, multiplicity) pairs.

    Zero exactly when the sets share a root; for monic polynomials this is
    the resultant of the two products, as the cross-check battery reads
    it, and the double sum takes its weights here.  The pairs are read
    once, so generators serve, and the product runs on integer numerators
    with one division (``_difference_product``).
    """
    pairs = list(a)
    n = len(pairs)
    pairs += b
    return _difference_product(pairs, [(i, j) for i in range(n) for j in range(n, len(pairs))])


def _difference_product(pairs: Sequence[Tuple[Scalar, int]], links) -> Scalar:
    """Product of (r_i - r_j)^(m_i m_j) over the index pairs (i, j) in
    ``links`` of the (root, multiplicity) pairs.

    With the roots r = x / q over one common denominator q (``_numerators``),
    it is the product of (x_i - x_j)^(m_i m_j), ints or integer-coefficient
    ``ParamPoly``s, divided once by q^(sum m_i m_j).  No link gives 1.
    """
    nums, q = _numerators([root for root, _ in pairs])
    acc, power = 1, 0
    for i, j in links:
        k = pairs[i][1] * pairs[j][1]
        acc = acc * (nums[i] - nums[j]) ** k
        power += k
    return _quotient(acc, q**power)
