"""Counting functions and monomial-set bookkeeping for n+1 equations in n
variables.

For degrees D_1..D_{n+1} and an order t, the count k says how many
degree-t monomials escape the staircase generated by the first n degrees
once the last equation is taken into account; the tau_j count the reduced
monomials of degree j for the first n degrees alone.  Out of these two the
module assembles the monomial families T_j, T, T*, R used downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..combinat import monomials_of_degree
from ..errors import DomainError

Expo = Tuple[int, ...]


def _check_degrees(degrees: Sequence[int], minimum: int = 1) -> Tuple[int, ...]:
    degs = tuple(degrees)
    if len(degs) < minimum or any(not isinstance(d, int) or d < 1 for d in degs):
        raise DomainError("degrees must be positive ints, got %r" % (degs,))
    return degs


def _tau_series(first: Sequence[int]) -> list:
    """tau_0..tau_rho of the degrees ``first``, rho = sum (D_i - 1): the
    coefficients of prod (1 - z^{D_i}) / (1 - z)^n, i.e. of the product of
    the truncated geometric series of each degree, with tau_j = 0 beyond
    rho.  At z = 1 each factor is D_i, so the coefficients sum to prod D_i.
    """
    series = [1]
    for d in first:
        out = [0] * (len(series) + d - 1)
        for a, ca in enumerate(series):
            if ca:
                for b in range(d):
                    out[a + b] += ca
        series = out
    return series


def hilbert_function(degrees: Sequence[int], t: int) -> int:
    """Number of alpha in N^n with |alpha| <= t, alpha_i < D_i for i <= n
    and t - |alpha| < D_{n+1}: the sum of tau_j(D_1..D_n) over the window
    t - D_{n+1} < j <= t, as tau_j counts those alpha with |alpha| = j."""
    degs = _check_degrees(degrees, minimum=2)
    if not isinstance(t, int) or t < 0:
        raise DomainError("t must be a nonnegative int")
    return sum(_tau_series(degs[:-1])[max(0, t - degs[-1] + 1) : t + 1])


def tau(degrees: Sequence[int], j: int) -> int:
    """Coefficient of z^j in prod (1 - z^{D_i}) / (1 - z)^n (``_tau_series``)."""
    degs = _check_degrees(degrees, minimum=1)
    if not isinstance(j, int) or j < 0:
        raise DomainError("j must be a nonnegative int")
    series = _tau_series(degs)
    return series[j] if j < len(series) else 0


@dataclass(frozen=True)
class MonomialSet:
    """An ordered duplicate-free family of exponent vectors."""

    monomials: Tuple[Expo, ...]

    def __init__(self, monomials):
        monos = [tuple(m) for m in monomials]
        if len(set(monos)) != len(monos):
            raise DomainError("duplicate monomials in %r" % (monos,))
        width = {len(m) for m in monos}
        if len(width) > 1:
            raise DomainError("mixed variable counts in a monomial set")
        object.__setattr__(self, "monomials", tuple(monos))

    def __iter__(self):
        return iter(self.monomials)

    def __len__(self):
        return len(self.monomials)


@dataclass(frozen=True)
class SystemCombinatorics:
    degrees: Tuple[int, ...]
    t: int
    k: int
    bezout: int


@dataclass(frozen=True)
class MonomialSets:
    """The T_j family with the derived sets and counts."""

    tj: Mapping[int, MonomialSet]
    T: MonomialSet
    T_star: MonomialSet
    R: MonomialSet
    combinatorics: SystemCombinatorics


def _reduced_of_degree(first: Sequence[int], j: int) -> list:
    return [m for m in monomials_of_degree(len(first), j) if all(e < d for e, d in zip(m, first))]


def build_monomial_sets(
    degrees: Sequence[int],
    t: int,
    t_override: Optional[Mapping[int, Sequence[Expo]]] = None,
) -> MonomialSets:
    """Choose the degree-j slices T_j and derive T, T*, R.

    For j below t - D_{n+1} + 1 the slice is forced: all reduced monomials
    of degree j.  Above that any tau_j distinct monomials of degree j are
    admissible; the default takes the first ones in canonical order, and
    ``t_override`` substitutes a caller-supplied slice per degree.

    The tau series of the first n degrees is built once; tau_j and k are
    read from it.  Each T_j has tau_j elements and the series
    sums to prod D_i, so |T| = prod D_i.  R takes the degrees below the
    window t - D_{n+1} < j <= t that k sums, and T* those above it, so
    k + |T*| + |R| = prod D_i as well.
    """
    degs = _check_degrees(degrees, minimum=2)
    if not isinstance(t, int) or t < 0:
        raise DomainError("t must be a nonnegative int")
    first, last = degs[:-1], degs[-1]
    n = len(first)
    series = _tau_series(first)
    rho = len(series) - 1
    forced_below = t - last + 1
    override = {int(j): list(m) for j, m in (t_override or {}).items()}
    tau_values = series + [0] * (t - rho)
    tj: Dict[int, MonomialSet] = {}
    for j, tau_j in enumerate(tau_values):
        if j < forced_below:
            chosen = _reduced_of_degree(first, j)
            if j in override and sorted(map(tuple, override[j])) != sorted(chosen):
                raise DomainError(
                    "T_%d is forced to the reduced monomials of degree %d" % (j, j)
                )
        elif j in override:
            chosen = [tuple(m) for m in override[j]]
            if len(chosen) != tau_j:
                raise DomainError(
                    "T_%d override must have exactly tau_%d = %d monomials" % (j, j, tau_j)
                )
            for m in chosen:
                if len(m) != n or sum(m) != j or any(e < 0 for e in m):
                    raise DomainError("T_%d override monomial %r must have degree %d" % (j, m, j))
        else:
            chosen = monomials_of_degree(n, j)[:tau_j]
        tj[j] = MonomialSet(chosen)
    unknown = set(override) - set(tj)
    if unknown:
        raise DomainError("override degrees %s outside the used range" % sorted(unknown))
    T = MonomialSet([m for j in range(rho + 1) for m in tj[j]])
    T_star = MonomialSet([m for j in range(t + 1, rho + 1) for m in tj[j]])
    R = MonomialSet([m for j in range(min(forced_below, rho + 1)) for m in tj[j]])
    combo = SystemCombinatorics(
        degrees=degs,
        t=t,
        k=sum(tau_values[max(0, forced_below) : t + 1]),
        bezout=prod(first),
    )
    return MonomialSets(tj=tj, T=T, T_star=T_star, R=R, combinatorics=combo)
