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


def hilbert_function(degrees: Sequence[int], t: int) -> int:
    """Number of alpha in N^n with |alpha| <= t, alpha_i < D_i for i <= n
    and t - |alpha| < D_{n+1}: the sum of tau_j(D_1..D_n) over the window
    t - D_{n+1} < j <= t, as tau_j counts those alpha with |alpha| = j."""
    degs = _check_degrees(degrees, minimum=2)
    if not isinstance(t, int) or t < 0:
        raise DomainError("t must be a nonnegative int")
    first, last = degs[:-1], degs[-1]
    return sum(tau(first, j) for j in range(max(0, t - last + 1), t + 1))


def tau(degrees: Sequence[int], j: int) -> int:
    """Coefficient of z^j in prod (1 - z^{D_i}) / (1 - z)^n, i.e. in the
    product of the truncated geometric series of each degree."""
    degs = _check_degrees(degrees, minimum=1)
    if not isinstance(j, int) or j < 0:
        raise DomainError("j must be a nonnegative int")
    series = [1]
    for d in degs:
        out = [0] * (len(series) + d - 1)
        for a, ca in enumerate(series):
            if ca:
                for b in range(d):
                    out[a + b] += ca
        series = out
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
    rho: int
    bezout: int
    tau_values: Tuple[int, ...]
    s: int
    r: int


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
    """
    degs = _check_degrees(degrees, minimum=2)
    if not isinstance(t, int) or t < 0:
        raise DomainError("t must be a nonnegative int")
    first, last = degs[:-1], degs[-1]
    n = len(first)
    rho = sum(d - 1 for d in first)
    forced_below = t - last + 1
    override = {int(j): list(m) for j, m in (t_override or {}).items()}
    tj: Dict[int, MonomialSet] = {}
    tau_values = []
    for j in range(0, max(rho, t) + 1):
        tau_j = tau(first, j)
        tau_values.append(tau_j)
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
    k = hilbert_function(degs, t)
    bezout = prod(first)
    combo = SystemCombinatorics(
        degrees=degs,
        t=t,
        k=k,
        rho=rho,
        bezout=bezout,
        tau_values=tuple(tau_values),
        s=len(T_star),
        r=len(R),
    )
    if len(T) != bezout:
        raise DomainError("|T| = %d does not match the degree product %d" % (len(T), bezout))
    if k + combo.s + combo.r != bezout:
        raise DomainError(
            "count mismatch: k + |T*| + |R| = %d + %d + %d != %d"
            % (k, combo.s, combo.r, bezout)
        )
    return MonomialSets(tj=tj, T=T, T_star=T_star, R=R, combinatorics=combo)
