"""Machine-speed reference for the benchmark's timings.

On a shared 2-core virtual machine the speed of one core drifts: the same
pure-Python work takes up to 1.7x longer for stretches of seconds to
minutes, so raw wall times of two runs differ by 20% or more.  The
benchmark therefore runs a fixed kernel between cases, every tenth of a
second or so, and scales every measured time by
REFERENCE_S / (kernel time measured next to it), which gives times at a
fixed reference speed.

The kernel uses only the standard library, so no change to subres can move
it.  It does the kind of work subres spends its time on: a fraction-free
Bareiss elimination over Fractions, and one over sparse polynomials with
Fraction coefficients (tuple-keyed dicts, exact division).
"""

from __future__ import annotations

import time
from fractions import Fraction

# Kernel time on the reference machine (2-core VM, Python 3.11.7) in its
# faster state; scaled times read as seconds on that machine.
REFERENCE_S = 0.0048

# Diagonally dominant, so every Bareiss pivot is nonzero.
_RATIONAL = [
    [Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 4) + 40 * (i == j) for j in range(8)]
    for i in range(8)
]
_POLY = [
    [
        {
            (i % 2, j % 3, 0): Fraction(1 + i, 1 + j),
            (0, 0, (i + j) % 2): Fraction(i - j + 1),
            (0, 0, 0): Fraction(i * j % 5 - 2, 3) + 10 * (i == j),
        }
        for j in range(4)
    ]
    for i in range(4)
]


def _bareiss(a, mul, sub, div, one):
    n = len(a)
    prev = one
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = div(sub(mul(a[k][k], a[i][j]), mul(a[i][k], a[k][j])), prev)
        prev = a[k][k]
    return a[n - 1][n - 1]


def _pmul(p, q):
    out = {}
    for ka, ca in p.items():
        for kb, cb in q.items():
            key = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2])
            out[key] = out.get(key, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def _psub(p, q):
    out = dict(p)
    for k, c in q.items():
        out[k] = out.get(k, 0) - c
    return {k: c for k, c in out.items() if c}


def _grlex(key):
    return (sum(key), key)


def _pdiv(num, den):
    """Exact quotient num / den; the remainder is zero by construction."""
    work = dict(num)
    quo = {}
    dlead = max(den, key=_grlex)
    dval = den[dlead]
    while work:
        lead = max(work, key=_grlex)
        q = tuple(a - b for a, b in zip(lead, dlead))
        c = work[lead] / dval
        quo[q] = quo.get(q, 0) + c
        for dk, dc in den.items():
            k = tuple(a + b for a, b in zip(q, dk))
            v = work.get(k, 0) - c * dc
            if v == 0:
                work.pop(k, None)
            else:
                work[k] = v
    return quo


def kernel():
    rational = _bareiss(
        [row[:] for row in _RATIONAL],
        lambda x, y: x * y,
        lambda x, y: x - y,
        lambda x, y: x / y,
        Fraction(1),
    )
    poly = _bareiss(
        [[dict(v) for v in row] for row in _POLY], _pmul, _psub, _pdiv, {(0, 0, 0): Fraction(1)}
    )
    return rational, poly


def sample() -> float:
    """Seconds taken by one kernel call."""
    started = time.perf_counter()
    kernel()
    return time.perf_counter() - started
