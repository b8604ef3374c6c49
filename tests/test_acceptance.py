"""Acceptance gate: the eight binding criteria, one visible verdict line each.

Each test prints "CRITERION k: PASS/FAIL — detail" on the real stdout (so the
line survives pytest's capture) and then asserts.  Criterion 6 bundles four
closed-form determinant identities; for the block-diagonal companion V',
built by the oracle ``vprime_per_call``, it checks
det V' = prod_i fbar_i(alpha_i)^(d_i) = (-1)^(sum_{i<j} d_i d_j) (det V)^2,
whose sign is the simple-root (-1)^(m(m-1)/2) when every d_i = 1 but not in
general (for ((0,2),(1,1)), det V' = +1 where the simple-root sign gives -1).
"""

import random
import time
from math import comb

from subres import (
    DomainError,
    MultiPoly,
    MultiRootSet,
    ParamPoly,
    Rat,
    UniPoly,
    VARIANTS,
    param,
    poly_from_roots,
    sres_coeff,
    sres_dm1_hermite,
    sres_one,
    sres_roots,
    sylv_double_sum,
    taylor_coeff,
    vandermonde_confluent,
    vandermonde_det_closed,
    wronskian,
    wronskian_det_closed,
)
from oracles import monomials_up_to, vprime_per_call
from subres.confluent import _inverse_mismatch, _root
from subres.matrix import ExactMatrix, det_exact
from subres.mv.duality import DualFunctional, Point, assemble_dual_basis, dual_eval, inverse_system
from subres.mv.hilbert import build_monomial_sets
from subres.mv.macaulay import MVSystem, delta_s, extraneous_factor, macaulay_matrix
from subres.mv.duality import dual_vandermonde, dual_wronskian
from subres.mv.poisson import poisson_delta
from subres.verify import random_pair, random_rootset
from test_roots_formulas import composition_sum_single_block

SEED = 20260814

# One verdict line per criterion; conftest's pytest_terminal_summary hook
# prints these after the run so they appear even under captured output.
VERDICTS = []


def _report(num: int, ok: bool, detail: str = "") -> None:
    line = "CRITERION %d: %s" % (num, "PASS" if ok else "FAIL")
    if detail:
        line += " — %s" % detail
    VERDICTS.append(line)
    print(line)


def _specialize(p: UniPoly, assignment) -> UniPoly:
    return UniPoly(
        [c.substitute(assignment) if isinstance(c, ParamPoly) else c for c in p.coeffs]
    )


def test_criterion_1_multivariate_example():
    started = time.perf_counter()
    c0, c1, c2 = param("c0"), param("c1"), param("c2")
    f1 = MultiPoly(2, {(1, 1): Rat(1)})
    f2 = MultiPoly(2, {(2, 0): Rat(1), (0, 2): Rat(1), (0, 1): Rat(-2)})
    f3 = MultiPoly(2, {(0, 0): c0, (1, 0): c1, (0, 1): c2})
    sys_ = MVSystem(2, (f1, f2, f3), (2, 2, 1))
    target = c0**3 + 2 * c0**2 * c2

    delta = delta_s(sys_, 2, [(2, 0)])
    e_factor = extraneous_factor(sys_, 2)

    p0, p2 = Point((Rat(0), Rat(0))), Point((Rat(0), Rat(2)))
    basis = assemble_dual_basis(
        [
            (
                p0,
                [
                    DualFunctional(p0, {(0, 0): Rat(1)}),
                    DualFunctional(p0, {(1, 0): Rat(1)}),
                    DualFunctional(p0, {(0, 1): Rat(1), (2, 0): Rat(2)}),
                ],
            ),
            (p2, [DualFunctional(p2, {(0, 0): Rat(1)})]),
        ],
        expected_total=4,
    )
    sets = build_monomial_sets((2, 2, 1), 2, t_override={2: [(0, 2)]})
    det_vt = det_exact(dual_vandermonde(sets.T.monomials, basis))
    o_rows = list(dual_vandermonde([(2, 0)], basis).rows)
    o_rows += list(dual_wronskian(f3, sets.R.monomials, basis).rows)
    det_os = det_exact(ExactMatrix(o_rows))
    quotient = poisson_delta(sys_, 2, [(2, 0)], basis, sets)

    elapsed = time.perf_counter() - started
    ok = (
        (delta == target or delta == -target)
        and e_factor == Rat(1)
        and det_vt == Rat(4)
        and det_os == 4 * target
        and quotient == delta
        and elapsed < 1.0
    )
    _report(
        1,
        ok,
        "delta_s = %s, E = %s, det O_S/det V_T = (%s)/%s, %.3f s"
        % (delta, e_factor, det_os, det_vt, elapsed),
    )
    assert ok


def test_criterion_2_inverse_system_multiplicity_eleven():
    started = time.perf_counter()
    f1 = MultiPoly(2, {(1, 2): Rat(2), (4, 0): Rat(5)})
    f2 = MultiPoly(2, {(2, 1): Rat(2), (0, 4): Rat(5)})
    result = inverse_system([f1, f2], (0, 0))
    annihilates = all(
        dual_eval(func, g) == 0 for func in result.functionals for g in (f1, f2)
    )
    elapsed = time.perf_counter() - started
    ok = (
        result.dimension == 11
        and not result.truncated
        and annihilates
        and elapsed < 10.0
    )
    _report(
        2,
        ok,
        "dimension %d at order %s, all functionals annihilate both generators, %.3f s"
        % (result.dimension, result.order_stabilized, elapsed),
    )
    assert ok


def test_criterion_3_root_formula_oracle_suite():
    started = time.perf_counter()
    rng = random.Random(SEED)
    pairs = equalities = 0
    first_bad = None
    for _ in range(100):
        a, b = random_pair(rng, max_degree=6, max_mult=3)
        f, g = poly_from_roots(a), poly_from_roots(b)
        d, e = a.total, b.total
        pairs += 1
        top = d if d < e else d - 1
        for t in range(top + 1):
            want = sres_coeff(f, g, t)
            for variant in VARIANTS:
                got = sres_roots(a, b, t, variant)
                equalities += 1
                if got != want and first_bad is None:
                    first_bad = (a, b, t, variant, got, want)
    elapsed = time.perf_counter() - started
    ok = first_bad is None and pairs >= 100 and elapsed < 120.0
    _report(
        3,
        ok,
        "%d pairs, %d exact variant-vs-determinant equalities, %.2f s"
        % (pairs, equalities, elapsed)
        if ok
        else "first mismatch: %s" % (first_bad,),
    )
    assert ok


def test_criterion_4_extremal_formulas():
    rng = random.Random(SEED)
    hermite_hits = one_hits = 0
    first_bad = None
    for _ in range(100):
        a, b = random_pair(rng, max_degree=6, max_mult=3)
        f, g = poly_from_roots(a), poly_from_roots(b)
        d = a.total
        got = sres_dm1_hermite(a, b)
        want = sres_coeff(f, g, d - 1)
        hermite_hits += 1
        if got != want and first_bad is None:
            first_bad = ("hermite", a, b, got, want)
        disjoint = not any(ra == rb for ra, _ in a for rb, _ in b)
        if disjoint and d >= 2:
            got = sres_one(a, b)
            want = sres_coeff(f, g, 1)
            one_hits += 1
            if got != want and first_bad is None:
                first_bad = ("one", a, b, got, want)
    while one_hits < 20:  # keep the pole-formula side well exercised
        a, b = random_pair(rng, max_degree=6, max_mult=3, disjoint=True)
        if a.total < 2:
            continue
        got = sres_one(a, b)
        want = sres_coeff(poly_from_roots(a), poly_from_roots(b), 1)
        one_hits += 1
        if got != want and first_bad is None:
            first_bad = ("one", a, b, got, want)

    alpha = param("a")
    taylor_ok = True
    g_fixed = MultiRootSet([(Rat(0), 1), (Rat(2), 2), (Rat(5), 1)])
    g_poly = poly_from_roots(g_fixed)
    for d in (1, 2, 3, 4):
        a_sym = MultiRootSet([(alpha, d)])
        shift = UniPoly([-alpha, Rat(1)])
        want = UniPoly.zero()
        for j in range(d):
            want = want + UniPoly([taylor_coeff(g_poly, alpha, j)]) * shift**j
        taylor_ok = taylor_ok and sres_dm1_hermite(a_sym, g_fixed) == want
    composed_ok = True
    b_fixed = MultiRootSet([(Rat(2), 2), (Rat(4), 2)])
    for d in (2, 3, 4):
        a_sym = MultiRootSet([(alpha, d)])
        composed_ok = composed_ok and sres_one(a_sym, b_fixed) == composition_sum_single_block(
            alpha, d, b_fixed
        )

    ok = first_bad is None and taylor_ok and composed_ok
    _report(
        4,
        ok,
        "interpolant on 100 pairs, pole formula on %d pairs, symbolic Taylor d<=4 %s, "
        "symbolic composition d<=4 %s"
        % (one_hits, "exact" if taylor_ok else "WRONG", "exact" if composed_ok else "WRONG")
        if ok
        else "first mismatch: %s" % (first_bad,),
    )
    assert ok


def test_criterion_5_double_sum_identity():
    rng = random.Random(SEED + 5)
    identities = 0
    first_bad = None
    for _ in range(25):
        a, b = random_pair(rng, max_degree=5, simple=True, disjoint=True)
        f, g = poly_from_roots(a), poly_from_roots(b)
        d, e = a.total, b.total
        top = d if d < e else d - 1
        for t in range(top + 1):
            want = sres_coeff(f, g, t)
            for p in range(t + 1):
                q = t - p
                if p > d or q > e:
                    continue
                got = sylv_double_sum(a, b, p, q)
                expect = want * Rat((-1) ** (p * (d - t)) * comb(t, p))
                identities += 1
                if got != expect and first_bad is None:
                    first_bad = (a, b, p, q, got, expect)
    ok = first_bad is None and identities >= 50
    _report(
        5,
        ok,
        "%d (p,q) identities, each equal to (-1)^(p(d-t)) C(t,p) Sres_t exactly" % identities
        if ok
        else "first mismatch: %s" % (first_bad,),
    )
    assert ok


def test_criterion_6_closed_form_determinants():
    rng = random.Random(SEED + 6)
    witness = MultiRootSet([(Rat(0), 2), (Rat(1), 1)])  # deterministic witness
    sets = [witness]
    while len(sets) < 51:
        sets.append(random_rootset(rng, rng.randint(1, 6), max_mult=3))

    vdm_bad, wr_bad, inv_bad, vprime_bad = [], [], [], []
    signs_differ = 0  # drawn sets where sum_{i<j} d_i d_j and m(m-1)/2 differ in parity
    for a in sets:
        d = a.total
        m = len(a.pairs)
        v = vandermonde_confluent(a, d)
        det_v = det_exact(v)
        if det_v != vandermonde_det_closed(a):
            vdm_bad.append(a)
        h = poly_from_roots(random_rootset(rng, rng.randint(1, 3)))
        w = wronskian(h, a, d)
        if det_exact(w) != wronskian_det_closed(h, a):
            wr_bad.append(a)
        if _inverse_mismatch(a) is not None:
            inv_bad.append(a)
        # det V' = prod_i fbar_i(alpha_i)^(d_i) = (-1)^(sum_{i<j} d_i d_j) (det V)^2
        mults = a.mults
        cross = sum(mults[i] * mults[j] for i in range(m) for j in range(i + 1, m))
        if a is not witness and cross % 2 != (m * (m - 1) // 2) % 2:
            signs_differ += 1
        product = Rat(1)
        for i, (alpha, mult) in enumerate(a, start=1):
            product = product * _root(a, i)[0](alpha) ** mult
        vp = det_exact(vprime_per_call(a))
        if vp != product or vp != Rat((-1) ** cross) * det_v ** 2:
            vprime_bad.append(a)
    witness_vp = det_exact(vprime_per_call(witness))

    checks = (
        ("Vandermonde", vdm_bad), ("Wronskian", wr_bad), ("inverse", inv_bad), ("det V'", vprime_bad)
    )
    failed = ["%s wrong on %d/%d sets" % (name, len(bad), len(sets)) for name, bad in checks if bad]
    ok = not failed and witness_vp == 1 and signs_differ > 0
    head = (
        ", ".join(failed)
        if failed
        else "Vandermonde, Wronskian, inverse and det V' = prod_i fbar_i(alpha_i)^(d_i) "
        "= (-1)^(sum_{i<j} d_i d_j) (det V)^2 exact on %d sets" % len(sets)
    )
    detail = (
        "%s; %d/%d drawn sets have a sign other than the simple-root "
        "(-1)^(m(m-1)/2); det V' = %s on ((0,2),(1,1))"
        % (head, signs_differ, len(sets) - 1, witness_vp)
    )
    _report(6, ok, detail)
    assert not vdm_bad, "Vandermonde closed form failed on %s" % vdm_bad[:1]
    assert not wr_bad, "Wronskian closed form failed on %s" % wr_bad[:1]
    assert not inv_bad, "inverse identity failed on %s" % inv_bad[:1]
    assert not vprime_bad, "det V' closed form failed on %s" % vprime_bad[:1]
    assert witness_vp == 1, "det V' on ((0,2),(1,1)) is %s, not +1" % witness_vp
    assert signs_differ > 0, "no drawn set has a sign other than (-1)^(m(m-1)/2)"


def test_criterion_7_coalescence():
    eps = param("eps")
    rng = random.Random(SEED + 7)

    commute_ok = True
    for _ in range(10):
        a, b = random_pair(rng, max_degree=4)
        f, g = poly_from_roots(a), poly_from_roots(b)
        d, e = a.total, b.total
        f_eps = f + UniPoly([eps * Rat(rng.randint(-3, 3)) for _ in range(d)])
        g_eps = g + UniPoly([eps * Rat(rng.randint(-3, 3)) for _ in range(e)])
        value = Rat(rng.randint(-4, 4), rng.randint(1, 3))
        assignment = {"eps": value}
        top = d if d < e else d - 1
        for t in range(top + 1):
            computed_then_sub = _specialize(sres_coeff(f_eps, g_eps, t), assignment)
            sub_then_computed = sres_coeff(
                _specialize(f_eps, assignment), _specialize(g_eps, assignment), t
            )
            commute_ok = commute_ok and computed_then_sub == sub_then_computed

    limit_ok = True
    for alpha_val, b in (
        (Rat(1), MultiRootSet([(Rat(0), 2), (Rat(3), 2)])),
        (Rat(-2), MultiRootSet([(Rat(1), 3), (Rat(4), 1)])),
        (Rat(1, 2), MultiRootSet([(Rat(2), 1), (Rat(3), 1)])),
    ):
        split = MultiRootSet([(alpha_val, 1), (alpha_val + eps, 1)])
        packed = MultiRootSet([(alpha_val, 2)])
        g = poly_from_roots(b)
        e = b.total
        top = 2 if e > 2 else 1
        for t in range(top + 1):
            freed = sres_coeff(poly_from_roots(split), g, t)
            at_zero = _specialize(freed, {"eps": Rat(0)})
            want = sres_coeff(poly_from_roots(packed), g, t)
            limit_ok = limit_ok and at_zero == want
            for variant in VARIANTS:
                limit_ok = limit_ok and sres_roots(packed, b, t, variant) == want

    ok = commute_ok and limit_ok
    _report(
        7,
        ok,
        "specialization commutes on 10 perturbed pairs; ((a,1),(a+eps,1)) -> ((a,2)) "
        "limits match the packed formulas (commute %s, limits %s)"
        % (commute_ok, limit_ok),
    )
    assert ok


def _three_variable_checks(sys_, known_roots=None):
    degs = sys_.degrees
    rho = sum(d - 1 for d in degs[:-1])
    from subres.combinat import monomials_of_degree
    from subres.mv.hilbert import hilbert_function

    results = {"square": True, "bezout": True, "division": 0, "skipped": 0}
    for t in range(rho + 1):
        sets = build_monomial_sets(degs, t)
        results["bezout"] = results["bezout"] and len(sets.T) == sets.combinatorics.bezout
        k = hilbert_function(degs, t)
        pool = [m for j in range(t + 1) for m in monomials_of_degree(3, j)]
        s_cols = pool[:k]
        m = macaulay_matrix(sys_, t, s_cols)
        results["square"] = results["square"] and m.nrows == m.ncols
        e_factor = extraneous_factor(sys_, t)
        if e_factor == 0:
            results["skipped"] += 1
            continue
        delta = delta_s(sys_, t, s_cols)
        if det_exact(m) != e_factor * delta:
            return results, False
        results["division"] += 1
    dual_ok = True
    if known_roots is not None:
        dims = [
            inverse_system(list(sys_.polys[:-1]), pt).dimension for pt in known_roots
        ]
        dual_ok = sum(dims) == sets.combinatorics.bezout
        results["dual_dims"] = dims
    return results, dual_ok


def test_criterion_8_three_variable_properties():
    one = Rat(1)
    # split system: x1 = ±1, x2 in {1, -2}, x3 in {2, -1}; all eight roots simple
    g1 = MultiPoly(3, {(2, 0, 0): one, (0, 0, 0): Rat(-1)})
    g2 = MultiPoly(3, {(0, 2, 0): one, (0, 1, 0): one, (0, 0, 0): Rat(-2)})
    g3 = MultiPoly(3, {(0, 0, 2): one, (0, 0, 1): Rat(-1), (0, 0, 0): Rat(-2)})
    f4 = MultiPoly(3, {(0, 0, 0): one, (1, 0, 0): one, (0, 1, 0): one, (0, 0, 1): one})
    split = MVSystem(3, (g1, g2, g3, f4), (2, 2, 2, 1))
    split_roots = [
        (Rat(sx), Rat(sy), Rat(sz))
        for sx in (1, -1)
        for sy in (1, -2)
        for sz in (2, -1)
    ]

    # clustered system: a triple and a simple root in (x1,x2), doubled along x3
    h1 = MultiPoly(3, {(1, 1, 0): one})
    h2 = MultiPoly(3, {(2, 0, 0): one, (0, 2, 0): one, (0, 1, 0): Rat(-2)})
    h3 = MultiPoly(3, {(0, 0, 2): one, (0, 0, 1): Rat(-3), (0, 0, 0): Rat(2)})
    clustered = MVSystem(3, (h1, h2, h3, f4), (2, 2, 2, 1))
    clustered_roots = [
        (Rat(0), Rat(0), Rat(1)),
        (Rat(0), Rat(0), Rat(2)),
        (Rat(0), Rat(2), Rat(1)),
        (Rat(0), Rat(2), Rat(2)),
    ]

    rng = random.Random(SEED + 8)
    randoms = []
    for _ in range(3):
        polys = []
        degs = tuple(rng.choice((1, 2)) for _ in range(4))
        for dd in degs:
            terms = {
                m: Rat(rng.randint(-3, 3))
                for m in monomials_up_to(3, dd)
            }
            polys.append(MultiPoly(3, terms))
        try:
            randoms.append(MVSystem(3, tuple(polys), degs))
        except DomainError:
            continue

    all_ok = True
    division_total = 0
    details = []
    for label, sys_, roots in (
        ("split", split, split_roots),
        ("clustered", clustered, clustered_roots),
        *(("random", s, None) for s in randoms),
    ):
        results, extra_ok = _three_variable_checks(sys_, roots)
        division_total += results["division"]
        all_ok = all_ok and results["square"] and results["bezout"] and extra_ok
        all_ok = all_ok and results["division"] >= 1
        details.append(
            "%s: square, |T|=8, %d exact divisions%s"
            % (
                label,
                results["division"],
                ", dual dims %s" % results.get("dual_dims") if roots else "",
            )
        )
    ok = all_ok and division_total >= 5
    _report(8, ok, "; ".join(details))
    assert ok
