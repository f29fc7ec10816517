import math

import numpy as np
import pytest

from ellrank.arith import prime_divisors
from ellrank.curves import (CoefficientTable, CurveModel, an_table, ap_table,
                            check_ogg_pm1, curve_by_label, period_lattice,
                            primes_up_to, reduce_mod_p)


def brute_force_count(curve, p):
    """Independent oracle: test every (x, y) pair against the long model.
    Returns (#smooth affine points + 1, #singular affine points)."""
    a1, a2, a3, a4, a6 = (a % p for a in curve.ainvs)
    smooth, singular = 1, 0  # infinity
    for x in range(p):
        for y in range(p):
            if (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % p == 0:
                fy = (2 * y + a1 * x + a3) % p
                fx = (a1 * y - 3 * x * x - 2 * a2 * x - a4) % p
                if fx == 0 and fy == 0:
                    singular += 1
                else:
                    smooth += 1
    return smooth, singular


def qr_table_count(curve, p):
    """Oracle for odd p: the quadratic-character sum p + sum_x chi(g(x))
    over the completed square y^2 = g(x), chi read from a table of
    squares, and a g' scan for singular points at every p.
    Returns (#smooth affine points + 1, #singular affine points)."""
    b2, b4, b6, _ = curve.b_invariants
    xs = np.arange(p, dtype=np.int64)
    x2 = xs * xs % p
    x3 = x2 * xs % p
    g = (4 * x3 + (b2 % p) * x2 + (2 * b4 % p) * xs + b6 % p) % p
    qr = np.full(p, -1, dtype=np.int8)
    qr[x2] = 1
    qr[0] = 0
    n_affine = int(p + qr[g].sum())
    gp = (12 * x2 + 2 * (b2 % p) * xs + (2 * b4) % p) % p
    sing = int(((g == 0) & (gp == 0)).sum())
    return n_affine + 1 - sing, sing


def test_toy_count_f3():
    toy = CurveModel(0, 0, 0, 1, 0, conductor=32, label="toy")
    info = reduce_mod_p(toy, 3)
    assert info.kind == "good" and info.ap == 0  # #E(F_3) = 4


def test_11a_small_primes_against_oracle():
    e = curve_by_label("11a")
    for p in (2, 3, 5, 7, 13, 17, 97):
        info = reduce_mod_p(e, p)
        assert info.kind == "good"
        assert brute_force_count(e, p) == (p + 1 - info.ap, 0)
    assert reduce_mod_p(e, 7).ap == -2


def test_11a_multiplicative_with_tangent_oracle():
    e = curve_by_label("11a")
    info = reduce_mod_p(e, 11)
    assert info.kind.endswith("multiplicative")
    assert info.ap in (-1, 1)
    # tangent-slope oracle (p > 3): complete the square, find the double
    # root x0 and the simple root x1 of the cubic; split iff x0 - x1 is
    # a nonzero quadratic residue
    p = 11
    b2, b4, b6, _ = e.b_invariants
    roots = [x for x in range(p) if (4 * x**3 + b2 * x * x + 2 * b4 * x + b6) % p == 0]
    gp = lambda x: (12 * x * x + 2 * b2 * x + 2 * b4) % p
    x0 = next(x for x in roots if gp(x) == 0)
    x1 = next(x for x in roots if gp(x) != 0)
    legendre = pow((x0 - x1) % p, (p - 1) // 2, p)
    expected = 1 if legendre == 1 else -1
    assert info.ap == expected


def test_enumeration_matches_oracles():
    """(n, sing) at every prime <= 4200, 20 seeded primes in
    (4200, ENUM_LIMIT], the last prime below ENUM_LIMIT and every prime
    dividing the discriminant, for each built-in curve: the
    quadratic-character sum at odd p, the (x, y) brute force at p = 2
    and 3, and the reduction kind and a_p at p = 3 against the brute
    force."""
    from ellrank.curves import _REGISTRY, ENUM_LIMIT, _count_points_enum

    upper = [p for p in primes_up_to(ENUM_LIMIT).tolist() if p > 4200]
    assert upper[-1] == 9973
    sample = set(np.random.default_rng(4201).choice(upper, 20, replace=False).tolist())
    sample |= set(primes_up_to(4200).tolist()) | {upper[-1]}
    for label in _REGISTRY:
        e = curve_by_label(label)
        bad = prime_divisors(abs(e.discriminant))
        for p in sorted(sample | set(bad)):
            got = _count_points_enum(e, p)
            if p <= 3:
                assert got == brute_force_count(e, p), (label, p)
            if p > 2:
                assert got == qr_table_count(e, p), (label, p)
            assert (got[1] > 0) == (e.conductor % p == 0), (label, p)
        # p = 3 counts through the bincounts like any odd p: multiplicative
        # at 15a, additive at 36a, good elsewhere
        n, sing = brute_force_count(e, 3)
        info = reduce_mod_p(e, 3)
        assert (info.kind == "good") == (sing == 0), label
        assert info.ap == (3 + 1 - n if sing == 0 else 3 - n), label


def test_enumeration_of_a_model_past_int64():
    # 2 b4 x = 4 a4 x passes 2^62 at x = ENUM_LIMIT: the exact table is
    # refused, so every prime takes the Horner that reduces mod p, and
    # 3 | disc exercises its singular-point scan
    from ellrank.curves import _count_points_enum, _cubic_values

    c = CurveModel(0, 0, 0, 3 * 2**50, 2**40 + 1, conductor=1)
    b2, b4, b6, _ = c.b_invariants
    assert _cubic_values(b2, b4, b6) is None
    assert c.discriminant % 3 == 0
    for p in (3, 5, 7, 11, 13, 101, 9973):
        got = _count_points_enum(c, p)
        if p <= 101:
            assert got == brute_force_count(c, p), p
        assert got == qr_table_count(c, p), p
    assert _count_points_enum(c, 3)[1] > 0


def test_enumeration_reduces_before_int64_overflow():
    # disc = -16 * 1491079; unreduced, 4 x^3 wraps int64 near x = 1.3e6,
    # which gave a_p = -582 and no reduction kind
    c = CurveModel(0, 0, 0, 1, 235, conductor=1)
    p = 1_491_079
    assert c.discriminant == -16 * p
    info = reduce_mod_p(c, p, p_max=p)
    assert info.kind == "split-multiplicative" and info.ap == 1


def test_reduce_mod_p_refuses_bad_p():
    e = curve_by_label("11a")
    for p in (0, 1, -7, 4, 91, 1001):
        with pytest.raises(ValueError, match="not prime"):
            reduce_mod_p(e, p)
    with pytest.raises(ValueError, match="exceeds p_max"):
        reduce_mod_p(e, 101, p_max=100)


def test_ap_table_contents():
    e = curve_by_label("11a")
    t = ap_table(e, 10)
    assert sorted(t) == [2, 3, 5, 7]
    assert all(i.kind == "good" for i in t.values())
    t = ap_table(e, 11)
    assert t[11].kind == "split-multiplicative"
    t = ap_table(e, 2)
    assert list(t) == [2]


def test_bsgs_agrees_with_enumeration():
    from ellrank.curves import _REGISTRY, _count_points_bsgs, _count_points_enum

    primes = [p for p in primes_up_to(11_000).tolist() if p > 10_000]
    assert {10007, 10039, 10141} <= set(primes)
    for label in sorted(_REGISTRY):
        e = curve_by_label(label)
        for p, n in zip(primes, _count_points_bsgs(e, primes).tolist()):
            assert n == _count_points_enum(e, p)[0], (label, p)


def _scan(points, p, m0, t, n):
    """The annihilator lists of _annihilators for points [(P, A), ...] at
    one prime, P = (x, y) on y^2 = x^3 + A x + B: the m = m0 + t i,
    0 <= i < n, with m P = O for each lane, and the mask of lanes to
    redraw."""
    from ellrank.curves import _annihilators

    L = len(points)
    x, y, a = (np.array(v, dtype=np.int64) for v in zip(*((*P, A) for P, A in points)))
    m0 = np.broadcast_to(np.asarray(m0, dtype=np.int64), (L,))
    lanes, i, redraw = _annihilators(x, y, a, np.full(L, p), m0, t, np.full(L, n))
    return [sorted((m0[l] + t * i[lanes == l]).tolist()) for l in range(L)], redraw


def _order(P, A, p, group_order):
    """The order of P, a divisor of group_order, with ec_mul."""
    from oracles import ec_mul

    k = group_order
    for q in prime_divisors(group_order):
        while k % q == 0 and ec_mul(k // q, P, A, p) is None:
            k //= q
    return k


def _short_point(curve, x, y, p):
    """(x, y) on the long model mapped to y^2 = x^3 - 27 c4 x - 54 c6."""
    a1, _, a3, _, _ = curve.ainvs
    b2 = curve.b_invariants[0]
    return (36 * x + 3 * b2) % p, 108 * (2 * y + a1 * x + a3) % p


# rational torsion points and their orders: 11a1 (Z/5), 14a1 (Z/6), 15a1
# (Z/4 x Z/2); orders 5 and 3 show as a repeated x among the baby steps,
# 6, 4 and 2 as y = 0
TORSION = [("11a", (5, 5), 5), ("14a", (9, 23), 6), ("14a", (2, 2), 3),
           ("15a", (8, 18), 4), ("15a", (3, -2), 2)]


@pytest.mark.parametrize("label,point,order", TORSION)
@pytest.mark.parametrize("p", [10007, 50021, 119993])
def test_annihilators_of_a_torsion_point(label, point, order, p):
    # a torsion point's multiples in the interval are those of its order;
    # it shows among the baby steps, so the scan redraws it rather than
    # answer, and a point of large order plus it gives exactly the
    # multiples of the sum's order
    from oracles import ec_add, ec_mul, short_model

    from ellrank.curves import _count_points_enum, _hasse_interval

    e = curve_by_label(label)
    A, B = short_model(e, p)
    x, y = _short_point(e, *point, p)
    assert (y * y - x**3 - A * x - B) % p == 0
    assert ec_mul(order, (x, y), A, p) is None
    assert all(ec_mul(d, (x, y), A, p) is not None for d in range(1, order))
    lo, hi = _hasse_interval(p)
    want = [m for m in range(lo, hi + 1) if m % order == 0]
    if (label, p) == ("11a", 10007):
        assert len(want) == 80
    n_e = _count_points_enum(e, p)[0]
    squares = np.arange(p, dtype=np.int64) ** 2 % p
    for u in range(1, p):
        ys = np.flatnonzero(squares == (u**3 + A * u + B) % p)
        if ys.size and _order((u, int(ys[0])), A, p, n_e) >= 200:
            break
    S = ec_add((u, int(ys[0])), (x, y), A, p)
    k = _order(S, A, p, n_e)
    (ms_t, ms_s), redraw = _scan([((x, y), A), (S, A)], p, lo, 1, hi - lo + 1)
    assert redraw.tolist() == [True, False] and ms_t == []
    assert ms_s == [m for m in range(lo, hi + 1) if m % k == 0] != []
    # from every start m0, for Q = P and Q = O, with s as small as the
    # order allows (an order 2s shows only through 2s Q = O) or the
    # width of the interval: every lane is redrawn
    s = (order + 1) // 2
    for t in (1, order):
        for n in (2 * (s - 1) ** 2 + 1, hi - lo + 1):
            assert _scan([((x, y), A)] * 60, p, np.arange(1, 61), t, n)[1].all(), (t, n)


def test_annihilators_of_a_point_of_large_order():
    # the order by repeated addition; the giant steps must find exactly
    # its multiples in the interval, for every point in one block
    from oracles import ec_add, short_model

    from ellrank.curves import _hasse_interval

    p = 10007
    e = curve_by_label("11a")
    A, B = short_model(e, p)
    lo, hi = _hasse_interval(p)
    points, orders = [], []
    for x in range(1, 50):
        r = (x**3 + A * x + B) % p
        if r == 0:
            continue
        P = (x * r % p, r * r % p)
        Ar = A * r * r % p
        k, R = 1, P
        while R is not None:
            R = ec_add(R, P, Ar, p)
            k += 1
        if k >= 200:
            points.append((P, Ar))
            orders.append(k)
    assert len(points) >= 20
    got, redraw = _scan(points, p, lo, 1, hi - lo + 1)
    assert not redraw.any()
    for ms, k in zip(got, orders):
        assert ms == [m for m in range(lo, hi + 1) if m % k == 0]


def test_bsgs_narrows_over_several_draws(monkeypatch):
    # every draw's annihilators lie in the interval; at some primes the
    # last draw alone leaves several candidates, so the count comes from
    # the intersection with the earlier draws
    from ellrank import curves

    draws = {}
    original = curves._annihilators

    def recorded(x, y, a, p, m0, t, n):
        lanes, i, redraw = original(x, y, a, p, m0, t, n)
        lo, hi = curves._hasse_interval(p)
        m = m0[lanes] + t * i
        assert ((lo[lanes] <= m) & (m <= hi[lanes]) & (i >= 0) & (i < n[lanes])).all()
        count = np.bincount(lanes, minlength=len(p))
        assert (count[~redraw] > 0).all()
        for q, c in zip(p.tolist(), count.tolist()):
            draws.setdefault(q, []).append(c)
        return lanes, i, redraw

    monkeypatch.setattr(curves, "_annihilators", recorded)
    e = curve_by_label("11a")
    primes = [p for p in primes_up_to(20_000).tolist() if p > 10_000]
    counts = curves._count_points_bsgs(e, primes).tolist()
    intersected = []
    for p, n in zip(primes, counts):
        if len(draws[p]) > 1:
            assert n == curves._count_points_enum(e, p)[0]
            if draws[p][-1] > 1:
                intersected.append(p)
    assert intersected


def _points_of_large_order(curve, p, count):
    """(P, A, order of P) for the first points (x r, r^2), x = 1, 2, ...,
    on y^2 = x^3 + A r^2 x + B r^3 whose order, found by repeated
    addition, is at least 200."""
    from oracles import ec_add, short_model

    A, B = short_model(curve, p)
    out = []
    for x in range(1, 100):
        r = (x**3 + A * x + B) % p
        if r == 0:
            continue
        P, Ar = (x * r % p, r * r % p), A * r * r % p
        k, R = 1, P
        while R is not None:
            R = ec_add(R, P, Ar, p)
            k += 1
        if k >= 200:
            out.append((P, Ar, k))
        if len(out) == count:
            return out
    raise AssertionError("too few points of large order")


@pytest.mark.parametrize("label,T", [("11a", 5), ("14a", 6), ("15a", 8), ("36a", 6),
                                     ("37a", 1)])
def test_torsion_order_of_the_registry_curves(label, T):
    assert curve_by_label(label).torsion_order == T


def test_torsion_order_of_isogenous_models():
    assert CurveModel(0, -1, 1, 0, 0, conductor=11).torsion_order == 5            # 11a3
    assert CurveModel(0, -1, 1, -7820, -263580, conductor=11).torsion_order == 1  # 11a2


def test_cubic_real_roots():
    from ellrank.curves import _cubic_real_roots

    # three roots, a double root, one root, and the j = 0 forms
    cases = {(-7, 6): [-3, 1, 2], (-3, 2): [-2, 1, 1], (1, -2): [1], (0, -8): [2], (0, 0): [0]}
    for (p, q), roots in cases.items():
        assert sorted(_cubic_real_roots(p, q)) == pytest.approx(roots, abs=1e-9), (p, q)


def test_torsion_order_closes_over_a_missed_point(monkeypatch):
    # 15a1 on the short model: 2-torsion at x = -102, -21, 123, order 4 at
    # (-57, +-540) and (303, +-4860); with the roots near -57 hidden, the
    # sums of the points found still give all eight
    from ellrank import curves

    real = curves._cubic_real_roots

    def hiding(p, q):
        return [x + 1000 if abs(x + 57) < 0.5 else x for x in real(p, q)]

    monkeypatch.setattr(curves, "_cubic_real_roots", hiding)
    assert CurveModel(1, 1, 1, -10, -10, conductor=15).torsion_order == 8


def test_torsion_order_divides_every_enumerated_count():
    from ellrank.curves import _REGISTRY, _count_points_enum

    primes = primes_up_to(10_000).tolist()[1:]
    for label in sorted(_REGISTRY):
        e = curve_by_label(label)
        T = e.torsion_order
        for p in primes:
            if e.discriminant % p:
                assert _count_points_enum(e, p)[0] % T == 0, (label, p)


def test_torsion_order_falls_back_to_1_when_the_conductor_misses_a_prime():
    # 11a stated with conductor 1 leaves 11^5 of D unfactored; the scan
    # over all of the Hasse interval still gives the right count
    from ellrank.curves import _count_points_bsgs, _count_points_enum

    e = CurveModel(0, -1, 1, -10, -20, conductor=1)
    assert e.torsion_order == 1
    primes = [p for p in primes_up_to(10_100).tolist() if p > 10_000]
    for p, n in zip(primes, _count_points_bsgs(e, primes).tolist()):
        assert n == _count_points_enum(e, p)[0], p


def test_annihilators_on_a_progression():
    # every class mod t in {5, 6, 8}, for torsion points (where t P is O
    # or of small order, so the lane is redrawn) and for points of large
    # order (which are not), against m P = O tested one m at a time
    from oracles import ec_mul, short_model

    from ellrank.curves import _hasse_interval

    p = 10007
    lo, hi = _hasse_interval(p)
    torsion = []
    for label, point, _ in TORSION:
        e = curve_by_label(label)
        torsion.append((_short_point(e, *point, p), short_model(e, p)[0]))
    large = [(P, Ar) for P, Ar, _ in _points_of_large_order(curve_by_label("11a"), p, 3)]
    hits = 0
    for t in (5, 6, 8):
        for c in range(t):
            ms = range(lo + (c - lo) % t, hi + 1, t)
            got, redraw = _scan(torsion + large, p, ms.start, t, len(ms))
            assert redraw.tolist() == [True] * len(torsion) + [False] * len(large)
            for (P, A), out in zip(large, got[len(torsion):]):
                want = [m for m in ms if ec_mul(m, P, A, p) is None]
                assert out == want, (P, t, c)
                hits += len(want)
    assert hits > 0


def test_annihilators_from_every_start():
    # m0 over two full periods of a point of order k: the first giant
    # step (m0 + s t) P runs through O and every multiple of Q, so the
    # scan's exact cases (a giant step on O, and the doubling two steps
    # later) all come up; a lane is redrawn exactly when the ladder for
    # that first giant step meets O or a doubling
    from oracles import ladder_voids

    p = 10007
    (P, A, k), = _points_of_large_order(curve_by_label("14a"), p, 1)
    cases = 0
    for t, n in ((1, 400), (5, 80)):
        s = math.isqrt((n - 1) // 2) + 1
        m0 = np.arange(1, 2 * k + 1)
        got, redraw = _scan([(P, A)] * len(m0), p, m0, t, n)
        assert redraw.tolist() == [ladder_voids(int(m) + s * t, k) for m in m0]
        for m, out, void in zip(m0.tolist(), got, redraw.tolist()):
            if not void:
                assert out == [m + t * i for i in range(n) if (m + t * i) % k == 0], (t, m)
                cases += 1
    assert cases > 3 * k


def test_jacobian_ladder_matches_ec_mul():
    # k P for a block of k at once: affine k P from the Jacobian ladder
    # equals ec_mul's, and the lanes it voids (O or a doubling met inside
    # the ladder, where the scan redraws) are exactly the predicted ones
    import random

    from oracles import ec_mul, ladder_voids, short_model

    from ellrank import curves

    def ladder(ks, P, A):
        k = np.array(ks, dtype=np.int64)
        X, Y, Z, bad = curves._ladder(k, *(np.full(k.size, v) for v in (*P, A)), np.full(k.size, p))
        x, y = curves._affine(X[None], Y[None], Z[None], np.full(k.size, p))
        return [None if z == 0 else (u, v) for u, v, z in zip(x[0].tolist(), y[0].tolist(),
                                                              Z.tolist())], bad.tolist()

    p = 10007
    (P, A, order), = _points_of_large_order(curve_by_label("14a"), p, 1)
    rnd = random.Random(7)
    ks = [0, 1, 2, order - 1, order, order + 1] + [rnd.randrange(3 * p) for _ in range(200)]
    # a k whose leading bits are the order: the ladder meets O and is void
    ks.append((order << 3) | 5)
    # a point of order 5: many k pass through a multiple of 5 on the way
    e = curve_by_label("11a")
    T5, A5 = _short_point(e, 5, 5, p), short_model(e, p)[0]
    voided = []
    for point, a, n, kk in ((P, A, order, ks), (T5, A5, 5, list(range(40)))):
        got, bad = ladder(kk, point, a)
        assert bad == [k > 0 and ladder_voids(k, n) for k in kk]
        for k, g, b in zip(kk, got, bad):
            if not b:
                assert g == ec_mul(k, point, a, p), k
        voided.append(bad)
    assert voided[0][-1] and 0 < sum(voided[1]) < 40


def test_an_table_recursion():
    e = curve_by_label("11a")
    ap = ap_table(e, 2200)
    tab = an_table(11, ap, 2200)
    assert tab.a(1) == 1
    assert tab.a(4) == tab.a(2) ** 2 - 2       # a_2 = -2 -> a_4 = 2
    assert tab.a(4) == 2
    assert tab.a(6) == tab.a(2) * tab.a(3) == 2
    assert tab.a(11 * 11) == tab.a(11) ** 2    # p | level: a_{p^k} = a_p^k


def euler_product(m, n_max):
    """prod_{k >= 1} (1 - q^(m k)) to q^n_max by the pentagonal number
    theorem: sum over k in Z of (-1)^k q^(m k (3k - 1) / 2)."""
    out = np.zeros(n_max + 1, dtype=np.int64)
    k = 0
    while m * k * (3 * k - 1) // 2 <= n_max:
        for j in {k, -k}:
            e = m * j * (3 * j - 1) // 2
            if e <= n_max:
                out[e] += (-1) ** k
        k += 1
    return out


def eta_quotient(ms, n_max):
    """a_1..a_n_max of prod_i eta(m_i z) with sum(m_i) = 24: that is
    q * prod_i prod_k (1 - q^(m_i k)), multiplied term by term in int64."""
    assert sum(ms) == 24
    acc = np.zeros(n_max, dtype=np.int64)
    acc[0] = 1
    for m in ms:
        factor = euler_product(m, n_max - 1)
        out = np.zeros_like(acc)
        for e in np.flatnonzero(factor):
            out[e:] += factor[e] * acc[:n_max - e]
        acc = out
    return acc


# Martin-Ono: the newforms of levels 11, 14 and 15 are eta quotients
ETA_QUOTIENTS = {"11a": (1, 1, 11, 11), "14a": (1, 2, 7, 14), "15a": (1, 3, 5, 15)}


@pytest.mark.parametrize("label", sorted(ETA_QUOTIENTS))
def test_an_table_equals_eta_quotient(label):
    """Second pipeline for the coefficients below ENUM_LIMIT."""
    n_max = 10_000
    e = curve_by_label(label)
    tab = an_table(e.conductor, ap_table(e, n_max), n_max)
    assert np.array_equal(tab.coefficients[1:], eta_quotient(ETA_QUOTIENTS[label], n_max))


def test_big_tables_equal_eta_quotients(big_tables):
    """The same pipeline for the 120k-term tables, BSGS above 1e4."""
    for label, tab in big_tables.items():
        assert np.array_equal(tab.coefficients[1:], eta_quotient(ETA_QUOTIENTS[label], tab.nmax))


def test_an_table_missing_prime():
    e = curve_by_label("11a")
    ap = ap_table(e, 10)
    with pytest.raises(KeyError):
        an_table(11, ap, 100)


def test_hasse_bound_and_multiplicativity(rng):
    e = curve_by_label("14a")
    ap = ap_table(e, 3000)
    for p, info in ap.items():
        if info.kind == "good":
            assert info.ap * info.ap <= 4 * p
    tab = an_table(14, ap, 3000)
    a = tab.coefficients
    count = 0
    while count < 500:
        m = int(rng.integers(2, 54))
        n = int(rng.integers(2, 54))
        if math.gcd(m, n) != 1 or m * n > 3000:
            continue
        assert a[m * n] == a[m] * a[n]
        count += 1


def test_reduction_type_matches_conductor():
    for label in ("11a", "14a", "15a", "36a", "37a"):
        e = curve_by_label(label)
        for p in primes_up_to(1000):
            info = reduce_mod_p(e, int(p))
            assert (info.kind == "good") == (e.conductor % p != 0), (label, p)


def test_validate_conductor():
    for label in ("11a", "14a", "15a", "36a", "37a"):
        assert curve_by_label(label).validate_conductor(), label
    # a claimed prime of good reduction (2 for 11a) and a conductor prime
    # that misses the bad primes {3, 60497} are both rejected
    assert not CurveModel(0, -1, 1, -10, -20, conductor=22).validate_conductor()
    assert not CurveModel(0, -1, 1, -10, -21, conductor=11).validate_conductor()


def test_validate_conductor_checks_claimed_primes_above_p_limit(monkeypatch):
    import ellrank.curves

    # 1009 > p_limit does not divide 11a's discriminant -11^5: rejected,
    # and without counting points at 1009
    counted = []
    real = ellrank.curves.reduce_mod_p
    monkeypatch.setattr(ellrank.curves, "reduce_mod_p",
                        lambda curve, p, *a: counted.append(p) or real(curve, p, *a))
    assert not CurveModel(0, -1, 1, -10, -20, conductor=11 * 1009).validate_conductor()
    assert 1009 not in counted
    # a claimed prime above p_limit that divides the discriminant is bad
    assert CurveModel(0, -1, 1, -10, -20, conductor=11).validate_conductor(p_limit=5)


def test_validate_conductor_checks_exponents():
    # the right primes with the wrong exponents: 11a is multiplicative at
    # 11 (exponent 1); 36a is additive at 2 and 3, where the exponent is
    # 2..8 and 2..5; 37a's 37 is multiplicative
    for ainvs, conductor in (((0, -1, 1, -10, -20), 121), ((0, -1, 1, -10, -20), 11**5),
                             ((0, 0, 0, 0, 1), 6), ((0, 0, 0, 0, 1), 12), ((0, 0, 0, 0, 1), 18),
                             ((0, 0, 0, 0, 1), 2**9 * 9), ((0, 0, 0, 0, 1), 4 * 3**6),
                             ((0, 0, 1, -1, 0), 37**2)):
        assert not CurveModel(*ainvs, conductor=conductor).validate_conductor(), conductor


def test_bsgs_is_exact_at_the_top_of_its_range():
    # int64 residues: the largest primes below DEFAULT_P_MAX, where the
    # products come nearest 2^63, and a model whose c4 and c6 are past
    # int64, reduced mod p through Python integers
    from ellrank.curves import DEFAULT_P_MAX, _count_points_bsgs, _count_points_enum

    cases = [(curve_by_label("37a"), primes_up_to(DEFAULT_P_MAX).tolist()[-12:]),
             (CurveModel(1, -1, 1, -2**70 + 3, 2**101 + 7, conductor=1),
              [p for p in primes_up_to(20_200).tolist() if p > 20_000])]
    for curve, primes in cases:
        primes = [p for p in primes if curve.discriminant % p]
        assert len(primes) >= 10
        for p, n in zip(primes, _count_points_bsgs(curve, primes).tolist()):
            assert n == _count_points_enum(curve, p)[0], p


def test_bsgs_refuses_primes_past_the_int64_bound():
    # residue products stay below 4 p^2 < 2^63 and the match keys below
    # 2^63 only for p <= DEFAULT_P_MAX
    from ellrank.curves import _count_points_bsgs

    with pytest.raises(ValueError, match="exceeds"):
        _count_points_bsgs(curve_by_label("11a"), [10007, 1_000_003])


def test_ap_table_memory_peak():
    # the traced peak of a warm ap_table to 1.2e5 on 11a: BSGS takes its
    # primes in blocks of _LANES, so its (steps, lanes) arrays stay
    # bounded (all 10072 primes in one block peak at about 24 MB), and
    # the table itself is about 2.6 MB
    import tracemalloc

    e = curve_by_label("11a")
    ap_table(e, 120_000)
    tracemalloc.start()
    try:
        ap_table(e, 120_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.0e6, peak


def test_ogg_pm1():
    assert check_ogg_pm1(curve_by_label("11a"))["all_pm1"] is True
    rep = check_ogg_pm1(curve_by_label("14a"))
    assert rep["all_pm1"] is True and sorted(rep["primes"]) == [2, 7]
    rep = check_ogg_pm1(curve_by_label("36a"))
    assert rep["hypothesis_met"] is False


def test_period_lattice_legendre_and_area():
    from oracles import legendre_residual

    for label in ("11a", "14a", "37a"):
        lat = period_lattice(curve_by_label(label))
        assert legendre_residual(lat) < 1e-9
        assert lat.area > 0
        assert (lat.omega2 / lat.omega1).imag > 0


# reference areas, from the AGM basis chosen among (w2, (w2 +- w1)/2,
# (w2 + |w1|)/2) as the one whose g2 is c4/12
_AREAS = {"11a": 1.8515436234559601, "14a": 2.626251405582017, "15a": 2.2357017126175305,
          "36a": 5.108115717832558, "37a": 7.3381327407895744}


def test_period_basis_has_the_model_g2_and_area():
    # both signs of the discriminant: 11a, 14a and 36a have disc < 0, 15a
    # and 37a disc > 0; the basis spans the lattice whose g2 is c4/12
    from oracles import lattice_invariant_g2

    signs = {}
    for label, area in _AREAS.items():
        curve = curve_by_label(label)
        lat = period_lattice(curve)
        target = curve.c_invariants[0] / 12.0
        g2 = lattice_invariant_g2(lat.omega1, lat.omega2)
        assert abs(g2 - target) <= 1e-6 * max(1.0, abs(target)), label
        assert abs(lat.area - area) <= 1e-14 * area, label
        signs[label] = curve.discriminant > 0
    assert signs == {"11a": False, "14a": False, "15a": True, "36a": False, "37a": True}


def test_period_against_quadrature_oracle():
    """omega1 = 2 int_{e1}^inf dx / sqrt(4x^3+b2x^2+2b4x+b6) by direct
    numerical quadrature (tanh-sinh style substitution)."""
    e = curve_by_label("11a")
    b2, b4, b6, _ = e.b_invariants
    cubic = np.polynomial.Polynomial([b6, 2 * b4, b2, 4.0])
    roots = cubic.roots()
    e1 = max(r.real for r in roots if abs(r.imag) < 1e-8)
    # omega1 = 2 int_{e1}^inf dx/sqrt(g); x = e1 + t^2 removes the sqrt
    # singularity: omega1 = 4 int_0^inf dt / sqrt(g(e1+t^2)/t^2)
    gx, gw = np.polynomial.legendre.leggauss(64)
    half = 0.0
    lo = 0.0
    T = 4096.0
    for hi in (0.5, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, T):
        m, h = 0.5 * (hi + lo), 0.5 * (hi - lo)
        t = m + h * gx
        x = e1 + t * t
        half += float(np.sum(h * gw * 2.0 / np.sqrt(cubic(x) / (t * t))))
        lo = hi
    half += 1.0 / T          # integrand ~ 1/t^2 beyond T (error O(1/T^3))
    lat = period_lattice(e)
    assert abs(2.0 * half - lat.omega1) < 1e-6 * lat.omega1


def test_area_against_parallelogram_oracle():
    """area = int_0^1 int_0^1 |Jacobian| du dv over the fundamental
    parallelogram z = u w1 + v w2 (the Jacobian is the constant
    Im(conj(w1) w2))."""
    lat = period_lattice(curve_by_label("11a"))
    gx, gw = np.polynomial.legendre.leggauss(8)
    u = 0.5 + 0.5 * gx
    w = 0.5 * gw
    jac = (np.conj(lat.omega1) * lat.omega2).imag
    val = float(sum(wi * wj * abs(jac) for wi in w for wj in w))
    assert abs(val - lat.area) < 1e-12 * lat.area


def test_coefficient_table_normalization_guard():
    with pytest.raises(ValueError):
        CoefficientTable(11, np.array([0, 2, 1]), 2)


def test_bsgs_seed_ignores_hash_randomization():
    # the draws must not depend on PYTHONHASHSEED (str hashing is salted)
    import ast
    import os
    import subprocess
    import sys

    import ellrank

    src = os.path.dirname(os.path.dirname(os.path.abspath(ellrank.__file__)))
    code = ("import numpy as np\nfrom ellrank.curves import _mix64\n"
            "print(_mix64(np.repeat([10007, 50021, 119993], 3), np.tile([0, 1, 2], 3)).tolist())")
    outs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        res = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True)
        outs.append(res.stdout)
    assert outs[0] == outs[1]
    assert len(set(ast.literal_eval(outs[0]))) == 9


def test_lattice_invariant_g2_rejects_wrapped_reduction():
    # at tau = 1.2345e-5 + 1e-45 i the int64 reduction matrix wraps (its det
    # reads -8.3e35); g2 raises instead of returning a wrong value
    from oracles import eisenstein_E, lattice_invariant_g2

    with pytest.raises(OverflowError):
        lattice_invariant_g2(1.0, complex(1.2345e-5, 1e-45))
    # at tau = 1e19 + i only the translation entry b is past int64, det 1
    with pytest.raises(OverflowError):
        lattice_invariant_g2(1.0, complex(1e19, 1.0))
    # an ordinary tau is unchanged: g2 = (2 pi)^4 E4(tau) / 12 for the
    # reduced basis, and a translated basis spans the same lattice
    tau = complex(0.1, 1.3)
    g2 = lattice_invariant_g2(1.0, tau)
    assert abs(g2 - (2 * math.pi) ** 4 * eisenstein_E(4, tau) / 12.0) < 1e-13 * abs(g2)
    assert abs(lattice_invariant_g2(1.0, tau + 3) - g2) < 1e-13 * abs(g2)
