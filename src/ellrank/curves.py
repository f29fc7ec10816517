"""Elliptic curves over Q: reduction data, traces of Frobenius by point
counting, Hecke coefficient tables, the period lattice and its area.

Point counting is exhaustive up to ENUM_LIMIT: the completed-square
cubic g(x) is evaluated once per curve at x = 0..ENUM_LIMIT, exactly in
int64 (a model whose |g| could pass 2^62 there reduces mod p instead),
and each prime reads #{(x, y) : y^2 = g(x)} from that table reduced
mod p and a mask of the nonzero squares.  Beyond ENUM_LIMIT it switches
to Shanks-Mestre order finding: each random point, on the curve or its
quadratic twist, gives all its annihilators in the Hasse interval from
one baby-step / giant-step scan, over only the class that #E (or the
twist's order) lies in modulo the rational torsion order, and the
candidates for #E narrow until one is left.  Both paths are
deterministic (the BSGS point sampler is seeded from (curve, p)).

The period lattice is the complex AGM's, with the basis ordered by the
sign of the discriminant; its area is what the modular degree records
divide by.  The registry's curves carry the degree of their modular
parametrisation X_0(N) -> E from Cremona's tables (modular_degree).
"""

from __future__ import annotations

import cmath
import math
import random
import zlib
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .arith import is_squarefree, prime_divisors

ENUM_LIMIT = 10_000
DEFAULT_P_MAX = 1_000_000
_SQUARES = np.arange(ENUM_LIMIT + 1, dtype=np.int64) ** 2


def _cubic_real_roots(p: float, q: float) -> list[float]:
    """The real roots of x^3 + p x + q in floating point: Cardano's
    formula when there is one, Viete's cosines when there are three."""
    d = q * q / 4 + p**3 / 27
    if d > 0 or p == 0:
        s = math.sqrt(d)
        return [sum(math.copysign(abs(u) ** (1 / 3), u) for u in (-q / 2 + s, -q / 2 - s))]
    r = 2 * math.sqrt(-p / 3)
    phi = math.acos(max(-1.0, min(1.0, 3 * q / (p * r))))
    return [r * math.cos((phi - 2 * math.pi * k) / 3) for k in range(3)]


@dataclass(frozen=True)
class CurveModel:
    a1: int
    a2: int
    a3: int
    a4: int
    a6: int
    conductor: int
    label: str = ""

    def __post_init__(self):
        if self.discriminant == 0:
            raise ValueError("singular model")
        if self.conductor < 1:
            raise ValueError("conductor must be positive")

    @property
    def ainvs(self):
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    @cached_property
    def b_invariants(self):
        a1, a2, a3, a4, a6 = self.ainvs
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        return b2, b4, b6, b8

    @property
    def c_invariants(self):
        b2, b4, b6, _ = self.b_invariants
        c4 = b2 * b2 - 24 * b4
        c6 = -b2**3 + 36 * b2 * b4 - 216 * b6
        return c4, c6

    @cached_property
    def discriminant(self) -> int:
        b2, b4, b6, b8 = self.b_invariants
        return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6

    @cached_property
    def torsion_order(self) -> int:
        """#E(Q)_tors, or a divisor of it, by Nagell-Lutz on
        y^2 = x^3 + A x + B, A = -27 c4, B = -54 c6 (Silverman, AEC,
        VIII.7): a torsion point other than O is integral, with y = 0 or
        y^2 | D = 4A^3 + 27B^2 = -2^8 3^12 disc.  D is factored over the
        primes of 6N (1 is returned if a cofactor is left); the integral
        points at each such y come from the cubic's float roots
        (_cubic_real_roots), checked exactly; a point is torsion when its
        multiples stay integral and reach O by 12P (Mazur).  The result
        is the order of the subgroup the torsion points found generate,
        so a missed point can only make it a smaller divisor.  It divides #E(F_p) at every good
        p >= 3, where E(Q)_tors injects."""
        c4, c6 = self.c_invariants
        A, B = -27 * c4, -54 * c6
        rest = abs(4 * A**3 + 27 * B**2)
        ys = [1]
        for q in prime_divisors(6 * self.conductor):
            e = 0
            while rest % q == 0:
                rest //= q
                e += 1
            ys = [y * q**f for y in ys for f in range(e // 2 + 1)]
        if rest != 1:
            return 1
        ys.append(0)
        points = set()
        for y in ys:
            roots = _cubic_real_roots(float(A), float(B - y * y))
            for x in {x0 + d for x0 in map(round, roots) for d in (-1, 0, 1)}:
                if x**3 + A * x + B == y * y:
                    points.update({(x, y), (x, -y)})

        def add(P, Q):
            """P + Q for integral affine P, Q (None is O), or False when
            the sum is not integral: x3 = lam^2 - x1 - x2 is an integer
            exactly when the slope lam is."""
            if P is None or Q is None:
                return Q if P is None else P
            (x1, y1), (x2, y2) = P, Q
            if x1 == x2 and y1 + y2 == 0:
                return None
            if x1 == x2:
                lam, r = divmod(3 * x1 * x1 + A, 2 * y1)
            else:
                lam, r = divmod(y2 - y1, x2 - x1)
            if r:
                return False
            x3 = lam * lam - x1 - x2
            return x3, lam * (x1 - x3) - y1

        group = {None}
        for P in points:
            R = P
            for _ in range(11):                  # 2P, ..., 12P
                R = add(R, P)
                if R is None or R is False:
                    break
            if R is None:
                group.add(P)
        while new := {add(P, Q) for P in group for Q in group} - group:
            group |= new
        return len(group)

    def validate_conductor(self, p_limit: int = 1000) -> bool:
        """Check that every prime dividing the stated conductor, at any
        size, divides the discriminant, and that below p_limit the primes
        of bad reduction are exactly the claimed ones."""
        claimed = set(prime_divisors(self.conductor))
        # a claimed prime not dividing disc is good: it fails with no count
        if any(self.discriminant % p for p in claimed):
            return False
        # primes dividing disc but not the conductor must still be good
        # (non-minimal models are not used here, but check anyway); the
        # claimed primes below p_limit are among these
        for p in sorted(p for p in prime_divisors(abs(self.discriminant)) if p <= p_limit):
            info = reduce_mod_p(self, p)
            if (info.kind == "good") != (p not in claimed):
                return False
        return True


# label: (a1, a2, a3, a4, a6, conductor, modular degree); the curves are
# Cremona's optimal ones, 11a1 .. 37a1, with his degrees of X_0(N) -> E
_REGISTRY = {
    "11a": (0, -1, 1, -10, -20, 11, 1),
    "14a": (1, 0, 1, 4, -6, 14, 1),
    "15a": (1, 1, 1, -10, -10, 15, 1),
    "36a": (0, 0, 0, 0, 1, 36, 1),
    "37a": (0, 0, 1, -1, 0, 37, 2),
}


def curve_by_label(label: str) -> CurveModel:
    key = label.lower().rstrip("1")
    if key not in _REGISTRY:
        raise KeyError(f"unknown curve label {label!r} (have {sorted(_REGISTRY)})")
    *a, n, _ = _REGISTRY[key]
    return CurveModel(*a, conductor=n, label=key)


def modular_degree(curve: CurveModel) -> int | None:
    """The degree of X_0(N) -> E for a registry curve, matched by its
    a-invariants and conductor, or None.  Not by its label: an isogenous
    model given the same label has another degree or Manin constant."""
    return next((deg for *a, n, deg in _REGISTRY.values()
                 if tuple(a) == curve.ainvs and n == curve.conductor), None)


@dataclass(frozen=True)
class ReductionInfo:
    prime: int
    kind: str                 # good | split-multiplicative | nonsplit-multiplicative | additive
    ap: int

    def __post_init__(self):
        if self.kind == "good":
            if self.ap * self.ap > 4 * self.prime:
                raise ValueError("Hasse bound violated")
        elif self.kind == "split-multiplicative":
            if self.ap != 1:
                raise ValueError("split multiplicative needs ap = 1")
        elif self.kind == "nonsplit-multiplicative":
            if self.ap != -1:
                raise ValueError("nonsplit multiplicative needs ap = -1")
        elif self.kind == "additive":
            if self.ap != 0:
                raise ValueError("additive needs ap = 0")
        else:
            raise ValueError(f"unknown reduction kind {self.kind}")


@lru_cache(maxsize=64)
def _cubic_values(b2: int, b4: int, b6: int) -> np.ndarray | None:
    """g(x) = 4x^3 + b2 x^2 + 2 b4 x + b6 at x = 0..ENUM_LIMIT, exact in
    int64 (read-only), or None when |g| could pass 2^62 there."""
    X = ENUM_LIMIT
    if 4 * X**3 + abs(b2) * X**2 + 2 * abs(b4) * X + abs(b6) >= 2**62:
        return None
    x = np.arange(X + 1, dtype=np.int64)
    g = ((4 * x + b2) * x + 2 * b4) * x + b6     # each partial sum is within the bound
    g.flags.writeable = False
    return g


def _count_points_enum(curve: CurveModel, p: int) -> tuple[int, int]:
    """(#smooth affine points + 1, #singular affine points) over F_p.

    Exhaustive. For odd p the completed square y^2 = g(x) is counted as
    sum_x #{y : y^2 = g(x)}, reading g mod p off the curve's cached table
    of exact g values (_cubic_values): one root where g = 0, two where g
    is in a mask of the nonzero squares mod p. Above ENUM_LIMIT, or for
    a model whose g could pass 2^62, g is evaluated by Horner reduced mod
    p after every step.
    Singular points are looked for only when p | disc. At p = 2 every
    (x, y) pair is tested on the long model.
    """
    if p == 2:
        a1, a2, a3, a4, a6 = (a % p for a in curve.ainvs)
        smooth = 0
        singular = 0
        for x in range(p):
            for y in range(p):
                lhs = (y * y + a1 * x * y + a3 * y) % p
                rhs = (x**3 + a2 * x * x + a4 * x + a6) % p
                if lhs != rhs:
                    continue
                # partial derivatives of f = y^2 + a1 x y + a3 y - x^3 - ...
                fy = (2 * y + a1 * x + a3) % p
                fx = (a1 * y - 3 * x * x - 2 * a2 * x - a4) % p
                if fx == 0 and fy == 0:
                    singular += 1
                else:
                    smooth += 1
        return smooth + 1, singular
    b2, b4, b6, _ = curve.b_invariants
    table = _cubic_values(b2, b4, b6) if p <= ENUM_LIMIT else None
    if table is not None:
        g = table[:p]
        g = g - g // p * p
        sq = _SQUARES[1:(p + 1) // 2]
    else:
        xs = np.arange(p, dtype=np.int64)
        # Horner reduced after every step as t - t // p * p (numpy's int64
        # % p is slower): each product stays below p^2, exact for p < 3e9
        g = 4
        for c in (b2, 2 * b4, b6):
            g = g * xs + c % p
            g -= g // p * p
        sq = xs[1:(p + 1) // 2] ** 2
    # the substitution y -> (y - a1 x - a3)/2 is a bijection for odd p;
    # x^2 for x = 1..(p-1)/2 meets each nonzero square once, which has
    # two roots y, and 0 has one
    square = np.zeros(p, dtype=bool)
    square[sq - sq // p * p] = True
    n_affine = int(np.count_nonzero(g == 0)) + 2 * int(np.count_nonzero(square[g]))
    if curve.discriminant % p:
        return n_affine + 1, 0
    # singular points: g(x0) = 0 and g'(x0) = 0 (and y = 0)
    sing = sum(1 for x in np.flatnonzero(g == 0).tolist()
               if (12 * x * x + 2 * b2 * x + 2 * b4) % p == 0)
    return n_affine + 1 - sing, sing


def _short_model(curve: CurveModel, p: int) -> tuple[int, int]:
    """y^2 = x^3 + A x + B over F_p (p > 3), isomorphic to the curve."""
    c4, c6 = curve.c_invariants
    return (-27 * c4) % p, (-54 * c6) % p


def _ec_add(P, Q, A, p):
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + A) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def _ec_mul(k, P, A, p):
    acc = None
    add = P
    while k:
        if k & 1:
            acc = _ec_add(acc, add, A, p)
        add = _ec_add(add, add, A, p)
        k >>= 1
    return acc


def _ec_mul_jacobian(k, P, A, p):
    """k*P by left-to-right double-and-add in Jacobian coordinates
    (x = X/Z^2, y = Y/Z^3), with one inversion at the end.  An
    intermediate point O, or an addition of P to itself, gives Z = 0,
    which every later step keeps; _ec_mul then gives the answer."""
    if k == 0:
        return None
    x, y = P
    X, Y, Z = x, y, 1
    for bit in bin(k)[3:]:
        YY = Y * Y % p
        ZZ = Z * Z % p
        S = 4 * X * YY % p
        M = (3 * X * X + A * ZZ * ZZ) % p
        Z = 2 * Y * Z % p
        X = (M * M - 2 * S) % p
        Y = (M * (S - X) - 8 * YY * YY) % p
        if bit == "1":
            ZZ = Z * Z % p
            H = (x * ZZ - X) % p
            r = (y * ZZ * Z - Y) % p
            HH = H * H % p
            HHH = H * HH % p
            V = X * HH
            X = (r * r - HHH - 2 * V) % p
            Y = (r * (V - X) - Y * HHH) % p
            Z = Z * H % p
    if Z == 0:
        return _ec_mul(k, P, A, p)
    zi = pow(Z, -1, p)
    zi2 = zi * zi % p
    return X * zi2 % p, Y * zi2 * zi % p


def _hasse_interval(p: int) -> tuple[int, int]:
    """[lo, hi] around p + 1, a little wider than the Hasse bound, and
    symmetric: m is in it exactly when 2p + 2 - m is."""
    r = math.isqrt(p)
    return p - 2 * r, p + 2 + 2 * r


def _annihilators(P, A, p, ms: range) -> list[int]:
    """Every m in the progression ms = m0, m0 + t, ... with m*P = O, for
    an affine P on y^2 = x^3 + A x + B, by one baby-step / giant-step
    scan for the i in [0, n) with R + i Q = O, R = m0 P and Q = t P.

    Baby steps map x(jQ) to (j, y(jQ)) for j = 1..s.  If Q's order k is
    at most 2s it shows there first, exactly: as y(jQ) = 0 (k = 2j) or
    as x(jQ) = x(j'Q), j' < j (then jQ = -j'Q and k = j + j'); the
    answer is then i = i0 mod k, for the i0 with i0 Q = -R read off the
    baby table, or none if R is not a multiple of Q.  Else the x values
    are distinct and each window [c - s, c + s] holds at most one i:
    R + cQ = +-jQ gives it as c -+ j, the sign read from y, with no
    check needed.  The centres c step by 2s + 1 from s.
    """
    m0, t, n = ms.start, ms.step, len(ms)
    R = _ec_mul_jacobian(m0, P, A, p)
    Q = _ec_mul(t, P, A, p)
    if Q is None:
        return list(ms) if R is None else []
    s = math.isqrt((n - 1) // 2) + 1
    baby = {}
    S = None
    for j in range(1, s + 1):
        S = _ec_add(S, Q, A, p)
        x, y = S
        if y == 0:
            k = 2 * j
        elif x in baby:
            k = j + baby[x][0]
        else:
            baby[x] = j, y
            continue
        if R is None:
            i0 = 0
        elif R[0] in baby:
            jr, yr = baby[R[0]]
            i0 = k - jr if R[1] == yr else jr
        elif R == S:                              # = -S, of order 2
            i0 = j
        else:
            return []
        return [m0 + t * i for i in range(i0, n, k)]
    step = 2 * s + 1
    G = _ec_add(R, S, A, p)                       # R + s Q
    T = _ec_add(_ec_add(S, S, A, p), Q, A, p)     # (2s + 1) Q
    out = []
    for c in range(s, n + s, step):
        if G is None:
            out.append(c)
        elif G[0] in baby:
            j, y = baby[G[0]]
            out.append(c - j if G[1] == y else c + j)
        G = _ec_add(G, T, A, p)
    return [m0 + t * i for i in out if i < n]


def _bsgs_seed(ainvs: tuple, p: int) -> int:
    """Random seed for the BSGS points at (curve, p): a CRC-32 of the
    text, so unlike hash() it does not change with PYTHONHASHSEED."""
    return zlib.crc32(repr((tuple(ainvs), p)).encode())


def _count_points_bsgs(curve: CurveModel, p: int) -> int:
    """#E(F_p) by Shanks-Mestre (Cohen, GTM 138, 7.4.3): each draw takes
    a random x, r = x^3 + A x + B != 0 and the point (x r, r^2) on
    y^2 = x^3 + A r^2 x + B r^3, which is E when r is a square and its
    quadratic twist when not (#E + #E_twist = 2p + 2).  The rational
    torsion order T divides #E, so a point on E is scanned over the
    m = 0 mod T in the Hasse interval, and one on the twist over the
    m = 2p + 2 mod T.  The candidates for #E are narrowed by each draw's
    annihilators until one is left.  Deterministic seed per (curve, p)."""
    A, B = _short_model(curve, p)
    T = curve.torsion_order
    rng = random.Random(_bsgs_seed(curve.ainvs, p))
    lo, hi = _hasse_interval(p)
    on_curve = range(lo + -lo % T, hi + 1, T)
    on_twist = range(lo + (2 * p + 2 - lo) % T, hi + 1, T)
    candidates = None
    for _ in range(40):
        x = rng.randrange(p)
        r = (x * x * x + A * x + B) % p
        if r == 0:
            continue
        P, Ar = (x * r % p, r * r % p), A * r * r % p
        if pow(r, (p - 1) // 2, p) == 1:
            ms = _annihilators(P, Ar, p, on_curve)
        else:
            ms = [2 * p + 2 - m for m in _annihilators(P, Ar, p, on_twist)]
        candidates = set(ms) if candidates is None else candidates & set(ms)
        if len(candidates) == 1:
            return candidates.pop()
    raise RuntimeError(f"group order ambiguous at p={p}")


def reduce_mod_p(curve: CurveModel, p: int, p_max: int = DEFAULT_P_MAX) -> ReductionInfo:
    """Reduction type and trace of Frobenius at p.

    Good reduction: ap = p + 1 - #E(F_p), the count including the point
    at infinity.  Bad reduction: ap = p - #(smooth points incl. oo),
    which is +1 / -1 / 0 for split / nonsplit / additive since the
    smooth locus is G_m, its twist, or G_a.
    """
    if p > p_max:
        raise ValueError(f"p={p} exceeds p_max={p_max}")
    if not (p >= 2 and prime_divisors(p) == [p]):
        raise ValueError(f"p={p} is not prime")
    return _reduce(curve, p)


def _reduce(curve: CurveModel, p: int) -> ReductionInfo:
    """reduce_mod_p for a p already known to be prime."""
    if curve.discriminant % p != 0:
        if p <= ENUM_LIMIT:
            n, _ = _count_points_enum(curve, p)
        else:
            n = _count_points_bsgs(curve, p)
        return ReductionInfo(p, "good", p + 1 - n)
    n_smooth, n_sing = _count_points_enum(curve, p)
    if n_sing == 0:
        # discriminant divisible by p but reduction smooth: non-minimal
        # model at p; count as good
        return ReductionInfo(p, "good", p + 1 - n_smooth)
    ap = p - n_smooth
    kind = {1: "split-multiplicative", -1: "nonsplit-multiplicative", 0: "additive"}[ap]
    return ReductionInfo(p, kind, ap)


def primes_up_to(n: int) -> np.ndarray:
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p:: p] = False
    return np.nonzero(sieve)[0]


def ap_table(curve: CurveModel, p_max: int) -> dict[int, ReductionInfo]:
    """ReductionInfo for every prime <= p_max, in prime order."""
    if p_max < 2:
        raise ValueError("p_max must be >= 2")
    # the sieve's primes need neither the primality test nor the p_max bound
    return {p: _reduce(curve, p) for p in primes_up_to(p_max).tolist()}


@dataclass
class CoefficientTable:
    level: int
    coefficients: np.ndarray   # int64, index n for 1 <= n <= nmax at [n]
    nmax: int

    def __post_init__(self):
        if self.coefficients[1] != 1:
            raise ValueError("normalization a_1 = 1 violated")

    def a(self, n: int) -> int:
        return int(self.coefficients[n])


def an_table(level: int, ap: dict[int, ReductionInfo], n_max: int) -> CoefficientTable:
    """Hecke eigenvalue table from the prime data.

    a_{p^k} = a_p a_{p^(k-1)} - p a_{p^(k-2)} for p not dividing the
    level, a_{p^k} = a_p^k for p | level, and multiplicativity across
    coprime indices.
    """
    a = np.ones(n_max + 1, dtype=np.int64)
    a[0] = 0
    for p in primes_up_to(n_max):
        if p not in ap:
            raise KeyError(f"missing a_p for prime {p}")
        if p * p > n_max:
            a[p::p] *= ap[p].ap
            continue
        ape = [1, ap[p].ap]                     # a_{p^e}, e = 0, 1, ...
        while p ** len(ape) <= n_max:
            ape.append(ape[1] * ape[-1] - (0 if level % p == 0 else p * ape[-2]))
        # a[p::p] holds n = (i + 1) p, and p^e | n for i = -1 mod p^(e-1)
        fac = np.full((n_max - p) // p + 1, ape[1], dtype=np.int64)
        for e in range(2, len(ape)):
            fac[p ** (e - 1) - 1::p ** (e - 1)] = ape[e]
        a[p::p] *= fac
    return CoefficientTable(level, a, n_max)


def check_ogg_pm1(curve: CurveModel) -> dict:
    """|a_p| = 1 at every p | conductor, for square-free conductor."""
    if not is_squarefree(curve.conductor):
        return {
            "hypothesis_met": False,
            "reason": f"conductor {curve.conductor} is not square-free",
            "primes": {},
            "all_pm1": None,
        }
    primes = {}
    ok = True
    for p in prime_divisors(curve.conductor):
        info = reduce_mod_p(curve, p)
        primes[p] = info.ap
        ok = ok and abs(info.ap) == 1
    return {"hypothesis_met": True, "primes": primes, "all_pm1": ok}


# ---------------------------------------------------------------- periods

@dataclass(frozen=True)
class PeriodLattice:
    omega1: float
    omega2: complex
    area: float


def _agm(a: complex, b: complex, max_iter: int = 60) -> complex:
    """Optimal complex AGM: the square root sign keeps |a-b| <= |a+b|."""
    for _ in range(max_iter):
        if abs(a - b) <= 1e-15 * abs(a):
            return (a + b) / 2
        a, b = (a + b) / 2, cmath.sqrt(a * b)
        if abs(a - b) > abs(a + b):
            b = -b
    raise RuntimeError("AGM did not converge in 60 iterations")


def period_lattice(curve: CurveModel) -> PeriodLattice:
    """The period lattice Z omega1 + Z omega2 and its area omega1 Im omega2,
    by AGM on the completed-square model y^2 = 4x^3 + b2 x^2 + 2 b4 x + b6.

    The sign of the discriminant orders the roots of the cubic (Cremona,
    Algorithms for Modular Elliptic Curves (1997), 3.7): for disc > 0 they
    are real, e1 > e2 > e3, and the lattice is rectangular; for disc < 0,
    e1 is the real root and e2 = conj(e3) has Im e2 > 0.  Then
    omega1 = pi / AGM(sqrt(e1 - e3), sqrt(e1 - e2)) and omega2 =
    pi i / AGM(sqrt(e1 - e3), sqrt(e2 - e3)), taken in the upper half
    plane with its real part reduced modulo omega1.
    """
    b2, b4, b6, _ = curve.b_invariants
    roots = np.roots([4.0, float(b2), 2.0 * float(b4), float(b6)])
    if curve.discriminant > 0:
        e1, e2, e3 = (complex(r) for r in sorted(roots.real, reverse=True))
    else:
        e1 = complex(roots[np.argmin(np.abs(roots.imag))].real)
        e2 = complex(roots[np.argmax(roots.imag)])
        e3 = e2.conjugate()
    omega1 = abs(cmath.pi / _agm(cmath.sqrt(e1 - e3), cmath.sqrt(e1 - e2)))
    w2 = cmath.pi * 1j / _agm(cmath.sqrt(e1 - e3), cmath.sqrt(e2 - e3))
    omega2 = w2 if (w2 / omega1).imag > 0 else -w2
    omega2 = complex(omega2.real - round(omega2.real / omega1) * omega1, omega2.imag)
    return PeriodLattice(omega1=float(omega1), omega2=omega2, area=float(omega1 * omega2.imag))
