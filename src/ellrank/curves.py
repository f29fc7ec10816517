"""Elliptic curves over Q: reduction data, traces of Frobenius by point
counting, Hecke coefficient tables, the period lattice and its area.

Point counting is exhaustive up to ENUM_LIMIT: the completed-square
cubic g(x) is evaluated once per curve at x = 0..ENUM_LIMIT, exactly in
int64 (a model whose |g| could pass 2^62 there reduces mod p instead),
and each prime reads #{(x, y) : y^2 = g(x)} from that table reduced
mod p and a mask of the nonzero squares.  Beyond ENUM_LIMIT it switches
to Shanks-Mestre order finding with each prime a lane of int64 arrays,
_LANES primes to a block: each point, on the curve or its quadratic
twist, gives all its annihilators in the Hasse interval from one
baby-step / giant-step scan over the class of #E (or of the twist's
order) modulo the rational torsion order, and the candidates for #E
narrow until one is left.  Both paths are deterministic (a draw's x is
a splitmix64 hash of p and the draw's index).

The period lattice is the complex AGM's, with the basis ordered by the
sign of the discriminant; its area is what the modular degree records
divide by.  The registry's curves carry the degree of their modular
parametrisation X_0(N) -> E from Cremona's tables (modular_degree).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .arith import factorize, is_squarefree, prime_divisors

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
        size, divides the discriminant, that below p_limit (>= 3) the bad
        primes are exactly the claimed ones, and that each exponent is one
        the reduction allows (Silverman, AEC IV.10): 1 if multiplicative;
        if additive, 2 at p >= 5 (additive when p | c4, the model minimal
        at p), and 2..8 at 2 and 2..5 at 3, classified by counting."""
        claimed = factorize(self.conductor)
        # a claimed prime not dividing disc is good: it fails with no count
        if any(self.discriminant % p for p in claimed):
            return False
        # primes dividing disc but not the conductor must still be good
        # (non-minimal models are not used here, but check anyway); the
        # claimed primes below p_limit are among these
        kinds = {}
        for p in sorted(p for p in prime_divisors(abs(self.discriminant)) if p <= p_limit):
            kinds[p] = reduce_mod_p(self, p).kind
            if (kinds[p] == "good") != (p not in claimed):
                return False
        for p, e in claimed.items():
            additive = self.c_invariants[0] % p == 0 if p >= 5 else kinds[p] == "additive"
            if not (2 <= e <= {2: 8, 3: 5}.get(p, 2) if additive else e == 1):
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


def _hasse_interval(p):
    """[lo, hi] around p + 1 (p an int or int64 array), a little wider than
    the Hasse bound and symmetric: m is in it exactly when 2p + 2 - m is."""
    r = np.sqrt(p).astype(np.int64)
    return p - 2 * r, p + 2 + 2 * r


# The kernels below work lane by lane on int64 residues mod p, one lane per
# prime or point; each product is reduced, so for p <= DEFAULT_P_MAX no
# intermediate passes 4 p^2 < 2^63.
_KEY = DEFAULT_P_MAX        # baby and giant x values meet as keys lane * _KEY + x
_LANES = 1024               # lanes per BSGS block: bounds its (steps, lanes) arrays
_DRAWS = 40                 # points per prime before its count is called ambiguous


def _mix64(p, k):
    """splitmix64 (Steele, Lea and Flood, OOPSLA 2014) of (p << 32) + k in
    uint64: the value behind draw k at the prime p, in every process."""
    z = (p.astype(np.uint64) << np.uint64(32)) + k.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _pow(b, e, p):
    """b^e mod p lane by lane (e >= 0), by right-to-left binary powers."""
    out = np.ones_like(b)
    for j in range(int(e.max()).bit_length()):
        out = np.where((e >> j) & 1 == 1, out * b % p, out)
        b = b * b % p
    return out


def _affine(X, Y, Z, p):
    """(X/Z^2, Y/Z^3) mod p for (rows, lanes) arrays, with one inversion
    per lane: Montgomery's prefix products of Z along the rows and one
    Fermat power.  An entry Z = 0 (the point O) is taken as 1."""
    Z = np.where(Z == 0, 1, Z)
    pre = Z.copy()
    for i in range(1, len(Z)):
        pre[i] = pre[i - 1] * Z[i] % p
    inv = _pow(pre[-1], p - 2, p)
    zi = np.empty_like(Z)
    for i in range(len(Z) - 1, 0, -1):
        zi[i] = inv * pre[i - 1] % p
        inv = inv * Z[i] % p
    zi[0] = inv
    zi2 = zi * zi % p
    return X * zi2 % p, Y * zi2 % p * zi % p


def _dbl(X, Y, Z, a, p):
    """2(X : Y : Z) on y^2 = x^3 + a x + b, in Jacobian coordinates
    x = X/Z^2, y = Y/Z^3 (Z = 0 is O)."""
    YY = Y * Y % p
    ZZ = Z * Z % p
    S = 4 * X % p * YY % p
    M = (3 * X * X + a * (ZZ * ZZ % p)) % p
    X3 = (M * M - 2 * S) % p
    return X3, (M * (S - X3) - 8 * (YY * YY % p)) % p, 2 * Y * Z % p


def _madd(X, Y, Z, x, y, p):
    """(X : Y : Z) + (x, y) for an affine (x, y), with H = x Z^2 - X and
    R = y Z^3 - Y.  H = 0 gives Z = 0: the sum O when R != 0, but a
    doubling this formula cannot make when R = 0.  Z = 0 stays 0."""
    ZZ = Z * Z % p
    H = (x * ZZ - X) % p
    R = (y * (ZZ * Z % p) - Y) % p
    HH = H * H % p
    HHH = H * HH % p
    V = X * HH % p
    X3 = (R * R - HHH - 2 * V) % p
    return X3, (R * (V - X3) - Y * HHH) % p, Z * H % p, H, R


def _ladder(k, x, y, a, p):
    """k P for k >= 0 and affine P = (x, y), by left-to-right
    double-and-add in Jacobian coordinates, each lane from its leading
    bit so that all end on the same step.  Returns (X, Y, Z, bad): bad
    marks the lanes that met O or a doubling inside the ladder, whose
    result is void; elsewhere Z = 0 is k P = O."""
    X, Y, Z = x, y, np.ones_like(x)
    bad = np.zeros(x.shape, bool)
    top = np.frexp(k.astype(float))[1] - 1                # the leading bit; -1 for k = 0
    for j in range(int(top.max()) - 1, -1, -1):
        act = top > j
        bit = act & ((k >> j) & 1 == 1)
        X2, Y2, Z2 = _dbl(X, Y, Z, a, p)
        X3, Y3, Z3, H, R = _madd(X2, Y2, Z2, x, y, p)
        bad |= act & (Z == 0) | bit & ((Z2 == 0) | (H == 0) & (R == 0))
        X, Y, Z = (np.where(bit, u, np.where(act, v, w))
                   for u, v, w in ((X3, X2, X), (Y3, Y2, Y), (Z3, Z2, Z)))
    return X, Y, np.where(k > 0, Z, 0), bad


def _annihilators(x, y, a, p, m0, t: int, n):
    """Lane by lane, the i in [0, n) with (m0 + t i) P = O for the point
    P = (x, y) on y^2 = x^3 + a x + b mod p, by one baby-step /
    giant-step scan for R + i Q = O, R = m0 P, Q = t P, taken by all
    lanes together.  Returns (lane, i) of every hit, and the lanes to
    redraw, which have none.

    The baby steps are j Q, j = 1..s, s = isqrt((max n - 1) // 2) + 1;
    the giant steps G_c = R + c Q at the centres c = s, 3s + 1, ... start
    from a ladder for (m0 + s t) P.  A lane is redrawn when a ladder met
    O or a doubling, or when Q has order k <= 2s + 1, which shows as
    Q = O, a baby step O (k <= s), a repeated x (s < k < 2s) or Z = 0 at
    (2s + 1) Q (k = 2s + 1, or k = 2s through 2s Q = O).  Else the x(j Q)
    are distinct and each window [c - s, c + s] holds at most one i:
    G_c = O gives i = c, and G_c = +-j Q gives c -+ j, the sign read from
    y.  One inversion per lane and stage gives affine x, and baby and
    giant x meet through one sort of the keys lane * _KEY + x and one
    searchsorted."""
    L = len(p)
    lane = np.arange(L)
    s = math.isqrt((int(n.max()) - 1) // 2) + 1
    XQ, YQ, ZQ, redraw = _ladder(np.full(L, t), x, y, a, p)
    *G, bad = _ladder(m0 + s * t, x, y, a, p)
    redraw |= bad | (ZQ == 0)
    qx, qy = (v[0] for v in _affine(XQ[None], YQ[None], ZQ[None], p))
    B = np.empty((3, s + 1, L), np.int64)          # X, Y, Z of Q, 2Q, ..., sQ, (2s + 1)Q
    B[0, 0], B[1, 0], B[2, 0] = qx, qy, 1
    if s > 1:
        B[:, 1] = _dbl(qx, qy, 1, a, p)
    for j in range(2, s):
        B[:, j] = _madd(*B[:, j - 1], qx, qy, p)[:3]
    D = _dbl(*B[:, s - 1], a, p)                    # 2s Q
    B[:, s] = _madd(*D, qx, qy, p)[:3]
    bx, by = _affine(*B, p)
    tx, ty, bx, by = bx[s], by[s], bx[:s], by[:s]
    redraw |= (B[2] == 0).any(0)
    step = 2 * s + 1
    E = _dbl(tx, ty, 1, a, p)                       # 2 (2s + 1) Q, after a G_c = O
    W = np.empty((3, -(-int(n.max()) // step), L), np.int64)
    W[:, 0] = G
    for g in range(1, W.shape[1]):
        *S, H, R = _madd(*W[:, g - 1], tx, ty, p)
        o, twice = W[2, g - 1] == 0, (H == 0) & (R == 0)
        W[:, g] = [np.where(o, u, np.where(twice, v, w)) for u, v, w in zip((tx, ty, 1), E, S)]
    gx, gy = _affine(*W, p)
    go = (W[2] == 0).ravel()
    bk = (bx + lane * _KEY).ravel()
    order = np.argsort(bk)
    sk = bk[order]
    redraw[sk[1:][sk[1:] == sk[:-1]] // _KEY] = True
    gk = (gx + lane * _KEY).ravel()
    at = order[np.minimum(np.searchsorted(sk, gk), sk.size - 1)]
    hit = (bk[at] == gk) & ~go
    c = s + np.arange(gk.size) // L * step
    j = at // L + 1
    i = np.where(hit, np.where(by.ravel()[at] == gy.ravel(), c - j, c + j), c)
    lanes, i = np.tile(lane, len(W[2]))[hit | go], i[hit | go]
    keep = (i < n[lanes]) & ~redraw[lanes]
    return lanes[keep], i[keep], redraw


def _count_points_bsgs(curve: CurveModel, ps) -> np.ndarray:
    """#E(F_p) at each good prime 3 < p <= DEFAULT_P_MAX of ps, by
    Shanks-Mestre (Cohen, GTM 138, 7.4.3) with one prime per lane, in
    blocks of _LANES.  Draw k at p takes x from _mix64(p, k),
    r = x^3 + A x + B != 0 and the point (x r, r^2) on
    y^2 = x^3 + A r^2 x + B r^3, which is E when r is a square and its
    quadratic twist when not (#E + #E_twist = 2p + 2).  The rational
    torsion order T divides #E, so a point on E is scanned over the
    m = 0 mod T in the Hasse interval, and one on the twist over the
    m = 2p + 2 mod T.  Each draw's annihilators narrow the candidates for
    #E until one is left; a prime still open goes to the next block."""
    p = np.asarray(ps, dtype=np.int64)
    if p.size and p.max() > DEFAULT_P_MAX:
        raise ValueError(f"p={int(p.max())} exceeds {DEFAULT_P_MAX}, the bound of int64 BSGS")
    c4, c6 = curve.c_invariants                     # y^2 = x^3 + A x + B, isomorphic to E
    A, B = (np.array([[-27 * c4], [-54 * c6]], dtype=object) % p.astype(object)).astype(np.int64)
    T = curve.torsion_order
    lo, hi = _hasse_interval(p)
    out = np.zeros(p.size, np.int64)
    draws = np.zeros(p.size, np.int64)
    kept: dict[int, set] = {}                      # prime index -> candidates so far
    queue = np.arange(p.size)
    while queue.size:
        b, queue = queue[:_LANES], queue[_LANES:]
        if draws[b].max() == _DRAWS:
            raise RuntimeError(f"group order ambiguous at p={int(p[b][draws[b].argmax()])}")
        q, a = p[b], A[b]
        x = (_mix64(q, draws[b]) % q.astype(np.uint64)).astype(np.int64)
        draws[b] += 1
        r = (x * x % q * x + a * x + B[b]) % q          # r = 0 gives y = 0: redrawn
        twist = _pow(r, (q - 1) // 2, q) != 1
        m0 = lo[b] + np.where(twist, 2 * q + 2 - lo[b], -lo[b]) % T
        rr = r * r % q
        lanes, i, _ = _annihilators(x * r % q, rr, a * rr % q, q, m0, T, (hi[b] - m0) // T + 1)
        m = m0[lanes] + T * i
        m = np.where(twist[lanes], 2 * q[lanes] + 2 - m, m)
        count = np.bincount(lanes, minlength=b.size)
        done = (count == 1) & np.array([k not in kept for k in b.tolist()])
        out[b[lanes[done[lanes]]]] = m[done[lanes]]
        for l in np.flatnonzero((count > 0) & ~done).tolist():
            got = set(m[lanes == l].tolist())
            got &= kept.pop(int(b[l]), got)
            if len(got) == 1:
                out[b[l]], done[l] = got.pop(), True
            else:
                kept[int(b[l])] = got
        queue = np.concatenate([b[~done], queue])
    return out


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
            n = int(_count_points_bsgs(curve, [p])[0])
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
    # the sieve's primes need neither the primality test nor the p_max
    # bound; every good prime above ENUM_LIMIT goes to one BSGS call
    ps = primes_up_to(p_max).tolist()
    big = [p for p in ps if p > ENUM_LIMIT and curve.discriminant % p]
    counts = dict(zip(big, _count_points_bsgs(curve, big).tolist())) if big else {}
    return {p: ReductionInfo(p, "good", p + 1 - counts[p]) if p in counts else _reduce(curve, p)
            for p in ps}


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
