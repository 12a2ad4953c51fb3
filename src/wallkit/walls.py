"""Wall divisors and their certificates for Hilbert-scheme-type lattices.

The ambient picture: the rank-23 lattice L_n (signature (3,20)) sits
inside the rank-24 unimodular extension as the orthogonal complement of a
primitive class v with v^2 = 2n - 2.  A numerical wall type is a pair
(square, divisibility) of a primitive negative class D in L_n; whether D
actually supports a wall is decided by rank-2 sublattice conditions on
the extension: either D has square -2, or v +- D has a short isotropic
part, or the saturated rank-2 lattice spanned by v and D contains one of
the certifying classes enumerated in `bm_wall_test`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, isqrt

from . import _linalg as la
from .errors import InputError, InternalError
from .lattice import (
    Embedding,
    IntegerLattice,
    LatticeVector,
    _saturate,
    standard_lattice,
)

__all__ = [
    "NContext",
    "make_context",
    "WallType",
    "WallCondition",
    "WallWitness",
    "RankTwoData",
    "hyperbolic_T",
    "bm_wall_test",
    "wall_test",
    "ht_bound_ok",
    "wall_type_exists",
    "enumerate_wall_types",
    "certified_wall_types",
    "certified_wall_orbits",
    "OrbitInvariants",
    "eichler_invariants",
    "eichler_transvection",
    "dual_ray",
]


@dataclass(frozen=True)
class NContext:
    """Fixed ambient data for one value of n."""

    n: int
    ambient: IntegerLattice  # L_n, rank 23
    mukai: IntegerLattice  # unimodular extension, rank 24
    v: LatticeVector  # distinguished class, v^2 = 2n-2
    embed: Embedding  # L_n -> extension, image = v-perp

    @property
    def delta(self) -> LatticeVector:
        """Generator of the rank-1 tail of L_n (square -(2n-2), div 2n-2)."""
        return self.ambient.basis_vector(self.ambient.rank - 1)


@functools.lru_cache(maxsize=None)
def make_context(n: int) -> NContext:
    """Build L_n inside its unimodular extension.

    Basis convention: the extension is ordered U, U, U, E8(-1), E8(-1), U
    with the distinguished hyperbolic plane (e, f) in the last two
    coordinates; v = e + (n-1) f, and L_n maps by the identity on the
    first 22 coordinates with its rank-1 generator going to e - (n-1) f.
    """
    if n < 2:
        raise InputError("context requires n >= 2")
    ambient = standard_lattice("Ln", n)
    mukai = standard_lattice("mukai")
    v = mukai.vector((0,) * 22 + (1, n - 1))
    rows = tuple(tuple(int(j == i) for j in range(23)) for i in range(23))
    emb = Embedding(source=ambient, target=mukai, matrix=rows + ((0,) * 22 + (1 - n,),))
    if any(la.mat_vec(la.transpose(emb.matrix), la.mat_vec(mukai.gram, v.coords))):
        raise InternalError("ambient image is not orthogonal to v")
    if not emb.is_primitive():
        raise InternalError("ambient embedding is not primitive")
    return NContext(n=n, ambient=ambient, mukai=mukai, v=v, embed=emb)


@dataclass(frozen=True)
class WallType:
    """Numerical type of a wall divisor: (square, divisibility).

    `orbit`, when set, narrows the type to the Eichler orbit of the
    classes whose delta-coefficient is +-orbit mod div; it is set only
    where the orbits of one (square, div) get different verdicts.
    """

    square: int
    div: int
    orbit: int | None = None

    def __post_init__(self):
        if self.square >= 0 or self.square % 2:
            raise InputError("wall type square must be negative and even")
        if self.div < 1:
            raise InputError("wall type divisibility must be >= 1")

    @property
    def ray_square(self) -> Fraction:
        return Fraction(self.square, self.div * self.div)


class WallCondition(Enum):
    MK_MINUS2 = "MK_minus2"
    MK_ISOTROPIC = "MK_isotropic"
    BM_ORTH_ROOT = "BM_orth_root"
    BM_ISOTROPIC = "BM_isotropic"
    BM_BOUNDED_ROOT = "BM_bounded_root"
    BM_SUM = "BM_sum_decomposition"


@dataclass(frozen=True)
class WallWitness:
    """A certifying class (or pair) together with the recheck data.

    `vectors` live in the same lattice as `against` (the distinguished
    class v, or its copy inside a rank-2 sublattice).  `pairing_data` is
    (w^2, (w, v)) for single-vector conditions and
    (w^2, t^2, (w, v), (t, v)) for the sum decomposition.
    """

    condition: WallCondition
    vectors: tuple[LatticeVector, ...]
    pairing_data: tuple[int, ...]
    against: LatticeVector

    def check(self) -> bool:
        """Re-verify the defining condition from scratch."""
        v = self.against
        c = self.condition
        if c in (WallCondition.MK_MINUS2, WallCondition.BM_ORTH_ROOT):
            (w,) = self.vectors
            return (
                w.norm() == -2
                and w.inner(v) == 0
                and self.pairing_data == (-2, 0)
            )
        if c in (WallCondition.MK_ISOTROPIC, WallCondition.BM_ISOTROPIC):
            (w,) = self.vectors
            p = w.inner(v)
            return (
                w.norm() == 0
                and p in (1, 2)
                and self.pairing_data == (0, p)
            )
        if c is WallCondition.BM_BOUNDED_ROOT:
            (w,) = self.vectors
            p = w.inner(v)
            return (
                w.norm() == -2
                and 0 < p
                and 2 * p <= v.norm()
                and self.pairing_data == (-2, p)
            )
        if c is WallCondition.BM_SUM:
            w, t = self.vectors
            pw, pt = w.inner(v), t.inner(v)
            return (
                tuple(a + b for a, b in zip(w.coords, t.coords)) == v.coords
                and w.norm() >= 0
                and t.norm() >= 0
                and pw > 0
                and pt > 0
                and self.pairing_data == (w.norm(), t.norm(), pw, pt)
            )
        raise InputError(f"unknown wall condition {c}")


@dataclass(frozen=True)
class RankTwoData:
    """Saturated rank-2 sublattice spanned by v and a second class."""

    lattice: IntegerLattice
    embed: Embedding  # into the unimodular extension
    v_in_T: LatticeVector
    s_in_T: LatticeVector


def hyperbolic_T(ctx: NContext, s) -> RankTwoData:
    """Saturation of span{v, s} in the extension, with v and s rewritten
    in its basis.  InputError when s is proportional to v."""
    s = ctx.mukai.vector(s)
    emb, coords = _saturate(ctx.mukai, tuple(zip(ctx.v.coords, s.coords)))
    if emb.source.rank < 2:
        raise InputError("span of v and s is not rank 2")
    v_in, s_in = (emb.source.vector(c) for c in zip(*coords))
    if emb.apply(v_in) != ctx.v or emb.apply(s_in) != s:
        raise InternalError("saturation lost the spanning classes")
    return RankTwoData(lattice=emb.source, embed=emb, v_in_T=v_in, s_in_T=s_in)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a x + b y = g = gcd(a, b) >= 0, deterministic."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _quad_window(a: int, b: int, c: int) -> range:
    """The integers k with a k^2 + b k + c >= 0, for a < 0, ascending.

    With A = -2a and s = isqrt(b^2 - 4ac) they run from ceil((b - s) / A)
    to floor((b + s) / A): each bound compares an integer with the square
    root of the discriminant, and s <= sqrt(disc) < s + 1 decides that."""
    disc = b * b - 4 * a * c
    if disc < 0:
        return range(0)
    s, A = isqrt(disc), -2 * a
    return range(-((s - b) // A), (b + s) // A + 1)


def bm_wall_test(T: IntegerLattice, v_in_T: LatticeVector) -> WallWitness | None:
    """Exhaustive rank-2 wall certificate search, in priority order.

    Given a hyperbolic (det < 0) even rank-2 lattice T containing the
    positive class v, looks for, in this order:

      1. a square -2 class orthogonal to v             (BM_orth_root)
      2. an isotropic class pairing 1 or 2 with v      (BM_isotropic)
      3. a square -2 class w with 0 < (w,v) <= v^2/2   (BM_bounded_root)
      4. a splitting v = w + t with w, t in the closed
         positive cone of v: x^2 >= 0, (x,v) > 0       (BM_sum_decomposition)

    Each search is a complete integer sweep: classes with fixed pairing
    against v form a line w0 + k u0 on which the square is a downward
    parabola in k, so all solution windows are finite and enumerated
    exactly.  A None therefore proves that T contains no certifying
    class at all.
    """
    if T.rank != 2:
        raise InputError("bm_wall_test expects a rank-2 lattice")
    (g00, g01), (_, g11) = T.gram
    if g00 * g11 - g01 * g01 >= 0:
        raise InputError("bm_wall_test expects det(T) < 0")
    v = T.vector(v_in_T)
    vsq = v.norm()
    if vsq <= 0:
        raise InputError("bm_wall_test expects v^2 > 0")

    g = la.mat_vec(T.gram, v.coords)
    dv = gcd(g[0], g[1])
    _, x0, y0 = _xgcd(g[0], g[1])

    u0 = (-g[1] // dv, g[0] // dv)
    if u0[0] < 0 or (u0[0] == 0 and u0[1] < 0):
        u0 = (-u0[0], -u0[1])
    a = T.norm(u0)  # negative: u0 spans the negative part of T
    # the classes pairing f dv with v are f (x0, y0) + k u0, of square
    # a k^2 + 2 f b k + f^2 c
    b, c = T.inner((x0, y0), u0), T.norm((x0, y0))

    def vec(f: int, k: int) -> LatticeVector:
        return T.vector((f * x0 + k * u0[0], f * y0 + k * u0[1]))

    if a == -2:
        return WallWitness(
            WallCondition.BM_ORTH_ROOT, (T.vector(u0),), (-2, 0), against=v
        )

    for cond, sq, pairings in (
        (WallCondition.BM_ISOTROPIC, 0, (1, 2)),
        (WallCondition.BM_BOUNDED_ROOT, -2, range(1, vsq // 2 + 1)),
    ):
        for p in pairings:
            if p % dv:
                continue
            f = p // dv
            # an integer root of the downward parabola ends its window
            window = _quad_window(a, 2 * f * b, f * f * c - sq)
            for k in (window[0], window[-1]) if window else ():
                if a * k * k + 2 * f * b * k + f * f * c == sq:
                    return WallWitness(cond, (vec(f, k),), (sq, p), against=v)

    # v = w + t with (t, v) = pt: w^2 = t^2 + v^2 - 2 pt, so both squares
    # are >= 0 exactly when t^2 >= max(0, 2 pt - v^2)
    for pt in range(dv, vsq, dv):
        f = pt // dv
        window = _quad_window(a, 2 * f * b, f * f * c - max(0, 2 * pt - vsq))
        if window:
            t = vec(f, window[0])
            w = T.vector(tuple(x - y for x, y in zip(v.coords, t.coords)))
            return WallWitness(
                WallCondition.BM_SUM,
                (w, t),
                (w.norm(), t.norm(), vsq - pt, pt),
                against=v,
            )
    return None


def wall_test(ctx: NContext, D) -> WallWitness | None:
    """Full wall decision for a primitive negative class D in L_n.

    Shortcut certificates first, which avoid rank-2 lattice work: a class
    of square -2 is a wall, and so is one of square 2-2n when the
    primitive part of v + D or of v - D pairs 1 or 2 with v (both are
    isotropic, as (v +- D)^2 = v^2 + D^2 = 0).  That pairing forces
    (n-1) | div: (v +- D)/g pairs (2n-2)/g with v, so g is 2n-2 or n-1,
    and g divides D's pairings.  Otherwise the exhaustive rank-2 search
    on the saturation of span{v, D} decides.
    Witness vectors are always reported in extension coordinates.  None
    means: no certificate exists, i.e. D does not support a wall.
    """
    D = ctx.ambient.vector(D)
    if not D.is_primitive():
        raise InputError("wall tests take primitive classes")
    s = D.norm()
    if s >= 0:
        raise InputError("wall divisors have negative square")
    iD = ctx.embed.apply(D)
    if s == -2:
        return WallWitness(WallCondition.MK_MINUS2, (iD,), (-2, 0), against=ctx.v)
    if s == 2 - 2 * ctx.n:
        for sign in (1, -1):
            raw = tuple(a + sign * b for a, b in zip(ctx.v.coords, iD.coords))
            g = gcd(*raw)
            w = LatticeVector(ctx.mukai, tuple(x // g for x in raw))
            p = w.inner(ctx.v)
            if p in (1, 2):
                return WallWitness(WallCondition.MK_ISOTROPIC, (w,), (0, p), against=ctx.v)
    data = hyperbolic_T(ctx, iD)
    bm = bm_wall_test(data.lattice, data.v_in_T)
    if bm is None:
        return None
    return WallWitness(
        condition=bm.condition,
        vectors=tuple(data.embed.apply(w) for w in bm.vectors),
        pairing_data=bm.pairing_data,
        against=ctx.v,
    )


def ht_bound_ok(n: int, ray_square) -> bool:
    """Dual-ray square bound: ray^2 >= -(n+3)/2, boundary included."""
    return Fraction(ray_square) >= -Fraction(n + 3, 2)


def wall_type_exists(ctx: NContext, square: int, div: int) -> tuple[bool, LatticeVector | None]:
    """Does L_n contain a primitive class of this (square, div)?

    Criterion: div | 2n-2 and square = -c^2 (2n-2) mod 2 div^2 for some c
    prime to div.  Necessity comes from the discriminant form of the
    class [D/div]; sufficiency from the explicit witness returned here,
    supported on a hyperbolic plane plus the rank-1 tail.
    """
    WallType(square, div)  # InputError unless square < 0 is even and div >= 1
    period = 2 * ctx.n - 2
    if period % div:
        return False, None
    c = _admissible_residues(period, div).get(square % (2 * div * div))
    if c is None:
        return False, None
    return True, _witness(ctx, square, div, c)


def _witness(ctx: NContext, square: int, div: int, c: int) -> LatticeVector:
    """div e + div u f + c delta on L_n's first hyperbolic plane and tail,
    for a coefficient c that `_admissible_residues` gives this type."""
    u = (square + c * c * (2 * ctx.n - 2)) // (2 * div * div)
    D = ctx.ambient.vector((div, div * u) + (0,) * 20 + (c,))
    if D.norm() != square or not D.is_primitive() or D.div() != div:
        raise InternalError("witness construction failed")
    return D


def _admissible_residues(period: int, div: int) -> dict[int, int]:
    """Residues of squares realizable at this divisibility: maps
    -c^2 * period mod 2 div^2 to the smallest coefficient c prime to div
    that realizes it.  As div divides the even period, the residue and
    gcd(c, div) depend on c mod div only."""
    table: dict[int, int] = {}
    for c in range(div):
        if gcd(c, div) == 1:
            table.setdefault((-c * c * period) % (2 * div * div), c)
    return table


def _typed_witnesses(ctx: NContext):
    """(WallType, witness class) for each candidate wall type at level n,
    in (div, |square|) order: divisors ascending, squares descending.
    Residue r gives the squares r - 2 div^2 j, j >= 1, down to the
    dual-ray bound -(n+3) div^2 / 2."""
    period = 2 * ctx.n - 2
    for div in range(1, period + 1):
        if period % div:
            continue
        mod, low = 2 * div * div, -((ctx.n + 3) * div * div // 2)
        squares = sorted(
            ((s, c) for r, c in _admissible_residues(period, div).items()
             for s in range(r - mod, low - 1, -mod)),
            reverse=True,
        )
        for s, c in squares:
            yield WallType(square=s, div=div), _witness(ctx, s, div, c)


def enumerate_wall_types(ctx: NContext) -> tuple[WallType, ...]:
    """Candidate wall types at level n, sorted by (div, |square|).

    Combines the divisibility/congruence existence test with the dual-ray
    square bound.  For n <= 4 this list is exactly the set of wall types;
    for n >= 5 it is an upper bound (see `certified_wall_types`).
    """
    return tuple(t for t, _ in _typed_witnesses(ctx))


def certified_wall_types(ctx: NContext) -> tuple[WallType, ...]:
    """Candidate types whose witness class carries a verified wall
    certificate.  Coincides with `enumerate_wall_types` for n <= 4."""
    return tuple(t for t, D in _typed_witnesses(ctx) if wall_test(ctx, D) is not None)


def certified_wall_orbits(ctx: NContext) -> tuple[WallType, ...]:
    """`certified_wall_types` decided per Eichler orbit.

    D = lambda + c delta of div d has class (c/d) delta in L_n's
    discriminant group, which Mon^2 moves only by sign, so the orbits of a
    type are its coefficients c up to sign mod div.  A type whose orbits
    get different verdicts is listed once per wall orbit, with `orbit` =
    the c in [0, div/2]; for n <= 6 no type has two orbits."""
    period = 2 * ctx.n - 2
    out = []
    for t, D in _typed_witnesses(ctx):
        # D holds the smallest c; the other orbits follow up to div / 2
        witnesses = {D.coords[-1]: D}
        for c in range(D.coords[-1] + 1, t.div // 2 + 1):
            if gcd(c, t.div) == 1 and (t.square + c * c * period) % (2 * t.div * t.div) == 0:
                witnesses[c] = _witness(ctx, t.square, t.div, c)
        walls = [c for c, W in witnesses.items() if wall_test(ctx, W) is not None]
        out += [t] if len(walls) == len(witnesses) else [WallType(t.square, t.div, c) for c in walls]
    return tuple(out)


@dataclass(frozen=True)
class OrbitInvariants:
    """Eichler-orbit invariants of a primitive class of L_n: square,
    divisibility, and the class of v/div in the cyclic discriminant group
    of L_n, as its exponent over the generator delta/(2n-2).

    L_n splits off two hyperbolic planes, so by Eichler's criterion equal
    invariants mean one orbit of the stable orthogonal group O~+(L_n),
    the isometries acting trivially on the discriminant group.  Other
    isometries join orbits: -id maps delta (class 1) to -delta (class
    2n-3).  The wall property reads the class up to sign, as Mon^2 acts
    on the discriminant group by +-1."""

    square: int
    div: int
    disc: tuple[int, ...]


def eichler_invariants(ctx: NContext, v) -> OrbitInvariants:
    """Invariants of a primitive v = lambda + c delta of L_n.  lambda lies
    in the unimodular part, so div v = d divides it and [v/d] = (c/d) delta
    = c (2n-2)/d [delta/(2n-2)]."""
    v = ctx.ambient.vector(v)
    if not v.is_primitive():
        raise InputError("orbit invariants take primitive classes")
    d, period = v.div(), 2 * ctx.n - 2
    return OrbitInvariants(square=v.norm(), div=d, disc=(v.coords[-1] * (period // d) % period,))


def eichler_transvection(lattice: IntegerLattice, e, a) -> tuple[tuple[int, ...], ...]:
    """Matrix (columns = images of basis vectors) of the transvection

        x  |->  x - (a,x) e + (e,x) a - (a,a)/2 (e,x) e

    for isotropic e and a orthogonal to e.  The result is verified to be
    an isometry before it is returned.
    """
    e = lattice.vector(e)
    a = lattice.vector(a)
    if e.norm() != 0:
        raise InputError("transvection base class must be isotropic")
    if e.inner(a) != 0:
        raise InputError("transvection requires (e, a) = 0")
    # column j is the image of basis vector x_j, where (a, x_j) = (G a)_j
    # and (e, x_j) = (G e)_j, so entry (i, j) is
    # delta_ij + (G e)_j a_i - ((G a)_j + (a, a)/2 (G e)_j) e_i
    half = a.norm() // 2
    ge = la.mat_vec(lattice.gram, e.coords)
    f = [x + half * y for x, y in zip(la.mat_vec(lattice.gram, a.coords), ge)]
    n = lattice.rank
    matrix = tuple(
        tuple((i == j) + ge[j] * a.coords[i] - f[j] * e.coords[i] for j in range(n))
        for i in range(n)
    )
    check = la.mat_mul(la.mat_mul(la.transpose(matrix), lattice.gram), matrix)
    if check != lattice.gram:
        raise InternalError("transvection is not an isometry")
    return matrix


def dual_ray(ctx: NContext, D) -> tuple[Fraction, ...]:
    """The ray D / div(D) in L_n x Q; its square is D^2 / div^2."""
    D = ctx.ambient.vector(D)
    if not D.is_primitive():
        raise InputError("dual rays are taken for primitive classes")
    d = D.div()
    return tuple(Fraction(c, d) for c in D.coords)
