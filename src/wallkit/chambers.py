"""Chamber geometry in the positive cone of a Picard sublattice.

All questions are reduced to exact finite enumerations:

* Wall crossings between two positive classes use the compact-majorant
  trick: for a positive reference a, q_a(x) = -x^2 + 2 (x,a)^2 / a^2 is
  positive definite, and every wall divisor separating a from b satisfies
  an explicit q_a bound derived from Cauchy-Schwarz for the majorant (see
  `walls_between`).  Enumerating that ball is therefore complete.  Each
  point is tested by its integer square against the wall types first, a
  sum over the Picard form's nonzero terms; only the few with a type's
  square are paired with the endpoints, and in integers: G a and G b
  scaled to primitive integer rows keep every sign.  The divisibility
  test comes last.
* A supporting-wall search first checks that omega lies on no wall (one
  enumeration of the reduced, negative definite omega-perp), then gathers typed
  candidate classes, which differ by rank.  In rank 2 they are complete:
  when the Picard form splits off a hyperbolic plane over Q, from divisor
  pairs with no height cap at all; otherwise the box classes bracket w on
  each side by r(D) = q_w(D) / |D^2| = 2 mu(D) - 1, where mu(D) is the
  normalized angle between w and the positive ray of D-perp, so "angularly
  closer than the bracket" is another complete q_w enumeration.  In rank
  >= 3 they are the typed classes of the height box, and the report is
  inexact: a wall outside the box can cut a facet off.  The box is solved
  in integers, each type's square for the last coordinate given the
  others.  Every candidate is typed by `_wall_type` and turned toward omega
  by `_toward`.
* One facet step, shared by every rank, turns candidates into walls: the
  facets of the cone K they cut out that meet omega's component of the
  positive cone.  One integer double description of K gives its rays;
  the rays on each candidate's hyperplane mark its face of K, and these
  bitmasks pick out the facets and the ridges between them.  A facet is
  decided exactly, a sup-of-quadratic question solved on it from the rays
  it contains plus stationary points of the faces its neighbours in K
  cut.  The decision runs in integers, from the double description to the
  certificate: points are pairs (num, den), solved fraction-free.

Every enumeration above (the segment's majorant balls, the on-wall check,
the height box and the rank-2 closing ball) walks one of each pair x, -x,
for the cells of the whole ball or box: a class and its negative have the
same square, divisibility and primitivity.

Every supporting-wall answer depends on omega only up to positive scale, so
omega is rational only at the API: the public entry points scale it once to
its primitive integer vector, and the search below them runs in integers.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul

from . import _linalg as la
from .errors import ConfigurationError, InputError, InternalError, OnWallError
from .lattice import (
    Embedding,
    IntegerLattice,
    LatticeVector,
    orthogonal_complement,
    parse_frac,
    signature,
)
from .shortvec import CellBudget, _fp_decompose, _fp_points
from .walls import NContext, WallType

__all__ = [
    "PicardData",
    "Wall",
    "SupportResult",
    "ExtremalRay",
    "is_positive_class",
    "walls_between",
    "supporting_walls_report",
    "extremal_rays",
    "in_dual_cone",
]

MAX_PICARD_RANK = 5
DEFAULT_SEARCH_BOUND = 12  # supporting-wall box height when a query names none


@dataclass(frozen=True)
class PicardData:
    """A Picard sublattice of L_n with an optional reference class.

    `embed` must be a primitive isometric embedding pic -> L_n and the
    Picard form must have signature (1, rank-1).  `omega_ref` (rational
    coordinates in the pic basis) picks the positive-cone component and
    is required by `is_positive_class` and `in_dual_cone`.
    """

    ctx: NContext
    pic: IntegerLattice
    embed: Embedding
    omega_ref: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        if self.pic.rank < 1 or self.pic.rank > MAX_PICARD_RANK:
            raise InputError(f"Picard rank must be 1..{MAX_PICARD_RANK}")
        if self.embed.source != self.pic or self.embed.target != self.ctx.ambient:
            raise InputError("embedding must map the Picard lattice into L_n")
        if not self.embed.is_primitive():
            raise InputError("Picard embedding must be primitive")
        if signature(self.pic) != (1, self.pic.rank - 1):
            raise InputError("Picard lattice must have signature (1, rank-1)")
        if self.omega_ref is not None:
            om = _fracs(self, self.omega_ref, "reference class")
            if self.pic.norm(om) <= 0:
                raise InputError("reference class must have positive square")
            object.__setattr__(self, "omega_ref", om)

    @functools.cached_property
    def _div_basis(self) -> tuple[tuple[int, ...], ...]:
        """Rows d_i (Q^-1)_i of the Smith form P (G_L E) Q = D.

        They are a Z-basis of the row span of G_L E (E the embedding
        matrix), and gcd is invariant under the unimodular P, so the gcd of
        the pairings (E x, L_n) is the gcd of this basis applied to x.
        Since P (G_L E) = D Q^-1, they are the first rows of P (G_L E).
        """
        ge = la.mat_mul(self.ctx.ambient.gram, self.embed.matrix)
        p, _, _ = la.smith_normal_form(ge)
        return la.mat_mul(p[: self.pic.rank], ge)

    @functools.cached_property
    def _square_terms(self) -> tuple[tuple[int, int, int], ...]:
        """The nonzero (i, j, c), i <= j, with x^2 = sum c x_i x_j: c is
        G_ii on the diagonal and 2 G_ij off it."""
        g = self.pic.gram
        n = len(g)
        return tuple(
            (i, j, g[i][j] if i == j else 2 * g[i][j])
            for i in range(n)
            for j in range(i, n)
            if g[i][j]
        )

    def div_of(self, coords) -> int:
        """Divisibility in L_n (not in pic) of integral pic coordinates."""
        d = gcd(*la.mat_vec(self._div_basis, coords))
        if d == 0:
            raise InputError("divisibility undefined: vector pairs trivially with lattice")
        return d


@dataclass(frozen=True)
class Wall:
    """An oriented wall divisor in pic coordinates with its numerical type.

    `certificate`, when present, is an integral pic class x with x^2 > 0,
    (D, x) = 0, and (D', x) > 0 for every other wall of the same report:
    it exhibits the wall as an actual chamber facet.
    """

    D: LatticeVector
    wall_type: WallType
    certificate: tuple[int, ...] | None = None


@dataclass(frozen=True)
class SupportResult:
    walls: tuple[Wall, ...]
    exact: bool
    search_bound: int


@dataclass(frozen=True)
class ExtremalRay:
    """Dual ray D / div(D) of a supporting wall, in pic x Q coordinates."""

    coords: tuple[Fraction, ...]
    square: Fraction
    wall: Wall


# ----------------------------------------------------------------- helpers


def _fracs(P: PicardData, x, what: str = "class") -> tuple[Fraction, ...]:
    """Rational pic coordinates of x; a str or bytes is not a sequence."""
    if isinstance(x, (str, bytes)) or not hasattr(x, "__iter__"):
        raise InputError(f"{what} must be a coordinate sequence, got {x!r}")
    out = tuple(map(parse_frac, x))
    if len(out) != P.pic.rank:
        raise InputError(f"{what} has wrong coordinate length")
    return out


def _primitive_int(vec) -> tuple[int, ...]:
    """Scale a rational vector to its primitive integer representative,
    preserving direction."""
    fr = [Fraction(x) for x in vec]
    if all(x == 0 for x in fr):
        raise InputError("zero vector has no primitive representative")
    mult = lcm(*(x.denominator for x in fr))
    return _primitive([int(x * mult) for x in fr])


def _primitive(vec) -> tuple[int, ...]:
    """A nonzero integer vector divided by the gcd of its entries."""
    g = gcd(*vec)
    if not g:
        raise InternalError(f"zero vector {tuple(vec)} has no primitive representative")
    return tuple(c // g for c in vec)


def _dot(a, x):
    return sum(map(mul, a, x))


def _pairing_row(P: PicardData, c) -> tuple[int, ...]:
    """G c scaled to a primitive integer row: for integral x, _dot(row, x)
    is (x, c) times a positive rational, so it has the same sign."""
    return _primitive_int(la.mat_vec(P.pic.gram, c))


def _toward(side, x) -> tuple:
    """x or -x, whichever pairs nonnegatively with c, for the row side = G c."""
    return tuple(-c for c in x) if _dot(side, x) < 0 else tuple(x)


def _type_lookup(types) -> dict[int, dict[int, WallType | dict[int, WallType]]]:
    """square -> div -> type, or -> orbit -> type where `orbit` is set."""
    out: dict[int, dict] = {}
    for t in types:
        by_div = out.setdefault(t.square, {})
        if t.orbit is None:
            by_div[t.div] = t
        else:
            by_div.setdefault(t.div, {})[t.orbit] = t
    return out


def _wall_type(P: PicardData, lookup, x, square) -> WallType | None:
    """The listed type of the integral class x of the given square: None
    unless x is primitive and (square, div x) is listed, and, for a type
    listed by orbit, the delta-coefficient c of E x is +-orbit mod div."""
    by_div = lookup.get(square)
    if by_div is None or gcd(*x) != 1:
        return None
    d = P.div_of(x)
    t = by_div.get(d)
    if isinstance(t, dict):
        c = _dot(P.embed.matrix[-1], x) % d
        return t.get(min(c, d - c))
    return t


def _majorant_gram(P: PicardData, a: tuple[Fraction, ...]):
    """Positive-definite Gram of q_a(x) = -x^2 + 2 (x,a)^2 / a^2."""
    g = P.pic.gram
    ga = la.mat_vec(g, a)
    asq = P.pic.norm(a)
    n = P.pic.rank
    return tuple(
        tuple(Fraction(-g[i][j]) + Fraction(2) * ga[i] * ga[j] / asq for j in range(n))
        for i in range(n)
    )


def _ball(gram, bound, budget: CellBudget):
    """One of each pair x, -x of the nonzero integer x with x^T gram x <=
    bound, the one whose last nonzero coordinate is positive, for the cells
    of the whole ball.  `gram` is definite by construction, so a failed
    definiteness check is a broken invariant of the search, not bad input:
    it surfaces as InternalError."""
    try:
        q = _fp_decompose(gram)
    except ValueError as exc:
        raise InternalError(f"search form: {exc}") from exc
    return _fp_points(q, Fraction(bound), budget)


def is_positive_class(P: PicardData, x) -> bool:
    """x^2 > 0 and x on the same side as the reference class."""
    if P.omega_ref is None:
        raise ConfigurationError("positivity test needs a reference class")
    xf = _fracs(P, x)
    return P.pic.norm(xf) > 0 and P.pic.inner(xf, P.omega_ref) > 0


# ----------------------------------------------------- segment wall crossing


def walls_between(P: PicardData, alpha, beta, types, max_cells=None) -> list[Wall]:
    """All wall divisors strictly separating alpha from beta.

    Both classes must be positive and in the same component.  Walls are
    oriented toward alpha ((D, alpha) > 0 > (D, beta)).

    Completeness: a separating D vanishes at some gamma0 on the segment,
    so with s = D^2 the majorant at gamma0 gives q_gamma0(D) = |s|, and
    Cauchy-Schwarz transports that to the left endpoint:
    q_a(D) <= |s| (1 + 2 U / a^2) with
    U = -(a-b)^2 + 2 max((a-b, a), (a-b, b))^2 / min_segment gamma(t)^2.
    The enumeration exhausts that cap (and checks it per hit).  The Gram
    of q_a is -G composed with the reflection in a, so |det q_a| = |det G|
    and the ball {q_a <= max|s| blowup}, blowup = 1 + 2 U / a^2, has volume
    a constant times blowup^(rho/2).  [a, b] is split at its midpoint m
    exactly when blowup(a, m)^(rho/2) + blowup(m, b)^(rho/2) <
    blowup(a, b)^(rho/2), compared in rationals after squaring: when the
    halves' balls hold less volume.  Candidates vanishing anywhere on a
    closed half are pooled, so a class vanishing at a shared midpoint is
    still caught; the final filter keeps exactly the strict separators of
    the original endpoints, whatever the splits.
    """
    a = _fracs(P, alpha)
    b = _fracs(P, beta)
    asq = P.pic.norm(a)
    bsq = P.pic.norm(b)
    ab = P.pic.inner(a, b)
    if asq <= 0 or bsq <= 0 or ab <= 0:
        raise InputError(
            "walls_between needs positive classes in the same component"
        )
    if a == b:
        return []
    types = list(types)
    if not types:
        return []
    lookup = _type_lookup(types)
    max_abs_square = max(abs(t.square) for t in types)
    budget = CellBudget(max_cells)
    ga, gb = _pairing_row(P, a), _pairing_row(P, b)
    pool: dict[tuple[int, ...], WallType] = {}
    _segment_candidates(P, a, b, _blowup(P, a, b), max_abs_square, lookup, budget, pool, 0)
    hits = [(_toward(ga, x), t) for x, t in pool.items() if _dot(ga, x) * _dot(gb, x) < 0]
    return [Wall(D=P.pic.vector(x), wall_type=t) for x, t in sorted(hits)]


_MAX_SPLIT_DEPTH = 40


def _blowup(P, a, b):
    """1 + 2 U / a^2: q_a(D) <= |D^2| blowup for D vanishing on [a, b]."""
    asq = P.pic.norm(a)
    diff = tuple(x - y for x, y in zip(a, b))
    # min of gamma(t)^2 = At^2 + Bt + C on [0, 1]
    A = P.pic.norm(diff)
    B = 2 * (P.pic.inner(a, b) - asq)
    m = min(asq, A + B + asq)
    if A > 0:
        tstar = Fraction(-B, 2 * A)
        if 0 < tstar < 1:
            m = min(m, asq - Fraction(B * B, 4 * A))
    if m <= 0:
        raise InternalError("segment leaves the positive cone")
    pmax = max(abs(P.pic.inner(diff, a)), abs(P.pic.inner(diff, b)))
    return 1 + 2 * (-A + 2 * pmax * pmax / m) / asq


def _split_pays(whole, left, right, rank):
    """left^(rank/2) + right^(rank/2) < whole^(rank/2), exactly, squared once."""
    d = whole**rank - left**rank - right**rank
    return d > 0 and 4 * (left * right) ** rank < d * d


def _segment_candidates(P, a, b, blowup, max_abs_square, lookup, budget, pool, depth):
    """Pool primitive typed classes vanishing on the closed segment [a, b],
    one of each pair x, -x, bisecting while the halves' majorant balls
    hold less volume."""
    budget.spend()
    if depth < _MAX_SPLIT_DEPTH:
        mid = tuple((x + y) / 2 for x, y in zip(a, b))
        left, right = _blowup(P, a, mid), _blowup(P, mid, b)
        if _split_pays(blowup, left, right, P.pic.rank):
            _segment_candidates(P, a, mid, left, max_abs_square, lookup, budget, pool, depth + 1)
            _segment_candidates(P, mid, b, right, max_abs_square, lookup, budget, pool, depth + 1)
            return
    gram = _majorant_gram(P, a)
    ga, gb = _pairing_row(P, a), _pairing_row(P, b)
    terms = P._square_terms
    for x in _ball(gram, max_abs_square * blowup, budget):
        if x in pool:
            continue
        # the integer square first: most points have no wall type's square
        s = 0
        for i, j, c in terms:
            s += c * x[i] * x[j]
        if s not in lookup or _dot(ga, x) * _dot(gb, x) > 0:
            continue
        t = _wall_type(P, lookup, x, s)
        if t is None:
            continue
        qa = la.vec_mat_vec(x, gram, x)
        if qa > abs(t.square) * blowup:
            raise InternalError("majorant bound violated")
        pool[x] = t


# ------------------------------------------------------- double description


def _dual_description(constraints, dim, budget: CellBudget):
    """Extreme rays and lineality of {x in Q^dim : a . x >= 0 for all a}.

    Incremental double description over primitive integer vectors (Fukuda
    & Prodon, *Double description method revisited*, 1996).  Each ray
    carries the bitmask of the constraints it lies on, and two rays are
    combined only when adjacent: their common mask has at least
    dim - lin - 2 bits and no third ray's mask contains it.  Rays and a
    lineality basis come back sorted, as primitive integer tuples.
    """
    lineality = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    rays: list[tuple[tuple[int, ...], int]] = []  # (ray, incidence mask)
    for k, a in enumerate(constraints):
        budget.spend()
        bit = 1 << k
        j = next((i for i, l in enumerate(lineality) if _dot(a, l)), None)
        if j is not None:
            l0 = lineality.pop(j)
            d0 = _dot(a, l0)
            if d0 < 0:
                l0, d0 = tuple(-x for x in l0), -d0

            def project(x):  # onto a-perp along l0, without division
                ax = _dot(a, x)
                return _primitive([d0 * xi - ax * yi for xi, yi in zip(x, l0)])

            lineality = [project(l) for l in lineality]
            rays = [(project(r), m | bit) for r, m in rays]
            rays.append((l0, bit - 1))
            continue
        vals = [_dot(a, r) for r, _ in rays]
        masks = [m for _, m in rays]
        plus = [(i, r, m, v) for i, ((r, m), v) in enumerate(zip(rays, vals)) if v > 0]
        minus = [(i, r, m, v) for i, ((r, m), v) in enumerate(zip(rays, vals)) if v < 0]
        need = dim - len(lineality) - 2
        children = []
        for ip, rp, mp, vp in plus:
            for im, rm, mm, vm in minus:
                budget.spend()
                common = mp & mm
                if common.bit_count() < need or any(
                    m & common == common for i, m in enumerate(masks) if i != ip and i != im
                ):
                    continue
                child = _primitive([vp * xm - vm * xp for xp, xm in zip(rp, rm)])
                if _dot(a, child):
                    raise InternalError("double description child ray off its constraint")
                children.append((child, common | bit))
        rays = [(r, m | bit if v == 0 else m) for (r, m), v in zip(rays, vals) if v >= 0]
        rays += children
    return sorted(r for r, _ in rays), sorted(lineality)


# --------------------------------------- sup of a quadratic over a cone > 0?

_MAX_STEPS = 200  # cap on the doubling walk and the certificate pull


def _sup_positive_witness(
    gram, rays, lineality, phi, normal, facets, toward, budget: CellBudget
):
    """A point x = num / den of the cone with x^T gram x > 0 and
    toward . x > 0, as the integer pair (num, den) with den > 0, or None.

    The cone is lineality + cone(rays) and lies in the hyperplane
    normal . x = 0; `facets` are the rows cutting out its facets there,
    every row vanishes on the lineality, and `toward` is positive on
    omega's component of the positive cone.  A lineality direction l is a
    witness when q(l) > 0 and starts a walk when null; when q(l) < 0 each
    ray and remaining direction x becomes q(l, x) l - q(l) x, -q(l) times
    its q-orthogonal part, which keeps the signs of q and `toward`, and
    `scale` keeps -q(l) so that a later direction is the same point.  The
    pointed rest is decided on the base polytope phi . x = 1.  In omega's
    component sqrt(q) is strictly concave (reverse Cauchy-Schwarz), so the
    maximiser there is unique: a ray, or the stationary point of q on the
    span of a face, cut out by A = (phi, normal, some facet rows) and
    solved at once from [[G, A^T], [A, 0]] (x, lam) = (0, (1, 0, ...)).
    q(num) / den^2 compares cross-multiplied.
    """

    def q(x, y=None):
        return la.vec_mat_vec(x, gram, x if y is None else y)

    def side(x):
        return _dot(toward, x)

    def neg(x):
        return tuple(-c for c in x)

    scale = 1
    while lineality:
        l, *lineality = lineality
        if side(l) < 0:
            l = neg(l)
        ql = q(l)
        if ql > 0:
            return l, scale
        if ql == 0:
            # l is null and points into omega's component, so every cone
            # point in that component pairs positively with l; walk such a
            # partner out along l until it is positive
            pool = [*rays, *lineality, *map(neg, lineality)]
            partner = next((y for y in pool if q(l, y) > 0), None)
            if partner is None:
                return None
            for k in range(_MAX_STEPS):
                x = tuple(a + (b << k) for a, b in zip(partner, l))
                if q(x) > 0:
                    return x, scale
            raise InternalError("unbounded direction failed to verify")
        # ql < 0: project l off every direction, times -ql
        rays, lineality = (
            [tuple(q(l, x) * b - ql * a for a, b in zip(x, l)) for x in xs]
            for xs in (rays, lineality)
        )
        scale *= -ql

    candidates = []
    for r in rays:
        pv = _dot(phi, r)
        if pv <= 0:
            raise InternalError("base functional not positive on ray")
        candidates.append((r, pv))
    n = len(gram)
    for size in range(n - 1):
        for subset in itertools.combinations(facets, size):
            budget.spend()
            rows = [phi, normal, *subset]
            border = [[*g, *col] for g, col in zip(gram, zip(*rows))]
            border += [[*row, *[0] * len(rows)] for row in rows]
            sol = la.solve_fraction_free(border, [0] * n + [1] + [0] * (size + 1))
            if sol is not None:
                candidates.append((sol[0][:n], sol[1]))
    best = None
    for num, den in candidates:
        if side(num) <= 0 or any(_dot(row, num) < 0 for row in facets):
            continue
        val = q(num)
        if best is None or val * best[2] ** 2 > best[0] * den * den:
            best = (val, num, den)
    if best is None or best[0] <= 0:
        return None
    return best[1], best[2]


# ------------------------------------------------------------ wall supports


def _check_on_wall(P: PicardData, omega, lookup, budget: CellBudget):
    """Raise OnWallError when omega is orthogonal to some wall-type class.

    Exact and independent of any height bound: omega-perp in pic is
    negative definite, so one enumeration up to the largest |square| finds
    every such class.  The enumeration runs in an LLL-reduced basis U, as
    the complement's basis is badly skewed for a large omega; the wall named
    is the first by |square|, then by coordinates w = U^T y in the latter.
    The walk keeps one of each pair y, -y, and w and -w share primitivity
    and type, so each pair enters as the smaller of w and -w.
    """
    comp = orthogonal_complement(P.pic, [omega])
    u, red = la.lll_reduce(tuple(tuple(-g for g in row) for row in comp.source.gram))
    ut = la.transpose(u)
    # type squares are negative: red(y) is |s|
    hits = sorted(
        (minus_s, min(w, tuple(-c for c in w)))
        for y in _ball(red, max(map(abs, lookup)), budget)
        if -(minus_s := la.vec_mat_vec(y, red, y)) in lookup
        for w in [la.mat_vec(ut, y)]
    )
    for minus_s, w in hits:
        cand = comp.apply(w)
        t = _wall_type(P, lookup, cand.coords, -minus_s)
        if t is None:
            continue
        raise OnWallError(
            f"reference class lies on the wall D={cand.coords} "
            f"of type (square {t.square}, div {t.div})",
            wall=Wall(D=cand, wall_type=t),
        )


def _last_coordinates(b, c, bound):
    """Integers t in [-bound, bound] with 2 b t + c = 0."""
    if b == 0:
        return range(-bound, bound + 1) if c == 0 else ()
    t, rem = divmod(-c, 2 * b)
    return (t,) if rem == 0 and -bound <= t <= bound else ()


def _box_candidates(P: PicardData, omega, lookup, bound, budget):
    """Type-matching primitive classes with coordinates in [-bound, bound],
    oriented toward omega, in box order, for the cells of the whole box.
    Assumes the on-wall check ran: a typed class orthogonal to omega is a
    broken invariant and raises InternalError.

    Box order is lexicographic and x -> -x reverses it, so the classes
    before 0 are one of each pair x, -x, each met before its negative; the
    two share square, primitivity and type and turn toward omega as one
    class, so the walk stops at 0.  A class is x = (outer, u, t), and
    x^2 = s reads a t^2 + 2 b t + q = s with a = G_tt, b = (G (outer, u, 0))_t
    and q = (outer, u, 0)^2: each head (outer, u) takes d0 = b^2 - a q once,
    and each square s its root t = (-b +- isqrt(d0 + a s)) / a, where exact.
    b and q step along u.
    """
    n = P.pic.rank
    g = P.pic.gram
    k = n - 2  # u's index
    a, guu, gtu = g[-1][-1], g[k][k], g[-1][k]
    side = la.mat_vec(g, omega)  # (x, omega) = side . x
    budget.spend((2 * bound + 1) ** n)
    # d = d0 + a s falls along the list, so the first d < 0 ends it
    squares = sorted(((s, a * s) for s in lookup), key=lambda p: p[1], reverse=True)
    zero = (0,) * k
    out = {}
    for outer in itertools.product(range(-bound, bound + 1), repeat=k):
        if outer > zero:
            break
        go = [_dot(row, outer) for row in g]  # G (outer, 0, 0)
        # at u = -bound: gu = (G head)_u, b = (G head)_t, q = head^2
        gu, b = go[k] - guu * bound, go[-1] - gtu * bound
        q = _dot(outer, go) - 2 * bound * go[k] + guu * bound * bound
        for u in range(-bound, 1 if outer == zero else bound + 1):
            top = bound if u or outer != zero else -1  # head 0: t < 0 only
            roots = {}
            if a:
                d0 = b * b - a * q
                for s, as_ in squares:
                    d = d0 + as_
                    if d < 0:
                        break
                    r = isqrt(d)
                    if r * r != d:
                        continue
                    for num in (-b - r, -b + r):
                        t, rem = divmod(num, a)
                        if not rem and -bound <= t <= top:
                            roots[t] = s
            else:
                for s, _ in squares:
                    for t in _last_coordinates(b, q - s, bound):
                        if t <= top:
                            roots[t] = s
            for t in sorted(roots):
                x = (*outer, u, t)
                wt = _wall_type(P, lookup, x, roots[t])
                if wt is None:
                    continue
                if _dot(side, x) == 0:
                    raise InternalError(f"box class {x} of a listed type is orthogonal to omega")
                out[_toward(side, x)] = wt
            q += 2 * gu + guu
            gu += guu
            b += gtu
    return out


def _split_isotropic(P: PicardData, side):
    """Primitive isotropic classes (u+, u-) of a rank-2 Picard form that
    splits over Q, both oriented toward omega; None if its discriminant
    b^2 - ac, positive in signature (1, 1), is not a square."""
    (a, b), (_, c) = P.pic.gram
    disc = b * b - a * c
    r = isqrt(disc)
    if r * r != disc:
        return None
    if a == 0:
        dirs = [(1, 0), _primitive((-c, 2 * b))]
    else:
        dirs = [_primitive((-b + r, a)), _primitive((-b - r, a))]
    if any(_dot(side, u) == 0 for u in dirs):
        raise InternalError("isotropic class orthogonal to omega")
    up, um = (_toward(side, u) for u in dirs)
    e = P.pic.inner(up, um)
    if e <= 0:
        raise InternalError("isotropic pairing must be positive")
    return up, um, e


def _split_candidates(P: PicardData, side, lookup, split):
    """Complete wall-class enumeration for split rank-2 forms.

    Writing x via its pairings p = (x, u+), q = (x, u-) gives
    x = (q u+ + p u-) / e and x^2 = 2 p q / e, so classes of square s
    correspond to divisor pairs of s e / 2: a finite, height-free list.
    Every listed square s is even, so s e / 2 is an integer.
    """
    up, um, e = split
    out = {}
    for s in lookup:
        m = -s * e // 2  # s < 0, so p q = -m < 0
        for r in range(1, isqrt(m) + 1):
            if m % r:
                continue
            for d in {r, m // r}:
                for p, q in ((d, -(m // d)), (-d, m // d)):
                    coords = [q * a + p * b for a, b in zip(up, um)]
                    if any(c % e for c in coords):
                        continue
                    x = tuple(c // e for c in coords)
                    t = _wall_type(P, lookup, x, s)
                    if t is not None:
                        out[_toward(side, x)] = t
    return out


def _support_rank2(P, omega, lookup, bound, budget):
    """Rank-2 candidates oriented toward omega, and whether they hold every
    wall of omega's chamber."""
    side = la.mat_vec(P.pic.gram, omega)
    split = _split_isotropic(P, side)
    if split is not None:
        return _split_candidates(P, side, lookup, split), True
    cands = _box_candidates(P, omega, lookup, bound, budget)
    if not cands:
        return cands, False
    # bracket each side of omega by r(D) = q_omega(D) / |D^2|, then close the
    # search exactly: any wall angularly closer than the bracket has
    # q_omega(D) <= cap.
    gram = _majorant_gram(P, omega)
    brackets = {True: [], False: []}
    for x in cands:
        brackets[x[0] * omega[1] - x[1] * omega[0] > 0].append(
            la.vec_mat_vec(x, gram, x) / -P.pic.norm(x)
        )
    cap = max(map(abs, lookup)) * max(min(r) for r in brackets.values() if r)
    for x in _ball(gram, cap, budget):
        t = _wall_type(P, lookup, x, P.pic.norm(x))
        if t is not None:
            cands.setdefault(_toward(side, x), t)
    return cands, all(brackets.values())


def _facets(inc):
    """Keys of `inc` whose mask no other mask strictly contains: the rows
    carrying facets.  `inc` maps each row of a full-dimensional cone
    {x : row . x >= 0} to the bitmask of the rays it vanishes on, its face;
    each facet is some row's face, and a smaller face lies strictly inside
    a facet."""
    masks = set(inc.values())
    top = {m for m in masks if not any(o != m and o & m == m for o in masks)}
    return [y for y in inc if inc[y] in top]


def _adjacent(inc, facets, x, y):
    """Facets x and y meet in a ridge: no third facet contains their common
    face.  A ridge lies in exactly two facets, a smaller face in three or
    more (Fukuda & Prodon 1996)."""
    common = inc[x] & inc[y]
    return not any(inc[z] & common == common for z in facets if z != x and z != y)


def _facet_walls(P, omega, cands, budget):
    """The candidates that carry a facet of omega's chamber, with
    certificates; the step every rank >= 2 shares.

    `cands` maps typed primitive classes, oriented toward omega, to their
    types: the rank-2 or the box candidates.  They cut out the cone
    K = {x : (y, x) >= 0 for all y}; the on-wall check puts omega in its
    interior.
    Lemma: a certificate c of a candidate x has (x, c) = 0 and (y, c) > 0 for
    every other candidate y, so c is a relative interior point of K cap
    x-perp, which is then a facet of K.  One double description of K thus
    discards every candidate that does not cut a facet.  A facet F = K cap
    x-perp is decided in pic coordinates: x is a wall when F meets omega's
    component of the positive cone, and the certificate comes from the
    maximiser of x'^2 over F's base polytope there.  F is K's lineality plus
    the rays of K on x-perp, and its faces are cut out by the facets of K
    adjacent to x (sharing a ridge of K with it).  In rank 2 the fast path's
    projection of omega onto x-perp is x-perp's ray toward omega, and a facet
    it fails to certify lies in the other component, so has no witness.
    """
    gram = P.pic.gram
    order = sorted(cands)
    gy = {y: la.mat_vec(gram, y) for y in order}
    rays, lin = _dual_description([gy[y] for y in order], P.pic.rank, budget)
    inc = {y: sum(1 << i for i, r in enumerate(rays) if _dot(gy[y], r) == 0) for y in order}
    facets = _facets(inc)
    toward = la.mat_vec(gram, omega)
    walls = []
    for x in facets:
        t = cands[x]
        others = [y for y in cands if y != x]
        # fast path: the orthogonal projection of omega often certifies;
        # x^2 < 0, so this is -x^2 times omega - (omega, x) / x^2 x
        ox, xsq = _dot(gy[x], omega), _dot(gy[x], x)
        proj = _primitive([ox * c - xsq * w for w, c in zip(omega, x)])
        if all(_dot(gy[y], proj) > 0 for y in others):
            walls.append(Wall(D=P.pic.vector(x), wall_type=t, certificate=proj))
            continue
        # exact facet decision on F = K cap x-perp
        face = [r for i, r in enumerate(rays) if inc[x] >> i & 1]
        ridges = [gy[y] for y in facets if y != x and _adjacent(inc, facets, x, y)]
        phi = tuple(map(sum, zip(*(gy[y] for y in others))))
        witness = _sup_positive_witness(gram, face, lin, phi, gy[x], ridges, toward, budget)
        if witness is None:
            continue
        # pull toward the interior point, num / den + interior / 2^k (times
        # 2^k den), to make certificates strict, staying in omega's component
        num, den = witness
        interior = tuple(map(sum, zip(*face)))
        for k in range(_MAX_STEPS):
            xw = tuple((w << k) + den * i for w, i in zip(num, interior))
            if la.vec_mat_vec(xw, gram, xw) > 0 and _dot(toward, xw) > 0:
                break
        else:
            raise InternalError("no strict certificate near the facet witness")
        cert = _primitive(xw)
        if not all(_dot(gy[y], cert) > 0 for y in others):
            raise InternalError(f"certificate {cert} misses a candidate wall")
        walls.append(Wall(D=P.pic.vector(x), wall_type=t, certificate=cert))
    return walls


def supporting_walls_report(
    P: PicardData, omega, types, search_bound: int = DEFAULT_SEARCH_BOUND, max_cells=None
) -> SupportResult:
    """Walls whose hyperplanes carry facets of the chamber of omega.

    Candidates differ by rank: rank 2 takes its split divisor pairs, or
    the box [-search_bound, search_bound]^2 closed off by a q_omega ball;
    rank >= 3 takes the typed classes of the box
    [-search_bound, search_bound]^rank.  One facet step, shared by all
    ranks, keeps the facets of the cone the candidates cut out that meet
    omega's component of the positive cone, and every reported wall comes
    with an exact certificate class.  `exact` is True when the wall list
    is provably complete (always in rank 1; in rank 2 when the form splits
    or both sides of omega were bracketed and closed off).  A rank >= 3
    list can include classes that are not walls of omega's true chamber.
    Raises OnWallError when omega lies on a wall of a listed type; that
    check, like every phase, spends cells of the one `max_cells` budget.
    """
    om = _primitive_int(_fracs(P, omega))
    if P.pic.norm(om) <= 0:
        raise InputError("reference class must have positive square")
    types = list(types)
    lookup = _type_lookup(types)
    if isinstance(search_bound, bool) or not isinstance(search_bound, int) or search_bound < 1:
        raise InputError(f"search bound must be a positive integer, got {search_bound!r}")
    budget = CellBudget(max_cells)
    if not types or P.pic.rank == 1:
        return SupportResult(walls=(), exact=True, search_bound=search_bound)
    _check_on_wall(P, om, lookup, budget)
    if P.pic.rank == 2:
        cands, exact = _support_rank2(P, om, lookup, search_bound, budget)
    else:
        cands, exact = _box_candidates(P, om, lookup, search_bound, budget), False
    walls = _facet_walls(P, om, cands, budget)
    for w in walls:
        c = w.certificate
        gc = () if c is None else la.mat_vec(P.pic.gram, c)
        if not (
            gc
            and _dot(gc, c) > 0
            and _dot(gc, w.D.coords) == 0
            and _dot(gc, om) > 0
            and all(_dot(gc, v.D.coords) > 0 for v in walls if v is not w)
        ):
            raise InternalError(f"certificate {c} does not certify the wall D={w.D.coords}")
    return SupportResult(walls=tuple(walls), exact=exact, search_bound=search_bound)


def extremal_rays(report: SupportResult) -> list[ExtremalRay]:
    """Dual rays D / div(D) of a report's supporting walls.

    Each ray is read off its wall's type: the report matched `div` to the
    ambient divisibility of D, so no lattice work is repeated here.
    """
    return [
        ExtremalRay(
            coords=tuple(Fraction(c, w.wall_type.div) for c in w.D.coords),
            square=w.wall_type.ray_square,
            wall=w,
        )
        for w in report.walls
    ]


def in_dual_cone(P: PicardData, walls, x) -> bool:
    """Strict chamber-side test: (D, x) > 0 for every report `Wall` in the
    set and (x, omega) >= 0 for P's reference class omega.

    Walls are taken with the orientation they carry (reports orient them
    toward the reference class), so a True answer places x strictly
    inside the open cone they cut out, on the reference side.  Classes on
    a wall (zero pairing) fail, by design.
    """
    if P.omega_ref is None:
        raise ConfigurationError("dual-cone test needs a reference class")
    xf = _fracs(P, x)
    if P.pic.inner(xf, P.omega_ref) < 0:
        return False
    return all(P.pic.inner(w.D.coords, xf) > 0 for w in walls)
