"""Even integer lattices: Gram data, divisibility, embeddings, saturation.

A lattice here is a free Z-module of finite rank with an even symmetric
integer Gram matrix, always handled in a fixed basis.  Vectors are
coordinate tuples in that basis.  All arithmetic is exact (int/Fraction).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from . import _linalg as la
from .errors import InputError, InternalError

__all__ = [
    "IntegerLattice",
    "LatticeVector",
    "Embedding",
    "direct_sum",
    "standard_lattice",
    "divisibility",
    "orthogonal_complement",
    "signature",
]

@dataclass(frozen=True)
class IntegerLattice:
    """An even lattice given by its Gram matrix in a fixed basis.

    Equality and hashing read only the Gram matrix, not `label`.
    """

    gram: tuple[tuple[int, ...], ...]
    label: str | None = field(default=None, compare=False)

    def __post_init__(self):
        g = tuple(map(_int_coords, self.gram))
        object.__setattr__(self, "gram", g)
        n = len(g)
        if any(len(row) != n for row in g):
            raise InputError("Gram matrix must be square")
        for i in range(n):
            if g[i][i] % 2:
                raise InputError(
                    f"lattice is not even: diagonal entry {g[i][i]} at index {i}"
                )
            for j in range(i):
                if g[i][j] != g[j][i]:
                    raise InputError("Gram matrix must be symmetric")

    @property
    def rank(self) -> int:
        return len(self.gram)

    def inner(self, x: Sequence, y: Sequence):
        if len(x) != self.rank or len(y) != self.rank:
            raise InputError("vector length does not match lattice rank")
        return la.vec_mat_vec(x, self.gram, y)

    def norm(self, x: Sequence):
        return self.inner(x, x)

    def vector(self, coords: "LatticeVector | Sequence[int]") -> "LatticeVector":
        return LatticeVector(self, _coords_in(self, coords))

    def basis_vector(self, i: int) -> "LatticeVector":
        return self.vector(tuple(int(j == i) for j in range(self.rank)))

    def __repr__(self):  # keep pytest output readable for rank-23 lattices
        name = self.label or "lattice"
        return f"IntegerLattice({name}, rank={self.rank})"


@dataclass(frozen=True, slots=True)
class LatticeVector:
    lattice: IntegerLattice
    coords: tuple[int, ...]

    def __post_init__(self):
        c = _int_coords(self.coords)
        if len(c) != self.lattice.rank:
            raise InputError("coordinate length does not match lattice rank")
        object.__setattr__(self, "coords", c)

    def norm(self) -> int:
        return self.lattice.norm(self.coords)

    def inner(self, other: "LatticeVector | Sequence") -> int:
        coords = other.coords if isinstance(other, LatticeVector) else other
        return self.lattice.inner(self.coords, coords)

    def is_primitive(self) -> bool:
        return gcd(*self.coords) == 1

    def div(self) -> int:
        return divisibility(self.lattice, self.coords)


def parse_frac(value) -> Fraction:
    """An exact rational from an int, a Fraction or a "p/q" string.

    Anything else raises InputError: a bool is not a number here, and a
    float is rejected rather than read as its binary value.
    """
    if isinstance(value, bool):
        raise InputError(f"not a rational: {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not a rational: {value!r}") from exc
    raise InputError(f"not a rational: {value!r}")


def _int_coords(v) -> tuple[int, ...]:
    """v as a tuple of ints; InputError unless each coordinate is an int or
    an integral Fraction.  As in `parse_frac`, a bool is not a number here
    and a float is rejected, even an integral one."""
    v = tuple(v)
    if all(type(c) is int for c in v):
        return v
    out = []
    for c in v:
        if isinstance(c, Fraction) and c.denominator == 1:
            out.append(c.numerator)
        elif isinstance(c, int) and not isinstance(c, bool):
            out.append(int(c))
        else:
            raise InputError(f"coordinates must be integers, got {v}")
    return tuple(out)


def _trusted_vectors(
    lattice: IntegerLattice, coords: Iterable[tuple[int, ...]]
) -> list[LatticeVector]:
    """LatticeVectors of int tuples known to have the lattice's rank.

    Skips `__post_init__`'s conversion and checks: the caller vouches for
    the tuples (`short_vectors` passes the walk's own).
    """
    new = object.__new__
    set_lattice, set_coords = LatticeVector.lattice.__set__, LatticeVector.coords.__set__
    out = []
    for c in coords:
        v = new(LatticeVector)
        set_lattice(v, lattice)
        set_coords(v, c)
        out.append(v)
    return out


def _coords_in(lattice: IntegerLattice, v) -> tuple[int, ...]:
    """Integer coordinates of v, checked to belong to `lattice`."""
    if isinstance(v, LatticeVector):
        if v.lattice != lattice:
            raise InputError("vector belongs to a different lattice")
        return v.coords
    coords = _int_coords(v)
    if len(coords) != lattice.rank:
        raise InputError("vector length does not match lattice rank")
    return coords


@dataclass(frozen=True)
class Embedding:
    """An isometric embedding source -> target.

    `matrix` has shape (target.rank, source.rank); column j holds the
    target coordinates of the image of the j-th source basis vector.
    Compatibility matrix^T * G_target * matrix == G_source is enforced at
    construction, so an Embedding object is always a genuine isometry.
    """

    source: IntegerLattice
    target: IntegerLattice
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        m = tuple(map(_int_coords, self.matrix))
        object.__setattr__(self, "matrix", m)
        if len(m) != self.target.rank or any(
            len(row) != self.source.rank for row in m
        ):
            raise InputError("embedding matrix has wrong shape")
        induced = la.mat_mul(la.mat_mul(la.transpose(m), self.target.gram), m)
        if induced != self.source.gram:
            raise InputError("embedding does not respect the Gram matrices")

    def apply(self, v: "LatticeVector | Sequence[int]") -> LatticeVector:
        coords = _coords_in(self.source, v)
        return LatticeVector(self.target, la.mat_vec(self.matrix, coords))

    def is_primitive(self) -> bool:
        """True when the image is a saturated (primitive) sublattice."""
        _, d, _ = la.smith_normal_form(self.matrix)
        return all(d[i][i] == 1 for i in range(min(self.target.rank, self.source.rank)))


def signature(lattice: IntegerLattice) -> tuple[int, int]:
    """Inertia (n_+, n_-); InputError on a degenerate lattice."""
    try:
        return la.signature_of(lattice.gram)
    except ValueError as exc:
        raise InputError(f"signature of a degenerate lattice: {exc}") from exc


def direct_sum(parts: Iterable[IntegerLattice], label: str | None = None) -> IntegerLattice:
    parts = list(parts)
    total = sum(p.rank for p in parts)
    rows = []
    offset = 0
    for p in parts:
        for row in p.gram:
            rows.append((0,) * offset + tuple(row) + (0,) * (total - offset - p.rank))
        offset += p.rank
    if label is None:
        label = " + ".join(p.label or "?" for p in parts)
    return IntegerLattice(tuple(rows), label=label)


_U_GRAM = ((0, 1), (1, 0))

# Negated E8 Cartan matrix; node numbering has the branch node fourth in
# the chain and node 2 hanging off it.
_E8_MINUS_GRAM = (
    (-2, 0, 1, 0, 0, 0, 0, 0),
    (0, -2, 0, 1, 0, 0, 0, 0),
    (1, 0, -2, 1, 0, 0, 0, 0),
    (0, 1, 1, -2, 1, 0, 0, 0),
    (0, 0, 0, 1, -2, 1, 0, 0),
    (0, 0, 0, 0, 1, -2, 1, 0),
    (0, 0, 0, 0, 0, 1, -2, 1),
    (0, 0, 0, 0, 0, 0, 1, -2),
)


def standard_lattice(name: str, param: int | None = None) -> IntegerLattice:
    """Named building blocks: "U", "E8(-1)", "rank1" (with even param k),
    "Ln" (with param n >= 2), "mukai".
    """
    if name == "U":
        return IntegerLattice(_U_GRAM, label="U")
    if name == "E8(-1)":
        return IntegerLattice(_E8_MINUS_GRAM, label="E8(-1)")
    if name == "rank1":
        if param is None:
            raise InputError("rank1 lattice needs its square as param")
        if param % 2:
            raise InputError(f"rank1 lattice <{param}> is not even")
        return IntegerLattice(((param,),), label=f"<{param}>")
    if name == "Ln":
        if param is None or param < 2:
            raise InputError("Ln needs param n >= 2")
        u = standard_lattice("U")
        e8 = standard_lattice("E8(-1)")
        tail = standard_lattice("rank1", -(2 * param - 2))
        return direct_sum([u, u, u, e8, e8, tail], label=f"L{param}")
    if name == "mukai":
        u = standard_lattice("U")
        e8 = standard_lattice("E8(-1)")
        # the distinguished hyperbolic plane sits in the last two coordinates
        return direct_sum([u, u, u, e8, e8, u], label="Mukai")
    raise InputError(f"unknown standard lattice {name!r}")


def divisibility(lattice: IntegerLattice, v: Sequence[int]) -> int:
    """div(v) = positive generator of the pairing ideal (v, L)."""
    coords = _coords_in(lattice, v)
    pairings = la.mat_vec(lattice.gram, coords)
    d = gcd(*pairings) if any(pairings) else 0
    if d == 0:
        raise InputError("divisibility undefined: vector pairs trivially with lattice")
    return d


def _exact_quotient(v: Sequence[int], d: int) -> tuple[int, ...]:
    """v / d, where a Smith identity says that d divides every entry."""
    out = []
    for x in v:
        q, r = divmod(x, d)
        if r:
            raise InternalError(f"Smith identity broken: {d} does not divide {tuple(v)}")
        out.append(q)
    return tuple(out)


def orthogonal_complement(
    lattice: IntegerLattice, vectors: Sequence[Sequence[int]]
) -> Embedding:
    """Embedding of {x in L : (x, v_i) = 0 for all i}, saturated by construction."""
    rows = tuple(la.mat_vec(lattice.gram, _coords_in(lattice, v)) for v in vectors)
    basis = la.kernel_basis(rows)
    matrix = la.transpose(basis) if basis else tuple(() for _ in range(lattice.rank))
    induced = la.mat_mul(la.mat_mul(basis, lattice.gram), matrix)
    sub = IntegerLattice(induced, label=f"({lattice.label or 'L'})-perp")
    return Embedding(source=sub, target=lattice, matrix=matrix)


def _saturate(lattice: IntegerLattice, matrix) -> tuple[Embedding, la.IntMatrix]:
    """Saturation of the column span of `matrix`, and the columns in its
    basis: (emb, coords) with `matrix` = emb.matrix * coords.

    A primitive `matrix` is its own basis and coords is the identity.
    Otherwise P M Q = D gives M = P^-1 D Q^-1: the basis is the leading
    rk columns of P^-1 (column i of M Q over d_i), and coords is the
    leading rk rows of P M = D Q^-1.
    """
    ncols = len(matrix[0]) if matrix else 0
    p, d, q = la.smith_normal_form(matrix)
    rk = sum(1 for i in range(min(lattice.rank, ncols)) if d[i][i] != 0)
    if rk == ncols and all(d[i][i] == 1 for i in range(rk)):
        basis, label = la.transpose(matrix), None
        coords = tuple(tuple(int(i == j) for j in range(ncols)) for i in range(ncols))
    else:
        mq = la.transpose(la.mat_mul(matrix, q))
        basis, label = tuple(_exact_quotient(mq[i], d[i][i]) for i in range(rk)), "saturation"
        coords = la.mat_mul(p[:rk], matrix)
    matrix_sat = la.transpose(basis) if basis else tuple(() for _ in range(lattice.rank))
    induced = la.mat_mul(la.mat_mul(basis, lattice.gram), matrix_sat)
    return Embedding(IntegerLattice(induced, label=label), lattice, matrix_sat), coords
