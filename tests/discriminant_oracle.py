"""The general discriminant-group engine that wallkit used to ship, kept as
a test oracle.

`DiscriminantGroup`, `discriminant_group`, `disc_class` and
`eichler_invariants` are the former `wallkit.lattice` / `wallkit.walls`
code verbatim: A_L from the Smith form of any nondegenerate even Gram
matrix.  `same_orbit` is the former one without its guard on
`IntegerLattice.blocks`, a field that no longer exists.  Tests compare
`wallkit.eichler_invariants`, which reads the class of v/div off v's
delta-coefficient in L_n, against these.
"""

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import wallkit._linalg as la
from wallkit import InputError, IntegerLattice, OrbitInvariants, divisibility
from wallkit.lattice import _coords_in, _exact_quotient


@dataclass(frozen=True)
class DiscriminantGroup:
    """The finite quadratic form (A_L = L^dual / L, q, b).

    `invariant_factors` lists the nontrivial cyclic orders d_1 | d_2 | ...;
    `generators` are rational coordinate vectors (in the lattice basis) of
    the corresponding dual classes.  Elements are exponent tuples over the
    generators.  q takes values in Q/2Z normalized to [0, 2); b in Q/Z
    normalized to [0, 1).
    """

    lattice: IntegerLattice
    invariant_factors: tuple[int, ...]
    generators: tuple[tuple[Fraction, ...], ...]
    _qinv: tuple[tuple[int, ...], ...] = field(repr=False)
    _diag: tuple[int, ...] = field(repr=False)

    def q(self, exponents: Sequence[int]) -> Fraction:
        if len(exponents) != len(self.invariant_factors):
            raise InputError("exponent tuple has wrong length")
        x = la.mat_vec(la.transpose(self.generators), exponents)
        return Fraction(la.vec_mat_vec(x, self.lattice.gram, x)) % 2

    def class_of(self, v: Sequence[int], m: int) -> tuple[int, ...]:
        """Exponent tuple of [v/m] in A_L; InputError if v/m is not dual."""
        coords = _coords_in(self.lattice, v)
        if m <= 0:
            raise InputError("denominator must be positive")
        u = la.mat_vec(self._qinv, coords)
        full = self._diag
        exps = []
        for ui, di in zip(u, full):
            num = di * ui
            if num % m:
                raise InputError(f"{coords} / {m} does not lie in the dual lattice")
            exps.append((num // m) % di if di > 1 else 0)
        return tuple(
            e for e, d in zip(exps, full) if d > 1
        )


@functools.lru_cache(maxsize=None)
def discriminant_group(lattice: IntegerLattice) -> DiscriminantGroup:
    p, d, q = la.smith_normal_form(lattice.gram)
    n = lattice.rank
    diag = tuple(d[i][i] for i in range(n))
    if 0 in diag:
        raise InputError("discriminant group of a degenerate lattice")
    factors = []
    gens = []
    cols = la.transpose(q)
    for i in range(n):
        if diag[i] > 1:
            factors.append(diag[i])
            gens.append(tuple(Fraction(x, diag[i]) for x in cols[i]))
    # G is invertible and P G = D Q^-1: row i of Q^-1 is row i of P G over d_i
    pg = la.mat_mul(p, lattice.gram)
    qinv = tuple(_exact_quotient(pg[i], diag[i]) for i in range(n))
    return DiscriminantGroup(
        lattice=lattice,
        invariant_factors=tuple(factors),
        generators=tuple(gens),
        _qinv=qinv,
        _diag=diag,
    )


def disc_class(lattice: IntegerLattice, v: Sequence[int], m: int) -> tuple[int, ...]:
    """Class of v/m in the discriminant group, as an exponent tuple."""
    return discriminant_group(lattice).class_of(v, m)


def eichler_invariants(lattice: IntegerLattice, v) -> OrbitInvariants:
    v = lattice.vector(v)
    if not v.is_primitive():
        raise InputError("orbit invariants take primitive classes")
    d = divisibility(lattice, v.coords)
    return OrbitInvariants(
        square=v.norm(), div=d, disc=disc_class(lattice, v.coords, d)
    )


def same_orbit(lattice: IntegerLattice, v, w) -> bool:
    """Orbit equality test via the invariant triple.

    Valid when the lattice splits off two orthogonal hyperbolic planes.
    """
    return eichler_invariants(lattice, v) == eichler_invariants(lattice, w)
