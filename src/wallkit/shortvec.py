"""Exact short-vector enumeration in definite quadratic forms.

Fincke-Pohst in integers.  A Fraction-valued Cholesky-style decomposition
checks definiteness; its rows are then brought to one common denominator,
so the walk adds, multiplies and compares integers only.  There is one
walk, `_fp_points`: a lazy generator loop over explicit per-level state,
not a chain of nested generators, that yields one of each pair x, -x (and
charges the cells of a walk over both signs).  `short_vectors` has it
solve the last coordinate of each point of the shell exactly instead of
scanning its bracket, and returns the walk's own tuples with their
negatives, wrapped without re-checking.  Every bound is tested in exact
arithmetic, so the enumeration is provably complete (no floating-point
fudge factors).  All routines honor a cell budget so oversized requests
fail fast instead of hanging.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from operator import neg
from typing import Iterator, Sequence

from .errors import EnumerationBudgetExceeded, InputError
from .lattice import IntegerLattice, LatticeVector, _trusted_vectors

__all__ = [
    "short_vectors",
    "CellBudget",
    "DEFAULT_MAX_CELLS",
]

DEFAULT_MAX_CELLS = 10**8


def configured_max_cells() -> int:
    env = os.environ.get("WALLKIT_MAX_CELLS")
    if not env:
        return DEFAULT_MAX_CELLS
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap <= 0:
        raise InputError(f"WALLKIT_MAX_CELLS must be a positive integer, got {env!r}")
    return cap


class CellBudget:
    """Counts enumeration cells and trips when the cap is exceeded."""

    def __init__(self, max_cells: int | None = None):
        if max_cells is not None and (
            isinstance(max_cells, bool) or not isinstance(max_cells, int) or max_cells <= 0
        ):
            raise InputError(f"max_cells must be a positive integer, got {max_cells!r}")
        self.max_cells = configured_max_cells() if max_cells is None else max_cells
        self.used = 0

    def spend(self, amount: int = 1):
        self.used += amount
        if self.used > self.max_cells:
            raise EnumerationBudgetExceeded(
                f"enumeration exceeded the cell cap ({self.max_cells}); "
                "raise WALLKIT_MAX_CELLS or shrink the request"
            )


def _fp_decompose(gram: Sequence[Sequence]) -> list[list[Fraction]]:
    """Decompose a positive-definite symmetric matrix for Fincke-Pohst.

    Returns q with Q(x) = sum_i q[i][i] * (x_i + sum_{j>i} q[i][j] x_j)^2.
    Raises ValueError when the form is not positive definite.
    """
    n = len(gram)
    q = [[Fraction(x) for x in row] for row in gram]
    for i in range(n):
        if q[i][i] <= 0:
            raise ValueError("form is not positive definite")
        for j in range(i + 1, n):
            q[j][i] = q[i][j]
            q[i][j] = q[i][j] / q[i][i]
        for k in range(i + 1, n):
            for l in range(k, n):
                q[k][l] = q[k][l] - q[k][i] * q[i][l]
    return q


def _fp_points(
    q: list[list[Fraction]],
    bound: Fraction,
    budget: CellBudget,
    exact: bool = False,
) -> Iterator[tuple[int, ...]]:
    """Yield one of each pair x, -x of the nonzero integer x with
    Q(x) <= bound, the one whose last nonzero coordinate is positive.

    `q` is the `_fp_decompose` of Q and bound >= 0.  The walk runs on
    integers.  Let e_i be the denominator of row i of q and M the least
    common denominator of the bound and of every q_ii / e_i^2.  Level i has
    weight w_i = M q_ii / e_i^2, centre numerator C = sum_j e_i q_ij x_j
    and remainder R = M (bound - the upper levels' terms); x_i = k costs
    w_i (e_i k + C)^2.  A level tries exactly the k with cost <= R, in
    ascending order.  On entry it charges the budget one cell per k of the
    classical bracket [floor(-c) - m, ceil(-c) + m] around the centre
    -c = -C / e_i, with m = isqrt(floor(R / (M q_ii))), which contains them.
    The levels run in one loop over explicit per-level state (remainder,
    centre, last k, spine flag), depth first from level n - 1 down, so the
    generator stays lazy without a frame per level.

    On the spine, where every coordinate above the level is 0, the centre
    is 0 and the bracket symmetric, so the level tries k >= 0 only (k >= 1
    at level 0, as k = 0 there is the zero vector).  A level entered off
    the spine is charged twice, for itself and for its mirror under
    x -> -x, whose bracket has the same size.  The cells charged are thus
    those of a walk over both signs, and the points come in its order.

    `exact` yields only the points with Q(x) == bound, and level 0 is
    solved, not scanned: w_0 t^2 = R needs R / w_0 to be a square s^2, and
    t = +-s (t = s only on the spine) gives x_0 = (t - C) / e_0 when e_0
    divides t - C.  The cells charged are unchanged.
    """
    n = len(q)
    e = [math.lcm(*(q[i][j].denominator for j in range(i + 1, n))) for i in range(n)]
    M = math.lcm(bound.denominator, *((q[i][i] / (e[i] * e[i])).denominator for i in range(n)))
    w = [int(M * q[i][i] / (e[i] * e[i])) for i in range(n)]
    # the nonzero (j, e_i q_ij) of row i, and w_i e_i^2 = M q_ii
    terms = [[(j, int(e[i] * q[i][j])) for j in range(i + 1, n) if q[i][j]] for i in range(n)]
    box = [w[i] * e[i] * e[i] for i in range(n)]
    spend, isqrt = budget.spend, math.isqrt
    x = [0] * n
    rems, cens, tops, spines = [0] * n, [0] * n, [0] * n, [False] * n
    i, rem, spine = n - 1, int(M * bound), True
    while True:
        ei, wi = e[i], w[i]
        c = 0
        if not spine:
            for j, aij in terms[i]:
                c += aij * x[j]
        cells = 2 * isqrt(rem // box[i]) + 1 + (c % ei != 0)
        spend(cells if spine else 2 * cells)
        s = isqrt(rem // wi)
        if i:
            lo = 0 if spine else -((s + c) // ei)
            hi = (s - c) // ei
            if lo <= hi:
                rems[i], cens[i], tops[i], spines[i] = rem, c, hi, spine
                x[i] = lo
                t = ei * lo + c
                rem -= wi * t * t
                spine = spine and not lo
                i -= 1
                continue
        elif exact:
            if wi * s * s == rem:
                # the roots t of w_0 t^2 = R, ascending in k
                for t in (s,) if spine else (-s, s) if s else (0,):
                    k, r = divmod(t - c, ei)
                    if not r and (k or not spine):
                        x[0] = k
                        yield tuple(x)
                x[0] = 0
        else:
            for k in range(1 if spine else -((s + c) // ei), (s - c) // ei + 1):
                x[0] = k
                yield tuple(x)
            x[0] = 0
        # back up to the lowest level that has a k left to try
        i += 1
        while i < n:
            k = x[i] + 1
            if k <= tops[i]:
                x[i] = k
                t = e[i] * k + cens[i]
                rem = rems[i] - w[i] * t * t
                spine = spines[i] and not k
                i -= 1
                break
            x[i] = 0
            i += 1
        else:
            return


def _definite_decompose(lattice: IntegerLattice) -> tuple[int, list[list[Fraction]]]:
    """(+1, q) for positive definite, (-1, q of -gram) for negative
    definite, InputError else."""
    try:
        return 1, _fp_decompose(lattice.gram)
    except ValueError:
        pass
    try:
        return -1, _fp_decompose(tuple(tuple(-x for x in row) for row in lattice.gram))
    except ValueError:
        raise InputError("short-vector enumeration needs a definite lattice") from None


def short_vectors(
    lattice: IntegerLattice,
    target_norm: int,
    max_cells: int | None = None,
) -> list[LatticeVector]:
    """All nonzero v with v^2 == target_norm, sorted lexicographically.

    The lattice must be definite, the target an integer and its sign that
    of the lattice (an even lattice never represents odd numbers, so those
    give [] without enumerating).  The result contains v iff it contains
    -v: the walk visits one of each pair and keeps both.
    """
    if (
        isinstance(target_norm, bool)
        or not isinstance(target_norm, (int, Fraction))
        or target_norm.denominator != 1
    ):
        raise InputError(f"target norm must be an integer, got {target_norm!r}")
    if lattice.rank == 0:
        return []
    sign, q = _definite_decompose(lattice)
    if target_norm == 0:
        return []
    if (target_norm > 0) != (sign > 0):
        raise InputError(
            f"target norm {target_norm} has the wrong sign for a "
            f"{'positive' if sign > 0 else 'negative'}-definite lattice"
        )
    budget = CellBudget(max_cells)
    if target_norm % 2:
        return []
    hits = list(_fp_points(q, Fraction(abs(target_norm)), budget, exact=True))
    hits.sort()
    # negation reverses the order: two sorted runs for sort() to merge
    hits += [tuple(map(neg, x)) for x in reversed(hits)]
    hits.sort()
    return _trusted_vectors(lattice, hits)

