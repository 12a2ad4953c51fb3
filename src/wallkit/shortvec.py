"""Exact short-vector enumeration in definite quadratic forms.

Fincke-Pohst with a Fraction-valued Cholesky-style decomposition; every
bound is tested in exact arithmetic, so the enumeration is provably
complete (no floating-point fudge factors).  All routines honor a cell
budget so oversized requests fail fast instead of hanging.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import EnumerationBudgetExceeded, InputError
from .lattice import IntegerLattice, LatticeVector

__all__ = [
    "short_vectors",
    "enumerate_quadratic_leq",
    "CellBudget",
    "DEFAULT_MAX_CELLS",
]

DEFAULT_MAX_CELLS = 10**8


def configured_max_cells() -> int:
    env = os.environ.get("WALLKIT_MAX_CELLS")
    if env:
        try:
            return int(env)
        except ValueError as exc:
            raise InputError(f"WALLKIT_MAX_CELLS must be an integer, got {env!r}") from exc
    return DEFAULT_MAX_CELLS


class CellBudget:
    """Counts enumeration cells and trips when the cap is exceeded."""

    def __init__(self, max_cells: int | None = None):
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


def enumerate_quadratic_leq(
    gram: Sequence[Sequence],
    bound,
    budget: CellBudget | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield every nonzero integer x with Q(x) <= bound, Q given by `gram`.

    `gram` must be symmetric positive definite (int or Fraction entries).
    Both x and -x are emitted.  Order is deterministic: coordinates are
    chosen ascending from the last index down to the first.
    """
    bound = Fraction(bound)
    n = len(gram)
    if n == 0 or bound < 0:
        return
    try:
        q = _fp_decompose(gram)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if budget is None:
        budget = CellBudget()
    x = [0] * n

    def level(i: int, rem: Fraction) -> Iterator[tuple[int, ...]]:
        c = Fraction(0)
        for j in range(i + 1, n):
            if x[j]:
                c += q[i][j] * x[j]
        ratio = rem / q[i][i]
        m = math.isqrt(ratio.numerator // ratio.denominator)
        lo = math.floor(-c) - m
        hi = math.ceil(-c) + m
        for k in range(lo, hi + 1):
            budget.spend()
            val = q[i][i] * (k + c) ** 2
            if val > rem:
                continue
            x[i] = k
            if i == 0:
                if any(x):
                    yield tuple(x)
            else:
                yield from level(i - 1, rem - val)
        x[i] = 0

    yield from level(n - 1, bound)


def _definite_sign(lattice: IntegerLattice) -> int:
    """+1 for positive definite, -1 for negative definite, InputError else."""
    try:
        _fp_decompose(lattice.gram)
        return 1
    except ValueError:
        pass
    try:
        _fp_decompose(tuple(tuple(-x for x in row) for row in lattice.gram))
        return -1
    except ValueError:
        raise InputError("short-vector enumeration needs a definite lattice") from None


def short_vectors(
    lattice: IntegerLattice,
    target_norm: int,
    max_cells: int | None = None,
) -> list[LatticeVector]:
    """All nonzero v with v^2 == target_norm, sorted lexicographically.

    The lattice must be definite and the target sign must match its sign
    (an even lattice never represents odd numbers, so those give []).
    The result contains v iff it contains -v.
    """
    if lattice.rank == 0:
        return []
    sign = _definite_sign(lattice)
    if target_norm == 0:
        return []
    if (target_norm > 0) != (sign > 0):
        raise InputError(
            f"target norm {target_norm} has the wrong sign for a "
            f"{'positive' if sign > 0 else 'negative'}-definite lattice"
        )
    gram = lattice.gram if sign > 0 else tuple(
        tuple(-x for x in row) for row in lattice.gram
    )
    goal = abs(target_norm)
    budget = CellBudget(max_cells)
    hits = [
        coords
        for coords in enumerate_quadratic_leq(gram, goal, budget)
        if lattice.norm(coords) == target_norm
    ]
    hits.sort()
    return [LatticeVector(lattice, c) for c in hits]

