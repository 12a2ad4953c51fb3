"""Nef cones of Hilbert schemes of points against Bayer-Macri's closed form.

Let S be a K3 surface with Pic S = Z H and H^2 = 2d.  For n >= (d+3)/2 the
nef cone of S^[n] is spanned by H and H - (2d/(d+n)) delta (Bayer-Macri,
arXiv 1301.6968, Prop. 10.3), where delta is the tail class of L_n, of
square -(2n-2).  That is the normalisation of the shipped `bm2_nef`
fixture, whose nef edges are H and (d+n) H - 2d delta.

Each query asks `wallkit chamber` for the chamber of H - delta/1000 in
Pic = <2d> + <-(2n-2)> and reads only its JSON report: the walls are delta
and one D = (a, b), whose perp meets the ray H - t delta at
t0 = -2d a / ((2n-2) b).
"""

import json
from fractions import Fraction

import pytest

from wallkit import cli

GRID = [(d, n) for d in range(1, 13) for n in range(-(-(d + 3) // 2), 13)]


def nef_report(capsys, d, n):
    embed = [[int(i == 0), 0] for i in range(23)]
    embed[1][0], embed[22][1] = d, 1
    query = {"n": n, "pic_gram": [[2 * d, 0], [0, 2 - 2 * n]], "embed": embed, "omega": [1, "-1/1000"]}
    code = cli.main(["chamber", "--format", "json", "--input", json.dumps(query)])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def test_grid_size():
    assert len(GRID) == 96


@pytest.mark.parametrize("d, n", GRID, ids=[f"d{d}-n{n}" for d, n in GRID])
def test_nef_boundary(capsys, d, n):
    report = nef_report(capsys, d, n)
    assert report["exact"] is True
    walls = sorted(tuple(w["D"]) for w in report["supporting"])
    assert len(walls) == 2 and walls[0] == (0, 1), walls
    a, b = walls[1]
    assert Fraction(-2 * d * a, (2 * n - 2) * b) == Fraction(2 * d, d + n)
