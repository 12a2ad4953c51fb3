"""Golden stdout of `wallkit orbit`, stdlib only.

For n = 2..20 each `enumerate_wall_types` row's witness class is compared,
with `--format json`, against one seeded Eichler transvection of itself,
against its negative and against the next row's witness; n = 2..10 repeat
these pairs with `--format table`, and one non-primitive pair closes the
list.  Each call is stored with its argv, exit code and stdout.

    PYTHONPATH=src python -O tests/orbit_golden.py           # check
    PYTHONPATH=src python tests/orbit_golden.py --record     # rewrite

Checking runs every stored argv through `wallkit.cli.main` in this
process and exits 1 on the first mismatch.
"""

import json
import random
import sys
from pathlib import Path

import wall_test_golden

GOLDEN = Path(__file__).resolve().parent / "golden" / "orbit_json.json"
NOTE = (
    "argv, exit code and stdout of `wallkit orbit` for every enumerate_wall_types witness "
    "of n = 2..20 against a transvected copy, its negative and the next row's witness "
    "(json; table for n = 2..10), and one non-primitive pair."
)


def transvected(L, x, rng):
    """x moved by a random Eichler transvection

        x  |->  x - (a, x) e + (e, x) a - (a, a)/2 (e, x) e

    with e a basis class of L's first two hyperbolic planes and a a class
    with entries in -2..2, zero at e's partner (so (e, a) = 0)."""
    k = rng.choice((0, 1, 2, 3))
    e = [int(i == k) for i in range(L.rank)]
    a = [0] * L.rank
    while not any(a):
        a = [rng.randint(-2, 2) for _ in range(L.rank)]
        a[k ^ 1] = 0
    ax, ex, half = L.inner(a, x), L.inner(e, x), L.norm(a) // 2
    return [xi - ax * ei + ex * ai - half * ex * ei for xi, ei, ai in zip(x, e, a)]


def argvs():
    from wallkit import enumerate_wall_types, make_context, wall_type_exists

    def orbit(n, fmt, v, w):
        payload = json.dumps({"v": list(v), "w": list(w)})
        return ["orbit", "--n", str(n), "--format", fmt, "--input", payload]

    pairs = {}
    for n in range(2, 21):
        ctx, rng = make_context(n), random.Random(n)
        ws = [
            list(wall_type_exists(ctx, t.square, t.div)[1].coords)
            for t in enumerate_wall_types(ctx)
        ]
        pairs[n] = []
        for i, D in enumerate(ws):
            pairs[n] += [(D, transvected(ctx.ambient, D, rng)), (D, [-x for x in D])]
            if i + 1 < len(ws):
                pairs[n].append((D, ws[i + 1]))
    out = [orbit(n, "json", v, w) for n in range(2, 21) for v, w in pairs[n]]
    out += [orbit(n, "table", v, w) for n in range(2, 11) for v, w in pairs[n]]
    delta = [0] * 22 + [1]
    out.append(orbit(2, "json", [2 * x for x in delta], delta))
    return out


if __name__ == "__main__":
    sys.exit(wall_test_golden.main(GOLDEN, argvs, NOTE, "orbit"))
