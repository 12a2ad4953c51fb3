"""Correctness checks for benchmark outputs.

Every op is checked two ways:

* against its expected answer, carried in the op (``expect``) and moved
  from the recorded base answers by the same isometry as the input, and
* independently of the search code: each chamber certificate x satisfies
  x^2 > 0, (D, x) = 0 and (D', x) > 0 for every other wall D'; each reported
  class is primitive with the stated square and divisibility, and its type
  is in the certified table; each wall-test witness passes
  WallWitness.check(); each separating wall satisfies (D, alpha) > 0 >
  (D, beta); every E8 short vector has the target norm.

For the seeds in ``RECORDED_SEEDS`` the answers must also equal the outputs
recorded in ``data/reference-<workload>-seed<k>.json``.  Certificates may
differ from the recorded ones, ``exact`` may turn from false to true (never
back), and ``search_bound`` is not compared.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from math import gcd
from pathlib import Path

from workloads import pair

HERE = Path(__file__).resolve().parent
RECORDED_SEEDS = (1, 2)

_ON_WALL = re.compile(r"D=\[([-\d, ]*)\] of type \(square (-?\d+), div (\d+)\)")


def reference_path(workload: str, seed: int) -> Path:
    return HERE / "data" / f"reference-{workload}-seed{seed}.json"


def primitive(x) -> bool:
    return any(x) and gcd(*x) == 1


class Checker:
    """Checks one workload's outputs; needs wallkit only for Gram data and
    WallWitness.check()."""

    def __init__(self, wallkit, workload: str, seed: int | None, base: dict):
        """seed=None skips the recorded references (used while recording them)."""
        self.wallkit = wallkit
        self.types = {t["n"]: {(r["square"], r["div"]) for r in t["rows"]} for t in base["tables"]}
        path = None if seed is None else reference_path(workload, seed)
        self.reference = json.loads(path.read_text()) if path and path.is_file() else None

    # --------------------------------------------------------- helpers

    def _ambient_gram(self, n):
        return self.wallkit.make_context(n).ambient.gram

    def _class_problems(self, n, x, square, div, gram=None, embed=None):
        """x primitive with x^2 = square and div(x) = div in L_n, of a certified type.

        With `gram`/`embed`, x is in Picard coordinates and is pushed into L_n.
        """
        problems = []
        if not primitive(x):
            problems.append(f"class {x} is not primitive")
        if gram is not None:
            if pair(gram, x, x) != square:
                problems.append(f"class {x} has square {pair(gram, x, x)}, reported {square}")
            x = [sum(row[j] * x[j] for j in range(len(x))) for row in embed]
        amb = self._ambient_gram(n)
        if gram is None and pair(amb, x, x) != square:
            problems.append(f"class has square {pair(amb, x, x)}, reported {square}")
        pairings = [sum(r * c for r, c in zip(row, x)) for row in amb]
        if gcd(*pairings) != div:
            problems.append(f"class has divisibility {gcd(*pairings)}, reported {div}")
        if (square, div) not in self.types[n]:
            problems.append(f"type ({square}, {div}) is not in the certified table for n={n}")
        return problems

    # ---------------------------------------------------------- checks

    def check(self, op: dict, output: dict) -> list[str]:
        """Problems with one op's output; an empty list means correct."""
        if "error" in output:
            return [output["error"]]
        problems = getattr(self, "_check_" + op["kind"])(op, output)
        if self.reference is not None and not problems:
            want = self.reference.get(op["query"])
            got = summary(op, output)
            if want != got:
                problems.append(f"differs from the recorded reference: {want} != {got}")
        return problems

    def _check_cli(self, op, out):
        e = op["expect"]
        if out["code"] != e["code"]:
            return [f"exit code {out['code']}, expected {e['code']}: {out['err'].strip()}"]
        command = op["argv"][0]
        if command == "chamber":
            return self._check_on_wall(op, out) if e["code"] == 3 else self._check_chamber(op, out)
        report = json.loads(out["out"])
        if command == "tabulate":
            return [] if report["rows"] == e["rows"] else [f"rows {report['rows']} != {e['rows']}"]
        if command == "wall-test":
            return self._check_wall_test(op, report)
        if command == "orbit":
            return self._check_orbit(op, report)
        if command == "verify":
            if report["failures"] != 0 or report["total"] != e["total"]:
                return [f"verify: {report['failures']} failures in {report['total']} checks"]
            return []
        return [f"unknown command {command}"]

    def _check_chamber(self, op, out):
        e = op["expect"]
        query = json.loads(op["argv"][-1])
        gram, embed, n = query["pic_gram"], query["embed"], query["n"]
        omega = [Fraction(c) for c in query["omega"]]
        report = json.loads(out["out"])
        walls = report["supporting"]
        problems = []
        got = sorted([w["D"], w["square"], w["div"]] for w in walls)
        if got != e["walls"]:
            problems.append(f"walls {got} != expected {e['walls']}")
        rays = sorted([r["coords"], r["square"]] for r in report["rays"])
        if rays != e["rays"]:
            problems.append(f"rays {rays} != expected {e['rays']}")
        if e["exact"] and not report["exact"]:
            problems.append("exact turned from true to false")
        for w in walls:
            D, x = w["D"], w.get("certificate")
            problems += self._class_problems(n, D, w["square"], w["div"], gram, embed)
            if pair(gram, D, omega) <= 0:
                problems.append(f"wall {D} is not oriented toward the reference class")
            if x is None:
                problems.append(f"wall {D} has no certificate")
                continue
            if pair(gram, x, x) <= 0 or pair(gram, D, x) != 0:
                problems.append(f"certificate {x} of wall {D}: x^2 <= 0 or (D, x) != 0")
            if any(pair(gram, o["D"], x) <= 0 for o in walls if o is not w):
                problems.append(f"certificate {x} of wall {D} is not inside the other walls")
        return problems

    def _check_on_wall(self, op, out):
        query = json.loads(op["argv"][-1])
        gram, n = query["pic_gram"], query["n"]
        omega = [Fraction(c) for c in query["omega"]]
        m = _ON_WALL.search(out["err"])
        if out["out"] or m is None:
            return [f"on-wall query printed {out['out']!r} / {out['err']!r}"]
        D = [int(c) for c in m.group(1).split(",")]
        problems = self._class_problems(n, D, int(m.group(2)), int(m.group(3)), gram, query["embed"])
        if pair(gram, D, omega) != 0:
            problems.append(f"named wall {D} is not orthogonal to the reference class")
        return problems

    def _check_wall_test(self, op, report):
        e = op["expect"]
        n = e["n"]
        problems = []
        if not report["detected"] or "witness" not in report:
            return [f"class {report['class']} not detected as a wall"]
        if (report["square"], report["div"]) != (e["square"], e["div"]):
            problems.append(f"type ({report['square']}, {report['div']}) != ({e['square']}, {e['div']})")
        if "coords" in e and report["class"] != e["coords"]:
            problems.append("reported class differs from the input class")
        problems += self._class_problems(n, report["class"], e["square"], e["div"])
        wk = self.wallkit
        mukai = wk.make_context(n).mukai
        wit = report["witness"]
        witness = wk.WallWitness(
            condition=wk.WallCondition(wit["condition"]),
            vectors=tuple(mukai.vector(v) for v in wit["vectors"]),
            pairing_data=tuple(wit["pairing_data"]),
            against=mukai.vector(wit["against"]),
        )
        if wit["against"] != [0] * 22 + [1, n - 1]:
            problems.append("witness is not taken against v = e + (n-1) f")
        if not witness.check():
            problems.append(f"witness {wit} fails WallWitness.check()")
        return problems

    def _check_orbit(self, op, report):
        e = op["expect"]
        n = e["n"]
        problems = []
        if report["same_orbit"] != e["same"]:
            problems.append(f"same_orbit {report['same_orbit']}, expected {e['same']}")
        amb = self._ambient_gram(n)
        for key in ("v", "w"):
            x, inv = e[key], report[key]
            pairings = [sum(r * c for r, c in zip(row, x)) for row in amb]
            if (inv["square"], inv["div"]) != (pair(amb, x, x), gcd(*pairings)):
                problems.append(f"{key}: invariants {inv} do not match the class")
        if e["same"] and report["v"]["disc"] != report["w"]["disc"]:
            problems.append("classes in one orbit report different discriminant classes")
        return problems

    def _check_walls_between(self, op, out):
        e = op["expect"]
        gram, embed, n = op["gram"], op["embed"], op["n"]
        alpha, beta = op["alpha"], op["beta"]
        problems = []
        got = sorted(out["walls"])
        if got != e["walls"]:
            problems.append(f"walls {got} != expected {e['walls']}")
        for D, square, div in out["walls"]:
            problems += self._class_problems(n, D, square, div, gram, embed)
            if not pair(gram, D, alpha) > 0 > pair(gram, D, beta):
                problems.append(f"wall {D} does not separate alpha from beta")
        return problems

    def _check_short_vectors(self, op, out):
        norm = op["norm"]
        e8 = self.wallkit.standard_lattice("E8(-1)").gram
        vectors = out["vectors"]
        problems = []
        if len(vectors) != op["expect"]["count"]:
            problems.append(f"{len(vectors)} vectors of norm {norm}, expected {op['expect']['count']}")
        if any(pair(e8, v, v) != norm for v in vectors):
            problems.append(f"a returned vector does not have norm {norm}")
        keys = {tuple(v) for v in vectors}
        if len(keys) != len(vectors) or any(tuple(-c for c in v) not in keys for v in keys):
            problems.append("vectors repeat or are not closed under negation")
        return problems


def summary(op: dict, output: dict):
    """The part of an output that a recorded reference pins down."""
    if op["kind"] == "walls_between":
        return {"walls": sorted(output["walls"])}
    if op["kind"] == "short_vectors":
        blob = json.dumps(sorted(output["vectors"])).encode()
        return {"count": len(output["vectors"]), "sha256": hashlib.sha256(blob).hexdigest()}
    command, code = op["argv"][0], output["code"]
    if code not in (0, 1):
        return {"code": code}
    report = json.loads(output["out"])
    if command == "chamber":
        return {
            "code": code,
            "walls": sorted([w["D"], w["square"], w["div"]] for w in report["supporting"]),
            "rays": sorted([r["coords"], r["square"]] for r in report["rays"]),
        }
    if command == "tabulate":
        return {"code": code, "rows": report["rows"]}
    if command == "wall-test":
        return {"code": code, **{k: report[k] for k in ("class", "square", "div", "detected")}}
    if command == "orbit":
        return {"code": code, **{k: report[k] for k in ("v", "w", "same_orbit")}}
    return {"code": code, "total": report["total"], "failures": report["failures"]}
