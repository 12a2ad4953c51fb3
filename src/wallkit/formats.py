"""JSON / CSV / text-table serialization shared by the CLI and the fixture
verifier.

Conventions
-----------
* Rationals travel as strings "p/q" ("p" when the denominator is 1); every
  parser here also accepts plain ints.
* A lattice is ``{"label": ..., "gram": [[int]]}``.
* A vector is ``{"coords": [int]}`` or, inline, a bare coordinate list.
* An embedding is a row-major integer matrix with one row per ambient basis
  vector and one column per source basis vector (columns = images).
* Wall-type rows print in the column order r2 (dual-ray square), D2
  (class square), div.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .chambers import DEFAULT_SEARCH_BOUND, ExtremalRay, PicardData, SupportResult, Wall
from .errors import InputError
from .lattice import Embedding, IntegerLattice, parse_frac
from .walls import WallType, WallWitness, make_context

CSV_HEADER = "r2,D2,div"


# ----------------------------------------------------------------- rationals


def frac_str(x) -> str:
    """Render a rational as "p/q", or "p" when integral."""
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def _int(value) -> int:
    f = parse_frac(value)
    if f.denominator != 1:
        raise InputError(f"expected an integer, got {value!r}")
    return f.numerator


def _parse_coords(obj, rank, parse) -> tuple:
    """`parse` applied to each entry of a list or a {"coords": [...]} object,
    which must have `rank` entries when `rank` is given."""
    if isinstance(obj, dict):
        obj = obj.get("coords")
    if not isinstance(obj, (list, tuple)):
        raise InputError("vector must be a coordinate list")
    coords = tuple(map(parse, obj))
    if rank is not None and len(coords) != rank:
        raise InputError(f"vector has {len(coords)} coordinates, expected {rank}")
    return coords


def parse_vector(obj, rank: int | None = None) -> tuple[int, ...]:
    """Integer coordinate tuple from a list or a {"coords": [...]} object."""
    return _parse_coords(obj, rank, _int)


def parse_rational_vector(obj, rank: int | None = None) -> tuple[Fraction, ...]:
    """Rational coordinate tuple from a list or a {"coords": [...]} object."""
    return _parse_coords(obj, rank, parse_frac)


# ------------------------------------------------------------------ lattices


def _int_rows(matrix, what: str) -> tuple[tuple[int, ...], ...]:
    if not isinstance(matrix, list) or not all(isinstance(row, list) for row in matrix):
        raise InputError(f"{what} must be a list of rows")
    return tuple(tuple(_int(c) for c in row) for row in matrix)


def lattice_from_json(obj) -> IntegerLattice:
    if not isinstance(obj, dict) or "gram" not in obj:
        raise InputError('lattice JSON needs a "gram" matrix')
    rows = _int_rows(obj["gram"], "gram")
    if not rows:
        raise InputError("gram must be a nonempty matrix")
    return IntegerLattice(rows, label=str(obj.get("label", "")) or None)


def embedding_from_json(source: IntegerLattice, target: IntegerLattice, matrix) -> Embedding:
    rows = _int_rows(matrix, "embedding matrix")
    if len(rows) != target.rank or any(len(r) != source.rank for r in rows):
        raise InputError(
            f"embedding matrix must be {target.rank}x{source.rank} (rows x cols)"
        )
    return Embedding(source, target, rows)


# ---------------------------------------------------------------- wall types


def wall_type_row(n: int, wt: WallType) -> dict:
    return {
        "n": n,
        "square": wt.square,
        "div": wt.div,
        "ray_square": frac_str(wt.ray_square),
    }


def types_to_csv(types) -> str:
    lines = [CSV_HEADER]
    for wt in types:
        lines.append(f"{frac_str(wt.ray_square)},{wt.square},{wt.div}")
    return "\n".join(lines) + "\n"


def types_to_table(types) -> str:
    rows = [("r2", "D2", "div")]
    for wt in types:
        rows.append((frac_str(wt.ray_square), str(wt.square), str(wt.div)))
    widths = [max(len(r[i]) for r in rows) for i in range(3)]
    out = []
    for i, row in enumerate(rows):
        out.append("  ".join(cell.rjust(widths[j]) for j, cell in enumerate(row)))
        if i == 0:
            out.append("  ".join("-" * w for w in widths))
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------- witnesses


def witness_to_json(w: WallWitness) -> dict:
    return {
        "condition": w.condition.value,
        "vectors": [list(vec.coords) for vec in w.vectors],
        "pairing_data": list(w.pairing_data),
        "against": list(w.against.coords),
    }


# ------------------------------------------------------------ chamber report


def wall_to_json(w: Wall) -> dict:
    out = {
        "D": list(w.D.coords),
        "square": w.wall_type.square,
        "div": w.wall_type.div,
    }
    if w.certificate is not None:
        out["certificate"] = list(w.certificate)
    return out


def ray_to_json(r: ExtremalRay) -> dict:
    return {
        "coords": [frac_str(c) for c in r.coords],
        "square": frac_str(r.square),
        "wall": wall_to_json(r.wall),
    }


def chamber_report_to_json(
    omega,
    support: SupportResult,
    rays,
    walls_crossed=None,
) -> dict:
    out = {
        "reference": [frac_str(Fraction(c)) for c in omega],
        "supporting": [wall_to_json(w) for w in support.walls],
        "rays": [ray_to_json(r) for r in rays],
        "exact": support.exact,
        "search_bound": support.search_bound,
    }
    if walls_crossed is not None:
        out["walls_crossed"] = [wall_to_json(w) for w in walls_crossed]
    return out


# ------------------------------------------------------------- query parsing


def parse_chamber_query(obj) -> dict:
    """Decode a chamber query into ready-to-use objects.

    Expected keys: n, pic_gram, embed, omega; optional: alpha and beta
    (together), bound (default DEFAULT_SEARCH_BOUND), label.  Returns
    {"P": PicardData, "omega": ..., "alpha": ..., "beta": ..., "bound": ...}
    with rational coordinate tuples.
    """
    if not isinstance(obj, dict):
        raise InputError("chamber query must be a JSON object")
    missing = [k for k in ("n", "pic_gram", "embed", "omega") if k not in obj]
    if missing:
        raise InputError(f"chamber query missing keys: {', '.join(missing)}")
    if ("alpha" in obj) != ("beta" in obj):
        raise InputError("chamber query needs both alpha and beta, or neither")
    ctx = make_context(_int(obj["n"]))
    pic = lattice_from_json({"label": obj.get("label", "pic"), "gram": obj["pic_gram"]})
    emb = embedding_from_json(pic, ctx.ambient, obj["embed"])
    omega = parse_rational_vector(obj["omega"], pic.rank)
    P = PicardData(ctx=ctx, pic=pic, embed=emb, omega_ref=omega)
    out = {"P": P, "omega": omega, "alpha": None, "beta": None}
    if "alpha" in obj:
        out["alpha"] = parse_rational_vector(obj["alpha"], pic.rank)
    if "beta" in obj:
        out["beta"] = parse_rational_vector(obj["beta"], pic.rank)
    out["bound"] = _int(obj.get("bound", DEFAULT_SEARCH_BOUND))
    if out["bound"] < 1:
        raise InputError("bound must be >= 1")
    return out


def load_json(path_or_inline: str):
    """Parse inline JSON, or read a file when the argument is a path."""
    text = path_or_inline
    stripped = text.strip()
    if not stripped.startswith(("{", "[")):
        try:
            with open(text, "r", encoding="utf-8") as fh:
                stripped = fh.read()
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
            raise InputError(f"cannot read input {text!r}: {exc}") from exc
    try:
        return json.loads(stripped)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad JSON input: {exc}") from exc
