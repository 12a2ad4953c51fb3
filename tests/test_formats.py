"""Serialization layer: rational strings, vector/lattice/embedding JSON,
CSV/table rendering, and chamber-query decoding."""

from fractions import Fraction

import pytest

from wallkit import InputError, WallType, make_context
from wallkit.chambers import DEFAULT_SEARCH_BOUND
from wallkit.formats import (
    CSV_HEADER,
    embedding_from_json,
    frac_str,
    lattice_from_json,
    load_json,
    parse_chamber_query,
    parse_frac,
    parse_rational_vector,
    parse_vector,
    types_to_csv,
    types_to_table,
    wall_type_row,
)


class TestRationals:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (5, Fraction(5)),
            (-3, Fraction(-3)),
            ("7/2", Fraction(7, 2)),
            ("-9/4", Fraction(-9, 4)),
            (" 3 ", Fraction(3)),
            (Fraction(1, 3), Fraction(1, 3)),
        ],
    )
    def test_parse(self, value, expected):
        assert parse_frac(value) == expected

    @pytest.mark.parametrize("bad", [True, False, None, "x/y", "1/0", [], {}])
    def test_parse_rejects(self, bad):
        with pytest.raises(InputError):
            parse_frac(bad)

    def test_roundtrip(self):
        for f in (Fraction(0), Fraction(-5, 2), Fraction(7), Fraction(13, 6)):
            assert parse_frac(frac_str(f)) == f

    def test_integer_renders_without_slash(self):
        assert frac_str(Fraction(4, 2)) == "2"
        assert frac_str(Fraction(-1, 2)) == "-1/2"


class TestVectors:
    def test_list_and_object_forms(self):
        assert parse_vector([1, -2, 3]) == (1, -2, 3)
        assert parse_vector({"coords": [1, 0]}) == (1, 0)

    def test_rank_check(self):
        with pytest.raises(InputError):
            parse_vector([1, 2], rank=3)
        with pytest.raises(InputError, match="vector has 2 coordinates, expected 3"):
            parse_rational_vector(["1/2", 1], rank=3)

    def test_non_integer_rejected(self):
        with pytest.raises(InputError):
            parse_vector(["1/2", 1])

    def test_rational_vector(self):
        got = parse_rational_vector(["1/2", 3], rank=2)
        assert got == (Fraction(1, 2), Fraction(3))
        assert parse_rational_vector({"coords": ["-3/4", 2]}) == (Fraction(-3, 4), Fraction(2))

    def test_not_a_list(self):
        with pytest.raises(InputError):
            parse_vector("nope")
        with pytest.raises(InputError):
            parse_vector({"wrong": [1]})
        for obj in ("1/2", {"wrong": ["1/2"]}):
            with pytest.raises(InputError, match="vector must be a coordinate list"):
                parse_rational_vector(obj)


class TestLatticeJson:
    def test_roundtrip(self):
        lat = lattice_from_json({"label": "U", "gram": [[0, 1], [1, 0]]})
        assert lat.rank == 2 and lat.label == "U"
        dumped = {"label": lat.label, "gram": [list(row) for row in lat.gram]}
        assert lattice_from_json(dumped).gram == lat.gram

    def test_missing_gram(self):
        with pytest.raises(InputError):
            lattice_from_json({"label": "x"})
        with pytest.raises(InputError):
            lattice_from_json({"gram": []})

    def test_odd_diagonal_propagates(self):
        with pytest.raises(InputError):
            lattice_from_json({"gram": [[1]]})


class TestEmbeddingJson:
    def test_shape_check(self):
        ctx = make_context(2)
        pic = lattice_from_json({"gram": [[2]]})
        with pytest.raises(InputError):
            embedding_from_json(pic, ctx.ambient, [[1]])  # 1 row, need 23

    def test_roundtrip(self):
        ctx = make_context(2)
        pic = lattice_from_json({"gram": [[2]]})
        matrix = [[0] for _ in range(23)]
        matrix[0][0] = 1
        matrix[1][0] = 1
        emb = embedding_from_json(pic, ctx.ambient, matrix)
        assert [list(row) for row in emb.matrix] == matrix

    def test_gram_incompatibility_propagates(self):
        ctx = make_context(2)
        pic = lattice_from_json({"gram": [[4]]})
        matrix = [[0] for _ in range(23)]
        matrix[0][0] = 1
        matrix[1][0] = 1
        with pytest.raises(InputError):
            embedding_from_json(pic, ctx.ambient, matrix)


class TestTypeTables:
    TYPES = (WallType(square=-2, div=1), WallType(square=-10, div=2))

    def test_csv(self):
        assert CSV_HEADER == "r2,D2,div"
        assert types_to_csv(self.TYPES) == "r2,D2,div\n-2,-2,1\n-5/2,-10,2\n"

    def test_table_alignment(self):
        txt = types_to_table(self.TYPES)
        lines = txt.splitlines()
        assert lines[0].split() == ["r2", "D2", "div"]
        assert lines[2].split() == ["-2", "-2", "1"]
        assert lines[3].split() == ["-5/2", "-10", "2"]

    def test_row_dict(self):
        row = wall_type_row(2, WallType(square=-10, div=2))
        assert row == {"n": 2, "square": -10, "div": 2, "ray_square": "-5/2"}


class TestChamberQuery:
    def minimal(self, **extra):
        embed = [[0, 0] for _ in range(23)]
        embed[0][0] = 1
        embed[1][0] = 1
        embed[22][1] = 1
        q = {
            "n": 2,
            "pic_gram": [[2, 0], [0, -2]],
            "embed": embed,
            "omega": [2, -1],
        }
        q.update(extra)
        return q

    def test_minimal_query(self):
        out = parse_chamber_query(self.minimal())
        assert out["P"].pic.rank == 2
        assert out["omega"] == (Fraction(2), Fraction(-1))
        assert out["alpha"] is None and out["beta"] is None
        assert out["bound"] == DEFAULT_SEARCH_BOUND == 12

    def test_optional_segment_and_bound(self):
        out = parse_chamber_query(
            self.minimal(alpha=[2, -1], beta=["14/5", "-11/5"], bound=9)
        )
        assert out["alpha"] == (Fraction(2), Fraction(-1))
        assert out["beta"] == (Fraction(14, 5), Fraction(-11, 5))
        assert out["bound"] == 9

    def test_missing_keys_listed(self):
        with pytest.raises(InputError) as ei:
            parse_chamber_query({"n": 2})
        assert "pic_gram" in str(ei.value)
        assert "embed" in str(ei.value)

    def test_bad_bound(self):
        with pytest.raises(InputError):
            parse_chamber_query(self.minimal(bound=0))

    def test_bad_n(self):
        with pytest.raises(InputError):
            parse_chamber_query(self.minimal(n=1))

    def test_non_object(self):
        with pytest.raises(InputError):
            parse_chamber_query([1, 2, 3])


class TestLoadJson:
    def test_inline(self):
        assert load_json('{"a": 1}') == {"a": 1}
        assert load_json(" [1, 2] ") == [1, 2]

    def test_file(self, tmp_path):
        p = tmp_path / "payload.json"
        p.write_text('{"b": [1, 2]}')
        assert load_json(str(p)) == {"b": [1, 2]}

    def test_missing_file(self):
        with pytest.raises(InputError):
            load_json("/nonexistent/path.json")

    def test_bad_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{broken")
        with pytest.raises(InputError):
            load_json(str(p))
        with pytest.raises(InputError):
            load_json("{broken")
