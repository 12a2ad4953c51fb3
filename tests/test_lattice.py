"""Lattice constructions, discriminant groups, and sublattice operations."""

import itertools
import random
from fractions import Fraction

import pytest
import sympy

import wallkit._linalg as la
from wallkit import (
    Embedding,
    InputError,
    IntegerLattice,
    InternalError,
    LatticeVector,
    PicardData,
    direct_sum,
    disc_class,
    discriminant_group,
    divisibility,
    make_context,
    orthogonal_complement,
    signature,
    standard_lattice,
)
from wallkit.lattice import _saturate


U = standard_lattice("U")
E8 = standard_lattice("E8(-1)")


class TestStandardLattices:
    def test_hyperbolic_plane(self):
        assert U.gram == ((0, 1), (1, 0))
        assert signature(U) == (1, 1)

    def test_e8_negative_definite_even_unimodular(self):
        assert signature(E8) == (0, 8)
        assert abs(sympy.Matrix(E8.gram).det()) == 1
        assert all(E8.gram[i][i] % 2 == 0 for i in range(8))
        assert sympy.Matrix(E8.gram).is_symmetric()

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_family_lattice_shape(self, n):
        L = standard_lattice("Ln", n)
        assert L.rank == 23
        assert signature(L) == (3, 20)
        # determinant frozen by the signature: 20 negative eigenvalues give
        # a positive determinant of absolute value 2n-2
        assert int(sympy.Matrix(L.gram).det()) == 2 * n - 2

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_unimodular_extension(self, n):
        M = standard_lattice("mukai", n)
        assert M.rank == 24
        assert signature(M) == (4, 20)
        assert int(sympy.Matrix(M.gram).det()) == 1

    def test_rank_one(self):
        L = standard_lattice("rank1", -4)
        assert L.gram == ((-4,),)

    def test_odd_gram_rejected(self):
        with pytest.raises(InputError):
            IntegerLattice(((1,),))

    def test_asymmetric_gram_rejected(self):
        with pytest.raises(InputError):
            IntegerLattice(((0, 1), (2, 0)))

    @pytest.mark.parametrize("entry", [Fraction(5, 2), 2.9])
    def test_non_integral_gram_rejected(self, entry):
        # truncating would build the even lattice <2> that was not asked for
        with pytest.raises(InputError, match="coordinates must be integers"):
            IntegerLattice(((entry,),))

    def test_integral_gram_values_accepted(self):
        gram = IntegerLattice(((Fraction(4), Fraction(1)), (1, -2))).gram
        assert gram == ((4, 1), (1, -2))
        assert all(type(c) is int for row in gram for c in row)

    @pytest.mark.parametrize("entry", [True, 1.0])
    def test_bool_and_float_gram_entries_rejected(self, entry):
        # read as 1, either would build the lattice ((2, 1), (1, -2))
        with pytest.raises(InputError, match="coordinates must be integers"):
            IntegerLattice(((2, entry), (entry, -2)))


class TestVectors:
    def test_norm_inner(self):
        v = U.vector((1, 1))
        assert v.norm() == 2
        assert v.inner((1, -1)) == 0

    def test_primitive_and_content(self):
        assert not U.vector((2, 4)).is_primitive()
        assert not U.vector((0, 0)).is_primitive()
        assert U.vector((2, 3)).is_primitive()

    @pytest.mark.parametrize("coord", [Fraction(3, 2), Fraction(-1, 3), 2.7, -0.5])
    def test_non_integral_coordinate_rejected(self, coord):
        with pytest.raises(InputError, match="coordinates must be integers"):
            LatticeVector(U, (1, coord))
        with pytest.raises(InputError, match="coordinates must be integers"):
            U.vector((1, coord))

    def test_integral_values_accepted(self):
        for v in (LatticeVector(U, [Fraction(4), 2]), U.vector((Fraction(4), Fraction(2)))):
            assert v.coords == (4, 2)
            assert all(type(c) is int for c in v.coords)

    @pytest.mark.parametrize(
        "coords", [(True, 2), (1, False), (1, 2.0), (0.0, 1)], ids=["true", "false", "2.0", "0.0"]
    )
    def test_bool_and_float_coordinates_rejected(self, coords):
        # as in parse_frac: a bool is not a number, and a float is not exact
        with pytest.raises(InputError, match="coordinates must be integers"):
            LatticeVector(U, coords)
        with pytest.raises(InputError, match="coordinates must be integers"):
            U.vector(coords)

    def test_divisibility_examples(self):
        L = standard_lattice("Ln", 3)
        delta = tuple(0 if i < 22 else 1 for i in range(23))
        assert divisibility(L, delta) == 4
        root = tuple(1 if i == 0 else (-1 if i == 1 else 0) for i in range(23))
        assert divisibility(L, root) == 1

    @pytest.mark.parametrize("coords", [(1, 1), (1,) * 22, (1,) * 24])
    def test_divisibility_rejects_wrong_length(self, coords):
        with pytest.raises(InputError, match="vector length does not match lattice rank"):
            divisibility(standard_lattice("Ln", 3), coords)

    def test_divisibility_rejects_vector_of_another_lattice(self):
        v = standard_lattice("mukai").basis_vector(0)
        with pytest.raises(InputError, match="vector belongs to a different lattice"):
            divisibility(standard_lattice("Ln", 3), v)


class TestDirectSum:
    def test_gram_blocks(self):
        S = direct_sum([U, standard_lattice("rank1", -2)])
        assert S.rank == 3
        assert S.gram[0][2] == 0 and S.gram[2][2] == -2

    def test_block_tags_survive(self):
        S = direct_sum([U, U])
        assert S.blocks.count("U") == 2


class TestDiscriminantGroup:
    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_family_group_is_cyclic(self, n):
        L = standard_lattice("Ln", n)
        A = discriminant_group(L)
        assert A.invariant_factors == (2 * n - 2,)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_q_value_of_tail_generator(self, n):
        L = standard_lattice("Ln", n)
        A = discriminant_group(L)
        delta = tuple(0 if i < 22 else 1 for i in range(23))
        cls = A.class_of(delta, 2 * n - 2)
        assert A.q(cls) == 2 - Fraction(1, 2 * n - 2)

    def test_unimodular_trivial(self):
        A = discriminant_group(E8)
        assert A.invariant_factors == ()

    def test_order_and_class_arithmetic(self):
        L = standard_lattice("rank1", -6)
        A = discriminant_group(L)
        assert A.invariant_factors == (6,)
        c = A.class_of((1,), 6)
        assert A.q(c) == Fraction(-1, 6) % 2

    def test_disc_class_of_integral_class_is_zero(self):
        L = standard_lattice("Ln", 3)
        root = tuple(1 if i == 0 else (-1 if i == 1 else 0) for i in range(23))
        assert disc_class(L, root, 1) == (0,)


def _columns(emb):
    return [tuple(col) for col in zip(*emb.matrix)]


class TestSublattices:
    def test_orthogonal_complement_in_u(self):
        comp = orthogonal_complement(U, ((1, 1),))
        cols = _columns(comp)
        assert len(cols) == 1
        v = cols[0]
        assert U.inner(v, (1, 1)) == 0
        assert v in ((1, -1), (-1, 1))

    def test_saturation_is_idempotent(self):
        rng = random.Random(17)
        L = direct_sum([U, U])
        for _ in range(25):
            vecs = [tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(2)]
            cols = tuple(zip(*vecs))  # vectors as columns
            if not any(any(v) for v in vecs):
                continue
            sat = _saturate(L, cols)[0]
            again = _saturate(L, sat.matrix)[0]
            assert sat.matrix == again.matrix

    def test_saturation_recovers_full_multiple(self):
        # span{2e} saturates to span{e}
        sat = _saturate(U, ((2,), (0,)))[0]
        assert _columns(sat) == [(1, 0)]

    def test_broken_smith_identity_is_internal_error(self, monkeypatch):
        real = la.smith_normal_form

        def broken(m):  # invariant factors three times too large
            p, d, q = real(m)
            return p, tuple(tuple(3 * x for x in row) for row in d), q

        monkeypatch.setattr(la, "smith_normal_form", broken)
        with pytest.raises(InternalError):
            _saturate(U, ((2,), (0,)))

    def test_complement_pairs_to_zero(self):
        rng = random.Random(19)
        L = standard_lattice("Ln", 2)
        for _ in range(10):
            v = tuple(rng.randint(-2, 2) for _ in range(23))
            if not any(v):
                continue
            comp = orthogonal_complement(L, (v,))
            for w in _columns(comp)[:5]:
                assert L.inner(v, w) == 0


class TestEmbedding:
    def test_gram_compatibility_enforced(self):
        L3 = standard_lattice("Ln", 3)
        rows = tuple((1,) if i == 22 else (0,) for i in range(23))
        src = standard_lattice("rank1", -4)
        emb = Embedding(src, L3, rows)
        assert emb.apply((1,)).norm() == -4
        bad_src = standard_lattice("rank1", -2)
        with pytest.raises(InputError):
            Embedding(bad_src, L3, rows)

    @pytest.mark.parametrize("entry", [Fraction(3, 2), 1.5])
    def test_non_integral_matrix_rejected(self, entry):
        # truncating would accept the isometry <2> -> U given by ((1,), (1,))
        with pytest.raises(InputError, match="coordinates must be integers"):
            Embedding(standard_lattice("rank1", 2), U, ((1,), (entry,)))
        emb = Embedding(standard_lattice("rank1", 2), U, ((1,), (Fraction(1),)))
        assert emb.matrix == ((1,), (1,))

    @pytest.mark.parametrize("entry", [True, 1.0])
    def test_bool_and_float_matrix_entries_rejected(self, entry):
        with pytest.raises(InputError, match="coordinates must be integers"):
            Embedding(standard_lattice("rank1", 2), U, ((1,), (entry,)))

    @pytest.mark.parametrize("coords", [(1,), (1,) * 22, (1,) * 30])
    def test_apply_rejects_wrong_length(self, coords):
        emb = make_context(3).embed
        with pytest.raises(InputError, match="vector length does not match lattice rank"):
            emb.apply(coords)

    @pytest.mark.parametrize("coord", [Fraction(3, 2), 2.7])
    def test_apply_rejects_non_integral_coordinate(self, coord):
        emb = make_context(3).embed
        rest = (0,) * (emb.source.rank - 1)
        with pytest.raises(InputError, match="coordinates must be integers"):
            emb.apply((coord,) + rest)
        assert emb.apply((Fraction(2),) + rest) == emb.apply((2,) + rest)

    def test_apply_rejects_vector_of_another_lattice(self):
        ctx = make_context(3)
        with pytest.raises(InputError, match="vector belongs to a different lattice"):
            ctx.embed.apply(ctx.v)
        assert ctx.embed.apply(ctx.delta) == ctx.embed.apply(ctx.delta.coords)


class TestBookkeepingFields:
    """`label` and `blocks` are bookkeeping: only the Gram matrix decides
    equality, so a relabelled copy is the same lattice everywhere."""

    def test_equality_and_hash_read_only_the_gram(self):
        L = standard_lattice("Ln", 3)
        bare = IntegerLattice(L.gram)
        assert bare == L and hash(bare) == hash(L)
        assert IntegerLattice(L.gram, label="other", blocks=("U",)) == L
        other = IntegerLattice(standard_lattice("Ln", 4).gram, label=L.label, blocks=L.blocks)
        assert other != L

    def test_picard_data_accepts_relabelled_source(self):
        ctx = make_context(3)
        gram = ((2,),)
        matrix = tuple((1,) if i in (0, 1) else (0,) for i in range(23))
        emb = Embedding(IntegerLattice(gram), ctx.ambient, matrix)
        P = PicardData(ctx=ctx, pic=IntegerLattice(gram, label="pic"), embed=emb)
        assert P.pic.label == "pic"
        with pytest.raises(InputError, match="embedding must map the Picard lattice into L_n"):
            PicardData(ctx=ctx, pic=IntegerLattice(((4,),), label="pic"), embed=emb)

    def test_apply_accepts_vector_of_relabelled_copy(self):
        emb = Embedding(standard_lattice("rank1", 2), U, ((1,), (1,)))
        copy = IntegerLattice(((2,),), label="copy")
        assert emb.apply(copy.vector((3,))).coords == (3, 3)
        with pytest.raises(InputError, match="vector belongs to a different lattice"):
            emb.apply(IntegerLattice(((4,),), label="<2>").vector((3,)))

    def test_discriminant_group_accepts_relabelled_copy(self):
        L = standard_lattice("Ln", 3)
        copy = IntegerLattice(L.gram, label="copy")
        delta = tuple(0 if i < 22 else 1 for i in range(23))
        assert discriminant_group(copy) == discriminant_group(L)
        assert discriminant_group(L).class_of(copy.vector(delta), 4) == (1,)
        assert disc_class(copy, copy.vector(delta), 4) == disc_class(L, delta, 4)
        with pytest.raises(InputError, match="vector belongs to a different lattice"):
            discriminant_group(L).class_of(standard_lattice("Ln", 4).vector(delta), 4)


# ------------------------------------------------- the parent code as oracles


def parent_snf_diagonal(m):
    """The former `_linalg.snf_diagonal`."""
    _, d, _ = la.smith_normal_form(m)
    return tuple(d[i][i] for i in range(min(len(d), len(d[0]) if d else 0)))


def parent_q(group, exponents):
    """The former `DiscriminantGroup.q`, through `_rational_rep`."""
    if len(exponents) != len(group.invariant_factors):
        raise InputError("exponent tuple has wrong length")
    n = group.lattice.rank
    out = [Fraction(0)] * n
    for e, g in zip(exponents, group.generators):
        for i in range(n):
            out[i] += e * g[i]
    x = tuple(out)
    return Fraction(la.vec_mat_vec(x, group.lattice.gram, x)) % 2


def random_even_gram(rng, n):
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2 * rng.randint(-2, 2)
        for j in range(i):
            g[i][j] = g[j][i] = rng.randint(-2, 2)
    return tuple(map(tuple, g))


def every_class(group):
    return itertools.product(*(range(d) for d in group.invariant_factors))


class TestParentOracles:
    def test_is_primitive_matches_snf_diagonal(self):
        rng = random.Random(30)
        seen = {True: 0, False: 0}
        shapes = [(0, 0), (1, 0), (4, 0)] + [
            (rng.randint(1, 5), rng.randint(1, 5)) for _ in range(300)
        ]
        for t, s in shapes:
            target = IntegerLattice(random_even_gram(rng, t))
            m = tuple(tuple(rng.randint(-3, 3) for _ in range(s)) for _ in range(t))
            induced = la.mat_mul(la.mat_mul(la.transpose(m), target.gram), m)
            emb = Embedding(IntegerLattice(induced), target, m)
            expected = all(d == 1 for d in parent_snf_diagonal(m))
            assert emb.is_primitive() == expected, (t, s, m)
            seen[expected] += 1
        assert min(seen.values()) >= 50

    @pytest.mark.parametrize("n", range(2, 9))
    def test_q_matches_rational_rep_on_ln(self, n):
        A = discriminant_group(standard_lattice("Ln", n))
        classes = list(every_class(A))
        assert len(classes) == 2 * n - 2
        assert [A.q(c) for c in classes] == [parent_q(A, c) for c in classes]

    def test_q_matches_rational_rep_on_random_lattices(self):
        rng = random.Random(31)
        done = 0
        while done < 25:
            gram = random_even_gram(rng, rng.randint(1, 4))
            det = sympy.Matrix(gram).det()
            if det == 0 or abs(det) > 200:
                continue
            A = discriminant_group(IntegerLattice(gram))
            for c in every_class(A):
                assert A.q(c) == parent_q(A, c)
            with pytest.raises(InputError, match="exponent tuple has wrong length"):
                A.q((0,) * (len(A.invariant_factors) + 1))
            done += 1

    @pytest.mark.parametrize(
        "gram",
        [((0,),), ((2, 2), (2, 2)), ((0, 0), (0, 0)), ((2, 1, 3), (1, 2, 3), (3, 3, 6))],
        ids=["zero", "rank1-dependent", "zero2", "rank3-dependent"],
    )
    def test_degenerate_lattice_raises(self, gram):
        L = IntegerLattice(gram)
        assert sympy.Matrix(gram).det() == 0
        with pytest.raises(InputError, match="^discriminant group of a degenerate lattice$"):
            discriminant_group(L)
