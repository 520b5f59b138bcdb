import pytest

from censym.algebra import check_witness, full_matrix_algebra, shared_builds
from censym.basis import canonical_indices, from_coords, rank_of
from censym.linalg import mat_vec_sparse, to_dense
from censym.matrices import Matrix
from censym.structure import (
    column_module,
    endring_odd,
    iso_even,
    iso_odd_quotient,
    iso_s2,
    morita_column_iso,
    odd_quotient,
    s3_presentation,
    wedderburn_split,
)

from conftest import GF2, GF5, Q, Z


def positions(n):
    return {(ix.i, ix.j): u for u, ix in enumerate(canonical_indices(n))}


def label_map(a):
    return {lab: u for u, lab in enumerate(a.labels)}


class TestIsoS2:
    def test_witness_passes(self, any_ring):
        rep = check_witness(iso_s2(any_ring))
        assert rep.verdict == "pass", rep.clauses

    def test_x_squares_to_one(self):
        w = iso_s2(Z)
        tgt = w.target
        assert tgt.mul(w.matrix[1], w.matrix[1]) == to_dense(Z, w.matrix[0], tgt.rank)

    def test_pair_is_the_symmetric_two_by_two(self):
        # a + b*x corresponds to [[a, b], [b, a]]
        assert from_coords(Z, 2, [3, 5]).inner == Matrix(Z, 2, [3, 5, 5, 3])

    def test_unit_maps_to_identity(self):
        w = iso_s2(Z)
        assert w.apply(w.source.unit) == w.target.unit


class TestS3Presentation:
    def test_validates_and_witness_passes(self, any_ring):
        pres, w = s3_presentation(any_ring)
        assert pres.validate() == []
        rep = check_witness(w)
        assert rep.verdict == "pass", (rep.clauses, rep.counterexample)

    def test_corner_products(self):
        pres, _ = s3_presentation(Z)
        lab = label_map(pres)
        d, u = pres.basis_vector(lab["d"]), pres.basis_vector(lab["u"])
        assert pres.format_element(pres.mul(d, u)) == "2*v"
        assert pres.format_element(pres.mul(u, d)) == "a + b"
        b = pres.basis_vector(lab["b"])
        assert pres.mul(b, b) == pres.basis_vector(lab["a"])

    def test_unit_is_a_plus_v(self):
        pres, _ = s3_presentation(Z)
        lab = label_map(pres)
        expected = pres.zero_vector()
        expected[lab["a"]] = 1
        expected[lab["v"]] = 1
        assert pres.unit == expected


class TestIsoEven:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_witness_passes(self, m):
        for ring in (Z, GF2, Q):
            rep = check_witness(iso_even(ring, m))
            assert rep.verdict == "pass", (ring.literal(), m, rep.clauses)

    def test_m1_reduces_to_s2(self):
        w1 = iso_even(Z, 1)
        ws2 = iso_s2(Z)
        assert w1.matrix == ws2.matrix
        assert w1.source.labels == ws2.source.labels

    def test_unit_images_n4(self):
        w = iso_even(Z, 2)
        spos = label_map(w.source)
        tpos = label_map(w.target)
        matrix = [to_dense(Z, row, w.target.rank) for row in w.matrix]
        assert matrix[spos["E1_2"]] == w.target.basis_vector(tpos["f1_2"])
        assert matrix[spos["x*E1_2"]] == w.target.basis_vector(tpos["f1_3"])

    def test_x_unit_squares(self):
        w = iso_even(Z, 2)
        spos = label_map(w.source)
        img = w.apply(w.source.basis_vector(spos["x*E1_1"]))
        assert w.target.mul(img, img) == w.apply(w.source.basis_vector(spos["E1_1"]))

    def test_rank_bookkeeping(self):
        for m in (1, 2, 3):
            w = iso_even(Z, m)
            assert w.source.rank == w.target.rank == 2 * m * m == rank_of(2 * m)


class TestIsoOddQuotient:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_witness_passes(self, m):
        for ring in (Z, GF2, Q):
            rep = check_witness(iso_odd_quotient(ring, m))
            assert rep.verdict == "pass", (ring.literal(), m, rep.clauses)

    def test_sign_identity(self):
        n = 5
        a, ideal, quot, proj = odd_quotient(Z, 2)
        pos = positions(n)
        for i in (1, 2):
            for j in (1, 2):
                pij = proj.apply(a.basis_vector(pos[(i, j)]))
                pmirror = proj.apply(a.basis_vector(pos[(i, n + 1 - j)]))
                assert pij == [Z.neg(x) for x in pmirror]

    def test_m1_quotient_is_rank_one(self):
        a, ideal, quot, proj = odd_quotient(Q, 1)
        assert quot.rank == 1
        w = iso_odd_quotient(Q, 1)
        assert w.apply(quot.unit) == w.target.unit

    def test_zero_coset_maps_to_zero(self):
        a, ideal, quot, proj = odd_quotient(Z, 2)
        w = iso_odd_quotient(Z, 2)
        for v in ideal.sparse_rows:
            assert w.apply(proj.apply(v)) == w.target.zero_vector()

    def test_ideal_rank_bookkeeping(self):
        for m in (1, 2, 3):
            n = 2 * m + 1
            _, ideal, quot, _ = odd_quotient(Z, m)
            assert ideal.rank == (m + 1) ** 2
            assert ideal.rank + quot.rank == rank_of(n)


class TestMorita:
    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_witnesses_pass(self, n):
        for j in range(2, n // 2 + 1):
            mw = morita_column_iso(Z, n, j)
            rep = check_witness(mw)
            assert rep.verdict == "pass", (n, j, rep.clauses, rep.counterexample)

    def test_module_ranks_equal_n(self):
        for n in (4, 5, 6):
            a_mod = column_module(
                morita_column_iso(Z, n, 2).source.algebra, Z, n, 1)
            assert a_mod.rank == n

    def test_generator_image_n5(self):
        # the column-1 generator f1_1 goes to the column-2 generator f1_2
        mw = morita_column_iso(Z, 5, 2)
        src, tgt = mw.source, mw.target
        a = src.algebra
        pos = positions(5)
        k = [to_dense(Z, v, a.rank) for v in src.vectors].index(a.basis_vector(pos[(1, 1)]))
        img = to_dense(Z, mat_vec_sparse(a.ring, tgt.vectors, mw.matrix[k]), a.rank)
        assert img == a.basis_vector(pos[(1, 2)])

    def test_columns_share_the_source_module_within_a_scope_only(self):
        # S*f_1 and its tracked row basis are built once per size in a block
        with shared_builds():
            w2, w3 = morita_column_iso(GF5, 7, 2), morita_column_iso(GF5, 7, 3)
            assert w2.source is w3.source and w2.target is not w3.target
            assert w2.source.rowbasis() is w3.source.rowbasis()
        assert morita_column_iso(GF5, 7, 2).source is not morita_column_iso(GF5, 7, 3).source

    def test_range_errors(self):
        with pytest.raises(ValueError):
            morita_column_iso(Z, 3, 2)
        with pytest.raises(ValueError):
            morita_column_iso(Z, 5, 3)
        with pytest.raises(ValueError):
            morita_column_iso(Z, 6, 1)


class TestEndring:
    @pytest.mark.parametrize("n", [5, 7])
    def test_relations_and_witness(self, n):
        for ring in (Z, GF2, Q):
            end, w = endring_odd(ring, n)
            assert end.rank == 5
            assert end.validate() == []
            lab = label_map(end)
            mid = (n + 1) // 2
            up = end.mul(end.basis_vector(lab[f"f1_{mid}"]),
                         end.basis_vector(lab[f"f{mid}_1"]))
            expected = end.zero_vector()
            expected[lab["f1_1"]] = ring.one()
            expected[lab[f"f1_{n}"]] = ring.one()
            assert up == expected
            down = end.mul(end.basis_vector(lab[f"f{mid}_1"]),
                           end.basis_vector(lab[f"f1_{mid}"]))
            expected2 = end.zero_vector()
            expected2[lab[f"f{mid}_{mid}"]] = ring.from_int(2)
            assert down == expected2
            rep = check_witness(w)
            assert rep.verdict == "pass", (ring.literal(), n, rep.clauses)

    def test_size_errors(self):
        with pytest.raises(ValueError):
            endring_odd(Z, 4)
        with pytest.raises(ValueError):
            endring_odd(Z, 3)


class TestWedderburn:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_split(self, n):
        for ring in (Q, GF5):
            ws = wedderburn_split(ring, n)
            k = (n + 1) // 2
            assert ws.plus_algebra.rank == k * k
            assert ws.minus_algebra.rank == (n - k) * (n - k)
            assert k * k + (n - k) * (n - k) == rank_of(n)
            rep = check_witness(ws.witness)
            assert rep.verdict == "pass", (ring.literal(), n, rep.clauses)

    def test_pieces_match_full_matrix_tables(self):
        ws = wedderburn_split(Q, 5)
        assert ws.plus_algebra.table == full_matrix_algebra(Q, 3).table
        assert ws.minus_algebra.table == full_matrix_algebra(Q, 2).table

    def test_central_idempotents(self):
        ws = wedderburn_split(Q, 4)
        a = ws.witness.source
        p_plus, p_minus = (to_dense(Q, p, a.rank) for p in (ws.p_plus, ws.p_minus))
        assert a.mul(p_plus, p_plus) == p_plus
        assert a.mul(p_minus, p_minus) == p_minus
        assert a.mul(p_plus, p_minus) == a.zero_vector()
        total = [Q.add(x, y) for x, y in zip(p_plus, p_minus)]
        assert total == a.unit
        for u in range(a.rank):
            b = a.basis_vector(u)
            assert a.mul(p_plus, b) == a.mul(b, p_plus)

    def test_n1_splits_off_zero(self):
        ws = wedderburn_split(Q, 1)
        assert ws.plus_algebra.rank == 1
        assert ws.minus_algebra.rank == 0

    def test_group_ring_case_n2(self):
        # size 2 is the group ring; over GF(5) it splits into two lines
        ws = wedderburn_split(GF5, 2)
        assert ws.plus_algebra.rank == 1 and ws.minus_algebra.rank == 1

    def test_rescaled_unit_fails_the_homomorphism_claim(self):
        # p:E1_2 scaled by 2 and its coordinate by 1/2: still a two-sided
        # inverse, but the units no longer multiply as matrix units
        w = wedderburn_split(Q, 3).witness
        w.matrix = [to_dense(Q, row, w.target.rank) for row in w.matrix]
        w.inverse = [to_dense(Q, row, w.source.rank) for row in w.inverse]
        k = w.target.labels.index("p:E1_2")
        w.inverse[k] = [Q.mul(Q.from_int(2), x) for x in w.inverse[k]]
        half = Q.inv(Q.from_int(2))
        for row in w.matrix:
            row[k] = Q.mul(half, row[k])
        rep = check_witness(w)
        assert rep.verdict == "fail"
        assert rep.clauses == {"algebra-homomorphism": "fail", "bijective": "pass"}
        assert rep.counterexample == {"input": "(f1_2, f2_1)", "lhs": "2*p:E1_1",
                                      "rhs": "p:E1_1", "property": "algebra-homomorphism"}

    def test_two_must_be_invertible(self):
        with pytest.raises(ValueError, match="2 invertible"):
            wedderburn_split(Z, 3)


def test_iso_odd_quotient_over_group_ring_coefficients():
    from censym.rings import GroupRingC2

    rep = check_witness(iso_odd_quotient(GroupRingC2(Z), 1))
    assert rep.verdict == "pass", rep.clauses


def test_wedderburn_over_group_ring_with_invertible_two():
    from censym.rings import GroupRingC2

    ws = wedderburn_split(GroupRingC2(Q), 3)
    assert ws.plus_algebra.rank == 4 and ws.minus_algebra.rank == 1
    assert check_witness(ws.witness).verdict == "pass"
