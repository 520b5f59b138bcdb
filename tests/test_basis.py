import random

import pytest

from censym import basis as fb
from censym.algebra import algebra_of_censym
from censym.basis import (
    BasisIndex,
    CentroMatrix,
    canon_index,
    canonical_basis,
    canonical_indices,
    coords,
    exchange_coords,
    formula_applicable,
    formula_product,
    from_coords,
    half_ceil,
    positions,
    rank_of,
    structure_constants,
)
from censym.matrices import Matrix, exchange, is_centrosymmetric, matrix_unit
from censym.rings import ring_from_literal

from conftest import GF2, GF5, Q, Z


def f_matrix(n, i, j):
    """f[i, j] over the integers as a Matrix, the index canonicalized first."""
    return from_coords(Z, n, {positions(n)[canon_index(n, i, j)]: 1}).inner


def labels(ring, n):
    return {ix.label: u for u, ix in enumerate(canonical_indices(n))}


def test_is_centrosymmetric_examples():
    assert is_centrosymmetric(exchange(Z, 4))
    assert is_centrosymmetric(Matrix.identity(Z, 5))
    assert not is_centrosymmetric(matrix_unit(Z, 2, 1, 1))


def test_centro_matrix_certifies():
    with pytest.raises(ValueError):
        CentroMatrix(matrix_unit(Z, 2, 1, 1))
    cm = CentroMatrix(exchange(Z, 3))
    assert cm.n == 3


def test_canonical_basis_n3():
    b = canonical_basis(Z, 3)
    assert [ix.label for ix, _ in b] == ["f1_1", "f1_2", "f1_3", "f2_1", "f2_2"]
    mats = {ix.label: m.inner for ix, m in b}
    assert mats["f1_1"] == matrix_unit(Z, 3, 1, 1) + matrix_unit(Z, 3, 3, 3)
    assert mats["f2_2"] == matrix_unit(Z, 3, 2, 2)
    assert mats["f1_2"] == matrix_unit(Z, 3, 1, 2) + matrix_unit(Z, 3, 3, 2)
    assert mats["f1_3"] == matrix_unit(Z, 3, 1, 3) + matrix_unit(Z, 3, 3, 1)
    assert mats["f2_1"] == matrix_unit(Z, 3, 2, 1) + matrix_unit(Z, 3, 2, 3)


def test_canonical_basis_small():
    b2 = canonical_basis(Z, 2)
    assert [ix.label for ix, _ in b2] == ["f1_1", "f1_2"]
    assert b2[0][1].inner == Matrix.identity(Z, 2)
    b1 = canonical_basis(Z, 1)
    assert len(b1) == 1 and b1[0][1].inner == Matrix.identity(Z, 1)


def test_rank_counts():
    for n in range(1, 13):
        assert len(canonical_indices(n)) == rank_of(n) == (n * n + 1) // 2


@pytest.mark.parametrize("n", [0, -1, -3])
def test_non_positive_size_rejected(n):
    with pytest.raises(ValueError, match="matrix size must be >= 1"):
        canonical_indices(n)
    with pytest.raises(ValueError, match="matrix size must be >= 1"):
        structure_constants(Z, n)


def test_canon_index():
    assert canon_index(3, 3, 1) == (1, 3)
    assert canon_index(3, 2, 3) == (2, 1)
    assert canon_index(4, 3, 2) == (2, 3)
    assert canon_index(5, 3, 5) == (3, 1)
    with pytest.raises(IndexError):
        canon_index(3, 0, 1)


def test_coords_examples():
    v = coords(CentroMatrix(Matrix.identity(Z, 3)))
    # basis order is lexicographic on (i, j): f1_1, f1_2, f1_3, f2_1, f2_2
    assert v == [1, 0, 0, 0, 1]
    assert exchange_coords(Z, 3) == [0, 0, 1, 0, 1]
    lab = labels(Z, 3)
    u = [0] * 5
    u[lab["f1_2"]] = 1
    assert coords(CentroMatrix(f_matrix(3, 1, 2))) == u


def test_coords_round_trip(any_ring):
    rng = random.Random(13)
    for n in range(1, 9):
        for _ in range(5):
            v = [any_ring.sample(rng) for _ in range(rank_of(n))]
            assert coords(from_coords(any_ring, n, v)) == v


def test_from_coords_errors():
    with pytest.raises(ValueError):
        from_coords(Z, 3, [1, 2, 3])


def test_structure_constants_pinned_products():
    lab = labels(Z, 3)
    sc = structure_constants(Z, 3)

    def product(lu, lv):
        return {w: c for w, c in sc.get((lab[lu], lab[lv]), ())}

    assert product("f1_2", "f2_1") == {lab["f1_1"]: 1, lab["f1_3"]: 1}
    assert product("f2_1", "f1_2") == {lab["f2_2"]: 2}
    assert product("f1_3", "f1_3") == {lab["f1_1"]: 1}
    assert product("f1_1", "f1_2") == {lab["f1_2"]: 1}
    assert product("f2_2", "f2_2") == {lab["f2_2"]: 1}


@pytest.mark.parametrize("ring", [Z, GF2], ids=lambda r: r.literal())
def test_formula_matches_oracle(ring):
    for n in range(1, 9):
        idxs = canonical_indices(n)
        table = structure_constants(ring, n)
        for u, a in enumerate(idxs):
            for v, b in enumerate(idxs):
                f = formula_product(ring, n, a, b)
                if f is None:
                    assert not formula_applicable(n, a, b)
                    continue
                oracle = {(idxs[w].i, idxs[w].j): c for w, c in table.get((u, v), ())}
                assert oracle == f, (n, a.label, b.label)


def test_formula_degenerate_pairs_are_excluded():
    # the middle-row-times-middle-column products double up
    assert not formula_applicable(3, BasisIndex(3, 2, 1), BasisIndex(3, 1, 2))
    assert not formula_applicable(3, BasisIndex(3, 2, 2), BasisIndex(3, 2, 1))
    assert formula_applicable(3, BasisIndex(3, 1, 2), BasisIndex(3, 2, 1))
    assert formula_applicable(4, BasisIndex(4, 2, 2), BasisIndex(4, 2, 2))


def test_squares_of_antidiagonal_elements():
    # f[i, n+1-j] squared is f[i,j] when i == j, f[i,n+1-j] when i+j == n+1,
    # zero otherwise
    for n in range(2, 7):
        lab = labels(Z, n)
        sc = structure_constants(Z, n)
        k = half_ceil(n)
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                ci, cj = canon_index(n, i, n + 1 - j)
                u = lab[f"f{ci}_{cj}"]
                got = {w: c for w, c in sc.get((u, u), ())}
                if i == j:
                    expect = {lab["f%d_%d" % canon_index(n, i, j)]: 1}
                elif i + j == n + 1:
                    expect = {lab[f"f{ci}_{cj}"]: 1}
                else:
                    expect = {}
                assert got == expect, (n, i, j)


def diagonal_idempotents(a, n):
    lab = labels(a.ring, n)
    return [a.basis_vector(lab[f"f{i}_{i}"]) for i in range(1, half_ceil(n) + 1)]


def test_idempotents():
    assert f_matrix(5, 3, 3) == matrix_unit(Z, 5, 3, 3)
    assert f_matrix(4, 1, 1) == matrix_unit(Z, 4, 1, 1) + matrix_unit(Z, 4, 4, 4)
    assert f_matrix(4, 2, 2) == matrix_unit(Z, 4, 2, 2) + matrix_unit(Z, 4, 3, 3)
    assert f_matrix(1, 1, 1) == Matrix.identity(Z, 1)

    # f_1 .. f_ceil(n/2) are orthogonal idempotents summing to the unit
    for ring in (Z, Q):
        for n in range(1, 7):
            a = algebra_of_censym(ring, n)
            ids = diagonal_idempotents(a, n)
            for i, fi in enumerate(ids):
                for j, fj in enumerate(ids):
                    assert a.mul(fi, fj) == (fi if i == j else a.zero_vector())
            assert [sum(col) for col in zip(*ids)] == a.unit


def peirce_labels(n, i, j):
    """The canonical basis labels of the corner f_i * S * f_j."""
    return {"f%d_%d" % canon_index(n, i, jj) for jj in (j, n + 1 - j)}


def test_peirce_components():
    assert peirce_labels(3, 1, 1) == {"f1_1", "f1_3"}
    assert peirce_labels(3, 2, 2) == {"f2_2"}
    assert peirce_labels(4, 1, 2) == {"f1_2", "f1_3"}
    # the corners partition the canonical basis
    for n in range(1, 9):
        k = half_ceil(n)
        corners = [peirce_labels(n, i, j) for i in range(1, k + 1) for j in range(1, k + 1)]
        assert sum(map(len, corners)) == rank_of(n)
        assert set().union(*corners) == set(labels(Z, n))


def test_peirce_spans_are_corners():
    # f_i * b * f_j lies in the span of the corner cells for every basis
    # element b, and each corner element is fixed by f_i and f_j
    for n in (1, 2, 3, 4, 5):
        a = algebra_of_censym(Z, n)
        ids = diagonal_idempotents(a, n)
        lab = labels(Z, n)
        k = half_ceil(n)
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                corner = {lab[c] for c in peirce_labels(n, i, j)}
                for u in range(a.rank):
                    b = a.basis_vector(u)
                    w = a.mul(a.mul(ids[i - 1], b), ids[j - 1])
                    assert {v for v, c in enumerate(w) if c} <= corner
                    assert (w == b) == (u in corner)


def test_transpose_permutes_basis():
    for n in range(1, 8):
        idxs = canonical_indices(n)
        index_set = {(ix.i, ix.j) for ix in idxs}
        for ix in idxs:
            t = f_matrix(n, ix.i, ix.j).transpose()
            ti, tj = canon_index(n, ix.j, ix.i)
            assert (ti, tj) in index_set
            assert t == f_matrix(n, ti, tj)
            fixed = (ti, tj) == (ix.i, ix.j)
            assert fixed == (ix.i == ix.j or ix.i + ix.j == n + 1)


def test_seq_codec_round_trip(any_ring):
    # a palindromic entry tuple is a centrosymmetric matrix, and its
    # canonical coordinates rebuild it
    rng = random.Random(17)
    for n in (1, 2, 3, 4):
        total = n * n
        half = [any_ring.sample(rng) for _ in range((total + 1) // 2)]
        full = half + [half[total - 1 - i] for i in range(len(half), total)]
        m = Matrix(any_ring, n, full)
        assert is_centrosymmetric(m)
        assert from_coords(any_ring, n, coords(m)).inner == m


def test_seq_iff_centrosymmetric():
    rng = random.Random(19)
    for _ in range(20):
        e = tuple(Z.sample(rng) for _ in range(9))
        for entries in (e, e[:5] + e[3::-1]):
            assert is_centrosymmetric(Matrix(Z, 3, entries)) == (entries == entries[::-1])


def test_closure_on_basis_pairs():
    for ring in (Z, GF5):
        for n in (2, 3, 4, 5):
            b = canonical_basis(ring, n)
            for _, fu in b:
                for _, fv in b:
                    assert is_centrosymmetric((fu * fv).inner)


def test_from_coords_pinned_values():
    assert from_coords(Z, 3, [0, 0, 0, 0, 0]).inner == Matrix.zero(Z, 3)
    # unit coordinates sit at the diagonal indices (1,1) and (2,2)
    assert from_coords(Z, 3, [1, 0, 0, 0, 1]).inner == Matrix.identity(Z, 3)


GRID_LITERALS = ["int", "rat", "zmod:4", "gf:2", "gf:5", "c2:int"]


def all_pairs_structure_constants(ring, n: int) -> dict:
    """The oracle over every basis pair, accumulating each unit product with
    ring.add: the independent reference for the row-bucketed table."""
    idxs = canonical_indices(n)
    pos = fb.positions(n)
    cells = [fb.unit_cells(n, ix.i, ix.j) for ix in idxs]
    add, one, zero = ring.add, ring.one(), ring.zero()
    table = {}
    for u, cu in enumerate(cells):
        for v, cv in enumerate(cells):
            prod = {}
            for a, b in cu:
                for c, d in cv:
                    if b == c:
                        prod[a, d] = add(prod.get((a, d), zero), one)
            for (a, d), x in prod.items():
                if prod.get((n + 1 - a, n + 1 - d), zero) != x:
                    raise fb.NotClosed(f"({idxs[u].label}, {idxs[v].label})")
            terms = sorted((pos[cell], x) for cell, x in prod.items()
                           if cell in pos and x != zero)
            if terms:
                table[(u, v)] = tuple(terms)
    return table


def tuple_keyed_rows(ring, n: int) -> dict:
    """The bucketed oracle on (i, j) cell tuples and a ``positions`` dict: the
    value and key-order reference for the cell-numbered ``structure_rows``."""
    idxs = canonical_indices(n)
    pos = fb.positions(n)
    cells = [fb.unit_cells(n, ix.i, ix.j) for ix in idxs]
    value = [ring.zero()]
    for _ in range(max(map(len, cells)) ** 2):
        value.append(ring.add(value[-1], ring.one()))
    under = {}
    for v, cv in enumerate(cells):
        for c, d in cv:
            under.setdefault(c, {}).setdefault(v, []).append(d)
    rows = {}
    for u, cu in enumerate(cells):
        left = [(a, under.get(b, {})) for a, b in cu]
        for v in sorted({v for _, bucket in left for v in bucket}):
            prod = {}
            for a, bucket in left:
                for d in bucket.get(v, ()):
                    prod[a, d] = prod.get((a, d), 0) + 1
            for (a, d), k in prod.items():
                m = prod.get((n + 1 - a, n + 1 - d), 0)
                if k != m and value[k] != value[m]:
                    raise fb.NotClosed(f"({idxs[u].label}, {idxs[v].label})")
            terms = {pos[cell]: value[prod[cell]] for cell in sorted(prod)
                     if cell in pos and value[prod[cell]] != value[0]}
            if terms:
                rows.setdefault(u, {})[v] = terms
    return rows


@pytest.mark.parametrize("literal", GRID_LITERALS + ["c2:gf:2"])
def test_bucketed_oracle_matches_all_pairs_reference(literal):
    """The flat table equals the all-pairs reference, and the nested rows'
    repr (payloads and key order at every level) is the tuple-keyed oracle's."""
    ring = ring_from_literal(literal)
    for n in range(1, 17):
        table, ref = structure_constants(ring, n), all_pairs_structure_constants(ring, n)
        assert table == ref, n
        assert list(table) == list(ref), n  # the same row-major key order
        assert repr(fb.structure_rows(ring, n)) == repr(tuple_keyed_rows(ring, n)), n


@pytest.mark.parametrize("literal", ["int", "gf:2", "c2:int"])
def test_dropped_mirror_cells_fail_at_the_reference_pair(literal, monkeypatch):
    """Negative control: without their mirror cells the basis products leave
    the centrosymmetric matrices; the bucketed oracle names the same first
    pair as the all-pairs reference, in gf:2 as well."""
    ring = ring_from_literal(literal)
    real = fb.unit_cells
    monkeypatch.setattr(fb, "unit_cells", lambda n, i, j: real(n, i, j)[:1])
    for n in range(2, 8):
        with pytest.raises(fb.NotClosed) as ref:
            all_pairs_structure_constants(ring, n)
        with pytest.raises(fb.NotClosed) as got:
            structure_constants(ring, n)
        assert got.value.pair == ref.value.pair, n


def test_multiplicities_are_read_into_the_ring_before_comparing(monkeypatch):
    """With each f listed as its first cell twice, a product cell counts 4
    unit products and its mirror none.  Over int that is not closed; over
    gf:2 and zmod:4 the 4 is zero, so every product is zero and closed."""
    real = fb.unit_cells
    monkeypatch.setattr(fb, "unit_cells", lambda n, i, j: real(n, i, j)[:1] * 2)
    with pytest.raises(fb.NotClosed) as got:
        structure_constants(Z, 3)
    assert got.value.pair == "(f1_1, f1_1)"
    for literal in ("gf:2", "zmod:4"):
        ring = ring_from_literal(literal)
        assert structure_constants(ring, 3) == all_pairs_structure_constants(ring, 3) == {}


def test_canonical_cells_are_the_first_cells_in_basis_order():
    """f_u's canonical cell is the row-major cell u, and its mirror n*n-1-u
    is a canonical cell only for the odd middle cell, its own mirror."""
    for n in range(1, 17):
        cells = [(ix.i - 1) * n + ix.j - 1 for ix in canonical_indices(n)]
        assert cells == list(range(rank_of(n))), n
        self_mirrored = [u for u in cells if n * n - 1 - u < rank_of(n)]
        assert self_mirrored == ([] if n % 2 == 0 else [cells[-1]]), n


MUTATIONS = {
    "canonical-only": lambda cells: cells[:1],
    "mirror-only": lambda cells: cells[-1:],
    "canonical-twice": lambda cells: cells[:1] * 2,
    "swapped": lambda cells: cells[::-1] + cells[:1],
    "reversed": lambda cells: cells[::-1],  # closed, but cells meet in another order
}


@pytest.mark.parametrize("mutation", MUTATIONS.values(), ids=MUTATIONS.keys())
@pytest.mark.parametrize("literal", ["int", "gf:2", "gf:5", "zmod:4", "c2:int"])
def test_mutated_unit_cells_give_the_tuple_keyed_outcome(literal, mutation, monkeypatch):
    """Negative controls: with mutated unit cells, the cell-numbered oracle
    raises NotClosed on the tuple-keyed oracle's pair, or gives its rows."""
    ring = ring_from_literal(literal)
    real = fb.unit_cells
    monkeypatch.setattr(fb, "unit_cells", lambda n, i, j: mutation(real(n, i, j)))

    def outcome(oracle, n):
        try:
            return repr(oracle(ring, n))
        except fb.NotClosed as exc:
            return exc.pair

    for n in range(1, 10):
        assert outcome(fb.structure_rows, n) == outcome(tuple_keyed_rows, n), n


def tuple_keyed_formula(ring, n, a, b):
    """``formula_product`` through ``canon_index`` and a 1 + 1 check: the
    reference for its inline canonical column."""
    if not formula_applicable(n, a, b):
        return None
    out, one, zero = {}, ring.one(), ring.zero()
    for p, q in ((b.i, b.j), (n + 1 - b.i, n + 1 - b.j)):
        if p == a.j:
            w = canon_index(n, a.i, q)
            out[w] = ring.add(out.get(w, zero), one)
            if out[w] == zero:
                del out[w]
    return out


@pytest.mark.parametrize("literal", GRID_LITERALS + ["c2:gf:2"])
def test_formula_product_matches_the_canon_index_reference(literal):
    ring = ring_from_literal(literal)
    for n in range(1, 12):
        idxs = canonical_indices(n)
        mid = half_ceil(n)
        for a in idxs:
            for b in idxs:
                want = tuple_keyed_formula(ring, n, a, b)
                assert repr(formula_product(ring, n, a, b)) == repr(want), (n, a, b)
                assert formula_applicable(n, a, b) == (n % 2 == 0 or not (
                    (a.i, a.j) == (mid, mid) or (b.i, b.j) == (mid, mid)
                    or (a.i == mid and b.j == mid))), (n, a, b)
