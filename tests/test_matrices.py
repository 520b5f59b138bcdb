import random

import pytest

from censym.matrices import (
    Matrix,
    exchange,
    is_centrosymmetric,
    is_persymmetric,
    is_symmetric,
    matrix_unit,
    symmetry_class,
)
from censym.rings import RingMismatchError, ring_from_literal

from conftest import C2Z, GF2, GF5, Q, Z, Z4


def rand_matrix(ring, n, rng):
    return Matrix(ring, n, [ring.sample(rng) for _ in range(n * n)])


def rand_matrix_with_zero_lines(ring, n, rng):
    """A random matrix whose randomly chosen rows and columns are zero."""
    rows = {i for i in range(n) if rng.random() < 0.3}
    cols = {j for j in range(n) if rng.random() < 0.3}
    return Matrix(ring, n, [ring.zero() if p // n in rows or p % n in cols else ring.sample(rng)
                            for p in range(n * n)])


def test_matrix_units():
    e12 = matrix_unit(Z, 2, 1, 2)
    assert e12[1, 2] == 1 and e12[1, 1] == 0 and e12[2, 1] == 0 and e12[2, 2] == 0
    assert e12 * matrix_unit(Z, 2, 2, 1) == matrix_unit(Z, 2, 1, 1)
    assert e12 * e12 == Matrix.zero(Z, 2)
    with pytest.raises(IndexError):
        matrix_unit(Z, 2, 0, 1)
    with pytest.raises(IndexError):
        matrix_unit(Z, 2, 1, 3)


def test_exchange():
    c = exchange(Z, 3)
    assert c == (matrix_unit(Z, 3, 1, 3) + matrix_unit(Z, 3, 2, 2)
                 + matrix_unit(Z, 3, 3, 1))
    for n in range(1, 9):
        cn = exchange(Z, n)
        assert cn * cn == Matrix.identity(Z, n)
    assert exchange(Z, 1) == Matrix.identity(Z, 1)


def test_conj_by_c():
    assert matrix_unit(Z, 2, 1, 1).conj_by_c() == matrix_unit(Z, 2, 2, 2)
    assert Matrix.identity(Z, 4).conj_by_c() == Matrix.identity(Z, 4)
    rng = random.Random(3)
    for n in (2, 3, 5):
        a = rand_matrix(Z, n, rng)
        assert a.conj_by_c().conj_by_c() == a
        # conjugation equals the two-sided product with the exchange matrix
        c = exchange(Z, n)
        assert a.conj_by_c() == c * a * c


def test_conj_is_automorphism_on_units():
    for n in (2, 3, 4):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for p in range(1, n + 1):
                    for q in range(1, n + 1):
                        a = matrix_unit(Z, n, i, j)
                        b = matrix_unit(Z, n, p, q)
                        assert (a * b).conj_by_c() == a.conj_by_c() * b.conj_by_c()


def test_transpose():
    assert matrix_unit(Z, 2, 1, 2).transpose() == matrix_unit(Z, 2, 2, 1)
    rng = random.Random(5)
    for n in (2, 4):
        a = rand_matrix(Q, n, rng)
        b = rand_matrix(Q, n, rng)
        assert (a * b).transpose() == b.transpose() * a.transpose()
        assert a.transpose().transpose() == a


def test_symmetry_class_bisymmetric_example():
    a = (matrix_unit(Z, 3, 1, 1) + matrix_unit(Z, 3, 1, 3)
         + matrix_unit(Z, 3, 3, 1) + matrix_unit(Z, 3, 3, 3))
    b = (matrix_unit(Z, 3, 1, 2) + matrix_unit(Z, 3, 2, 1)
         + matrix_unit(Z, 3, 2, 3) + matrix_unit(Z, 3, 3, 2))
    assert symmetry_class(a) == frozenset(
        {"symmetric", "persymmetric", "bisymmetric", "centrosymmetric"})
    assert symmetry_class(b) == frozenset(
        {"symmetric", "persymmetric", "bisymmetric", "centrosymmetric"})
    p = a * b
    assert p == (matrix_unit(Z, 3, 1, 2) + matrix_unit(Z, 3, 3, 2)).scale(2)
    assert is_centrosymmetric(p)
    assert "bisymmetric" not in symmetry_class(p)
    assert not is_symmetric(p)


def test_identity_has_all_flags():
    assert symmetry_class(Matrix.identity(Z, 4)) == frozenset(
        {"symmetric", "persymmetric", "bisymmetric", "centrosymmetric"})


def test_bisymmetric_implies_centrosymmetric():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 5)
        a = rand_matrix(GF5, n, rng)
        sym = a + a.transpose()
        bis = sym + sym.conj_by_c()  # symmetric and persymmetric by construction
        assert is_symmetric(bis) and is_persymmetric(bis)
        assert is_centrosymmetric(bis)


def to_text(a: Matrix) -> str:
    """The matrix-file text of a matrix: the header line, then one row per line."""
    rows = (" ".join(a.ring.format(a[i, j]) for j in range(1, a.n + 1))
            for i in range(1, a.n + 1))
    return "\n".join([f"n {a.n} ring {a.ring.literal()}", *rows]) + "\n"


def test_text_round_trip():
    rng = random.Random(9)
    for lit in ("int", "rat", "zmod:6", "c2:int", "c2:zmod:4"):
        ring = ring_from_literal(lit)
        a = rand_matrix(ring, 3, rng)
        assert Matrix.from_text(to_text(a)) == a


def test_text_errors():
    from censym.rings import RingError

    with pytest.raises(RingError):
        Matrix.from_text("")
    with pytest.raises(RingError):
        Matrix.from_text("m 2 ring int\n1 0\n0 1\n")
    with pytest.raises(RingError):
        Matrix.from_text("n 2 ring int\n1 0\n")
    with pytest.raises(RingError):
        Matrix.from_text("n 2 ring int\n1 0 0\n0 1 0\n")
    for text in ("n 0 ring int\n", "n -1 ring int\n"):
        with pytest.raises(RingError, match="matrix size must be >= 1"):
            Matrix.from_text(text)


def test_mismatch_errors():
    a = Matrix.identity(Z, 2)
    b = Matrix.identity(Q, 2)
    with pytest.raises(RingMismatchError):
        a * b
    with pytest.raises(ValueError):
        a * Matrix.identity(Z, 3)


def test_scale():
    a = matrix_unit(Z, 2, 1, 2)
    assert a.scale(3)[1, 2] == 3


def test_matrix_ring_axioms_sampled():
    rng = random.Random(31)
    for ring in (Z, GF5):
        for _ in range(15):
            n = rng.randint(1, 4)
            a, b, c = (rand_matrix(ring, n, rng) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a + b) * c == a * c + b * c
            eye = Matrix.identity(ring, n)
            assert a * eye == a and eye * a == a


def test_dense_and_sparse_forms_give_one_matrix():
    rng = random.Random(11)
    for ring in (Z, Z4, C2Z):
        for n in (1, 2, 4):
            a = rand_matrix_with_zero_lines(ring, n, rng)
            # every position keyed, zeros included: the boundary drops them
            b = Matrix(ring, n, dict(enumerate(a.entries)))
            assert b == a and hash(b) == hash(a)
            assert Matrix(ring, n, a.cells) == a
            assert b.cells == {p: x for p, x in enumerate(a.entries) if not ring.is_zero(x)}


def test_a_matrix_stores_no_zero():
    """Engine results keep the cells they build unchecked: none may hold a
    zero or a key outside range(n*n), and each is what the checked
    constructor makes of its entries."""
    assert Matrix(Z4, 1, [2]).scale(2) == Matrix.zero(Z4, 1)
    assert Matrix(Z4, 1, [2]).scale(2).cells == {}
    assert Matrix.zero(Z, 3).cells == {} and matrix_unit(Z, 3, 2, 3).cells == {5: 1}
    rng = random.Random(13)
    for ring in (Z4, GF2, C2Z):
        minus_one = ring.neg(ring.one())
        for _ in range(30):
            n = rng.randint(1, 5)
            a, b = (rand_matrix_with_zero_lines(ring, n, rng) for _ in range(2))
            results = (a.transpose(), a.conj_by_c(), a + b, a * b, b * a,
                       a.scale(ring.sample(rng)), a + a.scale(minus_one))
            for m in results:
                assert not any(ring.is_zero(x) for x in m.cells.values())
                assert all(0 <= p < n * n for p in m.cells)
                assert m.cells == Matrix(ring, n, m.entries).cells
            assert results[-1].cells == {}


def test_the_constructor_checks_cells_from_outside():
    for bad in ([1, 2, 3], [1] * 5, {4: 1}, {-1: 1}, {0: 1, 9: 1}):
        with pytest.raises(ValueError, match="expected 4 entries for size 2"):
            Matrix(Z, 2, bad)
    assert Matrix(Z4, 2, {0: 0, 3: 1}).cells == {3: 1}
    assert Matrix(Z4, 2, [0, 0, 0, 1]).cells == {3: 1}
    assert Matrix(C2Z, 2, {1: (0, 0), 2: (0, 1)}).cells == {2: (0, 1)}
