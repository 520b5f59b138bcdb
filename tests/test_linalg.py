import pytest

from censym.linalg import (
    FreenessUndetermined,
    RowBasis,
    mat_vec,
    nullspace,
    span_basis,
)

from conftest import GF5, Q, Z, Z4


def test_rowbasis_membership():
    rb = RowBasis(Z, 3)
    assert rb.insert([1, 2, 0])
    assert rb.insert([0, 1, 1])
    assert not rb.insert([1, 3, 1])  # dependent
    assert rb.rank == 2
    assert rb.contains([2, 5, 1])
    assert not rb.contains([0, 0, 1])


def test_rowbasis_express():
    rb = RowBasis(Q, 3, track=True)
    rb.insert_all([[Q.from_int(1), Q.from_int(1), Q.from_int(0)],
                   [Q.from_int(0), Q.from_int(1), Q.from_int(1)]])
    cs = rb.express([Q.from_int(2), Q.from_int(3), Q.from_int(1)])
    assert cs == [Q.from_int(2), Q.from_int(1)]
    assert rb.express([Q.from_int(0), Q.from_int(0), Q.from_int(1)]) is None


def test_rowbasis_express_over_int_with_elimination_order():
    rb = RowBasis(Z, 2, track=True)
    rb.insert_all([[1, 1], [0, 1]])
    assert rb.express([3, 5]) == [3, 2]


def test_freeness_undetermined():
    rb = RowBasis(Z, 2)
    with pytest.raises(FreenessUndetermined):
        rb.insert([2, 0])
    with pytest.raises(FreenessUndetermined, match="column 0; leading value 2"):
        rb.insert([2, 4])
    # over a field the same vector is fine
    rb5 = RowBasis(GF5, 2)
    assert rb5.insert([2, 0])


def test_insert_pivots_on_the_first_unit_entry():
    # the leading entry 2 is not a unit over the integers, the next one is
    rb = RowBasis(Z, 2, track=True)
    assert rb.insert([2, 1])
    assert rb.pivots == [1]
    assert rb.express([4, 2]) == [2]
    assert rb.express([1, 0]) is None
    # the first unit, not any unit: columns 1 and 2 both hold one
    rb = RowBasis(Z, 3, track=True)
    assert rb.insert([2, 1, -1])
    assert rb.pivots == [1]
    # a later row clears the earlier pivot column, keeping full reduction
    assert rb.insert([1, 0, 0])
    assert rb.pivots == [1, 0]
    assert rb.rows == [[0, 1, -1], [1, 0, 0]]
    assert rb.express([3, 5, -5]) == [5, -7]


def test_span_basis_deferred_retry():
    # [2, 0] alone is stuck over the integers, but once [1, 0] arrives it
    # reduces to zero; insertion order must not cause spurious failures
    rb = span_basis(Z, [[2, 0], [1, 0], [0, 1]], 2)
    assert rb.rank == 2
    with pytest.raises(FreenessUndetermined):
        span_basis(Z, [[2, 0]], 2)
    # a span with no unit-pivot basis stays undetermined no matter the order:
    # {[1, 1], [1, -1]} spans the even-coordinate-sum subgroup
    with pytest.raises(FreenessUndetermined):
        span_basis(Z, [[1, 1], [1, -1]], 2)


def test_nullspace():
    ns = nullspace(GF5, [[1, 2, 3]], 3)
    assert len(ns) == 2
    for v in ns:
        assert (v[0] + 2 * v[1] + 3 * v[2]) % 5 == 0
    # over a non-field the kernel is free on the non-pivot columns once
    # every pivot is a unit; the rows may come in any order
    assert nullspace(Z, [[1, 2, 3], [0, 1, 5]], 3) == [[7, -5, 1]]
    assert nullspace(Z, [[2, 0], [1, 0]], 2) == [[0, 1]]
    ns = nullspace(Z4, [[2, 1, 0], [0, 0, 3]], 3)
    assert ns == [[1, 2, 0]]
    assert all((2 * v[0] + v[1]) % 4 == 0 and 3 * v[2] % 4 == 0 for v in ns)
    # 2*x = 0 has only x = 0 over int, but no unit pivot certifies it
    with pytest.raises(FreenessUndetermined):
        nullspace(Z, [[2, 0]], 2)


def test_mat_vec():
    rows = [[1, 0], [1, 1]]
    assert mat_vec(Z, rows, [2, 3]) == [5, 3]
