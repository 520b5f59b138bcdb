import re

import pytest

from censym.algebra import (
    BasedModule,
    LinearMapWitness,
    StructureAlgebra,
    algebra_of_censym,
    centre,
    check_witness,
    format_vector,
    full_matrix_algebra,
    ideal_generated,
    subalgebra_from_vectors,
)
from censym.basis import exchange_coords, from_coords, positions
from censym.cellular import heredity_check
from censym.linalg import (
    FreenessUndetermined,
    RowBasis,
    mat_vec_sparse,
    nullspace,
    checked_sparse,
    span_basis,
    to_dense,
)
from censym.matrices import Matrix, exchange
from censym.rings import ring_from_literal

from conftest import GF5, Q, Z, Z4


def express(rb, v):
    """Dense coordinates of v over the inserted vectors, or None."""
    cs = rb.express_sparse(v)
    return None if cs is None else to_dense(rb.ring, cs, rb.rank)


def dense_nullspace(ring, rows, width):
    return [to_dense(ring, v, width) for v in nullspace(ring, rows, width)]


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
    cs = express(rb, [Q.from_int(2), Q.from_int(3), Q.from_int(1)])
    assert cs == [Q.from_int(2), Q.from_int(1)]
    assert express(rb, [Q.from_int(0), Q.from_int(0), Q.from_int(1)]) is None


def test_rowbasis_express_over_int_with_elimination_order():
    rb = RowBasis(Z, 2, track=True)
    rb.insert_all([[1, 1], [0, 1]])
    assert express(rb, [3, 5]) == [3, 2]


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
    assert express(rb, [4, 2]) == [2]
    assert express(rb, [1, 0]) is None
    # the first unit, not any unit: columns 1 and 2 both hold one
    rb = RowBasis(Z, 3, track=True)
    assert rb.insert([2, 1, -1])
    assert rb.pivots == [1]
    # a later row clears the earlier pivot column, keeping full reduction
    assert rb.insert([1, 0, 0])
    assert rb.pivots == [1, 0]
    assert [to_dense(Z, row, 3) for row in rb.sparse_rows] == [[0, 1, -1], [1, 0, 0]]
    assert express(rb, [3, 5, -5]) == [5, -7]


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
    ns = dense_nullspace(GF5, [[1, 2, 3]], 3)
    assert len(ns) == 2
    for v in ns:
        assert (v[0] + 2 * v[1] + 3 * v[2]) % 5 == 0
    # over a non-field the kernel is free on the non-pivot columns once
    # every pivot is a unit; the rows may come in any order
    assert dense_nullspace(Z, [[1, 2, 3], [0, 1, 5]], 3) == [[7, -5, 1]]
    assert dense_nullspace(Z, [[2, 0], [1, 0]], 2) == [[0, 1]]
    ns = dense_nullspace(Z4, [[2, 1, 0], [0, 0, 3]], 3)
    assert ns == [[1, 2, 0]]
    assert all((2 * v[0] + v[1]) % 4 == 0 and 3 * v[2] % 4 == 0 for v in ns)
    # 2*x = 0 has only x = 0 over int, but no unit pivot certifies it
    with pytest.raises(FreenessUndetermined):
        nullspace(Z, [[2, 0]], 2)


def test_mat_vec():
    rows = [[1, 0], [1, 1]]
    out = mat_vec_sparse(Z, [checked_sparse(Z, row, len(row), "dense row") for row in rows],
                         checked_sparse(Z, [2, 3], 2, "dense v"))
    assert to_dense(Z, out, 2) == [5, 3]


# The entries where a vector from outside the engine becomes sparse
# through linalg.checked_sparse.  Each maps a ring to (a dense vector, the
# entry applied to a vector, the entry's message for a vector that does not
# fit its width).

def _unit_entry(ring):
    m = full_matrix_algebra(ring, 2, flatten_group_ring=False)

    def call(v):
        b = StructureAlgebra(ring, m.labels, m.table, v)
        return b.unit_sparse, b.unit, b.validate()
    return m.unit, call, "unit coordinate length does not match the basis"


def _witness_row_entry(ring):
    a = algebra_of_censym(ring, 3)
    invol = [to_dense(ring, row, a.rank) for row in a.invol_sparse]

    def call(v):
        w = LinearMapWitness(a, a, [v] + invol[1:], invol,
                             claimed=("bijective", "involution-equivariant"))
        return check_witness(w).to_json_dict()
    return invol[0], call, "matrix shapes do not match the bases"


def _centre_entry(ring):
    a = algebra_of_censym(ring, 3)

    def call(v):
        return centre(a, candidates=[v, a.unit]).to_json_dict()
    return exchange_coords(ring, 3), call, "candidate length does not match the algebra's rank 5"


def _heredity_entry(ring):
    a = algebra_of_censym(ring, 3)

    def call(v):
        hw = heredity_check(a, v)
        return hw.e, hw.report.to_json_dict()
    return a.basis_vector(positions(3)[(2, 2)]), call, \
        "element length does not match the algebra's rank 5"


def _from_coords_entry(ring):
    return exchange_coords(ring, 3), lambda v: from_coords(ring, 3, v), \
        "expected 5 coordinates for size 3"


def _involution_row_entry(ring):
    a = algebra_of_censym(ring, 3)
    invol = [to_dense(ring, row, a.rank) for row in a.invol_sparse]

    def call(v):
        b = StructureAlgebra(ring, a.labels, a.table, a.unit_sparse, [v] + invol[1:])
        return b.invol_sparse, b.validate()
    return invol[0], call, "involution matrix does not match the basis"


def _ideal_generator_entry(ring):
    a = algebra_of_censym(ring, 3)

    def call(v):
        return ideal_generated(a, [v]).sparse_rows
    return a.basis_vector(positions(3)[(2, 2)]), call, \
        "generator length does not match the algebra's rank 5"


def _subalgebra_entry(ring, as_unit):
    a = algebra_of_censym(ring, 3)

    def call(v):
        b = subalgebra_from_vectors(a, [a.unit if as_unit else v], ["1"],
                                    v if as_unit else a.unit)
        return b.table, b.unit_sparse, b.invol_sparse
    return a.unit, call, "vector length does not match the algebra's rank 5"


def _module_vector_entry(ring):
    a = algebra_of_censym(ring, 3)

    def call(v):
        m = BasedModule(a, [v, a.basis_vector(positions(3)[(2, 2)])])
        return m.vectors, m.rowbasis().sparse_rows
    return a.basis_vector(positions(3)[(1, 1)]), call, \
        "module vector length does not match the algebra's rank 5"


def _mul_entry(ring, left):
    a = algebra_of_censym(ring, 3)
    c = exchange_coords(ring, 3)

    def call(v):
        return a.mul(v, c) if left else a.mul(c, v)
    return c, call, "vector length does not match the algebra's rank 5"


def _apply_entry(ring):
    a = algebra_of_censym(ring, 3)
    w = LinearMapWitness(a, a, [to_dense(ring, row, a.rank) for row in a.invol_sparse])
    return exchange_coords(ring, 3), w.apply, "vector length does not match the source's rank 5"


def _matrix_entry(ring):
    return list(exchange(ring, 3).entries), lambda v: Matrix(ring, 3, v), \
        "expected 9 entries for size 3"


def _format_vector_entry(ring):
    labels = algebra_of_censym(ring, 3).labels
    return exchange_coords(ring, 3), lambda v: format_vector(ring, labels, v), \
        "vector length does not match the labels"


BOUNDARY_ENTRIES = {"unit": _unit_entry, "witness-row": _witness_row_entry,
                    "centre-candidate": _centre_entry, "heredity-e": _heredity_entry,
                    "from-coords": _from_coords_entry, "involution-row": _involution_row_entry,
                    "ideal-generator": _ideal_generator_entry,
                    "subalgebra-vector": lambda ring: _subalgebra_entry(ring, False),
                    "subalgebra-unit": lambda ring: _subalgebra_entry(ring, True),
                    "module-vector": _module_vector_entry,
                    "mul-left": lambda ring: _mul_entry(ring, True),
                    "mul-right": lambda ring: _mul_entry(ring, False),
                    "witness-apply": _apply_entry, "format-vector": _format_vector_entry,
                    "matrix-entries": _matrix_entry}


@pytest.mark.parametrize("literal", ["int", "rat", "zmod:4", "c2:int"])
@pytest.mark.parametrize("entry", BOUNDARY_ENTRIES)
def test_boundary_takes_either_form_and_checks_the_width(entry, literal):
    ring = ring_from_literal(literal)
    dense, call, message = BOUNDARY_ENTRIES[entry](ring)
    sparse = checked_sparse(ring, dense, len(dense), "dense vector")
    width, one = len(dense), ring.one()
    assert call(sparse) == call(dense)
    for bad in (dense[:-1], dense + [ring.zero()], dict(sparse, **{str(width): one}),
                {**sparse, width: one}, {**sparse, -1: one}):
        with pytest.raises(ValueError, match=re.escape(message)):
            call(bad)


# RowBasis and the eliminations over it read a dense vector through
# checked_sparse against the basis width; a sparse vector is the engine's
# own and is trusted, so only dense misfits apply here.  Each maps (a ring,
# a family of rows of width 3, a vector) to what the entry makes of it.

def _filled(ring, family, track=False):
    rb = RowBasis(ring, 3, track=track)
    for row in family:
        rb.insert(row)
    return rb


def _insert(ring, family, v):
    rb = _filled(ring, family)
    return rb.insert(v), rb.sparse_rows, rb.pivots


ROWBASIS_ENTRIES = {
    "insert": _insert,
    "contains": lambda ring, family, v: _filled(ring, family).contains(v),
    "residual": lambda ring, family, v: _filled(ring, family).residual_sparse(v),
    "express": lambda ring, family, v: _filled(ring, family, True).express_sparse(v),
    "span-basis": lambda ring, family, v: span_basis(ring, family + [v], 3).sparse_rows,
    "nullspace": lambda ring, family, v: nullspace(ring, family + [v], 3),
}


@pytest.mark.parametrize("literal", ["int", "rat", "zmod:4", "c2:int"])
@pytest.mark.parametrize("entry", ROWBASIS_ENTRIES)
def test_rowbasis_takes_either_form_and_checks_a_dense_width(entry, literal):
    ring = ring_from_literal(literal)
    call, zero, one = ROWBASIS_ENTRIES[entry], ring.zero(), ring.one()
    family = [[one, zero, one], [zero, one, zero]]
    for dense in ([one, one, one], [one, one, zero]):  # in the span, then outside it
        sparse = checked_sparse(ring, dense, 3, "dense vector")
        assert call(ring, family, sparse) == call(ring, family, dense)
        for bad in (dense[:-1], dense + [zero], dense + [one]):
            with pytest.raises(ValueError,
                               match=r"^vector length does not match the width 3$"):
                call(ring, family, bad)


def test_a_sparse_vector_is_not_read_as_its_keys():
    # a dict once went through list(), which keeps its keys: e read as [0]
    # was "zero" and the coordinates {0: 5} gave the zero matrix
    assert heredity_check(algebra_of_censym(Z, 1), {0: 1}).report.verdict == "pass"
    assert from_coords(Z, 1, {0: 5}).inner[1, 1] == 5
    assert Matrix(Z, 1, {0: 5})[1, 1] == 5
    assert Matrix(Z, 2, {0: 5, 1: 7, 2: 1, 3: 9}).entries == (5, 7, 1, 9)
    assert StructureAlgebra(Z, ["1"], {(0, 0): ((0, 1),)}, {0: 1}).validate() == []


def test_width_messages_name_the_expected_width():
    # a sparse vector's len() is its key count, which says nothing of its width
    with pytest.raises(ValueError, match=r"^expected 2 coordinates for size 2$"):
        from_coords(Z, 2, {9: 1})
    with pytest.raises(ValueError, match=r"^expected 4 entries for size 2$"):
        Matrix(Z, 2, {9: 1})
    with pytest.raises(ValueError, match=r"^expected 4 entries for size 2$"):
        Matrix(Z, 2, [1, 2, 3])


def test_the_zero_vector_reduces_to_nothing_and_leaves_the_basis_alone(any_ring):
    # the zero vector returns before any pass over the rows, sparse or dense,
    # but a dense vector of the wrong width is still rejected first
    zero, one = any_ring.zero(), any_ring.one()
    for family in ([], [[one, zero, one], [zero, one, zero]]):
        rb = _filled(any_ring, family, track=True)
        state = ([dict(r) for r in rb.sparse_rows], list(rb.pivots),
                 [dict(c) for c in rb._combos])
        for v in ({}, [zero, zero, zero]):
            assert rb.express_sparse(v) == {}
            assert rb.residual_sparse(v) == {}
            assert rb.contains(v)
            assert rb.insert(v) is False
        assert ([dict(r) for r in rb.sparse_rows], list(rb.pivots),
                [dict(c) for c in rb._combos]) == state
        for bad in ([], [zero], [zero] * 4, [one, zero]):
            for call in (rb.express_sparse, rb.residual_sparse, rb.contains, rb.insert):
                with pytest.raises(ValueError,
                                   match=r"^vector length does not match the width 3$"):
                    call(bad)
