"""Differential tests of the sparse kernels against schoolbook references.

The program has one zero test per ring (``is_zero``), one
structure-constant oracle (the sparse matrix-unit expansion) and one
element format, sparse vectors: dicts that store no zero.  A ``Matrix``
keeps its non-zero cells in that format and has one product
(``Matrix.__mul__``).  The witness layer has one structure-algebra
product (``StructureAlgebra.mul_sparse``), one coefficient-matrix helper
(``linalg.mat_vec_sparse``) and one row reduction (``RowBasis``).  These
three, and every ``Matrix`` sum and product, accumulate through
``linalg.add_multiple``; the few dense faces (``Matrix.entries``,
``StructureAlgebra.mul``, ``LinearMapWitness.apply``) convert around
them.  The dense loops survive only here, as independent
references that visit every entry, zero or not.  The Frobenius check,
which reads E off its table on the matrix units, has its dense reference
in ``test_frobenius.py``.
"""

import os
import pickle
import subprocess
import sys
import types
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from censym import basis as fb
from censym.algebra import (
    LinearMapWitness,
    StructureAlgebra,
    algebra_of_censym,
    centre_basis,
    full_matrix_algebra,
)
from censym.basis import canonical_basis, coords, structure_constants
from censym.linalg import (
    FreenessUndetermined,
    RowBasis,
    add_multiple,
    checked_sparse,
    mat_vec_sparse,
    nullspace,
    to_dense,
)
from censym.matrices import Matrix, matrix_unit
from censym.rings import GroupRingC2, ModularRing, ring_from_literal

from conftest import C2Z, GF2, GF3, GF5, Q, Z, Z4, elements

ORACLE_RINGS = ["int", "rat", "gf:2", "zmod:4", "zmod:9", "c2:int", "c2:c2:int"]


def schoolbook(a: Matrix, b: Matrix) -> Matrix:
    """The dense i-j-k product, adding every term including zero ones."""
    ring, n = a.ring, a.n
    out = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            s = ring.zero()
            for k in range(1, n + 1):
                s = ring.add(s, ring.mul(a[i, k], b[k, j]))
            out.append(s)
    return Matrix(ring, n, out)


@pytest.mark.parametrize("kernel", [add_multiple, mat_vec_sparse, RowBasis._reduce,
                                    StructureAlgebra.mul_sparse, fb.formula_product],
                         ids=lambda f: f.__qualname__)
def test_kernels_hold_no_nested_code(kernel):
    """These kernels run thousands of times per check on 0-2 terms each, so
    a fixed cost per call shows.  CPython 3.11 compiles a comprehension,
    generator expression or lambda to a nested code object and builds a
    function from it (and pushes a frame) on every evaluation; a nested code
    object among the kernel's constants is such a site.  From 3.12 on
    (PEP 709) comprehensions are inlined, so there they pass trivially."""
    nested = [c.co_name for c in kernel.__code__.co_consts if isinstance(c, types.CodeType)]
    assert nested == []


def dense_structure_constants(ring, n: int) -> dict:
    """coords(f_u * f_v) for every basis pair, multiplied by the schoolbook loop."""
    zero = ring.zero()
    basis = canonical_basis(ring, n)
    table = {}
    for u, (_, fu) in enumerate(basis):
        for v, (_, fv) in enumerate(basis):
            cs = coords(schoolbook(fu.inner, fv.inner))
            terms = tuple((w, c) for w, c in enumerate(cs) if c != zero)
            if terms:
                table[(u, v)] = terms
    return table


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("literal", ORACLE_RINGS)
def test_sparse_structure_constants_match_dense_reference(literal, n):
    ring = ring_from_literal(literal)
    assert structure_constants(ring, n) == dense_structure_constants(ring, n)


def test_unit_cells():
    assert fb.unit_cells(4, 1, 2) == ((1, 2), (4, 3))
    assert fb.unit_cells(3, 2, 2) == ((2, 2),)
    assert fb.unit_cells(3, 2, 1) == ((2, 1), (2, 3))
    assert fb.unit_cells(1, 1, 1) == ((1, 1),)


@st.composite
def matrix_pairs(draw):
    """Two matrices over rat or c2:int with forced zero rows and columns;
    either factor may be replaced by a matrix unit."""
    ring = draw(st.sampled_from([Q, C2Z]))
    n = draw(st.integers(1, 5))
    zero = ring.zero()

    def matrix(kind):
        if kind == "unit":
            i, j = draw(st.integers(1, n)), draw(st.integers(1, n))
            return matrix_unit(ring, n, i, j)
        entries = draw(st.lists(elements(ring), min_size=n * n, max_size=n * n))
        zero_rows = draw(st.sets(st.integers(0, n - 1)))
        zero_cols = draw(st.sets(st.integers(0, n - 1)))
        return Matrix(ring, n, [
            zero if p // n in zero_rows or p % n in zero_cols else x
            for p, x in enumerate(entries)
        ])

    left = draw(st.sampled_from(["dense", "unit"]))
    right = draw(st.sampled_from(["dense", "unit"]))
    return matrix(left), matrix(right)


@settings(max_examples=200, deadline=None)
@given(pair=matrix_pairs())
def test_product_matches_schoolbook(pair):
    a, b = pair
    assert a * b == schoolbook(a, b)


def test_unit_products_follow_kronecker_rule():
    for ring in (Q, C2Z):
        n = 4
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                for c in range(1, n + 1):
                    for d in range(1, n + 1):
                        got = matrix_unit(ring, n, a, b) * matrix_unit(ring, n, c, d)
                        want = (matrix_unit(ring, n, a, d) if b == c
                                else Matrix.zero(ring, n))
                        assert got == want


ZERO_TEST_RINGS = ["int", "rat", "gf:2", "zmod:4", "zmod:9", "c2:int", "c2:c2:int", "c2:rat"]


@pytest.mark.parametrize("literal", ZERO_TEST_RINGS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_is_zero_matches_comparison_with_zero(literal, data):
    ring = ring_from_literal(literal)
    x = data.draw(st.one_of(st.just(ring.zero()), elements(ring)))
    assert ring.is_zero(x) is (x == ring.zero())


@settings(max_examples=100, deadline=None)
@given(pair=matrix_pairs())
def test_sum_matches_ring_add_everywhere(pair):
    # the sparse add keeps the other entry where one side is zero
    a, b = pair
    add = a.ring.add
    assert a + b == Matrix(a.ring, a.n, [add(x, y) for x, y in zip(a.entries, b.entries)])


def schoolbook_algebra_mul(a, x, y):
    """sum over every basis pair of x_u * y_v * T[u, v], zero terms included."""
    R, table = a.ring, a.table
    out = [R.zero()] * a.rank
    for u in range(a.rank):
        for v in range(a.rank):
            xy = R.mul(x[u], y[v])
            for w, c in table.get((u, v), ()):
                out[w] = R.add(out[w], R.mul(xy, c))
    return out


def witness_algebras(literal):
    ring = ring_from_literal(literal)
    algebras = [algebra_of_censym(ring, n) for n in range(1, 7)]
    algebras += [full_matrix_algebra(ring, m) for m in (1, 2, 3)]
    if literal.startswith("c2:"):
        algebras.append(full_matrix_algebra(ring, 2, flatten_group_ring=False))
    return algebras


@pytest.mark.parametrize("literal", ORACLE_RINGS)
def test_algebra_mul_of_basis_pairs_matches_schoolbook(literal):
    for a in witness_algebras(literal):
        basis = [a.basis_vector(u) for u in range(a.rank)]
        for x in basis:
            for y in basis:
                assert a.mul(x, y) == schoolbook_algebra_mul(a, x, y)


def sparse_vectors(ring, width):
    """Vectors with a forced set of zero coordinates, or basis vectors."""
    zero, one = ring.zero(), ring.one()

    @st.composite
    def vector(draw):
        if draw(st.booleans()):
            pos = draw(st.integers(0, width - 1))
            return [one if k == pos else zero for k in range(width)]
        xs = draw(st.lists(elements(ring), min_size=width, max_size=width))
        zeros = draw(st.sets(st.integers(0, width - 1)))
        return [zero if k in zeros else x for k, x in enumerate(xs)]

    return vector()


@pytest.mark.parametrize("literal", ORACLE_RINGS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_algebra_mul_of_sparse_vectors_matches_schoolbook(literal, data):
    a = data.draw(st.sampled_from(witness_algebras(literal)))
    x = data.draw(sparse_vectors(a.ring, a.rank))
    y = data.draw(sparse_vectors(a.ring, a.rank))
    assert a.mul(x, y) == schoolbook_algebra_mul(a, x, y)


def schoolbook_mat_vec(ring, rows, v, width):
    out = [ring.zero()] * width
    for c, row in zip(v, rows):
        out = [ring.add(o, ring.mul(c, x)) for o, x in zip(out, row)]
    return out


@pytest.mark.parametrize("literal", ORACLE_RINGS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_mat_vec_matches_schoolbook(literal, data):
    ring = ring_from_literal(literal)
    height = data.draw(st.integers(0, 6))
    width = data.draw(st.integers(1, 6))
    rows = [data.draw(sparse_vectors(ring, width)) for _ in range(height)]
    v = data.draw(sparse_vectors(ring, height)) if height else []
    want = schoolbook_mat_vec(ring, rows, v, width)
    source, target = (StructureAlgebra(ring, [f"e{k}" for k in range(r)], {}, {})
                      for r in (height, width))
    assert LinearMapWitness(source, target, rows).apply(v) == want
    sparse = mat_vec_sparse(ring, [checked_sparse(ring, row, len(row), "dense row")
                                   for row in rows], checked_sparse(ring, v, len(v), "dense v"))
    assert to_dense(ring, sparse, width) == want


def dense_rows(rb):
    """The stored rows of a ``RowBasis`` as dense vectors."""
    return [to_dense(rb.ring, row, rb.width) for row in rb.sparse_rows]


def dense_express(rb, v):
    """Dense coordinates of v over the vectors inserted into rb, or None."""
    cs = rb.express_sparse(v)
    return None if cs is None else to_dense(rb.ring, cs, rb.rank)


def row_order_reduce(R, rows, pivots, v):
    """Subtract v[p] times each stored row from v, rows in order, every entry."""
    v = list(v)
    mults = []
    for row, p in zip(rows, pivots):
        c = v[p]
        mults.append(c)
        v = [R.sub(x, R.mul(c, y)) for x, y in zip(v, row)]
    return v, mults


def filled_rowbasis(ring, vectors, track=False):
    """A RowBasis of the given width holding every vector that inserts."""
    rb = RowBasis(ring, len(vectors[0]), track=track)
    inserted = []
    for v in vectors:
        try:
            if rb.insert(v):
                inserted.append(v)
        except FreenessUndetermined:
            pass
    return rb, inserted


REDUCTION_RINGS = ["int", "rat", "gf:2", "zmod:4", "c2:int", "c2:c2:int"]


@pytest.mark.parametrize("literal", REDUCTION_RINGS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_rowbasis_reduction_matches_row_order_reference(literal, data):
    ring = ring_from_literal(literal)
    width = data.draw(st.integers(1, 6))
    family = [data.draw(sparse_vectors(ring, width))
              for _ in range(data.draw(st.integers(1, 6)))]
    rb, _ = filled_rowbasis(ring, family)
    # the stored rows are fully reduced: each pivot column is 1 in its own
    # row and 0 in every other row
    for r, p in enumerate(rb.pivots):
        assert [row[p] for row in dense_rows(rb)] == [
            ring.one() if k == r else ring.zero() for k in range(rb.rank)]
    for v in family + [data.draw(sparse_vectors(ring, width))]:
        res, mults = rb._reduce(checked_sparse(ring, v, len(v), "dense v"))
        assert (to_dense(ring, res, width), to_dense(ring, mults, rb.rank)) == \
            row_order_reduce(ring, dense_rows(rb), rb.pivots, v)
        assert to_dense(ring, rb.residual_sparse(v), width) == to_dense(ring, res, width)


def small_entries(ring):
    """Zeros, units and a few non-units, so spans rarely get stuck."""
    if ring == C2Z:
        return st.sampled_from([(0, 0), (0, 0), (1, 0), (-1, 0), (0, 1), (1, 1), (2, 0)])
    return st.sampled_from([ring.zero(), ring.zero(), ring.one(),
                            ring.neg(ring.one()), ring.from_int(2)])


@pytest.mark.parametrize("ring", [Z, Z4, C2Z], ids=lambda r: r.literal())
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_contains_and_express_agree_under_insertion_orders(ring, data):
    width = data.draw(st.integers(1, 5))
    vector = st.lists(small_entries(ring), min_size=width, max_size=width)
    family = data.draw(st.lists(vector, min_size=1, max_size=5))
    order = data.draw(st.permutations(range(len(family))))
    first, inserted_first = filled_rowbasis(ring, family, track=True)
    second, inserted_second = filled_rowbasis(ring, [family[k] for k in order], track=True)
    # a stuck vector leaves the two spans incomparable
    assume(first.rank == len(inserted_first) and second.rank == len(inserted_second))
    assume(all(first.contains(v) and second.contains(v) for v in family))
    probes = family + data.draw(st.lists(vector, max_size=4))
    for v in probes:
        assert first.contains(v) == second.contains(v)
        for rb, inserted in ((first, inserted_first), (second, inserted_second)):
            cs = dense_express(rb, v)
            assert (cs is not None) == rb.contains(v)
            if cs is not None:
                total = [ring.zero()] * width
                for c, w in zip(cs, inserted):
                    total = [ring.add(t, ring.mul(c, x)) for t, x in zip(total, w)]
                assert total == v


CENTRE_CASES = ([("censym", n) for n in range(1, 7)]
                + [("matrix", m) for m in range(1, 4)])


@pytest.mark.parametrize("kind,n", CENTRE_CASES, ids=[f"{k}-{n}" for k, n in CENTRE_CASES])
def test_centre_basis_matches_sympy_nullspace(kind, n):
    """The commutator system z*b_u - b_u*z = 0 built from
    ``StructureAlgebra.mul`` on basis vectors, solved by sympy, spans the
    same subspace as ``centre_basis``."""
    sympy = pytest.importorskip("sympy")
    a = algebra_of_censym(Q, n) if kind == "censym" else full_matrix_algebra(Q, n)
    r = a.rank
    basis = [a.basis_vector(u) for u in range(r)]
    rows = []
    for bu in basis:
        # column w holds the commutator b_w*b_u - b_u*b_w
        comms = [[x - y for x, y in zip(a.mul(bw, bu), a.mul(bu, bw))] for bw in basis]
        rows.extend([comms[w][t] for w in range(r)] for t in range(r))
    want = sympy.Matrix(rows).nullspace()
    got = [to_dense(Q, v, r) for v in centre_basis(a)]
    assert len(got) == len(want)
    ours = sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in v]
                         for v in got])
    theirs = sympy.Matrix.hstack(*want).T
    assert ours.rank() == theirs.rank() == sympy.Matrix.vstack(ours, theirs).rank()


CENTRE_RINGS = [GF2, GF3, GF5, Z, Z4, ring_from_literal("zmod:6"), C2Z,
                ring_from_literal("c2:gf:2")]


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("ring", CENTRE_RINGS, ids=lambda r: r.literal())
def test_centre_basis_matches_dense_commutator_nullspace(ring, n):
    """``centre_basis`` (rows read off the table, one block per generator)
    equals the nullspace of the commutators b_w*b_u - b_u*b_w built with
    ``StructureAlgebra.mul`` for every basis pair, over finite fields and
    over int, zmod:4, zmod:6, c2:int and c2:gf:2.  Both systems have the
    centre as nullspace.  Each reduces with unit pivots, and a unit-pivot
    row module is a direct summand, the annihilator of the kernel it cuts
    out; so the kernel determines the row module and both systems have the
    same one.  Here they also reach the same pivots, so they have the same
    fully reduced form and the same nullspace basis."""
    a = algebra_of_censym(ring, n)
    r = a.rank
    basis = [a.basis_vector(u) for u in range(r)]
    rows = []
    for bu in basis:
        comms = [[ring.sub(x, y) for x, y in zip(a.mul(bw, bu), a.mul(bu, bw))]
                 for bw in basis]
        rows.extend([comms[w][t] for w in range(r)] for t in range(r))
    want = nullspace(ring, rows, r)
    assert centre_basis(a) == want
    assert all(a.mul(z, b) == a.mul(b, z) for z in want for b in basis)


# each case adds its terms in turn into {0: start}; the sums are canonical,
# so a cancelled key is gone and 1/2 + 1/2 is stored as the int 1
CANCELLATIONS = {
    "c2:int": ((0, 1), [((0, -1), {})]),
    "zmod:4": (2, [(2, {})]),
    "rat": (Fraction(1, 2), [(Fraction(1, 2), {0: 1}), (-1, {})]),
}


@pytest.mark.parametrize("literal", sorted(CANCELLATIONS))
def test_add_multiple_stores_no_zero(literal):
    ring = ring_from_literal(literal)
    start, steps = CANCELLATIONS[literal]
    acc = {0: start}
    for term, want in steps:
        add_multiple(ring, acc, ring.one(), {0: term})
        assert acc == want
        assert [type(x) for x in acc.values()] == [type(x) for x in want.values()]


# x * y in a rank-one algebra with e*e = e: zero divisors over c2:int and
# zmod:4, and over rat a product stored as the int 1
PRODUCTS = {
    "c2:int": ((1, 1), (1, -1), {}),
    "zmod:4": (2, 2, {}),
    "rat": (Fraction(1, 2), 2, {0: 1}),
}


@pytest.mark.parametrize("literal", sorted(PRODUCTS))
def test_sparse_kernels_drop_cancelled_entries(literal):
    ring = ring_from_literal(literal)
    x = CANCELLATIONS[literal][0]
    one = ring.one()
    assert mat_vec_sparse(ring, [{0: x}, {0: ring.neg(x)}], {0: one, 1: one}) == {}
    x, y, want = PRODUCTS[literal]
    line = StructureAlgebra(ring, ["e"], {(0, 0): ((0, one),)}, [one])
    product = line.mul_sparse({0: x}, {0: y})
    assert product == want
    assert [type(c) for c in product.values()] == [type(c) for c in want.values()]


class DenseRowBasis:
    """The dense reference elimination: rows in insertion order, every entry
    visited, zero or not.  ``insert`` returns the stuck column instead of
    raising."""

    def __init__(self, ring):
        self.ring = ring
        self.rows, self.pivots, self.combos = [], [], []

    def reduce(self, v):
        return row_order_reduce(self.ring, self.rows, self.pivots, v)

    def insert(self, v):
        R, zero = self.ring, self.ring.zero()
        res, mults = self.reduce(v)
        nonzero = [k for k, x in enumerate(res) if x != zero]
        if not nonzero:
            return False
        units = [k for k in nonzero if R.inv(res[k]) is not None]
        if not units:
            return ("stuck", nonzero[0])
        lead = units[0]
        inv = R.inv(res[lead])
        row = [R.mul(inv, x) for x in res]
        n = len(self.rows)
        # the new row is inv * (v - sum mults[r] * row r), over the inserted vectors
        combo = [zero] * n + [inv]
        for m, old in zip(mults, self.combos):
            cm = R.mul(inv, m)
            combo = [R.sub(c, R.mul(cm, o)) for c, o in zip(combo, old + [zero])]
        for k in range(n):
            c = self.rows[k][lead]
            self.rows[k] = [R.sub(x, R.mul(c, y)) for x, y in zip(self.rows[k], row)]
            self.combos[k] = [R.sub(x, R.mul(c, y))
                              for x, y in zip(self.combos[k] + [zero], combo)]
        self.rows.append(row)
        self.pivots.append(lead)
        self.combos.append(combo)
        return True

    def express(self, v):
        R, zero = self.ring, self.ring.zero()
        res, mults = self.reduce(v)
        if any(x != zero for x in res):
            return None
        out = [zero] * len(self.rows)
        for m, combo in zip(mults, self.combos):
            out = [R.add(o, R.mul(m, c)) for o, c in zip(out, combo)]
        return out


@pytest.mark.parametrize("literal", ["int", "rat", "zmod:4", "gf:2", "gf:5", "c2:int",
                                     "c2:c2:int"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_rowbasis_matches_dense_reference(literal, data):
    """Rows, pivots, the stuck column, residuals and coordinates agree with
    the dense reference, and the sparse forms store no zero."""
    ring = ring_from_literal(literal)
    width = data.draw(st.integers(1, 6))
    entries = st.one_of(small_entries(ring), elements(ring))
    vector = st.lists(entries, min_size=width, max_size=width)
    family = data.draw(st.lists(vector, min_size=1, max_size=6))
    rb, ref = RowBasis(ring, width, track=True), DenseRowBasis(ring)
    for v in family:
        want = ref.insert(v)
        if isinstance(want, tuple):
            with pytest.raises(FreenessUndetermined) as stuck:
                rb.insert(v)
            assert stuck.value.column == want[1]
        else:
            assert rb.insert(v) is want
        assert (dense_rows(rb), rb.pivots) == (ref.rows, ref.pivots)
        assert rb.sparse_rows == [checked_sparse(ring, row, len(row), "dense row")
                                  for row in ref.rows]
    for v in family + data.draw(st.lists(vector, max_size=3)):
        res = ref.reduce(v)[0]
        assert to_dense(ring, rb.residual_sparse(v), width) == res
        assert rb.residual_sparse(checked_sparse(ring, v, len(v), "dense v")) == \
            checked_sparse(ring, res, len(res), "dense residual")
        cs = ref.express(v)
        assert dense_express(rb, v) == cs
        assert rb.express_sparse(v) == (
            None if cs is None else checked_sparse(ring, cs, len(cs), "dense coordinates"))


# The kernels read Ring.ops, built from the instance's own methods on first
# kernel use.  A counting ring made the way the bench's RingCounter makes one
# (cls.__new__ plus a copy of a fresh ring's vars) must count what the same
# subclass counts when constructed directly.

def _counting_class(cls, counts):
    class Counting(cls):
        def add(self, a, b):
            counts["add"] += 1
            return cls.add(self, a, b)

        def mul(self, a, b):
            counts["mul"] += 1
            return cls.mul(self, a, b)

        def neg(self, a):
            counts["neg"] += 1
            return cls.neg(self, a)

    return Counting


def _counted_ring(literal, counts, copied):
    """The ring of ``literal`` whose innermost base counts into ``counts``."""
    ring = ring_from_literal(literal)
    if isinstance(ring, GroupRingC2):
        return GroupRingC2(_counted_ring(ring.base.literal(), counts, copied))
    cls = _counting_class(type(ring), counts)
    if not copied:
        return cls(ring.modulus) if isinstance(ring, ModularRing) else cls()
    out = cls.__new__(cls)
    out.__dict__.update(vars(ring))
    return out


def _kernel_pass(ring):
    """add_multiple, mul_sparse, RowBasis.insert and mat_vec_sparse on
    payloads that are non-zero over every ring; returns every result."""
    one = ring.one()
    m = ring.neg(one)
    acc = {0: one, 1: m}
    add_multiple(ring, acc, m, {0: m, 1: one, 2: m})
    a = full_matrix_algebra(ring, 2, flatten_group_ring=False)
    product = a.mul_sparse({0: m, 1: one, 3: m}, {0: one, 2: m, 3: m})
    rb = RowBasis(ring, 4, track=True)
    grew = [rb.insert(v) for v in ({0: m, 1: one}, {1: m, 2: one}, {0: one, 2: m},
                                   {0: one, 3: m}, {})]
    image = mat_vec_sparse(ring, rb.sparse_rows, {0: m, 1: one, 2: m})
    return acc, product, grew, rb.sparse_rows, rb._combos, image


@pytest.mark.parametrize("literal", ["int", "rat", "zmod:4", "gf:2", "gf:5", "c2:int"])
def test_a_counting_ring_built_from_a_copy_counts_every_kernel_operation(literal):
    copied, direct = Counter(), Counter()
    got = _kernel_pass(_counted_ring(literal, copied, True))
    want = _kernel_pass(_counted_ring(literal, direct, False))
    assert got == want == _kernel_pass(ring_from_literal(literal))
    assert copied == direct
    # over gf:2 every non-zero payload is one, so the kernels skip each multiply
    assert direct["add"] and direct["neg"] and (direct["mul"] or literal == "gf:2")


@pytest.mark.parametrize("literal", ["rat", "gf:5", "c2:int"])
def test_a_ring_pickled_after_kernel_use_computes_in_a_fresh_process(literal):
    ring = ring_from_literal(literal)
    want = _kernel_pass(ring)
    assert "ops" in vars(ring)
    script = ("import pickle, sys; sys.path.insert(0, sys.argv[1]); "
              "import test_kernels as t; r = pickle.load(sys.stdin.buffer); "
              "assert all(getattr(f, '__self__', r) is r for f in r.ops[:3]); "
              "print(repr(t._kernel_pass(r)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", script, os.path.dirname(__file__)],
                         input=pickle.dumps(ring), env=env, capture_output=True, timeout=60)
    assert out.returncode == 0, out.stderr.decode()
    assert out.stdout.decode().strip() == repr(want)
