import random
import re
import tracemalloc
from collections import Counter
from operator import not_

import pytest

import censym.algebra

from censym.algebra import (
    BasedModule,
    LinearMapWitness,
    StructureAlgebra,
    algebra_of_censym,
    centre,
    check_witness,
    direct_product,
    format_vector,
    full_matrix_algebra,
    ideal_generated,
    ideal_is_two_sided,
    quotient_by_ideal,
    subalgebra_from_vectors,
    zero_algebra,
)
from censym.basis import coords, exchange_coords, from_coords, positions, rank_of
from censym.cellular import cell_chain_even
from censym.linalg import FreenessUndetermined, RowBasis, span_basis, to_dense
from censym.rings import GroupRingC2
from censym.structure import (
    endring_odd,
    iso_even,
    morita_column_iso,
    odd_quotient,
    s3_presentation,
)

from conftest import C2Z, GF2, GF3, GF5, Q, Z, Z4, same_span, vec_is_zero


def label_map(a):
    return {lab: u for u, lab in enumerate(a.labels)}


def dense_invol(a):
    """The involution's rows as dense vectors."""
    return [to_dense(a.ring, row, a.rank) for row in a.invol_sparse]


def dense_rows(rows, ring, width):
    """Sparse witness rows as dense vectors."""
    return [to_dense(ring, row, width) for row in rows]


@pytest.mark.parametrize("n", range(1, 6))
def test_censym_algebra_validates(n, any_ring):
    a = algebra_of_censym(any_ring, n)
    assert a.rank == rank_of(n)
    assert a.validate() == []
    # the involution permutes the basis: each row is a unit vector, no two alike
    units = [a.basis_vector(u) for u in range(a.rank)]
    assert sorted(map(units.index, dense_invol(a))) == list(range(a.rank))


def test_censym_n2_relations():
    a = algebra_of_censym(Z, 2)
    lab = label_map(a)
    f12 = a.basis_vector(lab["f1_2"])
    assert a.mul(f12, f12) == a.basis_vector(lab["f1_1"])
    assert a.unit == a.basis_vector(lab["f1_1"])


def test_censym_n3_transpose():
    a = algebra_of_censym(Z, 3)
    lab = label_map(a)
    invol = dense_invol(a)
    assert invol[lab["f1_2"]] == a.basis_vector(lab["f2_1"])
    assert invol[lab["f2_1"]] == a.basis_vector(lab["f1_2"])
    for fixed in ("f1_1", "f2_2", "f1_3"):
        assert invol[lab[fixed]] == a.basis_vector(lab[fixed])


def test_full_matrix_algebra():
    m2 = full_matrix_algebra(Z, 2)
    assert m2.rank == 4 and m2.validate() == []
    lab = label_map(m2)
    assert m2.mul(m2.basis_vector(lab["E1_2"]), m2.basis_vector(lab["E2_1"])) \
        == m2.basis_vector(lab["E1_1"])

    rc2 = full_matrix_algebra(C2Z, 1)
    assert rc2.rank == 2 and rc2.ring == Z
    assert rc2.labels == ("E1_1", "x*E1_1")
    assert rc2.validate() == []
    lab = label_map(rc2)
    x = rc2.basis_vector(lab["x*E1_1"])
    assert rc2.mul(x, x) == rc2.basis_vector(lab["E1_1"])

    m2c2 = full_matrix_algebra(C2Z, 2)
    assert m2c2.rank == 8 and m2c2.validate() == []

    with pytest.raises(ValueError):
        full_matrix_algebra(Z, 0)


def test_oracle_equivalence_matrix_vs_tensor():
    # multiplying matrices and contracting coordinates agree
    rng = random.Random(23)
    for ring in (Z, GF5):
        for n in (2, 3, 4, 5):
            a = algebra_of_censym(ring, n)
            for _ in range(10):
                u = [ring.sample(rng) for _ in range(a.rank)]
                v = [ring.sample(rng) for _ in range(a.rank)]
                mu = from_coords(ring, n, u)
                mv = from_coords(ring, n, v)
                assert coords(mu * mv) == a.mul(u, v)


def test_ideal_of_middle_idempotent_s3():
    a = algebra_of_censym(Z, 3)
    lab = label_map(a)
    j = ideal_generated(a, [a.basis_vector(lab["f2_2"])])
    assert j.rank == 4
    f1_plus_f13 = [0] * 5
    f1_plus_f13[lab["f1_1"]] = 1
    f1_plus_f13[lab["f1_3"]] = 1
    expected = [
        a.basis_vector(lab["f2_2"]),
        a.basis_vector(lab["f1_2"]),
        a.basis_vector(lab["f2_1"]),
        f1_plus_f13,
    ]
    assert same_span(Z, j.sparse_rows, expected, a.rank)
    assert ideal_is_two_sided(a, j)


def test_an_ideal_is_its_row_basis():
    a = algebra_of_censym(Z, 3)
    j = ideal_generated(a, [a.basis_vector(label_map(a)["f2_2"])])
    assert type(j) is RowBasis
    assert (j.ring, j.width, j.rank) == (Z, a.rank, 4)


@pytest.mark.parametrize("ring, width", [(Z, 8), (Q, 5)])
def test_quotient_rejects_a_row_basis_of_another_algebra(ring, width):
    # S_3 over Z has rank 5: another width or another ring is misuse
    with pytest.raises(ValueError, match="ideal does not belong to this algebra"):
        quotient_by_ideal(algebra_of_censym(Z, 3), RowBasis(ring, width))


def test_ideal_of_unit_is_everything():
    a = algebra_of_censym(Q, 3)
    assert ideal_generated(a, [a.unit]).rank == 5


def test_nilpotent_ideal_char2():
    rc2 = full_matrix_algebra(GroupRingC2(GF2), 1)
    one_plus_x = [1, 1]
    j = ideal_generated(rc2, [one_plus_x])
    assert j.rank == 1
    sq = rc2.mul(j.sparse_rows[0], j.sparse_rows[0])
    assert vec_is_zero(GF2, sq)


def test_quotient_s3_by_middle():
    a = algebra_of_censym(Q, 3)
    lab = label_map(a)
    j = ideal_generated(a, [a.basis_vector(lab["f2_2"])])
    q, proj = quotient_by_ideal(a, j)
    assert q.rank == 1
    assert q.validate() == []
    # the anti-diagonal generator is minus the class of the corner idempotent
    p13 = proj.apply(a.basis_vector(lab["f1_3"]))
    p1 = proj.apply(a.basis_vector(lab["f1_1"]))
    assert p13 == [Q.neg(c) for c in p1]
    rep = check_witness(proj)
    assert rep.verdict == "pass"
    # the projection kills exactly the ideal
    for v in j.sparse_rows:
        assert vec_is_zero(Q, proj.apply(v))


def test_quotient_s5_matches_matrix_relations():
    a = algebra_of_censym(Q, 5)
    lab = label_map(a)
    j = ideal_generated(a, [a.basis_vector(lab["f3_3"])])
    assert j.rank == 9
    q, proj = quotient_by_ideal(a, j)
    assert q.rank == 4
    # fbar_12 * fbar_21 == fbar_11
    p12 = proj.apply(a.basis_vector(lab["f1_2"]))
    p21 = proj.apply(a.basis_vector(lab["f2_1"]))
    p11 = proj.apply(a.basis_vector(lab["f1_1"]))
    assert q.mul(p12, p21) == p11


def test_quotient_by_whole_algebra_is_zero():
    a = algebra_of_censym(Q, 3)
    q, proj = quotient_by_ideal(a, ideal_generated(a, [a.unit]))
    assert q.rank == 0
    assert q.validate() == []
    assert proj.apply(a.unit) == []


def _quotient_table_over_all_pairs(a, j):
    """Reference table: e_u*e_v projected for every pair of surviving
    indices, keyed row-major by quotient index."""
    comp = [u for u in range(a.rank) if u not in set(j.pivots)]
    at = {u: uq for uq, u in enumerate(comp)}
    table = {}
    for uq, u in enumerate(comp):
        for vq, v in enumerate(comp):
            cs = j.residual_sparse(a.mul_basis_sparse(u, v))
            if cs:
                table[(uq, vq)] = tuple(sorted((at[w], c) for w, c in cs.items()))
    return table


def _quotient_of_size(ring, n):
    """S_n, its ideal, the quotient M_{n//2}(R) and the projection: at odd n
    over the middle-column ideal, at even n over the skew ideal (the span of
    f[i,j] - f[i,n+1-j] for i, j <= n/2)."""
    if n % 2:
        return odd_quotient(ring, n // 2)
    chain = cell_chain_even(ring, n)
    a = chain.algebra
    j = span_basis(ring, chain.layers[0].span, a.rank)
    return (a, j, *quotient_by_ideal(a, j))


@pytest.mark.parametrize("n", range(2, 11))
def test_quotient_table_matches_all_pairs_projection(n, any_ring):
    a, j, quot, _ = _quotient_of_size(any_ring, n)
    assert list(quot.table.items()) == list(_quotient_table_over_all_pairs(a, j).items())


def test_quotient_reduces_each_basis_element_once_not_each_product(monkeypatch):
    # the residual is linear, so each product is projected by the basis
    # projections; S_11 over gf:5 has 641 non-zero products (the parent
    # reduced once per surviving one too: 248 calls)
    a, j, _, _ = odd_quotient(GF5, 5)
    a.generators()
    calls = []
    reduce = RowBasis._reduce
    monkeypatch.setattr(RowBasis, "_reduce", lambda rb, v: calls.append(v) or reduce(rb, v))
    quot, _ = quotient_by_ideal(a, j)
    assert quot.invol_sparse is not None
    # basis elements, the unit, the involution rows, then the ideal rows
    assert len(calls) == a.rank + 1 + quot.rank + j.rank == 61 + 1 + 25 + 36


@pytest.mark.parametrize("n", range(2, 13))
@pytest.mark.parametrize("ring", [Z, GF5, C2Z, Z4], ids=lambda r: r.literal())
def test_quotient_generators_are_the_parent_cycle(n, ring):
    # the quotient's G is the image of the parent's cycle: n // 2 matrix units
    a, _, quot, proj = _quotient_of_size(ring, n)
    assert len(quot.generators()) == n // 2
    assert quot.generators() == tuple(sorted(w for g in a.generators() for w in proj.matrix[g]))


def test_zero_algebra_is_legal():
    z = zero_algebra(Z)
    assert z.rank == 0 and z.validate() == []


def test_direct_product():
    p = direct_product(full_matrix_algebra(Z, 1), full_matrix_algebra(Z, 2),
                       prefixes=("m", "p"))
    assert p.rank == 5
    assert p.validate() == []
    assert p.labels[0] == "m:E1_1" and p.labels[1] == "p:E1_1"


def test_subalgebra_rejects_non_closed():
    a = algebra_of_censym(Z, 3)
    lab = label_map(a)
    # f1_2 * f2_1 = f1_1 + f1_3 falls outside the span of the two generators
    with pytest.raises(ValueError):
        subalgebra_from_vectors(
            a,
            [a.basis_vector(lab["f1_2"]), a.basis_vector(lab["f2_1"])],
            ["g", "h"],
            a.basis_vector(lab["f1_2"]),
        )


def test_check_witness_negative_control():
    a = algebra_of_censym(Z, 3)
    w = LinearMapWitness(a, a, dense_invol(a),
                         claimed=("algebra-homomorphism",), name="transpose")
    rep = check_witness(w)
    assert rep.verdict == "fail"
    assert rep.counterexample is not None
    assert rep.counterexample["property"] == "algebra-homomorphism"


def test_module_hom_negative_control_pins_counterexample():
    # a Morita column witness with one image doubled is no longer a
    # left-module map; the first failing pair in basis order is reported
    w = morita_column_iso(Z, 6, 2)
    matrix = dense_rows(w.matrix, Z, w.target.rank)
    matrix[2] = [2 * c for c in matrix[2]]
    bad = LinearMapWitness(w.source, w.target, matrix, w.inverse,
                           claimed=w.claimed, name=w.name)
    rep = check_witness(bad)
    assert rep.verdict == "fail"
    assert rep.clauses["left-module-homomorphism"] == "fail"
    assert rep.counterexample == {"input": "(f1_2, S*f1[2])", "lhs": "f1_2",
                                  "rhs": "2*f1_2",
                                  "property": "left-module-homomorphism"}


def test_check_witness_identity_passes():
    a = algebra_of_censym(GF3, 4)
    eye = [a.basis_vector(u) for u in range(a.rank)]
    w = LinearMapWitness(a, a, eye, eye,
                         claimed=("algebra-homomorphism", "bijective",
                                  "involution-equivariant"),
                         name="identity")
    assert check_witness(w).verdict == "pass"


def test_involution_equivariance_negative_control_pins_counterexample():
    # the identity with f1_2 sent to f1_3 no longer commutes with the
    # involution at f1_2, whose mirror f2_1 it still fixes
    a = algebra_of_censym(Z, 3)
    lab = label_map(a)
    eye = [a.basis_vector(u) for u in range(a.rank)]
    eye[lab["f1_2"]] = a.basis_vector(lab["f1_3"])
    w = LinearMapWitness(a, a, eye, claimed=("involution-equivariant",))
    rep = check_witness(w)
    assert rep.verdict == "fail"
    assert rep.counterexample == {"input": "f1_2", "lhs": "f1_3", "rhs": "f2_1",
                                  "property": "involution-equivariant"}


def test_bijective_negative_control_pins_counterexample():
    # twice the identity is not an inverse of the identity over int
    a = algebra_of_censym(Z, 3)
    eye = [a.basis_vector(u) for u in range(a.rank)]
    twice = [[2 * c for c in row] for row in eye]
    w = LinearMapWitness(a, a, eye, twice, claimed=("bijective",))
    rep = check_witness(w)
    assert rep.verdict == "fail"
    assert rep.counterexample == {"input": "f1_1", "reason": "inverse(map(u)) != u",
                                  "property": "bijective"}


def test_bijective_needs_inverse():
    a = algebra_of_censym(Z, 2)
    eye = [a.basis_vector(u) for u in range(a.rank)]
    w = LinearMapWitness(a, a, eye, None, claimed=("bijective",))
    # an identity map contradicts nothing: the missing inverse is misuse
    with pytest.raises(ValueError, match="bijective claim without an explicit inverse"):
        check_witness(w)


def _quaternions(ring):
    # 1, i, j, k with i*i = j*j = k*k = -1, i*j = k, j*k = i, k*i = j
    table = {(0, v): ((v, 1),) for v in range(4)}
    table.update({(v, 0): ((v, 1),) for v in range(1, 4)})
    for u, v, w in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        table[(u, u)] = ((0, -1),)
        table[(u, v)] = ((w, 1),)
        table[(v, u)] = ((w, -1),)
    return StructureAlgebra(ring, ["1", "i", "j", "k"], table, [1, 0, 0, 0])


def _eye(a):
    return [a.basis_vector(u) for u in range(a.rank)]


def _misused_witness(reason):
    """A witness whose claim cannot apply to it, for each misuse reason."""
    a = algebra_of_censym(Z, 2)
    m = BasedModule(a, [a.unit], name="M")
    if reason == "unsupported claim":
        return LinearMapWitness(a, a, _eye(a), claimed=("surjective",))
    if reason == "algebra-homomorphism needs algebra endpoints":
        return LinearMapWitness(m, m, [[1]], claimed=("algebra-homomorphism",))
    if reason == "module-homomorphism needs module endpoints":
        return LinearMapWitness(a, a, _eye(a), claimed=("left-module-homomorphism",))
    if reason == "modules live over different algebras":
        b = algebra_of_censym(Z, 3)
        return LinearMapWitness(m, BasedModule(b, [b.unit]), [[1]],
                                claimed=("left-module-homomorphism",))
    if reason == "involution check needs algebra endpoints":
        return LinearMapWitness(m, m, [[1]], claimed=("involution-equivariant",))
    if reason == "both sides need involutions":
        q = _quaternions(Z)
        return LinearMapWitness(q, q, _eye(q), claimed=("involution-equivariant",))
    if reason == "bijective claim without an explicit inverse":
        return LinearMapWitness(a, a, _eye(a), claimed=("bijective",))
    assert reason == "matrix shapes do not match the bases"
    return LinearMapWitness(a, a, _eye(a), _eye(a)[1:], claimed=("bijective",))


@pytest.mark.parametrize("reason", [
    "unsupported claim",
    "algebra-homomorphism needs algebra endpoints",
    "module-homomorphism needs module endpoints",
    "modules live over different algebras",
    "involution check needs algebra endpoints",
    "both sides need involutions",
    "bijective claim without an explicit inverse",
    "matrix shapes do not match the bases",
])
def test_misused_witness_raises_instead_of_failing(reason):
    # a claim that cannot apply to its endpoints contradicts nothing, so it
    # is bad input (exit 2 at the command line), never a fail
    with pytest.raises(ValueError, match=reason):
        check_witness(_misused_witness(reason))


@pytest.mark.parametrize("claim", ["algebra-homomorphism", "bijective",
                                   "involution-equivariant", "left-module-homomorphism"])
def test_witness_rows_of_the_wrong_width_are_misuse(claim):
    # a row longer or shorter than the target basis names no linear map
    a = algebra_of_censym(Z, 2)
    if claim == "left-module-homomorphism":
        m = BasedModule(a, [a.unit], name="M")
        w = LinearMapWitness(m, m, [[1, 0]], claimed=(claim,))
    else:
        w = LinearMapWitness(a, a, [row[:-1] for row in _eye(a)], _eye(a), claimed=(claim,))
    with pytest.raises(ValueError, match="matrix shapes do not match the bases"):
        check_witness(w)


@pytest.mark.parametrize("change", ["short", "extra"])
@pytest.mark.parametrize("claim", ["algebra-homomorphism", "bijective",
                                   "involution-equivariant", "left-module-homomorphism"])
def test_witness_with_the_wrong_row_count_is_misuse(claim, change):
    # a row count other than the source's rank names no map between the
    # bases: an extra row once passed and a missing one gave an IndexError
    w = morita_column_iso(Z, 6, 2) if claim == "left-module-homomorphism" else iso_even(Z, 2)
    wrong = w.matrix[:-1] if change == "short" else w.matrix + [w.matrix[0]]
    with pytest.raises(ValueError, match="matrix shapes do not match the bases"):
        LinearMapWitness(w.source, w.target, wrong, w.inverse, claimed=(claim,))
    if claim == "bijective":
        wrong = w.inverse[:-1] if change == "short" else w.inverse + [w.inverse[0]]
        with pytest.raises(ValueError, match="matrix shapes do not match the bases"):
            LinearMapWitness(w.source, w.target, w.matrix, wrong, claimed=(claim,))


def test_an_inverse_row_of_the_wrong_width_is_misuse_whatever_the_claims():
    # the inverse is converted with the matrix, up front, so a row of the
    # wrong width names no map back even when no claim reads it
    a = algebra_of_censym(Z, 2)
    eye = _eye(a)
    w = LinearMapWitness(a, a, eye, [[1, 0, 0]] + eye[1:], claimed=("algebra-homomorphism",))
    with pytest.raises(ValueError, match="matrix shapes do not match the bases"):
        check_witness(w)


def test_check_witness_converts_each_witness_row_once(monkeypatch):
    # three claims read the same matrix rows: they pass through the
    # checked boundary once, on the first read, and the inverse's once too
    w = iso_even(GF5, 3)
    assert set(w.claimed) == {"algebra-homomorphism", "bijective", "involution-equivariant"}
    rows = {id(r) for r in w.matrix + w.inverse}
    assert len(rows) == len(w.matrix) + len(w.inverse)
    seen, real = Counter(), censym.algebra.checked_sparse

    def counted(ring, v, width, message):
        if id(v) in rows:
            seen[id(v)] += 1
        return real(ring, v, width, message)

    monkeypatch.setattr(censym.algebra, "checked_sparse", counted)
    assert check_witness(w).verdict == "pass"
    assert seen == Counter(dict.fromkeys(rows, 1))


def test_centre_field_cases(field):
    for n in range(2, 6):
        a = algebra_of_censym(field, n)
        rep = centre(a, candidates=[a.unit, exchange_coords(field, n)])
        assert rep.verdict == "pass", (field.literal(), n)
        assert rep.witness["dimension"] == 2
        assert rep.witness["reduces_to_candidates"]


def test_centre_n1():
    a = algebra_of_censym(GF5, 1)
    rep = centre(a, candidates=[a.unit, exchange_coords(GF5, 1)])
    assert rep.witness["dimension"] == 1


def test_centre_matrix_algebra_is_scalars():
    rep = centre(full_matrix_algebra(GF5, 2))
    assert rep.witness["dimension"] == 1
    assert rep.witness["basis"] == ["E1_1 + E2_2"]


def test_centre_nullspace_is_closed_under_multiplication():
    a = algebra_of_censym(GF3, 5)
    rep = centre(a)
    # parse the basis back through coordinates: use candidates instead
    rep2 = centre(a, candidates=[a.unit, exchange_coords(GF3, 5)])
    assert rep2.witness["reduces_to_candidates"]
    # unit, c, and c*c stay inside the centre span
    c = exchange_coords(GF3, 5)
    cc = a.mul(c, c)
    assert cc == a.unit


def test_centre_nullspace_over_int():
    # over int the centre is the same exact nullspace as over a field
    a = algebra_of_censym(Z, 4)
    rep = centre(a, candidates=[a.unit, exchange_coords(Z, 4)])
    assert rep.verdict == "pass"
    assert rep.witness == {"dimension": 2,
                           "basis": ["f1_1 + f2_2", "f1_4 + f2_3"],
                           "reduces_to_candidates": True}
    rep_bad = centre(a, candidates=[a.basis_vector(1)])
    assert rep_bad.verdict == "fail"
    assert rep_bad.counterexample == {"candidate": a.labels[1],
                                      "reason": "not in the centre"}


def test_centre_fail_over_int_names_the_non_central_candidate():
    a = algebra_of_censym(Z, 5)
    lab = label_map(a)
    rep = centre(a, candidates=[a.unit, exchange_coords(Z, 5),
                                a.basis_vector(lab["f3_2"])])
    assert rep.verdict == "fail"
    assert rep.witness["reduces_to_candidates"] is False
    assert rep.counterexample == {"candidate": "f3_2", "reason": "not in the centre"}


def test_centre_over_int_fails_on_a_missing_central_element():
    # 1 alone commutes with everything but misses c: a rank fail, not a pass
    a = algebra_of_censym(Z, 4)
    rep = centre(a, candidates=[a.unit])
    assert rep.verdict == "fail"
    assert rep.witness["reduces_to_candidates"] is False
    assert rep.counterexample == {
        "reason": "candidates span rank 1; the centre has dimension 2"}


@pytest.mark.parametrize("which", [0, 1])
def test_centre_over_int_is_undetermined_on_a_stuck_candidate_pivot(which):
    # 1 and 2*c (or 2*1 and c) lie in the centre and have rank 2, but the
    # doubled one has no unit entry left to pivot on once the other is in
    a = algebra_of_censym(Z, 4)
    pair = [a.unit, exchange_coords(Z, 4)]
    pair[which] = [2 * x for x in pair[which]]
    rep = centre(a, candidates=pair)
    assert rep.verdict == "undetermined"
    assert rep.counterexample is None
    assert rep.witness["note"].startswith("centre not certified over this ring")


def test_centre_is_undetermined_on_a_stuck_nullspace_pivot():
    # every commutator of the integral quaternions is twice a basis element,
    # so the commutation system has no unit pivot over int; over rat the
    # centre is the scalars
    a = _quaternions(Z)
    assert a.validate() == []
    for candidates in (None, [a.unit]):
        rep = centre(a, candidates=candidates)
        assert rep.verdict == "undetermined"
        assert rep.witness["note"].startswith("centre not certified over this ring")
    rep = centre(_quaternions(Q), candidates=[[1, 0, 0, 0]])
    assert rep.verdict == "pass"
    assert rep.witness == {"dimension": 1, "basis": ["1"], "reduces_to_candidates": True}


def test_centre_field_fail_names_a_non_central_candidate():
    a = algebra_of_censym(GF3, 4)
    rep = centre(a, candidates=[a.unit, a.basis_vector(1)])
    assert rep.verdict == "fail"
    assert rep.counterexample == {"candidate": a.format_element(a.basis_vector(1)),
                                  "reason": "not in the centre"}


@pytest.mark.parametrize("width", [1, 6])
def test_centre_rejects_a_candidate_of_the_wrong_length(width):
    # the rank-5 algebra at n = 3: a short or long vector is misuse, not a verdict
    a = algebra_of_censym(Z, 3)
    with pytest.raises(ValueError, match="length"):
        centre(a, candidates=[a.unit, [1] + [0] * (width - 1)])


def test_centre_field_fail_on_too_few_candidates():
    a = algebra_of_censym(GF3, 4)
    rep = centre(a, candidates=[a.unit])
    assert rep.verdict == "fail"
    assert rep.counterexample == {
        "reason": "candidates span rank 1; the centre has dimension 2"}


def test_format_vector():
    a = algebra_of_censym(Z, 3)
    v = a.zero_vector()
    lab = label_map(a)
    v[lab["f1_1"]] = 1
    v[lab["f1_3"]] = -1
    v[lab["f2_2"]] = 2
    assert format_vector(Z, a.labels, v) == "f1_1 - f1_3 + 2*f2_2"
    assert format_vector(Z, a.labels, a.zero_vector()) == "0"
    w = algebra_of_censym(C2Z, 2)
    u = w.zero_vector()
    u[0] = (1, 1)
    assert format_vector(C2Z, w.labels, u) == "(1+1*x)*f1_1"


def test_centre_basis_spans_closed_algebra(field):
    from censym.algebra import centre_basis
    from censym.linalg import span_basis

    a = algebra_of_censym(field, 4)
    basis = centre_basis(a)
    rb = span_basis(field, basis, a.rank)
    assert rb.contains(a.unit)
    for x in basis:
        for y in basis:
            assert rb.contains(a.mul(x, y))


def test_quotient_complement_inclusion_round_trip():
    a = algebra_of_censym(Q, 5)
    lab = label_map(a)
    j = ideal_generated(a, [a.basis_vector(lab["f3_3"])])
    q, proj = quotient_by_ideal(a, j)
    # the quotient basis consists of classes of original basis elements;
    # projecting those representatives gives back the unit coordinates
    for qi, qlab in enumerate(q.labels):
        rep = a.basis_vector(lab[qlab])
        assert proj.apply(rep) == q.basis_vector(qi)


def test_centre_containment_at_size_one_dedupes_candidates():
    # the exchange matrix IS the unit at size 1; the duplicated candidate
    # list spans the rank-one centre, so it must not fail
    a = algebra_of_censym(Z, 1)
    rep = centre(a, candidates=[a.unit, exchange_coords(Z, 1)])
    assert rep.verdict == "pass"


def test_full_matrix_algebra_unflattened_over_group_ring():
    m = full_matrix_algebra(C2Z, 2, flatten_group_ring=False)
    assert m.rank == 4 and m.ring == C2Z
    assert m.validate() == []


def _schoolbook_matrix_table(ring, m, flatten):
    """E_{i,j}x^g * E_{p,q}x^h = delta_{j,p} E_{i,q}x^(g+h mod 2) over every
    pair of matrix units, keyed row-major, with the labels it implies."""
    flatten = flatten and isinstance(ring, GroupRingC2)
    units = [(i, j, g) for i in range(1, m + 1) for j in range(1, m + 1)
             for g in ((0, 1) if flatten else (0,))]
    one = (ring.base if flatten else ring).one()
    labels = tuple(f"x*E{i}_{j}" if g else f"E{i}_{j}" for i, j, g in units)
    table = {(u, v): ((units.index((i, q, (g + h) % 2)), one),)
             for u, (i, j, g) in enumerate(units)
             for v, (p, q, h) in enumerate(units) if j == p}
    return labels, table


@pytest.mark.parametrize("m", range(1, 6))
@pytest.mark.parametrize("ring,flatten", [(Z, True), (GF5, True), (C2Z, True),
                                          (C2Z, False)])
def test_full_matrix_algebra_matches_schoolbook_units(m, ring, flatten):
    a = full_matrix_algebra(ring, m, flatten_group_ring=flatten)
    labels, table = _schoolbook_matrix_table(ring, m, flatten)
    assert a.labels == labels
    assert list(a.table.items()) == list(table.items())


@pytest.mark.parametrize("n", [0, -2])
def test_algebra_of_censym_rejects_non_positive_size(n):
    with pytest.raises(ValueError, match="matrix size must be >= 1"):
        algebra_of_censym(Z, n)


# Negative controls for validate(): M_2(Z) on E1_1, E1_2, E2_1, E2_2 with one
# part of the presentation broken; the defect list is pinned in order.

def broken_m2(table_edits=(), unit=None, invol=None):
    m = full_matrix_algebra(Z, 2)
    table = dict(m.table)
    table.update(table_edits)
    return StructureAlgebra(Z, m.labels, table, m.unit if unit is None else unit,
                            dense_invol(m) if invol is None else invol)


def test_validate_broken_table_entry():
    # E1_2 * E2_1 should be E1_1
    a = broken_m2({(1, 2): ((3, 1),)})
    assert a.validate() == [
        "associativity fails at (E1_1, E1_2, E2_1)",
        "associativity fails at (E1_2, E1_2, E2_1)",
        "associativity fails at (E1_2, E2_1, E1_1)",
        "associativity fails at (E1_2, E2_1, E1_2)",
        "associativity fails at (E1_2, E2_1, E2_1)",
        "associativity fails at (E1_2, E2_1, E2_2)",
        "associativity fails at (E2_1, E1_2, E2_1)",
        "associativity fails at (E2_2, E1_2, E2_1)",
    ]


def test_validate_two_term_table_entry():
    # E1_1 * E1_1 = E1_1 + E1_2 breaks the unit law, associativity and the
    # anti-homomorphism clause
    a = broken_m2({(0, 0): ((0, 1), (1, 1))})
    assert a.validate() == [
        "unit law fails at E1_1",
        "associativity fails at (E1_1, E1_1, E1_1)",
        "associativity fails at (E1_1, E1_1, E2_1)",
        "associativity fails at (E1_1, E1_1, E2_2)",
        "associativity fails at (E1_1, E1_2, E2_1)",
        "associativity fails at (E1_2, E2_1, E1_1)",
        "associativity fails at (E2_1, E1_1, E1_1)",
        "involution is not an anti-homomorphism at (E1_1, E1_1)",
    ]


def test_validate_broken_table_over_group_ring():
    # M_2(Z[C2]) unflattened, with E2_1 * E1_2 = x*E2_2 instead of E2_2
    m = full_matrix_algebra(C2Z, 2, flatten_group_ring=False)
    table = dict(m.table)
    table[(2, 1)] = ((3, (0, 1)),)
    a = StructureAlgebra(C2Z, m.labels, table, m.unit, dense_invol(m))
    assert a.validate() == [
        "associativity fails at (E1_2, E2_1, E1_2)",
        "associativity fails at (E2_1, E1_2, E2_1)",
    ]


def test_validate_dropped_unit_coordinate():
    a = broken_m2(unit=[1, 0, 0, 0])
    assert a.validate() == [
        "unit law fails at E1_2",
        "unit law fails at E2_1",
        "unit law fails at E2_2",
    ]


def test_validate_non_involutive_involution():
    # x -> g x^T g^-1 with g = [[1, 1], [0, 1]] is an anti-automorphism
    # fixing the unit, of infinite order
    g = [[1, -1, 0, 0], [1, -1, 1, -1], [0, 1, 0, 0], [0, 1, 0, 1]]
    assert broken_m2(invol=g).validate() == [
        "involution is not an involution at E1_1",
        "involution is not an involution at E1_2",
        "involution is not an involution at E2_1",
        "involution is not an involution at E2_2",
    ]


def test_validate_unit_moving_involution():
    # x -> -x^T squares to the identity but sends 1 to -1
    minus_transpose = [[-c for c in row] for row in dense_invol(full_matrix_algebra(Z, 2))]
    assert broken_m2(invol=minus_transpose).validate() == [
        "involution moves the unit",
        "involution is not an anti-homomorphism at (E1_1, E1_1)",
        "involution is not an anti-homomorphism at (E1_1, E1_2)",
        "involution is not an anti-homomorphism at (E1_2, E2_1)",
        "involution is not an anti-homomorphism at (E1_2, E2_2)",
        "involution is not an anti-homomorphism at (E2_1, E1_1)",
        "involution is not an anti-homomorphism at (E2_1, E1_2)",
        "involution is not an anti-homomorphism at (E2_2, E2_1)",
        "involution is not an anti-homomorphism at (E2_2, E2_2)",
    ]


def test_validate_multiplicative_involution():
    # the identity squares to the identity and fixes the unit, but M_2 is
    # not commutative: it fails exactly at the non-commuting pairs
    eye = [[int(i == j) for j in range(4)] for i in range(4)]
    assert broken_m2(invol=eye).validate() == [
        "involution is not an anti-homomorphism at (E1_1, E1_2)",
        "involution is not an anti-homomorphism at (E1_1, E2_1)",
        "involution is not an anti-homomorphism at (E1_2, E1_1)",
        "involution is not an anti-homomorphism at (E1_2, E2_1)",
        "involution is not an anti-homomorphism at (E1_2, E2_2)",
        "involution is not an anti-homomorphism at (E2_1, E1_1)",
        "involution is not an anti-homomorphism at (E2_1, E1_2)",
        "involution is not an anti-homomorphism at (E2_1, E2_2)",
        "involution is not an anti-homomorphism at (E2_2, E1_2)",
        "involution is not an anti-homomorphism at (E2_2, E2_1)",
    ]


def _combine(ring, weighted) -> dict:
    """sum c*terms over (c, terms) as {w: coefficient}, zeros dropped."""
    acc = {}
    for c, terms in weighted:
        for w, d in terms:
            p = ring.mul(c, d)
            acc[w] = ring.add(acc[w], p) if w in acc else p
    return {w: x for w, x in acc.items() if x != ring.zero()}


def _validate_exhaustive(a):
    """Reference audit: every clause over the whole basis, the associativity
    clause over every triple and the anti-homomorphism clause over every
    pair, in basis order.  ``validate()`` must return this list exactly."""
    defects = []
    r, tbl = a.rank, a.table
    for u in range(r):
        e = a.basis_vector(u)
        if a.mul(a.unit, e) != e or a.mul(e, a.unit) != e:
            defects.append(f"unit law fails at {a.labels[u]}")
    for u in range(r):
        for v in range(r):
            uv = tbl.get((u, v), ())
            for w in range(r):
                vw = tbl.get((v, w), ())
                if not uv and not vw:
                    continue
                left = _combine(a.ring, ((c, tbl.get((t, w), ())) for t, c in uv))
                right = _combine(a.ring, ((c, tbl.get((u, t), ())) for t, c in vw))
                if left != right:
                    defects.append("associativity fails at "
                                   f"({a.labels[u]}, {a.labels[v]}, {a.labels[w]})")
    if a.invol_sparse is not None:
        invol = dense_invol(a)
        apply_invol = LinearMapWitness(a, a, invol).apply
        for u in range(r):
            if apply_invol(invol[u]) != a.basis_vector(u):
                defects.append(f"involution is not an involution at {a.labels[u]}")
        if apply_invol(a.unit) != a.unit:
            defects.append("involution moves the unit")
        for u in range(r):
            for v in range(r):
                uv = to_dense(a.ring, a.mul_basis_sparse(u, v), r)
                if apply_invol(uv) != a.mul(invol[v], invol[u]):
                    defects.append("involution is not an anti-homomorphism at "
                                   f"({a.labels[u]}, {a.labels[v]})")
    return defects


def _with_table_entry(a, uv, terms):
    table = dict(a.table)
    table[uv] = terms
    return StructureAlgebra(a.ring, a.labels, table, a.unit, dense_invol(a), a._first)


def _names_first_factor_outside_generators(a, defects):
    """Whether some associativity or anti-homomorphism defect has a first
    factor outside G, which a scan of G alone would never report."""
    outside = {a.labels[u] for u in range(a.rank) if u not in a.generators()}
    return any(d.partition("(")[2].split(",")[0] in outside
               for d in defects if "(" in d)


def _assert_validate_is_exhaustive(a):
    """validate() agrees with the exhaustive reference on a, and on a with
    the first table entry of its last non-generator u dropped.  The list
    for the broken table names a first factor outside G, a defect that the
    certified scan finds only by its full re-scan."""
    assert a.validate() == _validate_exhaustive(a) == []
    outside = [u for u in range(a.rank) if u not in a.generators()]
    if not outside:
        return
    u = outside[-1]
    v = min(v for w, v in a.table if w == u)
    broken = _with_table_entry(a, (u, v), ())
    want = _validate_exhaustive(broken)
    assert want and _names_first_factor_outside_generators(broken, want)
    assert broken.validate() == want


@pytest.mark.parametrize("n", range(1, 8))
def test_validate_matches_exhaustive_reference_censym(n, any_ring):
    _assert_validate_is_exhaustive(algebra_of_censym(any_ring, n))


@pytest.mark.parametrize("m", range(1, 5))
@pytest.mark.parametrize("ring,flatten", [(Z, True), (GF5, True), (C2Z, True),
                                          (C2Z, False)])
def test_validate_matches_exhaustive_reference_full_matrix(m, ring, flatten):
    _assert_validate_is_exhaustive(full_matrix_algebra(ring, m, flatten_group_ring=flatten))


@pytest.mark.parametrize("m", range(1, 4))
def test_validate_matches_exhaustive_reference_odd_quotient(m, any_ring):
    _assert_validate_is_exhaustive(odd_quotient(any_ring, m)[2])


CORRUPTED = {
    "M_2(int)": lambda: full_matrix_algebra(Z, 2),
    "M_3(gf:2)": lambda: full_matrix_algebra(GF2, 3),
    "S_3(int)": lambda: algebra_of_censym(Z, 3),
    "S_4(c2:int)": lambda: algebra_of_censym(C2Z, 4),
    "S_5(int)/J": lambda: odd_quotient(Z, 2)[2],
    "M_3(c2:int)": lambda: full_matrix_algebra(C2Z, 3),
}


def _corrupt(a, part, seed):
    """a with one seeded entry replaced: a table entry (u, v) becomes the
    single term c*e_w, or one coordinate of an involution image becomes c,
    with c a seeded non-zero payload."""
    rng = random.Random(seed)
    r, ring = a.rank, a.ring
    u, w = rng.randrange(r), rng.randrange(r)
    c = ring.sample(rng)
    while c == ring.zero():
        c = ring.sample(rng)
    if part == "table":
        return _with_table_entry(a, (u, rng.randrange(r)), ((w, c),))
    invol = [list(row) for row in dense_invol(a)]
    invol[u][w] = c
    return StructureAlgebra(ring, a.labels, a.table, a.unit, invol, a._first)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("part", ["table", "involution"])
@pytest.mark.parametrize("name", CORRUPTED)
def test_validate_matches_exhaustive_reference_on_seeded_corruptions(name, part, seed):
    a = _corrupt(CORRUPTED[name](), part, seed)
    assert a.validate() == _validate_exhaustive(a)


@pytest.mark.parametrize("name", CORRUPTED)
def test_validate_seeded_corruptions_reach_past_the_generators(name):
    # the seeds above give each algebra a corrupted table whose defect list
    # names a first factor outside G, so they exercise the full re-scan
    broken = [_corrupt(CORRUPTED[name](), "table", s) for s in range(10)]
    assert any(_names_first_factor_outside_generators(a, a.validate()) for a in broken)


def test_validate_first_defect_outside_the_generators():
    # one seeded table entry of S_4(c2:int) broken: G is the cycle
    # {f1_2, f2_4}, and the first defect in basis order has first factor f1_1
    a = _corrupt(CORRUPTED["S_4(c2:int)"](), "table", 4)
    assert [a.labels[g] for g in a.generators()] == ["f1_2", "f2_4"]
    defects = a.validate()
    assert defects == _validate_exhaustive(a)
    assert defects[0] == "associativity fails at (f1_1, f1_4, f2_4)"


def test_table_entry_naming_a_basis_index_twice_is_rejected():
    # mul would add the two coefficients where mul_basis kept the last one;
    # such a table has no single meaning
    with pytest.raises(ValueError, match=r"table entry \(1, 2\) names a basis index twice"):
        broken_m2({(1, 2): ((0, 1), (3, 1), (3, -1))})
    m = full_matrix_algebra(Z, 2)
    with pytest.raises(ValueError, match=r"table entry \(1, 2\) names a basis index twice"):
        broken_m2({(1, 2): ((3, 1), (3, 2))}, invol=m.invol_sparse)


@pytest.mark.parametrize("key, terms", [((0, 3), ((0, 1),)), ((3, 0), ((0, 1),)),
                                        ((0, 0), ((2, 1),)), ((0, 0), ((0, 1), (-1, 1)))])
def test_table_entry_naming_an_index_outside_the_basis_is_rejected(key, terms):
    # such an entry once built, validated and vanished from to_json_dict()
    table = {(0, 0): ((0, 1),), key: terms}
    with pytest.raises(ValueError,
                       match=re.escape(f"table entry {key} names an index outside the basis")):
        StructureAlgebra(Z, ["1"], table, [1], invol=[[1]])


def test_a_table_entry_with_no_non_zero_term_is_dropped_unchecked(any_ring):
    # it names no product, so its indices, even outside the basis, are not read
    one, zero = any_ring.one(), any_ring.zero()
    table = {(0, 0): ((0, one),), (5, 0): (), (0, 7): ((9, zero),)}
    a = StructureAlgebra(any_ring, ["1"], table, [one], invol=[[one]])
    assert a.table == {(0, 0): ((0, one),)}


def test_a_zero_term_beside_a_repeated_index_is_dropped_first(any_ring):
    # ((w, 0), (w, 1)) names w once after its zero goes; ((w, 1), (w, -1)) twice
    m = full_matrix_algebra(any_ring, 2, flatten_group_ring=False)
    one, zero, table = any_ring.one(), any_ring.zero(), m.table
    table[(1, 2)] = ((0, zero), (0, one))
    assert StructureAlgebra(any_ring, m.labels, table, m.unit_sparse).by_left[1][2] == {0: one}
    table[(1, 2)] = ((0, one), (0, any_ring.neg(one)))
    with pytest.raises(ValueError, match=r"table entry \(1, 2\) names a basis index twice"):
        StructureAlgebra(any_ring, m.labels, table, m.unit_sparse)


@pytest.mark.parametrize("build", [
    lambda R: algebra_of_censym(R, 5),
    lambda R: full_matrix_algebra(R, 2),
    lambda R: full_matrix_algebra(R, 2, flatten_group_ring=False),
    lambda R: direct_product(algebra_of_censym(R, 3),
                             full_matrix_algebra(R, 2, flatten_group_ring=False)),
    lambda R: odd_quotient(R, 2)[2],
    lambda R: quotient_by_ideal(*_quotient_of_size(R, 6)[:2])[0],
    lambda R: endring_odd(R, 5)[0],  # a corner through subalgebra_from_vectors
], ids=["censym", "matrix", "matrix-unflattened", "product", "odd-quotient",
        "skew-quotient", "subalgebra"])
def test_dense_and_sparse_involution_rows_build_the_same_algebra(build, any_ring):
    """The constructor stores the involution sparse whichever form its rows
    come in, and drops zero coefficients from the table in one pass.  The
    table is a fresh row-major dict on every read, so clearing one leaves
    the algebra's products as they were, and a rebuild from it multiplies
    the same."""
    a = build(any_ring)
    r, table = a.rank, a.table
    assert table is not a.table and list(table) == sorted(table)
    x, y = {u: a.ring.one() for u in range(r)}, {u: a.ring.one() for u in range(0, r, 2)}
    products = [dict(a.mul_basis_sparse(u, v)) for u in range(r) for v in range(r)]
    xy = a.mul_sparse(x, y)
    table.clear()
    assert [a.mul_basis_sparse(u, v) for u in range(r) for v in range(r)] == products
    assert a.mul_sparse(x, y) == xy and a.table and list(a.table) == sorted(a.table)
    padded = {uv: terms + ((0, a.ring.zero()),) for uv, terms in a.table.items()}
    padded[(0, 0)] = padded.get((0, 0), ()) + ((1, a.ring.zero()),)
    for b in (StructureAlgebra(a.ring, a.labels, a.table, a.unit, dense_invol(a)),
              StructureAlgebra(a.ring, a.labels, padded, a.unit, a.invol_sparse)):
        assert (b.labels, b.table, b.unit, b.invol_sparse, dense_invol(b)) == (
            a.labels, a.table, a.unit, a.invol_sparse, dense_invol(a))
        assert list(b.table) == list(a.table)
        assert [b.mul_basis_sparse(u, v) for u in range(r) for v in range(r)] == products
        assert b.mul_sparse(x, y) == xy
        assert b.to_json_dict() == a.to_json_dict()


def _key_order(rows):
    """Nested rows as lists, so that equality also compares the key order at
    every level."""
    return [(u, [(v, list(terms.items())) for v, terms in row.items()])
            for u, row in rows.items()]


BUILDERS = {
    **{f"censym-{n}": lambda R, n=n: algebra_of_censym(R, n) for n in range(1, 10)},
    **{f"matrix-{m}": lambda R, m=m: full_matrix_algebra(R, m) for m in (1, 2, 3)},
    **{f"matrix-unflattened-{m}": lambda R, m=m: full_matrix_algebra(
        R, m, flatten_group_ring=False) for m in (1, 2, 3)},
    "odd-quotient": lambda R: _quotient_of_size(R, 7)[2],
    "even-quotient": lambda R: _quotient_of_size(R, 6)[2],
    "product": lambda R: direct_product(algebra_of_censym(R, 3),
                                        full_matrix_algebra(R, 2, flatten_group_ring=False)),
    "subalgebra": lambda R: endring_odd(R, 5)[0],
    "s3": lambda R: s3_presentation(R)[0],
}


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
def test_a_rebuild_from_the_flat_table_gives_the_builders_rows(build, any_ring):
    """Each builder hands its rows over nested; read back out flat and
    rebuilt, they give the same ``by_left``, key order included."""
    a = build(any_ring)
    b = StructureAlgebra(a.ring, a.labels, a.table, a.unit_sparse, a.invol_sparse)
    assert _key_order(b.by_left) == _key_order(a.by_left) and b.validate() == []


def test_clean_nested_rows_are_adopted_as_they_are(any_ring):
    m = full_matrix_algebra(any_ring, 2)
    rows = {u: {v: dict(terms) for v, terms in row.items()} for u, row in m.by_left.items()}
    assert StructureAlgebra(m.ring, m.labels, rows, m.unit_sparse).by_left is rows
    # a row that names no product is dropped, as a flat table cannot hold it
    b = StructureAlgebra(m.ring, m.labels, {**rows, 0: {}}, m.unit_sparse)
    assert list(b.by_left) == list(rows)[1:]


def _bad_entries(one, zero):
    """Each bad entry: the (u, v) it sits at, its terms, and whether it
    raises (else its zero terms are dropped, and the entry if it empties)."""
    return {
        "zero-term": ((1, 2), {0: one, 3: zero}, False),
        "zero-only": ((0, 3), {1: zero}, False),
        "zero-outside": ((0, 3), {9: zero}, False),
        "empty": ((0, 3), {}, False),
        "u-outside-zero": ((7, 0), {0: zero}, False),
        "w-outside": ((1, 2), {0: one, 9: one}, True),
        "w-negative": ((1, 2), {-1: one}, True),
        "u-outside": ((7, 0), {0: one}, True),
        "v-outside": ((0, 7), {0: one}, True),
    }


@pytest.mark.parametrize("case", _bad_entries(1, 0).keys())
def test_nested_and_flat_forms_of_a_bad_entry_have_one_outcome(case, any_ring):
    """The same bad entry, nested or flat, is dropped the same way or raises
    the same ValueError."""
    m = full_matrix_algebra(any_ring, 2, flatten_group_ring=False)
    (u, v), terms, raises = _bad_entries(any_ring.one(), any_ring.zero())[case]

    def outcome(form):
        rows = {x: {y: dict(t) for y, t in row.items()} for x, row in m.by_left.items()}
        rows.setdefault(u, {})[v] = dict(terms)
        if form == "flat":
            rows = {(x, y): tuple(t.items()) for x, row in rows.items() for y, t in row.items()}
        try:
            return _key_order(StructureAlgebra(m.ring, m.labels, rows, m.unit_sparse).by_left)
        except ValueError as exc:
            return str(exc)

    nested = outcome("nested")
    assert outcome("flat") == nested
    if raises:
        assert nested == f"table entry {(u, v)} names an index outside the basis"
    else:
        expected = {**m.by_left, u: {**m.by_left.get(u, {}), v: {
            w: c for w, c in terms.items() if c != any_ring.zero()}}}
        expected[u] = {y: t for y, t in expected[u].items() if t}
        assert nested == _key_order({x: row for x, row in expected.items() if row})


def _dict_lookup_matrix_algebra(ring, m, flatten_group_ring=True):
    """``full_matrix_algebra``'s labels, rows, unit, involution and cycle
    through an (i, j, g) -> index dict: the reference for its index
    arithmetic."""
    flatten = isinstance(ring, GroupRingC2) and flatten_group_ring
    base, powers = (ring.base, (0, 1)) if flatten else (ring, (0,))
    idx, labels = {}, []
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            for g in powers:
                idx[(i, j, g)] = len(labels)
                labels.append(f"E{i}_{j}" if g == 0 else f"x*E{i}_{j}")
    one = base.one()
    table = {u: {idx[(j, q, h)]: {idx[(i, q, (g + h) % 2)]: one}
                 for q in range(1, m + 1) for h in powers} for (i, j, g), u in idx.items()}
    unit = {idx[(i, i, 0)]: one for i in range(1, m + 1)}
    invol = [{idx[(j, i, g)]: one} for (i, j, g) in idx]
    cycle = [idx[(i, i + 1, 0)] for i in range(1, m)] + [idx[(m, 1, int(flatten))]]
    return base, labels, table, unit, invol, cycle


@pytest.mark.parametrize("flatten", [True, False], ids=["flattened", "unflattened"])
def test_matrix_algebra_indices_match_a_dict_lookup_reference(flatten, any_ring):
    for m in range(1, 7):
        a = full_matrix_algebra(any_ring, m, flatten_group_ring=flatten)
        base, labels, table, unit, invol, cycle = _dict_lookup_matrix_algebra(any_ring, m, flatten)
        assert a.ring == base and a.labels == tuple(labels), m
        assert repr(a.by_left) == repr(table) and a.by_left == table, m
        assert a.unit_sparse == unit and a.invol_sparse == invol and a._first == tuple(cycle), m


def _old_adoption(ring, labels, table):
    """``StructureAlgebra.__init__``'s adoption test before its passes ran in
    C: the outcome reference for the current one."""
    zero, basis = ring.zero(), frozenset(range(len(labels)))
    clean = all if ring.is_zero is not_ else lambda cs: zero not in cs
    rows = table.values()
    if not (table.keys() <= basis and all(row and row.keys() <= basis for row in rows)
            and all(terms and clean(terms.values()) and terms.keys() <= basis
                    for row in rows for terms in row.values())):
        table = censym.algebra._checked_rows(ring, basis, table)
    return table


def _adoption_outcome(build, rows):
    """What a build from ``rows`` gives: its store with key order at every
    level and whether it is ``rows`` itself, or the exception type raised."""
    try:
        got = build(rows)
    except (AttributeError, TypeError, ValueError) as exc:
        return type(exc).__name__
    return got is rows, [(u, [(v, list(t.items()) if isinstance(t, dict) else t)
                              for v, t in row.items()]) for u, row in got.items()]


def _unusual_tables(m):
    """The nine bad entries nested and flat, m's flat table, and rows or
    terms that are not dicts."""
    one, zero = m.ring.one(), m.ring.zero()
    rows = {u: {v: dict(t) for v, t in row.items()} for u, row in m.by_left.items()}
    out = {"clean": rows, "flat": m.table, "empty": {}}
    for case, ((u, v), terms, _) in _bad_entries(one, zero).items():
        bad = {x: dict(row) for x, row in rows.items()}
        bad.setdefault(u, {})[v] = dict(terms)
        out[f"{case}-nested"] = bad
        out[f"{case}-flat"] = {(x, y): tuple(t.items()) for x, row in bad.items()
                               for y, t in row.items()}
    odd = {
        "row-list-of-indices": [1, 2], "row-list-of-pairs": [(1, {0: one})],
        "row-unhashable": [[1, {0: one}]], "row-tuple": (), "row-none": None,
        "row-set": {0, 1}, "row-string": "01", "terms-pairs": {1: [(0, one)]},
        "terms-empty-list": {1: []}, "terms-unhashable": {1: [[0, one]]},
        "terms-indices": {1: [0]}, "terms-set": {1: {0}},
    }
    for case, row in odd.items():
        out[case] = {**rows, 0: row}
    return out


@pytest.mark.parametrize("case", _unusual_tables(full_matrix_algebra(Z, 2)).keys())
def test_adoption_has_the_outcome_of_the_generator_test(case, any_ring):
    """The passes in C adopt exactly what the per-row generator test adopted,
    and every other table goes to ``_checked_rows`` with the same outcome."""
    m = full_matrix_algebra(any_ring, 2, flatten_group_ring=False)
    rows = _unusual_tables(m)[case]
    got = _adoption_outcome(
        lambda t: StructureAlgebra(m.ring, m.labels, t, m.unit_sparse).by_left, rows)
    assert got == _adoption_outcome(lambda t: _old_adoption(m.ring, m.labels, t), rows)


def test_building_the_centrosymmetric_algebra_holds_one_copy_of_its_products():
    """The oracle's rows are the store: the build peaks at no more than
    1.15 times what the algebra holds once built, where a flat table
    converted beside the rows would peak at about 1.6 times."""
    tracemalloc.start()
    try:
        a = algebra_of_censym(GF5, 24)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert a.rank == 288 and peak <= 1.15 * held


def _word_span_rank(a):
    """Rank of the R-span of the words in a.generators(), found by span_basis
    alone: extend the span by left products with the generators until it
    stops growing (span_basis either grows the rank, confirms membership or
    raises, so an unchanged rank means the span is closed)."""
    gens = [a.basis_vector(g) for g in a.generators()]
    rows, rank = gens, None
    while True:
        rb = span_basis(a.ring, rows, a.rank)
        if rb.rank == rank:
            return rank
        rank = rb.rank
        rows = [to_dense(a.ring, r, a.rank) for r in rb.sparse_rows]
        rows += [a.mul(g, r) for g in gens for r in rows]


@pytest.mark.parametrize("n", range(1, 13))
def test_generators_span_censym_algebra(n, any_ring):
    a = algebra_of_censym(any_ring, n)
    assert _word_span_rank(a) == a.rank
    # the certificate stays well short of the whole basis from n = 6 on
    assert n < 6 or 2 * len(a.generators()) < a.rank


@pytest.mark.parametrize("m", range(1, 5))
@pytest.mark.parametrize("ring,flatten", [(Z, True), (GF5, True), (C2Z, True),
                                          (C2Z, False)])
def test_generators_span_full_matrix_algebra(m, ring, flatten):
    a = full_matrix_algebra(ring, m, flatten_group_ring=flatten)
    assert _word_span_rank(a) == a.rank


@pytest.mark.parametrize("m", range(1, 5))
def test_generators_span_odd_quotient(m, any_ring):
    _, _, quot, _ = odd_quotient(any_ring, m)
    assert _word_span_rank(quot) == quot.rank


def test_fail_names_the_basis_order_counterexample_whatever_the_generator_order():
    # a clause scans the generators first and re-scans the whole basis only
    # on a fail; with the generators reversed the scan meets a later failure
    # first, and the report must still name the first one in basis order
    w = morita_column_iso(Z, 6, 2)
    matrix = dense_rows(w.matrix, Z, w.target.rank)
    matrix[4] = [2 * c for c in matrix[4]]
    a = w.source.algebra
    a._generators = tuple(reversed(a.generators()))
    rep = check_witness(LinearMapWitness(w.source, w.target, matrix, w.inverse,
                                         claimed=w.claimed, name=w.name))
    assert rep.counterexample == {"input": "(f1_3, S*f1[4])", "lhs": "f1_2",
                                  "rhs": "2*f1_2",
                                  "property": "left-module-homomorphism"}
    b = algebra_of_censym(Z, 5)
    b._generators = tuple(reversed(b.generators()))
    rep = centre(b, candidates=[b.unit, b.basis_vector(label_map(b)["f3_2"])])
    assert rep.counterexample == {"candidate": "f3_2", "reason": "not in the centre"}
    rep = check_witness(LinearMapWitness(b, b, dense_invol(b),
                                         claimed=("algebra-homomorphism",)))
    assert rep.counterexample == {"input": "(f1_1, f1_2)", "lhs": "f2_1", "rhs": "0",
                                  "property": "algebra-homomorphism"}
    c = broken_m2({(1, 2): ((3, 1),)})
    c._generators = tuple(reversed(c.generators()))
    assert c.validate() == _validate_exhaustive(c)
    assert c.validate()[0] == "associativity fails at (E1_1, E1_2, E2_1)"


def test_generators_fall_back_to_whole_basis_on_square_zero_radical():
    # basis 1, x, y with x*x = x*y = y*x = y*y = 0: no product of basis
    # elements reaches x or y, so every index must be its own generator
    table = {(0, v): ((v, 1),) for v in range(3)}
    table.update({(v, 0): ((v, 1),) for v in range(1, 3)})
    a = StructureAlgebra(Z, ["1", "x", "y"], table, [1, 0, 0])
    assert a.validate() == []
    assert a.generators() == (0, 1, 2)
    assert _word_span_rank(a) == a.rank


def test_generators_skip_a_non_unit_reach():
    # over int the odd middle idempotent f3_3 is twice a word in the cycle
    # f1_2, f2_5 and the middle f1_3, f3_1, which the certificate cannot
    # divide out, so f3_3 stays in G; over gf:5 it is reached and leaves G
    a, b = algebra_of_censym(Z, 5), algebra_of_censym(GF5, 5)
    assert [a.labels[g] for g in a.generators()] == [
        "f1_2", "f1_3", "f2_5", "f3_1", "f3_3"]
    assert [b.labels[g] for g in b.generators()] == [
        "f1_2", "f1_3", "f2_5", "f3_1"]


def _reached(a, gens):
    """Indices the generator certificate reaches from gens, by a plain
    fixpoint over the table: u joins when some T[g, v] or T[v, g], g in gens
    and v reached, names u with a unit coefficient and otherwise only
    reached indices."""
    gens, reached, table = set(gens), set(gens), a.table
    while True:
        fresh = set()
        for (u, v), terms in table.items():
            if u in gens and v in reached or v in gens and u in reached:
                new = [(w, c) for w, c in terms if w not in reached]
                if len(new) == 1 and a.ring.inv(new[0][1]) is not None:
                    fresh.add(new[0][0])
        if not fresh:
            return reached
        reached |= fresh


def _assert_irredundant(a):
    """G reaches every index, and without any one of its indices it does not."""
    gens = a.generators()
    assert _reached(a, gens) == set(range(a.rank))
    for g in gens:
        assert _reached(a, [h for h in gens if h != g]) != set(range(a.rank)), g


@pytest.mark.parametrize("n", range(1, 13))
def test_generators_are_irredundant_censym_algebra(n, any_ring):
    _assert_irredundant(algebra_of_censym(any_ring, n))


@pytest.mark.parametrize("m", range(1, 5))
@pytest.mark.parametrize("ring,flatten", [(Z, True), (GF5, True), (C2Z, True),
                                          (C2Z, False)])
def test_generators_are_irredundant_full_matrix_algebra(m, ring, flatten):
    _assert_irredundant(full_matrix_algebra(ring, m, flatten_group_ring=flatten))


@pytest.mark.parametrize("m", range(1, 5))
def test_generators_are_irredundant_odd_quotient(m, any_ring):
    _assert_irredundant(odd_quotient(any_ring, m)[2])


@pytest.mark.parametrize("kind,size", [("censym", n) for n in range(1, 10)]
                         + [("full", m) for m in range(1, 5)]
                         + [("odd-quotient", m) for m in range(1, 4)])
def test_generators_without_first_certify_in_index_order(kind, size, any_ring):
    # with no cycle named, G is the index-order greedy's join set, unpruned:
    # it still reaches every index, and validate() is still the exhaustive audit
    if kind == "censym":
        a = algebra_of_censym(any_ring, size)
    elif kind == "full":
        a = full_matrix_algebra(any_ring, size)
    else:
        a = odd_quotient(any_ring, size)[2]
    b = StructureAlgebra(a.ring, a.labels, a.by_left, a.unit_sparse, a.invol_sparse)
    assert _reached(b, b.generators()) == set(range(b.rank))
    _assert_validate_is_exhaustive(b)


def _pruned_over_every_index(a):
    """G as a greedy over first, then the basis, followed by a prune trial of
    every joined index but the last, those from first included."""
    gens, reached, whole = [], set(), set(range(a.rank))
    for u in [*a._first, *range(a.rank)]:
        if u not in reached:
            gens.append(u)
            reached = _reached(a, gens)
    for g in reversed(gens[:-1]):
        rest = [h for h in gens if h != g]
        if _reached(a, rest) == whole:
            gens = rest
    return tuple(sorted(gens))


PRUNE_RINGS = [Z, GF5, Z4, C2Z]
PRUNE_CASES = ([("censym", n, None) for n in range(1, 17)]
               + [("full", m, flatten) for m in range(1, 7) for flatten in (True, False)]
               + [("odd-quotient", m, None) for m in range(1, 6)])


@pytest.mark.parametrize("kind,size,flatten", PRUNE_CASES)
@pytest.mark.parametrize("ring", PRUNE_RINGS, ids=lambda r: r.literal())
def test_generators_skip_the_prune_only_where_it_drops_nothing(kind, size, flatten, ring):
    # generators() keeps every index its greedy joined, with no prune; on
    # these algebras a prune over every index drops none, so G is the same
    if kind == "censym":
        a = algebra_of_censym(ring, size)
    elif kind == "full":
        a = full_matrix_algebra(ring, size, flatten_group_ring=flatten)
    else:
        a = odd_quotient(ring, size)[2]
    assert a._first
    assert a.generators() == _pruned_over_every_index(a)


@pytest.mark.parametrize("n", [9, 12])
@pytest.mark.parametrize("ring", [Z, C2Z, GF2, Z4, GF5], ids=lambda r: r.literal())
def test_generators_size_at_large_n(n, ring):
    # the cycle-first greedy leaves 7 (6 over gf:5) of 41 at n = 9 and 6 of
    # 72 at n = 12, where the index-order greedy left 9 (8) and 10
    want = {9: 6 if ring == GF5 else 7, 12: 6}[n]
    assert len(algebra_of_censym(ring, n).generators()) == want


@pytest.mark.parametrize("n", range(2, 13, 2))
def test_generators_of_an_even_size_are_one_cycle(n, any_ring):
    # S_2m = M_m(R[C2]) is generated by a cycle of m matrix units carrying one x
    assert len(algebra_of_censym(any_ring, n).generators()) == n // 2


@pytest.mark.parametrize("m", range(1, 7))
def test_generators_of_a_full_matrix_algebra_are_one_cycle(m, any_ring):
    for flatten in (True, False):
        assert len(full_matrix_algebra(any_ring, m, flatten_group_ring=flatten).generators()) == m


def _ideal_over_whole_basis(a, gens):
    """Reference closure: each row the basis grows by is multiplied on both
    sides by every basis element, not only by the certified generators."""
    rb = RowBasis(a.ring, a.rank)
    stuck, queue = [], [list(g) for g in gens]
    while queue:
        v = queue.pop()
        try:
            added = rb.insert(v)
        except FreenessUndetermined:
            stuck.append(v)
            continue
        if added:
            for u in range(a.rank):
                bu = a.basis_vector(u)
                queue += [a.mul(bu, v), a.mul(v, bu)]
            queue += stuck
            stuck = []
    if stuck:
        rb.insert(stuck[0])
    return rb


def _assert_same_ideal(a, seed):
    """Same span, pivots and quotient from both closures, or both stuck (the
    ideal of f1_1 at odd n holds 2*f_mid_mid, but f_mid_mid only if 2 is a
    unit)."""
    try:
        fast = ideal_generated(a, [seed])
    except FreenessUndetermined:
        with pytest.raises(FreenessUndetermined):
            _ideal_over_whole_basis(a, [seed])
        return
    ref = _ideal_over_whole_basis(a, [seed])
    assert same_span(a.ring, fast.sparse_rows, ref.sparse_rows, a.rank)
    assert set(fast.pivots) == set(ref.pivots)
    (qf, _), (qr, _) = quotient_by_ideal(a, fast), quotient_by_ideal(a, ref)
    assert (qf.labels, qf.table, qf.unit, qf.invol_sparse) == (
        qr.labels, qr.table, qr.unit, qr.invol_sparse)


CLOSURE_RINGS = [Z, GF2, GF5, Z4, C2Z, Q]


def _assert_generators_reduce(a, n):
    """The closure over the generators multiplies by fewer elements: from
    n = 4 on, and at n = 3 when 2 is a unit, G leaves out basis indices."""
    if n >= 4 or n == 3 and a.ring.invert_two() is not None:
        assert len(a.generators()) < a.rank


@pytest.mark.parametrize("n", [3, 5, 7, 9])
@pytest.mark.parametrize("ring", CLOSURE_RINGS, ids=lambda r: r.literal())
def test_ideal_closure_over_generators_matches_whole_basis_middle(ring, n):
    a = algebra_of_censym(ring, n)
    _assert_generators_reduce(a, n)
    mid = (n + 1) // 2
    _assert_same_ideal(a, a.basis_vector(positions(n)[(mid, mid)]))


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("ring", CLOSURE_RINGS, ids=lambda r: r.literal())
def test_ideal_closure_over_generators_matches_whole_basis_seeds(ring, n):
    a = algebra_of_censym(ring, n)
    _assert_generators_reduce(a, n)
    for cell in [(1, 1), (1, 2)]:
        _assert_same_ideal(a, a.basis_vector(positions(n)[cell]))
