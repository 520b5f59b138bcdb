import json

import pytest

from censym.algebra import (
    StructureAlgebra,
    algebra_of_censym,
    direct_product,
    full_matrix_algebra,
    ideal_generated,
)
from censym.basis import canonical_indices, rank_of
from censym.cellular import (
    CellChainWitness,
    CellIdealWitness,
    CellLayer,
    canonical_cell_witness,
    cell_chain_even,
    cell_chain_odd,
    heredity_check,
    ideal_square_is_zero,
    quasi_hereditary_chain_odd,
    verify_cell_chain,
    verify_cell_ideal,
)
import censym.cellular
from censym.linalg import RowBasis
from censym.rings import GroupRingC2

from conftest import GF2, GF3, GF5, Q, Z, same_span, vec_is_zero


def positions(n):
    return {(ix.i, ix.j): u for u, ix in enumerate(canonical_indices(n))}


def test_group_ring_skew_cell_ideal():
    # the span of 1 - x matched with (1-x) (x) (1-x), identity involution
    rc2 = full_matrix_algebra(GroupRingC2(Z), 1)
    gen = [1, -1]
    w = CellIdealWitness(rc2, [gen], [gen], name="skew-line")
    rep = verify_cell_ideal(w)
    assert rep.verdict == "pass", rep.clauses


def test_matrix_algebra_column_cell_ideal():
    m2 = full_matrix_algebra(Z, 2)
    lab = {l: u for u, l in enumerate(m2.labels)}
    delta = [m2.basis_vector(lab["E1_1"]), m2.basis_vector(lab["E2_1"])]
    rep = verify_cell_ideal(canonical_cell_witness(m2, delta))
    assert rep.verdict == "pass", rep.clauses


def test_corrupted_witness_fails_bimodule_clause():
    m2 = full_matrix_algebra(Z, 2)
    lab = {l: u for u, l in enumerate(m2.labels)}
    delta = [m2.basis_vector(lab["E1_1"]), m2.basis_vector(lab["E2_1"])]
    w = canonical_cell_witness(m2, delta)
    j_bad = list(w.j_basis)
    j_bad[0], j_bad[1] = j_bad[1], j_bad[0]
    rep = verify_cell_ideal(CellIdealWitness(m2, j_bad, w.delta_basis, "corrupted"))
    assert rep.verdict == "fail"
    assert rep.clauses["alpha-bimodule"] == "fail"
    assert rep.counterexample is not None


def test_odd_chain_n3_layers():
    chain = cell_chain_odd(Z, 3)
    assert chain.delta_ranks() == [2, 1]
    a = chain.algebra
    layer1 = chain.layers[0]
    formatted = {a.format_element(v) for v in layer1.witness.j_basis}
    assert formatted == {"f1_1 + f1_3", "f1_2", "f2_1", "f2_2"}
    delta1 = {a.format_element(v) for v in layer1.witness.delta_basis}
    assert delta1 == {"f1_2", "f2_2"}
    rep = verify_cell_chain(chain)
    assert rep.verdict == "pass", rep.clauses


def test_odd_chain_layer1_equals_generated_ideal():
    chain = cell_chain_odd(Z, 5)
    a = chain.algebra
    pos = positions(5)
    ideal = ideal_generated(a, [a.basis_vector(pos[(3, 3)])])
    assert same_span(Z, chain.layers[0].span, ideal.sparse_rows, a.rank)


def test_even_chain_n2_skew_layer():
    chain = cell_chain_even(Z, 2)
    a = chain.algebra
    assert [a.format_element(v) for v in chain.layers[0].span] == ["f1_1 - f1_2"]
    rep = verify_cell_chain(chain)
    assert rep.verdict == "pass", rep.clauses


@pytest.mark.parametrize("n", [1, 3, 5, 7])
def test_odd_chains_verify(n):
    for ring in (Z, GF2, GF3, Q):
        chain = cell_chain_odd(ring, n)
        m = n // 2
        expected = [m + 1, m] if m else [1]
        assert chain.delta_ranks() == expected
        assert sum(r * r for r in chain.delta_ranks()) == rank_of(n)
        rep = verify_cell_chain(chain)
        assert rep.verdict == "pass", (ring.literal(), n, rep.counterexample)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_even_chains_verify(n):
    for ring in (Z, GF2, GF3, Q):
        chain = cell_chain_even(ring, n)
        m = n // 2
        assert chain.delta_ranks() == [m, m]
        assert 2 * m * m == rank_of(n)
        rep = verify_cell_chain(chain)
        assert rep.verdict == "pass", (ring.literal(), n, rep.counterexample)


def test_chain_parity_errors():
    with pytest.raises(ValueError):
        cell_chain_odd(Z, 4)
    with pytest.raises(ValueError):
        cell_chain_even(Z, 5)


def test_even_layer_one_squares_to_zero_in_char2():
    # the computational shadow of the group ring not being quasi-hereditary
    chain = cell_chain_even(GF2, 2)
    a = chain.algebra
    v = chain.layers[0].span[0]
    assert vec_is_zero(GF2, a.mul(v, v))


def test_heredity_s3_middle_idempotent():
    a = algebra_of_censym(Q, 3)
    pos = positions(3)
    hw = heredity_check(a, a.basis_vector(pos[(2, 2)]))
    assert hw.ok
    assert hw.report.witness["ae_rank"] == 2
    assert hw.report.witness["ea_rank"] == 2
    assert hw.report.witness["ideal_rank"] == 4
    assert hw.cell is not None
    assert verify_cell_ideal(hw.cell).verdict == "pass"


def test_heredity_matrix_corner():
    m2 = full_matrix_algebra(Q, 2)
    hw = heredity_check(m2, m2.basis_vector(0))
    assert hw.ok
    assert hw.report.witness["ideal_rank"] == 4


def test_heredity_rejects_non_idempotent():
    a = algebra_of_censym(Q, 3)
    pos = positions(3)
    with pytest.raises(ValueError, match="idempotent"):
        heredity_check(a, a.basis_vector(pos[(1, 2)]))


@pytest.mark.parametrize("width", [4, 7])
def test_heredity_rejects_an_element_of_the_wrong_length(width):
    # a 1 at f2_2 of the rank-5 algebra at n = 3, padded or cut to the width
    a = algebra_of_censym(Q, 3)
    e = (a.basis_vector(positions(3)[(2, 2)]) + [0, 0])[:width]
    with pytest.raises(ValueError, match="length"):
        heredity_check(a, e)


def test_char2_group_ring_has_no_heredity_route():
    rc2 = full_matrix_algebra(GroupRingC2(GF2), 1)
    j = ideal_generated(rc2, [[1, 1]])
    assert j.rank == 1
    assert ideal_square_is_zero(rc2, j)
    # any idempotent e inside J satisfies e = e*e in J*J = 0, so only e = 0:
    # the heredity construction cannot start from this ideal
    for v in j.sparse_rows:
        assert vec_is_zero(GF2, rc2.mul(v, v))


def test_char_not_2_group_ring_skew_is_not_nilpotent():
    rc2 = full_matrix_algebra(GroupRingC2(GF3), 1)
    j = ideal_generated(rc2, [[1, GF3.neg(1)]])
    assert not ideal_square_is_zero(rc2, j)


@pytest.mark.parametrize("n", [1, 3, 5, 7])
def test_quasi_hereditary_chains(n):
    for ring in (GF2, GF5, Q):
        witnesses, rep = quasi_hereditary_chain_odd(ring, n)
        assert rep.verdict == "pass", (ring.literal(), n, rep.clauses)
        assert len(witnesses) == (n + 1) // 2
        assert all(w.ok for w in witnesses)


def test_quasi_hereditary_requires_odd_and_field():
    with pytest.raises(ValueError):
        quasi_hereditary_chain_odd(Q, 4)
    with pytest.raises(ValueError):
        quasi_hereditary_chain_odd(Z, 3)


def middle_heredity(ring, n):
    a = algebra_of_censym(ring, n)
    mid = (n + 1) // 2
    return heredity_check(a, a.basis_vector(positions(n)[(mid, mid)]))


def assert_multiplication_injective(hw, n):
    # Ae (x) eA -> AeA through the middle idempotent: the (m+1)^2 products
    # of the Ae and eA bases are independent
    m = n // 2
    assert hw.report.clauses["multiplication-injective"] == "pass"
    assert hw.report.witness["ae_rank"] == hw.report.witness["ea_rank"] == m + 1
    assert hw.report.witness["ideal_rank"] == (m + 1) ** 2


def test_mu_injectivity():
    for n in (3, 5):
        hw = middle_heredity(Z, n)
        assert hw.ok
        assert_multiplication_injective(hw, n)


def test_mu_injectivity_all_corners():
    for ring in (Z, Q):
        for n in (3, 5, 7, 9):
            assert_multiplication_injective(middle_heredity(ring, n), n)


@pytest.mark.parametrize("n,products", [(5, 58), (9, 174)])
def test_heredity_check_multiplies_each_e_b_once(monkeypatch, n, products):
    # e*b_u feeds both the corner clause and the eA span, built once for both
    a = algebra_of_censym(GF5, n)
    calls = []
    mul = StructureAlgebra.mul_sparse
    monkeypatch.setattr(StructureAlgebra, "mul_sparse",
                        lambda alg, x, y: calls.append(alg) or mul(alg, x, y))
    mid = (n + 1) // 2
    assert heredity_check(a, a.basis_vector(positions(n)[(mid, mid)])).ok
    assert len(calls) == products


@pytest.mark.parametrize("n", [3, 5])
def test_heredity_fails_on_the_unit(n):
    a = algebra_of_censym(Z, n)
    rep = heredity_check(a, a.unit).report
    assert rep.verdict == "fail"
    assert rep.clauses["corner-rank-one"] == "fail"
    assert rep.clauses["multiplication-injective"] == "fail"
    assert rep.counterexample == {"input": "f1_1", "reason": "e*A*e has rank above one",
                                  "clause": "corner-rank-one"}


def test_heredity_fails_on_zero():
    a = algebra_of_censym(Z, 3)
    rep = heredity_check(a, a.zero_vector()).report
    assert rep.verdict == "fail"
    assert rep.counterexample == {"reason": "e is zero", "clause": "corner-rank-one"}


def test_alpha_normalization_reordering_consistency():
    # permuting the delta basis produces an equally valid witness
    a = algebra_of_censym(Q, 5)
    pos = positions(5)
    delta = [a.basis_vector(pos[(1, 3)]), a.basis_vector(pos[(2, 3)]),
             a.basis_vector(pos[(3, 3)])]
    for perm in ([0, 1, 2], [2, 0, 1], [1, 2, 0]):
        w = canonical_cell_witness(a, [delta[k] for k in perm])
        assert verify_cell_ideal(w).verdict == "pass", perm


def test_chain_with_repeated_span_fails_direct_sum_with_counterexample():
    # layer 2 restates a vector of layer 1: the count still matches the
    # rank, the span does not
    chain = cell_chain_odd(Q, 3)
    layer2 = chain.layers[1]
    chain.layers[1] = CellLayer([chain.layers[0].span[0]], layer2.witness)
    rep = verify_cell_chain(chain)
    assert rep.verdict == "fail"
    assert rep.clauses["direct-sum"] == "fail"
    assert rep.clauses["rank-sum"] == "pass"
    assert rep.counterexample == {"clause": "direct-sum", "vectors": 5,
                                  "span_rank": 4, "rank": 5}


def test_direct_sum_retries_a_vector_with_no_unit_entry():
    # over Z x Z, (2, 3) has no unit entry until (1, 1) is reduced out of
    # it: the layers span Z^2, which the deferred retry certifies
    a = direct_product(full_matrix_algebra(Z, 1), full_matrix_algebra(Z, 1))
    w = canonical_cell_witness(a, [a.basis_vector(0)])
    chain = CellChainWitness(a, [CellLayer([[2, 3]], w), CellLayer([[1, 1]], w)])
    assert verify_cell_chain(chain).clauses["direct-sum"] == "pass"


def test_chain_with_wrong_cell_ranks_fails_rank_sum_with_counterexample():
    # both layers carry the rank-2 middle-column witness: 2^2 + 2^2 != 5
    chain = cell_chain_odd(Q, 3)
    layer1, layer2 = chain.layers
    chain.layers[1] = CellLayer(layer2.span, layer1.witness)
    rep = verify_cell_chain(chain)
    assert rep.verdict == "fail"
    assert rep.clauses["direct-sum"] == "pass"
    assert rep.clauses["rank-sum"] == "fail"
    assert rep.counterexample == {"clause": "rank-sum", "sum_of_squares": 8, "rank": 5}


def _listed_witness(a, delta_labels, j_labels):
    lab = {l: u for u, l in enumerate(a.labels)}
    return CellIdealWitness(a, [a.basis_vector(lab[name]) for name in j_labels],
                            [a.basis_vector(lab[name]) for name in delta_labels], "listed")


def _m2_witness(delta_labels, whole_algebra=False):
    m2 = full_matrix_algebra(Z, 2)
    if whole_algebra:
        return _listed_witness(m2, delta_labels, m2.labels)
    lab = {l: u for u, l in enumerate(m2.labels)}
    return canonical_cell_witness(m2, [m2.basis_vector(lab[name]) for name in delta_labels])


@pytest.mark.parametrize("leg", ["left", "right"])
def test_permuted_alpha_leg_fails_bimodule_on_that_leg(leg):
    # J is listed on the (p, q) grid, q fastest; exchanging the two values
    # of one leg breaks the action on exactly that leg
    w = _m2_witness(["E1_1", "E2_1"])
    d = w.delta_rank

    def moved(k):
        p, q = divmod(k, d)
        return (d - 1 - p) * d + q if leg == "left" else p * d + (d - 1 - q)

    j_bad = [w.j_basis[moved(k)] for k in range(d * d)]
    rep = verify_cell_ideal(CellIdealWitness(w.algebra, j_bad, w.delta_basis, "permuted"))
    assert rep.verdict == "fail"
    assert rep.clauses["alpha-bimodule"] == "fail"
    assert rep.counterexample == {"clause": "alpha-bimodule",
                                  "input": f"{leg} (E1_1, J[0])"}


def test_row_delta_fails_right_ideal_of_its_image():
    # i(E1_1, E1_2) = (E1_1, E2_1) spans a left ideal, not a right one
    rep = verify_cell_ideal(_m2_witness(["E1_1", "E1_2"], whole_algebra=True))
    assert rep.verdict == "fail"
    assert rep.clauses["alpha-bimodule"] == "fail"
    assert rep.counterexample == {"clause": "alpha-bimodule",
                                  "input": "(i(delta)[0], E1_2)",
                                  "reason": "i(delta) is not a right ideal"}


def test_row_delta_fails_left_ideal():
    rep = verify_cell_ideal(_m2_witness(["E2_1", "E2_2"], whole_algebra=True))
    assert rep.verdict == "fail"
    assert rep.clauses["alpha-bimodule"] == "fail"
    assert rep.counterexample == {"clause": "alpha-bimodule",
                                  "input": "(E1_2, delta[0])",
                                  "reason": "delta is not a left ideal"}


def test_alpha_bimodule_fail_does_not_depend_on_generator_order():
    # a reversed generator list meets a later failure first; the re-scan of
    # the whole basis still names the first one in basis order
    w = _m2_witness(["E2_1", "E2_2"], whole_algebra=True)
    w.algebra._generators = tuple(reversed(w.algebra.generators()))
    rep = verify_cell_ideal(w)
    assert rep.counterexample == {"clause": "alpha-bimodule",
                                  "input": "(E1_2, delta[0])",
                                  "reason": "delta is not a left ideal"}


def test_last_partial_sum_is_checked_when_direct_sum_fails():
    # layer 2 of the n = 5 chain cut to the span of f1_1: the layers no
    # longer fill A, layer 1 is still an ideal, and layer 1 + f1_1 is not
    # (its image in the 2-by-2 matrix quotient is one matrix unit)
    chain = cell_chain_odd(Q, 5)
    a, layer2 = chain.algebra, chain.layers[1]
    chain.layers[1] = CellLayer([a.basis_vector(positions(5)[(1, 1)])], layer2.witness)
    rep = verify_cell_chain(chain)
    assert rep.clauses["direct-sum"] == "fail"
    assert rep.clauses["partial-sums-ideals"] == "fail"
    assert rep.counterexample == {"clause": "direct-sum", "vectors": 10,
                                  "span_rank": 10, "rank": 13}


def test_chain_with_exchanged_spans_fails_partial_sums():
    # the first partial sum becomes the span of f1_1 alone, not an ideal
    chain = cell_chain_odd(Q, 3)
    layer1, layer2 = chain.layers
    chain.layers = [CellLayer(layer2.span, layer1.witness),
                    CellLayer(layer1.span, layer2.witness)]
    rep = verify_cell_chain(chain)
    assert rep.verdict == "fail"
    assert rep.clauses["direct-sum"] == "pass"
    assert rep.clauses["partial-sums-ideals"] == "fail"
    assert rep.counterexample == {"clause": "partial-sums-ideals", "layer": 1}


CELL_IDEAL_CONTROLS = {
    # i(E1_2) = E2_1 leaves the span of J
    "involution-stability": (
        full_matrix_algebra(Z, 2), ["E1_1"], ["E1_2"],
        dict.fromkeys(["involution-stability", "delta-freeness-rank", "alpha-bimodule",
                       "commuting-square"], "fail") | {"alpha-bijective": "pass"},
        {"input": "J[0]", "clause": "involution-stability"}),
    # an involution-stable J one vector short of the 2-by-2 grid
    "short-grid": (
        full_matrix_algebra(Z, 2), ["E1_1", "E2_1"], ["E1_1", "E1_2", "E2_1"],
        dict.fromkeys(["delta-freeness-rank", "alpha-bimodule", "alpha-bijective",
                       "commuting-square"], "fail") | {"involution-stability": "pass"},
        {"reason": "ideal rank 3 != delta rank squared 4", "clause": "delta-freeness-rank"}),
    "dependent-j": (
        full_matrix_algebra(Z, 2), ["E1_1", "E2_1"], ["E1_1", "E1_1", "E2_1", "E2_2"],
        {"delta-freeness-rank": "fail"},
        {"reason": "listed ideal basis is dependent", "clause": "delta-freeness-rank"}),
    # d*d + 1 free vectors: the grid is overrun, which must not index past it
    "overfull-grid": (
        direct_product(full_matrix_algebra(Z, 2), full_matrix_algebra(Z, 1)),
        ["a:E1_1", "a:E2_1"], ["a:E1_1", "a:E1_2", "a:E2_1", "a:E2_2", "b:E1_1"],
        dict.fromkeys(["delta-freeness-rank", "alpha-bimodule", "alpha-bijective",
                       "commuting-square"], "fail") | {"involution-stability": "pass"},
        {"reason": "ideal rank 5 != delta rank squared 4", "clause": "delta-freeness-rank"}),
}


@pytest.mark.parametrize("case", CELL_IDEAL_CONTROLS)
def test_cell_ideal_negative_controls(case):
    a, delta_labels, j_labels, clauses, counterexample = CELL_IDEAL_CONTROLS[case]
    rep = verify_cell_ideal(_listed_witness(a, delta_labels, j_labels))
    assert rep.verdict == "fail"
    assert rep.clauses == clauses
    assert rep.counterexample == counterexample


def _report_bytes(rep):
    return json.dumps(rep.to_json_dict())


def _exchanged_m2_witness():
    # J[0] = E1_1 and J[1] = E1_2 exchanged: i(J[0]) = E2_1 is J[2], in J
    # but not J[0], its partner on the grid
    w = _m2_witness(["E1_1", "E2_1"])
    j = list(w.j_basis)
    j[0], j[1] = j[1], j[0]
    return CellIdealWitness(w.algebra, j, w.delta_basis, "exchanged")


def _not_two_sided_witness(sign=1):
    a = direct_product(full_matrix_algebra(Z, 2), full_matrix_algebra(Z, 1))
    w = _listed_witness(a, ["a:E1_1", "a:E2_1"], ["a:E1_1", "a:E1_2", "a:E2_1", "a:E2_2"])
    w.j_basis[3][a.labels.index("b:E1_1")] = 1  # J[3] = a:E2_2 + b:E1_1
    w.j_basis[2][a.labels.index("a:E2_1")] = sign
    return w


def _scaled_transpose_witness():
    # i(X) = 2*X^T over gf:5 is no involution, but the check takes the
    # algebra as given: i(J[t]) = 2*J[q*d + p] lies in J, off its partner
    m = full_matrix_algebra(GF5, 2)
    a = StructureAlgebra(GF5, m.labels, m.table, m.unit_sparse,
                         [{k: GF5.add(c, c) for k, c in row.items()} for row in m.invol_sparse])
    delta = [a.basis_vector(a.labels.index(lab)) for lab in ("E1_1", "E2_1")]
    return canonical_cell_witness(a, delta, name="scaled-transpose")


CELL_IDEAL_REPORTS = {
    # Delta is a left ideal and i(Delta) a right one, but J[2] * E1_2 =
    # a:E2_2 leaves J, which holds a:E2_2 only beside b:E1_1
    "not-two-sided": (
        _not_two_sided_witness,
        '{"check": "cell-ideal", "params": {"witness": "listed"}, "verdict": "fail", '
        '"witness": {"delta_rank": 2, "ideal_rank": 4, "delta": ["a:E1_1", "a:E2_1"]}, '
        '"counterexample": {"input": "(a:E1_2, J[2])", "reason": "ideal is not two-sided '
        'over the basis", "clause": "alpha-bimodule"}, "clauses": {"involution-stability": '
        '"pass", "delta-freeness-rank": "pass", "alpha-bimodule": "fail", "alpha-bijective": '
        '"pass", "commuting-square": "fail"}}'),
    # J[2] = -a:E2_1: E1_2 * J[2] = -a:E1_1 lies in J off its grid
    # coordinate, and J[2] * E1_2 leaves J; leaving J is the reason named
    "not-two-sided-both-legs": (
        lambda: _not_two_sided_witness(-1),
        '{"check": "cell-ideal", "params": {"witness": "listed"}, "verdict": "fail", '
        '"witness": {"delta_rank": 2, "ideal_rank": 4, "delta": ["a:E1_1", "a:E2_1"]}, '
        '"counterexample": {"input": "(a:E1_2, J[2])", "reason": "ideal is not two-sided '
        'over the basis", "clause": "alpha-bimodule"}, "clauses": {"involution-stability": '
        '"pass", "delta-freeness-rank": "pass", "alpha-bimodule": "fail", "alpha-bijective": '
        '"pass", "commuting-square": "fail"}}'),
    # no grid to read J on: the partner of J[t] is never looked up
    "empty-delta": (
        lambda: _listed_witness(full_matrix_algebra(Z, 2), [], ["E1_1", "E2_2"]),
        '{"check": "cell-ideal", "params": {"witness": "listed"}, "verdict": "fail", '
        '"witness": {"delta_rank": 0, "ideal_rank": 2, "delta": []}, "counterexample": '
        '{"reason": "ideal rank 2 != delta rank squared 0", "clause": "delta-freeness-rank"}, '
        '"clauses": {"involution-stability": "pass", "delta-freeness-rank": "fail", '
        '"alpha-bimodule": "fail", "alpha-bijective": "fail", "commuting-square": "fail"}}'),
    "exchanged-grid": (
        _exchanged_m2_witness,
        '{"check": "cell-ideal", "params": {"witness": "exchanged"}, "verdict": "fail", '
        '"witness": {"delta_rank": 2, "ideal_rank": 4, "delta": ["E1_1", "E2_1"]}, '
        '"counterexample": {"input": "right (E1_1, J[0])", "clause": "alpha-bimodule"}, '
        '"clauses": {"involution-stability": "pass", "delta-freeness-rank": "pass", '
        '"alpha-bimodule": "fail", "alpha-bijective": "pass", "commuting-square": "fail"}}'),
    # the only clause that fails is the commuting square itself
    "scaled-transpose": (
        _scaled_transpose_witness,
        '{"check": "cell-ideal", "params": {"witness": "scaled-transpose"}, "verdict": "fail", '
        '"witness": {"delta_rank": 2, "ideal_rank": 4, "delta": ["E1_1", "E2_1"]}, '
        '"counterexample": {"input": "J[0]", "clause": "commuting-square"}, "clauses": '
        '{"involution-stability": "pass", "delta-freeness-rank": "pass", "alpha-bimodule": '
        '"pass", "alpha-bijective": "pass", "commuting-square": "fail"}}'),
}


@pytest.mark.parametrize("case", CELL_IDEAL_REPORTS)
def test_cell_ideal_negative_control_reports(case):
    # elimination names the reason only after a comparison with the forward
    # image fails; the report bytes are those the tracked elimination gave
    build, expected = CELL_IDEAL_REPORTS[case]
    assert _report_bytes(verify_cell_ideal(build())) == expected


def _even2_with_long_span():
    chain = cell_chain_even(Z, 2)
    chain.layers[0].span = [[1, -1, 7]]
    return chain


WRONG_WIDTH = {
    "cell-ideal": lambda: verify_cell_ideal(CellIdealWitness(
        algebra_of_censym(Z, 2), [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]],
        [[1, 0, 0], [0, 1, 0]])),
    "canonical-witness": lambda: canonical_cell_witness(algebra_of_censym(Z, 2), [[1, 0, 5]]),
    "chain-span": lambda: verify_cell_chain(_even2_with_long_span()),
}


@pytest.mark.parametrize("case", WRONG_WIDTH)
def test_witness_vector_of_wrong_width_is_misuse(case):
    # a vector that does not fit the algebra's rank names no element: it is
    # misuse, not a fail verdict and not an IndexError
    with pytest.raises(ValueError, match="algebra's rank 2"):
        WRONG_WIDTH[case]()


def test_failed_chain_clause_stays_failed_past_an_undetermined_layer():
    # layer 1 is f1_2, whose involution image f2_1 lies outside its span;
    # layer 2 is 2*f1_1, which has no unit pivot over Z
    chain = cell_chain_odd(Z, 3)
    a = chain.algebra
    lab = {l: u for u, l in enumerate(a.labels)}
    for layer, span in zip(chain.layers, ([{lab["f1_2"]: 1}], [{lab["f1_1"]: 2}])):
        layer.span = span
    rep = verify_cell_chain(chain)
    assert rep.verdict == "fail"
    assert rep.clauses["direct-sum"] == "undetermined"
    assert rep.clauses["involution-stable-layers"] == "fail"
    assert rep.clauses["partial-sums-ideals"] == "fail"
    assert rep.counterexample == {"clause": "involution-stable-layers", "layer": 1}


@pytest.mark.parametrize("build, n", [(cell_chain_even, 6), (cell_chain_odd, 7)])
def test_chain_reduces_each_span_and_partial_sum_once(monkeypatch, build, n):
    # one reduction per layer span, plus one per partial sum after the
    # first (that one is the first layer's basis): 3 for two layers
    chain = build(Z, n)
    calls = []
    span_basis = censym.cellular.span_basis

    def counted(*args):
        calls.append(args)
        return span_basis(*args)

    monkeypatch.setattr(censym.cellular, "span_basis", counted)
    assert verify_cell_chain(chain).verdict == "pass"
    assert len(chain.layers) == 2
    assert len(calls) == 3


@pytest.mark.parametrize("build, n, reductions", [(cell_chain_even, 10, 330),
                                                  (cell_chain_odd, 9, 283)])
def test_chain_check_compares_products_with_known_images(monkeypatch, build, n, reductions):
    # the alpha-bimodule grid and involution stability compare with the
    # images the grid names and reduce nothing when they agree, and the
    # first partial sum is read off layer 1's alpha-bimodule clause; the
    # tracked elimination of every product took 1130 (even, n = 10) and 1052
    # (odd, n = 9) reductions, and proving partial sum 1 two-sided again
    # raised the count to 580 and 583
    chain = build(GF5, n)
    calls = []
    reduce = RowBasis._reduce
    monkeypatch.setattr(RowBasis, "_reduce", lambda rb, v: calls.append(v) or reduce(rb, v))
    assert verify_cell_chain(chain).verdict == "pass"
    assert len(calls) == reductions


def _count_two_sided_checks(monkeypatch):
    """Record the row basis of each ``ideal_is_two_sided`` call the chain makes."""
    calls = []
    real = censym.cellular.ideal_is_two_sided
    monkeypatch.setattr(censym.cellular, "ideal_is_two_sided",
                        lambda a, j: calls.append(j) or real(a, j))
    return calls


@pytest.mark.parametrize("ring", [Z, GF5], ids=lambda r: r.literal())
@pytest.mark.parametrize("build, n", [(cell_chain_even, 6), (cell_chain_odd, 7)])
def test_passing_chain_reads_partial_sum_1_off_layer_1(monkeypatch, build, n, ring):
    # layer 1's J is its span, in A, and its alpha-bimodule clause passes;
    # the last partial sum is A, so no partial sum is proved two-sided again
    calls = _count_two_sided_checks(monkeypatch)
    rep = verify_cell_chain(build(ring, n))
    assert rep.verdict == "pass" and len(rep.clauses) == 14
    assert calls == []


def _chain_with_f11_first(ring):
    """The n = 3 chain with the layers swapped: layer 1 is the span of f1_1,
    which is not an ideal, and layer 2 the middle-column ideal."""
    chain = cell_chain_odd(ring, 3)
    a, (layer1, layer2) = chain.algebra, chain.layers
    chain.layers = [CellLayer(layer2.span, layer1.witness),
                    CellLayer(layer1.span, layer2.witness)]
    return chain, a


def test_partial_sum_1_is_proved_when_layer_1_fails_alpha_bimodule(monkeypatch):
    # layer 1's witness is its own span, f1_1 alone, inside A: its
    # alpha-bimodule clause fails, so the clause cannot stand for the check
    chain, a = _chain_with_f11_first(Q)
    f11 = chain.layers[0].span
    chain.layers[0].witness = CellIdealWitness(a, f11, f11, name="f11")
    calls = _count_two_sided_checks(monkeypatch)
    rep = verify_cell_chain(chain)
    assert rep.clauses["layer1:alpha-bimodule"] == "fail"
    assert rep.clauses["partial-sums-ideals"] == "fail"
    assert rep.counterexample == {"clause": "partial-sums-ideals", "layer": 1}
    assert [j.rank for j in calls] == [1]


def test_partial_sum_1_is_proved_when_layer_1_span_is_not_its_j(monkeypatch):
    # layer 1's witness is the middle-column ideal, whose alpha-bimodule
    # clause passes, but the layer's span is f1_1
    chain, _ = _chain_with_f11_first(Q)
    calls = _count_two_sided_checks(monkeypatch)
    rep = verify_cell_chain(chain)
    assert rep.clauses["layer1:alpha-bimodule"] == "pass"
    assert rep.clauses["partial-sums-ideals"] == "fail"
    assert rep.counterexample == {"clause": "partial-sums-ideals", "layer": 1}
    assert [j.rank for j in calls] == [1]


def test_partial_sum_1_is_proved_when_layer_1_lives_in_another_algebra(monkeypatch):
    # layer 1's witness is e_0 in Q^5, where it spans a cell ideal and passes
    # alpha-bimodule; in A the same vector is f1_1, which is not an ideal
    chain, a = _chain_with_f11_first(Q)
    diagonal = StructureAlgebra(Q, [f"e{u}" for u in range(5)], {u: {u: {u: 1}} for u in range(5)},
                                [1] * 5, invol=[{u: 1} for u in range(5)])
    f11 = chain.layers[0].span
    assert f11 == [{0: 1}]
    chain.layers[0].witness = CellIdealWitness(diagonal, f11, f11, name="e0")
    calls = _count_two_sided_checks(monkeypatch)
    rep = verify_cell_chain(chain)
    assert rep.clauses["layer1:alpha-bimodule"] == "pass"
    assert rep.clauses["partial-sums-ideals"] == "fail"
    assert rep.counterexample == {"clause": "partial-sums-ideals", "layer": 1}
    assert [j.rank for j in calls] == [1]
