import random
from collections import Counter

import pytest

from censym import frobenius
from censym.algebra import algebra_of_censym, shared_builds
from censym.basis import CentroMatrix, canonical_basis, is_centrosymmetric
from censym.frobenius import (
    FrobeniusSystem,
    centralizer_membership,
    e_map,
    separability_check,
    splitness_check,
    verify_frobenius_system,
)
from censym.matrices import Matrix, exchange, matrix_unit
from censym.rings import GroupRingC2, ring_from_literal

from conftest import C2Z, GF2, GF3, Q, Z, Z4, Z9


def test_e_map_examples():
    sys2 = FrobeniusSystem(Z, 2)
    assert e_map(sys2, matrix_unit(Z, 2, 1, 1)).inner == Matrix.identity(Z, 2)
    cm = matrix_unit(Z, 2, 1, 2) + matrix_unit(Z, 2, 2, 1)
    assert e_map(sys2, cm).inner == cm.scale(2)
    assert e_map(sys2, Matrix.zero(Z, 2)).inner == Matrix.zero(Z, 2)
    with pytest.raises(ValueError):
        e_map(sys2, Matrix.identity(Q, 2))


def test_left_identity_stepwise_n2():
    # walk the first unit identity by hand at size 2 with a = e[1,2]
    a = matrix_unit(Z, 2, 1, 2)
    y1a = matrix_unit(Z, 2, 1, 1) * a
    assert y1a == a
    e_y1a = y1a + y1a.conj_by_c()
    assert e_y1a == matrix_unit(Z, 2, 1, 2) + matrix_unit(Z, 2, 2, 1)
    assert matrix_unit(Z, 2, 1, 1) * e_y1a == a
    assert matrix_unit(Z, 2, 1, 2) * a == Matrix.zero(Z, 2)


def test_identity_probe_with_identity_matrix():
    sys3 = FrobeniusSystem(Z, 3)
    total = Matrix.zero(Z, 3)
    one = Matrix.identity(Z, 3)
    for i in range(1, 4):
        x, y = matrix_unit(Z, 3, i, 1), matrix_unit(Z, 3, 1, i)
        total = total + x * sys3.system_e(y * one)
    assert total == one


def test_verify_system_grid():
    for ring in (Z, Q, Z4, GF2, C2Z):
        for n in range(1, 5):
            rep = verify_frobenius_system(FrobeniusSystem(ring, n), seed=1, batch=25)
            assert rep.verdict == "pass", (ring.literal(), n, rep.clauses)


def test_n1_uses_trivial_system():
    rep = verify_frobenius_system(FrobeniusSystem(Z, 1), batch=5)
    assert rep.verdict == "pass"
    assert "identity" in rep.witness["E"]
    # the averaging map itself doubles at size 1
    sys1 = FrobeniusSystem(Z, 1)
    a = Matrix(Z, 1, [3])
    assert e_map(sys1, a).inner == Matrix(Z, 1, [6])


def test_image_of_e_is_centrosymmetric():
    rng = random.Random(29)
    for n in (2, 3, 5):
        sysn = FrobeniusSystem(Z, n)
        for _ in range(20):
            a = Matrix(Z, n, [Z.sample(rng) for _ in range(n * n)])
            assert is_centrosymmetric(e_map(sysn, a).inner)


def test_bimodule_property_exhaustive_small():
    for n in (2, 3, 4):
        sysn = FrobeniusSystem(GF3, n)
        units = [matrix_unit(GF3, n, i, j)
                 for i in range(1, n + 1) for j in range(1, n + 1)]
        for _, f in canonical_basis(GF3, n):
            s = f.inner
            for u in units:
                assert sysn.system_e(s * u) == s * sysn.system_e(u)
                assert sysn.system_e(u * s) == sysn.system_e(u) * s


def test_separability_all_rings():
    for ring in (Z, Q, Z4, GF2, GF3, C2Z):
        for n in range(1, 7):
            rep = separability_check(FrobeniusSystem(ring, n))
            assert rep.verdict == "pass", (ring.literal(), n)


def test_separability_sum_is_identity():
    for n in range(1, 9):
        total = Matrix.zero(Z, n)
        for i in range(1, n + 1):
            total = total + matrix_unit(Z, n, i, 1) * matrix_unit(Z, n, 1, i)
        assert total == Matrix.identity(Z, n)


def test_splitness_verdicts():
    assert splitness_check(FrobeniusSystem(Q, 3)).verdict == "pass"
    assert splitness_check(FrobeniusSystem(GF3, 4)).verdict == "pass"
    rep9 = splitness_check(FrobeniusSystem(Z9, 3))
    assert rep9.verdict == "pass"
    assert rep9.witness["d"] == "(5)*identity"
    assert splitness_check(FrobeniusSystem(Z, 2)).verdict == "unknown"
    assert splitness_check(FrobeniusSystem(GF2, 3)).verdict == "unknown"
    assert splitness_check(FrobeniusSystem(Z4, 2)).verdict == "unknown"


def test_separability_fails_on_a_wrong_dual_system(monkeypatch):
    # y_i = e[1, 1] for every i: sum_i x_i * 1 * y_i is the first column
    monkeypatch.setattr(FrobeniusSystem, "y_cells", lambda self, i: ((1, 1),))
    rep = separability_check(FrobeniusSystem(Z, 2))
    assert rep.verdict == "fail"
    assert rep.counterexample == {"sum": "Matrix(int, 2: 1 0; 1 0)"}


def test_splitness_fails_on_a_wrong_e(monkeypatch):
    # the identity map leaves d = (1/2)*1 where E(d) = 1 needs to land
    monkeypatch.setattr(frobenius, "e_map", lambda sys, a: CentroMatrix(a))
    rep = splitness_check(FrobeniusSystem(Q, 2))
    assert rep.verdict == "fail"
    assert rep.counterexample == {"E(d)": "Matrix(rat, 2: 1/2 0; 0 1/2)"}


def test_centralizer_membership():
    sys2 = FrobeniusSystem(Z, 2)
    assert centralizer_membership(sys2, Matrix.identity(Z, 2))
    assert centralizer_membership(sys2, exchange(Z, 2))
    assert not centralizer_membership(sys2, matrix_unit(Z, 2, 1, 1))


def test_reports_are_reproducible():
    a = verify_frobenius_system(FrobeniusSystem(Q, 3), seed=7, batch=10)
    b = verify_frobenius_system(FrobeniusSystem(Q, 3), seed=7, batch=10)
    assert a.to_json_dict() == b.to_json_dict()


class MirrorOnlySystem(FrobeniusSystem):
    """Wrong E: a -> c*a*c, which drops the a-term of the averaging map."""

    def system_e(self, a):
        return a.conj_by_c()


class SkewedSystem(FrobeniusSystem):
    """Wrong E: a + c*a*c + a[1,1]*e[2,2].  The extra term has zero first
    row and column, so both unit identities still hold; only the bimodule
    clause can catch it."""

    def system_e(self, a):
        return a + a.conj_by_c() + matrix_unit(self.ring, self.n, 2, 2).scale(a[1, 1])


class MiddleSkewedSystem(FrobeniusSystem):
    """Wrong E: a + c*a*c + a[2,2]*(e[2,2] + e[n-1,n-1]).  The extra term is
    centrosymmetric with zero first row and column, so only the bimodule
    clause can catch it; at n = 4 it first fails there at f1_2."""

    def system_e(self, a):
        t = matrix_unit(self.ring, self.n, 2, 2)
        return a + a.conj_by_c() + (t + t.conj_by_c()).scale(a[2, 2])


class CornerSkewedSystem(FrobeniusSystem):
    """Wrong E: a + c*a*c + a[1,1]*(e[2,2] + e[n-1,n-1]).  From n = 3 the
    extra term is centrosymmetric with zero first row and column, so only
    the bimodule clause can catch it; it fails at f1_1 and at every s with
    a unit product landing on cell (1, 1)."""

    def system_e(self, a):
        t = matrix_unit(self.ring, self.n, 2, 2)
        return a + a.conj_by_c() + (t + t.conj_by_c()).scale(a[1, 1])


class RowTwoSystem(FrobeniusSystem):
    """Wrong E: a + c*a*c + a[2,1]*e[2,1].  Every y_i*a has a zero second
    row, so the left unit identity holds; a*x_i carries a[2,i] into cell
    (2, 1), so the right unit identity gains row 2 of a and fails."""

    def system_e(self, a):
        return a + a.conj_by_c() + matrix_unit(self.ring, self.n, 2, 1).scale(a[2, 1])


class DoubledRowTwoSystem(FrobeniusSystem):
    """a + c*a*c + 2*a[2,1]*e[2,1]: the true E where 2 = 0, and otherwise a
    wrong E that fails the right unit identity like RowTwoSystem.  Over
    zmod:4 its defect 2 is a zero divisor, which a probe entry of 2 kills."""

    def system_e(self, a):
        two = self.ring.from_int(2)
        return (a + a.conj_by_c()
                + matrix_unit(self.ring, self.n, 2, 1).scale(self.ring.mul(two, a[2, 1])))


class IdentitySystem(FrobeniusSystem):
    """Wrong E at n >= 2: a -> a, whose image is not centrosymmetric."""

    def system_e(self, a):
        return a


@pytest.mark.parametrize("ring", [Z, Q, C2Z], ids=lambda r: r.literal())
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_wrong_e_fails_unit_identity(ring, n):
    rep = verify_frobenius_system(MirrorOnlySystem(ring, n), batch=5)
    assert rep.verdict == "fail"
    assert rep.clauses["left-unit-identity"] == "fail"
    assert rep.clauses["right-unit-identity"] == "fail"
    assert rep.counterexample == {"identity": "left-unit", "input": "e1_1"}


@pytest.mark.parametrize("ring", [Z, Q, C2Z], ids=lambda r: r.literal())
@pytest.mark.parametrize("n", [3, 4, 5])
def test_wrong_e_fails_bimodule_only(ring, n):
    rep = verify_frobenius_system(SkewedSystem(ring, n), batch=5)
    assert rep.verdict == "fail"
    assert rep.clauses["left-unit-identity"] == "pass"
    assert rep.clauses["right-unit-identity"] == "pass"
    assert rep.clauses["bimodule-property"] == "fail"
    assert rep.counterexample == {"identity": "bimodule", "input": "(f1_1, unit)"}


@pytest.mark.parametrize("ring", [Z, Q, C2Z], ids=lambda r: r.literal())
def test_bimodule_failure_at_a_non_generator(ring):
    """The first s in basis order that fails is f1_1, which is not in G,
    and some generator fails too, so a scan of G alone would name that
    generator; the re-scan of the whole basis names f1_1 (and agrees with
    the dense reference, see DENSE_CASES)."""
    a = algebra_of_censym(ring, 4)
    sysn = CornerSkewedSystem(ring, 4)
    e = sysn.system_e
    units = [matrix_unit(ring, 4, i, j) for i in range(1, 5) for j in range(1, 5)]
    failing = [idx.label for idx, f in canonical_basis(ring, 4)
               if any(e(f.inner * u) != f.inner * e(u) or e(u * f.inner) != e(u) * f.inner
                      for u in units)]
    gens = {a.labels[g] for g in a.generators()}
    assert failing[0] == "f1_1" and "f1_1" not in gens
    assert gens & set(failing)
    rep = verify_frobenius_system(sysn, batch=5)
    assert rep.clauses == {"left-unit-identity": "pass", "right-unit-identity": "pass",
                           "bimodule-property": "fail", "image-centrosymmetric": "pass"}
    assert rep.counterexample == {"identity": "bimodule", "input": "(f1_1, unit)"}


@pytest.mark.parametrize("n", [3, 4, 5])
def test_bimodule_counterexample_whatever_the_generator_order(n):
    with shared_builds():
        a = algebra_of_censym(Z, n)
        a._generators = tuple(reversed(a.generators()))
        rep = verify_frobenius_system(SkewedSystem(Z, n), batch=5)
    assert rep.clauses["bimodule-property"] == "fail"
    assert rep.counterexample == {"identity": "bimodule", "input": "(f1_1, unit)"}


NEGATIVE_CONTROLS = (MirrorOnlySystem, SkewedSystem, RowTwoSystem, DoubledRowTwoSystem,
                     IdentitySystem)


@pytest.mark.parametrize("system", NEGATIVE_CONTROLS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_negative_controls_do_not_depend_on_the_batch(system, n):
    """Every clause covers the matrix units on its own, so a wrong E fails
    the same clauses with the same counterexample without random probes."""
    bare = verify_frobenius_system(system(Z, n), seed=0, batch=0)
    full = verify_frobenius_system(system(Z, n), seed=0, batch=100)
    assert bare.verdict == full.verdict == "fail"
    assert bare.clauses == full.clauses
    assert bare.counterexample == full.counterexample


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_identity_e_fails_image_clause_without_random_probes(n):
    rep = verify_frobenius_system(IdentitySystem(Z, n), batch=0)
    assert rep.verdict == "fail"
    assert rep.clauses["image-centrosymmetric"] == "fail"
    assert rep.counterexample == {"identity": "image", "input": "e1_1"}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_identity_e_fails_image_clause(n):
    rep = verify_frobenius_system(IdentitySystem(Z, n), batch=5)
    assert rep.verdict == "fail"
    assert rep.clauses["image-centrosymmetric"] == "fail"
    assert rep.counterexample["identity"] == "image"


@pytest.mark.parametrize("ring", [Z, Q, C2Z], ids=lambda r: r.literal())
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_wrong_e_fails_right_unit_identity_only(ring, n):
    rep = verify_frobenius_system(RowTwoSystem(ring, n), batch=5)
    assert rep.verdict == "fail"
    assert rep.clauses["left-unit-identity"] == "pass"
    assert rep.clauses["right-unit-identity"] == "fail"
    assert rep.counterexample == {"identity": "right-unit", "input": "e2_1"}


def dense_frobenius_report(sys, seed=0, batch=100) -> dict:
    """The check as dense sums of products: sum_i x_i E(y_i a) and
    sum_i E(a x_i) y_i accumulated as n matrices each, and the bimodule
    clause with ``Matrix.__mul__``.  A test-only reference."""
    ring, n = sys.ring, sys.n
    rng = random.Random(seed)
    e = sys.system_e
    xs = [matrix_unit(ring, n, i, 1) for i in range(1, n + 1)]
    ys = [matrix_unit(ring, n, 1, i) for i in range(1, n + 1)]
    probes = [(f"e{i}_{j}", matrix_unit(ring, n, i, j))
              for i in range(1, n + 1) for j in range(1, n + 1)]
    probes += [(f"random[{t}]", Matrix(ring, n, [ring.sample(rng) for _ in range(n * n)]))
               for t in range(batch)]
    ce = None
    left_ok = right_ok = True
    for name, a in probes:
        left = right = Matrix.zero(ring, n)
        for x, y in zip(xs, ys):
            left = left + x * e(y * a)
            right = right + e(a * x) * y
        if left != a and left_ok:
            left_ok = False
            ce = ce or {"identity": "left-unit", "input": name}
        if right != a and right_ok:
            right_ok = False
            ce = ce or {"identity": "right-unit", "input": name}
    bimod = "pass"
    for idx, fs in canonical_basis(ring, n):
        s = fs.inner
        for _, u in probes[: n * n]:
            if e(s * u) != s * e(u) or e(u * s) != e(u) * s:
                bimod = "fail"
                ce = ce or {"identity": "bimodule", "input": f"({idx.label}, unit)"}
                break
        if bimod == "fail":
            break
    image = "pass"
    for name, a in probes:
        if not is_centrosymmetric(e(a)):
            image = "fail"
            ce = ce or {"identity": "image", "input": name}
            break
    clauses = {
        "left-unit-identity": "pass" if left_ok else "fail",
        "right-unit-identity": "pass" if right_ok else "fail",
        "bimodule-property": bimod,
        "image-centrosymmetric": image,
    }
    return {"clauses": clauses, "counterexample": ce}


# the skewed, middle-skewed, corner-skewed and (doubled) row-two maps name
# cells of row 2, so they start at n = 2
ROW_TWO_SYSTEMS = (SkewedSystem, MiddleSkewedSystem, CornerSkewedSystem, RowTwoSystem,
                   DoubledRowTwoSystem)
DENSE_CASES = [(system, n)
               for system in (FrobeniusSystem, MirrorOnlySystem, IdentitySystem)
               + ROW_TWO_SYSTEMS
               for n in range(1, 5)
               if n >= 2 or system not in ROW_TWO_SYSTEMS]


@pytest.mark.parametrize("system,n", DENSE_CASES,
                         ids=[f"{c.__name__}-{n}" for c, n in DENSE_CASES])
# where 2 = 0 the middle unit's table entry e + c*e*c is empty at odd n >= 3
@pytest.mark.parametrize("ring", [Z, Q, C2Z, GF2, GroupRingC2(GF2), Z4],
                         ids=lambda r: r.literal())
def test_row_and_column_moves_match_dense_sums(system, n, ring):
    sysn = system(ring, n)
    rep = verify_frobenius_system(sysn, seed=3, batch=6)
    want = dense_frobenius_report(sysn, seed=3, batch=6)
    assert {"clauses": rep.clauses, "counterexample": rep.counterexample} == want


@pytest.mark.parametrize("n", [1, 2, 5])
def test_e_is_called_once_per_matrix_unit(monkeypatch, n):
    """The check reads E only through its table on the n^2 matrix units,
    whatever its batch."""
    seen = []
    system_e = FrobeniusSystem.system_e
    monkeypatch.setattr(FrobeniusSystem, "system_e",
                        lambda self, a: seen.append(a) or system_e(self, a))
    rep = verify_frobenius_system(FrobeniusSystem(Q, n), seed=1, batch=10)
    assert rep.verdict == "pass"
    assert seen == [matrix_unit(Q, n, i, j)
                    for i in range(1, n + 1) for j in range(1, n + 1)]


@pytest.mark.parametrize("ring,verdict", [(GF2, "pass"), (GroupRingC2(GF2), "pass"),
                                          (Z4, "fail"), (Z, "fail"), (Q, "fail")],
                         ids=lambda r: r if isinstance(r, str) else r.literal())
def test_doubled_row_two_is_wrong_exactly_where_two_is_not_zero(ring, verdict):
    rep = verify_frobenius_system(DoubledRowTwoSystem(ring, 3), seed=3, batch=6)
    assert rep.verdict == verdict
    if verdict == "fail":
        assert rep.clauses["right-unit-identity"] == "fail"
        assert rep.counterexample == {"identity": "right-unit", "input": "e2_1"}


@pytest.mark.parametrize("literal", ["rat", "c2:int", "zmod:4"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_batch_does_no_ring_arithmetic_for_the_certified_e(monkeypatch, literal, n):
    """The batch is certified by linearity, not drawn, so its size moves no
    ring operation.  A fresh ring instance carries the counters."""
    ring = ring_from_literal(literal)
    counts = Counter()
    for op in ("add", "mul", "neg", "sub"):
        monkeypatch.setattr(ring, op, lambda *args, op=op, f=getattr(ring, op):
                            counts.update([op]) or f(*args))

    def ops(batch):
        counts.clear()
        assert verify_frobenius_system(FrobeniusSystem(ring, n), batch=batch).verdict == "pass"
        return dict(counts)

    assert ops(0) == ops(50)


def test_zero_tests_stay_within_n_cubed(monkeypatch):
    """No dense n^2 loop over a matrix is left on the check's path: at n = 16
    the Frobenius and separability checks together make at most 2*n^3 zero
    tests, where a dense E table alone makes n^4.  A fresh ring instance
    carries the counter."""
    ring, n = ring_from_literal("int"), 16
    counts = Counter()
    monkeypatch.setattr(ring, "is_zero", lambda x, f=ring.is_zero:
                        counts.update(["is_zero"]) or f(x))
    sys16 = FrobeniusSystem(ring, n)
    assert verify_frobenius_system(sys16).verdict == "pass"
    assert separability_check(sys16).verdict == "pass"
    assert 0 < counts["is_zero"] <= 2 * n ** 3


@pytest.mark.parametrize("literal", ["rat", "c2:int", "zmod:4"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_the_check_draws_nothing(monkeypatch, literal, n):
    """seed and batch are recorded in params, not drawn: on a fresh ring
    instance whose sample raises, batch 100 gives batch 0's verdict,
    clauses and counterexample for the certified E and every negative
    control."""
    ring = ring_from_literal(literal)

    def sample(rng):
        raise AssertionError("the Frobenius check drew a random payload")
    monkeypatch.setattr(ring, "sample", sample)
    for system in (FrobeniusSystem,) + NEGATIVE_CONTROLS:
        if n == 1 and system in ROW_TWO_SYSTEMS:
            continue
        bare, full = (verify_frobenius_system(system(ring, n), seed=7, batch=batch)
                      for batch in (0, 100))
        assert (full.verdict, full.clauses, full.counterexample) == \
            (bare.verdict, bare.clauses, bare.counterexample), system.__name__
