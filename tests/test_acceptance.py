"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.  The grids below are the shipped contract; every tolerance
is zero.
"""

import functools
import random

from censym.algebra import (
    algebra_of_censym,
    centre,
    check_witness,
    full_matrix_algebra,
    ideal_generated,
)
from censym.basis import (
    canonical_basis,
    canonical_indices,
    coords,
    exchange_coords,
    formula_applicable,
    formula_product,
    from_coords,
    rank_of,
    structure_constants,
)
from censym.cellular import (
    cell_chain_even,
    cell_chain_odd,
    ideal_square_is_zero,
    quasi_hereditary_chain_odd,
    verify_cell_chain,
)
from censym.cli import cmd_demo_bisymmetric, build_parser
from censym.frobenius import (
    FrobeniusSystem,
    separability_check,
    splitness_check,
    verify_frobenius_system,
)
from censym.matrices import is_centrosymmetric, matrix_unit
from censym.rings import GroupRingC2, ring_from_literal
from censym.structure import (
    endring_odd,
    iso_even,
    iso_odd_quotient,
    morita_column_iso,
    odd_quotient,
    wedderburn_split,
)

RING_GRID = [ring_from_literal(lit)
             for lit in ("int", "rat", "zmod:4", "gf:2", "gf:5", "c2:int")]
SEED = 20240601


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[{num:>2}] {name}: FAIL")
                raise
            print(f"[{num:>2}] {name}: PASS")
        return wrapper
    return deco


@criterion(1, "closure and membership")
def test_closure_and_membership():
    rng = random.Random(SEED)
    for ring in RING_GRID:
        for n in range(1, 9):
            basis = canonical_basis(ring, n)
            for _, fu in basis:
                for _, fv in basis:
                    assert is_centrosymmetric((fu * fv).inner)
            r = rank_of(n)
            for _ in range(100):
                a = from_coords(ring, n, [ring.sample(rng) for _ in range(r)])
                b = from_coords(ring, n, [ring.sample(rng) for _ in range(r)])
                assert is_centrosymmetric((a * b).inner)


@criterion(2, "rank and coordinate round-trip")
def test_rank_and_round_trip():
    rng = random.Random(SEED)
    ring = ring_from_literal("int")
    for n in range(1, 13):
        assert len(canonical_indices(n)) == rank_of(n)
        for _ in range(100):
            v = [ring.sample(rng) for _ in range(rank_of(n))]
            assert coords(from_coords(ring, n, v)) == v


@criterion(3, "structure constants")
def test_structure_constants():
    ring = ring_from_literal("int")
    for n in range(1, 9):
        idxs = canonical_indices(n)
        table = structure_constants(ring, n)
        for u, a in enumerate(idxs):
            for v, b in enumerate(idxs):
                f = formula_product(ring, n, a, b)
                if f is None:
                    assert not formula_applicable(n, a, b)
                    continue
                oracle = {(idxs[w].i, idxs[w].j): c
                          for w, c in table.get((u, v), ())}
                assert oracle == f, (n, a.label, b.label)
    # the three pinned products at size 3
    lab = {ix.label: u for u, ix in enumerate(canonical_indices(3))}
    table = structure_constants(ring, 3)

    def product(lu, lv):
        return dict(table.get((lab[lu], lab[lv]), ()))

    assert product("f1_2", "f2_1") == {lab["f1_1"]: 1, lab["f1_3"]: 1}
    assert product("f2_1", "f1_2") == {lab["f2_2"]: 2}
    assert product("f1_3", "f1_3") == {lab["f1_1"]: 1}


@criterion(4, "frobenius system identities")
def test_frobenius_system():
    for ring in RING_GRID:
        for n in range(1, 9):
            rep = verify_frobenius_system(FrobeniusSystem(ring, n),
                                          seed=SEED, batch=100)
            assert rep.verdict == "pass", (ring.literal(), n, rep.clauses)


@criterion(5, "separability")
def test_separability():
    for ring in RING_GRID:
        for n in range(1, 9):
            assert separability_check(FrobeniusSystem(ring, n)).verdict == "pass"


@criterion(6, "splitness verdicts")
def test_splitness():
    for lit in ("rat", "gf:3", "gf:7", "zmod:9"):
        ring = ring_from_literal(lit)
        t = ring.invert_two()
        for n in range(1, 9):
            rep = splitness_check(FrobeniusSystem(ring, n))
            assert rep.verdict == "pass", (lit, n)
            assert rep.witness["d"] == f"({ring.format(t)})*identity"
    for lit in ("int", "gf:2"):
        ring = ring_from_literal(lit)
        for n in range(1, 9):
            rep = splitness_check(FrobeniusSystem(ring, n))
            assert rep.verdict == "unknown", (lit, n)


@criterion(7, "even-size isomorphism")
def test_even_isomorphism():
    for lit in ("int", "gf:2", "rat"):
        ring = ring_from_literal(lit)
        for m in range(1, 5):
            rep = check_witness(iso_even(ring, m))
            assert rep.verdict == "pass", (lit, m, rep.clauses)
            assert rep.clauses["involution-equivariant"] == "pass"


@criterion(8, "odd quotient isomorphism")
def test_odd_quotient_isomorphism():
    for lit in ("int", "gf:2", "rat"):
        ring = ring_from_literal(lit)
        for m in range(1, 4):
            rep = check_witness(iso_odd_quotient(ring, m))
            assert rep.verdict == "pass", (lit, m, rep.clauses)
            n = 2 * m + 1
            a, ideal, quot, proj = odd_quotient(ring, m)
            pos = {(ix.i, ix.j): u for u, ix in enumerate(canonical_indices(n))}
            for i in range(1, m + 1):
                for j in range(1, m + 1):
                    pij = proj.apply(a.basis_vector(pos[(i, j)]))
                    pmr = proj.apply(a.basis_vector(pos[(i, n + 1 - j)]))
                    assert pij == [ring.neg(x) for x in pmr]


@criterion(9, "morita witnesses")
def test_morita_witnesses():
    for lit in ("int", "gf:2", "rat"):
        ring = ring_from_literal(lit)
        for n in range(4, 9):
            for j in range(2, n // 2 + 1):
                rep = check_witness(morita_column_iso(ring, n, j))
                assert rep.verdict == "pass", (lit, n, j, rep.clauses)
                assert rep.clauses["left-module-homomorphism"] == "pass"
                assert rep.clauses["bijective"] == "pass"
        for n in (5, 7):
            end, w = endring_odd(ring, n)
            lab = {l: u for u, l in enumerate(end.labels)}
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
            assert check_witness(w).verdict == "pass"


@criterion(10, "cell chains")
def test_cell_chains():
    for lit in ("int", "gf:2", "gf:3", "rat"):
        ring = ring_from_literal(lit)
        for n in range(1, 8):
            chain = cell_chain_odd(ring, n) if n % 2 else cell_chain_even(ring, n)
            rep = verify_cell_chain(chain)
            assert rep.verdict == "pass", (lit, n, rep.counterexample)
            m = n // 2
            expected = ([m + 1, m] if m else [1]) if n % 2 else [m, m]
            assert chain.delta_ranks() == expected
            assert sum(r * r for r in chain.delta_ranks()) == rank_of(n)


@criterion(11, "quasi-heredity")
def test_quasi_heredity():
    for lit in ("gf:2", "gf:5", "rat"):
        ring = ring_from_literal(lit)
        for n in (3, 5, 7):
            witnesses, rep = quasi_hereditary_chain_odd(ring, n)
            assert rep.verdict == "pass", (lit, n, rep.clauses)
            assert all(w.ok for w in witnesses)
    # negative control: over gf:2 the ideal of 1 + x squares to zero, so it
    # contains no nonzero idempotent and the heredity route cannot start
    gf2 = ring_from_literal("gf:2")
    rc2 = full_matrix_algebra(GroupRingC2(gf2), 1)
    j = ideal_generated(rc2, [[1, 1]])
    assert j.rank == 1
    assert ideal_square_is_zero(rc2, j)


@criterion(12, "centre")
def test_centre():
    for lit in ("gf:2", "gf:3", "gf:5"):
        ring = ring_from_literal(lit)
        for n in range(2, 7):
            a = algebra_of_censym(ring, n)
            rep = centre(a, candidates=[a.unit, exchange_coords(ring, n)])
            assert rep.verdict == "pass", (lit, n)
            assert rep.witness["dimension"] == 2
            assert rep.witness["reduces_to_candidates"]
        a1 = algebra_of_censym(ring, 1)
        rep1 = centre(a1, candidates=[a1.unit, exchange_coords(ring, 1)])
        assert rep1.witness["dimension"] == 1


@criterion(13, "wedderburn split")
def test_wedderburn_split():
    for lit in ("rat", "gf:5"):
        ring = ring_from_literal(lit)
        for n in range(1, 8):
            ws = wedderburn_split(ring, n)
            k = (n + 1) // 2
            assert ws.plus_algebra.rank == k * k
            assert ws.minus_algebra.rank == (n - k) * (n - k)
            assert ws.plus_algebra.table == full_matrix_algebra(ring, k).table
            if n - k:
                assert ws.minus_algebra.table == \
                    full_matrix_algebra(ring, n - k).table
            else:
                assert ws.minus_algebra.table == {}
            assert check_witness(ws.witness).verdict == "pass", (lit, n)


@criterion(14, "bisymmetric non-closure")
def test_bisymmetric_non_closure():
    ring = ring_from_literal("int")
    u = (matrix_unit(ring, 3, 1, 1) + matrix_unit(ring, 3, 1, 3)
         + matrix_unit(ring, 3, 3, 1) + matrix_unit(ring, 3, 3, 3))
    v = (matrix_unit(ring, 3, 1, 2) + matrix_unit(ring, 3, 2, 1)
         + matrix_unit(ring, 3, 2, 3) + matrix_unit(ring, 3, 3, 2))
    p = u * v
    assert p == (matrix_unit(ring, 3, 1, 2) + matrix_unit(ring, 3, 3, 2)).scale(2)
    from censym.matrices import symmetry_class

    assert "bisymmetric" in symmetry_class(u)
    assert "bisymmetric" in symmetry_class(v)
    flags = symmetry_class(p)
    assert "centrosymmetric" in flags and "bisymmetric" not in flags
    # the shipped demo command reports the same and exits cleanly
    parser = build_parser()
    args = parser.parse_args(["demo-bisymmetric"])
    assert cmd_demo_bisymmetric(args) == 0
