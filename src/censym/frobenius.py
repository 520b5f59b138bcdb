"""The centrosymmetric subalgebra sits inside the full matrix algebra as a
separable Frobenius extension; this module carries the finite certificate.

The certificate is the averaging map E(a) = a + c*a*c together with the
element systems x_i = e[i, 1] and y_i = e[1, i].  Checked identities, all
exact:

* E lands in the centrosymmetric algebra and is a bimodule map over it;
* sum_i x_i E(y_i a) == a == sum_i E(a x_i) y_i for every a;
* sum_i x_i y_i == 1 (separability witness d = identity);
* when 2 is invertible, E(2^-1 * 1) == 1, which splits the extension.
  Without an invertible 2 the verdict is ``unknown``: absence of this
  witness is not evidence of non-splitness.

The certified map is the R-linear map whose table is T, where T[u] is the
set of non-zero cells of ``FrobeniusSystem.system_e`` on the matrix unit
e_u: E(a) = sum_u a[u] * T[u].  The check calls ``system_e`` once per
matrix unit and reads every clause off T.  Each identity is R-linear in
its probe a, and the n^2 matrix units are a basis of the full matrix
algebra, so a random probe cannot fail where the units pass: the seeded
batch re-checks, through the same table, what the units already prove.
The bimodule clause and the centralizer test range over the generators of
:func:`censym.algebra.algebra_of_censym`, whose table is the true product
of the basis matrices; the s that pass each one form a subalgebra.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .algebra import algebra_of_censym
from .basis import CentroMatrix, canonical_indices, from_coords, unit_cells
from .matrices import Matrix, matrix_unit
from .reports import FAIL, PASS, UNKNOWN, Report, combine_clauses
from .rings import Ring


@dataclass(frozen=True)
class FrobeniusSystem:
    ring: Ring
    n: int

    def x_cells(self, i: int) -> tuple:
        """x_i = e[i, 1] as matrix-unit cells."""
        return ((i, 1),)

    def y_cells(self, i: int) -> tuple:
        """y_i = e[1, i] as matrix-unit cells."""
        return ((1, i),)

    def system_e(self, a: Matrix) -> Matrix:
        """E of the certified system.

        The averaging map a + c*a*c works for n >= 2.  At n == 1 the first
        and last rows coincide, so averaging doubles (2a = a fails over the
        integers); the extension there is the trivial one and is certified
        by the identity map.
        """
        return a if self.n == 1 else a + a.conj_by_c()

    def params(self) -> dict:
        return {"n": self.n, "ring": self.ring.literal()}


def e_map(sys: FrobeniusSystem, a: Matrix) -> CentroMatrix:
    """E(a) = a + c*a*c, certified centrosymmetric.

    This is the split check's map, kept apart from ``system_e``: at n = 1
    the certified system's E is the identity, but acceptance criterion 6
    pins ``split`` as a pass over ``rat`` at n = 1 with d = (1/2)*identity,
    and E(d) == 1 holds there only under the doubling a + c*a*c."""
    if a.ring != sys.ring or a.n != sys.n:
        raise ValueError("matrix does not match the extension's ring and size")
    return CentroMatrix(a + a.conj_by_c())


def verify_frobenius_system(sys: FrobeniusSystem, seed: int = 0,
                            batch: int = 100) -> Report:
    """Exact check of the two unit identities on every matrix unit and on a
    seeded batch of random matrices, plus the bimodule property of E on all
    (canonical basis) x (matrix unit) pairs, all through E's table T.

    T[u] lists the non-zero cells (row-major position, entry) of
    ``system_e`` on the matrix unit e_u; ``system_e`` is called on nothing
    else.  Since x_i = e[i, 1] and y_i e[i, k] = e[1, k], row i of
    sum_i x_i E(y_i a) is sum_k a[i, k] * (row 1 of T[1, k]); since
    y_i = e[1, i] and e[k, i] x_i = e[k, 1], column i of
    sum_i E(a x_i) y_i is sum_k a[k, i] * (column 1 of T[k, 1]).  Each
    identity is therefore n row or column comparisons with a.  Both
    identities are evaluated on every probe, in probe order, and the first
    failing one names the counterexample.  The image clause tests
    E(a) = sum_u a[u] * T[u] on the units first, then on the random batch,
    so no clause depends on the batch size for its coverage of the units.
    The bimodule clause compares the cell sums of E(s*u) with s*E(u) and
    of E(u*s) with E(u)*s for s in the certified generators, then, on a
    fail, for every canonical basis element in order: the s that pass are
    closed under products, as E(s*s'*u) = s*E(s'*u) = s*s'*E(u)."""
    ring, n = sys.ring, sys.n
    add, mul, is_zero, zero, one = ring.add, ring.mul, ring.is_zero, ring.zero(), ring.one()
    rng = random.Random(seed)
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    table = []
    for i, j in cells:
        image = sys.system_e(matrix_unit(ring, n, i, j)).entries
        table.append([(p, x) for p, x in enumerate(image) if not is_zero(x)])
    left_parts = [[(p, x) for p, x in table[k] if p < n] for k in range(n)]
    right_parts = [[(p // n, x) for p, x in table[k * n] if p % n == 0]
                   for k in range(n)]

    def combine(coefs, parts, width):
        """sum_k coefs[k] * parts[k] as a dense list, each part a list of
        (position, entry).  An entry of one skips the ring multiply and,
        as in ``Matrix.__add__``, a zero accumulator skips the add."""
        acc = [zero] * width
        for c, part in zip(coefs, parts):
            if not is_zero(c):
                for p, x in part:
                    t = c if x == one else mul(c, x)
                    acc[p] = t if is_zero(acc[p]) else add(acc[p], t)
        return acc

    def cell_sum(terms):
        """The non-zero cells of a sum of (position, entry) terms."""
        out = {}
        for p, x in terms:
            out[p] = add(out[p], x) if p in out else x
        return {p: x for p, x in out.items() if not is_zero(x)}

    probes = [(f"e{i}_{j}", [one if q == u else zero for q in range(n * n)])
              for u, (i, j) in enumerate(cells)]
    probes += [(f"random[{t}]", [ring.sample(rng) for _ in range(n * n)])
               for t in range(batch)]
    clauses = {}
    counterexample = None

    left_ok = right_ok = True
    for name, a in probes:
        lo = all(combine(a[r : r + n], left_parts, n) == a[r : r + n]
                 for r in range(0, n * n, n))
        ro = all(combine(a[i :: n], right_parts, n) == a[i :: n] for i in range(n))
        if not lo and left_ok:
            left_ok = False
            counterexample = counterexample or {"identity": "left-unit", "input": name}
        if not ro and right_ok:
            right_ok = False
            counterexample = counterexample or {"identity": "right-unit", "input": name}
    clauses["left-unit-identity"] = PASS if left_ok else FAIL
    clauses["right-unit-identity"] = PASS if right_ok else FAIL

    indices = canonical_indices(n)

    def bimodule_scan(over):
        for idx in (indices[k] for k in over):
            s = unit_cells(n, idx.i, idx.j)
            for eu, (p, q) in zip(table, cells):
                # s*e[p, q] sums e[i, q] over the cells (i, p) of s, and
                # e[i, j]*E(u) moves row j of E(u) into row i; mirrored on the right
                if (cell_sum(x for i, j in s if j == p for x in table[(i - 1) * n + q - 1])
                        != cell_sum(((i - 1) * n + c % n, x)
                                    for i, j in s for c, x in eu if c // n == j - 1)
                        or cell_sum(x for i, j in s if i == q for x in table[(p - 1) * n + j - 1])
                        != cell_sum((c - c % n + j - 1, x)
                                    for i, j in s for c, x in eu if c % n == i - 1)):
                    return f"({idx.label}, unit)"
        return None

    bad_s = algebra_of_censym(ring, n).first_failure(bimodule_scan)
    if bad_s is not None:
        counterexample = counterexample or {"identity": "bimodule", "input": bad_s}
    image_ok = PASS
    for name, a in probes:
        ea = combine(a, table, n * n)
        if ea != ea[::-1]:
            image_ok = FAIL
            counterexample = counterexample or {"identity": "image", "input": name}
            break
    clauses["bimodule-property"] = PASS if bad_s is None else FAIL
    clauses["image-centrosymmetric"] = image_ok

    params = dict(sys.params(), seed=seed, batch=batch)
    witness = {"E": "identity (trivial extension)" if n == 1 else "a -> a + c*a*c",
               "x": "e[i,1]", "y": "e[1,i]"}
    return combine_clauses("frobenius-system", params, clauses,
                           witness=witness, counterexample=counterexample)


def centralizer_membership(sys: FrobeniusSystem, d: Matrix) -> bool:
    """Whether d commutes with the centrosymmetric subalgebra, checked on the
    certified generators: the matrices that commute with d form a subalgebra."""
    if d.ring != sys.ring or d.n != sys.n:
        raise ValueError("matrix does not match the extension's ring and size")
    a = algebra_of_censym(sys.ring, sys.n)
    return all(d * f == f * d for f in (
        from_coords(sys.ring, sys.n, a.basis_vector(g)).inner for g in a.generators()))


def separability_check(sys: FrobeniusSystem) -> Report:
    """The element d = 1 centralizes the subalgebra and sum_i x_i d y_i == 1,
    independent of the ring's characteristic."""
    ring, n = sys.ring, sys.n
    d = Matrix.identity(ring, n)
    # e[p, q] * d * e[r, s] = d[q, r] * e[p, s]
    entries = [ring.zero()] * (n * n)
    for i in range(1, n + 1):
        for p, q in sys.x_cells(i):
            for r, s in sys.y_cells(i):
                cell = (p - 1) * n + s - 1
                entries[cell] = ring.add(entries[cell], d[q, r])
    total = Matrix(ring, n, entries)
    ok = total == d and centralizer_membership(sys, d)
    report = Report(
        "separability", sys.params(),
        PASS if ok else FAIL,
        witness={"d": "identity", "sum": "sum_i x_i*d*y_i = 1"} if ok else None,
        counterexample=None if ok else {"sum": repr(total)},
    )
    return report


def splitness_check(sys: FrobeniusSystem) -> Report:
    """Split verdict with witness d = 2^-1 * 1 when 2 is invertible;
    ``unknown`` otherwise (no converse is implemented, so this is never
    reported as a failure)."""
    ring, n = sys.ring, sys.n
    t = ring.invert_two()
    if t is None:
        return Report(
            "split", sys.params(), UNKNOWN,
            witness={"note": "2 is not invertible; no splitting witness attempted"},
        )
    d = Matrix.identity(ring, n).scale(t)
    e_of_d = e_map(sys, d).inner
    ok = e_of_d == Matrix.identity(ring, n) and centralizer_membership(sys, d)
    return Report(
        "split", sys.params(),
        PASS if ok else FAIL,
        witness={"split": True, "d": f"({ring.format(t)})*identity"} if ok else None,
        counterexample=None if ok else {"E(d)": repr(e_of_d)},
    )
