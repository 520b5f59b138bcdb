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
``cells`` of ``FrobeniusSystem.system_e`` on the matrix unit e_u:
E(a) = sum_u a[u] * T[u].  The check calls ``system_e`` once per matrix
unit and reads every clause off T, each identity as one defect table.
No input is drawn: ``seed`` and ``batch`` are recorded in the report
``params``, and the batch is certified by linearity.  The bimodule clause
and the centralizer test range over the generators of
:func:`censym.algebra.algebra_of_censym`, whose table is the true product
of the basis matrices; the s that pass each one form a subalgebra.
"""

from __future__ import annotations

from collections import namedtuple

from .algebra import algebra_of_censym
from .basis import CentroMatrix, canonical_indices, from_coords, unit_cells
from .linalg import add_multiple
from .matrices import Matrix, matrix_unit
from .reports import FAIL, PASS, UNKNOWN, Report, combine_clauses
from .rings import Ring


class FrobeniusSystem(namedtuple("FrobeniusSystem", "ring n")):
    __slots__ = ()

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
    """Exact check of the two unit identities and of the image clause for
    every matrix a, plus the bimodule property of E on all (canonical
    basis) x (matrix unit) pairs, all through E's table T.

    T[u] is the ``cells`` of ``system_e`` on the matrix unit e_u, a sparse
    vector over the row-major cells; ``system_e`` is called on nothing
    else.  Each identity is R-linear in a, so it is read as a defect
    table D whose row D[u] is its left side minus its right side on e_u:
    it holds at a iff sum_u a[u] * D[u] is zero.  Since x_i = e[i, 1] and y_i e[i, k] =
    e[1, k], D_L[e(i, k)] is row 1 of T[1, k] moved into row i, minus
    e(i, k); since y_i = e[1, i] and e[k, i] x_i = e[k, 1], D_R[e(k, i)]
    is column 1 of T[k, 1] moved into column i, minus e(k, i); and D_I[u]
    is T[u] minus its mirror, which sends cell p to n^2 - 1 - p.  Only
    non-zero rows are kept, so an identity holds for every a iff its
    table is empty, and the first failing matrix unit is its least key:
    that unit names the counterexample, the left identity's before the
    right one's on a tie, and the image clause's only after the bimodule
    clause.  No input is drawn: ``seed`` and ``batch`` are recorded in
    ``params``, and a batch of any size is certified by linearity.  The
    bimodule clause sums E(s*u) - s*E(u) and E(u*s) - E(u)*s for s in the
    certified generators, then, on a fail, for every canonical basis
    element in order: the s that pass are closed under products, as
    E(s*s'*u) = s*E(s'*u) = s*s'*E(u)."""
    ring, n = sys.ring, sys.n
    one = ring.one()
    minus_one = ring.neg(one)
    cells = [(i, j) for i in range(n) for j in range(n)]
    table = [sys.system_e(matrix_unit(ring, n, i + 1, j + 1)).cells for i, j in cells]

    def defect_table(sides):
        """The non-zero rows u -> lhs - rhs, for (lhs, rhs) in basis order."""
        out = {}
        for u, (lhs, rhs) in enumerate(sides):
            d = dict(lhs)
            add_multiple(ring, d, minus_one, rhs)
            if d:
                out[u] = d
        return out

    # each T[u] sliced once: by_row[u][r] = {column: x}, by_col[u][c] = {row: x}
    by_row, by_col = [{} for _ in table], [{} for _ in table]
    for t, rows, cols in zip(table, by_row, by_col):
        for p, x in t.items():
            r, c = divmod(p, n)
            rows.setdefault(r, {})[c] = x
            cols.setdefault(c, {})[r] = x
    left = defect_table(({i * n + c: x for c, x in by_row[k].get(0, {}).items()}, {u: one})
                        for u, (i, k) in enumerate(cells))
    right = defect_table(({r * n + i: x for r, x in by_col[k * n].get(0, {}).items()}, {u: one})
                         for u, (k, i) in enumerate(cells))
    image = defect_table((t, {n * n - 1 - p: x for p, x in t.items()}) for t in table)

    indices = canonical_indices(n)

    def bimodule_scan(over):
        for idx in (indices[k] for k in over):
            s = [(i - 1, j - 1) for i, j in unit_cells(n, idx.i, idx.j)]
            for u, ((p, q), rows, cols) in enumerate(zip(cells, by_row, by_col)):
                # s*e[p, q] sums e[i, q] over the cells (i, p) of s, and
                # e[i, j]*E(u) moves row j of E(u) into row i; mirrored on the right
                lhs, rhs = {}, {}
                for i, j in s:
                    if j == p:
                        add_multiple(ring, lhs, one, table[i * n + q])
                    if i == q:
                        add_multiple(ring, rhs, one, table[p * n + j])
                    if j in rows:
                        add_multiple(ring, lhs, minus_one,
                                     {i * n + c: x for c, x in rows[j].items()})
                    if i in cols:
                        add_multiple(ring, rhs, minus_one,
                                     {r * n + j: x for r, x in cols[i].items()})
                if lhs or rhs:
                    return f"({idx.label}, unit)"
        return None

    labels = [f"e{i + 1}_{j + 1}" for i, j in cells]
    left_at, right_at, image_at = (min(d, default=None) for d in (left, right, image))
    bad_s = algebra_of_censym(ring, n).first_failure(bimodule_scan)
    clauses = {clause: PASS if at is None else FAIL for clause, at in (
        ("left-unit-identity", left_at), ("right-unit-identity", right_at),
        ("bimodule-property", bad_s), ("image-centrosymmetric", image_at))}
    counterexample = None
    if right_at is not None and (left_at is None or right_at < left_at):
        counterexample = {"identity": "right-unit", "input": labels[right_at]}
    elif left_at is not None:
        counterexample = {"identity": "left-unit", "input": labels[left_at]}
    elif bad_s is not None:
        counterexample = {"identity": "bimodule", "input": bad_s}
    elif image_at is not None:
        counterexample = {"identity": "image", "input": labels[image_at]}

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
        from_coords(sys.ring, sys.n, {g: sys.ring.one()}).inner for g in a.generators()))


def separability_check(sys: FrobeniusSystem) -> Report:
    """The element d = 1 centralizes the subalgebra and sum_i x_i d y_i == 1,
    independent of the ring's characteristic."""
    ring, n = sys.ring, sys.n
    d = Matrix.identity(ring, n)
    # e[p, q] * d * e[r, s] = d[q, r] * e[p, s]
    total, one = {}, ring.one()
    for i in range(1, n + 1):
        for p, q in sys.x_cells(i):
            for r, s in sys.y_cells(i):
                add_multiple(ring, total, d[q, r], {(p - 1) * n + s - 1: one})
    total = Matrix(ring, n, total)
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
