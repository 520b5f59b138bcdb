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

The check treats E (``FrobeniusSystem.system_e``) as a black box and never
forms a dense product with a matrix unit.  x_i, y_i, the basis elements and
the unit probes are sums of at most two matrix-unit cells, so every product
with them is a row or column move (``matrices.cells_times`` and
``times_cells``), and each unit identity is read off row by row or column
by column instead of being accumulated as a sum of n matrices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain

from .basis import CentroMatrix, canonical_basis, unit_cells
from .matrices import Matrix, cells_times, is_centrosymmetric, matrix_unit, times_cells
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

    def x(self, i: int) -> Matrix:
        return cells_times(self.x_cells(i), Matrix.identity(self.ring, self.n))

    def y(self, i: int) -> Matrix:
        return cells_times(self.y_cells(i), Matrix.identity(self.ring, self.n))

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
    """E(a) = a + c*a*c, certified centrosymmetric."""
    if a.ring != sys.ring or a.n != sys.n:
        raise ValueError("matrix does not match the extension's ring and size")
    return CentroMatrix(a + a.conj_by_c())


def _random_matrix(ring: Ring, n: int, rng) -> Matrix:
    return Matrix(ring, n, [ring.sample(rng) for _ in range(n * n)])


def verify_frobenius_system(sys: FrobeniusSystem, seed: int = 0,
                            batch: int = 100) -> Report:
    """Exact check of the two unit identities on every matrix unit and on a
    seeded batch of random matrices, plus the bimodule property of E on all
    (canonical basis) x (matrix unit) pairs.

    E is called exactly on y_i*a, a*x_i, s*u, u*s and u, as the identities
    state them; only the products are formed by row and column moves.
    Since x_i = e[i, 1], row i of sum_i x_i E(y_i a) is row 1 of E(y_i a);
    since y_i = e[1, i], column i of sum_i E(a x_i) y_i is column 1 of
    E(a x_i).  Each identity is therefore n row or column comparisons
    with a.  Both identities are evaluated on every probe, in probe order,
    and the first failing one names the counterexample.  The image of E is
    checked on the matrix units first, then on the random batch, so no
    clause depends on the batch size for its coverage of the units."""
    ring, n = sys.ring, sys.n
    rng = random.Random(seed)
    xs = [sys.x_cells(i) for i in range(1, n + 1)]
    ys = [sys.y_cells(i) for i in range(1, n + 1)]
    clauses = {}
    counterexample = None
    e = sys.system_e

    def both_identities(a: Matrix):
        rows = a.entries
        left = all(
            e(cells_times(y, a)).entries[:n] == rows[(i - 1) * n : i * n]
            for i, y in enumerate(ys, start=1)
        )
        right = all(
            e(times_cells(a, x)).entries[::n] == rows[i - 1 :: n]
            for i, x in enumerate(xs, start=1)
        )
        return left, right

    units = [((i, j),) for i in range(1, n + 1) for j in range(1, n + 1)]
    probes = [(f"e{i}_{j}", matrix_unit(ring, n, i, j)) for ((i, j),) in units]
    probes += [(f"random[{t}]", _random_matrix(ring, n, rng)) for t in range(batch)]

    left_ok = right_ok = True
    for name, a in probes:
        lo, ro = both_identities(a)
        if not lo and left_ok:
            left_ok = False
            counterexample = counterexample or {"identity": "left-unit", "input": name}
        if not ro and right_ok:
            right_ok = False
            counterexample = counterexample or {"identity": "right-unit", "input": name}
    clauses["left-unit-identity"] = PASS if left_ok else FAIL
    clauses["right-unit-identity"] = PASS if right_ok else FAIL

    bimod = PASS
    image_ok = PASS
    unit_images = [(name, cells, u, e(u)) for cells, (name, u) in zip(units, probes)]
    for idx, fs in canonical_basis(ring, n):
        s, s_cells = fs.inner, unit_cells(n, idx.i, idx.j)
        for _, u_cells, u, eu in unit_images:
            if (e(cells_times(s_cells, u)) != cells_times(s_cells, eu)
                    or e(cells_times(u_cells, s)) != times_cells(eu, s_cells)):
                bimod = FAIL
                counterexample = counterexample or {
                    "identity": "bimodule",
                    "input": f"({idx.label}, unit)",
                }
                break
        if bimod == FAIL:
            break
    images = chain(((name, eu) for name, _, _, eu in unit_images),
                   ((name, e(a)) for name, a in probes[n * n :]))
    for name, ea in images:
        if not is_centrosymmetric(ea):
            image_ok = FAIL
            counterexample = counterexample or {"identity": "image", "input": name}
            break
    clauses["bimodule-property"] = bimod
    clauses["image-centrosymmetric"] = image_ok

    params = dict(sys.params(), seed=seed, batch=batch)
    witness = {"E": "identity (trivial extension)" if n == 1 else "a -> a + c*a*c",
               "x": "e[i,1]", "y": "e[1,i]"}
    return combine_clauses("frobenius-system", params, clauses,
                           witness=witness, counterexample=counterexample)


def centralizer_membership(sys: FrobeniusSystem, d: Matrix) -> bool:
    """Whether d commutes with every canonical basis element of the
    centrosymmetric subalgebra."""
    if d.ring != sys.ring or d.n != sys.n:
        raise ValueError("matrix does not match the extension's ring and size")
    return all(d * f.inner == f.inner * d for _, f in canonical_basis(sys.ring, sys.n))


def separability_check(sys: FrobeniusSystem) -> Report:
    """The element d = 1 centralizes the subalgebra and sum_i x_i d y_i == 1,
    independent of the ring's characteristic."""
    ring, n = sys.ring, sys.n
    d = Matrix.identity(ring, n)
    total = Matrix.zero(ring, n)
    for i in range(1, n + 1):
        total = total + sys.x(i) * d * sys.y(i)
    ok = total == Matrix.identity(ring, n) and centralizer_membership(sys, d)
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
