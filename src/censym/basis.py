"""The centrosymmetric matrix algebra: canonical basis and structure constants.

A matrix a is centrosymmetric when a[i, j] == a[n+1-i, n+1-j] for all i, j,
equivalently c*a*c == a for the exchange matrix c.  These matrices form a
free module of rank ceil(n^2/2) with basis

    f[i, j] = e[i, j] + e[n+1-i, n+1-j]   (single unit when the two cells
                                           coincide, i.e. the odd middle cell)

indexed canonically by 1 <= i <= ceil(n/2) and 1 <= j <= n, except that in
the odd middle row i == (n+1)/2 the indices j and n+1-j name the same
element and the canonical representative takes j <= (n+1)/2.  Basis order
is lexicographic on the canonical (i, j).  Cells are numbered row-major,
p = (i-1)*n + (j-1), as ``Matrix.cells`` keys them; the mirror of cell p is
n*n-1-p, so the canonical cells are exactly the first ceil(n^2/2) cells and
f_u's canonical cell is cell u.  Structure constants are always
computed by the matrix-unit oracle: each basis element expands into its one
or two unit cells, the units multiply as e[a, b] e[c, d] = kron(b, c) e[a, d]
(only cells that meet, found by row), and the coefficients are read off the
canonical cells.  The closed formula is a verified property, never the code.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache

from .linalg import checked_sparse, to_dense
from .matrices import Matrix, exchange, is_centrosymmetric
from .rings import Ring


def half_ceil(n: int) -> int:
    return (n + 1) // 2


def rank_of(n: int) -> int:
    """Free rank of the centrosymmetric algebra: ceil(n^2/2)."""
    return (n * n + 1) // 2


class BasisIndex(namedtuple("BasisIndex", "n i j")):
    __slots__ = ()

    @property
    def label(self) -> str:
        return f"f{self.i}_{self.j}"

    def __repr__(self):
        return self.label


def canon_index(n: int, i: int, j: int) -> tuple:
    """Canonical representative of the index pair (i, j)."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexError(f"index ({i}, {j}) out of range for size {n}")
    k = half_ceil(n)
    if i > k:
        i, j = n + 1 - i, n + 1 - j
    if n % 2 and i == k and j > k:
        j = n + 1 - j
    return (i, j)


@cache
def canonical_indices(n: int) -> tuple:
    """All canonical basis indices in lexicographic order; ceil(n^2/2) of
    them.  One tuple per n, built on first use and shared by every caller."""
    if n < 1:
        raise ValueError(f"matrix size must be >= 1, got {n}")
    k = half_ceil(n)
    return tuple(BasisIndex(n, i, j) for i in range(1, k + 1)
                 for j in range(1, (k if n % 2 and i == k else n) + 1))


@cache
def positions(n: int) -> dict:
    """Basis position of each canonical index pair: (i, j) -> u.  One dict
    per n, shared by every caller: read it, never change it."""
    return {(ix.i, ix.j): u for u, ix in enumerate(canonical_indices(n))}


def unit_cells(n: int, i: int, j: int) -> tuple:
    """The matrix-unit cells of f[i, j] for a canonical (i, j).

    The mirror cell (n+1-i, n+1-j) is included exactly when it is a
    different cell; on the diagonal that is the anti-Kronecker adjustment
    of the definition.
    """
    mi, mj = n + 1 - i, n + 1 - j
    return ((i, j), (mi, mj)) if (i, j) != (mi, mj) else ((i, j),)


class CentroMatrix:
    """A matrix certified centrosymmetric at construction."""

    __slots__ = ("inner",)

    def __init__(self, inner: Matrix):
        if not is_centrosymmetric(inner):
            raise ValueError("matrix is not centrosymmetric")
        self.inner = inner

    @property
    def ring(self) -> Ring:
        return self.inner.ring

    @property
    def n(self) -> int:
        return self.inner.n

    def __mul__(self, other):
        return CentroMatrix(self.inner * _unwrap(other))

    def __eq__(self, other):
        return isinstance(other, CentroMatrix) and other.inner == self.inner

    def __hash__(self):
        return hash(("centro", self.inner))

    def __repr__(self):
        return f"Centro{self.inner!r}"


def _unwrap(m):
    return m.inner if isinstance(m, CentroMatrix) else m


def canonical_basis(ring: Ring, n: int) -> list:
    """Ordered list of (BasisIndex, CentroMatrix) pairs."""
    one = ring.one()
    return [(idx, from_coords(ring, n, {u: one})) for u, idx in enumerate(canonical_indices(n))]


def coords(a) -> list:
    """The dense form of :func:`coords_sparse`."""
    m = _unwrap(a)
    return to_dense(m.ring, coords_sparse(m), rank_of(m.n))


def coords_sparse(a) -> dict:
    """Coordinates of a centrosymmetric matrix over the canonical basis, read
    from its non-zero cells alone: f_u's canonical cell is the row-major
    cell u, so coordinate u is just the entry there."""
    m = _unwrap(a)
    if not is_centrosymmetric(m):
        raise ValueError("matrix is not centrosymmetric")
    r = rank_of(m.n)
    return {p: c for p, c in m.cells.items() if p < r}


def from_coords(ring: Ring, n: int, v) -> CentroMatrix:
    """Inverse of :func:`coords`: the combination sum(v[u] * f_u), for a
    dense or sparse coordinate vector v.  Coordinate u is the payload of
    f_u's canonical cell, the row-major cell u, and of its mirror cell
    n*n-1-u."""
    r = len(canonical_indices(n))
    v = checked_sparse(ring, v, r, f"expected {r} coordinates for size {n}")
    cells, last = {}, n * n - 1
    for u, x in v.items():
        cells[u] = cells[last - u] = x
    return CentroMatrix(Matrix(ring, n, cells))


class NotClosed(ValueError):
    """A basis product that is not centrosymmetric, named by ``pair``."""

    def __init__(self, pair: str):
        super().__init__(f"basis product {pair} is not centrosymmetric")
        self.pair = pair


def structure_rows(ring: Ring, n: int) -> dict:
    """Sparse product rows u -> {v: {w: coeff}} with f_u f_v = sum, keys
    ascending at every level: the rows ``algebra_of_censym`` adopts.

    Computed by the matrix-unit oracle on row-major cell numbers: the unit
    e[a, b] is cell p = (a-1)*n + (b-1), its mirror is cell n*n-1-p, and the
    canonical cells are the first ``rank_of(n)`` cells, f_u's being cell u.
    The oracle is bucketed by row: a unit product e[a, b] e[c, d] =
    kron(b, c) e[a, d] is non-zero only when c == b, so f_u meets only the
    f_v with a cell in one of u's columns as a row, in ascending v; every
    skipped pair has a zero product.  A product cell counts its unit
    products as an int multiplicity k, read into the ring as the k-fold sum
    of ``one``, and the coefficients are read off the canonical cells.  A
    product cell whose ring value differs from its mirror's (c*P*c != P)
    raises :class:`NotClosed`.  Uncached: the rows are built once per
    ``shared_builds()`` block.
    """
    idxs, last = canonical_indices(n), n * n - 1
    # at[p]: the basis position of cell p, or None off the canonical cells; the
    # rows share its int objects rather than hold one per term
    at = [*range(len(idxs)), *[None] * (last + 1 - len(idxs))]
    cells = [[(i - 1) * n + j - 1 for i, j in unit_cells(n, ix.i, ix.j)] for ix in idxs]
    # value[k] is the k-fold sum of one; no product has more than this many terms
    value = [ring.zero()]
    for _ in range(max(map(len, cells)) ** 2):
        value.append(ring.add(value[-1], ring.one()))
    live = [x != value[0] for x in value]
    # under[c][v]: the columns of v's cells in row c, v ascending
    under = [{} for _ in range(n)]
    for v, cv in enumerate(cells):
        for p in cv:
            under[p // n].setdefault(v, []).append(p % n)
    rows = {}
    for u, cu in enumerate(cells):
        # the unit at cell a*n + b (0-based) meets row b, and a cell b*n + d there
        # gives the product cell a*n + d
        left, vs, row = [], set(), {}
        for p in cu:
            bucket = under[p % n]
            left.append((p - p % n, bucket))
            vs.update(bucket)
        for v in sorted(vs):
            prod = {}
            for a, bucket in left:
                for d in bucket.get(v, ()):
                    prod[a + d] = prod.get(a + d, 0) + 1
            terms = {}
            for p in sorted(prod):
                k, m = prod[p], prod.get(last - p, 0)
                if k != m and value[k] != value[m]:
                    raise NotClosed(f"({idxs[u].label}, {idxs[v].label})")
                w = at[p]
                if w is not None and live[k]:
                    terms[w] = value[k]
            if terms:
                row[v] = terms
        if row:
            rows[u] = row
    return rows


def structure_constants(ring: Ring, n: int) -> dict:
    """:func:`structure_rows` flattened: (u, v) -> ((w, coeff), ...), row-major."""
    return {(u, v): tuple(t.items()) for u, row in structure_rows(ring, n).items()
            for v, t in row.items()}


def formula_applicable(n: int, a: BasisIndex, b: BasisIndex) -> bool:
    """Whether the closed product formula applies verbatim to f_a * f_b.

    The formula breaks exactly where the odd middle cell halves supports:
    when either factor is the middle idempotent f[mid, mid], or when the
    first factor sits in the middle row while the second ends in the
    middle column (their unit terms then collapse pairwise and double).
    """
    if n % 2 == 0:
        return True
    mid = (n + 1) // 2
    return not (a.i == mid and (a.j == mid or b.j == mid) or b.i == b.j == mid)


def formula_product(ring: Ring, n: int, a: BasisIndex, b: BasisIndex):
    """Closed-formula expansion of f_a * f_b, or None where not applicable.

    f[i,j] f[p,q] = kron(j, p) f[i, q] + kron(j, n+1-p) f[i, n+1-q],
    read against canonical representatives: one term for each of (p, q)
    and its mirror (n+1-p, n+1-q) that starts at row j.  Row i is already
    canonical; only the odd middle row folds a column q > mid to n+1-q.
    Where the formula applies the two terms never name the same element.
    """
    if not formula_applicable(n, a, b):
        return None
    out, one, i, m = {}, ring.one(), a.i, n + 1
    for p, q in ((b.i, b.j), (m - b.i, m - b.j)):
        if p == a.j:
            out[i, m - q if i + i == m and q + q > m else q] = one
    return out


def exchange_coords(ring: Ring, n: int) -> list:
    """Coordinates of the exchange matrix c over the canonical basis."""
    return coords(CentroMatrix(exchange(ring, n)))
