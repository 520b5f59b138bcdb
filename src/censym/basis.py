"""The centrosymmetric matrix algebra: canonical basis and structure constants.

A matrix a is centrosymmetric when a[i, j] == a[n+1-i, n+1-j] for all i, j,
equivalently c*a*c == a for the exchange matrix c.  These matrices form a
free module of rank ceil(n^2/2) with basis

    f[i, j] = e[i, j] + e[n+1-i, n+1-j]   (single unit when the two cells
                                           coincide, i.e. the odd middle cell)

indexed canonically by 1 <= i <= ceil(n/2) and 1 <= j <= n, except that in
the odd middle row i == (n+1)/2 the indices j and n+1-j name the same
element and the canonical representative takes j <= (n+1)/2.  Basis order
is lexicographic on the canonical (i, j).  Structure constants are always
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
    from its non-zero cells alone: each basis element contributes exactly one
    canonical cell, so the coordinate at (i, j) is just the entry a[i, j]."""
    m = _unwrap(a)
    if not is_centrosymmetric(m):
        raise ValueError("matrix is not centrosymmetric")
    n, pos = m.n, positions(m.n)
    cells = (((p // n + 1, p % n + 1), c) for p, c in m.cells.items())
    return {pos[q]: c for q, c in cells if q in pos}


def from_coords(ring: Ring, n: int, v) -> CentroMatrix:
    """Inverse of :func:`coords`: the combination sum(v[u] * f_u), for a
    dense or sparse coordinate vector v.  Coordinate u is the payload of
    f_u's canonical cell and of its mirror cell, which sits at n*n-1 minus
    its row-major position."""
    idxs = canonical_indices(n)
    v = checked_sparse(ring, v, len(idxs), f"expected {len(idxs)} coordinates for size {n}")
    cells, last = {}, n * n - 1
    for u, x in v.items():
        p = (idxs[u].i - 1) * n + idxs[u].j - 1
        cells[p] = cells[last - p] = x
    return CentroMatrix(Matrix(ring, n, cells))


class NotClosed(ValueError):
    """A basis product that is not centrosymmetric, named by ``pair``."""

    def __init__(self, pair: str):
        super().__init__(f"basis product {pair} is not centrosymmetric")
        self.pair = pair


def structure_rows(ring: Ring, n: int) -> dict:
    """Sparse product rows u -> {v: {w: coeff}} with f_u f_v = sum, keys
    ascending at every level: the rows ``algebra_of_censym`` adopts.

    Computed by the matrix-unit oracle, bucketed by row: a unit product
    e[a, b] e[c, d] = kron(b, c) e[a, d] is non-zero only when c == b, so
    f_u meets only the f_v with a cell in one of u's columns as a row, in
    ascending v; every skipped pair has a zero product.  A product cell
    counts its unit products as an int multiplicity k, read into the ring as
    the k-fold sum of ``one``; the coefficients are read off the canonical
    cells, which sort as their positions do.  A product cell whose ring
    value differs from its mirror's (c*P*c != P) raises :class:`NotClosed`.
    Uncached: the rows are built once per ``shared_builds()`` block.
    """
    idxs = canonical_indices(n)
    pos = positions(n)
    cells = [unit_cells(n, ix.i, ix.j) for ix in idxs]
    # value[k] is the k-fold sum of one; no product has more than this many terms
    value = [ring.zero()]
    for _ in range(max(map(len, cells)) ** 2):
        value.append(ring.add(value[-1], ring.one()))
    live = [x != value[0] for x in value]
    # under[c][v]: the columns of v's cells in row c, v ascending
    under = {}
    for v, cv in enumerate(cells):
        for c, d in cv:
            under.setdefault(c, {}).setdefault(v, []).append(d)
    rows = {}
    for u, cu in enumerate(cells):
        left = [(a, under.get(b, {})) for a, b in cu]
        for v in sorted({v for _, bucket in left for v in bucket}):
            prod = {}
            for a, bucket in left:
                for d in bucket.get(v, ()):
                    prod[a, d] = prod.get((a, d), 0) + 1
            for (a, d), k in prod.items():
                m = prod.get((n + 1 - a, n + 1 - d), 0)
                if k != m and value[k] != value[m]:
                    raise NotClosed(f"({idxs[u].label}, {idxs[v].label})")
            terms = {}
            for cell in sorted(prod):
                k = prod[cell]
                if live[k] and cell in pos:
                    terms[pos[cell]] = value[k]
            if terms:
                rows.setdefault(u, {})[v] = terms
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
    mid = half_ceil(n)
    if (a.i, a.j) == (mid, mid) or (b.i, b.j) == (mid, mid):
        return False
    return not (a.i == mid and b.j == mid)


def formula_product(ring: Ring, n: int, a: BasisIndex, b: BasisIndex):
    """Closed-formula expansion of f_a * f_b, or None where not applicable.

    f[i,j] f[p,q] = kron(j, p) f[i, q] + kron(j, n+1-p) f[i, n+1-q],
    read against canonical representatives: one term for each of (p, q)
    and its mirror (n+1-p, n+1-q) that starts at row j.
    """
    if not formula_applicable(n, a, b):
        return None
    out, one, zero = {}, ring.one(), ring.zero()
    for p, q in ((b.i, b.j), (n + 1 - b.i, n + 1 - b.j)):
        if p == a.j:
            w = canon_index(n, a.i, q)
            out[w] = ring.add(out.get(w, zero), one)
            if out[w] == zero:  # both terms hit w and 1 + 1 is 0
                del out[w]
    return out


def exchange_coords(ring: Ring, n: int) -> list:
    """Coordinates of the exchange matrix c over the canonical basis."""
    return coords(CentroMatrix(exchange(ring, n)))
