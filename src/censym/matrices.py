"""Square matrices over a ring, matrix units, and symmetry predicates.

Indexing is 1-based throughout the public interface: ``a[i, j]`` with
``1 <= i, j <= n``.  A matrix keeps only its non-zero cells, as ``cells``:
a dict {row-major position (i-1)*n + (j-1): payload} in the sparse form of
:mod:`censym.linalg`, so dict ``==`` is matrix equality and no zero is
stored.  Dense and sparse input from outside enters through
``linalg.checked_sparse``; a sum, scale, product, transpose or conjugate
keeps the cells it built unchecked.  ``entries`` is the dense row-major view.

* Every sum goes through ``linalg.add_multiple``, so a cancelled cell or
  a scale that reaches zero stores nothing.
* A product adds x times row k of the right factor into row i for each
  left cell x at (i, k).  A product of matrix units therefore costs O(1),
  a dense product O(n^3), and every entry is the same ring element the
  schoolbook sum gives.
* Transposition and conjugation by the exchange matrix only move keys.
"""

from __future__ import annotations

from .linalg import add_multiple, checked_sparse, to_dense
from .rings import Ring, RingError, ensure_same_ring


class Matrix:
    """An n-by-n matrix over a ring, stored as its non-zero cells."""

    __slots__ = ("ring", "n", "cells")

    def __init__(self, ring: Ring, n: int, entries):
        """``entries`` is a dense row-major sequence or a sparse dict."""
        if n < 1:
            raise ValueError(f"matrix size must be >= 1, got {n}")
        self.ring = ring
        self.n = n
        self.cells = checked_sparse(ring, entries, n * n,
                                    f"expected {n * n} entries for size {n}")

    @classmethod
    def _wrap(cls, ring: Ring, n: int, cells: dict) -> "Matrix":
        """Wrap engine-made cells (zero-free, keys in range(n*n)) unchecked."""
        m = cls.__new__(cls)
        m.ring, m.n, m.cells = ring, n, cells
        return m

    @classmethod
    def zero(cls, ring: Ring, n: int) -> "Matrix":
        return cls(ring, n, {})

    @classmethod
    def identity(cls, ring: Ring, n: int) -> "Matrix":
        return cls(ring, n, dict.fromkeys(range(0, n * n, n + 1), ring.one()))

    @property
    def entries(self) -> tuple:
        """The dense row-major entries, zeros included."""
        return tuple(to_dense(self.ring, self.cells, self.n * self.n))

    def __getitem__(self, ij):
        i, j = ij
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexError(f"index ({i}, {j}) out of range for size {self.n}")
        return self.cells.get((i - 1) * self.n + j - 1, self.ring.zero())

    def _compat(self, other: "Matrix") -> None:
        ensure_same_ring(self.ring, other.ring, "matrices")
        if self.n != other.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n}")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._compat(other)
        cells = dict(self.cells)
        add_multiple(self.ring, cells, self.ring.one(), other.cells)
        return Matrix._wrap(self.ring, self.n, cells)

    def scale(self, r) -> "Matrix":
        cells = {}
        add_multiple(self.ring, cells, r, self.cells)
        return Matrix._wrap(self.ring, self.n, cells)

    def __mul__(self, other: "Matrix") -> "Matrix":
        self._compat(other)
        n, ring = self.n, self.ring
        right = {}  # row k of the right factor as {column: payload}
        for p, y in other.cells.items():
            right.setdefault(p // n, {})[p % n] = y
        rows = {}
        for p, x in self.cells.items():
            row = right.get(p % n)
            if row:
                add_multiple(ring, rows.setdefault(p // n, {}), x, row)
        return Matrix._wrap(ring, n, {i * n + j: z for i, row in rows.items()
                                      for j, z in row.items()})

    def transpose(self) -> "Matrix":
        n = self.n
        return Matrix._wrap(self.ring, n, {p % n * n + p // n: x for p, x in self.cells.items()})

    def conj_by_c(self) -> "Matrix":
        """Conjugation by the exchange matrix: (cac)[j, k] == a[n+1-j, n+1-k].

        Row-major position (j-1)*n + (k-1) mirrors to n*n-1 minus itself."""
        last = self.n * self.n - 1
        return Matrix._wrap(self.ring, self.n, {last - p: x for p, x in self.cells.items()})

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and other.ring == self.ring
            and other.n == self.n
            and other.cells == self.cells
        )

    def __hash__(self):
        return hash((self.ring, self.n, frozenset(self.cells.items())))

    def __repr__(self):
        rows = "; ".join(
            " ".join(self.ring.format(self[i, j]) for j in range(1, self.n + 1))
            for i in range(1, self.n + 1)
        )
        return f"Matrix({self.ring.literal()}, {self.n}: {rows})"

    @classmethod
    def from_text(cls, text: str) -> "Matrix":
        from .rings import ring_from_literal

        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise RingError("empty matrix file")
        head = lines[0].split()
        if len(head) != 4 or head[0] != "n" or head[2] != "ring":
            raise RingError(f"bad matrix header {lines[0]!r}; expected 'n <size> ring <ring>'")
        try:
            n = int(head[1])
        except ValueError:
            raise RingError(f"bad matrix size {head[1]!r}") from None
        if n < 1:
            raise RingError(f"matrix size must be >= 1, got {n}")
        ring = ring_from_literal(head[3])
        if len(lines) != n + 1:
            raise RingError(f"expected {n} matrix rows, got {len(lines) - 1}")
        entries = []
        for ln in lines[1:]:
            toks = ln.split()
            if len(toks) != n:
                raise RingError(f"expected {n} entries per row, got {len(toks)} in {ln!r}")
            entries.extend(ring.parse(t) for t in toks)
        return cls(ring, n, entries)


def matrix_unit(ring: Ring, n: int, i: int, j: int) -> Matrix:
    """The matrix with 1 in position (i, j) and 0 elsewhere."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexError(f"index ({i}, {j}) out of range for size {n}")
    return Matrix(ring, n, {(i - 1) * n + j - 1: ring.one()})


def exchange(ring: Ring, n: int) -> Matrix:
    """The anti-diagonal permutation matrix c; satisfies c*c == identity."""
    one = ring.one()
    return Matrix(ring, n, {i * n + n - 1 - i: one for i in range(n)})


def is_symmetric(a: Matrix) -> bool:
    return a.transpose() == a


def is_persymmetric(a: Matrix) -> bool:
    t = a.transpose()
    return t.conj_by_c() == a


def is_centrosymmetric(a: Matrix) -> bool:
    return a.conj_by_c() == a


def symmetry_class(a: Matrix) -> frozenset:
    """Flags among symmetric, persymmetric, bisymmetric, centrosymmetric."""
    flags = set()
    sym = is_symmetric(a)
    per = is_persymmetric(a)
    if sym:
        flags.add("symmetric")
    if per:
        flags.add("persymmetric")
    if sym and per:
        flags.add("bisymmetric")
    if is_centrosymmetric(a):
        flags.add("centrosymmetric")
    return frozenset(flags)
