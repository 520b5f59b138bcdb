"""Dense square matrices over a ring, matrix units, and symmetry predicates.

Indexing is 1-based throughout the public interface: ``a[i, j]`` with
``1 <= i, j <= n``.  Entries are canonical ring payloads, and every zero
test is the ring's ``is_zero``.

* Multiplication skips zeros on both sides: each row of the left factor
  walks only its non-zero entries, and each of those walks only the
  non-zero entries of the matching row of the right factor.  A product of
  matrix units therefore costs O(n), a dense product still O(n^3), and
  every entry is the same ring element the schoolbook sum gives (terms are
  added in k order).
* Addition skips the ring add wherever one of the two entries is zero and
  keeps the other entry, which is the same canonical payload.
"""

from __future__ import annotations

from typing import Iterable

from .rings import Ring, RingError, ensure_same_ring


class Matrix:
    """An n-by-n matrix over a ring, stored row-major."""

    __slots__ = ("ring", "n", "entries")

    def __init__(self, ring: Ring, n: int, entries: Iterable):
        if n < 1:
            raise ValueError(f"matrix size must be >= 1, got {n}")
        entries = tuple(entries)
        if len(entries) != n * n:
            raise ValueError(f"expected {n * n} entries for size {n}, got {len(entries)}")
        self.ring = ring
        self.n = n
        self.entries = entries

    @classmethod
    def zero(cls, ring: Ring, n: int) -> "Matrix":
        z = ring.zero()
        return cls(ring, n, [z] * (n * n))

    @classmethod
    def identity(cls, ring: Ring, n: int) -> "Matrix":
        z, o = ring.zero(), ring.one()
        return cls(ring, n, [o if i == j else z for i in range(n) for j in range(n)])

    def _check_index(self, i: int, j: int) -> None:
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexError(f"index ({i}, {j}) out of range for size {self.n}")

    def __getitem__(self, ij):
        i, j = ij
        self._check_index(i, j)
        return self.entries[(i - 1) * self.n + (j - 1)]

    def _compat(self, other: "Matrix") -> None:
        ensure_same_ring(self.ring, other.ring, "matrices")
        if self.n != other.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n}")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._compat(other)
        add, is_zero = self.ring.add, self.ring.is_zero
        return Matrix(self.ring, self.n, [
            b if is_zero(a) else a if is_zero(b) else add(a, b)
            for a, b in zip(self.entries, other.entries)
        ])

    def scale(self, r) -> "Matrix":
        mul = self.ring.mul
        return Matrix(self.ring, self.n, [mul(r, a) for a in self.entries])

    def __mul__(self, other: "Matrix") -> "Matrix":
        self._compat(other)
        n = self.n
        R = self.ring
        add, mul, is_zero, zero = R.add, R.mul, R.is_zero, R.zero()
        a, b = self.entries, other.entries
        # non-zero (j, b[k, j]) of row k of the right factor, built on first use
        brows = [None] * n
        out = []
        for i in range(n):
            acc = [zero] * n
            for k, x in enumerate(a[i * n : (i + 1) * n]):
                if not is_zero(x):
                    brow = brows[k]
                    if brow is None:
                        brow = brows[k] = [
                            (j, y) for j, y in enumerate(b[k * n : (k + 1) * n])
                            if not is_zero(y)
                        ]
                    for j, y in brow:
                        acc[j] = add(acc[j], mul(x, y))
            out.extend(acc)
        return Matrix(R, n, out)

    def transpose(self) -> "Matrix":
        n = self.n
        e = self.entries
        return Matrix(self.ring, n, [e[j * n + i] for i in range(n) for j in range(n)])

    def conj_by_c(self) -> "Matrix":
        """Conjugation by the exchange matrix: (cac)[j, k] == a[n+1-j, n+1-k].

        Row-major position (j-1)*n + (k-1) mirrors to n*n-1 minus itself, so
        this is the entry tuple reversed."""
        return Matrix(self.ring, self.n, self.entries[::-1])

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and other.ring == self.ring
            and other.n == self.n
            and other.entries == self.entries
        )

    def __hash__(self):
        return hash((self.ring, self.n, self.entries))

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
    m = Matrix.zero(ring, n)
    entries = list(m.entries)
    entries[(i - 1) * n + (j - 1)] = ring.one()
    return Matrix(ring, n, entries)


def exchange(ring: Ring, n: int) -> Matrix:
    """The anti-diagonal permutation matrix c; satisfies c*c == identity."""
    z, o = ring.zero(), ring.one()
    return Matrix(ring, n, [o if i + j == n - 1 else z for i in range(n) for j in range(n)])


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
