"""Exact row reduction over a ring, pivoting only on unit entries.

Over a field every nonzero entry is a unit and this is plain Gauss-Jordan.
Over the integers (or other non-fields) a reduction step can get stuck on
a column whose entries are all non-units; that outcome is surfaced as
:class:`FreenessUndetermined` rather than silently approximated.  All the
coefficient systems this package produces reduce with unit pivots, so the
exception marks genuinely out-of-scope inputs.

The kernels work on sparse vectors: dicts ``{basis index: payload}`` that
store only non-zero canonical payloads.  Every kernel deletes a key whose
sum cancels, so a zero is never stored, dict ``==`` is vector equality and
``not v`` is the zero test.  :func:`add_multiple` is the one accumulation
step (``acc += c*v``); it skips a multiply by one and an add into an
absent key.  :func:`mat_vec_sparse` is the one helper that applies a
coefficient matrix (rows are images of basis vectors) to a coordinate
vector.  Cost model: a kernel call pays per term, not per call, as the
kernels read a ring's operations from :attr:`censym.rings.Ring.ops`, bound
once per ring, and :class:`RowBasis` reduces the zero vector without a pass.
A kernel evaluates no comprehension per call: CPython 3.11 builds a function
and a frame for each (``test_kernels.py::test_kernels_hold_no_nested_code``).
One way in, one way out: :func:`checked_sparse` takes a vector from outside
the engine, dense list or sparse dict (a new ``matrices.Matrix``'s input too),
returns the sparse form and rejects one that does not fit its width;
:func:`to_dense` gives the dense form back for the few dense faces, such as
``Matrix.entries``.  The kernels take sparse input and check
nothing, but :class:`RowBasis` (so :func:`span_basis` and :func:`nullspace`)
checks a dense vector against its width and trusts a sparse one.

:class:`RowBasis` keeps its rows *fully* reduced: each row is 1 at its own
pivot column and 0 at every other row's pivot column.  Subtracting a
multiple of one row therefore never changes ``v`` at another pivot, so the
multiplier of each row is ``v``'s own entry at that row's pivot, and
:meth:`RowBasis._reduce` needs only the keys of ``v`` that are pivots
(looked up in a pivot-column -> row map) and the keys of their rows.
"""

from __future__ import annotations

from itertools import compress
from operator import not_

from .rings import Ring


class FreenessUndetermined(Exception):
    """Elimination stuck: a nonzero column with no unit entry to pivot on."""

    def __init__(self, column: int, value_text: str):
        super().__init__(
            f"no unit pivot available in column {column}; leading value {value_text}"
        )
        self.column = column


def checked_sparse(ring: Ring, v, width: int, message: str) -> dict:
    """The sparse form of a vector from outside the engine, dense or sparse.
    A dense vector must have length ``width`` and a sparse one only keys in
    ``range(width)``; otherwise ``ValueError(message)``.  Zero payloads of a
    sparse vector are dropped, as the sparse form stores none."""
    if not isinstance(v, dict):
        if len(v) != width:
            raise ValueError(message)
        if ring.is_zero is not_:  # truthiness is the zero test: select in C
            return dict(compress(enumerate(v), v))
        zero = ring.zero()
        return {k: x for k, x in enumerate(v) if x != zero}
    if not all(map(range(width).__contains__, v)):
        raise ValueError(message)
    is_zero = ring.is_zero
    if is_zero is not_:
        return dict(compress(v.items(), v.values()))
    return {k: x for k, x in v.items() if not is_zero(x)}


def to_dense(ring: Ring, v: dict, width: int) -> list:
    out = [ring.zero()] * width
    for k, x in v.items():
        out[k] = x
    return out


def add_multiple(ring: Ring, acc: dict, c, v: dict) -> None:
    """acc += c*v in place, deleting every key whose sum is zero."""
    add, mul, _, is_zero, one = ring.ops
    unit = c == one
    for k, x in v.items():
        t = x if unit else c if x == one else mul(c, x)
        if k in acc:
            t = add(acc[k], t)
        if is_zero(t):
            acc.pop(k, None)
        else:
            acc[k] = t


class RowBasis:
    """A growing fully reduced row-echelon basis with unit pivots normalized
    to 1, stored sparse in ``sparse_rows``.

    With ``track=True`` each stored row also carries its expression over
    the vectors successfully inserted so far, which makes
    :meth:`express_sparse` return coordinates in that inserted basis.
    """

    def __init__(self, ring: Ring, width: int, track: bool = False):
        self.ring = ring
        self.width = width
        self.track = track
        self.sparse_rows: list = []
        self.pivots: list = []
        self._combos: list = []
        self._row_of: dict = {}  # pivot column -> index of its row

    @property
    def rank(self) -> int:
        return len(self.sparse_rows)

    def _reduce(self, v):
        """Residual of v against the stored rows, plus the row multipliers
        as ``{row index: multiplier}``."""
        R, row_of = self.ring, self._row_of
        v = v if isinstance(v, dict) else checked_sparse(
            R, v, self.width, f"vector length does not match the width {self.width}")
        if not v:
            return {}, {}
        neg, rows = R.ops[2], self.sparse_rows
        res, mults = dict(v), {}
        for p, c in v.items():
            r = row_of.get(p)
            if r is not None:
                mults[r] = c
                add_multiple(R, res, neg(c), rows[r])
        return res, mults

    def residual_sparse(self, v) -> dict:
        return self._reduce(v)[0]

    def contains(self, v) -> bool:
        return not self.residual_sparse(v)

    def insert(self, v) -> bool:
        """Add v to the span.  True if the rank grew, False if v was already
        in the span.  The pivot is the lowest column whose residual entry is
        a unit; raises FreenessUndetermined when no residual entry is."""
        R = self.ring
        res, mults = self._reduce(v)
        if not res:
            return False
        _, mul, neg, _, _ = R.ops
        support = sorted(res)
        for lead in support:
            inv = R.inv(res[lead])
            if inv is not None:
                break
        else:
            raise FreenessUndetermined(support[0], R.format(res[support[0]]))
        row = {}
        add_multiple(R, row, inv, res)
        if self.track:
            # new row = inv * (v - sum mults[r] * old basis combinations)
            combo = {self.rank: inv}
            for r, m in mults.items():
                add_multiple(R, combo, neg(mul(inv, m)), self._combos[r])
        # keep full reduced form: clear the new pivot column in the other
        # rows (the new row is zero at their pivots, as a unit times a
        # non-zero entry is non-zero and the residual is zero there)
        for r, other in enumerate(self.sparse_rows):
            c = other.get(lead)
            if c is not None:
                c = neg(c)
                add_multiple(R, other, c, row)
                if self.track:
                    add_multiple(R, self._combos[r], c, combo)
        self._row_of[lead] = self.rank
        self.sparse_rows.append(row)
        self.pivots.append(lead)
        if self.track:
            self._combos.append(combo)
        return True

    def insert_all(self, vectors) -> None:
        """Insert a prescribed independent family; raises if any is dependent."""
        for v in vectors:
            if not self.insert(v):
                raise ValueError("prescribed basis vectors are not independent")

    def express_sparse(self, v) -> dict | None:
        """Coordinates of v over the inserted vectors, or None if outside."""
        if not self.track:
            raise ValueError("RowBasis was built without tracking")
        res, mults = self._reduce(v)
        return None if res else mat_vec_sparse(self.ring, self._combos, mults)


def span_basis(ring: Ring, vectors, width: int) -> RowBasis:
    """Reduced basis of the span of the given vectors (deferred retry on
    stuck vectors, so insertion order does not cause spurious failures)."""
    rb = RowBasis(ring, width)
    pending = list(vectors)
    while pending:
        progressed = False
        stuck = []
        for v in pending:
            try:
                rb.insert(v)
                progressed = True
            except FreenessUndetermined:
                stuck.append(v)
        if not progressed:
            # re-raise on the first genuinely stuck vector
            rb.insert(stuck[0])
        pending = stuck
    return rb


def nullspace(ring: Ring, rows, width: int) -> list:
    """Basis of the right nullspace, as sparse vectors, exact over any
    commutative ring.  Unit-pivot elimination keeps the row module, and
    once every pivot is a unit the fully reduced rows read x at each pivot
    off x at the other columns, so the kernel is free on the non-pivot
    columns.  Raises FreenessUndetermined when a pivot is stuck."""
    rb = span_basis(ring, rows, width)
    out = []
    for f in sorted(set(range(width)) - set(rb.pivots)):
        v = {f: ring.one()}
        for row, p in zip(rb.sparse_rows, rb.pivots):
            if f in row:
                v[p] = ring.neg(row[f])
        out.append(v)
    return out


def mat_vec_sparse(ring: Ring, rows, v: dict) -> dict:
    """Apply a matrix given as sparse rows of coefficients to a sparse
    coordinate vector: sum_k v[k] * rows[k] (rows are images of basis
    vectors)."""
    out = {}
    for k, c in v.items():
        add_multiple(ring, out, c, rows[k])
    return out

