"""Exact row reduction over a ring, pivoting only on unit entries.

Over a field every nonzero entry is a unit and this is plain Gauss-Jordan.
Over the integers (or other non-fields) a reduction step can get stuck on
a column whose entries are all non-units; that outcome is surfaced as
:class:`FreenessUndetermined` rather than silently approximated.  All the
coefficient systems this package produces reduce with unit pivots, so the
exception marks genuinely out-of-scope inputs.

Vectors are plain lists of ring payloads.  :func:`mat_vec` is the one
helper that applies a coefficient matrix (rows are images of basis
vectors) to a coordinate vector; every such sum elsewhere calls it.

Hot loops never visit a zero entry in Python.  :func:`_support` lists the
positions of the non-zero entries of a vector.  Where the ring's zero test
is Python falsiness (``Ring.is_zero is operator.not_``: integers,
rationals, residues) the entries select themselves in C through
``itertools.compress``.  Group-ring payloads are tuples, which are always
truthy; there ``list.count`` first recognises a zero vector in one C pass,
and otherwise each entry is compared with the zero payload.
:func:`mat_vec` walks the support of the vector and of each row it uses.

:class:`RowBasis` keeps its rows *fully* reduced: each row is 1 at its own
pivot column and 0 at every other row's pivot column.  Subtracting a
multiple of one row therefore never changes ``v`` at another pivot, so the
multiplier of each row is ``v``'s own entry at that row's pivot, and
:meth:`RowBasis._reduce` needs only the pivots in the support of ``v``
(looked up in a pivot-column -> row map) and, for each, the support of
its row.
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


def _support(ring: Ring, v) -> list:
    """Positions of the non-zero entries of v, in increasing order."""
    if ring.is_zero is not_:
        # truthiness is this ring's zero test: the entries select themselves
        return list(compress(range(len(v)), v)) if any(v) else []
    zero = ring.zero()
    if v.count(zero) == len(v):  # one pass in C for the many zero vectors
        return []
    return [idx for idx, x in enumerate(v) if x != zero]


def vec_is_zero(ring: Ring, v) -> bool:
    return not _support(ring, v)


def unit_vector(ring: Ring, width: int, pos: int):
    v = [ring.zero()] * width
    v[pos] = ring.one()
    return v


class RowBasis:
    """A growing fully reduced row-echelon basis with unit pivots normalized
    to 1.

    With ``track=True`` each stored row also carries its expression over
    the vectors successfully inserted so far, which makes
    :meth:`express` return coordinates in that inserted basis.
    """

    def __init__(self, ring: Ring, width: int, track: bool = False):
        self.ring = ring
        self.width = width
        self.track = track
        self.rows: list = []
        self.pivots: list = []
        self.combos: list = []
        self.n_inserted = 0
        self._row_of: dict = {}  # pivot column -> index of its row

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, v):
        """Residual of v against the stored rows, plus the row multipliers."""
        R = self.ring
        sub, mul = R.sub, R.mul
        v = list(v)
        mults = [R.zero()] * len(self.rows)
        row_of = self._row_of
        for p in _support(R, v):
            r = row_of.get(p)
            if r is not None:
                c = v[p]
                mults[r] = c
                row = self.rows[r]
                for idx in _support(R, row):
                    v[idx] = sub(v[idx], mul(c, row[idx]))
        return v, mults

    def residual(self, v):
        return self._reduce(v)[0]

    def contains(self, v) -> bool:
        return vec_is_zero(self.ring, self.residual(v))

    def insert(self, v) -> bool:
        """Add v to the span.  True if the rank grew, False if v was already
        in the span.  The pivot is the first unit entry of the residual;
        raises FreenessUndetermined when no residual entry is a unit."""
        R = self.ring
        zero = R.zero()
        res, mults = self._reduce(v)
        support = _support(R, res)
        if not support:
            return False
        for lead in support:
            inv = R.inv(res[lead])
            if inv is not None:
                break
        else:
            raise FreenessUndetermined(support[0], R.format(res[support[0]]))
        row = [zero] * len(res)
        for idx in support:
            row[idx] = R.mul(inv, res[idx])
        combo = None
        if self.track:
            # new row = inv * (v - sum mults[r] * old basis combinations)
            combo = [zero] * (self.n_inserted + 1)
            combo[self.n_inserted] = inv
            for r in _support(R, mults):
                cm = R.mul(inv, mults[r])
                old = self.combos[r]
                for k in _support(R, old):
                    combo[k] = R.sub(combo[k], R.mul(cm, old[k]))
            for other in self.combos:
                other.extend([zero] * (self.n_inserted + 1 - len(other)))
            combo_support = _support(R, combo)
        # keep full reduced form: clear the new pivot column in the other
        # rows (the new row is zero at their pivots, as a unit times a
        # non-zero entry is non-zero and the residual is zero there)
        for r, other in enumerate(self.rows):
            c = other[lead]
            if c != zero:
                for idx in support:
                    other[idx] = R.sub(other[idx], R.mul(c, row[idx]))
                if self.track:
                    mine = self.combos[r]
                    for k in combo_support:
                        mine[k] = R.sub(mine[k], R.mul(c, combo[k]))
        self._row_of[lead] = len(self.rows)
        self.rows.append(row)
        self.pivots.append(lead)
        if self.track:
            self.combos.append(combo)
            self.n_inserted += 1
        return True

    def insert_all(self, vectors) -> None:
        """Insert a prescribed independent family; raises if any is dependent."""
        for v in vectors:
            if not self.insert(v):
                raise ValueError("prescribed basis vectors are not independent")

    def express(self, v):
        """Coordinates of v over the inserted vectors, or None if outside."""
        if not self.track:
            raise ValueError("RowBasis was built without tracking")
        res, mults = self._reduce(v)
        if not vec_is_zero(self.ring, res):
            return None
        return mat_vec(self.ring, self.combos, mults)


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
    """Basis of the right nullspace, exact over any commutative ring.
    Unit-pivot elimination keeps the row module, and once every pivot is
    a unit the fully reduced rows read x at each pivot off x at the other
    columns, so the kernel is free on the non-pivot columns.  Raises
    FreenessUndetermined when a pivot is stuck."""
    rb = span_basis(ring, rows, width)
    out = []
    for f in sorted(set(range(width)) - set(rb.pivots)):
        v = unit_vector(ring, width, f)
        for row, p in zip(rb.rows, rb.pivots):
            v[p] = ring.neg(row[f])
        out.append(v)
    return out


def mat_vec(ring: Ring, rows, v):
    """Apply a matrix given as rows of coefficients to a coordinate vector:
    out = sum_k v[k] * rows[k] (rows are images of basis vectors)."""
    add, mul = ring.add, ring.mul
    width = len(rows[0]) if rows else 0
    out = [ring.zero()] * width
    for k in _support(ring, v):
        c = v[k]
        row = rows[k]
        for idx in _support(ring, row):
            out[idx] = add(out[idx], mul(c, row[idx]))
    return out
