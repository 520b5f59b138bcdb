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
"""

from __future__ import annotations

from .rings import Ring


class FreenessUndetermined(Exception):
    """Elimination stuck: a nonzero column with no unit entry to pivot on."""

    def __init__(self, column: int, value_text: str):
        super().__init__(
            f"no unit pivot available in column {column}; leading value {value_text}"
        )
        self.column = column


def vec_is_zero(ring: Ring, v) -> bool:
    z = ring.zero()
    return all(x == z for x in v)


def unit_vector(ring: Ring, width: int, pos: int):
    v = [ring.zero()] * width
    v[pos] = ring.one()
    return v


class RowBasis:
    """A growing reduced row-echelon basis with unit pivots normalized to 1.

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

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, v):
        """Residual of v against the stored rows, plus the row multipliers."""
        R = self.ring
        zero = R.zero()
        v = list(v)
        mults = [zero] * len(self.rows)
        for r, (row, p) in enumerate(zip(self.rows, self.pivots)):
            c = v[p]
            if c != zero:
                mults[r] = c
                for idx, x in enumerate(row):
                    if x != zero:
                        v[idx] = R.sub(v[idx], R.mul(c, x))
        return v, mults

    def residual(self, v):
        return self._reduce(v)[0]

    def contains(self, v) -> bool:
        return vec_is_zero(self.ring, self.residual(v))

    def insert(self, v) -> bool:
        """Add v to the span.  True if the rank grew, False if v was already
        in the span.  Raises FreenessUndetermined when the leading residual
        coefficient is not a unit."""
        R = self.ring
        zero = R.zero()
        res, mults = self._reduce(v)
        lead = next((idx for idx, x in enumerate(res) if x != zero), None)
        if lead is None:
            return False
        inv = R.inv(res[lead])
        if inv is None:
            raise FreenessUndetermined(lead, R.format(res[lead]))
        row = [R.mul(inv, x) for x in res]
        combo = None
        if self.track:
            # new row = inv * (v - sum mults[r] * old basis combinations)
            combo = [zero] * (self.n_inserted + 1)
            combo[self.n_inserted] = inv
            for r, m in enumerate(mults):
                if m != zero:
                    cm = R.mul(inv, m)
                    for k, x in enumerate(self.combos[r]):
                        combo[k] = R.sub(combo[k], R.mul(cm, x))
            for other in self.combos:
                other.extend([zero] * (self.n_inserted + 1 - len(other)))
        # keep full reduced form: clear the new pivot column above
        for r, other in enumerate(self.rows):
            c = other[lead]
            if c != zero:
                for idx, x in enumerate(row):
                    if x != zero:
                        other[idx] = R.sub(other[idx], R.mul(c, x))
                if self.track:
                    for k, x in enumerate(combo):
                        self.combos[r][k] = R.sub(self.combos[r][k], R.mul(c, x))
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


def spans_equal(ring: Ring, vecs_a, vecs_b, width: int) -> bool:
    ra = span_basis(ring, vecs_a, width)
    rb = span_basis(ring, vecs_b, width)
    if ra.rank != rb.rank:
        return False
    return all(ra.contains(v) for v in vecs_b) and all(rb.contains(v) for v in vecs_a)


def invert_matrix(ring: Ring, rows):
    """Two-sided inverse of a square matrix given as a list of rows, or None
    if singular.  Raises FreenessUndetermined if elimination gets stuck on
    non-unit pivots over a non-field."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    R = ring
    zero = R.zero()
    aug = [list(r) + unit_vector(R, n, i) for i, r in enumerate(rows)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if aug[r][col] != zero and R.inv(aug[r][col]) is not None:
                piv = r
                break
        if piv is None:
            if any(aug[r][col] != zero for r in range(col, n)):
                raise FreenessUndetermined(col, "no unit entry")
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = R.inv(aug[col][col])
        aug[col] = [R.mul(inv, x) for x in aug[col]]
        for r in range(n):
            if r != col:
                c = aug[r][col]
                if c != zero:
                    aug[r] = [R.sub(x, R.mul(c, y)) for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def nullspace(ring: Ring, rows, width: int) -> list:
    """Basis of the right nullspace over a field."""
    if not ring.is_field:
        raise ValueError(f"nullspace needs a field, got {ring.literal()}")
    rb = RowBasis(ring, width)
    for r in rows:
        rb.insert(r)
    pivot_set = set(rb.pivots)
    free_cols = [c for c in range(width) if c not in pivot_set]
    out = []
    for f in free_cols:
        v = [ring.zero()] * width
        v[f] = ring.one()
        for row, p in zip(rb.rows, rb.pivots):
            v[p] = ring.neg(row[f])
        out.append(v)
    return out


def mat_vec(ring: Ring, rows, v):
    """Apply a matrix given as rows of coefficients to a coordinate vector:
    out = sum_k v[k] * rows[k] (rows are images of basis vectors)."""
    zero = ring.zero()
    width = len(rows[0]) if rows else 0
    out = [zero] * width
    for c, row in zip(v, rows):
        if c != zero:
            for idx, x in enumerate(row):
                if x != zero:
                    out[idx] = ring.add(out[idx], ring.mul(c, x))
    return out
