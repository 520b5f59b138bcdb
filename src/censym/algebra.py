"""Finite-rank structure-constant algebras with involutions.

A :class:`StructureAlgebra` is a free module with a distinguished basis, a
single sparse store of its basis products (the nested rows its builder wrote,
adopted with no copy), unit coordinates, and optionally an involution given by
the coordinate images of the basis.  It carries the centrosymmetric algebra,
full matrix algebras (also over a group-ring coefficient ring, flattened to
the base), direct products, corner subalgebras, and quotients.  A two-sided
ideal is its reduced unit-pivot :class:`censym.linalg.RowBasis`, as
:func:`ideal_generated` returns it.  Linear maps between algebras or based
modules travel as :class:`LinearMapWitness` values whose claimed properties
are machine-checked exhaustively on basis pairs by :func:`check_witness`.
Checks whose passing elements form a subalgebra (ideals, homomorphisms, the
centre, and the associativity and anti-homomorphism clauses of
:meth:`StructureAlgebra.validate`) hold on the whole basis once they hold on
:meth:`StructureAlgebra.generators`, a generating set read off the products
alone: the join set of one greedy closure that tries first the cycle of
matrix units the centrosymmetric and full matrix builders name, so it is
irredundant there, with about n/2 elements for S_n and m for M_m, and
quotients inherit it.
A quotient reduces each basis element once and projects every product
through those images, as the residual is linear.
The centre is one exact unit-pivot nullspace over every ring, and a misused
witness (unknown claim, wrong endpoints) raises ValueError, never ``fail``.
Inside a :func:`shared_builds` block the builders marked :func:`shared_in_scope`
(the centrosymmetric algebra, the odd quotient and the column modules)
build once per argument tuple and hand every caller the same object, so the
shared algebra's store is the only memo of its products; outside a block
every call builds afresh.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import wraps
from itertools import chain
from operator import not_

from . import basis as fb
from .linalg import (
    FreenessUndetermined,
    RowBasis,
    add_multiple,
    checked_sparse,
    mat_vec_sparse,
    nullspace,
    span_basis,
    to_dense,
)
from .reports import FAIL, PASS, UNDETERMINED, Report, combine_clauses
from .rings import GroupRingC2, Ring


class StructureAlgebra:
    """An associative unital algebra presented by basis labels and a sparse
    table of its basis products: nested rows ``u -> {v: {w: coeff}}``, as
    the builders write them, are checked in place and adopted as ``by_left``
    (read it, never change it); a flat table ``(u, v) -> ((w, coeff), ...)``,
    rows holding a zero, or rows or terms that are not dicts go through
    :func:`_checked_rows`.  An index
    outside the basis raises ValueError.  :meth:`mul_sparse` walks only the
    keys of its left operand and, for each, the shorter of the right
    operand's keys and that index's row; :attr:`table` rebuilds the flat
    form.  The ``invol`` rows, the images of the basis vectors, and the unit
    may come dense or sparse through :func:`censym.linalg.checked_sparse`;
    they are stored as ``invol_sparse`` and ``unit_sparse``.  ``unit``,
    ``mul``, ``basis_vector`` and ``zero_vector`` are the dense faces, and
    ``mul`` takes its operands through the same boundary.  ``first`` names
    basis indices for :meth:`generators` to try before the rest; where they
    are a builder's cycle of matrix units, G is irredundant.
    """

    def __init__(self, ring: Ring, labels, table: dict, unit, invol=None, first=()):
        self.ring = ring
        self.labels = tuple(labels)
        zero, basis = ring.zero(), frozenset(range(len(self.labels)))
        clean = all if ring.is_zero is not_ else lambda cs: zero not in cs
        rows = table.values()

        def entries():  # the terms dicts of nested rows, row by row
            return chain.from_iterable(map(dict.values, rows))

        try:  # passes in C; a flat table's keys are pairs, never basis indices
            adopt = (basis.issuperset(table) and all(rows)
                     and basis.issuperset(chain.from_iterable(rows)) and all(entries())
                     and basis.issuperset(chain.from_iterable(entries()))
                     and clean(chain.from_iterable(map(dict.values, entries()))))
        except TypeError:  # a row or terms that are not dicts
            adopt = False
        self.by_left = table if adopt else _checked_rows(ring, basis, table)
        self.unit_sparse = checked_sparse(ring, unit, len(self.labels),
                                          "unit coordinate length does not match the basis")
        self.invol_sparse = None if invol is None else [checked_sparse(
            ring, row, len(self.labels), "involution matrix does not match the basis")
            for row in invol]
        if self.invol_sparse is not None and len(self.invol_sparse) != len(self.labels):
            raise ValueError("involution matrix does not match the basis")
        self._first = tuple(first)  # indices the greedy of generators() tries first
        if not all(u in range(len(self.labels)) for u in self._first):
            raise ValueError("a first generator candidate is not a basis index")
        self._generators = None

    @property
    def rank(self) -> int:
        return len(self.labels)

    @property
    def table(self) -> dict:
        """A fresh dict ``(u, v) -> ((w, coeff), ...)`` with row-major keys, from ``by_left``."""
        rows = self.by_left
        return {(u, v): tuple(rows[u][v].items()) for u in sorted(rows) for v in sorted(rows[u])}

    @property
    def unit(self) -> list:
        return to_dense(self.ring, self.unit_sparse, self.rank)

    def zero_vector(self):
        return [self.ring.zero()] * self.rank

    def basis_vector(self, u: int):
        return to_dense(self.ring, {u: self.ring.one()}, self.rank)

    def generators(self) -> tuple:
        """A set G of basis indices whose words span the algebra, certified
        from the table alone and cached.  Index u is reached when some
        T[g, v] or T[v, g], g in G and v reached, is a unit at u and reached
        elsewhere; so by induction each reached e_u is an R-combination of
        words in G.  One greedy closure joins to G each unreached index of
        ``first``, then of the basis in index order, and G is the joined set.
        Any order is sound, as the certificate is only that the closure from
        G reaches every index; the builders pass first a cycle of matrix
        units, E_{1,2}, ..., E_{m-1,m}, x*E_{m,1}, which alone generates
        M_m(R[C2]) = S_2m, and :func:`quotient_by_ideal` the images of its
        parent's G, so G is irredundant wherever a builder names a cycle."""
        if self._generators is None:
            by_left, by_right, units = self.by_left, {}, {}
            for u, row in by_left.items():
                for v, terms in row.items():
                    by_right.setdefault(v, []).append((u, terms))

            def partners(u):  # (other factor, product) for each product of u
                return chain(by_left.get(u, {}).items(), by_right.get(u, ()))

            def is_unit(c):  # decided once per coefficient, not once per entry
                if c not in units:
                    units[c] = self.ring.inv(c) is not None
                return units[c]

            # join each unreached candidate to G and close under the rule; an
            # entry that names unreached indices waits under each of them
            gens, reached, waiting = set(), set(), {}
            for u in chain(self._first, range(self.rank)):
                if u in reached:
                    continue
                gens.add(u)
                reached.add(u)
                todo = [t for v, t in partners(u) if v in reached]
                todo += waiting.pop(u, [])
                while todo:
                    terms = todo.pop()
                    new = [(w, c) for w, c in terms.items() if w not in reached]
                    if len(new) == 1 and is_unit(new[0][1]):
                        x = new[0][0]
                        reached.add(x)
                        todo += [t for g, t in partners(x) if g in gens]
                        todo += waiting.pop(x, [])
                    else:
                        for w, _ in new:
                            waiting.setdefault(w, []).append(terms)
            self._generators = tuple(sorted(gens))
        return self._generators

    def first_failure(self, scan):
        """The first counterexample ``scan(indices)`` finds on the basis, or
        None.  Sound when the elements that pass form an R-submodule closed
        under products: a pass on :meth:`generators` then covers every word.
        A fail re-scans the whole basis in order for the first counterexample."""
        return None if scan(self.generators()) is None else scan(range(self.rank))

    def mul_sparse(self, x: dict, y: dict) -> dict:
        R = self.ring
        _, mul, _, _, one = R.ops
        out = {}
        for u, cu in x.items():
            products = self.by_left.get(u)
            if not products:
                continue
            unit = cu == one
            if len(y) <= len(products):
                for v, cv in y.items():
                    if v in products:
                        add_multiple(R, out, cv if unit else cu if cv == one else mul(cu, cv),
                                     products[v])
            else:
                for v, terms in products.items():
                    if v in y:
                        cv = y[v]
                        add_multiple(R, out, cv if unit else cu if cv == one else mul(cu, cv),
                                     terms)
        return out

    def mul(self, x, y):
        R, r = self.ring, self.rank
        x, y = (checked_sparse(R, v, r, f"vector length does not match the algebra's rank {r}")
                for v in (x, y))
        return to_dense(R, self.mul_sparse(x, y), r)

    def mul_basis_sparse(self, u: int, v: int) -> dict:
        """e_u * e_v, shared with ``by_left``: read it, never change it."""
        return self.by_left.get(u, {}).get(v, {})

    def apply_invol_sparse(self, x: dict) -> dict:
        if self.invol_sparse is None:
            raise ValueError("algebra has no involution")
        return mat_vec_sparse(self.ring, self.invol_sparse, x)

    def format_element(self, x) -> str:
        return format_vector(self.ring, self.labels, x)

    def validate(self) -> list:
        """Associativity, unit, and involution audit, certified on the basis.

        Returns a list of defect descriptions; empty means the presentation
        is a genuine algebra (with involution, if one is attached).  The
        associativity and anti-homomorphism clauses take their first factor
        from :meth:`generators` through :meth:`first_failure`: the left
        nucleus {x : (xy)z = x(yz) for all y, z} is closed under products
        with no associativity assumed, and in an associative table so is
        {x : (xy)* = y*x* for all y}.  Any defect re-runs the audit on the
        whole basis, so the list is the exhaustive one, in basis order.  The
        associativity clause visits only the w with T[v, w] or some T[t, w],
        t in T[u, v], non-zero, in ascending order: elsewhere both sides are zero.
        """
        R, r, labels, by_left = self.ring, self.rank, self.labels, self.by_left
        one, unit, invol = R.one(), self.unit_sparse, self.invol_sparse

        def audit(over):
            defects = []
            for u in range(r):
                e = {u: one}
                if self.mul_sparse(unit, e) != e or self.mul_sparse(e, unit) != e:
                    defects.append(f"unit law fails at {labels[u]}")
            for u in over:
                row_u = by_left.get(u, {})
                for v in range(r):
                    uv, row_v = row_u.get(v, {}), by_left.get(v, {})
                    for w in sorted(set(row_v).union(*(by_left.get(t, ()) for t in uv))):
                        # (e_u e_v) e_w = sum c*T[t, w] over (t, c) in T[u, v], and
                        # e_u (e_v e_w) = sum c*T[u, t] over (t, c) in T[v, w]
                        left, right = {}, {}
                        for t, c in uv.items():
                            add_multiple(R, left, c, by_left.get(t, {}).get(w, {}))
                        for t, c in row_v.get(w, {}).items():
                            add_multiple(R, right, c, row_u.get(t, {}))
                        if left != right:
                            defects.append("associativity fails at "
                                           f"({labels[u]}, {labels[v]}, {labels[w]})")
            if invol is not None:
                for u in range(r):
                    if self.apply_invol_sparse(invol[u]) != {u: one}:
                        defects.append(f"involution is not an involution at {labels[u]}")
                if self.apply_invol_sparse(unit) != unit:
                    defects.append("involution moves the unit")
                for u in over:
                    for v in range(r):
                        if (self.apply_invol_sparse(by_left.get(u, {}).get(v, {}))
                                != self.mul_sparse(invol[v], invol[u])):
                            defects.append("involution is not an anti-homomorphism at "
                                           f"({labels[u]}, {labels[v]})")
            return defects or None

        return self.first_failure(audit) or []

    def to_json_dict(self) -> dict:
        R, r = self.ring, self.rank
        tensor = [[[R.format(c) for c in to_dense(R, self.mul_basis_sparse(u, v), r)]
                   for v in range(r)] for u in range(r)]
        out = {"ring": R.literal(), "rank": r, "labels": list(self.labels),
               "unit": [R.format(c) for c in self.unit], "tensor": tensor}
        if self.invol_sparse is not None:
            out["involution"] = [[R.format(c) for c in to_dense(R, row, r)]
                                 for row in self.invol_sparse]
        return out


def _checked_rows(ring: Ring, basis, table: dict) -> dict:
    """Fresh rows from a flat table (the one reader of that form) or from rows
    to mend, in entry order: zero terms, and the entries they empty, drop
    unchecked; an index outside ``basis``, or twice in one entry, raises."""
    zero, rows = ring.zero(), {}
    entries = table.items() if isinstance(next(iter(table)), tuple) else (
        ((u, v), terms.items()) for u, row in table.items() for v, terms in row.items())
    for (u, v), terms in entries:
        kept = [(w, c) for w, c in terms if c != zero]
        if not kept:
            continue
        row = dict(kept)
        if len(row) != len(kept):
            raise ValueError(f"table entry {(u, v)} names a basis index twice")
        if not (u in basis and v in basis and row.keys() <= basis):
            raise ValueError(f"table entry {(u, v)} names an index outside the basis")
        rows.setdefault(u, {})[v] = row
    return rows


def format_vector(ring: Ring, labels, v) -> str:
    """Human-readable combination like ``f1_1 + 2*f1_3`` or ``-f2_1``."""
    one = ring.one()
    minus = ring.neg(one)
    parts = []
    v = checked_sparse(ring, v, len(labels), "vector length does not match the labels")
    for c, lab in ((v[k], labels[k]) for k in sorted(v)):
        if c == one:
            parts.append(lab)
        elif c == minus:
            parts.append(f"-{lab}")
        else:
            s = ring.format(c)
            if "+" in s or "-" in s[1:]:
                s = f"({s})"
            parts.append(f"{s}*{lab}")
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


_shared: dict | None = None  # (builder, args, kwargs) -> build, inside shared_builds()


@contextmanager
def shared_builds():
    """Within the block each :func:`shared_in_scope` builder builds once per
    argument tuple and returns that one object to every caller; the builds
    are dropped when the block exits, and outside any block every call
    builds afresh.  Callers treat a shared build as read-only (caches such
    as :meth:`StructureAlgebra.generators` aside), so no caller sees
    another's use of it."""
    global _shared
    outer, _shared = _shared, {}
    try:
        yield
    finally:
        _shared = outer


def shared_in_scope(build):
    """Mark a builder whose result :func:`shared_builds` may share."""
    @wraps(build)
    def shared(*args, **kwargs):
        if _shared is None:
            return build(*args, **kwargs)
        key = (build, args, tuple(sorted(kwargs.items())))
        if key not in _shared:
            _shared[key] = build(*args, **kwargs)
        return _shared[key]
    return shared


@shared_in_scope
def algebra_of_censym(ring: Ring, n: int) -> StructureAlgebra:
    """The centrosymmetric algebra on the canonical f-basis, with the matrix
    transpose as its involution (a plus-signed basis permutation); built
    once per (ring, n) inside a :func:`shared_builds` block."""
    idxs = fb.canonical_indices(n)
    pos = fb.positions(n)
    labels = [ix.label for ix in idxs]
    table = fb.structure_rows(ring, n)
    unit = {u: ring.one() for u, ix in enumerate(idxs) if ix.i == ix.j}
    invol = [{pos[fb.canon_index(n, ix.j, ix.i)]: ring.one()} for ix in idxs]
    # the cycle f[1,2], ..., f[m-1,m], f[m,n] = x*E_{m,1} of S_2m = M_m(R[C2]);
    # at odd n the middle row and column, and f[mid,mid] unless it is reached
    m, mid = n // 2, (n + 1) // 2
    cycle = [(i, i + 1) for i in range(1, m)] + [(m, n)] if m else []
    if n % 2:
        cycle += [(1, mid), (mid, 1), (mid, mid)]
    return StructureAlgebra(ring, labels, table, unit, invol, [pos[c] for c in cycle])


def full_matrix_algebra(ring: Ring, m: int,
                        flatten_group_ring: bool = True) -> StructureAlgebra:
    """The full m-by-m matrix algebra on matrix units, transpose involution.

    When the coefficient ring is a group ring over the order-two cyclic
    group, the algebra is by default flattened over the base ring: basis
    E{i}_{j} and x*E{i}_{j}, with x carried along multiplication via
    x*x == 1 and fixed by the involution.  Pass ``flatten_group_ring=False``
    to keep matrix units over the group ring itself (rank m*m over it).
    """
    if m < 1:
        raise ValueError(f"matrix algebra size must be >= 1, got {m}")
    # g is the power of x carried by a basis element; unflattened, always 0
    flatten = isinstance(ring, GroupRingC2) and flatten_group_ring
    base, powers = (ring.base, (0, 1)) if flatten else (ring, (0,))
    s, one = len(powers), base.one()
    labels = [f"E{i}_{j}" if g == 0 else f"x*E{i}_{j}"
              for i in range(1, m + 1) for j in range(1, m + 1) for g in powers]
    # E_{i,j}x^g is basis index ((i-1)*m + j-1)*s + g, read from ix so that the
    # rows share one int object per index; E_{i,j}x^g * E_{j,q}x^h = E_{i,q}x^(g+h)
    ix, table = list(range(len(labels))), {}
    for i in range(m):
        for j in range(m):
            for g in powers:
                row = table[ix[(i * m + j) * s + g]] = {}
                for q in range(m):
                    for h in powers:
                        row[ix[(j * m + q) * s + h]] = {ix[(i * m + q) * s + (g + h) % 2]: one}
    unit = {i * (m + 1) * s: one for i in range(m)}
    invol = [{ix[(j * m + i) * s + g]: one} for i in range(m) for j in range(m) for g in powers]
    # the cycle E_{1,2}, ..., E_{m-1,m}, E_{m,1}, whose last unit carries x if flattened
    cycle = [(i * (m + 1) + 1) * s for i in range(m - 1)] + [(m - 1) * m * s + int(flatten)]
    return StructureAlgebra(base, labels, table, unit, invol, cycle)


def zero_algebra(ring: Ring) -> StructureAlgebra:
    return StructureAlgebra(ring, (), {}, (), invol=())


def direct_product(a: StructureAlgebra, b: StructureAlgebra,
                   prefixes=("a", "b")) -> StructureAlgebra:
    """Block-diagonal product algebra with prefixed labels."""
    if a.ring != b.ring:
        raise ValueError("direct product needs a common coefficient ring")
    ring = a.ring
    labels = [f"{prefixes[0]}:{lab}" for lab in a.labels] + [
        f"{prefixes[1]}:{lab}" for lab in b.labels
    ]
    off = a.rank
    table = {u + k: {v + k: {w + k: c for w, c in terms.items()} for v, terms in row.items()}
             for x, k in ((a, 0), (b, off)) for u, row in x.by_left.items()}
    unit = dict(a.unit_sparse)
    unit.update((k + off, c) for k, c in b.unit_sparse.items())
    invol = None
    if a.invol_sparse is not None and b.invol_sparse is not None:
        invol = a.invol_sparse + [{k + off: c for k, c in row.items()}
                                  for row in b.invol_sparse]
    return StructureAlgebra(ring, labels, table, unit, invol)


def subalgebra_from_vectors(a: StructureAlgebra, vectors, labels, unit_vec) -> StructureAlgebra:
    """The algebra spanned by the given independent vectors, which must be
    closed under multiplication and contain the given unit; each may come
    dense or sparse through :func:`censym.linalg.checked_sparse`.  The induced
    involution is attached when the ambient algebra has one and the span is
    stable under it."""
    ring = a.ring
    message = f"vector length does not match the algebra's rank {a.rank}"
    vectors = [checked_sparse(ring, v, a.rank, message) for v in vectors]
    unit_vec = checked_sparse(ring, unit_vec, a.rank, message)
    rb = RowBasis(ring, a.rank, track=True)
    rb.insert_all(vectors)
    table = {}
    for u, xu in enumerate(vectors):
        for v, xv in enumerate(vectors):
            cs = rb.express_sparse(a.mul_sparse(xu, xv))
            if cs is None:
                raise ValueError(
                    f"span is not closed under multiplication at ({labels[u]}, {labels[v]})"
                )
            if cs:
                table.setdefault(u, {})[v] = dict(sorted(cs.items()))
    unit = rb.express_sparse(unit_vec)
    if unit is None:
        raise ValueError("unit is not inside the span")
    invol = None
    if a.invol_sparse is not None:
        invol = [rb.express_sparse(a.apply_invol_sparse(xu)) for xu in vectors]
        if None in invol:
            invol = None
    return StructureAlgebra(ring, labels, table, unit, invol)


class BasedModule:
    """A free module with a listed basis of coordinate vectors inside an
    ambient structure algebra; the vectors may come dense or sparse through
    :func:`censym.linalg.checked_sparse` and are stored sparse."""

    def __init__(self, algebra: StructureAlgebra, vectors: list, name: str = "module"):
        self.algebra, self.ring, self.name, self._rb = algebra, algebra.ring, name, None
        self.vectors = [checked_sparse(algebra.ring, v, algebra.rank, "module vector length "
                                       f"does not match the algebra's rank {algebra.rank}")
                        for v in vectors]

    @property
    def rank(self) -> int:
        return len(self.vectors)

    @property
    def labels(self) -> list:
        return [f"{self.name}[{k}]" for k in range(self.rank)]

    def rowbasis(self) -> RowBasis:
        if self._rb is None:
            rb = RowBasis(self.algebra.ring, self.algebra.rank, track=True)
            rb.insert_all(self.vectors)
            self._rb = rb
        return self._rb


class LinearMapWitness:
    """A linear map on bases plus the properties it claims; claims are
    verified exhaustively by :func:`check_witness`.

    ``matrix[u]`` is the image of the u-th source basis vector in target
    coordinates.  ``bijective`` claims need the explicit two-sided
    ``inverse``.  Supported claims: algebra-homomorphism,
    left-module-homomorphism, bijective, involution-equivariant.
    """

    def __init__(self, source, target, matrix: list, inverse: list | None = None,
                 claimed: tuple = (), name: str = "map"):
        if len(matrix) != source.rank or inverse is not None and len(inverse) != target.rank:
            raise ValueError(_SHAPES)
        self.source, self.target, self.name = source, target, name
        self.matrix, self.inverse, self.claimed = matrix, inverse, claimed

    def apply(self, v):
        """The image of v as a dense vector over the target basis, converting
        only the rows that v uses."""
        ring, width = self.target.ring, self.target.rank
        v = checked_sparse(ring, v, self.source.rank, "vector length does not match "
                           f"the source's rank {self.source.rank}")
        rows = {k: checked_sparse(ring, self.matrix[k], width, _SHAPES) for k in v}
        return to_dense(ring, mat_vec_sparse(ring, rows, v), width)


# a row of the wrong width is misuse: the matrix then names no map between the bases
_SHAPES = "matrix shapes do not match the bases"


def check_witness(w: LinearMapWitness, params: dict | None = None) -> Report:
    """Verify every claimed property of the witness exhaustively; the
    (module) homomorphism clauses act by the algebra's generators only.
    The rows of ``w.matrix`` and ``w.inverse`` are converted to sparse form
    once, up front, and every claim reads them from there.  Raises
    ValueError for a claim it does not know, for endpoints the claim cannot
    apply to, for a matrix or inverse whose shape does not match them and
    for a bijective claim without an inverse: those are misuse, not a
    contradicted claim."""
    params = dict(params or {})
    params.setdefault("map", w.name)
    clauses = {}
    counterexample = None
    f = [checked_sparse(w.target.ring, row, w.target.rank, _SHAPES) for row in w.matrix]
    g = None if w.inverse is None else [
        checked_sparse(w.source.ring, row, w.source.rank, _SHAPES) for row in w.inverse]
    for prop in w.claimed:
        if prop not in _CHECKS:
            raise ValueError(f"unsupported claim {prop!r}")
        ce = _CHECKS[prop](w, f, g)
        clauses[prop] = PASS if ce is None else FAIL
        if ce is not None and counterexample is None:
            counterexample = dict(ce, property=prop)
    return combine_clauses(f"witness:{w.name}", params, clauses,
                           counterexample=counterexample)


def _check_algebra_hom(w: LinearMapWitness, f, g):
    """Unit, then f(b*c) = f(b)*f(c) for b in the generators, c in the basis.
    The b that pass are a submodule closed under products: f(bb'c) =
    f(b)f(b'c) = f(b)f(b')f(c) = f(bb')f(c); the unit clause covers f(1)."""
    src, tgt = w.source, w.target
    if not isinstance(src, StructureAlgebra) or not isinstance(tgt, StructureAlgebra):
        raise ValueError("algebra-homomorphism needs algebra endpoints")
    img_unit = mat_vec_sparse(tgt.ring, f, src.unit_sparse)
    if img_unit != tgt.unit_sparse:
        return {"input": "unit", "lhs": tgt.format_element(img_unit),
                "rhs": tgt.format_element(tgt.unit_sparse)}

    def scan(over):
        for u in over:
            for v in range(src.rank):
                lhs = mat_vec_sparse(tgt.ring, f, src.mul_basis_sparse(u, v))
                rhs = tgt.mul_sparse(f[u], f[v])
                if lhs != rhs:
                    return {"input": f"({src.labels[u]}, {src.labels[v]})",
                            "lhs": tgt.format_element(lhs), "rhs": tgt.format_element(rhs)}
        return None

    return src.first_failure(scan)


def _check_bijective(w: LinearMapWitness, f, g):
    if g is None:
        raise ValueError("bijective claim without an explicit inverse")
    src, tgt = w.source, w.target
    one = src.ring.one()
    for u in range(src.rank):
        if mat_vec_sparse(src.ring, g, f[u]) != {u: one}:
            return {"input": f"{src.labels[u]}", "reason": "inverse(map(u)) != u"}
    one = tgt.ring.one()
    for t in range(tgt.rank):
        if mat_vec_sparse(tgt.ring, f, g[t]) != {t: one}:
            return {"input": f"{tgt.labels[t]}", "reason": "map(inverse(t)) != t"}
    return None


def _check_module_hom(w: LinearMapWitness, f, g):
    """b*M lies in M and f(b*m) = b*f(m) for b in the generators; the b that
    pass are closed under products, as f(b*b'*m) = b*f(b'*m) = b*b'*f(m)."""
    src, tgt = w.source, w.target
    if not isinstance(src, BasedModule) or not isinstance(tgt, BasedModule):
        raise ValueError("module-homomorphism needs module endpoints")
    if src.algebra is not tgt.algebra and src.algebra.labels != tgt.algebra.labels:
        raise ValueError("modules live over different algebras")
    A = src.algebra
    R, one = A.ring, A.ring.one()
    # f(m_k) in the ambient algebra, so f(b*m) = sum_k cs[k] * images[k]
    images = [mat_vec_sparse(R, tgt.vectors, row) for row in f]
    srb = src.rowbasis()

    def scan(over):
        for s in over:
            bs = {s: one}
            for k, mk in enumerate(src.vectors):
                where = f"({A.labels[s]}, {src.name}[{k}])"
                cs = srb.express_sparse(A.mul_sparse(bs, mk))
                if cs is None:
                    return {"input": where,
                            "reason": "source basis is not stable under the action"}
                lhs = mat_vec_sparse(R, images, cs)
                rhs = A.mul_sparse(bs, images[k])
                if lhs != rhs:
                    return {"input": where, "lhs": A.format_element(lhs),
                            "rhs": A.format_element(rhs)}
        return None

    return A.first_failure(scan)


def _check_invol_equivariant(w: LinearMapWitness, f, g):
    src, tgt = w.source, w.target
    if not isinstance(src, StructureAlgebra) or not isinstance(tgt, StructureAlgebra):
        raise ValueError("involution check needs algebra endpoints")
    if src.invol_sparse is None or tgt.invol_sparse is None:
        raise ValueError("both sides need involutions")
    for u in range(src.rank):
        lhs = tgt.apply_invol_sparse(f[u])
        rhs = mat_vec_sparse(tgt.ring, f, src.invol_sparse[u])
        if lhs != rhs:
            return {"input": src.labels[u], "lhs": tgt.format_element(lhs),
                    "rhs": tgt.format_element(rhs)}
    return None


# each reads the witness's rows f and inverse rows g (None without an
# inverse) and returns the first counterexample to its claim, or None
_CHECKS = {
    "algebra-homomorphism": _check_algebra_hom,
    "bijective": _check_bijective,
    "left-module-homomorphism": _check_module_hom,
    "involution-equivariant": _check_invol_equivariant,
}


def ideal_generated(a: StructureAlgebra, gens) -> RowBasis:
    """Smallest two-sided ideal containing ``gens``.  An ideal is its
    reduced unit-pivot :class:`censym.linalg.RowBasis`, and that is what
    this returns.  Each row the basis grows by is multiplied on both sides
    by the certified generators G of :meth:`StructureAlgebra.generators`
    only.  The span J is then closed under products with G on both sides;
    the b with b*J and J*b inside J are closed under products (b*b'*J lies
    in b*J), and words in G span A, so J is a two-sided ideal.  Raises
    FreenessUndetermined when elimination cannot certify a free basis over
    the ring."""
    ring, one = a.ring, a.ring.one()
    rb = RowBasis(ring, a.rank)
    stuck: list = []
    queue = [checked_sparse(ring, g, a.rank, "generator length does not match the "
                            f"algebra's rank {a.rank}") for g in gens]
    while queue:
        v = queue.pop()
        try:
            added = rb.insert(v)
        except FreenessUndetermined:
            stuck.append(v)
            continue
        if added:
            for u in a.generators():
                bu = {u: one}
                queue.append(a.mul_sparse(bu, v))
                queue.append(a.mul_sparse(v, bu))
            if stuck:
                queue.extend(stuck)
                stuck = []
    if stuck:
        rb.insert(stuck[0])  # re-raise with context
    return rb


def ideal_is_two_sided(a: StructureAlgebra, j: RowBasis) -> bool:
    """Whether b*J and J*b lie in J for b in the generators; the b that pass
    are closed under products (b*b'*J lies in b*J), so all of A passes."""
    for u in a.generators():
        bu = {u: a.ring.one()}
        for row in j.sparse_rows:
            if not j.contains(a.mul_sparse(bu, row)) or not j.contains(a.mul_sparse(row, bu)):
                return False
    return True


def quotient_by_ideal(a: StructureAlgebra, j: RowBasis):
    """Quotient algebra on the non-pivot part of the basis, plus the
    projection witness (a surjective algebra homomorphism).  Each basis
    element is reduced once; the residual is linear, as the rows are fully
    reduced, so each non-zero product of surviving basis elements is the
    forward image of those projections, in the parent's ``by_left`` order;
    the quotient's :meth:`generators` tries first each image of the
    parent's G that is a unit times one basis element.  The induced
    involution is attached when the ideal is involution-stable.  A row
    basis of another width or ring raises ValueError."""
    if j.width != a.rank or j.ring != a.ring:
        raise ValueError("ideal does not belong to this algebra")
    ring = a.ring
    pivot_set = set(j.pivots)
    comp = [u for u in range(a.rank) if u not in pivot_set]
    labels = tuple(a.labels[u] for u in comp)
    at = {u: uq for uq, u in enumerate(comp)}

    def project(v):
        # a residual is zero at every pivot, so its keys all lie in comp
        return {at[u]: c for u, c in j.residual_sparse(v).items()}

    proj_matrix = [project({u: ring.one()}) for u in range(a.rank)]
    table = {}
    for u, row in a.by_left.items():
        for v, terms in row.items():
            cs = mat_vec_sparse(ring, proj_matrix, terms) if u in at and v in at else None
            if cs:
                table.setdefault(at[u], {})[at[v]] = dict(sorted(cs.items()))
    # the projection is onto, so the images of G generate the quotient
    first = [w for g in a.generators() if len(proj_matrix[g]) == 1
             for w, c in proj_matrix[g].items() if ring.inv(c) is not None]
    unit = project(a.unit_sparse)
    invol = None
    if a.invol_sparse is not None:
        if all(j.contains(a.apply_invol_sparse(row)) for row in j.sparse_rows):
            invol = [project(a.invol_sparse[u]) for u in comp]
    q = StructureAlgebra(ring, labels, table, unit, invol, first)
    witness = LinearMapWitness(
        source=a, target=q, matrix=proj_matrix,
        claimed=("algebra-homomorphism",), name="quotient-projection",
    )
    return q, witness


def centre_basis(a: StructureAlgebra) -> list:
    """Basis of the centre over any commutative ring: the exact nullspace
    of the commutation system z*b_u - b_u*z = 0 for b_u in the generators
    (what commutes with them commutes with every word).  Its rows are read
    off the table entries T[w, u] and T[u, w], one row per e_t coordinate.
    The nullspace, and so the unique fully reduced form it is read from, is
    the whole basis's.  Raises FreenessUndetermined when a pivot is stuck."""
    ring, by_left = a.ring, a.by_left
    minus_one = ring.neg(ring.one())
    rows = []
    for u in a.generators():
        # rows_u[t][w] is the e_t coordinate of b_w*b_u - b_u*b_w
        rows_u, row_u = {}, by_left.get(u, {})
        for w in range(a.rank):
            for t, c in by_left.get(w, {}).get(u, {}).items():
                rows_u.setdefault(t, {})[w] = c
            for t, c in row_u.get(w, {}).items():
                add_multiple(ring, rows_u.setdefault(t, {}), minus_one, {w: c})
        rows += [rows_u[t] for t in sorted(rows_u) if rows_u[t]]
    return nullspace(ring, rows, a.rank)


def centre(a: StructureAlgebra, candidates=None) -> Report:
    """Centre of the algebra as the exact nullspace of
    :func:`centre_basis`, over every ring.  With candidate central elements
    the report also states whether they span the centre: every candidate
    lies in the nullspace's span and every nullspace vector in the
    candidates'.  A stuck pivot in either elimination is ``undetermined``.
    Candidates are dense or sparse vectors; one that does not fit
    ``a.rank`` raises ``ValueError``."""
    ring = a.ring
    params = {"ring": ring.literal(), "rank": a.rank}
    if candidates is not None:
        candidates = [checked_sparse(ring, v, a.rank, "candidate length does not match "
                                     f"the algebra's rank {a.rank}") for v in candidates]
    try:
        basis_vectors = centre_basis(a)
        witness = {
            "dimension": len(basis_vectors),
            "basis": [a.format_element(v) for v in basis_vectors],
        }
        if candidates is None:
            return Report("centre", params, PASS, witness)
        cand_rb = span_basis(ring, candidates, a.rank)
        null_rb = span_basis(ring, basis_vectors, a.rank)
    except FreenessUndetermined as exc:
        return Report("centre", params, UNDETERMINED,
                      witness={"note": f"centre not certified over this ring: {exc}"})
    outside = [c for c in candidates if not null_rb.contains(c)]
    reduces = not outside and all(cand_rb.contains(z) for z in basis_vectors)
    witness["reduces_to_candidates"] = reduces
    if reduces:
        return Report("centre", params, PASS, witness)
    # every candidate is inside, and a free summand inside another of equal
    # rank is all of it, so the spans differ in rank
    return Report("centre", params, FAIL, witness, counterexample=(
        {"candidate": a.format_element(outside[0]), "reason": "not in the centre"}
        if outside else
        {"reason": f"candidates span rank {cand_rb.rank}; "
                   f"the centre has dimension {len(basis_vectors)}"}
    ))
