"""Cell ideals, cell chains, and heredity ideals, as checkable certificates.

A cell-ideal witness consists of an involution-stable ideal J and a left
ideal basis Delta = (x_0, ..., x_{d-1}) inside it.  The ideal basis is
listed on the Delta (x) i(Delta) grid, q fastest: J[p*d + q] is the
element matched with x_p (x) i(x_q), so the bimodule isomorphism J ->
Delta (x) i(Delta) is the identity on coordinates, and J[p*d + q] is the
Graham-Lehrer cellular basis element C_{p,q} of the layer.  The i(Delta)
basis is always the involution image of the Delta basis, which turns the
compatibility square (x (x) y -> i(y) (x) i(x)) into i(J[p*d + q]) ==
J[q*d + p].  :func:`verify_cell_ideal` checks five clauses exhaustively:

  involution-stability, delta-freeness-rank, alpha-bimodule,
  alpha-bijective, commuting-square.

The algebra acts on the left leg of a grid element through Delta's action
table and a grid column, on the right leg through i(Delta)'s and a grid
row.  A certified J basis gives each product the forward image it must
equal; elimination only names the reason of a counterexample.

Chains stack such witnesses in successive quotients: the odd chain peels
the middle-column ideal and leaves a full matrix algebra; the even chain
transports the group-ring chain R(1-x) < R[x]/(x^2-1) through the
matrix-over-group-ring isomorphism.  Heredity ideals (idempotent e with
eAe of rank one, free multiplicity modules, injective multiplication)
upgrade cell layers to the quasi-hereditary structure for odd sizes.
An ideal is its reduced :class:`censym.linalg.RowBasis`.  Witness vectors
enter through :func:`censym.linalg.checked_sparse`: a wrong width raises
``ValueError``, never a verdict.
"""

from __future__ import annotations

from . import basis as fb
from .algebra import (
    StructureAlgebra,
    algebra_of_censym,
    ideal_generated,
    ideal_is_two_sided,
    quotient_by_ideal,
)
from .linalg import FreenessUndetermined, RowBasis, checked_sparse, mat_vec_sparse, span_basis
from .reports import FAIL, PASS, UNDETERMINED, Report, combine_clauses
from .rings import Ring
from .structure import odd_quotient


class CellIdealWitness:
    """Certificate data for one cell ideal inside ``algebra``.

    ``j_basis`` is listed on the (p, q) grid of Delta (x) i(Delta), q
    fastest: ``j_basis[p*d + q]`` is matched with x_p (x) i(x_q), where
    x_p is ``delta_basis[p]`` and the right tensor leg basis is the
    involution image of ``delta_basis``.
    """

    def __init__(self, algebra: StructureAlgebra, j_basis: list, delta_basis: list,
                 name: str = "cell-ideal"):
        self.algebra, self.name = algebra, name
        self.j_basis, self.delta_basis = j_basis, delta_basis

    @property
    def delta_rank(self) -> int:
        return len(self.delta_basis)


def canonical_cell_witness(a: StructureAlgebra, delta_basis,
                           name: str = "cell-ideal") -> CellIdealWitness:
    """The witness whose ideal basis is the product grid, J[p*d + q] =
    x_p * i(x_q).  Valid whenever those products are independent (the
    multiplication map is then bijective)."""
    xs = _checked_vectors(a, delta_basis)
    ys = [a.apply_invol_sparse(x) for x in xs]
    return CellIdealWitness(a, [a.mul_sparse(x, y) for x in xs for y in ys], xs, name)


def _checked_vectors(a: StructureAlgebra, vectors) -> list:
    """Witness vectors, dense or sparse, in sparse form, checked against ``a.rank``."""
    message = f"witness vector length does not match the algebra's rank {a.rank}"
    return [checked_sparse(a.ring, v, a.rank, message) for v in vectors]


def _fail(clauses: dict, ce: dict | None, clause: str, info: dict) -> dict:
    """Mark ``clause`` failed and return the report's counterexample: ``ce``
    when an earlier clause failed first, else ``info`` tagged with ``clause``."""
    clauses[clause] = FAIL
    return ce or dict(info, clause=clause)


def _alpha_bimodule_failure(a: StructureAlgebra, js, xs, ys, jrb: RowBasis, drb: RowBasis,
                            yrb: RowBasis, over) -> dict | None:
    """The first counterexample to the grid map being a bimodule map, for
    b_s with s in ``over``, or None.  ``js``, ``xs`` and ``ys`` are the
    sparse bases of J, Delta and i(Delta), held by the three row bases.

    Delta must be a left ideal and i(Delta) a right ideal (checked in basis
    order, left before right); then the J coordinates of b_s * J[t] and
    J[t] * b_s must equal grid element t = p*d + q with b_s acting on its
    left leg p (through column q of the grid, J[k*d + q]) and its right leg
    q (through row p, J[p*d + k]); ``js`` is certified independent, so
    exactly when the product equals that forward image, and ``jrb`` only
    names a mismatch's reason.  The b that pass are closed under products,
    as the map commutes with b and b' in turn."""
    d, ring = len(xs), a.ring
    rows, cols = [js[p * d:p * d + d] for p in range(d)], [js[q::d] for q in range(d)]
    basis = {s: {s: ring.one()} for s in over}
    left_act = {s: [drb.express_sparse(a.mul_sparse(bs, x)) for x in xs]
                for s, bs in basis.items()}
    right_act = {s: [yrb.express_sparse(a.mul_sparse(y, bs)) for y in ys]
                 for s, bs in basis.items()}
    for s, label in ((s, a.labels[s]) for s in basis):
        for p, cs in enumerate(left_act[s]):
            if cs is None:
                return {"input": f"({label}, delta[{p}])",
                        "reason": "delta is not a left ideal"}
        for q, cs in enumerate(right_act[s]):
            if cs is None:
                return {"input": f"(i(delta)[{q}], {label})",
                        "reason": "i(delta) is not a right ideal"}
    for s, bs in basis.items():
        for t, v in enumerate(js):
            p, q = divmod(t, d)
            left = a.mul_sparse(bs, v), mat_vec_sparse(ring, cols[q], left_act[s][p])
            right = a.mul_sparse(v, bs), mat_vec_sparse(ring, rows[p], right_act[s][q])
            if left[0] == left[1] and right[0] == right[1]:
                continue
            failing = [(leg, prod) for leg, (prod, image) in (("left", left), ("right", right))
                       if prod != image]
            if not all(jrb.contains(prod) for _, prod in failing):
                return {"input": f"({a.labels[s]}, J[{t}])",
                        "reason": "ideal is not two-sided over the basis"}
            return {"input": f"{failing[0][0]} ({a.labels[s]}, J[{t}])"}
    return None


def verify_cell_ideal(w: CellIdealWitness, params: dict | None = None) -> Report:
    """All five clauses, exhaustively on (algebra basis) x (ideal basis),
    for the ideal basis read on the Delta (x) i(Delta) grid, q fastest;
    alpha-bimodule ranges the algebra over its generators, which proves it
    on the whole basis.  Once the ideal basis is certified free, the grid
    map is bijective exactly when it has d*d vectors, and a product (i(J[t])
    too) is compared with the image the grid names before any elimination."""
    a = w.algebra
    ring = a.ring
    params = dict(params or {})
    params.setdefault("witness", w.name)
    clauses = {}
    ce = None
    d = w.delta_rank
    jn = len(w.j_basis)
    js, xs = _checked_vectors(a, w.j_basis), _checked_vectors(a, w.delta_basis)
    try:
        jrb = RowBasis(ring, a.rank)
        jrb.insert_all(js)
    except FreenessUndetermined:
        for cl in ("involution-stability", "delta-freeness-rank", "alpha-bimodule",
                   "alpha-bijective", "commuting-square"):
            clauses[cl] = UNDETERMINED
        return combine_clauses("cell-ideal", params, clauses,
                               witness={"note": "ideal basis freeness undetermined"})
    except ValueError:
        ce = _fail(clauses, ce, "delta-freeness-rank",
                   {"reason": "listed ideal basis is dependent"})
        return combine_clauses("cell-ideal", params, clauses, counterexample=ce)

    # (1) involution stability of the ideal; on the grid, i(J[p*d + q]) is
    # first compared with its partner J[q*d + p], and ``off`` lists the others
    ivs = [a.apply_invol_sparse(v) for v in js]
    off = [t for t, iv in enumerate(ivs) if jn != d * d or iv != js[(t % d) * d + t // d]]
    clauses["involution-stability"] = PASS
    for t in off:
        if not jrb.contains(ivs[t]):
            ce = _fail(clauses, ce, "involution-stability", {"input": f"J[{t}]"})
            break

    # (2) delta freeness, containment, rank bookkeeping
    clauses["delta-freeness-rank"] = PASS
    try:
        drb = RowBasis(ring, a.rank, track=True)
        drb.insert_all(xs)
        ys = [a.apply_invol_sparse(x) for x in xs]
        yrb = RowBasis(ring, a.rank, track=True)
        yrb.insert_all(ys)
        if jn != d * d:
            ce = _fail(clauses, ce, "delta-freeness-rank",
                       {"reason": f"ideal rank {jn} != delta rank squared {d * d}"})
        elif not all(jrb.contains(x) for x in xs):
            ce = _fail(clauses, ce, "delta-freeness-rank",
                       {"reason": "delta is not inside the ideal"})
    except FreenessUndetermined:
        clauses["delta-freeness-rank"] = UNDETERMINED
        drb = yrb = None
    except ValueError:
        ce = _fail(clauses, ce, "delta-freeness-rank", {"reason": "delta basis is dependent"})
        drb = yrb = None

    # (3) the grid map is a bimodule homomorphism, both sides
    clauses["alpha-bimodule"] = PASS
    if drb is None or jn != d * d:
        if clauses["delta-freeness-rank"] != UNDETERMINED:
            ce = _fail(clauses, ce, "alpha-bimodule",
                       {"reason": "ideal basis off the delta grid or delta basis unusable"})
        else:
            clauses["alpha-bimodule"] = UNDETERMINED
    else:
        info = a.first_failure(
            lambda over: _alpha_bimodule_failure(a, js, xs, ys, jrb, drb, yrb, over))
        if info is not None:
            ce = _fail(clauses, ce, "alpha-bimodule", info)

    # (4) the grid map is bijective: J is free, so it needs d*d vectors
    clauses["alpha-bijective"] = PASS
    if jn != d * d:
        ce = _fail(clauses, ce, "alpha-bijective",
                   {"reason": f"ideal rank {jn} != delta rank squared {d * d}"})

    # (5) commuting square: i(J[p*d + q]) == J[q*d + p]
    clauses["commuting-square"] = PASS
    if clauses["involution-stability"] == PASS and clauses["alpha-bimodule"] == PASS:
        if off:  # alpha-bimodule passed, so J lies on the grid
            ce = _fail(clauses, ce, "commuting-square", {"input": f"J[{off[0]}]"})
    elif clauses["involution-stability"] != PASS:
        clauses["commuting-square"] = clauses["involution-stability"]
    else:
        clauses["commuting-square"] = clauses["alpha-bimodule"]

    witness = {
        "delta_rank": d,
        "ideal_rank": jn,
        "delta": [a.format_element(x) for x in w.delta_basis],
    }
    return combine_clauses("cell-ideal", params, clauses, witness=witness,
                           counterexample=ce)


class CellLayer:
    """One chain layer: its span inside the original algebra and its cell
    witness in the stage quotient."""

    def __init__(self, span: list, stage: StructureAlgebra, witness: CellIdealWitness):
        self.span, self.stage, self.witness = span, stage, witness


class CellChainWitness:
    def __init__(self, algebra: StructureAlgebra, layers: list, params: dict | None = None):
        self.algebra, self.layers = algebra, layers
        self.params = {} if params is None else params

    def delta_ranks(self) -> list:
        return [layer.witness.delta_rank for layer in self.layers]


def cell_chain_odd(ring: Ring, n: int) -> CellChainWitness:
    """Two layers for odd n = 2m+1: the middle-column ideal with its
    product-grid witness, then the full matrix quotient with the first
    column as its cell module.  (m == 0 leaves a single layer.)"""
    if n % 2 == 0:
        raise ValueError(f"odd size required, got {n}")
    m = n // 2
    a, _, quot, proj = odd_quotient(ring, m)
    pos = fb.positions(n)
    delta1 = [{pos[(i, m + 1)]: ring.one()} for i in range(1, m + 2)]
    w1 = canonical_cell_witness(a, delta1, name="middle-column")
    layers = [CellLayer(list(w1.j_basis), a, w1)]
    if m:
        layers.append(_matrix_quotient_layer(a, pos, m, quot, proj))
    return CellChainWitness(a, layers, {"n": n, "ring": ring.literal(), "parity": "odd"})


def cell_chain_even(ring: Ring, n: int) -> CellChainWitness:
    """Two layers for even n = 2m, transported from m-by-m matrices over the
    group ring: first the matrices over the span of (1 - x), then the
    matrix quotient."""
    if n % 2 or n < 2:
        raise ValueError(f"even size >= 2 required, got {n}")
    m = n // 2
    a = algebra_of_censym(ring, n)
    pos = fb.positions(n)
    minus_one = ring.neg(ring.one())

    def skew(i, j):
        return {pos[(i, j)]: ring.one(), pos[fb.canon_index(n, i, n + 1 - j)]: minus_one}

    j1 = [skew(i, j) for i in range(1, m + 1) for j in range(1, m + 1)]
    delta1 = [skew(i, 1) for i in range(1, m + 1)]
    w1 = CellIdealWitness(a, j1, delta1, name="skew-part")
    quot, proj = quotient_by_ideal(a, span_basis(ring, j1, a.rank))
    layers = [CellLayer(j1, a, w1), _matrix_quotient_layer(a, pos, m, quot, proj)]
    return CellChainWitness(a, layers, {"n": n, "ring": ring.literal(), "parity": "even"})


def _matrix_quotient_layer(a: StructureAlgebra, pos: dict, m: int,
                           quot: StructureAlgebra, proj) -> CellLayer:
    """The top layer of both chains: the span of f[i,j] for i, j <= m, and
    in the m-by-m matrix quotient the cell witness of its first column."""
    one = a.ring.one()
    span = [{pos[(i, j)]: one} for i in range(1, m + 1) for j in range(1, m + 1)]
    delta = [proj.matrix[pos[(i, 1)]] for i in range(1, m + 1)]
    return CellLayer(span, quot, canonical_cell_witness(quot, delta, name="matrix-quotient"))


def verify_cell_chain(chain: CellChainWitness) -> Report:
    """Direct-sum decomposition, involution stability of every layer,
    two-sidedness of the partial sums (the last is A itself when the direct
    sum passes), rank bookkeeping, and all layer witnesses.  Each layer span
    and each partial sum after the first (the first layer's basis) is
    reduced once; the last partial sum is the direct sum's basis.  Partial
    sum 1 is read off layer 1 when its J lies in A, is its span and passed
    alpha-bimodule, which matched each b*J[t] and J[t]*b, b in G, in J."""
    a = chain.algebra
    clauses = {}
    ce = None

    def reduced(vectors):
        try:
            return span_basis(a.ring, vectors, a.rank)
        except FreenessUndetermined:
            return None

    layer_spans = [_checked_vectors(a, layer.span) for layer in chain.layers]
    bases = [reduced(span) for span in layer_spans]
    spans, partials = [], []
    for p, span in enumerate(layer_spans):
        spans += span
        partials.append(reduced(spans) if p else bases[0])
    stacked = partials[-1] if partials else RowBasis(a.ring, a.rank)

    if stacked is None:
        clauses["direct-sum"] = UNDETERMINED
    elif len(spans) == a.rank and stacked.rank == a.rank:
        clauses["direct-sum"] = PASS
    else:
        ce = _fail(clauses, ce, "direct-sum",
                   {"vectors": len(spans), "span_rank": stacked.rank, "rank": a.rank})

    # an undetermined layer or partial sum leaves its clause undetermined
    # unless another one fails it
    clauses["involution-stable-layers"] = UNDETERMINED if None in bases else PASS
    for p, (span, rb) in enumerate(zip(layer_spans, bases), start=1):
        if rb is not None and not all(rb.contains(a.apply_invol_sparse(v)) for v in span):
            ce = _fail(clauses, ce, "involution-stable-layers", {"layer": p})

    reps = [verify_cell_ideal(layer.witness, params=chain.params) for layer in chain.layers]
    w1 = chain.layers[0].witness if reps else None
    read_off = w1 and reps[0].clauses.get("alpha-bimodule") == PASS and w1.algebra is a and (
        _checked_vectors(a, w1.j_basis) == layer_spans[0])
    clauses["partial-sums-ideals"] = UNDETERMINED if None in partials else PASS
    for p, rb in enumerate(partials, start=1):
        if p == len(partials) and clauses["direct-sum"] == PASS:
            break  # the last partial sum is then A, an ideal of itself
        if rb is not None and not (p == 1 and read_off) and not ideal_is_two_sided(a, rb):
            ce = _fail(clauses, ce, "partial-sums-ideals", {"layer": p})

    ranks = chain.delta_ranks()
    squares = sum(r * r for r in ranks)
    if squares == a.rank:
        clauses["rank-sum"] = PASS
    else:
        ce = _fail(clauses, ce, "rank-sum", {"sum_of_squares": squares, "rank": a.rank})

    for p, rep in enumerate(reps, start=1):
        for cl, verdict in rep.clauses.items():
            clauses[f"layer{p}:{cl}"] = verdict
        if rep.counterexample and ce is None:
            ce = dict(rep.counterexample, layer=p)

    witness = {"layer_delta_ranks": ranks, "rank": a.rank}
    return combine_clauses("cell-chain", dict(chain.params), clauses,
                           witness=witness, counterexample=ce)


class HeredityWitness:
    """Certificate that A*e*A is a heredity ideal: e idempotent, eAe of
    rank one with basis e, multiplicity modules Ae and eA free, and the
    multiplication map into the product span injective."""

    def __init__(self, algebra: StructureAlgebra, e: dict, cell: CellIdealWitness | None,
                 report: Report):
        self.algebra, self.cell, self.report = algebra, cell, report
        self.e = e  # sparse

    @property
    def ok(self) -> bool:
        return self.report.verdict == PASS


def heredity_check(a: StructureAlgebra, e, params: dict | None = None) -> HeredityWitness:
    """Certify A*e*A as a heredity ideal through three clauses:
    ``corner-rank-one`` (e is non-zero and e*A*e lies in the span of e),
    ``multiplicity-free`` (Ae and eA have free bases under unit-pivot
    elimination) and ``multiplication-injective`` (the products of those
    bases are independent, so A*e*A is Ae (x) eA).  The witness flag
    ``cell_witness`` says e is fixed by the involution and the products are
    independent, so ``cell`` holds the canonical cell-ideal witness on Ae,
    which :func:`verify_cell_ideal` checks.  e may be dense or sparse;
    raises ``ValueError`` when it does not fit ``a.rank`` or e*e != e."""
    ring, one = a.ring, a.ring.one()
    e = checked_sparse(ring, e, a.rank,
                       f"element length does not match the algebra's rank {a.rank}")
    if a.mul_sparse(e, e) != e:
        raise ValueError("element is not idempotent")
    params = dict(params or {})
    clauses = {}
    ce = None
    ae = ea = ideal_rank = None
    cell = None
    e_a = [a.mul_sparse(e, {u: one}) for u in range(a.rank)]

    if not e:
        ce = _fail(clauses, ce, "corner-rank-one", {"reason": "e is zero"})
    else:
        try:
            corner = RowBasis(ring, a.rank)
            corner.insert(e)
            clauses["corner-rank-one"] = PASS
            for u in range(a.rank):
                if not corner.contains(a.mul_sparse(e_a[u], e)):
                    ce = _fail(clauses, ce, "corner-rank-one",
                               {"input": a.labels[u], "reason": "e*A*e has rank above one"})
                    break
        except FreenessUndetermined:
            clauses["corner-rank-one"] = UNDETERMINED

    try:
        ae = span_basis(ring, [a.mul_sparse({u: one}, e) for u in range(a.rank)], a.rank)
        ea = span_basis(ring, e_a, a.rank)
        clauses["multiplicity-free"] = PASS
    except FreenessUndetermined:
        ae = ea = None
        clauses["multiplicity-free"] = UNDETERMINED

    if ae is not None:
        try:
            prod = RowBasis(ring, a.rank)
            prod.insert_all(a.mul_sparse(x, y) for x in ae.sparse_rows for y in ea.sparse_rows)
            clauses["multiplication-injective"] = PASS
            ideal_rank = prod.rank
        except ValueError:
            ce = _fail(clauses, ce, "multiplication-injective",
                       {"reason": "product grid is linearly dependent"})
        except FreenessUndetermined:
            clauses["multiplication-injective"] = UNDETERMINED
    else:
        clauses["multiplication-injective"] = clauses["multiplicity-free"]

    if (
        a.invol_sparse is not None
        and a.apply_invol_sparse(e) == e
        and ae is not None
        and clauses.get("multiplication-injective") == PASS
    ):
        cell = canonical_cell_witness(a, ae.sparse_rows, name="heredity-cell")

    witness = {
        "e": a.format_element(e),
        "ae_rank": None if ae is None else ae.rank,
        "ea_rank": None if ea is None else ea.rank,
        "ideal_rank": ideal_rank,
        "cell_witness": cell is not None,
    }
    report = combine_clauses("heredity", params, clauses, witness=witness,
                             counterexample=ce)
    return HeredityWitness(a, e, cell, report)


def quasi_hereditary_chain_odd(ring: Ring, n: int):
    """Heredity witnesses for odd n over a field: the middle idempotent in
    the full algebra, then each matrix-unit idempotent of the quotient
    (every one a verified heredity idempotent there; the ideal of the first
    already reaches the whole quotient, which the report records).

    Returns (witness list, summary report); the list has (n+1)/2 entries.
    """
    if n % 2 == 0:
        raise ValueError(f"odd size required, got {n}")
    if not ring.is_field:
        raise ValueError(f"heredity chains are computed over fields, got {ring.literal()}")
    m = n // 2
    a, _, quot, proj = odd_quotient(ring, m)
    pos = fb.positions(n)
    params = {"n": n, "ring": ring.literal()}
    witnesses = [heredity_check(a, {pos[(m + 1, m + 1)]: ring.one()},
                                params=dict(params, stage=1, idempotent=f"f{m + 1}_{m + 1}"))]
    clauses = {"stage1": witnesses[0].report.verdict}
    saturates = None
    if m:
        for i in range(1, m + 1):
            hw = heredity_check(quot, proj.matrix[pos[(i, i)]],
                                params=dict(params, stage=2, idempotent=f"f{i}_{i} mod J"))
            witnesses.append(hw)
            clauses[f"stage2-e{i}"] = hw.report.verdict
        saturates = ideal_generated(quot, [proj.matrix[pos[(1, 1)]]]).rank == quot.rank
        clauses["stage2-ideal-reaches-whole"] = PASS if saturates else FAIL
    report = combine_clauses(
        "heredity-chain", params, clauses,
        witness={"length": len(witnesses),
                 "idempotents": [f"f{m + 1}_{m + 1}"] + [f"f{i}_{i} mod J" for i in range(1, m + 1)],
                 "stage2_saturates": saturates},
    )
    return witnesses, report


def ideal_square_is_zero(a: StructureAlgebra, j: RowBasis) -> bool:
    """Whether the ideal multiplies to zero (so it contains no nonzero
    idempotent, and in particular cannot be a heredity ideal)."""
    vecs = j.sparse_rows
    return not any(a.mul_sparse(x, y) for x in vecs for y in vecs)

