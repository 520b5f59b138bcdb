"""Explicit isomorphism and Morita witnesses for the centrosymmetric algebra.

Everything here returns checkable data: coordinate maps with explicit
inverses whose claimed properties (:func:`censym.algebra.check_witness`)
are verified on whole bases, never sampled.  Covered:

* size 2 is the group ring of the order-two cyclic group;
* the size-3 algebra has a 2-by-2 block presentation over that group ring;
* even sizes 2m are isomorphic to m-by-m matrices over the group ring;
* odd sizes 2m+1 map onto m-by-m matrices after killing the middle-column
  ideal, with the sign rule f[i,j] == -f[i,n+1-j] in the quotient;
* all column modules S*f_j are isomorphic to S*f_1 by right
  multiplication with f[1,j], and the endomorphism ring of S*f_1 (+)
  S*f_mid for odd sizes is the size-3 algebra again;
* with 2 invertible, the central idempotents (1 +- c)/2 split the algebra
  into two full matrix algebras of sizes ceil(n/2) and floor(n/2).

The isomorphisms that send basis vectors to basis vectors share one
builder, :func:`_relabelling`.
"""

from __future__ import annotations

from . import basis as fb
from .algebra import (
    BasedModule,
    LinearMapWitness,
    StructureAlgebra,
    algebra_of_censym,
    direct_product,
    full_matrix_algebra,
    ideal_generated,
    quotient_by_ideal,
    shared_in_scope,
    subalgebra_from_vectors,
    zero_algebra,
)
from .linalg import RowBasis, add_multiple, checked_sparse
from .rings import GroupRingC2, Ring


def _relabelling(src: StructureAlgebra, tgt: StructureAlgebra, images,
                 name: str) -> LinearMapWitness:
    """The isomorphism sending the u-th source basis vector to the
    images[u]-th target basis vector; its inverse is the inverse
    permutation."""
    inverse = [None] * tgt.rank
    for u, t in enumerate(images):
        inverse[t] = {u: src.ring.one()}
    return LinearMapWitness(
        src, tgt, [{t: tgt.ring.one()} for t in images], inverse,
        claimed=("algebra-homomorphism", "bijective", "involution-equivariant"),
        name=name,
    )


# images in the size-3 algebra of the block presentation (a, b, u, d, v) and
# of the corner basis (f1_1, f1_n, f1_mid, f_mid_1, f_mid_mid) of endring_odd
_S3_IMAGES = ((1, 1), (1, 3), (1, 2), (2, 1), (2, 2))


def _onto_s3(src: StructureAlgebra, name: str) -> LinearMapWitness:
    pos = fb.positions(3)
    tgt = algebra_of_censym(src.ring, 3)
    return _relabelling(src, tgt, [pos[c] for c in _S3_IMAGES], name)


def iso_s2(ring: Ring) -> LinearMapWitness:
    """Group ring over the order-two cyclic group onto the size-2 algebra:
    1 -> f1_1, x -> f1_2."""
    src = full_matrix_algebra(GroupRingC2(ring), 1)
    return _relabelling(src, algebra_of_censym(ring, 2), [0, 1], "s2-group-ring")


_S3_SYMBOLS = ("a", "b", "u", "d", "v")

# Block presentation of the size-3 algebra: entries (a + b*x, u; d, v) with
# the product
#   (a+bx, u; d, v)(a1+b1x, u1; d1, v1) =
#     ( (aa1+bb1+ud1) + (ab1+ba1+ud1)x , au1+bu1+uv1 ; da1+db1+vd1 , 2du1+vv1 )
_S3_PRODUCTS = {
    ("a", "a"): {"a": 1}, ("a", "b"): {"b": 1}, ("a", "u"): {"u": 1},
    ("b", "a"): {"b": 1}, ("b", "b"): {"a": 1}, ("b", "u"): {"u": 1},
    ("u", "d"): {"a": 1, "b": 1}, ("u", "v"): {"u": 1},
    ("d", "a"): {"d": 1}, ("d", "b"): {"d": 1}, ("d", "u"): {"v": 2},
    ("v", "d"): {"d": 1}, ("v", "v"): {"v": 1},
}


def s3_presentation(ring: Ring):
    """The rank-5 block presentation and its isomorphism onto the size-3
    algebra: (a, b, u, d, v) -> (f1_1, f1_3, f1_2, f2_1, f2_2)."""
    pos = {s: k for k, s in enumerate(_S3_SYMBOLS)}
    table = {}
    for (s, t), expansion in _S3_PRODUCTS.items():
        table.setdefault(pos[s], {})[pos[t]] = {pos[w]: ring.from_int(c)
                                                 for w, c in expansion.items()}
    unit = {pos["a"]: ring.one(), pos["v"]: ring.one()}
    swap = {"a": "a", "b": "b", "u": "d", "d": "u", "v": "v"}
    invol = [{pos[swap[s]]: ring.one()} for s in _S3_SYMBOLS]
    pres = StructureAlgebra(ring, _S3_SYMBOLS, table, unit, invol)
    return pres, _onto_s3(pres, "s3-block-presentation")


def iso_even(ring: Ring, m: int) -> LinearMapWitness:
    """m-by-m matrices over the group ring onto the size-2m algebra:
    E[i,j] -> f[i,j] and x*E[i,j] -> f[i, n+1-j].  Builds S_2m afresh on each
    call outside a :func:`censym.algebra.shared_builds` block."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    n = 2 * m
    pos = fb.positions(n)
    images = [pos[fb.canon_index(n, i, col)]
              for i in range(1, m + 1) for j in range(1, m + 1)
              for col in (j, n + 1 - j)]
    return _relabelling(full_matrix_algebra(GroupRingC2(ring), m),
                        algebra_of_censym(ring, n), images, f"even-size-{n}")


@shared_in_scope
def odd_quotient(ring: Ring, m: int):
    """The size-(2m+1) algebra, its middle-column ideal, the quotient, and
    the projection witness; built once per (ring, m) inside a
    :func:`censym.algebra.shared_builds` block, afresh on each call outside one."""
    n = 2 * m + 1
    a = algebra_of_censym(ring, n)
    pos = fb.positions(n)
    ideal = ideal_generated(a, [{pos[(m + 1, m + 1)]: ring.one()}])
    quot, proj = quotient_by_ideal(a, ideal)
    return a, ideal, quot, proj


def iso_odd_quotient(ring: Ring, m: int) -> LinearMapWitness:
    """Quotient of the size-(2m+1) algebra by the middle-column ideal onto
    m-by-m matrices, using the sign rule f[i,j] == -f[i,n+1-j] there."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    n = 2 * m + 1
    a, ideal, quot, proj = odd_quotient(ring, m)
    tgt = full_matrix_algebra(ring, m, flatten_group_ring=False)
    pos = fb.positions(n)
    one = ring.one()
    minus_one = ring.neg(one)
    by_label = {ix.label: ix for ix in fb.canonical_indices(n)}
    matrix = []
    for lab in quot.labels:
        _, i, j = by_label[lab]
        matrix.append({(i - 1) * m + j - 1: one} if j <= m else
                      {(i - 1) * m + n - j: minus_one})
    inverse = [proj.matrix[pos[(i, j)]] for i in range(1, m + 1) for j in range(1, m + 1)]
    return LinearMapWitness(
        quot, tgt, matrix, inverse,
        claimed=("algebra-homomorphism", "bijective", "involution-equivariant"),
        name=f"odd-quotient-size-{n}",
    )


@shared_in_scope
def column_module(a: StructureAlgebra, ring: Ring, n: int, j: int) -> BasedModule:
    """The left module S*f_j: elements supported on columns j and n+1-j;
    shared, with its tracked row basis, in a :func:`censym.algebra.shared_builds` block."""
    pos = fb.positions(n)
    # an odd middle column j == n+1-j names each f[i,j] once
    cells = dict.fromkeys(fb.canon_index(n, i, col)
                          for i in range(1, fb.half_ceil(n) + 1) for col in (j, n + 1 - j))
    return BasedModule(a, [{pos[c]: ring.one()} for c in cells], name=f"S*f{j}")


def morita_column_iso(ring: Ring, n: int, j: int) -> LinearMapWitness:
    """Left-module isomorphism S*f_1 -> S*f_j by right multiplication with
    f[1,j] = e[1,j] + e[n,n+1-j]; the inverse multiplies by
    f[j,1] = e[j,1] + e[n+1-j,n], extracting columns j and n+1-j back.
    Builds S_n and S*f_1 afresh on each call outside a
    :func:`censym.algebra.shared_builds` block; every column shares them inside one."""
    if n < 4:
        raise ValueError("column isomorphisms are built for sizes >= 4")
    if not (2 <= j <= n // 2):
        raise ValueError(f"column index {j} out of range; need 2..{n // 2}")
    a = algebra_of_censym(ring, n)
    pos = fb.positions(n)
    src = column_module(a, ring, n, 1)
    tgt = column_module(a, ring, n, j)

    def push(module_from, module_to, f):
        rows = []
        for v in module_from.vectors:
            cs = module_to.rowbasis().express_sparse(a.mul_sparse(v, f))
            if cs is None:
                raise ValueError("right multiplication left the column module")
            rows.append(cs)
        return rows

    return LinearMapWitness(
        src, tgt,
        matrix=push(src, tgt, {pos[(1, j)]: ring.one()}),
        inverse=push(tgt, src, {pos[(j, 1)]: ring.one()}),
        claimed=("left-module-homomorphism", "bijective"),
        name=f"column-1-to-{j}-size-{n}",
    )


def endring_odd(ring: Ring, n: int):
    """Endomorphism ring of S*f_1 (+) S*f_mid for odd n >= 5, assembled from
    the four idempotent corners, with its isomorphism onto the size-3
    algebra.  The two corner relations are part of the returned algebra:
    f[1,mid]*f[mid,1] == f_1 + f[1,n] and f[mid,1]*f[1,mid] == 2*f_mid.
    Builds S_n afresh on each call outside a :func:`censym.algebra.shared_builds` block."""
    if n < 5 or n % 2 == 0:
        raise ValueError(f"need an odd size >= 5, got {n}")
    mid = (n + 1) // 2
    a = algebra_of_censym(ring, n)
    pos = fb.positions(n)
    corner = [(1, 1), (1, n), (1, mid), (mid, 1), (mid, mid)]
    vectors = [{pos[c]: ring.one()} for c in corner]
    labels = [f"f{i}_{j}" for i, j in corner]
    unit = {pos[(1, 1)]: ring.one(), pos[(mid, mid)]: ring.one()}
    end = subalgebra_from_vectors(a, vectors, labels, unit)
    return end, _onto_s3(end, f"endring-size-{n}")


class WedderburnSplit:
    """The two-sided splitting by the central idempotents (1 +- c)/2."""

    def __init__(self, plus_algebra: StructureAlgebra, minus_algebra: StructureAlgebra,
                 witness: LinearMapWitness, p_plus: dict, p_minus: dict):
        # ranks ceil(n/2)^2 and floor(n/2)^2
        self.plus_algebra, self.minus_algebra = plus_algebra, minus_algebra
        self.witness = witness  # onto M_(n-k) x M_k, k = ceil(n/2)
        self.p_plus, self.p_minus = p_plus, p_minus  # (1 + c)/2 and (1 - c)/2, sparse


def wedderburn_split(ring: Ring, n: int) -> WedderburnSplit:
    """Split into full matrix algebras of sizes ceil(n/2) and floor(n/2).

    Requires 2 invertible.  Matrix units inside each piece are built from
    the symmetrized and antisymmetrized combinations f[i,j] * (1 +- c)/2
    (with a half rescaling of the odd middle column).  The witness's
    exhaustive algebra-homomorphism and bijective claims certify that they
    multiply as the matrix units of the two pieces.  Builds S_n afresh on
    each call outside a :func:`censym.algebra.shared_builds` block.
    """
    t = ring.invert_two()
    if t is None:
        raise ValueError(
            f"the splitting construction requires 2 invertible in {ring.literal()}"
        )
    a = algebra_of_censym(ring, n)
    pos = fb.positions(n)
    c = checked_sparse(ring, fb.exchange_coords(ring, n), a.rank,
                       f"exchange coordinates do not match the rank {a.rank}")
    p_plus, p_minus = {}, {}
    for p, sign in ((p_plus, t), (p_minus, ring.neg(t))):
        add_multiple(ring, p, t, a.unit_sparse)
        add_multiple(ring, p, sign, c)
    k = fb.half_ceil(n)
    low = n // 2
    one = ring.one()

    plus_vectors = []
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            v = a.mul_sparse({pos[fb.canon_index(n, i, j)]: one}, p_plus)
            if n % 2 and j == k and i < k:
                v = {w: ring.mul(t, x) for w, x in v.items()}  # t is a unit
            plus_vectors.append(v)
    minus_vectors = [a.mul_sparse({pos[(i, j)]: one}, p_minus)
                     for i in range(1, low + 1) for j in range(1, low + 1)]

    plus = full_matrix_algebra(ring, k, flatten_group_ring=False)
    minus = full_matrix_algebra(ring, low, flatten_group_ring=False) if low else zero_algebra(ring)
    target = direct_product(minus, plus, prefixes=("m", "p"))
    units = minus_vectors + plus_vectors
    rb = RowBasis(ring, a.rank, track=True)
    rb.insert_all(units)
    matrix = []
    for u in range(a.rank):
        cs = rb.express_sparse({u: one})
        if cs is None:
            raise ValueError("piece units do not span the algebra")
        matrix.append(cs)
    witness = LinearMapWitness(
        a, target, matrix, units,
        claimed=("algebra-homomorphism", "bijective"),
        name=f"wedderburn-size-{n}",
    )
    return WedderburnSplit(plus, minus, witness, p_plus, p_minus)
