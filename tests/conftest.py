import pytest
from hypothesis import strategies as st

from censym.linalg import span_basis
from censym.rings import (
    GroupRingC2,
    IntegerRing,
    ModularRing,
    RationalRing,
)

Z = IntegerRing()
Q = RationalRing()
GF2 = ModularRing(2)
GF3 = ModularRing(3)
GF5 = ModularRing(5)
Z4 = ModularRing(4)
Z9 = ModularRing(9)
C2Z = GroupRingC2(Z)


def same_span(ring, vecs_a, vecs_b, width):
    """Whether two lists of coordinate vectors span the same submodule."""
    ra, rb = span_basis(ring, vecs_a, width), span_basis(ring, vecs_b, width)
    return all(rb.contains(v) for v in vecs_a) and all(ra.contains(v) for v in vecs_b)


def vec_is_zero(ring, v) -> bool:
    """Whether a dense coordinate vector is zero, entry by entry."""
    return all(c == ring.zero() for c in v)


def elements(ring):
    """Hypothesis strategy for canonical payloads of the given ring."""
    if isinstance(ring, IntegerRing):
        return st.integers(-50, 50)
    if isinstance(ring, RationalRing):
        # an integral rational's canonical payload is its int
        return st.fractions(min_value=-50, max_value=50, max_denominator=20).map(
            lambda q: q.numerator if q.denominator == 1 else q
        )
    if isinstance(ring, ModularRing):
        return st.integers(0, ring.modulus - 1)
    if isinstance(ring, GroupRingC2):
        base = elements(ring.base)
        return st.tuples(base, base)
    raise AssertionError(ring)


@pytest.fixture(params=[Z, Q, Z4, GF2, GF5, C2Z], ids=lambda r: r.literal())
def any_ring(request):
    return request.param


@pytest.fixture(params=[Q, GF2, GF3, GF5], ids=lambda r: r.literal())
def field(request):
    return request.param
