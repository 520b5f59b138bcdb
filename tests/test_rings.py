import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from censym.linalg import span_basis, to_dense
from censym.rings import (
    GroupRingC2,
    RingError,
    is_prime,
    ring_from_literal,
)

from conftest import C2Z, GF2, GF5, Q, Z, Z4, Z9, elements

RINGS = [Z, Q, Z4, GF5, C2Z, GroupRingC2(GF2), GroupRingC2(GroupRingC2(Z))]


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.literal())
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ring_axioms(ring, data):
    a = data.draw(elements(ring))
    b = data.draw(elements(ring))
    c = data.draw(elements(ring))
    assert ring.add(ring.add(a, b), c) == ring.add(a, ring.add(b, c))
    assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
    assert ring.add(a, b) == ring.add(b, a)
    assert ring.mul(a, b) == ring.mul(b, a)
    assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))
    assert ring.add(a, ring.zero()) == a
    assert ring.mul(a, ring.one()) == a
    assert ring.add(a, ring.neg(a)) == ring.zero()
    assert ring.sub(a, b) == ring.add(a, ring.neg(b))


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.literal())
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_literal_round_trip(ring, data):
    a = data.draw(elements(ring))
    assert ring.parse(ring.format(a)) == a


def test_arith_examples():
    assert Z4.mul(2, 3) == 2
    assert C2Z.mul((1, 1), (1, -1)) == (0, 0)
    assert Q.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)


def is_canonical(ring, a) -> bool:
    """``a`` is the canonical payload of a ``rat`` or ``c2:...rat`` value:
    an ``int`` if integral, else a ``Fraction`` with denominator above 1
    (so never a ``float``, a ``bool`` or an integral ``Fraction``)."""
    if isinstance(ring, GroupRingC2):
        return type(a) is tuple and len(a) == 2 and all(is_canonical(ring.base, c) for c in a)
    return type(a) is int or (type(a) is Fraction and a.denominator > 1)


def as_fractions(ring, a):
    """The same value with every rational coordinate a ``Fraction``."""
    if isinstance(ring, GroupRingC2):
        return tuple(as_fractions(ring.base, c) for c in a)
    return Fraction(a)


RATIONAL_RINGS = [Q, GroupRingC2(Q)]


@pytest.mark.parametrize("ring", RATIONAL_RINGS, ids=lambda r: r.literal())
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rational_payloads_are_canonical(ring, data):
    a = data.draw(elements(ring))
    b = data.draw(st.one_of(elements(ring), st.just(ring.neg(a))))
    k = data.draw(st.integers(-50, 50))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    results = [
        ring.zero(), ring.one(), ring.from_int(k),
        ring.add(a, b), ring.mul(a, b), ring.sub(a, b), ring.neg(a),
        ring.parse(ring.format(a)), ring.sample(rng),
    ]
    inverse = ring.inv(a)
    if inverse is not None:
        results.append(inverse)
        assert ring.mul(a, inverse) == ring.one()
    assert all(is_canonical(ring, r) for r in results)
    # Fraction operands give the same canonical result
    fa, fb = as_fractions(ring, a), as_fractions(ring, b)
    assert ring.add(fa, fb) == results[3] and ring.mul(fa, fb) == results[4]
    # zero test, equality, hash and text agree with the all-Fraction payload
    values = [a, b, *results]
    for x in values:
        fx = as_fractions(ring, x)
        assert ring.is_zero(x) == ring.is_zero(fx) == (fx == as_fractions(ring, ring.zero()))
        assert hash(x) == hash(fx)
        assert ring.format(x) == ring.format(fx)
        for y in values:
            assert (x == y) == (fx == as_fractions(ring, y))


def test_rational_inverse_is_exact():
    assert Q.inv(2) == Fraction(1, 2) and is_canonical(Q, Q.inv(2))
    assert Q.inv(Fraction(2, 3)) == Fraction(3, 2) and is_canonical(Q, Q.inv(Fraction(2, 3)))
    assert type(Q.inv(Fraction(1, 3))) is int and type(Q.inv(-1)) is int
    assert type(Q.parse("4/2")) is int
    (row,) = [to_dense(Q, r, 2) for r in span_basis(Q, [[2, 1]], 2).sparse_rows]
    assert row == [1, Fraction(1, 2)] and all(is_canonical(Q, c) for c in row)


@settings(max_examples=100, deadline=None)
@given(a=st.one_of(st.sampled_from([1, -1]), elements(Q),
                   st.fractions(-50, 50, max_denominator=20).filter(lambda q: q.denominator > 1)))
def test_a_rational_times_its_inverse_is_one(a):
    inverse = Q.inv(a)
    if a == 0:
        assert inverse is None
        return
    product = Q.mul(a, inverse)
    assert a * inverse == 1 and product == 1 and type(product) is int
    assert is_canonical(Q, inverse)
    if a in (1, -1):
        assert inverse == a and type(inverse) is int


def test_invert_two():
    assert Z9.invert_two() == 5
    assert Q.invert_two() == Fraction(1, 2)
    assert Z.invert_two() is None
    assert GF2.invert_two() is None
    assert Z4.invert_two() is None
    assert GroupRingC2(Q).invert_two() == (Fraction(1, 2), Fraction(0))


def test_group_ring_examples():
    g2 = GroupRingC2(GF2)
    one_plus_x = g2.add(g2.one(), g2.x())
    assert g2.mul(one_plus_x, one_plus_x) == g2.zero()

    gq = GroupRingC2(Q)
    half = Q.invert_two()
    idem = (half, half)
    assert gq.mul(idem, idem) == idem

    gz = GroupRingC2(Z)
    assert gz.mul(gz.x(), gz.x()) == gz.one()


def test_group_ring_inverses():
    gz = GroupRingC2(Z)
    assert gz.inv(gz.x()) == gz.x()
    assert gz.inv((1, 1)) is None  # determinant 0
    gq = GroupRingC2(Q)
    v = (Fraction(2), Fraction(1))
    w = gq.inv(v)
    assert gq.mul(v, w) == gq.one()


def test_x_independence():
    # 1 and x have distinct coordinate payloads; x is not a base multiple of 1
    gz = GroupRingC2(Z)
    assert gz.one() != gz.x()
    assert gz.x()[0] == 0 and gz.x()[1] == 1


def test_is_field_flags():
    assert Q.is_field
    assert GF5.is_field and GF2.is_field
    assert not Z.is_field and not Z4.is_field and not C2Z.is_field
    assert is_prime(2) and is_prime(97) and not is_prime(1) and not is_prime(91)


def test_ring_literals():
    for lit in ("int", "rat", "zmod:4", "gf:5", "c2:int", "c2:zmod:4", "c2:c2:int"):
        assert ring_from_literal(lit).literal() == lit
    # prime moduli canonicalize to gf
    assert ring_from_literal("zmod:7").literal() == "gf:7"
    with pytest.raises(RingError):
        ring_from_literal("gf:4")
    with pytest.raises(RingError):
        ring_from_literal("zmod:1")
    with pytest.raises(RingError):
        ring_from_literal("float")


@pytest.mark.parametrize("literal", ["gf:4", "gf:9", "c2:gf:6", "gf:1", "gf:0", "gf:-3",
                                     "zmod:1", "zmod:x", "float"])
def test_every_literal_an_error_suggests_parses(literal):
    with pytest.raises(RingError) as exc:
        ring_from_literal(literal)
    for suggested in re.findall(r"use (\S+)", str(exc.value)):
        ring_from_literal(suggested)


def test_a_modulus_below_two_is_no_field_and_no_ring():
    assert "use zmod:4" in str(pytest.raises(RingError, ring_from_literal, "gf:4").value)
    for literal in ("gf:1", "gf:0", "gf:-3"):
        with pytest.raises(RingError, match="modulus must be an integer >= 2"):
            ring_from_literal(literal)


def test_parse_errors():
    with pytest.raises(RingError):
        Z.parse("1/2")
    with pytest.raises(RingError):
        Q.parse("a/b")
    with pytest.raises(RingError):
        C2Z.parse("3")  # group-ring literals need the a+b*x shape


def test_nested_literals():
    nested = ring_from_literal("c2:c2:int")
    v = ((1, 2), (3, -4))
    text = nested.format(v)
    assert text == "(1+2*x)+(3+-4*x)*x"
    assert nested.parse(text) == v


def test_modular_parse_reduces():
    assert Z4.parse("7") == 3
    assert Z4.parse("-1") == 3


def test_sampling_is_canonical():
    rng = random.Random(11)
    for ring in RINGS:
        for _ in range(25):
            a = ring.sample(rng)
            assert ring.parse(ring.format(a)) == a


def test_ring_equality_and_hash():
    assert ring_from_literal("zmod:4") == Z4
    assert hash(ring_from_literal("c2:int")) == hash(C2Z)
    # the three number rings share a base class, not an equality
    assert Z != Q and Z != GF5 and Q != GF5
    assert GroupRingC2(Z) != GroupRingC2(Q)
    for ring in RINGS:
        again = ring_from_literal(ring.literal())
        assert again == ring and hash(again) == hash(ring)
    assert ring_from_literal("zmod:5") == ring_from_literal("gf:5")
    assert Z != "int"
    assert GroupRingC2(GroupRingC2(Z)) == ring_from_literal("c2:c2:int")
