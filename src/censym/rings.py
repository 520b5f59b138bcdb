"""Exact arithmetic for pluggable commutative rings.

Ring elements are plain canonical payload values rather than wrapper
objects: arbitrary-precision ``int`` for the integer ring; for rationals,
an ``int`` when the value is integral and otherwise a reduced
``fractions.Fraction`` whose denominator is above 1 (never a ``float``);
residues in ``[0, m)`` for modular rings; and 2-tuples ``(a, b)`` meaning
``a + b*x`` with ``x**2 == 1`` for group rings of the order-two cyclic
group.  Payload equality is ring-element equality, and every operation
returns a payload in canonical form.  A :class:`Ring` instance supplies
the arithmetic, parsing/formatting, and sampling for its payloads.
``fractions`` (and the ``decimal`` it imports) loads with the first
``rat`` ring built or unpickled, so a process without one never loads it.

Ring literals: ``int``, ``rat``, ``zmod:<m>``, ``gf:<p>`` (prime p), and
``c2:<ring>`` for the group-ring constructor (nesting allowed).
"""

from __future__ import annotations

import operator
from functools import cached_property

Fraction = None  # bound in RationalRing.__new__, so that an unpickled ring binds it too


class RingError(ValueError):
    """Malformed ring literal, element literal, or invalid ring parameter."""


class RingMismatchError(RingError):
    """Two operands live in different rings."""

    def __init__(self, left: "Ring", right: "Ring", what: str = "elements"):
        super().__init__(
            f"cannot mix {what} over {left.literal()} and over {right.literal()}"
        )
        self.left = left
        self.right = right


def ensure_same_ring(a: "Ring", b: "Ring", what: str = "elements") -> None:
    if a != b:
        raise RingMismatchError(a, b, what)


def is_prime(m: int) -> bool:
    """Deterministic trial division; moduli here are desk-scale."""
    if m < 2:
        return False
    if m % 2 == 0:
        return m == 2
    d = 3
    while d * d <= m:
        if m % d == 0:
            return False
        d += 2
    return True


class Ring:
    """A commutative ring with identity, operating on canonical payloads.

    Each element has exactly one canonical payload, and every method that
    returns an element (``zero``, ``one``, ``from_int``, ``add``, ``neg``,
    ``mul``, ``sub``, ``inv``, ``parse``, ``sample``) returns that payload.
    Over ``rat`` it is the ``int`` of an integral value and a ``Fraction``
    with denominator above 1 otherwise.

    ``is_zero(a)`` must equal ``a == self.zero()`` on every canonical
    payload.  The default is exactly that comparison; a subclass overrides
    it only with a cheaper test of the same truth.  Python truthiness is
    such a test where the zero payload is the only falsy one (ints,
    fractions, residues), never for tuple payloads, which are always truthy.
    A ring whose ``is_zero`` is ``operator.not_`` declares exactly that, and
    :func:`censym.linalg.checked_sparse` then lets the entries select themselves.

    Two rings are equal exactly when their literals are equal, and a ring
    hashes as its literal: the literal is the ring's name in every report
    and the text that :func:`ring_from_literal` parses back.

    The sparse kernels read :attr:`ops` rather than binding the operations
    on every call.  It is built from the instance's own methods on first
    kernel use, so an overriding subclass or a method set on the instance
    before then (a counting ring) is honoured; one rebound after that is not.
    """

    is_field: bool = False

    @cached_property
    def ops(self) -> tuple:
        """``(add, mul, neg, is_zero, one())`` of this instance, bound once."""
        return self.add, self.mul, self.neg, self.is_zero, self.one()

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def from_int(self, k: int):
        """Image of the integer ``k`` under the unique map from the integers."""
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def is_zero(self, a) -> bool:
        return a == self.zero()

    def inv(self, a):
        """Multiplicative inverse payload, or None if ``a`` is not a unit."""
        raise NotImplementedError

    def invert_two(self):
        """Payload d with 2*d == 1 if 2 is a unit, else None."""
        return self.inv(self.from_int(2))

    def format(self, a) -> str:
        raise NotImplementedError

    def parse(self, text: str):
        raise NotImplementedError

    def sample(self, rng):
        """Random canonical payload from a small box, via ``rng``."""
        raise NotImplementedError

    def literal(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.literal()

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Ring) and other.literal() == self.literal()
        )

    def __hash__(self):
        return hash(self.literal())


class _NumberRing(Ring):
    """Shared payload rules of ``int``, ``rat`` and ``zmod``/``gf``: the
    payloads are Python numbers, printed by ``str``, whose only falsy value
    is zero."""

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, k):
        return int(k)

    def neg(self, a):
        return -a

    # a builtin is not a descriptor, so ring.is_zero(a) calls not_(a)
    is_zero = operator.not_

    def format(self, a):
        return str(a)


class IntegerRing(_NumberRing):
    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return a if a in (1, -1) else None

    def parse(self, text):
        try:
            return int(text.strip())
        except ValueError:
            raise RingError(f"bad integer literal {text!r}") from None

    def sample(self, rng):
        return rng.randint(-9, 9)

    def literal(self):
        return "int"


def _canonical_rational(q):
    """The canonical ``rat`` payload of an ``int`` or ``Fraction`` ``q``:
    ``q`` itself unless it is a ``Fraction`` with denominator 1, whose
    numerator is returned.  The ``int`` test comes first: it is the common
    case, and int op int stays int."""
    return q if q.__class__ is int or q.denominator != 1 else q.numerator


class RationalRing(_NumberRing):
    """The rationals.  An integral value is carried as its ``int``, any other
    value as a reduced ``Fraction`` with denominator above 1.

    Most values the checks touch (structure constants, matrix units, the
    unit, most pivots) are integers, and ``int`` arithmetic skips
    ``Fraction``'s constructor and comparisons.  ``int`` and ``Fraction``
    mix in arithmetic, compare and hash alike (``hash(Fraction(k)) ==
    hash(k)``) and print alike, so only the payload type tells them apart.
    """

    is_field = True

    def __new__(cls):
        global Fraction
        from fractions import Fraction
        return super().__new__(cls)

    def add(self, a, b):
        return _canonical_rational(a + b)

    def mul(self, a, b):
        return _canonical_rational(a * b)

    def inv(self, a):
        if a.__class__ is int and (a == 1 or a == -1):
            return a  # its own canonical inverse, with no Fraction built
        return _canonical_rational(Fraction(1) / a) if a else None

    def parse(self, text):
        try:
            return _canonical_rational(Fraction(text.strip()))
        except (ValueError, ZeroDivisionError):
            raise RingError(f"bad rational literal {text!r}") from None

    def sample(self, rng):
        return _canonical_rational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))

    def literal(self):
        return "rat"


class ModularRing(_NumberRing):
    """Integers modulo m, residues stored in [0, m); a field iff m is prime."""

    def __init__(self, modulus: int):
        if not isinstance(modulus, int) or modulus < 2:
            raise RingError(f"modulus must be an integer >= 2, got {modulus!r}")
        self.modulus = modulus
        self.is_field = is_prime(modulus)

    def from_int(self, k):
        return int(k) % self.modulus

    def add(self, a, b):
        return (a + b) % self.modulus

    def neg(self, a):
        return (-a) % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

    def inv(self, a):
        try:
            return pow(a, -1, self.modulus)
        except ValueError:
            return None

    def parse(self, text):
        try:
            return int(text.strip()) % self.modulus
        except ValueError:
            raise RingError(f"bad residue literal {text!r}") from None

    def sample(self, rng):
        return rng.randrange(self.modulus)

    def literal(self):
        return f"gf:{self.modulus}" if self.is_field else f"zmod:{self.modulus}"


def _strip_outer_parens(text: str) -> str:
    t = text.strip()
    while len(t) >= 2 and t[0] == "(" and t[-1] == ")":
        depth = 0
        closes_at_end = True
        for idx, ch in enumerate(t):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0 and idx != len(t) - 1:
                    closes_at_end = False
                    break
        if not closes_at_end:
            break
        t = t[1:-1].strip()
    return t


class GroupRingC2(Ring):
    """Group ring of the cyclic group of order two over a base ring.

    Payloads are pairs ``(a, b)`` standing for ``a + b*x`` with ``x*x == 1``:
    ``(a + b*x)(a1 + b1*x) == (a*a1 + b*b1) + (a*b1 + b*a1)*x``.
    Elements print as ``a+b*x``; when the base is itself a group ring the
    two components are parenthesized so nested literals stay unambiguous.
    """

    def __init__(self, base: Ring):
        if not isinstance(base, Ring):
            raise RingError(f"group-ring base must be a ring, got {base!r}")
        self.base = base
        # shared zero and one pairs, so zero() and one() allocate nothing;
        # payloads are canonical tuples, so tuple equality with the zero
        # pair is the zero test
        z = base.zero()
        self._zero, self._one = (z, z), (base.one(), z)
        self.is_zero = self._zero.__eq__

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def x(self):
        """The order-two generator."""
        return (self.base.zero(), self.base.one())

    def from_int(self, k):
        return (self.base.from_int(k), self.base.zero())

    def add(self, a, b):
        return (self.base.add(a[0], b[0]), self.base.add(a[1], b[1]))

    def neg(self, a):
        return (self.base.neg(a[0]), self.base.neg(a[1]))

    def mul(self, a, b):
        R = self.base
        return (
            R.add(R.mul(a[0], b[0]), R.mul(a[1], b[1])),
            R.add(R.mul(a[0], b[1]), R.mul(a[1], b[0])),
        )

    def inv(self, a):
        # a + b*x is a unit iff the determinant a^2 - b^2 of its
        # multiplication matrix [[a, b], [b, a]] is a unit in the base.
        R = self.base
        det = R.sub(R.mul(a[0], a[0]), R.mul(a[1], a[1]))
        d = R.inv(det)
        if d is None:
            return None
        return (R.mul(a[0], d), R.neg(R.mul(a[1], d)))

    def format(self, a):
        left, right = self.base.format(a[0]), self.base.format(a[1])
        if isinstance(self.base, GroupRingC2):
            left, right = f"({left})", f"({right})"
        return f"{left}+{right}*x"

    def parse(self, text):
        t = text.strip()
        split = -1
        depth = 0
        for idx, ch in enumerate(t):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "+" and depth == 0 and idx > 0:
                split = idx
        if split < 0 or not t.endswith("*x"):
            raise RingError(
                f"bad group-ring literal {text!r} for {self.literal()}; expected a+b*x"
            )
        a_txt = _strip_outer_parens(t[:split])
        b_txt = _strip_outer_parens(t[split + 1 : -2])
        return (self.base.parse(a_txt), self.base.parse(b_txt))

    def sample(self, rng):
        return (self.base.sample(rng), self.base.sample(rng))

    def literal(self):
        return "c2:" + self.base.literal()


def ring_from_literal(text: str) -> Ring:
    """Parse a ring literal: int, rat, zmod:<m>, gf:<p>, c2:<ring>."""
    t = text.strip()
    if t == "int":
        return IntegerRing()
    if t == "rat":
        return RationalRing()
    if t.startswith("zmod:"):
        try:
            m = int(t[5:])
        except ValueError:
            raise RingError(f"bad modulus in ring literal {text!r}") from None
        return ModularRing(m)
    if t.startswith("gf:"):
        try:
            p = int(t[3:])
        except ValueError:
            raise RingError(f"bad prime in ring literal {text!r}") from None
        if p >= 2 and not is_prime(p):
            raise RingError(f"gf:{p} needs a prime; use zmod:{p} for a non-field modulus")
        return ModularRing(p)
    if t.startswith("c2:"):
        return GroupRingC2(ring_from_literal(t[3:]))
    raise RingError(f"unknown ring literal {text!r}")
