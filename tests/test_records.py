"""The plain record classes keep the behaviour callers rely on, and
importing censym stays within its start-up budget."""

import os
import pickle
import subprocess
import sys

import pytest

from censym.basis import BasisIndex, canonical_indices
from censym.cellular import CellChainWitness
from censym.cli import ISO_KINDS, IsoKind
from censym.frobenius import FrobeniusSystem
from censym.reports import Report
from censym.rings import RationalRing

from conftest import Q, Z

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# none of these serves a verdict over int, zmod, gf or c2 rings
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "fractions", "decimal", "typing")

BUDGET_SCRIPT = f"""
import sys
before = set(sys.modules)
import censym, censym.cli
new = sorted(m for m in {HEAVY!r} if m in sys.modules and m not in before)
assert not new, f"importing censym.cli loaded {{new}}"
from censym.rings import ring_from_literal
from fractions import Fraction
q = ring_from_literal("rat")
assert q.inv(2) == Fraction(1, 2)
two = q.parse("4/2")
assert two == 2 and type(two) is int
"""


def _python(flags, script, stdin=b""):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *flags, "-c", script], input=stdin,
                          env=env, capture_output=True, timeout=60)


@pytest.mark.parametrize("flags", [[], ["-S"]], ids=["site", "no-site"])
def test_import_loads_no_heavy_module(flags):
    """A module ``site`` preloads is not new, so this holds on any interpreter;
    under -S nothing is preloaded and every name is checked."""
    out = _python(flags, BUDGET_SCRIPT)
    assert out.returncode == 0, out.stderr.decode()


def test_an_unpickled_rat_ring_binds_fraction():
    """A ``rat`` ring sent to a fresh process computes there without one
    ever being built in it."""
    out = _python([], "import pickle, sys; q = pickle.load(sys.stdin.buffer); "
                      "print(q.inv(2), q.parse('6/3'))", pickle.dumps(RationalRing()))
    assert out.returncode == 0, out.stderr.decode()
    assert out.stdout.split() == [b"1/2", b"2"]


def test_basis_index_orders_hashes_and_freezes_as_a_tuple():
    idx = canonical_indices(4)
    assert sorted(reversed(idx)) == list(idx)
    assert sorted([BasisIndex(3, 2, 1), BasisIndex(3, 1, 3), BasisIndex(2, 2, 2)]) == [
        BasisIndex(2, 2, 2), BasisIndex(3, 1, 3), BasisIndex(3, 2, 1)]
    assert hash(BasisIndex(3, 1, 2)) == hash((3, 1, 2))
    assert repr(BasisIndex(3, 1, 2)) == BasisIndex(3, 1, 2).label == "f1_2"
    with pytest.raises(AttributeError):
        BasisIndex(3, 1, 2).i = 2


def test_frobenius_system_is_a_hashable_value():
    assert FrobeniusSystem(Q, 3) == FrobeniusSystem(Q, 3)
    assert FrobeniusSystem(Q, 3) != FrobeniusSystem(Z, 3)
    assert len({FrobeniusSystem(Q, 3), FrobeniusSystem(Q, 3)}) == 1
    assert FrobeniusSystem(Z, 3).params() == {"n": 3, "ring": "int"}


def test_iso_kind_defaults_its_size_to_two():
    kind = IsoKind("--n 2", lambda n: n == 2, lambda ring, n: [])
    assert kind.default_n == 2
    assert ISO_KINDS["s3"].default_n == 3


def test_records_get_a_fresh_params_dict():
    assert Report("a").params is not Report("b").params
    assert CellChainWitness(None, []).params is not CellChainWitness(None, []).params
    params = {"n": 2}
    assert Report("a", params).params is params
