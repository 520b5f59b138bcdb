"""Byte-identity gates for CLI output.

``golden/verify_seed0.json`` maps a key to the sha256 of the standard
output of ``censym verify --json --seed 0 --ring <key>``.  A key is a ring
literal, optionally followed by extra arguments such as ``--n 6``; without
them the command runs every check at n = 1..8.

``golden/outputs.json`` maps a full argument vector (subcommand first) to
the sha256 of its standard output.  It covers what ``verify`` never
prints: the ``dump-algebra`` tensors of the censym and full matrix
algebras, the ``table`` dump and the ``iso`` witness reports, the
``frobenius``, ``cellchain`` and ``centre`` subcommands at one size (the
centre over ``rat`` and over the non-field ``c2:int``),
``verify`` of the witness checks at n = 11 and 12, above the sweep's grid,
and outputs that print non-integral rationals or run the nested ``c2:rat``
path (``iso`` wedderburn, ``frobenius`` and ``verify`` over ``rat`` and
``c2:rat``).  It also covers odd quotients at odd n >= 9 over rings off
the acceptance grid (``zmod:4``, ``zmod:6``, ``c2:c2:int``, ``c2:gf:3``),
where a reduced ideal basis over a non-field could depend on the order in
which the ideal closure inserts its rows.  Three outputs pin the Frobenius
system at its edges: ``frobenius`` over ``rat`` at n = 1, where the
certified E is the identity while the split check keeps its doubling map;
``frobenius`` over ``c2:gf:2`` at n = 3, a nested ring where 2 = 0; and
``verify`` of the frobenius, separability and split checks over
``zmod:4`` at n = 7 with the random batch drawn from seed 7.

A change that alters any verdict, witness, counterexample, table entry or
formatting byte of these outputs fails here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from censym.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = json.loads((GOLDEN_DIR / "verify_seed0.json").read_text())
OUTPUTS = json.loads((GOLDEN_DIR / "outputs.json").read_text())


def _stdout_sha256(capsys, argv) -> str:
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("ring", sorted(GOLDEN))
def test_verify_json_sweep_matches_golden_sha256(capsys, ring):
    argv = ["verify", "--json", "--seed", "0", "--ring", *ring.split()]
    assert _stdout_sha256(capsys, argv) == GOLDEN[ring]


@pytest.mark.parametrize("argv", sorted(OUTPUTS))
def test_output_matches_golden_sha256(capsys, argv):
    assert _stdout_sha256(capsys, argv.split()) == OUTPUTS[argv]
