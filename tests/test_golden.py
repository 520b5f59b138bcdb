"""Byte-identity gate for the default ``verify --json`` sweep.

``golden/verify_seed0.json`` maps a key to the sha256 of the standard
output of ``censym verify --json --seed 0 --ring <key>``.  A key is a ring
literal, optionally followed by extra arguments such as ``--n 6``; without
them the command runs every check at n = 1..8.  A change that alters any
verdict, witness, counterexample or formatting byte of that output fails
here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from censym.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden" / "verify_seed0.json").read_text())


@pytest.mark.parametrize("ring", sorted(GOLDEN))
def test_verify_json_sweep_matches_golden_sha256(capsys, ring):
    code = main(["verify", "--json", "--seed", "0", "--ring", *ring.split()])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[ring]
