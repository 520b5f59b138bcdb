"""Every check over rings outside the acceptance grid, at n = 1..7.

Nested group rings and composite moduli are not part of the golden gate.
This pins their verdicts: no check fails, and the only non-pass verdicts
are the known ``heredity`` and ``split`` gaps.  ``heredity`` is
``undetermined`` at the four odd sizes (heredity chains are computed over
fields only) and ``unknown`` at the three even ones (quasi-heredity is only
claimed for odd sizes); ``split`` is ``unknown`` at every size over the
rings where 2 is not a unit.  The sweep takes about 6 s.
"""

import collections
import json

import pytest

from censym.cli import main

SIZES = range(1, 8)
HEREDITY = {("heredity", "undetermined"): 4, ("heredity", "unknown"): 3}
NO_HALF = {("split", "unknown"): 7}

OFF_GRID = {
    "c2:c2:int": {**HEREDITY, **NO_HALF},
    "c2:zmod:4": {**HEREDITY, **NO_HALF},
    "c2:gf:3": HEREDITY,
    "c2:rat": HEREDITY,
    "zmod:6": {**HEREDITY, **NO_HALF},
    "zmod:9": HEREDITY,
}


@pytest.mark.parametrize("literal", sorted(OFF_GRID))
def test_off_grid_ring_sweep(capsys, literal):
    tally = collections.Counter()
    for n in SIZES:
        code = main(["verify", "--json", "--seed", "0", "--ring", literal, "--n", str(n)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0, (literal, n)
        for report in doc["reports"]:
            assert report["verdict"] != "fail", (literal, n, report["check"])
            if report["verdict"] != "pass":
                tally[(report["check"], report["verdict"])] += 1
    assert dict(tally) == OFF_GRID[literal]
