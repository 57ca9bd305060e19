"""Byte-identity guard: CLI stdout equals the recorded benchmark digests.

``perfbench/reference.json`` holds the sha256 of every benchmark command's
stdout at the reference commit.  This samples one cross-check and one
unseeded classification (the exhaustive reduction search) per ring family
and both sweep grids (many tiny Groebner bases) and compares digests; the
file is only read.
"""

import hashlib
import json
import os

import pytest
from click.testing import CliRunner

from triplepoint.cli import main

REFERENCE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench",
    "reference.json",
)

# A:0,0,0 (no m-arm) and B:0,3 (the shortest B sequence) are the edge cases
# of the graph builder
CROSS_CHECK_TAGS = ("A:1,2,3", "B:1,4", "C:1,5", "D:2", "F:2", "H:7", "Gamma1", "EX-5.3",
                    "A:0,0,0", "B:0,3")
# at least one unseeded classification per family, so that the output bytes
# of the reduction search are guarded
CLASSIFY_TAGS = ("A:1,2,3", "RDP-E7", "A:7,7,8", "H:5", "RDP-D:6", "B:3,5", "C:2,6", "D:2",
                 "F:2", "Gamma1", "RDP-A:7", "RDP-E6")

COMMANDS = [("crosscheck", ("cross-check", "--tag", t, "--json")) for t in CROSS_CHECK_TAGS]
COMMANDS += [
    ("search", ("classify", "--tag", t, "--seed-reductions", "off", "--json"))
    for t in CLASSIFY_TAGS
]
COMMANDS += [
    ("sweep", ("residue-table", "--max-param", "6", "--json")),
    ("sweep", ("quotient-sweep", "--max-param", "5", "--json")),
]


@pytest.fixture(scope="module")
def digests():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["digests"]


@pytest.mark.parametrize("workload,argv", COMMANDS, ids=[" ".join(a) for _, a in COMMANDS])
def test_stdout_matches_reference_digest(digests, workload, argv):
    res = CliRunner().invoke(main, list(argv))
    assert res.exit_code == 0, res.output
    got = hashlib.sha256(res.stdout.encode("utf-8")).hexdigest()
    assert got == digests[workload][" ".join(argv)]
