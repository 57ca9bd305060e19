"""Byte-identity guard: CLI stdout equals the recorded benchmark digests.

``perfbench/reference.json`` holds the sha256 of every benchmark command's
stdout at the reference commit: a cross-check per catalog tag, an unseeded
classification (the exhaustive reduction search) per tag, and both sweep
grids (many tiny Groebner bases).  Every one of them is run and compared;
the file is only read.
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

with open(REFERENCE, encoding="utf-8") as _fh:
    DIGESTS = json.load(_fh)["digests"]

COMMANDS = [(command, digest) for pool in DIGESTS.values() for command, digest in pool.items()]


def test_every_workload_is_covered():
    assert set(DIGESTS) == {"crosscheck", "search", "sweep"}
    assert all(DIGESTS.values())


@pytest.mark.parametrize("command,digest", COMMANDS, ids=[c for c, _ in COMMANDS])
def test_stdout_matches_reference_digest(command, digest):
    res = CliRunner().invoke(main, command.split())
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(res.stdout.encode("utf-8")).hexdigest() == digest
