"""Byte-identity guard: CLI stdout equals the recorded digests.

``perfbench/reference.json`` holds the sha256 of every benchmark command's
stdout at the reference commit: a cross-check per catalog tag, an unseeded
classification (the exhaustive reduction search) per tag, and both sweep
grids (many tiny Groebner bases).  Every one of them is run and compared;
the file is only read.

``command_digests.json`` beside this file guards the commands no benchmark
digest covers: the seeded classification of every benchmark pool tag (the
reductions the published seeds give), a few text-mode runs, the double-point
lists, the socle grid, the two examples outside the pools, the ``graph``
subcommands and the text form of every grid report and of ``cross-check``.  Record it again, only when a change of output is meant, with
``PYTHONPATH=src python tests/test_reference_digests.py``.
"""

import hashlib
import json
import os
import sys

import pytest
from click.testing import CliRunner

from triplepoint.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(ROOT, "perfbench", "reference.json")
GUARD = os.path.join(HERE, "command_digests.json")

with open(REFERENCE, encoding="utf-8") as _fh:
    DIGESTS = json.load(_fh)["digests"]
with open(GUARD, encoding="utf-8") as _fh:
    GUARDED = json.load(_fh)

COMMANDS = [(command, digest) for pool in DIGESTS.values() for command, digest in pool.items()]


def _digest(command):
    res = CliRunner().invoke(main, command.split())
    assert res.exit_code == 0, res.output
    return hashlib.sha256(res.stdout.encode("utf-8")).hexdigest()


def guarded_commands():
    """The commands ``command_digests.json`` records, in its order."""
    sys.path.insert(0, ROOT)
    try:
        from perfbench.workloads import catalog_tags, rdp_tags
    finally:
        sys.path.remove(ROOT)
    commands = [f"classify --tag {t} --json" for t in catalog_tags() + rdp_tags()]
    commands += [f"classify --tag {t}" for t in ("A:1,2,3", "RDP-D:6", "EX-5.2")]
    commands += [
        "rdp-verify --json",
        "socle-experiment --max-param 6 --json",
        "classify --tag EX-5.2 --json",
    ]
    commands += [f"graph {sub} --tag {t}" for sub in ("chains", "z0")
                 for t in ("G10:2", "A:8,8,8", "RDP-A:50")]
    commands += [
        "residue-table --max-param 6",
        "quotient-sweep --max-param 5",
        "rdp-verify",
        "socle-experiment --max-param 3",
        "cross-check --tag H:8",
        "cross-check --tag EX-5.3",
        "classify --tag RDP-E7",
    ]
    return commands


def test_every_workload_is_covered():
    assert set(DIGESTS) == {"crosscheck", "search", "sweep"}
    assert all(DIGESTS.values())


@pytest.mark.parametrize("command,digest", COMMANDS, ids=[c for c, _ in COMMANDS])
def test_stdout_matches_reference_digest(command, digest):
    assert _digest(command) == digest


@pytest.mark.parametrize("command", list(GUARDED))
def test_stdout_matches_guarded_digest(command):
    assert _digest(command) == GUARDED[command]


if __name__ == "__main__":
    with open(GUARD, "w", encoding="utf-8") as fh:
        json.dump({c: _digest(c) for c in guarded_commands()}, fh, indent=1)
        fh.write("\n")
