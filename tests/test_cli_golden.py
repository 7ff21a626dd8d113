"""Byte-identical CLI output on the shipped fixture.

``golden/fixture_cli.txt`` is a transcript of the 21 commands that the
benchmark's ``fixture`` workload runs (``perfbench/workloads.py``), each a
``$ command`` line with the fixture files by name, followed by its CSV
standard output.  A change meant to leave the answers alone (a speed-up, a
refactor) must reproduce it byte for byte; one that changes a printed figure
updates the transcript and says why.
"""

import os

import pytest

from conic_pricer.cli import EXIT_OK, main
from conic_pricer.fixtures import fixture_path

TRANSCRIPT = os.path.join(os.path.dirname(__file__), "golden", "fixture_cli.txt")


def _commands():
    """(argv, expected stdout) per command of the transcript."""
    commands = []
    with open(TRANSCRIPT, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("$ "):
                commands.append((line[2:].split(), []))
            else:
                commands[-1][1].append(line)
    return [(argv, "".join(lines)) for argv, lines in commands]


COMMANDS = _commands()


def test_transcript_holds_the_fixture_workload():
    assert len(COMMANDS) == 21
    assert len({" ".join(argv) for argv, _ in COMMANDS}) == 21


@pytest.mark.parametrize("argv, expected", COMMANDS, ids=[" ".join(a) for a, _ in COMMANDS])
def test_fixture_command_output(capsys, argv, expected):
    code = main([fixture_path(a) if a.endswith(".json") else a for a in argv])
    captured = capsys.readouterr()
    assert code == EXIT_OK, captured.err
    assert captured.out == expected
