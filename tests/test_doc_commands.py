"""Every ``repro`` command line the docs show names a real subcommand and
real flags.

Reads the fenced blocks of ``README.md`` and the verify skill, joins
backslash-continued lines, and checks each ``repro …`` /
``python -m repro.cli …`` invocation against :func:`repro.cli.build_parser`
— nothing is run.  A flag deleted from the parser and left in the docs
fails here.
"""

from __future__ import annotations

import argparse
import re
import shlex
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", ".claude/skills/verify/SKILL.md")

#: Tokens that end a command: redirections, pipes and command separators.
_SHELL_OPERATORS = {"<", ">", ">>", "2>", "2>&1", "|", "||", "&&", ";", "&"}
_ENV_ASSIGNMENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*=")


def fenced_lines(text: str) -> Iterator[Tuple[int, str]]:
    """``(line number, logical line)`` inside fenced blocks, with
    backslash continuations joined and ``#`` comments dropped."""
    inside = False
    pending: List[str] = []
    start = 0
    for number, line in enumerate(text.splitlines(), 1):
        if line.lstrip().startswith("```"):
            inside = not inside
            pending = []
            continue
        if not inside:
            continue
        if not pending:
            start = number
        stripped = line.rstrip()
        if stripped.endswith("\\"):
            pending.append(stripped[:-1])
            continue
        pending.append(stripped)
        yield start, " ".join(pending).split(" #", 1)[0]
        pending = []


def invocations(line: str) -> Iterator[List[str]]:
    """The argument lists of the ``repro`` commands on one shell line."""
    try:
        tokens = shlex.split(line)
    except ValueError:
        return
    at_command = True
    i = 0
    while i < len(tokens):
        token = tokens[i]
        if token in _SHELL_OPERATORS:
            at_command = True
        elif at_command and (_ENV_ASSIGNMENT.match(token) or token == "$"):
            pass
        elif at_command and token == "repro":
            yield _arguments(tokens[i + 1:])
            at_command = False
        elif (at_command and re.fullmatch(r"python3?", token)
              and tokens[i + 1:i + 3] == ["-m", "repro.cli"]):
            yield _arguments(tokens[i + 3:])
            at_command = False
            i += 2
        else:
            at_command = False
        i += 1


def _arguments(tokens: List[str]) -> List[str]:
    for end, token in enumerate(tokens):
        if token in _SHELL_OPERATORS or token.startswith((">", "<", "2>")):
            return tokens[:end]
    return tokens


def _subcommands(parser: argparse.ArgumentParser) -> Dict[str, argparse.ArgumentParser]:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    return {}


def unknown_parts(parser: argparse.ArgumentParser, argv: List[str]) -> List[str]:
    """What in ``argv`` the parser has no subcommand or option for."""
    subcommands = _subcommands(parser)
    if subcommands and argv and not argv[0].startswith("-"):
        sub = subcommands.get(argv[0])
        return [argv[0]] if sub is None else unknown_parts(sub, argv[1:])
    return _unknown_flags(parser, argv)


def _unknown_flags(parser: argparse.ArgumentParser, argv: List[str]) -> List[str]:
    known = parser._option_string_actions
    return [
        token for token in argv
        if token.startswith("--") and token.split("=", 1)[0] not in known
    ]


def doc_commands() -> List[Tuple[str, List[str]]]:
    found = []
    for doc in DOCS:
        for number, line in fenced_lines((ROOT / doc).read_text()):
            for argv in invocations(line):
                found.append((f"{doc}:{number}", argv))
    return found


def test_the_docs_show_commands():
    """The extraction finds the quickstart's and the serving examples'
    lines: an empty list would make the check below pass vacuously."""
    subcommands = {argv[0] for _, argv in doc_commands() if argv}
    assert {"simulate", "analyze", "index", "serve", "gateway"} <= subcommands


def test_documented_commands_parse():
    """One test over every documented line (its id does not move when a
    doc is edited); a failure lists each stale line with where it is."""
    parser = build_parser()
    stale = [
        f"{where}: repro {shlex.join(argv)} -> {unknown}"
        for where, argv in doc_commands()
        for unknown in [unknown_parts(parser, argv)] if unknown
    ]
    assert stale == []


@pytest.mark.parametrize("line, unknown", [
    ("repro analyze refs.fasta reads.fastq --executor threads:4", ["--executor"]),
    ("PYTHONPATH=src python -m repro.cli serve --index w.megis --ssds 4 < in > out",
     ["--ssds"]),
    ("repro fly --index w.megis", ["fly"]),
    ("repro index build refs.fasta w.megis --shards=4", ["--shards=4"]),
    ("repro gateway --index w.megis --port 7878 | tee log", []),
], ids=["executor", "ssds", "subcommand", "index-build-flag", "piped"])
def test_a_stale_line_is_caught(line, unknown):
    """A seeded stale line names what the parser lacks."""
    [argv] = invocations(line)
    assert unknown_parts(build_parser(), argv) == unknown


def test_only_command_positions_count():
    """``from repro.megis import wire`` and an ``echo repro`` are not
    invocations; a ``python -m repro.experiments`` line is not the CLI."""
    for line in ("from repro.megis import wire", "echo repro analyze --nope",
                 "python -m repro.experiments all"):
        assert list(invocations(line)) == []
