"""The whole ``sls`` surface, character for character.

Thirty invocations covering all 24 subcommands run in one fresh
directory, each after ``telemetry.reset()``; stdout, exit code and a
digest of every file an invocation writes (``-o`` / ``--chrome``) are
compared with ``tests/data/cli_transcript.txt``.  The simulation is
deterministic, so the transcript is too — any diff is a changed CLI
character.  Regenerate (only when a CLI change is intended) with::

    cd "$(mktemp -d)" && PYTHONPATH=<repo>/src python \
        <repo>/tests/test_cli_transcript.py > <repo>/tests/data/cli_transcript.txt

The transcript pins behaviour; ``tests/data/cli_parser.json`` pins the
argument surface: every subcommand's help line and, in order, each
argument's option strings, dest, action, type, default, nargs, choices,
required, metavar and help (read off the parser's actions, not
``format_help()``, whose layout differs between Python versions).
Regenerate with ``... test_cli_transcript.py --parser >
<repo>/tests/data/cli_parser.json``.
"""

from __future__ import annotations

import contextlib
import argparse
import hashlib
import io
import json
import pathlib
import sys

from repro.core import telemetry
from repro.core.cli import _boot_from_image, _save_image, build_parser, main
from repro.objstore.store import SUPERBLOCK_SLOTS, ObjectStore

GOLDEN = pathlib.Path(__file__).parent / "data" / "cli_transcript.txt"
PARSER_GOLDEN = GOLDEN.with_name("cli_parser.json")

IMG = "aurora.img"
REPAIR = f"scrub {IMG} --repair"

INVOCATIONS = [
    f"init {IMG}",
    f"spawn {IMG} demo --memory-kib 256",
    f"run {IMG} 1 --millis 50",
    f"checkpoint {IMG} 1 --name pinned",
    f"ps {IMG}",
    f"history {IMG} 1",
    f"stat {IMG} 1 --checkpoints 5",
    f"trace {IMG} 1 --checkpoints 10 --chrome trace.json",
    f"metrics {IMG} 1 --checkpoints 3 --format prom",
    f"metrics {IMG} 1 --checkpoints 3 --format json -o metrics.json",
    f"events {IMG} 1 --checkpoints 4",
    f"slo {IMG} 1 --checkpoints 20",
    f"diff {IMG} 1",
    f"restore {IMG} 1",
    f"restore {IMG} 1 --lazy",
    f"dump {IMG} 1 -o core.elf",
    f"send {IMG} 1 -o app.stream",
    "init other.img",
    "recv other.img app.stream",
    f"cluster {IMG} 1 --checkpoints 12 --az-outage 1 --repair --failover",
    f"cluster {IMG} 1 --checkpoints 6",
    # Two nodes, one AZ lost: the quorum stalls and the exit status says so.
    f"cluster {IMG} 1 --nodes 2 --azs 2 --checkpoints 6 --az-outage 1",
    f"fleet {IMG} --tenants 4 --millis 150",
    f"top {IMG} --tenants 3 --millis 100",
    f"blackbox {IMG} --limit 12",
    "nemesis --seed 7",
    f"scrub {IMG}",
    REPAIR,     # of a superblock mirror damaged just before, see below
    f"suspend {IMG} 1",
    f"resume {IMG} 1",
]


def _damage_stale_superblock(image: str) -> None:
    machine = _boot_from_image(image)
    store = ObjectStore(machine)
    assert store.mount()
    slot = SUPERBLOCK_SLOTS[(store._generation + 1) % 2]
    payload = machine.storage.read(slot)
    machine.storage.discard_extent(slot)
    machine.storage.write(slot, b"\xff" + payload[1:])
    _save_image(machine, image)


def transcript() -> str:
    """Run every invocation in the current directory; the transcript."""
    out = []
    for line in INVOCATIONS:
        if line == REPAIR:
            _damage_stale_superblock(IMG)
        telemetry.reset()
        argv = line.split()
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            status = main(argv)
        out.append(f"$ sls {line}\n{stdout.getvalue()}")
        for flag, path in zip(argv, argv[1:]):
            if flag in ("-o", "--chrome"):
                digest = hashlib.sha256(pathlib.Path(path).read_bytes())
                out.append(f"[{path} sha256 {digest.hexdigest()[:16]}]\n")
        out.append(f"[exit {status}]\n")
    return "".join(out)


def test_cli_transcript_matches_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = transcript()
    assert len({line.split()[0] for line in INVOCATIONS}) == 24
    assert "quorum stalled:" in got and "[exit 1]" in got
    assert got == GOLDEN.read_text()


def parser_surface() -> str:
    """The argument surface of ``build_parser()``: one JSON line for
    the parser, one per subcommand, one (indented) per argument."""
    parser = build_parser()
    sub = next(action for action in parser._actions
               if isinstance(action, argparse._SubParsersAction))
    helps = {action.dest: action.help for action in sub._choices_actions}
    lines = [json.dumps({"prog": parser.prog,
                         "description": parser.description,
                         "dest": sub.dest, "required": sub.required})]
    for name, child in sub.choices.items():
        lines.append(json.dumps(
            {"command": name, "help": helps[name],
             "handler": child.get_default("func").__name__}))
        for action in child._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            lines.append("  " + json.dumps(
                {"options": action.option_strings, "dest": action.dest,
                 "action": type(action).__name__.strip("_"),
                 "type": getattr(action.type, "__name__", None),
                 "default": action.default, "nargs": action.nargs,
                 "choices": action.choices and list(action.choices),
                 "required": action.required, "metavar": action.metavar,
                 "help": action.help}))
    return "\n".join(lines) + "\n"


def test_cli_parser_surface_matches_golden():
    assert parser_surface() == PARSER_GOLDEN.read_text()


if __name__ == "__main__":
    sys.stdout.write(parser_surface() if sys.argv[1:] == ["--parser"]
                     else transcript())
