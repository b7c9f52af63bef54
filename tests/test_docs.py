"""The README against the code: cited tests, named functions and flags."""

import argparse
import importlib
import re
from pathlib import Path

import pytest

from ptfens.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
FENCED = re.compile(r"^```.*?^```", re.M | re.S)
PROSE = FENCED.sub("", README)
# a backticked dotted name that is a file, not a module attribute
FILE_SUFFIXES = {"asc", "ann", "csv", "flt", "hdr", "json", "md", "py", "toml", "tsv",
                 "txt", "yml"}
MODULE_ALIASES = {"np": "numpy"}


def subcommand_parsers():
    """{subcommand: its parser} of ptfens' argument parser, and "" for the
    parser itself."""
    parser = build_parser()
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {"": parser, **action.choices}


def flags(parser):
    return {flag for action in parser._actions for flag in action.option_strings
            if flag.startswith("--") and flag != "--help"}


def command_examples():
    """(subcommand, flags) of each `ptfens <subcommand>` line of the README's
    code blocks, continuation lines joined."""
    examples = []
    for block in FENCED.findall(README):
        for command in block.replace("\\\n", " ").splitlines():
            words = command.split()
            if len(words) > 1 and words[0] == "ptfens":
                examples.append((words[1], {w.split("=")[0] for w in words[2:]
                                            if w.startswith("--")}))
    return examples


def test_readme_cites_existing_tests():
    cited = re.findall(r"(test_\w+\.py)::(\w+)", README)
    assert cited
    missing = [f"{path}::{name}" for path, name in cited
               if not re.search(rf"^def {name}\(", (ROOT / "tests" / path).read_text(
                   encoding="utf-8"), re.M)]
    assert missing == []


def test_readme_backticked_names_resolve():
    names = [n for n in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", PROSE)
             if n.rsplit(".", 1)[1] not in FILE_SUFFIXES]
    assert "cli.main" in names
    unresolved = []
    for name in names:
        head, *rest = name.split(".")
        try:
            obj = importlib.import_module(f"ptfens.{head}")
        except ImportError:
            try:
                obj = importlib.import_module(MODULE_ALIASES.get(head, head))
            except ImportError:
                obj = None
        for part in rest:
            obj = getattr(obj, part, None)
        if obj is None:
            unresolved.append(name)
    assert unresolved == []


def test_readme_examples_use_accepted_flags():
    parsers = subcommand_parsers()
    examples = command_examples()
    assert {command for command, _ in examples} == set(parsers) - {""}
    unknown = [(command, sorted(used - flags(parsers[command])))
               for command, used in examples if used - flags(parsers[command])]
    assert unknown == []


@pytest.mark.parametrize("command", sorted(subcommand_parsers()), ids=lambda c: c or "ptfens")
def test_every_flag_is_documented(command):
    documented = set(re.findall(r"--[a-z][a-z-]*[a-z]", README))
    assert sorted(flags(subcommand_parsers()[command]) - documented) == []
