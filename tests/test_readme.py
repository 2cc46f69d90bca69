"""README's subcommand/flag table against the argument parser, so the two
cannot drift apart."""

import argparse
import pathlib
import re

from jsbaf.cli import build_parser

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_table() -> dict[str, tuple[list[str], set[str]]]:
    """subcommand -> (its positionals, its flags), from the rows of the
    ``| subcommand | flags |`` table."""
    rows = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 2 or not cells[0].startswith("`"):
            continue
        command, *positionals = cells[0].strip("`").split()
        rows[command] = ([p.strip("<>") for p in positionals], set(re.findall(r"`(--[a-z-]+)`", cells[1])))
    return rows


def parser_table() -> dict[str, tuple[list[str], set[str]]]:
    """The same mapping, read from each subparser of the CLI."""
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    rows = {}
    for command, subparser in subparsers.choices.items():
        actions = [a for a in subparser._actions if not isinstance(a, argparse._HelpAction)]
        positionals = [a.dest for a in actions if not a.option_strings]
        flags = {s for a in actions for s in a.option_strings}
        rows[command] = (positionals, flags)
    return rows


def test_readme_flag_table_matches_the_parser():
    table = readme_table()
    assert table  # the table is found at all
    assert table == parser_table()
