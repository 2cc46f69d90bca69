"""Golden CLI transcript: exit code, stdout and stderr of every example
instance under each subcommand, compared byte for byte with
``tests/golden_cli.txt``.

A change that is meant to alter CLI output rewrites the transcript with
``PYTHONPATH=src python tests/test_golden.py`` and shows the diff.
"""

import contextlib
import io
import os
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden_cli.txt"


def invocations():
    paths = sorted(f"instances/{p.name}" for p in (ROOT / "instances").iterdir())
    for path in paths:
        yield ["validate", path]
    for path in paths:
        for semantics in ("admissible", "preferred", "grounded"):
            for extra in ([], ["--format", "json"], ["--oracle"], ["--emit-jsbaf"]):
                yield ["solve", path, "--semantics", semantics, *extra]
    for path in paths:
        for extra in ([], ["--format", "json"]):
            yield ["translate", path, *extra]
            yield ["postulates", path, *extra]
    yield ["postulates", "instances/as1.as", "--against", "instances/as_u.as"]
    yield ["postulates", "instances/as_u.as", "--against", "instances/as1.as"]
    yield ["fuzz", "--trials", "50", "--seed", "1", "--checks", "closure,consistency,non-interference"]
    for command in ("translate", "solve", "postulates"):
        yield [command, "instances/as1.as", "--max-args", "3"]
    yield ["postulates", "instances/as1.as", "--against", "instances/as_u.as", "--max-args", "3"]


def transcript() -> str:
    """Every invocation run from the checkout root, in one text."""
    from jsbaf.cli import main

    blocks = []
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        for argv in invocations():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            blocks.append(
                f"$ jsbaf {' '.join(argv)}\n[exit {code}]\n"
                f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
            )
    finally:
        os.chdir(cwd)
    return "\n".join(blocks)


def test_cli_transcript_is_unchanged():
    expected = GOLDEN.read_text(encoding="utf-8").split("\n$ jsbaf ")
    assert transcript().split("\n$ jsbaf ") == expected


if __name__ == "__main__":
    GOLDEN.write_text(transcript(), encoding="utf-8")
