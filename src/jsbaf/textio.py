"""Instance file formats and canonical printers.

System files are line-oriented::

    # comment
    option assume-consequences
    atom p
    axiom <formula>
    strict <id>: <f1>, <f2> -> <f>
    defeasible <id>[<rank>]: <f1>, ... => <f>
    name <id> = <formula>

Axiom lines get content-derived rule ids ``ax_<first 8 hex digits of
the SHA-1 of the formula>`` (see :func:`jsbaf.system.axiom_rule_id`), so
the prefix ``ax`` is reserved.  A system file is read in one loop over
its lines, which strips ``#`` comments only from a file that has one;
every formula text is looked up in one memo for the whole file, so each
distinct text is parsed once.  Names may come before or after their
rule, so each defeasible rule is built after the loop, with its name;
an error on a line is reported before any error about names or ids.
Framework files::

    arg <id> [rank=<int>]
    att <attacker> <target>
    sup <id> <- <id>,...,<id>     # empty right side = supported by {}

Both formats refuse an empty item in a list (``p,, q``).  Both printers
emit a canonical form (sorted lines); parse(print(x)) is the identity on
the parsed representation.
"""

from __future__ import annotations

import hashlib
import json

from . import formulas as fm
from .errors import ParseError
from .formulas import parse_formula
from .framework import Jsbaf, Labeling
from .system import (
    AXIOM_ID_PREFIX,
    ArgumentationSystem,
    DefeasibleRule,
    StrictRule,
    make_system,
)

SCHEMA_VERSION = 1


def instance_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_system_text(text: str) -> ArgumentationSystem:
    atoms: set[str] = set()
    axioms: list = []
    strict: list[StrictRule] = []
    defeasible: list[tuple] = []  # (id, antecedents, consequent), named after the loop
    names: dict[str, tuple[str, int]] = {}
    rank: dict[str, int] = {}
    assume = False
    memo: dict[str, fm.Formula] = {}  # formula and sub-formula text -> formula; formulas are immutable
    comments = "#" in text

    for lineno, line in enumerate(text.splitlines(), start=1):
        line = (line.split("#", 1)[0] if comments else line).strip()
        if not line:
            continue
        keyword, _, rest = line.partition(" ")
        rest = rest.strip()
        if keyword in ("strict", "defeasible"):
            head, _, body = rest.partition(":")
            if not body:
                raise ParseError("expected ':' after the rule id", line=lineno)
            rule_id = head.strip()
            rule_rank = 0
            if "[" in rule_id:
                if keyword == "strict":
                    raise ParseError("strict rules take no rank", line=lineno)
                rule_id, _, bracket = rule_id.partition("[")
                rule_id = rule_id.strip()
                if not bracket.endswith("]"):
                    raise ParseError("expected ']' after the rank", line=lineno)
                try:
                    rule_rank = int(bracket[:-1])
                except ValueError:
                    raise ParseError("rank must be an integer", line=lineno) from None
            arrow = "->" if keyword == "strict" else "=>"
            left, found, right = body.partition(arrow)
            if not found:
                raise ParseError(f"expected {arrow!r}", line=lineno)
            # an empty list is no antecedent, as the printer writes it; an empty item is no formula
            items = left.split(",") if left.strip() else ()
            ants = [memo.get(f) or parse_formula(f, lineno, memo) for f in map(str.strip, items)]
            right = right.strip()
            rule = (rule_id, tuple(ants), memo.get(right) or parse_formula(right, lineno, memo))
            if keyword == "strict":
                strict.append(StrictRule(*rule))
            else:
                defeasible.append(rule)
                rank[rule_id] = rule_rank
        elif keyword == "atom":
            if not fm.IDENT.fullmatch(rest):
                raise ParseError(f"expected one atom name, got {rest!r}", line=lineno)
            atoms.add(rest)
        elif keyword == "axiom":
            axioms.append(memo.get(rest) or parse_formula(rest, lineno, memo))
        elif keyword == "name":
            rule_id, _, name = rest.partition("=")
            if not name.strip():
                raise ParseError("expected '=' and a formula", line=lineno)
            rule_id = rule_id.strip()
            if rule_id in names:
                raise ParseError(f"second name for rule {rule_id!r}", line=lineno)
            names[rule_id] = (name.strip(), lineno)
        elif keyword == "option":
            if rest != "assume-consequences":
                raise ParseError(f"unknown option {rest!r}", line=lineno)
            assume = True
        else:
            raise ParseError(f"unknown directive {keyword!r}", line=lineno)

    name_of = {i: parse_formula(*names[i], memo) for i, _, _ in defeasible if i in names}
    unknown = names.keys() - name_of.keys()
    if unknown:
        raise ParseError(f"name given for unknown defeasible rules {sorted(unknown)}")
    named = [DefeasibleRule(*rule, name_of.get(rule[0])) for rule in defeasible]
    for rule in (*strict, *named):
        if rule.id.startswith(AXIOM_ID_PREFIX):
            raise ParseError(f"rule id {rule.id!r} is reserved for axiom lines")

    return make_system(
        atoms=atoms,
        axioms=axioms,
        strict=strict,
        defeasible=named,
        rank=rank,
        assume_consequences=assume,
    )


def format_system(system: ArgumentationSystem) -> str:
    lines = []
    if system.assume_consequences:
        lines.append("option assume-consequences")
    lines += [f"atom {a}" for a in sorted(system.atoms)]
    lines += [f"axiom {fm.format_formula(f)}" for f in system.axioms]
    for rule in system.strict_rules:
        if rule.axiomatic:
            continue
        ants = ", ".join(fm.format_formula(f) for f in rule.antecedents)
        lines.append(f"strict {rule.id}: {ants} -> {fm.format_formula(rule.consequent)}")
    for rule in system.defeasible_rules:
        ants = ", ".join(fm.format_formula(f) for f in rule.antecedents)
        lines.append(
            f"defeasible {rule.id}[{system.rank[rule.id]}]: {ants} => {fm.format_formula(rule.consequent)}"
        )
    for rule in system.defeasible_rules:
        if rule.name is not None:
            lines.append(f"name {rule.id} = {fm.format_formula(rule.name)}")
    return "\n".join(lines) + "\n"


def parse_framework_text(text: str) -> Jsbaf:
    args: dict[str, int] = {}
    attacks: set[tuple[str, str]] = set()
    supports: dict[str, frozenset[str]] = {}

    for lineno, line in _lines(text):
        keyword, _, rest = line.partition(" ")
        rest = rest.strip()
        if keyword == "arg":
            name, _, rankpart = rest.partition(" ")
            if not fm.IDENT.fullmatch(name):
                raise ParseError(f"expected an argument name, got {name!r}", line=lineno)
            rank = 0
            if rankpart:
                if not rankpart.startswith("rank="):
                    raise ParseError("expected rank=<int>", line=lineno)
                try:
                    rank = int(rankpart[len("rank=") :])
                except ValueError:
                    raise ParseError("rank must be an integer", line=lineno) from None
            if name in args:
                raise ParseError(f"duplicate argument {name!r}", line=lineno)
            args[name] = rank
        elif keyword == "att":
            parts = rest.split()
            if len(parts) != 2:
                raise ParseError("expected two argument ids", line=lineno)
            attacks.add((parts[0], parts[1]))
        elif keyword == "sup":
            head, sep, tail = rest.partition("<-")
            if not sep:
                raise ParseError("expected '<-'", line=lineno)
            head = head.strip()
            if not fm.IDENT.fullmatch(head):
                raise ParseError(f"expected one supported argument name, got {head!r}", line=lineno)
            if head in supports:
                raise ParseError(f"second supporting set for {head!r}", line=lineno)
            names = [part.strip() for part in tail.split(",")] if tail.strip() else []
            if "" in names:
                raise ParseError("expected an argument name, got ''", line=lineno)
            supports[head] = frozenset(names)
        else:
            raise ParseError(f"unknown directive {keyword!r}", line=lineno)

    return Jsbaf(
        args=tuple(args),
        attacks=frozenset(attacks),
        supports=supports,
        rank=dict(args),
    )


def format_framework(framework: Jsbaf) -> str:
    lines = [f"arg {a} rank={framework.rank_of(a)}" for a in framework.args]
    lines += [f"att {a} {b}" for a, b in sorted(framework.attacks)]
    lines += [
        f"sup {head} <- " + ",".join(sorted(framework.supports[head]))
        for head in sorted(framework.supports)
    ]
    return "\n".join(lines) + "\n"


def framework_to_dict(framework: Jsbaf) -> dict:
    return {
        "args": [{"id": a, "rank": framework.rank_of(a)} for a in framework.args],
        "attacks": sorted([a, b] for a, b in framework.attacks),
        "supports": [
            {"arg": head, "by": sorted(framework.supports[head])}
            for head in sorted(framework.supports)
        ],
    }


def read_instance(path: str) -> str:
    """The text of an instance file; a file that cannot be read as UTF-8
    text is a :class:`ParseError`."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def parse_instance(path: str, kind: str | None = None, text: str | None = None):
    """Load a system or framework file, or parse ``text`` already read
    from it; the kind is inferred from the extension (.as / .jsbaf) or
    from the directives when not given."""
    if text is None:
        text = read_instance(path)
    if kind is None:
        if path.endswith(".as"):
            kind = "as"
        elif path.endswith(".jsbaf"):
            kind = "jsbaf"
        else:
            first = next(_lines(text), (0, ""))[1]
            kind = "jsbaf" if first.split(" ", 1)[0] in ("arg", "att", "sup") else "as"
    if kind == "as":
        return parse_system_text(text)
    if kind == "jsbaf":
        return parse_framework_text(text)
    raise ParseError(f"unknown instance kind {kind!r}")


def format_labeling(labeling: Labeling) -> str:
    return "\n".join(f"{a} {label}" for a, label in labeling.labels) + "\n"


def format_labelings(labelings) -> str:
    blocks = [format_labeling(lab) for lab in labelings]
    return f"{len(labelings)}\n" + "\n".join(blocks)


def wrap_json(digest: str, payload) -> str:
    return json.dumps(
        {"schema_version": SCHEMA_VERSION, "instance_digest": digest, "payload": payload},
        sort_keys=True,
        indent=2,
    ) + "\n"
