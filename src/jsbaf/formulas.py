"""Propositional base logic for the argumentation layers.

Formulas are built from named atoms and are closed under negation and
conjunction only.  Equality is structural everywhere: ``p & q`` and
``q & p`` are different formulas, and no semantic normalisation is ever
applied.  The consequence relation is classical truth-table entailment
over the atoms occurring in the formulas involved, which keeps it
decidable at the cost of a configurable bound on the number of distinct
atoms (the table has 2**k rows).

The table is evaluated a column at a time: each formula becomes one
integer whose bit r is its truth value in row r.  Atom i's column has
bit r set when bit i of r is set; negation flips every bit and
conjunction is bitwise and.  Gamma entails psi when no bit is set in the
conjunction of Gamma's columns and the negation of psi's, and Gamma is
satisfiable when that conjunction is not zero.  The row-by-row
evaluation of the definition is :func:`jsbaf.naive.satisfies`.

Every formula carries a *key*: its serialisation in prefix notation.
Lexicographic order on keys is the canonical total order used wherever a
set of formulas has to be turned into a sequence deterministically (for
instance when a conjunction over a set is formed).  It also carries its
*height*, the longest path from the root to an atom; the evaluators and
the formatter recurse that deep, so the parser refuses a formula taller
than ``MAX_FORMULA_DEPTH``.
"""

from __future__ import annotations

import re
from typing import Iterable

from .errors import ParseError, ResourceLimitError

DEFAULT_ATOM_BOUND = 16
MAX_FORMULA_DEPTH = 200  # tree height and ``(``/``!`` nesting the parser accepts

IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class Formula:
    """Immutable formula tree node.  Use :class:`Var`, :class:`Not`, :class:`And`."""

    __slots__ = ("key", "atom_set", "height", "_hash")

    key: str
    atom_set: frozenset[str]
    height: int

    def __eq__(self, other):
        return isinstance(other, Formula) and self.key == other.key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Formula({format_formula(self)!r})"

    def __str__(self):
        return format_formula(self)


class Var(Formula):
    __slots__ = ("name",)

    def __init__(self, name: str):
        if not IDENT.fullmatch(name):
            raise ValueError(f"invalid atom name: {name!r}")
        self.name = name
        self.key = name
        self.atom_set = frozenset((name,))
        self.height = 0
        self._hash = hash(self.key)


class Not(Formula):
    __slots__ = ("sub",)

    def __init__(self, sub: Formula):
        self.sub = sub
        self.key = "(! " + sub.key + ")"
        self.atom_set = sub.atom_set
        self.height = sub.height + 1
        self._hash = hash(self.key)


class And(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        self.left = left
        self.right = right
        self.key = "(& " + left.key + " " + right.key + ")"
        self.atom_set = left.atom_set | right.atom_set
        self.height = max(left.height, right.height) + 1
        self._hash = hash(self.key)


def atoms_of(formulas: Iterable[Formula]) -> frozenset[str]:
    out: set[str] = set()
    for f in formulas:
        out |= f.atom_set
    return frozenset(out)


def formula_key(formula: Formula) -> str:
    return formula.key


def _atom_columns(formulas: tuple[Formula, ...], atom_bound: int):
    """The column of each atom of ``formulas``, and the column of all 2**k rows."""
    names = atoms_of(formulas)
    if len(names) > atom_bound:
        raise ResourceLimitError(
            f"{len(names)} atoms exceed the truth-table bound of {atom_bound}",
            bound_name="atom_bound",
            bound_value=atom_bound,
        )
    full = (1 << (1 << len(names))) - 1
    atoms = {}
    for i, name in enumerate(names):
        half = 1 << i  # runs of 2**i zero rows, then 2**i one rows
        atoms[name] = full // ((1 << 2 * half) - 1) * (((1 << half) - 1) << half)
    return atoms, full


def _column(formula: Formula, atoms: dict[str, int], full: int) -> int:
    if isinstance(formula, Var):
        return atoms[formula.name]
    if isinstance(formula, Not):
        return full ^ _column(formula.sub, atoms, full)
    return _column(formula.left, atoms, full) & _column(formula.right, atoms, full)


def entails(gamma: Iterable[Formula], psi: Formula, atom_bound: int = DEFAULT_ATOM_BOUND) -> bool:
    """Truth-table entailment: every model of ``gamma`` satisfies ``psi``."""
    gamma = tuple(gamma)
    atoms, full = _atom_columns(gamma + (psi,), atom_bound)
    counter = full ^ _column(psi, atoms, full)  # rows that falsify psi, then those that also satisfy gamma
    for g in gamma:
        counter &= _column(g, atoms, full)
    return not counter


def satisfiable(gamma: Iterable[Formula], atom_bound: int = DEFAULT_ATOM_BOUND) -> bool:
    gamma = tuple(gamma)
    atoms, full = _atom_columns(gamma, atom_bound)
    models = full
    for g in gamma:
        models &= _column(g, atoms, full)
    return models != 0


def is_neg_complement(phi: Formula, psi: Formula) -> bool:
    """Structural complement test: ``phi`` is ``!psi`` or ``psi`` is ``!phi``."""
    return isinstance(phi, Not) and phi.sub == psi or isinstance(psi, Not) and psi.sub == phi


def complementary_pairs(formulas: Iterable[Formula]):
    """Every pair (phi, psi) of complements among the formulas, each pair
    once, in canonical order."""
    ordered = sorted(set(formulas), key=formula_key)
    for i, phi in enumerate(ordered):
        for psi in ordered[i + 1 :]:
            if is_neg_complement(phi, psi):
                yield phi, psi


def conjunction_peels(formula: Formula):
    """Candidate element sequences whose canonical conjunction is ``formula``.

    The canonical conjunction of a set Gamma folds its elements, in key
    order, into ``f0 & (f1 & (...))``.  It equals ``formula`` exactly when
    Gamma's key-sorted sequence is one of the sequences yielded here (the
    whole formula, then successively peeled prefixes of the right spine)
    and that sequence is strictly increasing with pairwise distinct
    elements.  The strictness filter is applied here; membership checks
    are the caller's.
    """
    yield (formula,)
    prefix: list[Formula] = []
    cur = formula
    while isinstance(cur, And):
        prefix.append(cur.left)
        cur = cur.right
        candidate = tuple(prefix) + (cur,)
        keys = [f.key for f in candidate]
        if all(keys[i] < keys[i + 1] for i in range(len(keys) - 1)):
            yield candidate


# --- text syntax ---------------------------------------------------------
#
# atoms       identifiers [A-Za-z_][A-Za-z0-9_]*
# negation    !phi
# conjunction phi & psi        (left-associative)
# parentheses allowed


class _Tokens:
    def __init__(self, text: str, line: int | None = None):
        self.text = text
        self.pos = 0
        self.line = line
        self.nesting = 0  # open ``(`` and ``!`` at the current position

    def error(self, message: str) -> ParseError:
        return ParseError(message, line=self.line, column=self.pos + 1)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""


def _parse_unary(t: _Tokens) -> Formula:
    c = t.peek()
    if c in ("!", "("):
        t.nesting += 1
        if t.nesting > MAX_FORMULA_DEPTH:
            raise ParseError("formula nested too deeply", line=t.line)
        t.pos += 1
        if c == "!":
            f = Not(_parse_unary(t))
        else:
            f = _parse_conj(t)
            if t.peek() != ")":
                raise t.error("expected ')'")
            t.pos += 1
        t.nesting -= 1
        return f
    m = IDENT.match(t.text, t.pos)
    if not m:
        raise t.error("expected a formula")
    t.pos = m.end()
    return Var(m.group())


def _parse_conj(t: _Tokens) -> Formula:
    f = _parse_unary(t)
    while t.peek() == "&":
        t.pos += 1
        f = And(f, _parse_unary(t))
    return f


def parse_formula(text: str, line: int | None = None) -> Formula:
    t = _Tokens(text, line=line)
    f = _parse_conj(t)
    if t.peek():
        raise t.error(f"unexpected {t.peek()!r}")
    if f.height > MAX_FORMULA_DEPTH:
        raise ParseError("formula nested too deeply", line=line)
    return f


def format_formula(formula: Formula) -> str:
    """Minimal-parenthesis rendering; ``parse_formula`` round-trips it."""
    if isinstance(formula, Var):
        return formula.name
    if isinstance(formula, Not):
        inner = format_formula(formula.sub)
        if isinstance(formula.sub, And):
            inner = "(" + inner + ")"
        return "!" + inner
    if isinstance(formula, And):
        left = format_formula(formula.left)
        right = format_formula(formula.right)
        if isinstance(formula.right, And):
            # the parser is left-associative, so a right-nested chain
            # needs explicit grouping
            right = "(" + right + ")"
        return left + " & " + right
    raise TypeError(f"not a formula: {formula!r}")
