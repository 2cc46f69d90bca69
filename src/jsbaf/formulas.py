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
evaluation of the definition is :func:`jsbaf.naive.satisfies`.  Once the
atom bound holds, :func:`entails` builds no table for an *evident* psi: a
member of Gamma, the double negation of an evident formula, or the
conjunction of two.  The test is sound, not complete, so what it does not
settle goes to the table.

Every formula carries a *key*: its serialisation in prefix notation.
Lexicographic order on keys is the canonical total order used wherever a
set of formulas has to be turned into a sequence deterministically (for
instance when a conjunction over a set is formed).  It also carries its
*height*, the longest path from the root to an atom; the evaluators and
the formatter recurse that deep, so the parser refuses a formula taller
than ``MAX_FORMULA_DEPTH``.

Text syntax: atoms are identifiers ``[A-Za-z_][A-Za-z0-9_]*``, ``!phi``
is negation, ``phi & psi`` conjunction (left-associative, looser than
``!``), parentheses group, and blanks are spaces and tabs.

:func:`parse_formula` first looks the text up in a memo of formula
texts, which a caller keeps for a whole file.  On a miss the split pass
cuts the text with string scans done in C: at the ``&`` outside
parentheses (found by ``rfind`` from the right, stepping over
parenthesised groups), else after a leading ``!``, else inside enclosing
parentheses (peeled in place, not copied), else it is an identifier.
Every piece goes through the memo and into it, so a sub-formula that
rules repeat, ``!(p1 & p5)`` in ten rules, is built once and the rules
share that one object.  The split pass accepts only text it has checked
piece by piece.  Anything else goes to the recursive-descent pass:
malformed text, a formula taller than the limit, and text with more
``(`` and ``!`` together than ``MAX_FORMULA_DEPTH``, whose nesting could
pass it.  That pass is kept because it is the one source of error
messages and columns, and the reference the split pass is tested
against.  It refuses an ``&`` chain as soon as its height passes the
limit, since each ``And`` copies the key of everything to its left.
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


def _atom_names(formulas: tuple[Formula, ...], atom_bound: int) -> frozenset[str]:
    """The atoms of ``formulas``, refused past ``atom_bound`` of them."""
    names = atoms_of(formulas)
    if len(names) > atom_bound:
        raise ResourceLimitError(
            f"{len(names)} atoms exceed the truth-table bound of {atom_bound}",
            bound_name="atom_bound",
            bound_value=atom_bound,
        )
    return names


def _atom_columns(names: frozenset[str]):
    """The column of each atom, and the column of all 2**k rows."""
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


def _evident(gamma: tuple[Formula, ...], psi: Formula) -> bool:
    """``psi`` is a member of ``gamma``, the double negation of an evident
    formula, or the conjunction of two: each is entailed, so True is sound,
    and False settles nothing."""
    if psi in gamma:
        return True
    if isinstance(psi, And):
        return _evident(gamma, psi.left) and _evident(gamma, psi.right)
    return isinstance(psi, Not) and isinstance(psi.sub, Not) and _evident(gamma, psi.sub.sub)


def entails(gamma: Iterable[Formula], psi: Formula, atom_bound: int = DEFAULT_ATOM_BOUND) -> bool:
    """Truth-table entailment: every model of ``gamma`` satisfies ``psi``.
    Once the atom bound holds, an evident ``psi`` needs no table."""
    gamma = tuple(gamma)
    names = _atom_names(gamma + (psi,), atom_bound)
    if _evident(gamma, psi):
        return True
    atoms, full = _atom_columns(names)
    counter = full ^ _column(psi, atoms, full)  # rows that falsify psi, then those that also satisfy gamma
    for g in gamma:
        counter &= _column(g, atoms, full)
    return not counter


def satisfiable(gamma: Iterable[Formula], atom_bound: int = DEFAULT_ATOM_BOUND) -> bool:
    gamma = tuple(gamma)
    atoms, full = _atom_columns(_atom_names(gamma, atom_bound))
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
    present = set(formulas)
    pairs = (sorted((f, f.sub), key=formula_key) for f in present if isinstance(f, Not) and f.sub in present)
    for phi, psi in sorted(pairs, key=lambda pair: (pair[0].key, pair[1].key)):
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


# --- text syntax (see the module docstring) --------------------------------


class _Tokens:
    def __init__(self, text: str, line: int | None = None):
        self.text = text
        self.pos = 0
        self.line = line
        self.nesting = 0  # open ``(`` and ``!`` at the current position

    def error(self, message: str) -> ParseError:
        return ParseError(message, line=self.line, column=self.pos + 1)

    def too_deep(self) -> ParseError:
        return ParseError("formula nested too deeply", line=self.line)

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
            raise t.too_deep()
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
        if f.height > MAX_FORMULA_DEPTH:  # before the next link copies this key again
            raise t.too_deep()
    return f


def _descend(text: str, line: int | None = None) -> Formula:
    """The recursive-descent pass: the formula of ``text``, or the
    :class:`ParseError` of its first fault."""
    t = _Tokens(text, line=line)
    f = _parse_conj(t)
    if t.peek():
        raise t.error(f"unexpected {t.peek()!r}")
    if f.height > MAX_FORMULA_DEPTH:
        raise t.too_deep()
    return f


def _split_unary(s: str, memo: dict[str, Formula]) -> Formula | None:
    """The formula of ``s``, text with no blank at either end and no ``&``
    outside parentheses, or None where the split pass does not accept it."""
    f = memo.get(s)
    if f is not None:
        return f
    c = s[:1]
    if c == "!":
        rest = s[1:].lstrip(" \t")
        f = memo.get(rest) or _split_unary(rest, memo)  # a hit costs no call
        if f is None:
            return None
        f = Not(f)
    elif c == "(" and s.endswith(")"):
        f = _split_conj(s[1:-1].strip(" \t"), memo)
    elif IDENT.fullmatch(s):
        f = Var(s)
    if f is None or f.height > MAX_FORMULA_DEPTH:
        return None
    memo[s] = f
    return f


def _cuts(s: str, lo: int, hi: int) -> list[int] | None:
    """The top-level ``&`` of ``s[lo:hi]``, right to left, or None where
    the scan gives up: past ``MAX_FORMULA_DEPTH`` of them, at parentheses
    that do not pair up or nest deeper.  Each step is the next ``&``,
    ``(`` or ``)`` to the left, found by ``rfind``, and within parentheses
    the ``&`` are stepped over, so a call reads the text once for each of
    the three characters."""
    cuts = []
    depth = 0  # ``)`` less ``(`` right of the step
    amp, opening, closing = s.rfind("&", lo, hi), s.rfind("(", lo, hi), s.rfind(")", lo, hi)
    while True:
        i = closing if closing > opening else opening
        if not depth and amp > i:
            if len(cuts) == MAX_FORMULA_DEPTH:  # the chain alone is too tall
                return None
            cuts.append(amp)
            amp = s.rfind("&", lo, amp)
        elif i < 0:
            return None if depth else cuts
        elif i == closing:
            depth += 1
            if depth > MAX_FORMULA_DEPTH:
                return None
            closing = s.rfind(")", lo, i)
        else:
            if not depth:
                return None
            depth -= 1
            opening = s.rfind("(", lo, i)
            if not depth and amp > i:  # an ``&`` the group held
                amp = s.rfind("&", lo, i)


def _split_conj(s: str, memo: dict[str, Formula]) -> Formula | None:
    """The formula of ``s``, an ``&`` chain with no blank at either end,
    or None where the split pass does not accept ``s``."""
    f = memo.get(s)
    if f is not None:
        return f
    lo, hi = 0, len(s)
    cuts = _cuts(s, lo, hi)
    while cuts == [] and s.startswith("(", lo) and s.endswith(")", lo, hi):
        # enclosing parentheses are peeled in place: no copy per pair
        lo, hi = lo + 1, hi - 1
        while lo < hi and s[lo] in " \t":
            lo += 1
        while lo < hi and s[hi - 1] in " \t":
            hi -= 1
        cuts = _cuts(s, lo, hi)
    if cuts is None:
        return None
    if not cuts and not lo:  # one unary formula, the whole text
        return _split_unary(s, memo)
    start = lo
    for stop in cuts[::-1] + [hi]:
        part = s[start:stop].strip(" \t")
        g = memo.get(part) or _split_unary(part, memo)  # a hit costs no call
        if g is None:
            return None
        f = g if f is None else And(f, g)
        start = stop + 1
    if f is None or f.height > MAX_FORMULA_DEPTH:
        return None
    memo[s] = f
    return f


def parse_formula(text: str, line: int | None = None, memo: dict[str, Formula] | None = None) -> Formula:
    """The formula written in ``text``; malformed text raises the
    :class:`ParseError` of the recursive-descent pass.  ``memo`` maps
    formula text to formula: given one dict for every formula of a file,
    each distinct sub-formula text is split once and its formula shared."""
    if memo is None:
        memo = {}
    f = memo.get(text)
    if f is None:
        # no nesting can pass the limit in a text that short, or with that few ``(`` and ``!``
        if len(text) <= MAX_FORMULA_DEPTH or text.count("(") + text.count("!") <= MAX_FORMULA_DEPTH:
            s = text.strip(" \t")
            f = (_split_conj if "&" in s else _split_unary)(s, memo)
        if f is None:
            f = _descend(text, line)
        memo[text] = f
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
