"""Argumentation systems: strict and defeasible inference rules.

A system holds axiomatic strict rules (no antecedents, jointly
satisfiable consequents), consequence-based strict rules (antecedents
truth-table-entail the consequent), defeasible rules with an optional
naming formula, and a total preorder over the defeasible rules given as
integer ranks.  Consequence rules are normally validated against the
entailment relation; a system may be marked ``assume_consequences`` for
hand-written instances that fix a deliberately non-semantic strict rule
set, in which case validation records the waiver instead of checking.
"""

from __future__ import annotations

import hashlib
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from . import formulas as fm
from .errors import InstanceError
from .formulas import Formula

AXIOM_ID_PREFIX = "ax_"


def axiom_rule_id(formula: Formula) -> str:
    """Content-derived id: stable, and collision-free across the
    syntactically disjoint systems that unions combine."""
    return AXIOM_ID_PREFIX + hashlib.sha1(formula.key.encode()).hexdigest()[:8]


@dataclass(frozen=True)
class StrictRule:
    id: str
    antecedents: tuple[Formula, ...]
    consequent: Formula
    axiomatic: bool = False

    def __post_init__(self):
        if self.axiomatic and self.antecedents:
            raise InstanceError(f"axiomatic rule {self.id} must not have antecedents")

    def formulas(self) -> tuple[Formula, ...]:
        return self.antecedents + (self.consequent,)


@dataclass(frozen=True)
class DefeasibleRule:
    id: str
    antecedents: tuple[Formula, ...]
    consequent: Formula
    name: Formula | None = None

    def formulas(self) -> tuple[Formula, ...]:
        return self.antecedents + (self.consequent,)


def _cached(owner, name: str, build):
    """A value computed once per immutable system or framework and kept on it."""
    value = owner.__dict__.get(name)
    if value is None:
        value = build()
        object.__setattr__(owner, name, value)
    return value


@dataclass(frozen=True)
class ArgumentationSystem:
    """Rules plus the defeasible-rule preference preorder.

    ``rank`` maps every defeasible rule id to a non-negative integer;
    rule r is at most as preferred as r' iff rank(r) <= rank(r'); rules
    it leaves out get rank 0, and ids of no defeasible rule are dropped.

    Systems are immutable, like frameworks (the rule tuples are sorted,
    ``rank`` is a read-only copy), so what is cached on them (the digest,
    strict closures, the undercut oracle's rule names) never goes stale.
    """

    atoms: frozenset[str]
    strict_rules: tuple[StrictRule, ...]
    defeasible_rules: tuple[DefeasibleRule, ...]
    rank: Mapping[str, int] = field(default_factory=dict)
    assume_consequences: bool = False

    def __post_init__(self):
        defeasible = tuple(sorted(self.defeasible_rules, key=lambda r: r.id))
        rank = {r.id: self.rank.get(r.id, 0) for r in defeasible}
        object.__setattr__(self, "atoms", frozenset(self.atoms))
        object.__setattr__(self, "strict_rules", tuple(sorted(self.strict_rules, key=lambda r: r.id)))
        object.__setattr__(self, "defeasible_rules", defeasible)
        object.__setattr__(self, "rank", MappingProxyType(rank))

    @property
    def axioms(self) -> tuple[Formula, ...]:
        return tuple(r.consequent for r in self.strict_rules if r.axiomatic)


def make_system(
    atoms,
    axioms=(),
    strict=(),
    defeasible=(),
    rank=None,
    assume_consequences=False,
) -> ArgumentationSystem:
    """Convenience constructor; generates axiom rule ids in canonical order."""
    axiom_rules = tuple(
        StrictRule(axiom_rule_id(f), (), f, axiomatic=True)
        for f in sorted(set(axioms), key=fm.formula_key)
    )
    return ArgumentationSystem(
        atoms=frozenset(atoms),
        strict_rules=axiom_rules + tuple(strict),
        defeasible_rules=tuple(defeasible),
        rank=rank or {},
        assume_consequences=assume_consequences,
    )


def cl_closure(strict_rules, formulas) -> frozenset[Formula]:
    """Smallest superset closed under the strict rules; rules without
    antecedents always fire."""
    out = set(formulas)
    changed = True
    while changed:
        changed = False
        for rule in strict_rules:
            if rule.consequent not in out and all(a in out for a in rule.antecedents):
                out.add(rule.consequent)
                changed = True
    return frozenset(out)


@dataclass
class ValidationReport:
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def __str__(self):
        lines = ["valid" if self.ok else "invalid"]
        lines += [f"failure: {f}" for f in self.failures]
        lines += [f"note: {n}" for n in self.notes]
        return "\n".join(lines)


def validate_system(
    system: ArgumentationSystem, atom_bound: int = fm.DEFAULT_ATOM_BOUND
) -> ValidationReport:
    """Check the system-level invariants and report every violation.

    Consistency means that no two strict arguments conclude complements.
    The conclusions of all strict arguments are exactly the closure of
    the strict rules over the empty set, which is finite, so the check
    is exact and builds no argument.
    """
    report = ValidationReport()
    seen: set[str] = set()
    for rule in system.strict_rules + system.defeasible_rules:
        if rule.id in seen:
            report.failures.append(f"duplicate rule id {rule.id}")
        seen.add(rule.id)
        loose = fm.atoms_of(rule.formulas()) - system.atoms
        if loose:
            report.failures.append(f"rule {rule.id} uses undeclared atoms {sorted(loose)}")

    for rule in system.defeasible_rules:
        if rule.name is not None and rule.name.atom_set - system.atoms:
            report.failures.append(f"name of rule {rule.id} uses undeclared atoms")
        if system.rank[rule.id] < 0:
            report.failures.append(f"rule {rule.id} has a negative rank")

    axioms = system.axioms
    if axioms and not fm.satisfiable(axioms, atom_bound=atom_bound):
        report.failures.append("axioms are jointly unsatisfiable")

    unchecked = 0
    for rule in system.strict_rules:
        if rule.axiomatic:
            continue
        if system.assume_consequences:
            unchecked += 1
            continue
        if not fm.entails(rule.antecedents, rule.consequent, atom_bound=atom_bound):
            report.failures.append(f"consequence rule {rule.id} is not entailment-valid")
    if unchecked:
        report.notes.append(f"{unchecked} consequence rules taken as given (assume_consequences)")

    if report.ok:
        for phi, psi in fm.complementary_pairs(cl_closure(system.strict_rules, ())):
            report.failures.append(f"inconsistent: strict arguments conclude both {phi} and {psi}")
    return report


def atoms_of_system(system: ArgumentationSystem) -> frozenset[str]:
    """Atoms of the defeasible rules, the axiomatic rules and the naming
    function.  Consequence rules do not contribute."""
    out: set[str] = set()
    for rule in system.defeasible_rules:
        out |= fm.atoms_of(rule.formulas())
        if rule.name is not None:
            out |= rule.name.atom_set
    for rule in system.strict_rules:
        if rule.axiomatic:
            out |= rule.consequent.atom_set
    return frozenset(out)


def systems_syn_disjoint(s1: ArgumentationSystem, s2: ArgumentationSystem) -> bool:
    return not (atoms_of_system(s1) & atoms_of_system(s2))


MERGE_POLICIES = ("raw", "interleave")


def union_systems(
    s1: ArgumentationSystem,
    s2: ArgumentationSystem,
    merge: str = "raw",
    cross_rules: tuple[StrictRule, ...] = (),
) -> ArgumentationSystem:
    """Union of two syntactically disjoint systems.

    Defeasible rules, names and axioms are combined as-is; ``cross_rules``
    carries whatever slice of the full consequence-rule space the caller
    wants the union to have (see :func:`jsbaf.generate.cross_closure_rules`).
    Rank merging: ``raw`` keeps integer ranks, letting equal ranks tie
    across systems; ``interleave`` maps ranks r to 2r and 2r+1 so that no
    two rules from different systems are ever equally preferred.  Both
    yield total preorders extending the originals.
    """
    if not systems_syn_disjoint(s1, s2):
        raise InstanceError("systems are not syntactically disjoint")
    if merge not in MERGE_POLICIES:
        raise InstanceError(f"unknown merge policy {merge!r}")
    ids1 = {r.id for r in s1.strict_rules + s1.defeasible_rules}
    ids2 = {r.id for r in s2.strict_rules + s2.defeasible_rules}
    clash = ids1 & ids2 | {r.id for r in cross_rules} & (ids1 | ids2)
    if clash:
        raise InstanceError(f"rule id collision in union: {sorted(clash)}")

    if merge == "raw":
        rank = s1.rank | s2.rank
    else:
        rank = {rid: 2 * r for rid, r in s1.rank.items()}
        rank |= {rid: 2 * r + 1 for rid, r in s2.rank.items()}

    return ArgumentationSystem(
        atoms=s1.atoms | s2.atoms,
        strict_rules=s1.strict_rules + s2.strict_rules + tuple(cross_rules),
        defeasible_rules=s1.defeasible_rules + s2.defeasible_rules,
        rank=rank,
        assume_consequences=s1.assume_consequences or s2.assume_consequences,
    )
