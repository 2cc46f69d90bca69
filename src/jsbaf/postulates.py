"""Rationality-postulate checkers.

Each check returns a report rather than raising: the verdict is PASS,
FAIL with an independently re-checkable witness, or INCONCLUSIVE when a
resource budget ran out before an answer was reached, with a reason
naming the bound and its value.  Closure is checked against the
instantiated strict-rule set of the system at hand; non-interference
compares the restricted preferred conclusions of two syntactically
disjoint systems against those of their union, built with whatever
consequence-rule closure the caller supplies.  The union is built,
translated and given an engine once, from the translation's masks; each
side's engine is the union's restricted to the side's arguments, and
preferred IN masks go straight to conclusion sets, with no framework or
labeling built.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace

from . import formulas as fm
from .arguments import complete_translation, preferred_conclusions, preferred_sets, side_mask
from .errors import JsbafError, ResourceLimitError
from .formulas import Formula
from .framework import _check_enum_bound
from .system import ArgumentationSystem, StrictRule, _cached, atoms_of_system, cl_closure, union_systems
from .textio import format_system, instance_digest

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


@dataclass
class PostulateReport:
    postulate: str
    instance_digest: str
    verdict: str
    witness: dict | None = None
    rule_universe: dict = field(default_factory=dict)
    budget: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    def to_json(self) -> str:
        payload = asdict(self)
        if self.witness is None:
            del payload["witness"]
        return json.dumps(payload, sort_keys=True)


def _universe_of(system: ArgumentationSystem) -> dict:
    return {
        "axiomatic": sum(1 for r in system.strict_rules if r.axiomatic),
        "consequence": sum(1 for r in system.strict_rules if not r.axiomatic),
        "defeasible": len(system.defeasible_rules),
    }


def system_digest(system: ArgumentationSystem) -> str:
    """The digest of the system's text, computed once per system."""
    return _cached(system, "_digest_cache", lambda: instance_digest(format_system(system)))


def _strict_closure(system: ArgumentationSystem, conclusions: frozenset[Formula]) -> frozenset[Formula]:
    """The closure of ``conclusions`` under the system's strict rules,
    computed once per conclusion set and kept on the system, which both
    :func:`check_closure` and :func:`check_indirect_consistency` read."""
    closures = _cached(system, "_closure_cache", dict)
    closed = closures.get(conclusions)
    if closed is None:
        closed = closures[conclusions] = cl_closure(system.strict_rules, conclusions)
    return closed


def check_closure(system: ArgumentationSystem, extension_conclusions) -> PostulateReport:
    conclusions = frozenset(extension_conclusions)
    missing = sorted(_strict_closure(system, conclusions) - conclusions, key=fm.formula_key)
    return PostulateReport(
        postulate="closure",
        instance_digest=system_digest(system),
        verdict=FAIL if missing else PASS,
        witness={"missing": [str(f) for f in missing]} if missing else None,
        rule_universe=_universe_of(system),
    )


def check_direct_consistency(conclusions, instance_digest: str = "") -> PostulateReport:
    pair = next(fm.complementary_pairs(conclusions), None)
    witness = {"pair": [str(f) for f in pair]} if pair else None
    return PostulateReport(
        postulate="direct_consistency",
        instance_digest=instance_digest,
        verdict=FAIL if witness else PASS,
        witness=witness,
    )


def check_indirect_consistency(system: ArgumentationSystem, extension_conclusions) -> PostulateReport:
    """Direct consistency of the closure of the conclusions under the strict rules."""
    closed = _strict_closure(system, frozenset(extension_conclusions))
    return replace(
        check_direct_consistency(closed, instance_digest=system_digest(system)),
        postulate="indirect_consistency",
        rule_universe=_universe_of(system),
    )


def conclusion_reports(system: ArgumentationSystem, checks=("closure", "consistency"), **bounds):
    """Closure and/or direct and indirect consistency reports on every
    preferred conclusion set of the system.  ``bounds`` go to
    :func:`jsbaf.arguments.preferred_conclusions`; when it hits one, the
    result is one INCONCLUSIVE report per requested postulate instead."""
    digest = system_digest(system)
    try:
        families = preferred_conclusions(system, **bounds)
    except ResourceLimitError as exc:
        names = ["closure"] if "closure" in checks else []
        if "consistency" in checks:
            names += ["direct_consistency", "indirect_consistency"]
        return [
            PostulateReport(name, digest, INCONCLUSIVE, {"reason": str(exc)}, _universe_of(system),
                            {exc.bound_name: exc.bound_value})
            for name in names
        ]
    reports = []
    for family in families:
        if "closure" in checks:
            reports.append(check_closure(system, family))
        if "consistency" in checks:
            reports.append(check_direct_consistency(family, instance_digest=digest))
            reports.append(check_indirect_consistency(system, family))
    return reports


def restrict_conclusions(conclusion_families, atom_names) -> frozenset[frozenset[Formula]]:
    """Restrict each conclusion set to the formulas over the given atoms;
    families that collapse to the same restriction are merged."""
    atom_names = frozenset(atom_names)
    return frozenset(
        frozenset(f for f in family if f.atom_set <= atom_names)
        for family in conclusion_families
    )


def _family_key(families) -> list[list[str]]:
    return sorted(sorted(str(f) for f in fam) for fam in families)


@dataclass
class NonInterferenceBudget:
    max_args: int = 300
    max_depth: int = 8
    max_enum_args: int = 40
    max_nonstrict: int = 21


def check_non_interference(
    s1: ArgumentationSystem,
    s2: ArgumentationSystem,
    merge: str = "raw",
    cross_rules: tuple[StrictRule, ...] = (),
    budget: NonInterferenceBudget | None = None,
) -> PostulateReport:
    """Compare each side's restricted preferred conclusions with the union's.

    The union is built and translated once, and its engine is made once
    from the translation's masks, with no :class:`~jsbaf.framework.Jsbaf`.
    Each side's engine is the union's restricted to the arguments built from
    that side's rules (:func:`jsbaf.arguments.side_mask`), which is the side
    translation's engine but for argument ids; its arguments are among the
    union's, so each side is within every bound its union is within.  The
    preferred IN masks of every engine go straight to conclusion sets."""
    budget = budget or NonInterferenceBudget()
    union = union_systems(s1, s2, merge=merge, cross_rules=cross_rules)
    report = PostulateReport(
        postulate="non_interference",
        instance_digest=system_digest(union),
        verdict=PASS,
        rule_universe={"union": _universe_of(union), "merge_policy": merge},
        budget=dict(vars(budget)),
    )

    try:
        translation = complete_translation(union, budget.max_args, budget.max_depth, budget.max_nonstrict)
        _check_enum_bound(len(translation.ids), budget.max_enum_args)
    except ResourceLimitError as exc:
        report.verdict = INCONCLUSIVE
        report.witness = {"reason": f"union: {exc}"}
        return report
    engine = translation.engine
    union_raw = preferred_sets(translation, engine)
    for label, side in (("side1", s1), ("side2", s2)):
        side_atoms = atoms_of_system(side)
        side_preferred = preferred_sets(translation, engine.restrict(side_mask(translation, side)))
        side_families = restrict_conclusions(side_preferred, side_atoms)
        union_restricted = restrict_conclusions(union_raw, side_atoms)
        if side_families != union_restricted:
            report.verdict = FAIL
            report.witness = {
                "side": label,
                "atoms": sorted(side_atoms),
                "side_conclusions": _family_key(side_families),
                "union_conclusions": _family_key(union_restricted),
            }
            return report
    return report


def shrink_failing_system(system: ArgumentationSystem, still_fails) -> ArgumentationSystem:
    """Greedily drop defeasible rules, then strict rules, while
    ``still_fails`` keeps returning True; used to minimise fuzz
    reproductions."""
    current = system
    progress = True
    while progress:
        progress = False
        candidates = [
            replace(current, defeasible_rules=tuple(r for r in current.defeasible_rules if r.id != rule.id))
            for rule in current.defeasible_rules
        ] + [
            replace(current, strict_rules=tuple(r for r in current.strict_rules if r.id != rule.id))
            for rule in current.strict_rules
        ]
        for candidate in candidates:
            try:
                if still_fails(candidate):
                    current = candidate
                    progress = True
                    break
            except JsbafError:
                continue
    return current

