"""Random instance generation for fuzzing.

Generated systems use a literal vocabulary (atoms and negated atoms) for
axioms and defeasible rules, and are *saturated*: for every base formula
``f`` (an axiom or defeasible consequent) the consequence rule
``f -> !!f`` is added, and likewise for every concludable body ``g`` of
a base formula ``!g``.  Saturation matters: the conclusions-complement
mechanics of the semantics need the double-negation step to be available
whenever two derivable conclusions contradict each other, which a bare
random rule set would usually lack.  Optionally, conjunction
introductions over base-formula pairs are added, together with the
double-negation step for their products.

Unions for non-interference testing get *cross* conjunction
introductions over pairs of base formulas taken from the two sides (one
each); their products mix atoms from both sides, so no saturation is
needed for them.

Everything is driven by explicitly seeded ``random.Random`` instances
and sorted iteration, so a (profile, seed) pair fully determines the
output.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, replace

from . import formulas as fm
from .arguments import build_arguments
from .errors import InstanceError
from .formulas import And, Formula, Not, Var
from .framework import Jsbaf, strict_args, validate_structure
from .system import (
    ArgumentationSystem,
    DefeasibleRule,
    StrictRule,
    make_system,
    validate_system,
)

RANK_RANGE = (0, 2)  # ranks of the defeasible rules, drawn uniformly
NAMING_PROBABILITY = 0.2  # chance that a defeasible rule gets a name
UNDERCUTTER_PROBABILITY = 0.7  # given a named rule, add a rule for the complement
MAX_REGENERATE = 50  # draws before generate_system gives up
BUILD_DEPTH = 8  # construction depth a generated system must not hit


@dataclass
class FuzzProfile:
    atom_count: tuple[int, int] = (2, 4)
    defeasible_count: tuple[int, int] = (1, 3)
    axiom_count: tuple[int, int] = (0, 1)
    antecedent_count: tuple[int, int] = (0, 1)
    conjunction_probability: float = 0.25  # chance of a conjunctive defeasible consequent
    conjunction_intro: bool = False  # same-side conjunction introductions
    atom_prefix: str = "p"
    rule_prefix: str = ""
    build_args: int = 300  # discard systems whose own construction truncates


def _literal(rng: random.Random, atom_names) -> Formula:
    atom = Var(rng.choice(atom_names))
    return Not(atom) if rng.random() < 0.5 else atom


def saturation_rules(base_formulas, id_prefix: str = "sat") -> tuple[StrictRule, ...]:
    """Double-negation introductions for the base formulas and for the
    bodies of negated base formulas."""
    sources = set(base_formulas)
    for f in base_formulas:
        if isinstance(f, Not):
            sources.add(f.sub)
    ordered = sorted(sources, key=fm.formula_key)
    return tuple(StrictRule(f"{id_prefix}{i}", (f,), Not(Not(f))) for i, f in enumerate(ordered))


def conjunction_intro_rules(left_pool, right_pool, id_prefix="conj", start=0) -> tuple[StrictRule, ...]:
    """Rules f, g -> f & g for f from the left pool and g from the right,
    conjuncts in canonical order, distinct formulas only, with ids
    ``<id_prefix><k>`` for k from ``start``."""
    rules = []
    pairs = set()
    for f in sorted(set(left_pool), key=fm.formula_key):
        for g in sorted(set(right_pool), key=fm.formula_key):
            if f == g:
                continue
            a, b = sorted((f, g), key=fm.formula_key)
            if (a.key, b.key) in pairs:
                continue
            pairs.add((a.key, b.key))
            rules.append(StrictRule(f"{id_prefix}{start + len(rules)}", (a, b), And(a, b)))
    return tuple(rules)


def base_formulas(system: ArgumentationSystem) -> list[Formula]:
    """Axioms plus defeasible consequents, in canonical order."""
    pool = {r.consequent for r in system.defeasible_rules}
    pool.update(system.axioms)
    return sorted(pool, key=fm.formula_key)


def cross_closure_rules(s1: ArgumentationSystem, s2: ArgumentationSystem) -> tuple[StrictRule, ...]:
    """Conjunction introductions across two disjoint systems' base formulas,
    with ids ``x<k>`` numbered past every such id either system uses."""
    used = (r.id for s in (s1, s2) for r in s.strict_rules + s.defeasible_rules)
    start = 1 + max((int(i[1:]) for i in used if re.fullmatch("x[0-9]+", i)), default=-1)
    return conjunction_intro_rules(base_formulas(s1), base_formulas(s2), id_prefix="x", start=start)


def generate_system(profile: FuzzProfile, seed=None, rng: random.Random | None = None) -> ArgumentationSystem:
    """Deterministic per (profile, seed): a validated, saturated system."""
    rng = rng or random.Random(seed)
    for _ in range(MAX_REGENERATE):
        system = _generate_once(profile, rng)
        if not validate_system(system).ok:
            continue
        build = build_arguments(system, max_args=profile.build_args, max_depth=BUILD_DEPTH)
        if not build.truncated:
            return system
    raise InstanceError("could not generate a valid system within the retry budget")


def _generate_once(profile: FuzzProfile, rng: random.Random) -> ArgumentationSystem:
    p = profile
    atom_names = [f"{p.atom_prefix}{i}" for i in range(rng.randint(*p.atom_count))]

    defeasible: list[DefeasibleRule] = []
    rank: dict[str, int] = {}
    names: dict[int, Formula] = {}
    n_def = rng.randint(*p.defeasible_count)
    for i in range(n_def):
        if rng.random() < p.conjunction_probability and len(atom_names) >= 2:
            first, second = rng.sample(atom_names, 2)
            a, b = sorted((Var(first), Var(second)), key=fm.formula_key)
            conj = And(a, b)
            consequent: Formula = Not(conj) if rng.random() < 0.5 else conj
        else:
            consequent = _literal(rng, atom_names)
        antecedents = tuple(
            lit
            for lit in (
                _literal(rng, atom_names) for _ in range(rng.randint(*p.antecedent_count))
            )
            if lit != consequent  # direct self-support only feeds the depth bound
        )
        rule_id = f"{p.rule_prefix}d{i}"
        name = None
        if rng.random() < NAMING_PROBABILITY:
            name = Var(rng.choice(atom_names))
            names[i] = name
        defeasible.append(DefeasibleRule(rule_id, antecedents, consequent, name))
        rank[rule_id] = rng.randint(*RANK_RANGE)

    axioms = {
        _literal(rng, atom_names)
        for _ in range(rng.randint(*p.axiom_count))
        if atom_names
    }

    # a named rule is only interesting if something can conclude the
    # complement of its name
    extra = len(defeasible)
    for i, name in sorted(names.items()):
        if rng.random() < UNDERCUTTER_PROBABILITY:
            rule_id = f"{p.rule_prefix}d{extra}"
            defeasible.append(DefeasibleRule(rule_id, (), Not(name)))
            rank[rule_id] = rng.randint(*RANK_RANGE)
            extra += 1

    base = {r.consequent for r in defeasible}
    base.update(axioms)
    strict: list[StrictRule] = list(
        saturation_rules(sorted(base, key=fm.formula_key), id_prefix=f"{p.rule_prefix}sat")
    )
    if p.conjunction_intro:
        literal_base = [f for f in sorted(base, key=fm.formula_key) if not isinstance(f, And)]
        intro = conjunction_intro_rules(literal_base, literal_base, id_prefix=f"{p.rule_prefix}c")
        strict.extend(intro)
        products = sorted({r.consequent for r in intro}, key=fm.formula_key)
        strict.extend(saturation_rules(products, id_prefix=f"{p.rule_prefix}psat"))

    return make_system(
        atoms=atom_names or [f"{p.atom_prefix}0"],
        axioms=axioms,
        strict=strict,
        defeasible=defeasible,
        rank=rank,
    )


def generate_disjoint_pair(
    profile: FuzzProfile, seed=None, rng: random.Random | None = None
) -> tuple[ArgumentationSystem, ArgumentationSystem]:
    """Two syntactically disjoint systems drawn from the same profile."""
    rng = rng or random.Random(seed)
    left = replace(profile, atom_prefix="p", rule_prefix="l_")
    right = replace(profile, atom_prefix="q", rule_prefix="r_")
    return generate_system(left, rng=rng), generate_system(right, rng=rng)


def generate_ground_framework(seed=None, rng: random.Random | None = None, max_args: int = 8) -> Jsbaf:
    """A random preference-free framework honouring the structural
    restrictions: acyclic supports (tails only reference earlier
    arguments), one supporting set per argument, strict arguments
    unattacked."""
    rng = rng or random.Random(seed)
    n = rng.randint(3, max_args)
    ids = [f"g{i}" for i in range(n)]
    supports: dict[str, frozenset[str]] = {}
    for i, arg in enumerate(ids):
        if rng.random() < 0.45:
            pool = ids[:i]
            size = rng.randint(0, min(3, len(pool)))
            supports[arg] = frozenset(rng.sample(pool, size))
    attacks = {(a, b) for a in ids for b in ids if rng.random() < 0.12}
    strict = strict_args(Jsbaf(args=tuple(ids), attacks=frozenset(), supports=supports))
    attacks = frozenset((a, b) for a, b in attacks if b not in strict)
    g = Jsbaf(args=tuple(ids), attacks=attacks, supports=supports)
    report = validate_structure(g)
    if not report.ok:
        raise InstanceError(f"generator produced an invalid framework: {report.failures}")
    return g
