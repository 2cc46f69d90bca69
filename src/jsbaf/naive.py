"""Direct, slow transcriptions of the semantics definitions.

These deliberately share no machinery with the engine in
:mod:`jsbaf.framework`: legality walks the support relation as written
in the definitions, chains are enumerated exhaustively, and admissible
labelings are found by scanning all 3**n assignments.  They exist as an
independent cross-check path (the ``--oracle`` solver mode and the
equivalence tests drive them), so keep them straightforward rather than
fast.

The attack relations between the arguments of a rule system are here
too, tested pair by pair as defined.  An undercut targets the
application of a named defeasible rule through the structural
complement of its name.  A gen-rebut targets a defeasible argument b
with a conclusion of the shape ``!conj(Gamma)`` for some non-empty set
Gamma of conclusions of sub-arguments of b, where the conjunction is
taken in canonical formula order.  Preferences are lifted from
defeasible rules to arguments by the elitist weakest link: an argument
is at most as strong as another when its weakest defeasible rule is at
most as highly ranked as every defeasible rule of the other, which for
integer ranks reduces to comparing minimum ranks (strict arguments
count as maximal).  A defeat is an undercut, or a gen-rebut not coming
from a strictly weaker argument.

Forced-IN and ground-complete labelings of the preference-free grounded
semantics are here as defined too: each support is checked by scanning
the admissible catalogue against itself for an extension of every base.
So are the ADSub and crucial (CSub) sub-argument sets of an argument,
and the closure of a set of formulas under strict rules, by full passes
over the rules until nothing changes.

Truth-table entailment and satisfiability are here row by row: each
formula is evaluated recursively under every total assignment of its
atoms.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Mapping

from . import formulas as fm
from .arguments import TOP_CONSEQUENCE, TOP_DEFEASIBLE, Argument, sub_args
from .errors import EvaluationError, ResourceLimitError
from .formulas import DEFAULT_ATOM_BOUND, And, Formula, Not, Var
from .framework import IN, OUT, UNDEC, Jsbaf, Labeling
from .system import ArgumentationSystem, _cached

NAIVE_MAX_ARGS = 12


def _relations(framework: Jsbaf):
    """Supports as (tail, head) in head order, attackers, strict arguments."""
    attackers: dict[str, list[str]] = {a: [] for a in framework.args}
    for a, b in sorted(framework.attacks):
        attackers[b].append(a)
    supports = [(tail, head) for head, tail in sorted(framework.supports.items())]
    return supports, attackers, naive_strict_args(framework)


def _chains_from(supports, first):
    """Every support chain that starts with the given support: sequences
    (S0, b0), ..., (Sn, bn) where each head feeds the next tail."""
    stack = [[first]]
    while stack:
        chain = stack.pop()
        yield chain
        _, head = chain[-1]
        for tail, nxt in supports:
            if head in tail and (tail, nxt) not in chain:
                stack.append(chain + [(tail, nxt)])


def _legally_in(framework, relations, lab, arg, use_ranks) -> bool:
    supports, attackers, _ = relations
    if any(lab[a] != OUT for a in attackers[arg]):
        return False
    for tail, head in supports:
        if arg not in tail:
            continue
        others = tail - {arg}
        if use_ranks and any(framework.rank_of(arg) > framework.rank_of(b) for b in others):
            continue
        # an UNDEC head needs a co-supporter not IN, an OUT head an OUT one or two UNDEC ones
        if lab[head] == UNDEC and all(lab[b] == IN for b in others):
            return False
        undec = sum(1 for b in others if lab[b] == UNDEC)
        if lab[head] == OUT and not any(lab[b] == OUT for b in others) and undec < 2:
            return False
    return True


def _legally_out(framework, relations, lab, arg, use_ranks) -> bool:
    supports, attackers, _ = relations
    if any(lab[a] == IN for a in attackers[arg]):
        return True
    for tail, head in supports:
        if arg not in tail:
            continue
        others = tail - {arg}
        if use_ranks and any(framework.rank_of(arg) > framework.rank_of(b) for b in others):
            continue
        if any(lab[b] != IN for b in others):
            continue
        for chain in _chains_from(supports, (tail, head)):
            if any(lab[h] != OUT for _, h in chain):
                continue
            # every later tail, less the head before it, all IN
            if any(lab[b] != IN for (_, prev), (t, _) in zip(chain, chain[1:]) for b in t - {prev}):
                continue
            if any(lab[c] == IN for c in attackers[chain[-1][1]]):
                return True
    return False


def _is_admissible(framework, relations, lab, use_ranks) -> bool:
    if any(lab[a] != IN for a in relations[2]):
        return False
    for arg in framework.args:
        if lab[arg] == IN and not _legally_in(framework, relations, lab, arg, use_ranks):
            return False
        if (lab[arg] == OUT) != _legally_out(framework, relations, lab, arg, use_ranks):
            return False
    return True


def naive_legally_in(framework: Jsbaf, labeling: Labeling, arg: str, use_ranks: bool = True) -> bool:
    return _legally_in(framework, _relations(framework), labeling.as_dict(), arg, use_ranks)


def naive_legally_out(framework: Jsbaf, labeling: Labeling, arg: str, use_ranks: bool = True) -> bool:
    return _legally_out(framework, _relations(framework), labeling.as_dict(), arg, use_ranks)


def naive_strict_args(framework: Jsbaf) -> frozenset[str]:
    strict: set[str] = set()
    while new := {h for h, tail in framework.supports.items() if h not in strict and tail <= strict}:
        strict |= new
    return frozenset(strict)


def naive_is_admissible(framework: Jsbaf, labeling: Labeling, use_ranks: bool = True) -> bool:
    return _is_admissible(framework, _relations(framework), labeling.as_dict(), use_ranks)


def naive_enumerate_admissible(
    framework: Jsbaf, use_ranks: bool = True, max_args: int = NAIVE_MAX_ARGS
) -> list[Labeling]:
    """Scan all 3**n labelings; only for cross-checking small instances."""
    if len(framework.args) > max_args:
        raise ResourceLimitError(
            f"{len(framework.args)} arguments exceed the naive bound of {max_args}",
            bound_name="naive_max_args",
            bound_value=max_args,
        )
    relations = _relations(framework)
    found = []
    for assignment in product((IN, OUT, UNDEC), repeat=len(framework.args)):
        lab = dict(zip(framework.args, assignment))
        if _is_admissible(framework, relations, lab, use_ranks):
            in_set, out_set = ({a for a in lab if lab[a] == x} for x in (IN, OUT))
            found.append(Labeling.from_sets(framework.args, in_set, out_set))
    return sorted(found, key=Labeling.vector)


def naive_enumerate_preferred(
    framework: Jsbaf, use_ranks: bool = True, max_args: int = NAIVE_MAX_ARGS
) -> list[Labeling]:
    admissible = naive_enumerate_admissible(framework, use_ranks, max_args)
    return [
        lab
        for lab in admissible
        if not any(lab.in_set < other.in_set for other in admissible)
    ]


# --- forced-IN and ground-complete labelings, on the preference-free view --


def naive_forced_in(
    framework: Jsbaf, labeling: Labeling, arg: str, catalogue: list[Labeling] | None = None
) -> bool:
    """All attackers of ``arg`` are OUT, and every support (S, h) with
    ``arg`` in S and h not IN is safe (every head on every chain from it
    has all its attackers OUT), or every admissible base that gives h a
    label at least as informative as ``labeling`` does extends to an
    admissible labeling that keeps h's label and has ``arg`` legally IN.
    Ranks are ignored; ``catalogue`` defaults to the naive admissible
    labelings."""
    supports, attackers, _ = relations = _relations(framework)
    lab = labeling.as_dict()
    if any(lab[a] != OUT for a in attackers[arg]):
        return False
    for tail, head in supports:
        if arg not in tail or lab[head] == IN:
            continue
        reach = {h for chain in _chains_from(supports, (tail, head)) for _, h in chain}
        if all(lab[a] == OUT for h in reach for a in attackers[h]):
            continue
        if catalogue is None:
            catalogue = naive_enumerate_admissible(framework, use_ranks=False)
        for base in catalogue:
            target = base.label(head)
            if lab[head] == OUT and target != OUT:
                continue  # not at least as informative about the head
            if not any(
                base.in_set <= cand.in_set
                and base.out_set <= cand.out_set
                and cand.label(head) == target
                and _legally_in(framework, relations, cand.as_dict(), arg, use_ranks=False)
                for cand in catalogue
            ):
                return False
    return True


def naive_is_ground_complete(
    framework: Jsbaf, labeling: Labeling, catalogue: list[Labeling] | None = None
) -> bool:
    """Admissible without ranks, with every forced-IN argument IN."""
    if not naive_is_admissible(framework, labeling, use_ranks=False):
        return False
    if catalogue is None:
        catalogue = naive_enumerate_admissible(framework, use_ranks=False)
    return all(
        labeling.label(a) == IN
        for a in framework.args
        if naive_forced_in(framework, labeling, a, catalogue)
    )


# --- sub-argument sets and attacks of a rule system, pair by pair ---------


def ad_sub(argument: Argument) -> frozenset[Argument]:
    """Sub-arguments whose top rule is axiomatic or defeasible."""
    return frozenset(a for a in sub_args(argument) if a.top_kind != TOP_CONSEQUENCE)


def c_sub(argument: Argument) -> frozenset[Argument]:
    """Crucial sub-arguments: the frontier of axiomatic/defeasible
    sub-arguments reached by walking consequence-rule applications
    backwards as far as possible."""
    if argument.top_kind != TOP_CONSEQUENCE:
        return frozenset((argument,))
    out: set[Argument] = set()
    stack = list(argument.subs)
    while stack:
        a = stack.pop()
        if a.top_kind != TOP_CONSEQUENCE:
            out.add(a)
        else:
            stack.extend(a.subs)
    return frozenset(out)


def undercuts(a: Argument, b: Argument, system: ArgumentationSystem) -> bool:
    """a concludes the complement of the name of a defeasible rule applied in b."""
    names = _cached(system, "_names_cache", lambda: {r.id: r.name for r in system.defeasible_rules})
    named = (names.get(bp.rule_id) for bp in sub_args(b) if bp.top_kind == TOP_DEFEASIBLE)
    return any(name is not None and fm.is_neg_complement(a.conclusion, name) for name in named)


def gen_rebuts(a: Argument, b: Argument) -> bool:
    """a's conclusion is ``!conj(Gamma)`` for a non-empty Gamma of
    sub-argument conclusions of the defeasible argument b."""
    if not b.defeasible_rules or not isinstance(a.conclusion, Not):
        return False
    targets = frozenset(x.conclusion for x in sub_args(b))
    return any(all(f in targets for f in peel) for peel in fm.conjunction_peels(a.conclusion.sub))


def min_rank(a: Argument, system: ArgumentationSystem) -> int | None:
    """Rank of the weakest defeasible rule used; None means strict (maximal)."""
    return min((system.rank[r] for r in a.defeasible_rules), default=None)


def ewl_leq(a: Argument, b: Argument, system: ArgumentationSystem) -> bool:
    """Elitist weakest link: a is at most as preferred as b."""
    ra, rb = min_rank(a, system), min_rank(b, system)
    return rb is None or (ra is not None and ra <= rb)


def defeats(a: Argument, b: Argument, system: ArgumentationSystem) -> bool:
    """Undercut, or gen-rebut not coming from a strictly weaker argument."""
    if undercuts(a, b, system):
        return True
    return gen_rebuts(a, b) and not (ewl_leq(a, b, system) and not ewl_leq(b, a, system))


def naive_cl_closure(strict_rules, formulas) -> frozenset[Formula]:
    """Smallest superset closed under the strict rules: each pass adds the
    consequent of every rule whose antecedents all hold, until a pass adds
    nothing."""
    out = set(formulas)
    while True:
        new = {r.consequent for r in strict_rules if all(a in out for a in r.antecedents)} - out
        if not new:
            return frozenset(out)
        out |= new


# --- the truth table, row by row -------------------------------------------


def satisfies(interpretation: Mapping[str, bool], formula: Formula) -> bool:
    """Standard recursive evaluation under a total assignment."""
    if isinstance(formula, Var):
        try:
            return interpretation[formula.name]
        except KeyError:
            raise EvaluationError(f"atom {formula.name!r} outside the interpretation universe") from None
    if isinstance(formula, Not):
        return not satisfies(interpretation, formula.sub)
    if isinstance(formula, And):
        return satisfies(interpretation, formula.left) and satisfies(interpretation, formula.right)
    raise TypeError(f"not a formula: {formula!r}")


def _interpretations(formulas: tuple[Formula, ...], atom_bound: int):
    names = sorted(fm.atoms_of(formulas))
    if len(names) > atom_bound:
        raise ResourceLimitError(
            f"{len(names)} atoms exceed the truth-table bound of {atom_bound}",
            bound_name="atom_bound",
            bound_value=atom_bound,
        )
    for values in product((False, True), repeat=len(names)):
        yield dict(zip(names, values))


def naive_entails(gamma: Iterable[Formula], psi: Formula, atom_bound: int = DEFAULT_ATOM_BOUND) -> bool:
    """Every assignment that satisfies all of ``gamma`` satisfies ``psi``."""
    gamma = tuple(gamma)
    return all(
        satisfies(interp, psi)
        for interp in _interpretations(gamma + (psi,), atom_bound)
        if all(satisfies(interp, g) for g in gamma)
    )


def naive_satisfiable(gamma: Iterable[Formula], atom_bound: int = DEFAULT_ATOM_BOUND) -> bool:
    """Some assignment satisfies all of ``gamma``."""
    gamma = tuple(gamma)
    return any(all(satisfies(interp, g) for g in gamma) for interp in _interpretations(gamma, atom_bound))
