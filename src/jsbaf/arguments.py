"""Argument construction and the translation of a rule system into a framework.

An argument is a finite derivation tree: a top rule applied to
sub-arguments whose conclusions match the rule's antecedents position by
position.  A build keeps one object per derivation tree, and every
sub-argument is that build's own object, so within a build two arguments
are the same exactly when they are the same object; ``key``, the tree
written out, is the identity across builds and the sort key.  So within
a build the pair (rule id, tuple of sub-arguments) names a derivation,
hashing by identity, and construction skips a pair it has made before
it makes an argument.

The translation is index masks over the build order, where every head
comes after the arguments supporting it: per argument its attackers, per
supported head its supporting set, the rank classes and the strict mask.
The engine is made from these masks, and the string-id :class:`Jsbaf`
only when something reads it.  Its attacks are the defeats defined in
:mod:`jsbaf.naive`, found by propagating masks along direct
sub-arguments rather than by testing every ordered pair.  A pass in
build order gives each argument its weakest-link rank and its
undercutters, those of its direct sub-arguments joined with the
arguments concluding a complement of its own rule's name.  A pass in
reverse build order gives each argument the mask of the non-strict
arguments containing it, and so each formula the mask of the non-strict
arguments with a sub-argument concluding it.  An argument concluding ``!phi`` may
gen-rebut the arguments in that mask under every element of one
sequence of ``conjunction_peels(phi)``; only these candidates get the
elitist weakest-link test, on minimum ranks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from types import MappingProxyType

from . import formulas as fm
from .errors import ResourceLimitError
from .formulas import Formula, Not
from .framework import DEFAULT_MAX_ENUM_ARGS, Jsbaf, _bits, _check_enum_bound, _checked_jsbaf, _Engine
from .system import ArgumentationSystem, DefeasibleRule, StrictRule, _cached

DEFAULT_MAX_ARGS = 5000
DEFAULT_MAX_DEPTH = 6

TOP_AXIOM = "axiom"
TOP_CONSEQUENCE = "consequence"
TOP_DEFEASIBLE = "defeasible"


class Argument:
    """Immutable derivation tree; its sets of defeasible rule ids and of
    sub-arguments are made on first read."""

    __slots__ = ("rule_id", "subs", "conclusion", "top_kind", "key", "depth", "_rule_set", "_sub_set")

    def __init__(self, rule_id: str, subs: tuple["Argument", ...], conclusion: Formula, top_kind: str):
        self.rule_id = rule_id
        self.subs = subs
        self.conclusion = conclusion
        self.top_kind = top_kind
        self.key = rule_id + "(" + ",".join([s.key for s in subs]) + ")"
        self.depth = 1 + max([s.depth for s in subs], default=0)
        self._rule_set = self._sub_set = None

    @property
    def defeasible_rules(self) -> frozenset[str]:
        """Ids of the defeasible rules applied in the tree, made on first read."""
        if self._rule_set is None:
            dr = frozenset((self.rule_id,)) if self.top_kind == TOP_DEFEASIBLE else frozenset()
            for s in self.subs:
                dr |= s.defeasible_rules
            self._rule_set = dr
        return self._rule_set

    def __repr__(self):
        return f"Argument({self.key} : {self.conclusion})"


def sub_args(argument: Argument) -> frozenset[Argument]:
    """All sub-arguments, the argument itself included."""
    if argument._sub_set is None:
        out = {argument}
        for s in argument.subs:
            out |= sub_args(s)
        argument._sub_set = frozenset(out)
    return argument._sub_set


def is_strict(argument: Argument) -> bool:
    return not argument.defeasible_rules


@dataclass
class BuildResult:
    """The arguments built, canonically ordered, and the bound that stopped
    construction as ``(name, value)``, or None at the least fixpoint."""

    arguments: tuple[Argument, ...]
    bound: tuple[str, int] | None = None

    @property
    def truncated(self) -> bool:
        return self.bound is not None


def build_arguments(
    system: ArgumentationSystem, max_args: int = DEFAULT_MAX_ARGS, max_depth: int = DEFAULT_MAX_DEPTH
) -> BuildResult:
    """Close the rule set bottom-up, each derivation (rule, sub-arguments)
    built once.

    Stops at the least fixpoint or at the first candidate past
    ``max_args`` / ``max_depth``, and then records that bound.  The output
    order is canonical: by depth, then by serialised form.
    """
    if max_args <= 0 or max_depth <= 0:
        raise ValueError("construction limits must be positive")
    rules: list[tuple[str, StrictRule | DefeasibleRule]] = []
    for rule in system.strict_rules:
        rules.append((TOP_AXIOM if rule.axiomatic else TOP_CONSEQUENCE, rule))
    for rule in system.defeasible_rules:
        rules.append((TOP_DEFEASIBLE, rule))
    rules.sort(key=lambda kr: kr[1].id)

    known: dict[tuple, Argument] = {}  # (rule id, sub-arguments) -> argument
    by_conclusion: dict[Formula, list[Argument]] = {}
    bound = None
    changed = True
    while changed and bound is None:
        changed = False
        for kind, rule in rules:
            pools = [by_conclusion.get(f, ()) for f in rule.antecedents]
            if not all(pools):
                continue
            # product copies the pools first: additions take effect next
            # round, which keeps the iteration order independent of dict internals
            for combo in product(*pools):
                tag = (rule.id, combo)
                if tag in known:
                    continue
                argument = Argument(rule.id, combo, rule.consequent, kind)
                if argument.depth > max_depth:
                    bound = ("max_depth", max_depth)
                    break
                if len(known) >= max_args:
                    bound = ("max_args", max_args)
                    break
                known[tag] = argument
                by_conclusion.setdefault(argument.conclusion, []).append(argument)
                changed = True
            if bound is not None:
                break

    ordered = tuple(sorted(known.values(), key=lambda a: (a.depth, a.key)))
    return BuildResult(arguments=ordered, bound=bound)


# --- translation into a framework ----------------------------------------


@dataclass
class Translation:
    """The framework of a build's arguments as masks over their build order.

    Index i is ``ids[i]``, the argument ``argument_of[ids[i]]`` and the
    engine's index at once: arguments are ordered by depth, and the
    zero-padded ids sort the same way.  ``attackers`` maps an argument, and
    ``supports`` a supported head, to a mask of its attackers or supporting
    set; ``rank`` holds preference classes and ``strict_mask`` the arguments
    with no defeasible rule.  The engine and the :class:`Jsbaf` are each
    made on first read and kept."""

    ids: tuple[str, ...]
    argument_of: dict[str, Argument]
    attackers: list[int]
    supports: dict[int, int]
    rank: list[int]
    strict_mask: int
    truncated: bool

    @property
    def engine(self) -> _Engine:
        """The engine, with no support walk: a head is deeper than its
        supporters, so descending index order visits every head first."""
        order = range(len(self.ids) - 1, -1, -1)
        return _cached(self, "_engine_cache", lambda: _Engine(
            self.ids, list(order), self.attackers, self.supports, self.rank, self.strict_mask))

    @property
    def framework(self) -> Jsbaf:
        return _cached(self, "_framework_cache", self._spell_out)

    def _spell_out(self) -> Jsbaf:
        """The :class:`Jsbaf` with every mask spelled out as argument ids.
        The ids are sorted identifiers and the masks name only them, so the
        fields are checked by construction and set as they are."""
        ids = self.ids

        def names(mask: int) -> list[str]:
            out = []
            while mask:
                low = mask & -mask
                out.append(ids[low.bit_length() - 1])
                mask ^= low
            return out

        return _checked_jsbaf(
            ids,
            frozenset((a, b) for b, mask in zip(ids, self.attackers) if mask for a in names(mask)),
            MappingProxyType({ids[h]: frozenset(names(tail)) for h, tail in self.supports.items()}),
            MappingProxyType(dict(zip(ids, self.rank))),
        )


def framework_from_system(system: ArgumentationSystem, build: BuildResult | None = None) -> Translation:
    """Translate the arguments of ``build``, by default those built under
    the default bounds: attacks are defeats, every strict-rule application
    becomes a joint support, and preference ranks are the elitist
    weakest-link classes with the strict class on top."""
    if build is None:
        build = build_arguments(system)
    args = build.arguments
    width = max(3, len(str(max(len(args), 1))))
    ids = tuple(f"a{str(i).zfill(width)}" for i in range(len(args)))
    index = {a: i for i, a in enumerate(args)}
    concluding: dict[Formula, int] = {}  # formula -> the arguments concluding it
    for i, a in enumerate(args):
        concluding[a.conclusion] = concluding.get(a.conclusion, 0) | 1 << i
    complements = {}
    for rule in system.defeasible_rules:
        name = rule.name
        if name is not None:
            complements[rule.id] = (Not(name), name.sub) if isinstance(name, Not) else (Not(name),)

    # sub-arguments first: the weakest-link rank (None: strict) and the undercutters
    ranks: list[int | None] = []
    attackers = []
    supports = {}
    for i, a in enumerate(args):
        low, cut, tail = None, 0, 0
        if a.top_kind == TOP_DEFEASIBLE:
            low = system.rank[a.rule_id]
            for key in complements.get(a.rule_id, ()):
                cut |= concluding.get(key, 0)
        for sub in a.subs:
            s = index[sub]
            cut |= attackers[s]
            tail |= 1 << s
            r = ranks[s]
            if r is not None and (low is None or r < low):
                low = r
        if a.top_kind != TOP_DEFEASIBLE:
            supports[i] = tail
        ranks.append(low)
        attackers.append(cut)
    strict_mask = sum(1 << i for i, r in enumerate(ranks) if r is None)

    # heads first: the non-strict arguments containing each argument, and so
    # formula -> the non-strict arguments with a sub-argument concluding it
    containing = [0 if r is None else 1 << i for i, r in enumerate(ranks)]
    rebut_pool: dict[Formula, int] = {}
    for i in range(len(args) - 1, -1, -1):
        above = containing[i]
        if above:
            a = args[i]
            for s in a.subs:
                containing[index[s]] |= above
            rebut_pool[a.conclusion] = rebut_pool.get(a.conclusion, 0) | above

    for i, a in enumerate(args):
        if isinstance(a.conclusion, Not):
            rebutted = 0
            for peel in fm.conjunction_peels(a.conclusion.sub):
                mask = -1
                for f in peel:
                    mask &= rebut_pool.get(f, 0)
                rebutted |= mask
            # a gen-rebut from a strictly weaker argument is no defeat
            for j in _bits(rebutted):
                if ranks[i] is None or ranks[i] >= ranks[j]:
                    attackers[j] |= 1 << i

    rank_index = {r: i for i, r in enumerate(sorted({r for r in ranks if r is not None}))}
    rank = [len(rank_index) if r is None else rank_index[r] for r in ranks]
    return Translation(ids, dict(zip(ids, args)), attackers, supports, rank, strict_mask, build.truncated)


def preferred_conclusions(
    system: ArgumentationSystem,
    max_args: int = DEFAULT_MAX_ARGS,
    max_depth: int = DEFAULT_MAX_DEPTH,
    max_enum_args: int = DEFAULT_MAX_ENUM_ARGS,
) -> list[frozenset[Formula]]:
    """Conclusion sets of the preferred labelings of the translated
    framework, canonically ordered.

    Raises :class:`ResourceLimitError` when argument construction is
    truncated or when the framework exceeds the enumeration bound.
    """
    translation = complete_translation(system, max_args, max_depth)
    _check_enum_bound(len(translation.ids), max_enum_args)
    return preferred_sets(translation, translation.engine)


def complete_translation(
    system: ArgumentationSystem,
    max_args: int = DEFAULT_MAX_ARGS,
    max_depth: int = DEFAULT_MAX_DEPTH,
    max_nonstrict: int | None = None,
) -> Translation:
    """The translation of the system's complete build; raises
    :class:`ResourceLimitError` when construction is truncated or more than
    ``max_nonstrict`` non-strict arguments are built."""
    build = build_arguments(system, max_args=max_args, max_depth=max_depth)
    if build.bound is not None:
        name, value = build.bound
        raise ResourceLimitError(f"argument construction truncated at the {name} bound of {value}", name, value)
    translation = framework_from_system(system, build=build)
    nonstrict = len(translation.ids) - translation.strict_mask.bit_count()
    if max_nonstrict is not None and nonstrict > max_nonstrict:
        raise ResourceLimitError(
            f"{nonstrict} non-strict arguments exceed the labeling budget",
            bound_name="max_nonstrict",
            bound_value=max_nonstrict,
        )
    return translation


def side_mask(translation: Translation, system: ArgumentationSystem) -> int:
    """The mask, over the translation's arguments, of those whose
    sub-arguments all apply one of ``system``'s rules; it is closed under
    supporting sets.  On a side of a union (see
    :func:`jsbaf.system.union_systems`) these are the side's own arguments,
    and the union's engine restricted to them (:meth:`_Engine.restrict`) is
    the side translation's engine but for argument ids: attacks depend only
    on the pair of arguments, and both merge policies keep the side's rank
    order."""
    rule_ids = {r.id for r in system.strict_rules + system.defeasible_rules}
    kept, mask = set(), 0
    for i, a in enumerate(translation.argument_of.values()):  # build order: sub-arguments first
        if a.rule_id in rule_ids and all(s in kept for s in a.subs):
            kept.add(a)
            mask |= 1 << i
    return mask


def preferred_sets(translation: Translation, engine: _Engine) -> list[frozenset[Formula]]:
    """Conclusion sets of the preferred labelings of ``engine``, the
    translation's own or one restricted from it, canonically ordered."""
    return conclusion_sets(translation, engine.ids, [im for im, _ in engine.preferred_masks()])


def conclusion_sets(translation: Translation, ids, in_masks) -> list[frozenset[Formula]]:
    """The distinct conclusion sets of IN masks over the translation's
    argument ids ``ids``, canonically ordered."""
    argument_of = translation.argument_of
    sets = {frozenset(argument_of[ids[i]].conclusion for i in _bits(m)) for m in in_masks}
    return sorted(sets, key=lambda fs: sorted(f.key for f in fs))
