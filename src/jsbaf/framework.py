"""Joint-support bipolar argumentation frameworks and their labeling semantics.

A framework holds arguments, binary attacks, joint supports (a finite
set of arguments supporting a single argument, at most one supporting
set per argument) and, optionally, a total preference preorder given as
integer ranks; without ranks every rank condition below is dropped.  An
argument is *strict* when it is supported by the empty set or by strict
arguments only.  Well-formed frameworks keep strict arguments unattacked
and in a single topmost preference class, and have no cyclic support
chains.

Semantics are labeling-based.  A :class:`Labeling` labels every argument
IN, OUT or UNDEC, as the engine's masks over the framework's sorted ids.
Whether a label is *legal* for an argument depends on its attackers and
on every support whose supporting set contains it:

* legally IN: all attackers are OUT, and for every support (S, c) with
  the argument a in S and a at most as preferred as each member of
  S - {a}, either c is IN, or c is UNDEC and some member of S - {a} is
  not IN, or c is OUT and S - {a} contains an OUT member or two distinct
  UNDEC members.
* legally OUT: some attacker is IN, or there is a support chain
  (S0, b0), ..., (Sn, bn) with a in S0, S0 - {a} all IN and no member of
  it less preferred than a, every bi OUT, every Si - {b(i-1)} all IN,
  and bn attacked by an IN argument.
* legally UNDEC: neither of the above.

An admissible labeling labels strict arguments IN, labels only legally
IN arguments IN, and labels an argument OUT exactly when it is legally
OUT.  Preferred labelings are the admissible ones with subset-maximal
IN-sets.

Enumeration works per candidate IN-set: for a fixed IN-set the OUT-set
of an admissible labeling is forced.  Whether an argument is legally OUT
depends only on the arguments downstream of it along supports, so one
pass that visits every supported argument before its supporters decides
it, and the legally-OUT operator has a unique fixpoint, ``legal_out``:
the engine's one legally-OUT operator, which admissibility, the SIM
labeling and the grounded construction read (on an arbitrary labeling
the definition is :func:`jsbaf.naive.naive_legally_out`).

The IN-sets are searched depth first from the strict arguments.  A node
holds an IN-set I and the undecided candidates C that may still join it;
it decides the next non-strict argument, supporters before the heads
they support, and both children inherit C without it.  A branch ends as
soon as I attacks itself, since every superset does too, and a head
whose supporting set is all IN is only tried IN, as closure demands; so
the search visits far fewer than the 2**k subsets of the k non-strict
arguments.  Four rules shape it:

* The root cut.  ``legal_out`` grows with the IN-set, so O =
  ``legal_out(I | C)`` bounds the OUT-set of every admissible J with
  I <= J <= I | C, and all attackers of an IN argument are OUT.  So a
  candidate with an attacker outside O, or attacked by I, leaves C, and O
  is recomputed, to a fixpoint; when an attacker of I lies outside O,
  there is no such J.  Once per engine, from the strict set I and the
  non-strict arguments not attacking it, this gives the engine's
  ``bound``, I | C, which contains every admissible IN-set, or None when
  nothing is admissible, as when the strict set attacks itself.  The cut
  is exact, for admissible and preferred labelings alike, and only C is
  ever tried IN.
* The node cut.  Past its first leaf, the preferred search repeats that
  fixpoint at each inner node, on I and its inherited C less the
  attackers of I, and ends the branch when there is no such J.
* The maximality cut.  Past its first leaf, the preferred search also
  ends a branch when I | C lies inside a kept maximal IN-set, as every
  admissible IN-set below the node lies inside I | C.
* IN-first order.  Every node tries IN before not-IN, so every admissible
  strict superset of an IN-set is yielded before it, and the first leaf
  is maximal.

The preferred search takes that first leaf; when it is the bound, it is
the only preferred IN-set.  Otherwise the search runs again with the
leaf kept and both cuts on, so every leaf it yields is maximal and is
kept in turn, and no filter compares IN-sets pairwise.

Every leaf the search reaches is tested against exactly the
admissibility definition: strict arguments IN, the legally-OUT fixpoint
disjoint from the IN-set, every IN argument legally IN.
Conflict-freeness needs no test of its own, as an IN argument with an IN
attacker is legally OUT; nor does closure, as a fully IN supporting set
whose head is not IN has a least-preferred member not legally IN (or is
empty, and the head is strict).  One cached peel of the support graph
(an argument goes once its supporters have) yields the pass's order, the
strict set and a support cycle as a witness path; the engine refuses a
framework with a cycle by an :class:`InstanceError` naming it, which
:func:`validate_structure` reports instead.  The engine of a
sub-framework whose arguments are closed under supporting sets is the
whole engine restricted to them, re-indexed compactly, with its own root
cut.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .errors import InstanceError, ResourceLimitError
from .formulas import IDENT
from .system import ValidationReport, _cached

IN = "IN"
OUT = "OUT"
UNDEC = "UNDEC"
LABELS = (IN, OUT, UNDEC)

DEFAULT_MAX_ENUM_ARGS = 13


def _position(ids: tuple[str, ...], arg: str) -> int:
    """The index of ``arg`` in the sorted ``ids``; unknown ids are refused."""
    i = bisect_left(ids, arg)
    if i == len(ids) or ids[i] != arg:
        raise InstanceError(f"unknown argument {arg!r}")
    return i


@dataclass(frozen=True, slots=True)
class Labeling:
    """Labels of a framework's sorted ``ids``: bit i of ``in_mask`` or ``out_mask``
    is ``ids[i]``, the rest are UNDEC.  :meth:`from_sets` checks its input."""

    ids: tuple[str, ...]
    in_mask: int
    out_mask: int

    @staticmethod
    def from_sets(args, in_set=(), out_set=()) -> "Labeling":
        ids = tuple(sorted(set(args)))
        in_set, out_set = set(in_set), set(out_set)
        if in_set & out_set or not (in_set | out_set) <= set(ids):
            raise InstanceError("label sets must be disjoint subsets of the arguments")
        return Labeling(ids, *(sum(1 << i for i, a in enumerate(ids) if a in s) for s in (in_set, out_set)))

    def _label_at(self, i: int) -> str:
        return IN if self.in_mask >> i & 1 else OUT if self.out_mask >> i & 1 else UNDEC

    @property
    def labels(self) -> tuple[tuple[str, str], ...]:
        return tuple((a, self._label_at(i)) for i, a in enumerate(self.ids))

    def as_dict(self) -> dict[str, str]:
        return dict(self.labels)

    def label(self, arg: str) -> str:
        return self._label_at(_position(self.ids, arg))

    def _names(self, mask: int) -> frozenset[str]:
        return frozenset(a for i, a in enumerate(self.ids) if mask >> i & 1)

    @property
    def in_set(self) -> frozenset[str]:
        return self._names(self.in_mask)

    @property
    def out_set(self) -> frozenset[str]:
        return self._names(self.out_mask)

    @property
    def undec_set(self) -> frozenset[str]:
        return self._names(~(self.in_mask | self.out_mask))

    def vector(self) -> str:
        """Serialised label vector in argument-id order; the canonical sort key."""
        in_mask, out_mask = self.in_mask, self.out_mask
        return "".join(
            ["I" if in_mask >> i & 1 else "O" if out_mask >> i & 1 else "U" for i in range(len(self.ids))]
        )

    def __repr__(self):
        return "Labeling(" + ", ".join(f"{a}={l}" for a, l in self.labels) + ")"


@dataclass(frozen=True)
class Jsbaf:
    """Arguments, attacks, joint supports and optional preference ranks.

    Argument ids are identifier strings, as the text format writes them,
    and ranks are integers.
    ``supports`` maps a supported argument to its unique supporting set;
    absence means unsupported, an empty set means supported by nothing
    (a tautology-like argument).  ``rank`` encodes the total preorder:
    a is at most as preferred as b iff rank[a] <= rank[b]; arguments it
    leaves out get rank 0.  Without ``rank`` the framework is the
    preference-free view, in which every rank condition is dropped.

    Frameworks are immutable (``supports`` and ``rank`` are read-only
    copies), so what is cached on them (support peel with the strict set,
    engine, admissible masks and labelings) never goes stale.
    """

    args: tuple[str, ...]
    attacks: frozenset[tuple[str, str]]
    supports: Mapping[str, frozenset[str]] = field(default_factory=dict)
    rank: Mapping[str, int] | None = None

    def __post_init__(self):
        for a in self.args:
            if not (isinstance(a, str) and IDENT.fullmatch(a)):
                raise InstanceError(f"argument id {a!r} is not an identifier")
        args = tuple(sorted(set(self.args)))
        known = set(args)
        attacks = frozenset(self.attacks)
        for a, b in attacks:
            if a not in known or b not in known:
                raise InstanceError(f"attack ({a}, {b}) mentions an unknown argument")
        supports = {h: frozenset(t) for h, t in self.supports.items()}
        for head, tail in supports.items():
            if head not in known or tail - known:
                raise InstanceError(f"support for {head} mentions an unknown argument")
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "attacks", attacks)
        object.__setattr__(self, "supports", MappingProxyType(supports))
        if self.rank is not None:
            rank = {a: self.rank.get(a, 0) for a in args}
            for a, r in rank.items():
                if not isinstance(r, int):
                    raise InstanceError(f"rank {r!r} of argument {a} is not an integer")
            object.__setattr__(self, "rank", MappingProxyType(rank))

    def rank_of(self, arg: str) -> int:
        return 0 if self.rank is None else self.rank[arg]


def strict_args(framework: Jsbaf) -> frozenset[str]:
    """Least fixpoint: supported by the empty set, or by strict arguments only."""
    return _support_walk(framework)[2]


def _support_walk(framework: Jsbaf):
    """``(order, cycle, strict)`` from one peel of the support graph,
    computed once per framework: an argument is peeled once all its
    supporters are, and is strict when supported by strict ones only.  The
    reversed peel is the engine's order, heads before their supporters.  An
    unpeeled argument has an unpeeled supporter, so walking back from the
    first one through its least unpeeled supporter repeats an argument: the
    walk from that repeat is the cycle's witness path, None if all peel."""

    def walk():
        supports = framework.supports
        heads: dict[str, list[str]] = {a: [] for a in framework.args}
        missing = {}  # supported argument -> its supporters not yet peeled
        for head in sorted(supports):
            missing[head] = len(supports[head])
            for t in supports[head]:
                heads[t].append(head)
        peel = [a for a in framework.args if not missing.get(a)]
        strict = {a for a in peel if a in supports}  # supported by the empty set
        for a in peel:  # grows while it is read
            for h in heads[a]:
                missing[h] -= 1
                if not missing[h]:
                    peel.append(h)
                    if supports[h] <= strict:
                        strict.add(h)
        cycle, a = None, next((a for a in framework.args if missing.get(a)), None)
        if a is not None:
            back: dict[str, int] = {}  # the walk back, argument -> position
            while a not in back:
                back[a] = len(back)
                a = min(t for t in supports[a] if missing.get(t))
            cycle = [a, *reversed(list(back)[back[a] :])]
        return peel[::-1], cycle, frozenset(strict)

    return _cached(framework, "_walk_cache", walk)


# --- the label-legality engine -------------------------------------------


def _bits(mask: int):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Engine:
    """Bitmask view of one framework with acyclic supports, over its sorted
    ``ids``.  Per argument: its attackers, and each support containing it in
    which it is at most as preferred as every co-supporter, as (head,
    co-supporters mask); with ``rank`` None every rank condition holds.
    Built from a framework by :meth:`of`, from a translation's masks
    (:attr:`jsbaf.arguments.Translation.engine`), or from another engine by
    :meth:`restrict`; either way the constructor computes the support
    membership and :attr:`bound`, the root cut: strict | C for the root's
    candidates C, or None when nothing is admissible."""

    def __init__(self, ids, order, attackers, supports, rank, strict_mask):
        self.ids = ids
        self.n = len(ids)
        self.order = order  # supported heads before supporters
        self.attackers = attackers
        self.supports = supports  # head index -> tail mask
        self.rank = rank  # rank per index, or None
        self.member_of = member_of = [[] for _ in ids]
        for h in sorted(supports):
            tail = supports[h]
            least = None if rank is None else min((rank[t] for t in _bits(tail)), default=0)
            for t in _bits(tail):
                if least is None or rank[t] <= least:
                    member_of[t].append((h, tail & ~(1 << t)))
        attacking = 0
        for i in _bits(strict_mask):
            attacking |= attackers[i]
        self.strict_mask, self.strict_attackers = strict_mask, attacking
        # the root cut, set here rather than cached on first use: a cache that
        # writes the instance __dict__ slows every later attribute read
        # (CPython 3.11)
        cand = None if attacking & strict_mask else self._narrow(
            strict_mask, attacking, (1 << self.n) - 1 & ~strict_mask & ~attacking
        )
        self.bound = None if cand is None else strict_mask | cand

    @classmethod
    def of(cls, framework: Jsbaf) -> "_Engine":
        order, cycle, strict = _support_walk(framework)
        if cycle:
            raise InstanceError("cyclic support chain through " + " -> ".join(cycle))
        ids, rank = framework.args, framework.rank
        index = {a: i for i, a in enumerate(ids)}
        attackers = [0] * len(ids)
        for a, b in framework.attacks:
            attackers[index[b]] |= 1 << index[a]
        supports = {index[h]: sum(1 << index[t] for t in tail) for h, tail in framework.supports.items()}
        ranks = None if rank is None else [rank[a] for a in ids]
        strict_mask = sum(1 << index[a] for a in strict)
        return cls(ids, [index[a] for a in order], attackers, supports, ranks, strict_mask)

    def restrict(self, keep: int) -> "_Engine":
        """The engine of the sub-framework on the arguments in ``keep``, a
        mask closed under supporting sets: the arguments keep their order
        and are re-indexed compactly, and the root cut is the sub-framework's
        own."""
        kept = list(_bits(keep))
        position = dict(zip(kept, range(len(kept))))

        def squeeze(mask: int) -> int:
            out = 0
            mask &= keep
            while mask:
                low = mask & -mask
                out |= 1 << position[low.bit_length() - 1]
                mask ^= low
            return out

        return _Engine(
            tuple(self.ids[j] for j in kept),
            [position[j] for j in self.order if keep >> j & 1],
            [squeeze(self.attackers[j]) for j in kept],
            {position[h]: squeeze(tail) for h, tail in self.supports.items() if keep >> h & 1},
            None if self.rank is None else [self.rank[j] for j in kept],
            squeeze(self.strict_mask),
        )

    def legally_in(self, i: int, in_mask: int, out_mask: int) -> bool:
        if self.attackers[i] & ~out_mask:
            return False
        for head, others in self.member_of[i]:
            if in_mask >> head & 1:
                continue
            if out_mask >> head & 1:
                # OUT head: an OUT co-supporter, or two distinct UNDEC ones
                if others & out_mask:
                    continue
                if (others & ~in_mask & ~out_mask).bit_count() >= 2:
                    continue
                return False
            # UNDEC head: some co-supporter not IN
            if others & ~in_mask:
                continue
            return False
        return True

    def legal_out(self, in_mask: int) -> int:
        """The legally-OUT fixpoint for ``in_mask``, in one pass over
        ``order``: an argument is OUT when an IN argument attacks it, or
        when a support it is in has a head this pass put OUT and all other
        members IN.  It is the only OUT-set an admissible labeling with
        this IN-set can have, and it grows with ``in_mask``."""
        out = 0
        for i in self.order:
            if self.attackers[i] & in_mask:
                out |= 1 << i
            else:
                for head, others in self.member_of[i]:
                    if out >> head & 1 and not others & ~in_mask:
                        out |= 1 << i
                        break
        return out

    def admissible_out_for(self, in_mask: int) -> int | None:
        """OUT mask completing ``in_mask`` to an admissible labeling, or
        None, by the admissibility definition alone.  Conflict-freeness
        needs no test: an IN argument with an IN attacker is legally OUT.
        Nor does closure: a fully IN supporting set with a head not IN has
        a least-preferred member not legally IN, or is empty (strict head)."""
        if self.strict_mask & ~in_mask:
            return None
        out = self.legal_out(in_mask)
        if out & in_mask:
            return None
        m = in_mask
        while m:
            low = m & -m
            if not self.legally_in(low.bit_length() - 1, in_mask, out):
                return None
            m ^= low
        return out

    def _narrow(self, in_mask: int, attacking: int, cand: int) -> int | None:
        """The root cut's fixpoint, at any node: ``cand`` without the
        candidates that no admissible J with ``in_mask`` <= J <= ``in_mask`` |
        ``cand`` contains, or None when there is no such J; ``attacking``
        holds the attackers of ``in_mask``."""
        attackers = self.attackers
        while True:
            out = self.legal_out(in_mask | cand)
            if attacking & ~out:
                return None
            barred = in_mask | ~out
            dropped = 0
            m = cand
            while m:
                low = m & -m
                if attackers[low.bit_length() - 1] & barred:
                    dropped |= low
                m ^= low
            if not dropped:
                return cand
            cand ^= dropped

    def enumerate_admissible_masks(self):
        """Yield every admissible (IN mask, OUT mask) in search order.

        The one entry to :meth:`_search`, kept apart as a generator of the
        engine alone: the benchmark's span recorder (``bench/spans.py``)
        wraps this name and counts each call as one search, so a preferred
        search must enter through it once, which
        ``tests/test_bench_contract.py`` checks."""
        return self._search()

    def _search(self, kept: list[tuple[int, int]] | None = None):
        """Yield the admissible (IN mask, OUT mask) pairs by the search of
        the module docstring.  ``kept``, when given, must hold admissible
        pairs with maximal IN masks, the first leaf among them; only maximal
        pairs are then yielded."""
        bound, attackers, supports, strict = self.bound, self.attackers, self.supports, self.strict_mask
        if bound is None:
            return
        cand = bound & ~strict
        # non-strict arguments, supporters first; one never IN and with no
        # support has a single branch, so it needs no decision
        free = [i for i in reversed(self.order) if cand >> i & 1 or not strict >> i & 1 and i in supports]
        k = len(free)
        stack = [(0, strict, self.strict_attackers, cand)]  # (arguments decided, IN mask, its attackers, C)
        while stack:
            depth, in_mask, attacking, cand = stack.pop()
            if kept is not None:
                if depth < k:  # at a leaf C is empty, and the leaf check decides
                    cand = self._narrow(in_mask, attacking, cand & ~attacking)
                    if cand is None:
                        continue
                if any(not (in_mask | cand) & ~k_in for k_in, _ in kept):
                    continue
            if depth == k:
                out = self.admissible_out_for(in_mask)
                if out is not None:
                    if kept is not None:
                        kept.append((in_mask, out))
                    yield in_mask, out
                continue
            i = free[depth]
            bit = 1 << i
            rest = cand & ~bit
            if i not in supports or supports[i] & ~in_mask:
                stack.append((depth + 1, in_mask, attacking, rest))
            if cand & bit and not (attacking & bit or attackers[i] & (in_mask | bit)):
                stack.append((depth + 1, in_mask | bit, attacking | attackers[i], rest))

    def preferred_masks(self) -> list[tuple[int, int]]:
        """The admissible (IN mask, OUT mask) pairs with subset-maximal IN
        masks, in search order, by the preferred search of the module
        docstring."""
        search = self.enumerate_admissible_masks()
        first = next(search, None)
        search.close()
        if first is None:
            return []
        kept = [first]
        if first[0] != self.bound:
            for _ in self._search(kept):
                pass
        return kept


def _engine(framework: Jsbaf) -> _Engine:
    return _cached(framework, "_engine_cache", lambda: _Engine.of(framework))


# --- public operations ----------------------------------------------------


def validate_structure(framework: Jsbaf):
    """The rank-free structural restrictions: acyclic supports, strict
    arguments unattacked (uniqueness and finiteness of supporting sets
    hold by representation)."""
    report = ValidationReport()
    _, cycle, strict = _support_walk(framework)
    if cycle:
        report.failures.append("cyclic support chain through " + " -> ".join(cycle))
    for a, b in sorted(framework.attacks):
        if b in strict:
            report.failures.append(f"strict argument {b} is attacked (by {a})")
    report.notes.append("supporting sets are finite and unique by construction")
    return report


def validate_jsbaf(framework: Jsbaf):
    """Check all structural restrictions, the rank conditions included
    when the framework has ranks; returns a report."""
    report = validate_structure(framework)
    strict = strict_args(framework)
    if strict and framework.rank is not None:
        ranks = {framework.rank[a] for a in strict}
        if len(ranks) > 1:
            report.failures.append("strict arguments are not all equally preferred")
        else:
            top = ranks.pop()
            for a in sorted(set(framework.args) - strict):
                if framework.rank[a] >= top:
                    report.failures.append(
                        f"non-strict argument {a} is not strictly below the strict class"
                    )
    return report


def _covering(framework: Jsbaf, labeling: Labeling) -> _Engine:
    """The framework's engine, once ``labeling`` is known to share its ids."""
    eng = _engine(framework)
    if labeling.ids != eng.ids:
        raise InstanceError("labeling does not cover exactly the framework's arguments")
    return eng


def legally_in(framework: Jsbaf, labeling: Labeling, arg: str) -> bool:
    eng = _covering(framework, labeling)
    return eng.legally_in(_position(eng.ids, arg), labeling.in_mask, labeling.out_mask)


def is_admissible(framework: Jsbaf, labeling: Labeling) -> bool:
    return _covering(framework, labeling).admissible_out_for(labeling.in_mask) == labeling.out_mask


def sim_labeling(framework: Jsbaf) -> Labeling:
    """Strict-including-minimal labeling: strict arguments IN, rejections
    propagated from them OUT, everything else UNDEC."""
    eng = _engine(framework)
    return Labeling(eng.ids, eng.strict_mask, eng.legal_out(eng.strict_mask))


def _check_enum_bound(n: int, max_args: int) -> None:
    if n > max_args:
        raise ResourceLimitError(
            f"{n} arguments exceed the enumeration bound of {max_args}",
            bound_name="max_enum_args",
            bound_value=max_args,
        )


def _bounded_engine(framework: Jsbaf, max_args: int) -> _Engine:
    """The framework's engine, once it is within the enumeration bound."""
    _check_enum_bound(len(framework.args), max_args)
    return _engine(framework)


def _admissible_masks(framework: Jsbaf, max_args: int) -> list[tuple[int, int]]:
    """Every admissible (IN mask, OUT mask) in search order, searched once per
    framework and cached on it; the bound holds whether or not they are
    cached already."""
    eng = _bounded_engine(framework, max_args)
    return _cached(framework, "_masks_cache", lambda: list(eng.enumerate_admissible_masks()))


def enumerate_admissible(framework: Jsbaf, max_args: int = DEFAULT_MAX_ENUM_ARGS) -> list[Labeling]:
    """Every admissible labeling in vector order, built once per framework
    from :func:`_admissible_masks` and cached on it."""
    masks = _admissible_masks(framework, max_args)
    return _cached(framework, "_catalogue_cache", lambda: sorted(
        (Labeling(framework.args, im, om) for im, om in masks), key=Labeling.vector
    ))


def enumerate_preferred(framework: Jsbaf, max_args: int = DEFAULT_MAX_ENUM_ARGS) -> list[Labeling]:
    """The admissible labelings with subset-maximal IN-sets, in the order
    of :func:`enumerate_admissible`: those of the engine's
    :meth:`~_Engine.preferred_masks`, the only masks built into Labelings."""
    eng = _bounded_engine(framework, max_args)
    return sorted((Labeling(eng.ids, im, om) for im, om in eng.preferred_masks()), key=Labeling.vector)
