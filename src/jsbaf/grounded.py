"""Preference-free grounded semantics for joint-support frameworks.

This semantics ignores preference ranks entirely: every function
defined here works on the framework's rank-free engine (:func:`_table`).
``legally_in`` and ``sim_labeling`` are the framework's, re-exported for
the benchmark, and read the ranks they are given: give them
:func:`from_jsbaf`.

The grounded labeling accepts exactly the arguments one is *forced* to
accept.  An argument is forced IN w.r.t. a labeling when all its
attackers are OUT and every support it belongs to whose head is not IN
is harmless, either because the support is *safe* (no argument reachable
from it along support chains is attacked by a non-OUT argument) or
because every admissible labeling that keeps at least as much
information about the head can be extended, without relabelling anything
already IN or OUT and without touching the head, into an admissible
labeling in which the argument is legally IN.

A ground-complete labeling is an admissible labeling containing all the
arguments forced IN w.r.t. itself; the grounded labeling is the unique
ground-complete labeling with a minimal IN-set.  It is computed by the
grounded construction: start from the strict-including-minimal (SIM)
labeling (strict arguments IN, the rejections they force OUT, everything
else UNDEC) and repeatedly accept one forced-IN argument together with
everything downstream of its safe supports, recomputing the rejected set
after each step.  The result does not depend on the order in which
forced-IN arguments are picked.

Whether a base labeling extends so depends only on the argument, the
head and the base, never on the labeling asked about.  So each
(argument, head) pair is answered once per engine, at its first lookup,
by the head labels of the catalogue bases that do not extend, and
forced-IN reads that table: an UNDEC head fails the argument when the
entry is non-empty, an OUT head when it holds OUT.  Forced-IN is one
operator on the engine's masks, ``_forced_in``: :func:`fi_set` names its
mask, and the ground-complete oracle and the construction read it.
Labelings are built only for what is returned.
"""

from __future__ import annotations

from .errors import InstanceError
from .framework import (  # legally_in and sim_labeling are the framework's, re-exported
    DEFAULT_MAX_ENUM_ARGS,
    IN,
    OUT,
    UNDEC,
    Jsbaf,
    Labeling,
    _admissible_masks,
    _bits,
    _covering,
    _engine,
    _Engine,
    _labelings,
    _position,
    legally_in,
    sim_labeling,
)


def from_jsbaf(framework: Jsbaf) -> Jsbaf:
    """The same graph without ranks.  Its fields are the ranked framework's,
    checked when that was built, so ``__post_init__`` is skipped."""
    if framework.rank is None:
        return framework
    g = object.__new__(Jsbaf)
    for name in ("args", "attacks", "supports"):
        object.__setattr__(g, name, getattr(framework, name))
    object.__setattr__(g, "rank", None)
    return g


class _Table:
    """What forced-IN reads of one rank-free engine, kept as its ``table``
    (with no reference back, which would make a cycle).

    Per argument, from the engine's support lists: ``down``, the mask of
    the argument and its support children, and ``reach``, their
    attackers; a support with head h is safe when ``reach[h]`` is all
    OUT.  Per (argument i, head h), filled at its first lookup: the labels
    of h in the catalogue bases that no catalogue labeling extends with
    h's label kept and i legally IN.  The catalogue is the engine's
    admissible masks; an admissible OUT-set is ``legal_out`` of its IN-set,
    which grows with it, so a labeling extends a base when its IN-set holds
    the base's."""

    def __init__(self, eng: _Engine):
        self.down, self.reach = [0] * eng.n, [0] * eng.n
        for i in eng.order:  # heads before their supporters
            self.down[i], self.reach[i] = 1 << i, eng.attackers[i]
            for h, _ in eng.member_of[i]:
                self.down[i] |= self.down[h]
                self.reach[i] |= self.reach[h]
        self.extended = None  # per catalogue base, the catalogue labelings extending it
        self.entries: dict[tuple[int, int], set[str]] = {}

    def unextendable(self, eng: _Engine, i: int, h: int, max_args: int) -> set[str]:
        cat = _admissible_masks(eng, max_args)
        entry = self.entries.get((i, h))
        if entry is None:
            if self.extended is None:
                self.extended = [sum(1 << c for c, (ci, _) in enumerate(cat) if not bi & ~ci) for bi, _ in cat]
            bit = 1 << h
            # i is legally IN where an admissible labeling has it IN; an extension
            # keeps an IN or OUT head as it is, and an UNDEC one must stay UNDEC
            legal = sum(1 << c for c, (ci, co) in enumerate(cat) if ci >> i & 1 or eng.legally_in(i, ci, co))
            undec = sum(1 << c for c, (ci, co) in enumerate(cat) if not (ci | co) & bit)
            entry = self.entries[i, h] = {
                IN if bi & bit else OUT if bo & bit else UNDEC
                for b, (bi, bo) in enumerate(cat)
                if not self.extended[b] & legal & (undec if undec >> b & 1 else -1)
            }
        return entry


def _table(g: Jsbaf) -> _Engine:
    """The rank-free engine of ``g``, with its forced-IN ``table`` made:
    for a ranked ``g``, the ranked engine's ``free``, its lists with
    ``rank`` None, since ranks change only ``member_of`` and ``bound``."""
    eng = _engine(g)
    if eng.rank is not None and eng.free is None:
        eng.free = _Engine(eng.ids, eng.order, eng.attackers, eng.supports, None, eng.strict_mask)
    eng = eng.free or eng
    if eng.table is None:
        eng.table = _Table(eng)
    return eng


def support_children(g: Jsbaf, arg: str) -> frozenset[str]:
    """Arguments reachable from ``arg`` along support paths."""
    eng = _table(g)
    i = _position(eng.ids, arg)
    return frozenset(a for j, a in enumerate(eng.ids) if (eng.table.down[i] ^ 1 << i) >> j & 1)


def more_informative(label: str, than: str) -> bool:
    """IN/OUT refine UNDEC; every label refines itself."""
    return than == UNDEC or label == than


def admissible_catalogue(g: Jsbaf, max_args: int = DEFAULT_MAX_ENUM_ARGS) -> list[Labeling]:
    """All admissible labelings of ``g`` without ranks, in vector order."""
    eng = _table(g)
    return _labelings(eng.ids, _admissible_masks(eng, max_args))


def _forced_in(eng: _Engine, in_mask: int, out_mask: int, max_args: int) -> int:
    """The mask of the arguments forced IN: their attackers are OUT, and
    each support they are in has its head IN, is safe, or passes ``eng.table``."""
    table = eng.table
    forced = 0
    for i in range(eng.n):
        if eng.attackers[i] & ~out_mask:
            continue
        for h, _ in eng.member_of[i]:
            if in_mask >> h & 1 or not table.reach[h] & ~out_mask:
                continue
            unextendable = table.unextendable(eng, i, h, max_args)
            if OUT in unextendable if out_mask >> h & 1 else unextendable:
                break
        else:
            forced |= 1 << i
    return forced


def fi_set(g: Jsbaf, labeling: Labeling, max_args: int = DEFAULT_MAX_ENUM_ARGS) -> frozenset[str]:
    eng = _table(g)
    _covering(g, labeling)
    return labeling._names(_forced_in(eng, labeling.in_mask, labeling.out_mask, max_args))


def enumerate_ground_complete(g: Jsbaf, max_args: int = DEFAULT_MAX_ENUM_ARGS) -> list[Labeling]:
    """The ground-complete labelings in vector order: the admissible masks
    that hold every argument forced IN, the only ones built into Labelings."""
    eng = _table(g)
    masks = _admissible_masks(eng, max_args)
    complete = [(im, om) for im, om in masks if not _forced_in(eng, im, om, max_args) & ~im]
    return _labelings(eng.ids, complete)


def grounded_construction(
    g: Jsbaf,
    pick=None,
    max_args: int = DEFAULT_MAX_ENUM_ARGS,
    trace: list | None = None,
) -> Labeling:
    """Iterate from the strict-including-minimal labeling, accepting one
    forced-IN argument per step (plus the heads and support children of
    its safe supports) and recomputing the rejected set, until no
    argument outside the IN-set is forced IN.

    ``pick`` chooses among the forced-IN candidates, their ids in sorted
    order; the default takes the first.  The final labeling is the same
    for every choice function.  Only ``trace`` and the result get Labelings.
    """
    eng = _table(g)
    in_mask = eng.strict_mask
    while True:
        out_mask = eng.legal_out(in_mask)
        if trace is not None:
            trace.append(Labeling(eng.ids, in_mask, out_mask))
        candidates = [eng.ids[i] for i in _bits(_forced_in(eng, in_mask, out_mask, max_args) & ~in_mask)]
        if not candidates:
            return Labeling(eng.ids, in_mask, out_mask)
        chosen = candidates[0] if pick is None else pick(candidates)
        if chosen not in candidates:
            raise InstanceError("pick function returned a non-candidate")
        i = _position(eng.ids, chosen)
        in_mask |= 1 << i
        for h, _ in eng.member_of[i]:
            if not eng.table.reach[h] & ~out_mask:  # a safe support: its head and children join
                in_mask |= eng.table.down[h]


def grounded_labeling(g: Jsbaf, oracle: bool = False, max_args: int = DEFAULT_MAX_ENUM_ARGS) -> Labeling:
    """The unique grounded labeling.

    With ``oracle`` set, additionally enumerates every ground-complete
    labeling and asserts that the construction's result is the unique
    minimal one by IN-set inclusion: it is one of them, and its IN-set lies
    inside each of theirs (admissible labelings with one IN-set are equal).
    """
    result = grounded_construction(g, max_args=max_args)
    if oracle:
        complete = enumerate_ground_complete(g, max_args=max_args)
        if result not in complete or any(result.in_mask & ~lab.in_mask for lab in complete):
            raise InstanceError(
                "grounded construction does not match the unique minimal ground-complete labeling"
            )
    return result
