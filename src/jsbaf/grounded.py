"""Preference-free grounded semantics for joint-support frameworks.

This semantics ignores preference ranks entirely.  It works on the
preference-free view of a framework: the same :class:`~jsbaf.framework.Jsbaf`
without ranks (:func:`from_jsbaf`), on which the legality, admissibility
and SIM functions of :mod:`jsbaf.framework` drop every rank condition.
They are re-exported here; every function of this module that reads
legality takes the view itself, so ranks given to it never count.

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
"""

from __future__ import annotations

from .errors import InstanceError
from .framework import (  # legality, admissibility and SIM are the framework's, re-exported
    DEFAULT_MAX_ENUM_ARGS,
    IN,
    UNDEC,
    Jsbaf,
    Labeling,
    _check_enum_bound,
    _engine,
    _locate,
    enumerate_admissible,
    is_admissible,
    legally_in,
    legally_out,
    sim_labeling,
)
from .system import _cached


def from_jsbaf(framework: Jsbaf) -> Jsbaf:
    """The preference-free view: the same graph without ranks, built once."""
    if framework.rank is None:
        return framework
    return _cached(
        framework,
        "_view_cache",
        lambda: Jsbaf(args=framework.args, attacks=framework.attacks, supports=framework.supports),
    )


def support_children(g: Jsbaf, arg: str) -> frozenset[str]:
    """Arguments reachable from ``arg`` along support paths."""
    forward: dict[str, set[str]] = {}
    for head, tail in g.supports.items():
        for t in tail:
            forward.setdefault(t, set()).add(head)
    out: set[str] = set()
    frontier = set(forward.get(arg, ()))
    while frontier:
        out |= frontier
        frontier = {x for f in frontier for x in forward.get(f, ())} - out
    return frozenset(out)


def safe_supports(g: Jsbaf, labeling: Labeling, arg: str) -> list[tuple[frozenset[str], str]]:
    """Supports (S, b) with ``arg`` in S such that every argument on every
    chain starting at (S, b) has all its attackers OUT."""
    out_set = labeling.out_set
    result = []
    for head in sorted(g.supports):
        tail = g.supports[head]
        if arg not in tail:
            continue
        reach = {head} | support_children(g, head)
        if all(attacker in out_set for h in reach for attacker, tgt in g.attacks if tgt == h):
            result.append((tail, head))
    return result


def more_informative(label: str, than: str) -> bool:
    """IN/OUT refine UNDEC; every label refines itself."""
    return than == UNDEC or label == than


def admissible_catalogue(g: Jsbaf, max_args: int = DEFAULT_MAX_ENUM_ARGS) -> list[Labeling]:
    """All admissible labelings of the preference-free view, cached on it;
    the bound holds whether or not the catalogue is cached already."""
    g = from_jsbaf(g)
    _check_enum_bound(g, max_args)
    return _cached(g, "_catalogue_cache", lambda: enumerate_admissible(g, max_args=max_args))


def _extends(base: Labeling, candidate: Labeling) -> bool:
    return base.in_set <= candidate.in_set and base.out_set <= candidate.out_set


def forced_in(
    g: Jsbaf,
    labeling: Labeling,
    arg: str,
    max_args: int = DEFAULT_MAX_ENUM_ARGS,
) -> bool:
    g = from_jsbaf(g)
    eng, i, in_mask, out_mask = _locate(g, labeling, arg)
    if eng.attackers[i] & ~out_mask:
        return False
    safe = {head for _, head in safe_supports(g, labeling, arg)}
    catalogue = None
    for head in sorted(g.supports):
        tail = g.supports[head]
        if arg not in tail or labeling.label(head) == IN or head in safe:
            continue
        if catalogue is None:
            catalogue = admissible_catalogue(g, max_args=max_args)
        here = labeling.label(head)
        for base in catalogue:
            if not more_informative(base.label(head), here):
                continue
            target = base.label(head)
            if not any(
                _extends(base, cand) and cand.label(head) == target and legally_in(g, cand, arg)
                for cand in catalogue
            ):
                return False
    return True


def fi_set(g: Jsbaf, labeling: Labeling, max_args: int = DEFAULT_MAX_ENUM_ARGS) -> frozenset[str]:
    return frozenset(a for a in g.args if forced_in(g, labeling, a, max_args=max_args))


def is_ground_complete(
    g: Jsbaf, labeling: Labeling, max_args: int = DEFAULT_MAX_ENUM_ARGS
) -> bool:
    g = from_jsbaf(g)
    if not is_admissible(g, labeling):
        return False
    return fi_set(g, labeling, max_args=max_args) <= labeling.in_set


def enumerate_ground_complete(
    g: Jsbaf, max_args: int = DEFAULT_MAX_ENUM_ARGS
) -> list[Labeling]:
    return [
        lab
        for lab in admissible_catalogue(g, max_args=max_args)
        if fi_set(g, lab, max_args=max_args) <= lab.in_set
    ]


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

    ``pick`` chooses among the forced-IN candidates; the default takes
    the canonically smallest.  The final labeling is the same for every
    choice function.
    """
    g = from_jsbaf(g)
    eng = _engine(g)
    labeling = sim_labeling(g)
    if trace is not None:
        trace.append(labeling)
    while True:
        candidates = sorted(fi_set(g, labeling, max_args=max_args) - labeling.in_set)
        if not candidates:
            return labeling
        chosen = candidates[0] if pick is None else pick(candidates)
        if chosen not in candidates:
            raise InstanceError("pick function returned a non-candidate")
        new_in = set(labeling.in_set) | {chosen}
        for _, head in safe_supports(g, labeling, chosen):
            new_in.add(head)
            new_in |= support_children(g, head)
        in_mask = eng.mask(new_in)
        out_mask = eng.legal_out(in_mask)
        labeling = eng.labeling(in_mask, out_mask)
        if trace is not None:
            trace.append(labeling)


def grounded_labeling(
    g: Jsbaf,
    oracle: bool = False,
    max_args: int = DEFAULT_MAX_ENUM_ARGS,
) -> Labeling:
    """The unique grounded labeling.

    With ``oracle`` set, additionally enumerates every ground-complete
    labeling and asserts that the construction's result is the unique
    minimal one by IN-set inclusion.
    """
    result = grounded_construction(g, max_args=max_args)
    if oracle:
        complete = enumerate_ground_complete(g, max_args=max_args)
        minimal = [
            lab
            for lab in complete
            if not any(other.in_set < lab.in_set for other in complete)
        ]
        if len(minimal) != 1 or minimal[0] != result:
            raise InstanceError(
                "grounded construction does not match the unique minimal "
                f"ground-complete labeling ({len(minimal)} minimal candidates)"
            )
    return result
