import pathlib
from itertools import product

import pytest

from jsbaf import arguments as ar
from jsbaf import textio
from jsbaf.errors import InstanceError
from jsbaf.formulas import And, Var, formula_key
from jsbaf.framework import IN, LABELS, OUT, Labeling
from jsbaf.system import DefeasibleRule, make_system

INSTANCES = pathlib.Path(__file__).resolve().parent.parent / "instances"


@pytest.fixture(scope="session")
def j1():
    return textio.parse_instance(str(INSTANCES / "j1.jsbaf"))


@pytest.fixture(scope="session")
def j2():
    return textio.parse_instance(str(INSTANCES / "j2.jsbaf"))


@pytest.fixture(scope="session")
def j3():
    return textio.parse_instance(str(INSTANCES / "j3.jsbaf"))


@pytest.fixture(scope="session")
def as1():
    return textio.parse_instance(str(INSTANCES / "as1.as"))


@pytest.fixture(scope="session")
def as_u():
    return textio.parse_instance(str(INSTANCES / "as_u.as"))


def labeling_of(framework, in_set=(), out_set=()):
    return Labeling.from_sets(framework.args, in_set, out_set)


def random_labeling(framework, rng):
    """One label drawn per argument, in id order."""
    drawn = dict(zip(framework.args, (rng.choice(LABELS) for _ in framework.args)))
    return labeling_of(framework, *({a for a in drawn if drawn[a] == label} for label in (IN, OUT)))


def big_conj(formulas):
    """Fold an ordered, non-empty list into ``f0 & (f1 & (...))``, taking
    the order as given, with no sorting and no deduplication."""
    if not formulas:
        raise ValueError("big_conj of an empty list is undefined")
    out = formulas[-1]
    for f in reversed(formulas[:-1]):
        out = And(f, out)
    return out


def conj_of_set(formulas):
    """The canonical conjunction of a set: its elements in key order."""
    return big_conj(sorted(set(formulas), key=formula_key))


def non_triviality_witness(atom_names):
    """The pair of systems over the same atoms whose restricted preferred
    conclusions differ: one asserts every atom defeasibly, the other only
    repeats each atom from itself and so derives nothing."""
    atom_names = sorted(set(atom_names))
    if not atom_names:
        raise InstanceError("the witness needs a non-empty atom set")
    asserting = make_system(
        atoms=atom_names,
        defeasible=[DefeasibleRule(f"d{i}", (), Var(name)) for i, name in enumerate(atom_names)],
    )
    circular = make_system(
        atoms=atom_names,
        defeasible=[DefeasibleRule(f"d{i}", (Var(name),), Var(name)) for i, name in enumerate(atom_names)],
    )
    return asserting, circular


def key_dedup_build(system, max_args=ar.DEFAULT_MAX_ARGS, max_depth=ar.DEFAULT_MAX_DEPTH):
    """The reference construction loop: every round makes an argument for
    every combination of every rule and keeps it when its key is new, so
    the first new key past a bound stops it.  Returns ``(keys in canonical
    order, bound)``."""
    rules = [(ar.TOP_AXIOM if r.axiomatic else ar.TOP_CONSEQUENCE, r) for r in system.strict_rules]
    rules += [(ar.TOP_DEFEASIBLE, r) for r in system.defeasible_rules]
    rules.sort(key=lambda kr: kr[1].id)
    known, by_conclusion, bound = {}, {}, None

    def add(argument):
        nonlocal bound
        if argument.key in known:
            return False
        if argument.depth > max_depth:
            bound = ("max_depth", max_depth)
            return False
        if len(known) >= max_args:
            bound = ("max_args", max_args)
            return False
        known[argument.key] = argument
        by_conclusion.setdefault(argument.conclusion, []).append(argument)
        return True

    changed = True
    while changed and bound is None:
        changed = False
        for kind, rule in rules:
            pools = [list(by_conclusion.get(f, ())) for f in rule.antecedents]
            for combo in product(*pools):
                if add(ar.Argument(rule.id, combo, rule.consequent, kind)):
                    changed = True
                if bound is not None:
                    break
            if bound is not None:
                break
    ordered = sorted(known.values(), key=lambda a: (a.depth, a.key))
    return [a.key for a in ordered], bound


@pytest.fixture(scope="session")
def l1(j1):
    return labeling_of(j1, in_set={"a", "b", "d"}, out_set={"bbar"})


@pytest.fixture(scope="session")
def l2(j1):
    return labeling_of(j1, in_set={"a", "b", "c", "d"}, out_set={"bbar", "e"})


@pytest.fixture(scope="session")
def l3(j1):
    return labeling_of(j1, in_set={"a", "b", "d", "e"}, out_set={"bbar", "c"})
