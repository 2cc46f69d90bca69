import random

import pytest

from jsbaf import arguments as ar
from jsbaf import generate as gen
from jsbaf import naive
from jsbaf.formulas import And, Not, Var, parse_formula as f
from jsbaf.errors import InstanceError
from jsbaf.system import DefeasibleRule, StrictRule, make_system

from conftest import key_dedup_build
from test_acceptance import corpus6


CYCLE = make_system(
    atoms=["p"],
    defeasible=[DefeasibleRule("d0", (), f("p")), DefeasibleRule("d1", (f("p"),), f("p"))],
)


@pytest.fixture(scope="module")
def example_args(as1):
    build = ar.build_arguments(as1)
    assert not build.truncated
    return {str(a.conclusion): a for a in build.arguments}


class TestBuild:
    def test_example_system_builds_exactly_six(self, as1):
        build = ar.build_arguments(as1)
        assert len(build.arguments) == 6
        assert {str(a.conclusion) for a in build.arguments} == {
            "alpha",
            "!(gamma & delta & epsilon)",
            "gamma",
            "delta",
            "epsilon",
            "gamma & delta & epsilon",
        }

    def test_no_rules_no_arguments(self):
        system = make_system(atoms=["p"])
        assert ar.build_arguments(system).arguments == ()

    def test_single_axiom(self):
        system = make_system(atoms=["p"], axioms=[f("p")])
        build = ar.build_arguments(system)
        assert len(build.arguments) == 1
        assert ar.is_strict(build.arguments[0])

    def test_rule_cycle_truncates(self):
        build = ar.build_arguments(CYCLE, max_depth=4)
        assert build.truncated
        # d0(), d1(d0()) and d1(d1(d0())) fit both bounds; the next
        # derivation is 4 deep
        assert ar.build_arguments(CYCLE, max_depth=3, max_args=3).bound == ("max_depth", 3)
        assert ar.build_arguments(CYCLE, max_depth=4, max_args=3).bound == ("max_args", 3)

    def test_deterministic_order(self, as1):
        first = ar.build_arguments(as1).arguments
        second = ar.build_arguments(as1).arguments
        assert [a.key for a in first] == [a.key for a in second]
        assert [a.key for a in first] == [
            a.key for a in sorted(first, key=lambda a: (a.depth, a.key))
        ]

    def test_limits_must_be_positive(self, as1):
        with pytest.raises(ValueError):
            ar.build_arguments(as1, max_args=0)

    def test_duplicate_rule_ids_are_refused(self):
        # a derivation is named by its rule's id, so two rules d1 built
        # only the first, and preferred_conclusions answered [{p}]; no such
        # system is built now, so neither can see one
        with pytest.raises(InstanceError, match="^duplicate rule id d1$"):
            make_system(
                atoms=["p", "q"],
                defeasible=[DefeasibleRule("d1", (), f("p")), DefeasibleRule("d1", (), f("q"))],
            )


def random_rule_parts(rng):
    """The arguments of ``make_system`` for a small system with rules of up
    to two antecedents over three atoms, cycles among them, and now and
    then two rules sharing an id."""
    literals = [Var(name) for name in "pqr"]
    literals += [Not(v) for v in literals]
    formulas = literals + [And(literals[0], literals[1])]

    def rule_parts():
        return tuple(rng.sample(formulas, rng.randint(0, 2))), rng.choice(formulas)

    ids = [f"r{i}" for i in range(rng.randint(2, 6))]
    if rng.random() < 0.3:
        ids.append(ids[0])
    strict, defeasible = [], []
    for rule_id in ids:
        if rng.random() < 0.4:
            strict.append(StrictRule(rule_id, *rule_parts()))
        else:
            defeasible.append(DefeasibleRule(rule_id, *rule_parts()))
    return dict(atoms="pqr", axioms=rng.sample(literals, rng.randint(0, 1)), strict=strict, defeasible=defeasible)


class TestBuildMatchesKeyDedup:
    """Every build, complete or cut by a bound, keeps the arguments, the
    order and the bound of the loop that made an argument for every
    combination and deduplicated by key; a system whose rules share an id
    is refused when it is built."""

    @staticmethod
    def assert_same_builds(system):
        for max_depth in (1, 2, 3):
            full, _ = key_dedup_build(system, max_depth=max_depth)
            for max_args in range(1, len(full) + 2):
                build = ar.build_arguments(system, max_args=max_args, max_depth=max_depth)
                keys, bound = key_dedup_build(system, max_args=max_args, max_depth=max_depth)
                assert [a.key for a in build.arguments] == keys
                assert build.bound == bound

    def test_rule_cycle(self):
        self.assert_same_builds(CYCLE)

    def test_criterion_6_corpus(self):
        for system in corpus6():
            self.assert_same_builds(system)

    def test_random_systems(self):
        rng = random.Random("build-matches-key-dedup")
        shared = 0
        for _ in range(150):
            parts = random_rule_parts(rng)
            ids = sorted(r.id for r in parts["strict"] + parts["defeasible"])
            repeated = [a for a, b in zip(ids, ids[1:]) if a == b]
            if repeated:
                shared += 1
                with pytest.raises(InstanceError, match=f"^duplicate rule id {repeated[0]}$"):
                    make_system(**parts)
            else:
                self.assert_same_builds(make_system(**parts))
        assert shared > 20, shared
        profile = gen.FuzzProfile(antecedent_count=(0, 2), conjunction_intro=True)
        for _ in range(50):
            self.assert_same_builds(gen.generate_system(profile, rng=rng))


class TestSubArguments:
    def test_sub_args_of_joint_argument(self, example_args):
        bbar = example_args["gamma & delta & epsilon"]
        assert {str(x.conclusion) for x in ar.sub_args(bbar)} == {
            "gamma",
            "delta",
            "epsilon",
            "gamma & delta & epsilon",
        }

    def test_def_rules(self, example_args):
        assert example_args["gamma & delta & epsilon"].defeasible_rules == {"rd1", "rd2"}
        assert example_args["!(gamma & delta & epsilon)"].defeasible_rules == frozenset()

    def test_is_strict(self, example_args):
        assert ar.is_strict(example_args["alpha"])
        assert not ar.is_strict(example_args["gamma"])
        assert not ar.is_strict(example_args["gamma & delta & epsilon"])

    def test_ad_sub(self, example_args):
        bbar = example_args["gamma & delta & epsilon"]
        assert {str(x.conclusion) for x in naive.ad_sub(bbar)} == {"gamma", "delta", "epsilon"}
        a = example_args["alpha"]
        assert naive.ad_sub(a) == {a}
        b = example_args["!(gamma & delta & epsilon)"]
        assert {str(x.conclusion) for x in naive.ad_sub(b)} == {"alpha"}

    def test_c_sub(self, example_args):
        bbar = example_args["gamma & delta & epsilon"]
        assert {str(x.conclusion) for x in naive.c_sub(bbar)} == {"gamma", "delta", "epsilon"}
        c = example_args["gamma"]
        assert naive.c_sub(c) == {c}
        b = example_args["!(gamma & delta & epsilon)"]
        assert {str(x.conclusion) for x in naive.c_sub(b)} == {"alpha"}

    def test_c_sub_walks_through_chained_consequence_rules(self):
        system = make_system(
            atoms=["p"],
            defeasible=[DefeasibleRule("d", (), f("p"))],
            strict=[
                StrictRule("s1", (f("p"),), f("!!p")),
                StrictRule("s2", (f("!!p"),), f("!!(!(!p))")),
            ],
        )
        build = ar.build_arguments(system)
        deep = max(build.arguments, key=lambda a: a.depth)
        assert deep.depth == 3
        assert {str(x.conclusion) for x in naive.c_sub(deep)} == {"p"}


class TestAttacks:
    def test_undercut(self, as_u):
        build = ar.build_arguments(as_u)
        u = next(a for a in build.arguments if str(a.conclusion) == "!nu")
        x = next(a for a in build.arguments if str(a.conclusion) == "q")
        assert naive.undercuts(u, x, as_u)
        assert not naive.undercuts(x, u, as_u)

    def test_no_undercuts_without_names(self, as1, example_args):
        args = list(example_args.values())
        assert not any(naive.undercuts(a, b, as1) for a in args for b in args)

    def test_gen_rebut_on_whole_conclusion(self, example_args):
        b = example_args["!(gamma & delta & epsilon)"]
        bbar = example_args["gamma & delta & epsilon"]
        assert naive.gen_rebuts(b, bbar)

    def test_strict_targets_cannot_be_gen_rebutted(self, example_args):
        b = example_args["!(gamma & delta & epsilon)"]
        bbar = example_args["gamma & delta & epsilon"]
        assert not naive.gen_rebuts(bbar, b)

    def test_no_self_gen_rebut_without_negation_shape(self, example_args):
        c = example_args["gamma"]
        assert not naive.gen_rebuts(c, c)

    def test_gen_rebut_through_conjunct_set(self):
        system = make_system(
            atoms=["a", "b"],
            defeasible=[
                DefeasibleRule("d1", (), f("a")),
                DefeasibleRule("d2", (f("a"),), f("b")),
                DefeasibleRule("d3", (), f("!(a & b)")),
            ],
        )
        build = ar.build_arguments(system)
        attacker = next(a for a in build.arguments if str(a.conclusion) == "!(a & b)")
        target = next(a for a in build.arguments if str(a.conclusion) == "b")
        # both a and b occur among the target's sub-conclusions
        assert naive.gen_rebuts(attacker, target)


class TestPreferences:
    def test_example_relation(self, as1, example_args):
        by = example_args
        named = {
            "a": by["alpha"],
            "b": by["!(gamma & delta & epsilon)"],
            "bbar": by["gamma & delta & epsilon"],
            "c": by["gamma"],
            "d": by["delta"],
            "e": by["epsilon"],
        }
        relation = {
            (x, y)
            for x in named
            for y in named
            if naive.ewl_leq(named[x], named[y], as1)
        }
        everything = {(x, y) for x in named for y in named}
        removed = {(x, y) for x in ("a", "b", "d") for y in ("bbar", "c", "e")}
        assert relation == everything - removed

    def test_specific_pairs(self, as1, example_args):
        c, d, e = (example_args[k] for k in ("gamma", "delta", "epsilon"))
        a, b = example_args["alpha"], example_args["!(gamma & delta & epsilon)"]
        assert naive.ewl_leq(c, d, as1) and not naive.ewl_leq(d, c, as1)
        assert naive.ewl_leq(a, b, as1) and naive.ewl_leq(b, a, as1)
        assert naive.ewl_leq(c, e, as1) and naive.ewl_leq(e, c, as1)


class TestDefeats:
    def test_example_defeats(self, as1, example_args):
        b = example_args["!(gamma & delta & epsilon)"]
        bbar = example_args["gamma & delta & epsilon"]
        c = example_args["gamma"]
        assert naive.defeats(b, bbar, as1)
        assert not naive.defeats(bbar, b, as1)
        assert not naive.defeats(c, c, as1)

    def test_weaker_gen_rebutter_does_not_defeat(self):
        system = make_system(
            atoms=["p"],
            defeasible=[
                DefeasibleRule("strong", (), f("p")),
                DefeasibleRule("weak", (), f("!p")),
            ],
            rank={"strong": 2, "weak": 0},
        )
        build = ar.build_arguments(system)
        strong = next(a for a in build.arguments if str(a.conclusion) == "p")
        weak = next(a for a in build.arguments if str(a.conclusion) == "!p")
        assert naive.gen_rebuts(weak, strong)
        assert not naive.defeats(weak, strong, system)

    def test_undercut_defeats_regardless_of_rank(self, as_u):
        build = ar.build_arguments(as_u)
        u = next(a for a in build.arguments if str(a.conclusion) == "!nu")
        x = next(a for a in build.arguments if str(a.conclusion) == "q")
        assert naive.defeats(u, x, as_u)
