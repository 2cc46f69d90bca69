import re
from dataclasses import FrozenInstanceError, replace

import pytest

from jsbaf.arguments import build_arguments
from jsbaf.errors import InstanceError
from jsbaf.formulas import Not, Var, parse_formula as f
from jsbaf.textio import format_system, parse_system_text
from jsbaf.system import (
    MERGE_POLICIES,
    ArgumentationSystem,
    DefeasibleRule,
    StrictRule,
    atoms_of_system,
    make_system,
    systems_syn_disjoint,
    union_systems,
    validate_system,
)


class TestImmutability:
    def test_rank_is_a_read_only_copy(self):
        rank = {"c": 2}
        system = ArgumentationSystem(
            atoms=frozenset({"p"}),
            strict_rules=(),
            defeasible_rules=(DefeasibleRule("d", (), f("p")), DefeasibleRule("c", (), f("!p"))),
            rank=rank,
        )
        assert rank == {"c": 2}
        assert dict(system.rank) == {"c": 2, "d": 0}
        assert [r.id for r in system.defeasible_rules] == ["c", "d"]
        with pytest.raises(TypeError):
            system.rank["d"] = 1

    def test_fields_cannot_be_assigned(self):
        system = make_system(atoms=["p"], defeasible=[DefeasibleRule("d", (), f("p"))])
        with pytest.raises(FrozenInstanceError):
            system.assume_consequences = True


class TestRefusedWhenBuilt:
    """A system refuses what it cannot represent on every route to one:
    a rule id that is not an identifier, two rules sharing an id, and a
    rank that is not an integer."""

    def test_rule_ids_that_are_not_identifiers(self):
        # a rule line with such an id parsed, validated and printed back as
        # a line that does not parse to the same id
        for text, rule_id in (
            ("atom p\nstrict : p -> p\n", ""),
            ("atom p\ndefeasible [1]: => p\n", ""),
            ("atom p\nstrict a b: p -> p\n", "a b"),
        ):
            with pytest.raises(InstanceError, match=f"^rule id {rule_id!r} is not an identifier$"):
                parse_system_text(text)
        for rule_id in ("1d", "d-1", "d\u00e9", "d\n"):
            with pytest.raises(InstanceError, match=f"^rule id {re.escape(repr(rule_id))} is not an identifier$"):
                make_system(atoms=["p"], defeasible=[DefeasibleRule(rule_id, (), f("p"))])
        system = make_system(atoms=["p"], defeasible=[DefeasibleRule("d1", (), f("p"))])
        with pytest.raises(InstanceError, match="^rule id 's 1' is not an identifier$"):
            replace(system, strict_rules=(StrictRule("s 1", (f("p"),), f("!!p")),))
        s2 = make_system(atoms=["q"], defeasible=[DefeasibleRule("d2", (), f("q"))])
        with pytest.raises(InstanceError, match="^rule id 'x 0' is not an identifier$"):
            union_systems(system, s2, cross_rules=(StrictRule("x 0", (f("p"), f("q")), f("p & q")),))
        # the ids generated for axioms, closures and unions are identifiers
        kept = make_system(atoms=["p"], axioms=[f("p")], strict=[StrictRule("_s", (f("p"),), f("!!p"))])
        assert {r.id for r in kept.strict_rules} == {"ax_516b9783", "_s"}

    def test_an_axiomatic_rule_with_antecedents(self):
        with pytest.raises(InstanceError, match="^axiomatic rule s1 must not have antecedents$"):
            StrictRule("s1", (f("p"),), f("p"), axiomatic=True)

    def test_a_strict_and_a_defeasible_rule_sharing_an_id(self):
        with pytest.raises(InstanceError, match="^duplicate rule id r$"):
            make_system(
                atoms=["p"],
                strict=[StrictRule("r", (f("p"),), f("!!p"))],
                defeasible=[DefeasibleRule("r", (), f("p"))],
            )

    def test_the_first_shared_id_in_id_order_is_named(self):
        rules = [DefeasibleRule(rule_id, (), f("p")) for rule_id in ("e", "b", "e", "c", "b")]
        with pytest.raises(InstanceError, match="^duplicate rule id b$"):
            make_system(atoms=["p"], defeasible=rules)

    def test_a_shared_id_from_text_and_from_replace(self):
        with pytest.raises(InstanceError, match="^duplicate rule id d1$"):
            parse_system_text("atom p\natom q\ndefeasible d1: => p\ndefeasible d1: => q\n")
        system = make_system(atoms=["p"], defeasible=[DefeasibleRule("d1", (), f("p"))])
        with pytest.raises(InstanceError, match="^duplicate rule id d1$"):
            replace(system, strict_rules=(StrictRule("d1", (f("p"),), f("!!p")),))

    def test_union_cross_rules_sharing_an_id(self):
        # the union used to accept two cross rules x0; only a later build
        # refused it
        s1 = make_system(atoms=["p"], defeasible=[DefeasibleRule("d1", (), f("p"))])
        s2 = make_system(atoms=["q"], defeasible=[DefeasibleRule("d2", (), f("q"))])
        both = (StrictRule("x0", (f("p"), f("q")), f("p & q")), StrictRule("x0", (f("q"), f("p")), f("q & p")))
        with pytest.raises(InstanceError, match="^duplicate rule id x0$"):
            union_systems(s1, s2, cross_rules=both)
        with pytest.raises(InstanceError, match="^duplicate rule id d2$"):
            union_systems(s1, s2, cross_rules=(StrictRule("d2", (f("p"), f("q")), f("p & q")),))

    def test_ranks_that_are_not_integers(self):
        # a float or bool rank was kept, and format_system wrote [1.5] or
        # [True], which the parser refuses; a str rank made validate_system
        # raise TypeError
        for bad in (1.5, True, "2", None):
            with pytest.raises(InstanceError, match=f"^rank {bad!r} of rule d is not an integer$"):
                make_system(atoms=["p"], defeasible=[DefeasibleRule("d", (), f("p"))], rank={"d": bad})
        kept = make_system(atoms=["p"], defeasible=[DefeasibleRule("d", (), f("p"))], rank={"d": 2, "gone": 1.5})
        assert dict(kept.rank) == {"d": 2}
        assert parse_system_text(format_system(kept)) == kept


class TestValidate:
    def test_example_system_is_valid(self, as1):
        report = validate_system(as1)
        assert report.ok
        assert any("taken as given" in note for note in report.notes)

    def test_unsatisfiable_axioms(self):
        system = make_system(atoms=["p"], axioms=[f("p"), f("!p")])
        report = validate_system(system)
        assert not report.ok
        assert any("unsatisfiable" in msg for msg in report.failures)

    def test_unsound_consequence_rule(self):
        system = make_system(
            atoms=["p", "q"], strict=[StrictRule("s1", (f("p"),), f("q"))]
        )
        report = validate_system(system)
        assert any("not entailment-valid" in msg for msg in report.failures)

    def test_duplicate_rule_ids(self):
        # refused when the system is built, so there is nothing to validate
        with pytest.raises(InstanceError, match="^duplicate rule id d$"):
            make_system(
                atoms=["p", "q"],
                defeasible=[DefeasibleRule("d", (), f("p")), DefeasibleRule("d", (), f("q"))],
            )

    def test_undeclared_atoms(self):
        system = make_system(atoms=["p"], defeasible=[DefeasibleRule("d", (), f("q"))])
        assert not validate_system(system).ok

    def test_bounded_inconsistency(self):
        # two axioms whose double negations collide structurally
        system = make_system(
            atoms=["p"],
            axioms=[f("p"), f("!p")],
        )
        assert not validate_system(system).ok
        # complementary strict conclusions reached through a rule
        system = make_system(
            atoms=["p", "q"],
            axioms=[f("p"), f("!q")],
            strict=[StrictRule("s1", (f("!q"),), f("!!!q")), StrictRule("s2", (f("p"),), f("!!q"))],
            assume_consequences=True,
        )
        report = validate_system(system)
        assert any("inconsistent" in msg for msg in report.failures)

    def test_inconsistency_deeper_than_construction_bounds(self, monkeypatch):
        # p reaches !p through seven strict steps, beyond the default depth of 6
        chain = ["p", "q"] + ["!" * n + "q" for n in (2, 4, 6, 8, 10)] + ["!p"]
        system = make_system(
            atoms=["p", "q"],
            axioms=[f("p")],
            strict=[StrictRule(f"s{i}", (f(a),), f(c)) for i, (a, c) in enumerate(zip(chain, chain[1:]))],
            defeasible=[DefeasibleRule("d1", (), f("q"))],
            assume_consequences=True,
        )

        def no_build(*args, **kwargs):
            raise AssertionError("validation built arguments")

        monkeypatch.setattr("jsbaf.arguments.build_arguments", no_build)
        report = validate_system(system)
        assert report.failures == ["inconsistent: strict arguments conclude both !p and p"]
        assert report.notes == ["7 consequence rules taken as given (assume_consequences)"]


class TestAtomsOfSystem:
    def test_example_system(self, as1):
        assert atoms_of_system(as1) == {"alpha", "gamma", "delta", "epsilon"}

    def test_named_system(self, as_u):
        assert atoms_of_system(as_u) == {"q", "nu"}

    def test_disjoint(self, as1, as_u):
        assert systems_syn_disjoint(as1, as_u)

    def test_consequence_rules_do_not_contribute(self):
        system = make_system(
            atoms=["p", "q"],
            axioms=[f("p")],
            strict=[StrictRule("s1", (f("p"),), f("!!p"))],
            defeasible=[DefeasibleRule("d", (), f("p"))],
        )
        # q appears nowhere outside the declared universe
        assert atoms_of_system(system) == {"p"}


class TestUnion:
    def test_two_single_axiom_systems(self):
        s1 = make_system(atoms=["p"], axioms=[f("p")])
        s2 = make_system(atoms=["q"], axioms=[f("q")])
        union = union_systems(s1, s2)
        assert len(union.axioms) == 2
        assert not union.defeasible_rules

    def test_non_disjoint_is_an_error(self):
        s1 = make_system(atoms=["p"], defeasible=[DefeasibleRule("a", (), f("p"))])
        s2 = make_system(atoms=["p"], defeasible=[DefeasibleRule("b", (), f("!p"))])
        with pytest.raises(InstanceError):
            union_systems(s1, s2)

    def test_unknown_merge_policy_is_an_error(self):
        s1 = make_system(atoms=["p"], defeasible=[DefeasibleRule("a", (), f("p"))])
        s2 = make_system(atoms=["q"], defeasible=[DefeasibleRule("b", (), f("q"))])
        with pytest.raises(InstanceError, match="^unknown merge policy 'x'$"):
            union_systems(s1, s2, merge="x")

    def test_arguments_survive_union(self, as1, as_u):
        union = union_systems(as1, as_u)
        assert validate_system(union).ok
        keys = {a.key for a in build_arguments(union).arguments}
        for side in (as1, as_u):
            for argument in build_arguments(side).arguments:
                assert argument.key in keys

    def test_merge_policies_extend_both_preorders(self, as1, as_u):
        for merge in ("raw", "interleave"):
            union = union_systems(as1, as_u, merge=merge)
            for side in (as1, as_u):
                ids = sorted(side.rank)
                for r1 in ids:
                    for r2 in ids:
                        if side.rank[r1] <= side.rank[r2]:
                            assert union.rank[r1] <= union.rank[r2]

    def test_interleave_never_ties_across_systems(self):
        s1 = make_system(atoms=["p"], defeasible=[DefeasibleRule("a", (), f("p"))], rank={"a": 1})
        s2 = make_system(atoms=["q"], defeasible=[DefeasibleRule("b", (), f("q"))], rank={"b": 1})
        union = union_systems(s1, s2, merge="interleave")
        assert union.rank["a"] != union.rank["b"]

    def test_rule_id_collision_is_an_error(self):
        s1 = make_system(atoms=["p"], defeasible=[DefeasibleRule("d", (), f("p"))])
        s2 = make_system(atoms=["q"], defeasible=[DefeasibleRule("d", (), f("q"))])
        for merge in MERGE_POLICIES:
            with pytest.raises(InstanceError, match="^duplicate rule id d$"):
                union_systems(s1, s2, merge=merge)
