from dataclasses import replace

import pytest

from jsbaf import arguments as ar
from jsbaf import generate as gen
from jsbaf import naive
from jsbaf import postulates as po
from jsbaf import textio
from jsbaf.errors import InstanceError
from jsbaf.formulas import Not, Var, is_neg_complement, parse_formula as f
from jsbaf.framework import Jsbaf, enumerate_preferred
from jsbaf.system import DefeasibleRule, make_system

from conftest import non_triviality_witness
from test_acceptance import corpus6


@pytest.fixture(scope="module")
def as1_families(as1):
    return ar.preferred_conclusions(as1)


class TestClosureOperator:
    def test_axioms_fire_unconditionally(self, as1):
        closed = po.cl_closure(as1.strict_rules, [])
        assert {str(x) for x in closed} == {"alpha", "delta", "!(gamma & delta & epsilon)"}

    def test_rule_fires_once_antecedents_complete(self, as1):
        closed = po.cl_closure(as1.strict_rules, [f("gamma"), f("epsilon")])
        assert {str(x) for x in closed} == {
            "gamma",
            "epsilon",
            "alpha",
            "delta",
            "!(gamma & delta & epsilon)",
            "gamma & delta & epsilon",
        }

    def test_no_rules(self):
        assert po.cl_closure([], [f("p")]) == {f("p")}


class TestCheckClosure:
    def test_example_extension_passes(self, as1):
        conclusions = [f("alpha"), f("!(gamma & delta & epsilon)"), f("gamma"), f("delta")]
        assert po.check_closure(as1, conclusions).passed

    def test_missing_axiom_fails_with_witness(self, as1):
        conclusions = [f("alpha"), f("!(gamma & delta & epsilon)"), f("gamma")]
        report = po.check_closure(as1, conclusions)
        assert not report.passed
        assert "delta" in report.witness["missing"]

    def test_empty_system(self):
        system = make_system(atoms=["p"])
        assert po.check_closure(system, [f("p")]).passed


class TestDirectConsistency:
    def test_consistent_set(self):
        assert po.check_direct_consistency([f("alpha"), f("gamma"), f("delta")]).passed

    def test_complement_pair_fails(self):
        report = po.check_direct_consistency([f("p"), f("!p")])
        assert not report.passed
        assert set(report.witness["pair"]) == {"p", "!p"}

    def test_example_extensions_pass(self, as1, as1_families):
        for family in as1_families:
            assert po.check_direct_consistency(family).passed


class TestIndirectConsistency:
    def test_example_extensions_pass(self, as1, as1_families):
        for family in as1_families:
            assert po.check_indirect_consistency(as1, family).passed

    def test_fabricated_set_fails_through_closure(self, as1):
        report = po.check_indirect_consistency(
            as1, [f("gamma"), f("delta"), f("epsilon"), f("alpha")]
        )
        assert not report.passed

    def test_empty_over_empty(self):
        system = make_system(atoms=["p"])
        assert po.check_indirect_consistency(system, []).passed


class TestSharedClosure:
    def test_one_strict_closure_per_family(self, monkeypatch):
        # closure and indirect consistency read one closure per conclusion
        # set, whether conclusion_reports runs them or a caller runs them
        # one after the other, as the benchmark's postulate workload does
        # (two per set when each check computed its own)
        calls = []
        closure = po.cl_closure

        def counted_closure(rules, formulas):
            calls.append(None)
            return closure(rules, formulas)

        monkeypatch.setattr(po, "cl_closure", counted_closure)
        families = []
        for shared in corpus6():
            # fresh systems, with no closure kept on them by other tests
            system, again = (textio.parse_system_text(textio.format_system(shared)) for _ in range(2))
            sets = ar.preferred_conclusions(system)
            families.append(len(sets))
            calls.clear()
            reports = po.conclusion_reports(system)
            assert len(calls) == len(sets)
            calls.clear()
            separate = []
            for family in sets:
                separate.append(po.check_closure(again, family))
                separate.append(po.check_direct_consistency(family, instance_digest=po.system_digest(again)))
                separate.append(po.check_indirect_consistency(again, family))
            assert separate == reports
            assert len(calls) == len(sets)
        assert max(families) > 1, families


class TestRestriction:
    def test_families_collapse(self):
        restricted = po.restrict_conclusions(
            [{f("p"), f("q")}, {f("p")}], {"p"}
        )
        assert restricted == frozenset({frozenset({f("p")})})

    def test_empty_input(self):
        assert po.restrict_conclusions([], {"p"}) == frozenset()

    def test_full_atom_set_is_identity(self, as1, as1_families):
        restricted = po.restrict_conclusions(
            as1_families, {"alpha", "gamma", "delta", "epsilon"}
        )
        assert restricted == frozenset(frozenset(fam) for fam in as1_families)


class TestNonInterference:
    def test_example_pair_passes(self, as1, as_u):
        report = po.check_non_interference(
            as1, as_u, cross_rules=gen.cross_closure_rules(as1, as_u)
        )
        assert report.passed

    def test_two_small_systems_pass(self):
        s1 = make_system(atoms=["p"], defeasible=[DefeasibleRule("a", (), Var("p"))])
        s2 = make_system(atoms=["q"], defeasible=[DefeasibleRule("b", (), Var("q"))])
        report = po.check_non_interference(s1, s2, cross_rules=gen.cross_closure_rules(s1, s2))
        assert report.passed

    def test_checker_reports_failures(self):
        # an impoverished rule universe genuinely breaks the postulate: the
        # union can reject the side-1 argument through a cross support whose
        # head only the side-2 attacker can defeat, and with no
        # double-negation step available nothing ever defeats that attacker
        s1 = make_system(atoms=["p"], defeasible=[DefeasibleRule("d1", (), Var("p"))], rank={"d1": 0})
        s2 = make_system(
            atoms=["q"],
            defeasible=[
                DefeasibleRule("d2", (), Var("q")),
                DefeasibleRule("d3", (), Not(Var("q"))),
            ],
            rank={"d2": 1, "d3": 0},
        )
        cross = gen.conjunction_intro_rules([Var("p")], [Var("q")], id_prefix="x")
        report = po.check_non_interference(s1, s2, cross_rules=cross)
        assert report.verdict == po.FAIL
        assert report.witness["side"] == "side1"
        # the witness is re-checkable: the recorded conclusion families differ
        assert report.witness["side_conclusions"] != report.witness["union_conclusions"]

    def test_saturation_repairs_the_failing_pair(self):
        s1 = make_system(atoms=["p"], defeasible=[DefeasibleRule("d1", (), Var("p"))], rank={"d1": 0})
        s2 = make_system(
            atoms=["q"],
            defeasible=[
                DefeasibleRule("d2", (), Var("q")),
                DefeasibleRule("d3", (), Not(Var("q"))),
            ],
            rank={"d2": 1, "d3": 0},
        )
        sat1 = make_system(atoms=["p"], defeasible=s1.defeasible_rules, rank=dict(s1.rank),
                           strict=gen.saturation_rules(gen.base_formulas(s1), "lsat"))
        sat2 = make_system(atoms=["q"], defeasible=s2.defeasible_rules, rank=dict(s2.rank),
                           strict=gen.saturation_rules(gen.base_formulas(s2), "rsat"))
        report = po.check_non_interference(
            sat1, sat2, cross_rules=gen.cross_closure_rules(sat1, sat2)
        )
        assert report.passed

    def test_non_disjoint_pair_is_an_error(self):
        s1 = make_system(atoms=["p"], defeasible=[DefeasibleRule("a", (), Var("p"))])
        s2 = make_system(atoms=["p"], defeasible=[DefeasibleRule("b", (), Var("p"))])
        with pytest.raises(InstanceError):
            po.check_non_interference(s1, s2)

    def test_budget_exhaustion_is_inconclusive(self, as1, as_u):
        budget = po.NonInterferenceBudget(max_nonstrict=1)
        report = po.check_non_interference(
            as1, as_u, cross_rules=gen.cross_closure_rules(as1, as_u), budget=budget
        )
        assert report.verdict == po.INCONCLUSIVE
        assert report.witness["reason"].startswith("union: ")


def restricted_rebuts(a, b):
    """Classic sub-argument rebut: a concludes the complement of the
    conclusion of some defeasible-topped sub-argument of b.  Weaker than
    the gen-rebut, which also reaches conjunctions and the conclusions of
    strict rules."""
    return bool(b.defeasible_rules) and any(
        bp.top_kind == ar.TOP_DEFEASIBLE and is_neg_complement(a.conclusion, bp.conclusion)
        for bp in ar.sub_args(b)
    )


def restricted_defeats(a, b, system):
    """:func:`jsbaf.naive.defeats` with the restricted rebut in place of
    the gen-rebut."""
    if naive.undercuts(a, b, system):
        return True
    if not restricted_rebuts(a, b):
        return False
    return not (naive.ewl_leq(a, b, system) and not naive.ewl_leq(b, a, system))


class TestBrokenEngineSelfTest:
    def test_restricted_rebut_mode_breaks_consistency(self, as1):
        # an engine with the weaker rebut misses the attack on the conjunction
        # argument, so the lone preferred labeling accepts complementary conclusions;
        # the weakened framework keeps the translation's arguments, supports and ranks
        translation = ar.framework_from_system(as1)
        full, argument_of = translation.framework, translation.argument_of
        attacks = frozenset(
            (x, y)
            for x in full.args
            for y in full.args
            if restricted_defeats(argument_of[x], argument_of[y], as1)
        )
        weakened = Jsbaf(args=full.args, attacks=attacks, supports=full.supports, rank=full.rank)
        labelings = enumerate_preferred(weakened)
        assert len(labelings) == 1
        family = [translation.argument_of[a].conclusion for a in labelings[0].in_set]
        report = po.check_direct_consistency(family)
        assert report.verdict == po.FAIL
        phi, psi = (f(s) for s in report.witness["pair"])
        assert is_neg_complement(phi, psi)

    def test_gen_rebut_mode_is_consistent(self, as1, as1_families):
        for family in as1_families:
            assert po.check_direct_consistency(family).passed


class TestNonTriviality:
    def test_single_atom_witness(self):
        asserting, circular = non_triviality_witness(["p"])
        left = po.restrict_conclusions(ar.preferred_conclusions(asserting), {"p"})
        right = po.restrict_conclusions(ar.preferred_conclusions(circular), {"p"})
        assert frozenset({Var("p")}) in left
        assert frozenset({Var("p")}) not in right
        assert left != right

    def test_two_atom_witness(self):
        asserting, circular = non_triviality_witness(["p", "q"])
        left = po.restrict_conclusions(ar.preferred_conclusions(asserting), {"p", "q"})
        right = po.restrict_conclusions(ar.preferred_conclusions(circular), {"p", "q"})
        assert left != right

    def test_empty_atom_set_is_an_error(self):
        with pytest.raises(InstanceError):
            non_triviality_witness([])


class TestReports:
    def test_json_round_trip(self, as1, as1_families):
        import json

        report = po.check_closure(as1, as1_families[0])
        payload = json.loads(report.to_json())
        assert payload["postulate"] == "closure"
        assert payload["verdict"] == "pass"
        assert "rule_universe" in payload


class TestDigest:
    def test_checks_format_the_system_once(self, monkeypatch):
        system = make_system(atoms=["p"], defeasible=[DefeasibleRule("d", (), f("p"))])
        formatted = []
        original = po.format_system
        monkeypatch.setattr(po, "format_system", lambda s: formatted.append(s) or original(s))
        reports = [
            check(system, {f("p")})
            for check in (po.check_closure, po.check_indirect_consistency) * 2
        ]
        assert formatted == [system]
        assert {r.instance_digest for r in reports} == {po.instance_digest(original(system))}

    def test_a_replaced_system_has_its_own_digest(self):
        system = make_system(atoms=["p"], defeasible=[DefeasibleRule("d", (), f("p"))])
        digest = po.system_digest(system)
        assert po.system_digest(replace(system, defeasible_rules=())) != digest


class TestReproShrinking:
    def test_shrinker_drops_irrelevant_rules(self):
        from jsbaf.cli import postulate_fails_on
        from jsbaf.system import make_system, DefeasibleRule

        # an axiom for q next to an unsaturated defeasible !q: the lone
        # preferred extension accepts both, violating direct consistency;
        # the p-rule is noise the shrinker should discard
        system = make_system(
            atoms=["p", "q"],
            axioms=[Var("q")],
            defeasible=[
                DefeasibleRule("d1", (), Not(Var("q"))),
                DefeasibleRule("noise", (), Var("p")),
            ],
        )
        assert postulate_fails_on(system, "direct_consistency")
        shrunk = po.shrink_failing_system(
            system, lambda s: postulate_fails_on(s, "direct_consistency")
        )
        assert postulate_fails_on(shrunk, "direct_consistency")
        assert all(r.id != "noise" for r in shrunk.defeasible_rules)
        assert "noise" not in shrunk.rank

    def test_a_replay_runs_only_its_own_postulates_checks(self, monkeypatch):
        from jsbaf.cli import postulate_fails_on

        system = make_system(atoms=["q"], axioms=[Var("q")], defeasible=[DefeasibleRule("d1", (), Not(Var("q")))])
        calls = []
        for name in ("check_closure", "check_direct_consistency", "check_indirect_consistency"):
            def counted(*args, _check=getattr(po, name), _name=name, **kwargs):
                calls.append(_name)
                return _check(*args, **kwargs)

            monkeypatch.setattr(po, name, counted)
        assert not postulate_fails_on(system, "closure")
        assert set(calls) == {"check_closure"}
        calls.clear()
        assert postulate_fails_on(system, "direct_consistency")
        assert set(calls) == {"check_direct_consistency", "check_indirect_consistency"}

    def test_a_candidate_whose_check_raises_is_skipped(self):
        # dropping a makes every check raise, as a bound hit or a refused
        # instance does: those candidates are passed over, the rest shrink
        system = make_system(
            atoms=["p", "q", "r"],
            defeasible=[DefeasibleRule(rule_id, (), Var(atom)) for rule_id, atom in zip("abc", "pqr")],
        )
        raised = []

        def still_fails(candidate):
            if all(r.id != "a" for r in candidate.defeasible_rules):
                raised.append(candidate)
                raise InstanceError("refused")
            return True

        shrunk = po.shrink_failing_system(system, still_fails)
        assert [r.id for r in shrunk.defeasible_rules] == ["a"]
        assert len(raised) == 3

    def test_replayed_repro_retriggers_the_verdict(self, tmp_path):
        from jsbaf import textio
        from jsbaf.cli import postulate_fails_on
        from jsbaf.system import make_system, DefeasibleRule

        system = make_system(
            atoms=["q"], axioms=[Var("q")],
            defeasible=[DefeasibleRule("d1", (), Not(Var("q")))],
        )
        path = tmp_path / "repro.as"
        path.write_text(textio.format_system(system))
        replayed = textio.parse_instance(str(path))
        assert postulate_fails_on(replayed, "direct_consistency")
