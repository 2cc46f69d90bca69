import random

from jsbaf import arguments as ar
from jsbaf import generate as gen
from jsbaf import naive
from jsbaf import textio
from jsbaf.framework import enumerate_preferred
from jsbaf.framework import validate_structure
from jsbaf.system import DefeasibleRule, make_system, systems_syn_disjoint, validate_system


class TestDeterminism:
    def test_same_seed_same_system(self):
        first = gen.generate_system(gen.FuzzProfile(), seed=1)
        second = gen.generate_system(gen.FuzzProfile(), seed=1)
        assert textio.format_system(first) == textio.format_system(second)

    def test_different_seeds_usually_differ(self):
        texts = {
            textio.format_system(gen.generate_system(gen.FuzzProfile(), seed=s))
            for s in range(8)
        }
        assert len(texts) > 1

    def test_ground_frameworks_deterministic(self):
        a = gen.generate_ground_framework(seed=5)
        b = gen.generate_ground_framework(seed=5)
        assert a.args == b.args and a.attacks == b.attacks and a.supports == b.supports


class TestGeneratedSystems:
    def test_always_valid(self):
        rng = random.Random(3)
        for _ in range(20):
            system = gen.generate_system(gen.FuzzProfile(), rng=rng)
            assert validate_system(system).ok

    def test_strict_only_profile(self):
        profile = gen.FuzzProfile(defeasible_count=(0, 0), axiom_count=(1, 2))
        system = gen.generate_system(profile, seed=4)
        assert not system.defeasible_rules
        translation = ar.framework_from_system(system)
        labelings = enumerate_preferred(translation.framework)
        assert len(labelings) == 1
        assert labelings[0].in_set == frozenset(translation.framework.args)

    def test_named_rule_profile_produces_undercut(self, monkeypatch):
        monkeypatch.setattr(gen, "NAMING_PROBABILITY", 1.0)
        monkeypatch.setattr(gen, "UNDERCUTTER_PROBABILITY", 1.0)
        profile = gen.FuzzProfile()
        found = False
        rng = random.Random(11)
        for _ in range(10):
            system = gen.generate_system(profile, rng=rng)
            build = ar.build_arguments(system)
            args = build.arguments
            if any(naive.undercuts(a, b, system) for a in args for b in args):
                found = True
                break
        assert found

    def test_disjoint_pairs(self):
        rng = random.Random(17)
        for _ in range(10):
            s1, s2 = gen.generate_disjoint_pair(gen.FuzzProfile(), rng=rng)
            assert systems_syn_disjoint(s1, s2)


class TestGeneratedFrameworks:
    def test_structural_restrictions_hold(self):
        rng = random.Random(23)
        for _ in range(30):
            g = gen.generate_ground_framework(rng=rng)
            assert validate_structure(g).ok
            assert len(g.args) <= 8


class TestClosureBuilders:
    def test_saturation_covers_negation_bodies(self):
        from jsbaf.formulas import parse_formula as f

        rules = gen.saturation_rules([f("p"), f("!(a & b)")], "s")
        consequents = {str(r.consequent) for r in rules}
        assert "!!p" in consequents
        assert "!!!(a & b)" in consequents
        assert "!!(a & b)" in consequents  # the body of the negated base formula

    def test_conjunction_intro_sorts_conjuncts(self):
        from jsbaf.formulas import parse_formula as f

        rules = gen.conjunction_intro_rules([f("q")], [f("p")], id_prefix="c")
        assert [str(r.consequent) for r in rules] == ["p & q"]

    def test_cross_rule_ids_are_numbered_past_the_sides_ids(self):
        from jsbaf.formulas import parse_formula as f

        def side(atom, *ids):
            return make_system(atoms=[atom], defeasible=[DefeasibleRule(i, (), f(atom)) for i in ids])

        assert [r.id for r in gen.cross_closure_rules(side("p", "d1"), side("q", "d2"))] == ["x0"]
        assert [r.id for r in gen.cross_closure_rules(side("p", "x0", "x07"), side("q", "x3", "xa9"))] == ["x8"]
