"""Property-based and fuzzed invariant tests.

The legality and enumeration engines, and the bit-column truth tables,
are checked against the naive definitional transcriptions in
:mod:`jsbaf.naive`; the argument-level relations of :mod:`jsbaf.naive`
are checked against independent brute-force re-derivations written here
(exhaustive subset search for rebuts, quantifier transcription for the
preference lifting), and the translation's indexed attacks against
those pairwise relations.
"""

import pathlib
import random
import re
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from jsbaf import arguments as ar
from jsbaf import formulas as fm
from jsbaf import framework as fw
from jsbaf import generate as gen
from jsbaf import naive, textio
from jsbaf import postulates as po
from jsbaf.errors import InstanceError, ResourceLimitError
from jsbaf.formulas import And, Not, Var, parse_formula
from jsbaf.system import StrictRule, cl_closure, union_systems

from conftest import big_conj, conj_of_set, random_labeling
import test_acceptance
from test_acceptance import corpus6, corpus7
from test_bench_contract import _load
from test_cli import _formulas, _system_text


# --- hypothesis strategies -------------------------------------------------

atom_names = st.sampled_from(["p", "q", "r", "s"])


def formulas(max_leaves=4):
    return st.recursive(
        atom_names.map(Var),
        lambda child: st.one_of(
            child.map(Not),
            st.tuples(child, child).map(lambda lr: And(*lr)),
        ),
        max_leaves=max_leaves,
    )


formula_sets = st.lists(formulas(), min_size=0, max_size=4).map(tuple)


class TestFormulaProperties:
    @given(formulas())
    def test_print_parse_round_trip(self, formula):
        assert parse_formula(fm.format_formula(formula)) == formula

    @given(formulas(), st.dictionaries(atom_names, st.booleans()))
    def test_negation_semantics(self, formula, partial):
        interp = {a: partial.get(a, False) for a in ("p", "q", "r", "s")}
        assert naive.satisfies(interp, Not(formula)) == (not naive.satisfies(interp, formula))

    @given(formulas(), formulas(), st.dictionaries(atom_names, st.booleans()))
    def test_conjunction_semantics(self, left, right, partial):
        interp = {a: partial.get(a, False) for a in ("p", "q", "r", "s")}
        assert naive.satisfies(interp, And(left, right)) == (
            naive.satisfies(interp, left) and naive.satisfies(interp, right)
        )

    @given(formula_sets, formulas(), formulas())
    def test_entailment_monotone(self, gamma, phi, psi):
        if fm.entails(gamma, phi):
            assert fm.entails(gamma + (psi,), phi)

    @given(formula_sets, st.lists(formulas(), min_size=1, max_size=3), formulas())
    def test_entailment_chains(self, gamma, mids, psi):
        if all(fm.entails(gamma, m) for m in mids) and fm.entails(mids, psi):
            assert fm.entails(gamma, psi)

    @settings(max_examples=60)
    @given(st.lists(formulas(), max_size=3), st.lists(formulas(), max_size=3))
    def test_disjoint_satisfiable_combination(self, gamma, delta):
        renamed = [_rename(f, "_d") for f in delta]
        if fm.satisfiable(gamma) and fm.satisfiable(renamed):
            assert not fm.atoms_of(gamma) & fm.atoms_of(renamed)
            assert fm.satisfiable(list(gamma) + renamed)

    @given(st.lists(st.tuples(formulas(max_leaves=2), st.integers(0, 2)), max_size=8))
    def test_complementary_pairs_are_the_pairwise_complements(self, drawn):
        gamma = []
        for formula, negations in drawn:
            for _ in range(negations):
                formula = Not(formula)
            gamma.append(formula)
        ordered = sorted(set(gamma), key=fm.formula_key)
        expected = [
            (phi, psi) for i, phi in enumerate(ordered) for psi in ordered[i + 1 :] if fm.is_neg_complement(phi, psi)
        ]
        assert list(fm.complementary_pairs(gamma)) == expected

    @given(atom_names)
    def test_atoms_are_contingent(self, name):
        assert fm.satisfiable([Var(name)])
        assert fm.satisfiable([Not(Var(name))])


def _rename(formula, suffix):
    if isinstance(formula, Var):
        return Var(formula.name + suffix)
    if isinstance(formula, Not):
        return Not(_rename(formula.sub, suffix))
    return And(_rename(formula.left, suffix), _rename(formula.right, suffix))


def _random_formula(rng, names, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.4:
        return Var(rng.choice(names))
    if roll < 0.7:
        return Not(_random_formula(rng, names, depth - 1))
    return And(_random_formula(rng, names, depth - 1), _random_formula(rng, names, depth - 1))


class TestTruthTableColumns:
    """The bit-column truth tables of :mod:`jsbaf.formulas` agree with the
    row-by-row evaluation in :mod:`jsbaf.naive`."""

    def test_random_queries(self):
        rng = random.Random(15)
        outcomes = set()
        for _ in range(3000):
            names = [f"x{i}" for i in range(rng.randint(1, 6))]
            gamma = [_random_formula(rng, names, 3) for _ in range(rng.randint(0, 4))]
            if gamma and rng.random() < 0.2:
                gamma.append(Not(rng.choice(gamma)))  # unsatisfiable
            psi = _random_formula(rng, names, 3)
            entailed = fm.entails(gamma, psi)
            satisfiable = fm.satisfiable(gamma)
            assert entailed == naive.naive_entails(gamma, psi)
            assert satisfiable == naive.naive_satisfiable(gamma)
            outcomes.add((entailed, satisfiable, len(gamma) > 0))
        assert len(outcomes) == 5  # every mix: an empty gamma is satisfiable, an unsatisfiable one entails

    def test_translate_corpus_rules(self):
        workloads = _load("workloads")
        texts = workloads.translate_corpus("1", workloads.WORKLOADS["translate"].size)
        rules = 0
        for text in texts:
            system = textio.parse_system_text(text)
            assert fm.satisfiable(system.axioms) == naive.naive_satisfiable(system.axioms)
            for rule in system.strict_rules:
                if not rule.axiomatic:
                    rules += 1
                    expected = naive.naive_entails(rule.antecedents, rule.consequent)
                    assert fm.entails(rule.antecedents, rule.consequent) == expected
        assert rules == 6758

    def test_atom_bound(self):
        atoms = [Var(f"x{i}") for i in range(17)]
        for bound, gamma in ((fm.DEFAULT_ATOM_BOUND, atoms), (3, atoms[:4])):
            for fast, slow, args in (
                (fm.entails, naive.naive_entails, (gamma, atoms[0])),
                (fm.satisfiable, naive.naive_satisfiable, (gamma,)),
            ):
                with pytest.raises(ResourceLimitError) as fast_error:
                    fast(*args, atom_bound=bound)
                with pytest.raises(ResourceLimitError) as slow_error:
                    slow(*args, atom_bound=bound)
                assert str(fast_error.value) == str(slow_error.value)
                assert f"atoms exceed the truth-table bound of {bound}" in str(fast_error.value)
                assert fast_error.value.bound_name == slow_error.value.bound_name == "atom_bound"
                assert fast_error.value.bound_value == slow_error.value.bound_value == bound


# --- independent re-derivations of the argument-level relations -----------


def brute_gen_rebuts(a, b):
    """Exhaustive subset search over the target's sub-conclusions."""
    if not b.defeasible_rules:
        return False
    pool = sorted({x.conclusion for x in ar.sub_args(b)}, key=fm.formula_key)
    for size in range(1, len(pool) + 1):
        for gamma in combinations(pool, size):
            if a.conclusion == Not(big_conj(list(gamma))):
                return True
    return False


def brute_ewl_leq(a, b, system):
    dr_a, dr_b = a.defeasible_rules, b.defeasible_rules
    if not dr_a and not dr_b:
        return True
    return any(
        all(system.rank[ra] <= system.rank[rb] for rb in sorted(dr_b))
        for ra in sorted(dr_a)
    )


def brute_defeats(a, b, system):
    if naive.undercuts(a, b, system):
        return True
    if not brute_gen_rebuts(a, b):
        return False
    return not (brute_ewl_leq(a, b, system) and not brute_ewl_leq(b, a, system))


@pytest.fixture(scope="module")
def fuzzed_systems():
    rng = random.Random(1234)
    return [gen.generate_system(gen.FuzzProfile(), rng=rng) for _ in range(25)]


def assert_attacks_are_naive_defeats(system, build=None):
    """The translation's attacks are exactly the pairs that the pairwise
    ``naive.defeats`` accepts; returns how many there are."""
    build = build or ar.build_arguments(system)
    translation = ar.framework_from_system(system, build=build)
    id_of = {a: aid for aid, a in translation.argument_of.items()}
    args = build.arguments
    expected = {(id_of[a], id_of[b]) for a in args for b in args if naive.defeats(a, b, system)}
    assert translation.framework.attacks == expected
    return len(expected)


class TestArgumentRelations:
    def test_defeats_matches_brute_force(self, fuzzed_systems):
        for system in fuzzed_systems:
            args = ar.build_arguments(system).arguments
            for a in args:
                for b in args:
                    assert naive.defeats(a, b, system) == brute_defeats(a, b, system)
            assert_attacks_are_naive_defeats(system)

    def test_ewl_is_a_total_preorder(self, fuzzed_systems):
        for system in fuzzed_systems:
            args = ar.build_arguments(system).arguments[:12]
            for a in args:
                for b in args:
                    assert naive.ewl_leq(a, b, system) or naive.ewl_leq(b, a, system)
                    for c in args:
                        if naive.ewl_leq(a, b, system) and naive.ewl_leq(b, c, system):
                            assert naive.ewl_leq(a, c, system)

    def test_adsub_entails_every_sub_conclusion(self, fuzzed_systems):
        for system in fuzzed_systems:
            for a in ar.build_arguments(system).arguments:
                premises = [x.conclusion for x in naive.ad_sub(a)]
                for psi in {x.conclusion for x in ar.sub_args(a)}:
                    assert fm.entails(premises, psi)

    def test_csub_entails_conclusion(self, fuzzed_systems):
        for system in fuzzed_systems:
            for a in ar.build_arguments(system).arguments:
                assert fm.entails([x.conclusion for x in naive.c_sub(a)], a.conclusion)

    def test_one_step_attacker_construction(self, fuzzed_systems):
        checked = 0
        for system in fuzzed_systems:
            args = ar.build_arguments(system).arguments
            pairs = [
                (a, b) for a in args for b in args if naive.gen_rebuts(a, b)
            ][:3]
            for a, b in pairs:
                target = Not(conj_of_set(x.conclusion for x in naive.ad_sub(b)))
                assert fm.entails([a.conclusion], target)
                extended = type(system)(
                    atoms=system.atoms,
                    strict_rules=system.strict_rules
                    + (StrictRule("onestep", (a.conclusion,), target),),
                    defeasible_rules=system.defeasible_rules,
                    rank=dict(system.rank),
                )
                rebuilt = ar.build_arguments(extended, max_args=3000, max_depth=10)
                prime = next(
                    x
                    for x in rebuilt.arguments
                    if x.rule_id == "onestep" and x.subs[0].key == a.key
                )
                assert naive.gen_rebuts(prime, b)
                checked += 1
        assert checked


class TestIndexedAttacks:
    """The indexed attacks of the translation equal the pairwise naive
    defeats on the acceptance corpora and the benchmark's translate corpus."""

    def test_criterion_6_corpus(self):
        assert sum(assert_attacks_are_naive_defeats(system) for system in corpus6())

    def test_criterion_7_corpus(self):
        budget = po.NonInterferenceBudget()
        found = 0
        for index, (s1, s2) in enumerate(corpus7()):
            merge = "raw" if index % 2 == 0 else "interleave"
            union = union_systems(s1, s2, merge=merge, cross_rules=gen.cross_closure_rules(s1, s2))
            for system in (s1, s2, union):
                build = ar.build_arguments(system, max_args=budget.max_args, max_depth=budget.max_depth)
                found += assert_attacks_are_naive_defeats(system, build)
        assert found

    def test_translate_corpus(self):
        workloads = _load("workloads")
        texts = workloads.translate_corpus("1", workloads.WORKLOADS["translate"].size)
        assert len(texts) == 147
        sizes = []
        for text in texts:
            system = textio.parse_system_text(text)
            build = ar.build_arguments(system)
            assert_attacks_are_naive_defeats(system, build)
            sizes.append(len(build.arguments))
        assert 200 <= max(sizes) <= 330  # the top stratum of the corpus


def assert_ranks_and_supports_are_naive(system, build):
    """The translation's rank classes are the dense ranking of the pairwise
    weakest-link ranks ``naive.min_rank``, strict arguments in the class on
    top; its strict mask is the arguments applying no defeasible rule; and
    a head's supporting set is the direct sub-arguments of a strict top
    rule.  Returns how many non-strict arguments there are."""
    translation = ar.framework_from_system(system, build=build)
    args = build.arguments
    assert [translation.argument_of[i] for i in translation.ids] == list(args)
    weakest = [naive.min_rank(a, system) for a in args]
    classes = sorted({r for r in weakest if r is not None})
    assert translation.rank == [len(classes) if r is None else classes.index(r) for r in weakest]
    assert translation.strict_mask == sum(1 << i for i, a in enumerate(args) if not a.defeasible_rules)
    id_of = {a: aid for aid, a in translation.argument_of.items()}
    assert translation.framework.supports == {
        id_of[a]: frozenset(id_of[s] for s in a.subs) for a in args if a.top_kind != ar.TOP_DEFEASIBLE
    }
    return sum(r is not None for r in weakest)


class TestIndexedRanks:
    """The ranks, strict mask and supports of the translation, propagated
    along direct sub-arguments, are the pairwise definitions on the
    acceptance corpora and the benchmark's translate corpus."""

    def test_criterion_6_corpus(self):
        assert sum(assert_ranks_and_supports_are_naive(system, ar.build_arguments(system)) for system in corpus6())

    def test_criterion_7_corpus(self):
        budget = po.NonInterferenceBudget()
        found = 0
        for index, (s1, s2) in enumerate(corpus7()):
            merge = "raw" if index % 2 == 0 else "interleave"
            union = union_systems(s1, s2, merge=merge, cross_rules=gen.cross_closure_rules(s1, s2))
            for system in (s1, s2, union):
                build = ar.build_arguments(system, max_args=budget.max_args, max_depth=budget.max_depth)
                found += assert_ranks_and_supports_are_naive(system, build)
        assert found

    def test_translate_corpus(self):
        workloads = _load("workloads")
        texts = workloads.translate_corpus("1", workloads.WORKLOADS["translate"].size)
        ranked = 0
        for text in texts:
            system = textio.parse_system_text(text)
            assert_ranks_and_supports_are_naive(system, ar.build_arguments(system))
            ranked += len(set(system.rank.values())) > 1
        assert ranked


class TestTranslationWork:
    """Translating reads each argument's direct sub-arguments only: on the
    seed-1 benchmark translate corpus, loaded as ``TestIndexedAttacks``
    loads it, no argument's rule-id set or sub-argument set is made."""

    def test_translate_corpus(self):
        workloads = _load("workloads")
        texts = workloads.translate_corpus("1", workloads.WORKLOADS["translate"].size)
        built = 0
        for text in texts:
            system = textio.parse_system_text(text)
            build = ar.build_arguments(system)
            ar.framework_from_system(system, build=build)
            assert all(a._rule_set is None and a._sub_set is None for a in build.arguments)
            built += len(build.arguments)
        assert built == 6_663
        # the sets are still made for the readers that ask for them
        top = build.arguments[-1]
        assert ar.sub_args(top) is top._sub_set and top.defeasible_rules is top._rule_set


def _sub_formulas(formula):
    yield formula
    if isinstance(formula, Not):
        yield from _sub_formulas(formula.sub)
    elif isinstance(formula, And):
        yield from _sub_formulas(formula.left)
        yield from _sub_formulas(formula.right)


class TestSharedParse:
    """Parsing a file builds one formula object per distinct sub-formula
    text, on the benchmark's translate corpus, loaded as
    ``TestIndexedAttacks`` loads it."""

    def test_translate_corpus(self, monkeypatch):
        workloads = _load("workloads")
        texts = workloads.translate_corpus("1", workloads.WORKLOADS["translate"].size)
        built = []
        for cls in (Var, Not, And):
            def counted(self, *args, _init=cls.__init__):
                built.append(self)
                _init(self, *args)

            monkeypatch.setattr(cls, "__init__", counted)
        systems = [textio.parse_system_text(text) for text in texts]
        monkeypatch.undo()
        # 40,086 when every formula text was parsed whole with nothing shared;
        # a bound that may be tightened, never loosened
        assert len(built) <= 11_198
        for system in systems:
            # canonical text writes each formula one way, so one object per key
            by_key = {}
            for rule in (*system.strict_rules, *system.defeasible_rules):
                for formula in (*rule.formulas(), *([rule.name] if getattr(rule, "name", None) else [])):
                    for sub in _sub_formulas(formula):
                        assert by_key.setdefault(sub.key, sub) is sub


class TestConstructionWork:
    """Argument construction makes an :class:`Argument` only for a
    derivation it has not made before, on the seed-1 benchmark translate
    corpus, loaded as ``TestIndexedAttacks`` loads it."""

    def test_translate_corpus(self, monkeypatch):
        workloads = _load("workloads")
        texts = workloads.translate_corpus("1", workloads.WORKLOADS["translate"].size)
        systems = [textio.parse_system_text(text) for text in texts]
        created = []

        class Counted(ar.Argument):
            __slots__ = ()

            def __init__(self, *args):
                created.append(None)
                super().__init__(*args)

        monkeypatch.setattr(ar, "Argument", Counted)
        builds = [ar.build_arguments(system) for system in systems]
        assert not any(build.truncated for build in builds)
        built = sum(len(build.arguments) for build in builds)
        assert built == 6_663
        # 18,006 when every combination of every round made an argument
        assert len(created) == built
        cut = 0
        for system, build in zip(systems, builds):
            for max_args, max_depth in ((len(build.arguments) // 2 or 1, ar.DEFAULT_MAX_DEPTH), (ar.DEFAULT_MAX_ARGS, 2)):
                created.clear()
                bounded = ar.build_arguments(system, max_args=max_args, max_depth=max_depth)
                cut += bounded.truncated
                # a cut build may make the one argument past its bound
                assert len(created) <= len(bounded.arguments) + bounded.truncated
        assert cut


class TestCanonicalBuild:
    """A build holds one object per argument key, and every sub-argument is
    the build's own object: arguments compare by identity on this alone."""

    @staticmethod
    def assert_canonical(build):
        by_key = {a.key: a for a in build.arguments}
        assert len(by_key) == len(build.arguments)
        for a in build.arguments:
            subs = ar.sub_args(a)  # a.subs among them
            assert len({s.key for s in subs}) == len(subs)
            assert all(s is by_key[s.key] for s in subs)
        return len(build.arguments)

    def test_criterion_6_corpus(self):
        assert sum(self.assert_canonical(ar.build_arguments(system)) for system in corpus6())

    def test_criterion_7_unions(self):
        budget = po.NonInterferenceBudget()
        built = 0
        for index, (s1, s2) in enumerate(corpus7()):
            merge = "raw" if index % 2 == 0 else "interleave"
            union = union_systems(s1, s2, merge=merge, cross_rules=gen.cross_closure_rules(s1, s2))
            for system in (s1, s2, union):
                built += self.assert_canonical(
                    ar.build_arguments(system, max_args=budget.max_args, max_depth=budget.max_depth)
                )
        assert built


class TestNonInterferenceSides:
    def test_sides_are_within_the_union_bounds(self):
        """Every union build is complete under the non-interference
        budget, and so is each side's, with its arguments among the
        union's: so a side is within every bound its union is within."""
        budget = po.NonInterferenceBudget()
        for index, (s1, s2) in enumerate(corpus7()):
            merge = "raw" if index % 2 == 0 else "interleave"
            union = union_systems(s1, s2, merge=merge, cross_rules=gen.cross_closure_rules(s1, s2))
            union_build = ar.build_arguments(union, max_args=budget.max_args, max_depth=budget.max_depth)
            assert not union_build.truncated
            union_keys = {a.key for a in union_build.arguments}
            for side in (s1, s2):
                build = ar.build_arguments(side, max_args=budget.max_args, max_depth=budget.max_depth)
                assert not build.truncated
                assert {a.key for a in build.arguments} <= union_keys

    def test_restricted_union_is_the_side_translation(self):
        """Mapped by argument key, the union translation's engine restricted
        to each side's mask is the side translation's engine: its support order,
        attackers, supports, co-supporters, strict mask and root cut,
        under both merge policies, on the criterion-6 systems paired up
        (the second of each renamed apart), the criterion-7 pairs and the
        seed-1 benchmark non-interference corpus."""
        workloads = _load("workloads")
        corpus = workloads.non_interference_corpus("1", workloads.WORKLOADS["non-interference"].size)
        systems6 = corpus6()
        pairs = [
            (left, textio.parse_system_text(re.sub(r"\b([a-z]\w*\d)\b", r"r_\1", textio.format_system(right))))
            for left, right in zip(systems6[::2], systems6[1::2])
        ]
        pairs += list(corpus7())
        pairs += [(textio.parse_system_text(left), textio.parse_system_text(right)) for _, left, right in corpus]
        assert len(pairs) == 100 + 50 + 349
        budget = po.NonInterferenceBudget()
        for s1, s2 in pairs:
            for merge in ("raw", "interleave"):
                union = union_systems(s1, s2, merge=merge, cross_rules=gen.cross_closure_rules(s1, s2))
                translation = ar.complete_translation(union, budget.max_args, budget.max_depth)
                for side in (s1, s2):
                    own = ar.complete_translation(side, budget.max_args, budget.max_depth)
                    expected = _engine_by_key(own.engine, own)
                    restricted = translation.engine.restrict(ar.side_mask(translation, side))
                    assert restricted.n == len(own.ids)
                    assert _engine_by_key(restricted, translation) == expected


class TestTranslationEngine:
    def test_agrees_with_the_engine_of_its_framework(self):
        """The engine made from a translation's masks is the engine of its
        spelled-out Jsbaf, field by field (co-supporters compared per
        argument as a set), and its order visits every head before its
        supporters: on the criterion-6 systems and the criterion-7 unions
        under both merge policies."""
        budget = po.NonInterferenceBudget()
        translations = [ar.complete_translation(system) for system in corpus6()]
        for s1, s2 in corpus7():
            for merge in ("raw", "interleave"):
                union = union_systems(s1, s2, merge=merge, cross_rules=gen.cross_closure_rules(s1, s2))
                translations.append(ar.complete_translation(union, budget.max_args, budget.max_depth))
        assert len(translations) == 200 + 100
        for translation in translations:
            engine, expected = translation.engine, fw._Engine.of(translation.framework)
            assert engine.ids == expected.ids
            assert engine.attackers == expected.attackers
            assert engine.supports == expected.supports
            assert engine.rank == expected.rank
            assert [set(members) for members in engine.member_of] == [set(m) for m in expected.member_of]
            assert engine.strict_mask == expected.strict_mask
            assert engine.bound == expected.bound
            position = {i: k for k, i in enumerate(engine.order)}
            assert sorted(position) == list(range(engine.n))
            for head, tail in engine.supports.items():
                assert all(position[head] < position[t] for t in range(engine.n) if tail >> t & 1)


def _engine_by_key(engine, translation):
    """An engine's fields with argument indexes replaced by argument keys."""
    key = [translation.argument_of[aid].key for aid in engine.ids]

    def keys(mask):
        return None if mask is None else frozenset(key[i] for i in range(engine.n) if mask >> i & 1)

    return (
        [key[i] for i in engine.order],
        {key[i]: keys(m) for i, m in enumerate(engine.attackers)},
        {key[h]: keys(m) for h, m in engine.supports.items()},
        {key[i]: [(key[h], keys(m)) for h, m in members] for i, members in enumerate(engine.member_of)},
        keys(engine.strict_mask),
        keys(engine.bound),
    )


def _random_acyclic_framework(rng, max_args):
    ids = [f"a{i}" for i in range(rng.randint(0, max_args))]
    attacks = {(rng.choice(ids), rng.choice(ids)) for _ in range(rng.randint(0, 2 * len(ids)))}
    # each head is supported by arguments drawn before it, so supports are acyclic
    drawn = rng.sample(ids, len(ids))
    supports = {
        head: frozenset(rng.sample(drawn[:j], rng.randint(0, min(j, 3))))
        for j, head in enumerate(drawn)
        if rng.random() < 0.5
    }
    rank = None if rng.random() < 0.4 else {a: rng.randint(0, 2) for a in ids}
    return fw.Jsbaf(args=tuple(ids), attacks=frozenset(attacks), supports=supports, rank=rank)


def _frameworks_outside_the_domain():
    # random acyclic frameworks the translation never produces: attacked
    # strict arguments, self-attacks, and ranks absent, valid or invalid
    rng = random.Random(4242)
    return [_random_acyclic_framework(rng, max_args=7) for _ in range(200)]


class TestSupportWalk:
    """The one walk of the support graph on random frameworks whose
    supports may form cycles (self-supports included): the strict set
    against the naive fixpoint, the cycle verdict against a peel of
    arguments whose supporters are all peeled, and the witness as a path."""

    def test_random_frameworks_with_cycles(self):
        rng = random.Random(1414)
        seen = {"cyclic": 0, "acyclic": 0}
        for _ in range(2000):
            ids = [f"a{i}" for i in range(rng.randint(1, 9))]
            supports = {
                head: frozenset(rng.sample(ids, rng.randint(0, min(len(ids), 3))))
                for head in ids
                if rng.random() < 0.7
            }
            attacks = {(rng.choice(ids), rng.choice(ids)) for _ in range(rng.randint(0, len(ids)))}
            framework = fw.Jsbaf(args=tuple(ids), attacks=frozenset(attacks), supports=supports)
            assert fw.strict_args(framework) == naive.naive_strict_args(framework)
            peeled = set()
            while ready := {h for h in ids if h not in peeled and supports.get(h, frozenset()) <= peeled}:
                peeled |= ready
            prefix = "cyclic support chain through "
            cycles = [m for m in fw.validate_structure(framework).failures if m.startswith(prefix)]
            assert len(cycles) == (peeled != set(ids))
            seen["cyclic" if cycles else "acyclic"] += 1
            if cycles:
                path = cycles[0][len(prefix) :].split(" -> ")
                assert len(path) >= 2 and path[0] == path[-1] and len(set(path)) == len(path) - 1
                assert all(t in supports.get(h, ()) for t, h in zip(path, path[1:]))
                with pytest.raises(InstanceError, match=f"^{cycles[0]}$"):
                    fw.sim_labeling(framework)
        assert min(seen.values()) >= 500, seen


def _preferred_branch(framework, preferred):
    # enumerate_preferred stops once the search yields the engine's bound,
    # which then is the IN-set of the one preferred labeling
    if fw._engine(framework).bound in {lab.in_mask for lab in preferred}:
        assert len(preferred) == 1
        return "stopped at the bound"
    return "searched on"


class TestEngineAgainstNaive:
    def test_legality_on_random_labelings(self, fuzzed_systems):
        rng = random.Random(77)
        for system in fuzzed_systems:
            framework = ar.framework_from_system(system).framework
            for _ in range(15):
                labeling = random_labeling(framework, rng)
                assert fw.is_admissible(framework, labeling) == naive.naive_is_admissible(
                    framework, labeling
                )
                for arg in framework.args:
                    assert fw.legally_in(framework, labeling, arg) == naive.naive_legally_in(
                        framework, labeling, arg
                    )

    def test_enumeration_matches_naive(self, fuzzed_systems):
        seen = {"stopped at the bound": 0, "searched on": 0}
        for system in fuzzed_systems:
            framework = ar.framework_from_system(system).framework
            if len(framework.args) > 9:
                continue
            assert fw.enumerate_admissible(framework) == naive.naive_enumerate_admissible(framework)
            preferred = fw.enumerate_preferred(framework)
            assert preferred == naive.naive_enumerate_preferred(framework)
            seen[_preferred_branch(framework, preferred)] += 1
        assert all(seen.values()), seen

    def test_enumeration_matches_naive_outside_the_domain(self):
        seen = {"attacked strict": 0, "self-attack": 0, "rank-free": 0, "invalid ranks": 0}
        branches = {
            (ranked, branch): 0
            for ranked in ("ranked", "rank-free")
            for branch in ("stopped at the bound", "searched on")
        }
        for framework in _frameworks_outside_the_domain():
            strict = fw.strict_args(framework)
            seen["attacked strict"] += any(b in strict for _, b in framework.attacks)
            seen["self-attack"] += any(a == b for a, b in framework.attacks)
            seen["rank-free"] += framework.rank is None
            seen["invalid ranks"] += any(
                "preferred" in failure or "strict class" in failure
                for failure in fw.validate_jsbaf(framework).failures
            )
            assert fw.enumerate_admissible(framework) == naive.naive_enumerate_admissible(framework)
            preferred = fw.enumerate_preferred(framework)
            assert preferred == naive.naive_enumerate_preferred(framework)
            ranked = "rank-free" if framework.rank is None else "ranked"
            branches[ranked, _preferred_branch(framework, preferred)] += 1
        assert all(seen.values()), seen
        assert all(branches.values()), branches

    def test_grounded_legality_matches_naive(self):
        rng = random.Random(5150)
        import jsbaf.grounded as gr

        for _ in range(25):
            g = gen.generate_ground_framework(rng=rng)
            plain = fw.Jsbaf(args=g.args, attacks=g.attacks, supports=dict(g.supports))
            for _ in range(10):
                labeling = random_labeling(g, rng)
                assert fw.is_admissible(g, labeling) == naive.naive_is_admissible(
                    plain, labeling, use_ranks=False
                )
                for arg in g.args:
                    assert gr.legally_in(g, labeling, arg) == naive.naive_legally_in(
                        plain, labeling, arg, use_ranks=False
                    )


class TestRestrictedEngine:
    def test_preferred_matches_naive_on_support_closed_subsets(self):
        # a random subset closed under supporting sets: the restricted
        # engine's preferred labelings are the naive ones of the
        # sub-framework on it, ranks and out-of-domain frameworks included
        rng = random.Random(2121)
        seen = {"proper": 0, "empty": 0, "searched on": 0}
        for _ in range(600):
            framework = _random_acyclic_framework(rng, max_args=8)
            keep = {a for a in framework.args if rng.random() < 0.6}
            while missing := {t for h in keep for t in framework.supports.get(h, ())} - keep:
                keep |= missing
            sub = fw.Jsbaf(
                args=tuple(keep),
                attacks=frozenset((a, b) for a, b in framework.attacks if a in keep and b in keep),
                supports={h: t for h, t in framework.supports.items() if h in keep},
                rank=None if framework.rank is None else {a: framework.rank[a] for a in keep},
            )
            eng = fw._engine(framework)
            restricted = eng.restrict(fw.Labeling.from_sets(eng.ids, keep).in_mask)
            assert restricted.ids == sub.args and restricted.n == len(keep)
            preferred = sorted(
                (fw.Labeling(restricted.ids, im, om) for im, om in restricted.preferred_masks()),
                key=fw.Labeling.vector,
            )
            assert preferred == naive.naive_enumerate_preferred(sub)
            seen["proper"] += 0 < len(keep) < len(framework.args)
            seen["empty"] += not keep
            seen["searched on"] += len(preferred) > 1
        assert all(seen.values()), seen


def _count_search_work(monkeypatch) -> dict[str, int]:
    """Count leaves (``admissible_out_for`` calls) and ``legal_out`` calls."""
    calls = {"leaves": 0, "legal_out": 0}
    verify, legal_out = fw._Engine.admissible_out_for, fw._Engine.legal_out

    def counted_verify(engine, in_mask):
        calls["leaves"] += 1
        return verify(engine, in_mask)

    def counted_legal_out(engine, in_mask):
        calls["legal_out"] += 1
        return legal_out(engine, in_mask)

    monkeypatch.setattr(fw._Engine, "admissible_out_for", counted_verify)
    monkeypatch.setattr(fw._Engine, "legal_out", counted_legal_out)
    return calls


TRANSLATE_26 = pathlib.Path(__file__).resolve().parent / "translate_26.as"


class TestPreferredCuts:
    """The preferred search past its first leaf cuts a node when no
    admissible IN-set below it survives the root cut's fixpoint, or when
    all of them lie inside a kept maximal one.  The work bounds may be
    tightened, never loosened."""

    def test_matches_the_maximal_admissible_labelings(self, monkeypatch):
        # the reference is the plain search's catalogue, which
        # TestEngineAgainstNaive checks, filtered for maximal IN-sets, and
        # the naive scan on frameworks of up to 5 arguments
        kept_lists = []
        fired = {"root cut": 0, "maximality": 0}
        search, narrow = fw._Engine._search, fw._Engine._narrow

        def recorded_search(engine, kept=None):
            kept_lists.append(kept)
            return search(engine, kept)

        def recorded_narrow(engine, in_mask, attacking, cand):
            allowed = narrow(engine, in_mask, attacking, cand)
            kept = kept_lists[-1] if kept_lists else None
            if kept is not None:
                fired["root cut"] += allowed is None
                fired["maximality"] += allowed is not None and any(
                    not (in_mask | allowed) & ~k for k, _ in kept
                )
            return allowed

        monkeypatch.setattr(fw._Engine, "_search", recorded_search)
        monkeypatch.setattr(fw._Engine, "_narrow", recorded_narrow)
        rng = random.Random(2727)
        seen = {"ranked": 0, "rank-free": 0, "past the first leaf": 0, "naive": 0}
        for _ in range(3000):
            drawn = _random_acyclic_framework(rng, max_args=9)
            for rank in (None, {a: rng.randint(0, 2) for a in drawn.args}):
                framework = fw.Jsbaf(args=drawn.args, attacks=drawn.attacks, supports=drawn.supports, rank=rank)
                kept_lists.clear()
                preferred = fw.enumerate_preferred(framework)
                seen["past the first leaf"] += kept_lists[-1] is not None
                admissible = fw.enumerate_admissible(framework)
                assert preferred == [
                    lab for lab in admissible
                    if not any(lab.in_mask & other.in_mask == lab.in_mask != other.in_mask for other in admissible)
                ]
                if len(framework.args) <= 5:
                    assert preferred == naive.naive_enumerate_preferred(framework)
                    seen["naive"] += 1
                seen["rank-free" if rank is None else "ranked"] += 1
        assert seen["past the first leaf"] > 1_000, seen
        assert all(fired.values()), fired

    def test_work_on_the_criterion_7_corpus(self, monkeypatch):
        # 65,188 leaves and 65,388 legal_out calls when the search went on
        # with no cut and a pairwise filter dropped what was not maximal
        calls = _count_search_work(monkeypatch)
        for index, (s1, s2) in enumerate(corpus7()):
            merge = "raw" if index % 2 == 0 else "interleave"
            assert po.check_non_interference(
                s1, s2, merge=merge, cross_rules=gen.cross_closure_rules(s1, s2)
            ).verdict == po.PASS
        assert calls["leaves"] <= 10_862, calls
        assert calls["legal_out"] <= 11_587, calls

    def test_work_on_a_26_argument_translation(self, monkeypatch):
        # a seed-1 benchmark translate system whose one preferred labeling
        # is not the bound and is the 2,917th leaf: 178,147 leaves when the
        # search went on past it with no cut
        translation = ar.complete_translation(textio.parse_system_text(TRANSLATE_26.read_text()))
        engine = translation.engine
        assert engine.n == 26
        calls = _count_search_work(monkeypatch)
        preferred = engine.preferred_masks()
        assert [fw.Labeling(engine.ids, im, om).vector() for im, om in preferred] == [
            "IIOIIOOOOIIIIOIIIIOOOOIIII"
        ]
        assert preferred[0][0] != engine.bound
        assert calls["leaves"] <= 2_917, calls
        assert calls["legal_out"] <= 2_925, calls


def _closed_mask(engine, rng, smallest, largest):
    """A random mask of ``smallest`` to ``largest`` of the engine's
    arguments, closed under supporting sets, or None: arguments are added in
    a random order, each with everything below it along supports, while
    they fit a target size drawn in that range."""
    target, keep = rng.randint(smallest, largest), 0
    for a in rng.sample(range(engine.n), engine.n):
        stack, below = [a], 0
        while stack:
            j = stack.pop()
            if not (keep | below) >> j & 1:
                below |= 1 << j
                stack.extend(fw._bits(engine.supports.get(j, 0)))
        if (keep | below).bit_count() <= target:
            keep |= below
        if keep.bit_count() == target:
            break
    return keep if keep.bit_count() >= smallest else None


class TestPreferredCutsAtScale:
    """Past the 9 arguments the naive scan reaches, the reference is the
    plain search filtered for maximal IN-sets, on sub-frameworks of 20-24
    arguments of the seed-1 benchmark translate frameworks, each the
    engine restricted to a mask closed under supporting sets.  Only draws
    whose preferred search goes past its first leaf, where the cuts fire,
    are checked."""

    def test_restricted_translate_frameworks(self):
        workloads = _load("workloads")
        texts = workloads.translate_corpus("1", workloads.WORKLOADS["translate"].size)
        engines = [ar.framework_from_system(textio.parse_system_text(text)).engine for text in texts]
        engines = [engine for engine in engines if engine.n >= 20]
        rng = random.Random(14)
        checked = []
        for _ in range(30):
            engine = rng.choice(engines)
            keep = _closed_mask(engine, rng, 20, 24)
            if keep is None:
                continue
            sub = engine.restrict(keep)
            search = sub.enumerate_admissible_masks()
            first = next(search, None)
            search.close()
            if first is None or first[0] == sub.bound:
                continue
            plain = list(sub.enumerate_admissible_masks())
            # largest first: an IN-set is maximal when no maximal one found so far holds it
            maximal = set()
            for in_mask in sorted({im for im, _ in plain}, key=int.bit_count, reverse=True):
                if not any(in_mask & m == in_mask for m in maximal):
                    maximal.add(in_mask)
            preferred = sub.preferred_masks()
            assert preferred == [(im, om) for im, om in plain if im in maximal]
            framework = fw.Jsbaf(
                args=sub.ids,
                attacks=frozenset((sub.ids[a], sub.ids[b]) for b in range(sub.n) for a in fw._bits(sub.attackers[b])),
                supports={sub.ids[h]: frozenset(sub.ids[t] for t in fw._bits(tail)) for h, tail in sub.supports.items()},
                rank=dict(zip(sub.ids, sub.rank)),
            )
            for im, om in preferred:
                assert naive.naive_is_admissible(framework, fw.Labeling(sub.ids, im, om))
            checked.append((len(plain), len(preferred)))
        # 13 draws of 30; three have two preferred labelings, one of them
        # among 11,744 admissible ones
        assert len(checked) >= 10 and any(count >= 2 for _, count in checked), checked


class TestPlainAndFirstLeafWork:
    """The plain search (the grounded catalogue and its oracle) and the
    search to a first leaf (every preferred search, which mostly stops
    there) on the criterion-5 and criterion-6 corpora, generated afresh so
    that no search is cached on them from an earlier test.  The work
    bounds may be tightened, never loosened."""

    @pytest.mark.parametrize(
        "number, leaves, legal_out",
        [pytest.param(5, 803, 1_808, id="criterion-5"), pytest.param(6, 204, 515, id="criterion-6")],
    )
    def test_work_on_the_acceptance_corpus(self, monkeypatch, number, leaves, legal_out):
        corpus = f"corpus{number}"
        fresh = getattr(test_acceptance, corpus).__wrapped__()
        monkeypatch.setattr(test_acceptance, corpus, lambda: fresh)
        calls = _count_search_work(monkeypatch)
        ok, _ = getattr(test_acceptance, f"run_criterion_{number}")()
        assert ok
        assert calls["leaves"] <= leaves, calls
        assert calls["legal_out"] <= legal_out, calls


class TestLeafCheck:
    def test_every_in_mask_against_the_definition(self):
        # the leaf check tests only the admissibility definition: every IN
        # mask, conflicting and unclosed ones included, gets the OUT mask of
        # the naive admissible labeling with that IN-set, or None
        conflicting = unclosed = 0
        for framework in _frameworks_outside_the_domain():
            eng = fw._engine(framework)
            admissible = naive.naive_enumerate_admissible(framework)
            assert all(lab.ids == eng.ids for lab in admissible)
            expected = {lab.in_mask: lab.out_mask for lab in admissible}
            assert len(expected) == len(admissible)
            for in_mask in range(1 << eng.n):
                assert eng.admissible_out_for(in_mask) == expected.get(in_mask)
                conflicting += any(eng.attackers[i] & in_mask for i in range(eng.n) if in_mask >> i & 1)
                unclosed += any(
                    not tail & ~in_mask and not in_mask >> head & 1 for head, tail in eng.supports.items()
                )
        assert conflicting > 1_000 and unclosed > 1_000, (conflicting, unclosed)


def _strict_conclusions_match_closure(system):
    """The conclusions of the strict arguments of a build are inside the
    closure of the strict rules over nothing, and are all of it when the
    build is not truncated: validation checks consistency on the closure."""
    build = ar.build_arguments(system, max_args=3000, max_depth=12)
    built = {a.conclusion for a in build.arguments if ar.is_strict(a)}
    closure = cl_closure(system.strict_rules, ())
    assert built <= closure
    if not build.truncated:
        assert built == closure
    return not build.truncated


_small_systems = st.builds(
    _system_text,
    st.lists(_formulas, max_size=2),
    st.lists(st.tuples(st.sampled_from("012"), st.lists(_formulas, max_size=2), _formulas), max_size=4),
    st.lists(st.tuples(st.lists(_formulas, max_size=2), _formulas), max_size=4),
    st.just({}),
).map(textio.parse_system_text)


class TestStrictClosure:
    def test_generated_systems(self, fuzzed_systems):
        rng = random.Random(35)
        systems = fuzzed_systems + [gen.generate_system(gen.FuzzProfile(), rng=rng) for _ in range(75)]
        assert all(_strict_conclusions_match_closure(system) for system in systems)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(_small_systems)
    def test_small_systems(self, system):
        _strict_conclusions_match_closure(system)


# a pool small enough that rules chain: rules with no antecedents, repeated
# antecedents and a consequent among a rule's own antecedents are all common
_closure_pool = st.sampled_from([parse_formula(t) for t in ("p", "q", "r", "!p", "!q", "p & q", "!(p & q)")])
_strict_rule_sets = st.lists(st.tuples(st.lists(_closure_pool, max_size=3), _closure_pool), max_size=8).map(
    lambda rules: [StrictRule(f"s{i}", tuple(ants), consequent) for i, (ants, consequent) in enumerate(rules)]
)


class TestClosureWorklist:
    """The worklist closure is the full-pass fixpoint of the definition."""

    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(_strict_rule_sets, st.lists(_closure_pool, max_size=3))
    def test_random_rule_sets(self, rules, seeds):
        assert cl_closure(rules, seeds) == naive.naive_cl_closure(rules, seeds)

    def test_shapes(self):
        p, q, r = (parse_formula(t) for t in "pqr")
        for rules, seeds, closed in (
            ([StrictRule("a", (), p), StrictRule("b", (p, p), q)], (), {p, q}),
            ([StrictRule("a", (p,), p)], (), set()),
            ([StrictRule("a", (p, q), p), StrictRule("b", (q,), r)], (q,), {q, r}),
            ([StrictRule("a", (q, p), r), StrictRule("b", (p,), q)], (p,), {p, q, r}),
        ):
            assert cl_closure(rules, seeds) == naive.naive_cl_closure(rules, seeds) == closed

    def test_criterion_6_preferred_conclusion_sets(self):
        compared = grown = 0
        for system in corpus6():
            for family in (frozenset(), *ar.preferred_conclusions(system)):
                closed = cl_closure(system.strict_rules, family)
                assert closed == naive.naive_cl_closure(system.strict_rules, family)
                compared += 1
                grown += closed != family
        assert (compared, grown) == (403, 95)


class TestSemanticInvariants:
    def test_sim_is_admissible_everywhere(self, fuzzed_systems):
        for system in fuzzed_systems:
            framework = ar.framework_from_system(system).framework
            assert fw.is_admissible(framework, fw.sim_labeling(framework))

    def test_translations_validate(self, fuzzed_systems):
        for system in fuzzed_systems:
            framework = ar.framework_from_system(system).framework
            assert fw.validate_jsbaf(framework).ok

    def test_preferred_never_empty_and_partitioned(self, fuzzed_systems):
        for system in fuzzed_systems:
            framework = ar.framework_from_system(system).framework
            if len(framework.args) > 13:
                continue
            preferred = fw.enumerate_preferred(framework)
            assert preferred
            for lab in preferred:
                parts = [lab.in_set, lab.out_set, lab.undec_set]
                assert sum(len(p) for p in parts) == len(framework.args)
                assert frozenset().union(*parts) == frozenset(framework.args)

    def test_preferred_labelings_closed_under_sub_arguments(self, fuzzed_systems):
        for system in fuzzed_systems:
            translation = ar.framework_from_system(system)
            if len(translation.framework.args) > 13:
                continue
            for lab in fw.enumerate_preferred(translation.framework):
                accepted = {translation.argument_of[a] for a in lab.in_set}
                for argument in accepted:
                    assert ar.sub_args(argument) <= accepted

    def test_admissible_monotonicity_of_out_sets(self):
        rng = random.Random(31)
        import jsbaf.grounded as gr

        for _ in range(20):
            g = gen.generate_ground_framework(rng=rng)
            catalogue = gr.admissible_catalogue(g)
            for one in catalogue:
                for other in catalogue:
                    if one.in_set <= other.in_set:
                        assert one.out_set <= other.out_set

    def test_forced_in_is_never_out(self):
        rng = random.Random(32)
        import jsbaf.grounded as gr

        for _ in range(15):
            g = gen.generate_ground_framework(rng=rng)
            for lab in gr.admissible_catalogue(g)[:12]:
                for arg in gr.fi_set(g, lab):
                    assert lab.label(arg) != fw.OUT

    def test_construction_intermediates_admissible(self):
        rng = random.Random(33)
        import jsbaf.grounded as gr

        for _ in range(15):
            g = gen.generate_ground_framework(rng=rng)
            trace, picked = [], []
            gr.grounded_construction(g, pick=lambda c: picked.append(c) or c[0], trace=trace)
            for lab in trace:
                assert fw.is_admissible(g, lab)
            # pick sees the forced-IN arguments outside the IN-set of the
            # labeling it steps from, in sorted order, as the default relies on
            assert len(picked) == len(trace) - 1
            for candidates, lab in zip(picked, trace):
                assert candidates == sorted(gr.fi_set(g, lab) - lab.in_set)
