import dataclasses
import random
import time

import pytest

from jsbaf import arguments as ar
from jsbaf import framework as fw
from jsbaf import generate as gen
from jsbaf import grounded as gr
from jsbaf import naive
from jsbaf import postulates as po
from jsbaf.errors import InstanceError, ResourceLimitError
from jsbaf.formulas import parse_formula as f
from jsbaf.framework import IN, OUT, UNDEC, Jsbaf, Labeling
from jsbaf.system import DefeasibleRule, make_system, union_systems
from jsbaf.textio import parse_framework_text

from conftest import labeling_of
from test_acceptance import corpus6


class TestValidate:
    def test_example_framework_valid(self, j1):
        assert fw.validate_jsbaf(j1).ok

    def test_attacked_strict_argument(self, j1):
        bad = Jsbaf(
            args=j1.args,
            attacks=j1.attacks | {("c", "a")},
            supports=dict(j1.supports),
            rank=dict(j1.rank),
        )
        report = fw.validate_jsbaf(bad)
        assert any("strict argument a is attacked" in msg for msg in report.failures)

    def test_added_empty_support_keeps_validity(self, j1):
        supports = dict(j1.supports)
        supports["c"] = frozenset()
        rank = dict(j1.rank)
        rank["c"] = 1  # c joins the strict class, so it moves to the top rank
        extended = Jsbaf(args=j1.args, attacks=j1.attacks, supports=supports, rank=rank)
        assert fw.validate_jsbaf(extended).ok

    def test_second_supporting_set_rejected(self):
        text = "arg a\narg b\nsup b <- a\nsup b <- \n"
        with pytest.raises(Exception) as excinfo:
            parse_framework_text(text)
        assert "second supporting set" in str(excinfo.value)

    def test_support_cycle_witness(self):
        framework = Jsbaf(
            args=("x", "y"),
            attacks=frozenset(),
            supports={"x": frozenset({"y"}), "y": frozenset({"x"})},
        )
        report = fw.validate_jsbaf(framework)
        assert any("cyclic support chain" in msg for msg in report.failures)

    def test_engine_refuses_cyclic_supports(self):
        framework = Jsbaf(
            args=("x", "y"),
            attacks=frozenset(),
            supports={"x": frozenset({"y"}), "y": frozenset({"x"})},
        )
        with pytest.raises(InstanceError, match="cyclic support chain through x -> y -> x"):
            fw.legally_in(framework, labeling_of(framework), "x")

    def test_every_enumeration_refuses_a_cycle_before_the_size_bound(self):
        # 14 arguments under the bound of 13: the cycle is named, not the bound
        framework = Jsbaf(
            args=("x", "y", *(f"a{i:02d}" for i in range(12))),
            attacks=frozenset(),
            supports={"x": frozenset({"y"}), "y": frozenset({"x"})},
        )
        for enumerate_ in (
            fw.enumerate_admissible, fw.enumerate_preferred, gr.admissible_catalogue, gr.grounded_labeling,
            fw.sim_labeling,
        ):
            with pytest.raises(InstanceError, match="^cyclic support chain through x -> y -> x$"):
                enumerate_(framework)

    def test_a_refused_enumeration_builds_nothing(self, monkeypatch, as1, as_u):
        # over the bound with acyclic supports, no engine is built and no
        # root cut runs; the 8,000-argument chain was refused after 36.6 s
        # when every enumeration built its engine first
        def chain(n, rank=None):
            ids = [f"a{i:04d}" for i in range(n)]
            return Jsbaf(tuple(ids), frozenset(zip(ids, ids[1:])), {ids[1]: frozenset({ids[0]})}, rank)

        frameworks = [chain(40), chain(40, {f"a{i:04d}": i % 3 for i in range(40)}), chain(8_000)]
        calls = _count_framework_work(monkeypatch)
        narrowed = [0]
        narrow = fw._Engine._narrow

        def counted_narrow(engine, *args):
            narrowed[0] += 1
            return narrow(engine, *args)

        monkeypatch.setattr(fw._Engine, "_narrow", counted_narrow)
        for framework in frameworks:
            refusal = f"^{len(framework.args)} arguments exceed the enumeration bound of 13$"
            for enumerate_ in (
                fw.enumerate_admissible, fw.enumerate_preferred, gr.admissible_catalogue, gr.enumerate_ground_complete,
            ):
                with pytest.raises(ResourceLimitError, match=refusal):
                    enumerate_(framework)
        with pytest.raises(ResourceLimitError, match="exceed the enumeration bound of 3$"):
            ar.preferred_conclusions(as1, max_enum_args=3)
        report = po.check_non_interference(
            as1, as_u, cross_rules=gen.cross_closure_rules(as1, as_u), budget=po.NonInterferenceBudget(max_enum_args=3)
        )
        assert report.verdict == po.INCONCLUSIVE
        assert report.witness["reason"].endswith("exceed the enumeration bound of 3")
        assert calls["engine"] == narrowed[0] == 0, (calls, narrowed)

    def test_long_chain_below_a_support_cycle(self):
        """A support chain of 49,998 arguments hanging from a 2-cycle: the
        witness is the 2-cycle alone, and walking back to it from the far end
        of the chain stays linear (on a 2-vCPU VM a back-walk testing
        membership in its path list took about 11 s, the peel 0.05 s)."""
        n = 50_000
        ids = [f"a{i:05d}" for i in range(n - 2)] + ["z0", "z1"]
        supports = {ids[i]: frozenset({ids[i + 1]}) for i in range(n - 3)}
        supports.update({ids[n - 3]: frozenset({"z1"}), "z0": frozenset({"z1"}), "z1": frozenset({"z0"})})
        cycles = ("cyclic support chain through z0 -> z1 -> z0", "cyclic support chain through z1 -> z0 -> z1")
        started = time.perf_counter()
        failures = fw.validate_structure(Jsbaf(args=tuple(ids), attacks=frozenset(), supports=supports)).failures
        assert time.perf_counter() - started < 2.0
        assert len(failures) == 1 and failures[0] in cycles
        framework = Jsbaf(args=tuple(ids), attacks=frozenset(), supports=supports)  # nothing cached
        started = time.perf_counter()
        with pytest.raises(InstanceError) as refused:
            fw._Engine.of(framework)
        assert time.perf_counter() - started < 2.0
        assert str(refused.value) in cycles

    def test_non_string_ids_are_refused(self):
        # a lone int used to reach IDENT.fullmatch, a mixed tuple `sorted`
        for args in ((1,), ("a", 1)):
            with pytest.raises(InstanceError, match="argument id 1 is not an identifier"):
                Jsbaf(args=args, attacks=frozenset())

    def test_non_integer_ranks_are_refused(self):
        # "x" used to validate as well-formed, then fail with a TypeError in
        # the engine; True passed as an int, and format_framework wrote
        # rank=True, which the parser refuses
        for bad in ("x", True):
            with pytest.raises(InstanceError, match=f"rank {bad!r} of argument a is not an integer"):
                Jsbaf(
                    args=("a", "b", "c"),
                    attacks=frozenset(),
                    supports={"c": frozenset({"a", "b"})},
                    rank={"a": bad, "b": 1},
                )

    def test_rank_restrictions(self, j1):
        skewed = Jsbaf(
            args=j1.args,
            attacks=j1.attacks,
            supports=dict(j1.supports),
            rank={**j1.rank, "c": 5},
        )
        report = fw.validate_jsbaf(skewed)
        assert any("not strictly below" in msg for msg in report.failures)


class TestImmutability:
    def test_caller_rank_dict_is_not_filled_in(self):
        rank = {"a": 1}
        framework = Jsbaf(args=("a", "b"), attacks=frozenset(), rank=rank)
        assert rank == {"a": 1}
        assert dict(framework.rank) == {"a": 1, "b": 0}

    def test_no_change_after_enumeration(self):
        # the engine cached by the enumerator must never outlive the graph
        framework = Jsbaf(args=("x", "y"), attacks=frozenset(), supports={"y": frozenset()})
        before = fw.enumerate_admissible(framework)
        with pytest.raises(dataclasses.FrozenInstanceError):
            framework.attacks = frozenset({("x", "x")})
        with pytest.raises(TypeError):
            framework.supports["x"] = frozenset()
        assert fw.enumerate_admissible(framework) == before


class TestLabeling:
    def test_masks_and_names_agree(self):
        # random masks over a few hundred frameworks: every name-based view
        # reads the masks, and from_sets rebuilds the same value from names
        rng = random.Random(2024)
        for _ in range(300):
            g = gen.generate_ground_framework(rng=rng, max_args=10)
            n = len(g.args)
            in_mask = rng.getrandbits(n)
            lab = Labeling(g.args, in_mask, rng.getrandbits(n) & ~in_mask)
            assert Labeling.from_sets(lab.ids, lab.in_set, lab.out_set) == lab
            expected = [
                IN if lab.in_mask >> i & 1 else OUT if lab.out_mask >> i & 1 else UNDEC
                for i in range(n)
            ]
            assert lab.labels == tuple(zip(g.args, expected))
            assert lab.as_dict() == dict(zip(g.args, expected))
            assert [lab.label(a) for a in g.args] == expected
            assert lab.vector() == "".join(label[0] for label in expected)
            assert lab.undec_set == {a for a, label in zip(g.args, expected) if label == UNDEC}

    def test_repr(self):
        lab = Labeling.from_sets(("c", "a", "b"), {"a"}, {"b"})
        assert lab.ids == ("a", "b", "c")
        assert repr(lab) == "Labeling(a=IN, b=OUT, c=UNDEC)"

    def test_from_sets_refuses_overlapping_or_unknown_sets(self):
        with pytest.raises(InstanceError):
            Labeling.from_sets(("a", "b"), {"a"}, {"a"})
        with pytest.raises(InstanceError):
            Labeling.from_sets(("a", "b"), {"z"})
        with pytest.raises(InstanceError):
            Labeling.from_sets(("a", "b"), (), {"z"})

    def test_label_refuses_unknown_argument(self, l1):
        for arg in ("", "aa", "zz", "0"):
            with pytest.raises(InstanceError, match="unknown argument"):
                l1.label(arg)

    def test_labeling_of_another_framework_is_refused(self, j1, j2):
        g1 = gr.from_jsbaf(j1)
        for foreign in (labeling_of(j2), Labeling.from_sets(j1.args[:-1], {"a"})):
            for check in (
                lambda: fw.legally_in(j1, foreign, "a"),
                lambda: fw.is_admissible(j1, foreign),
                lambda: gr.fi_set(g1, foreign),
            ):
                with pytest.raises(InstanceError, match="does not cover exactly"):
                    check()


class TestStrictArgs:
    def test_example(self, j1):
        assert fw.strict_args(j1) == {"a", "b", "d"}

    def test_no_supports(self):
        framework = Jsbaf(args=("x", "y"), attacks=frozenset())
        assert fw.strict_args(framework) == frozenset()

    def test_chain(self):
        framework = Jsbaf(
            args=("x", "y"),
            attacks=frozenset(),
            supports={"x": frozenset(), "y": frozenset({"x"})},
        )
        assert fw.strict_args(framework) == {"x", "y"}

    def test_support_cycle_stays_non_strict(self):
        framework = Jsbaf(
            args=("x", "y", "z"),
            attacks=frozenset(),
            supports={"x": frozenset(), "y": frozenset({"x", "z"}), "z": frozenset({"y"})},
        )
        assert fw.strict_args(framework) == {"x"}

    def test_long_chain_listed_downstream_first(self):
        ids = [f"x{i}" for i in range(8000)]
        supports = {ids[i]: frozenset({ids[i - 1]}) for i in range(len(ids) - 1, 0, -1)}
        supports[ids[0]] = frozenset()
        framework = Jsbaf(args=tuple(ids), attacks=frozenset(), supports=supports)
        started = time.perf_counter()
        strict = fw.strict_args(framework)
        assert time.perf_counter() - started < 0.5
        assert strict == set(ids)


    def test_support_graph_walked_once(self, j1, l2, l3, monkeypatch):
        """Validation and enumeration share one cached walk of the supports."""
        framework = dataclasses.replace(j1)  # a copy with nothing cached yet
        built = []
        cached = fw._cached

        def counting(owner, name, build):
            def counted():
                built.append(name)
                return build()

            return cached(owner, name, counted)

        monkeypatch.setattr(fw, "_cached", counting)
        assert fw.validate_jsbaf(framework).ok
        assert fw.enumerate_preferred(framework) == sorted([l2, l3], key=Labeling.vector)
        assert built.count("_walk_cache") == 1


class TestLegality:
    def test_legally_in(self, j1, l1, l2):
        assert fw.legally_in(j1, l1, "d")
        assert not fw.legally_in(j1, l1, "c")
        assert fw.legally_in(j1, l2, "c")

    def test_legally_out(self, j1, l1, l2):
        # both are admissible: the engine's fixpoint is exactly their OUT-set
        assert fw.is_admissible(j1, l1) and fw.is_admissible(j1, l2)
        assert naive.naive_legally_out(j1, l2, "e")
        assert not naive.naive_legally_out(j1, l1, "e")
        assert naive.naive_legally_out(j1, l2, "bbar")

    def test_legally_undec(self, j1, l1, l2):
        def legally_undec(labeling, arg):  # neither legally IN nor legally OUT
            return not fw.legally_in(j1, labeling, arg) and not naive.naive_legally_out(j1, labeling, arg)

        assert fw.is_admissible(j1, l1) and fw.is_admissible(j1, l2)
        assert legally_undec(l1, "c")
        assert not legally_undec(l2, "a")
        assert not legally_undec(l2, "e")

    def test_unknown_argument(self, j1, l1):
        with pytest.raises(InstanceError):
            fw.legally_in(j1, l1, "zz")
        with pytest.raises(InstanceError, match="unknown argument 'zz'"):
            gr.support_children(j1, "zz")

    def test_singleton_support_with_undec_head_blocks_in(self):
        # a supports b alone; while b stays UNDEC, a cannot be legally IN
        framework = Jsbaf(
            args=("x", "y"),
            attacks=frozenset(),
            supports={"y": frozenset({"x"})},
        )
        lab = labeling_of(framework)
        assert not fw.legally_in(framework, lab, "x")
        lab = labeling_of(framework, in_set={"y"})
        assert fw.legally_in(framework, lab, "x")


class TestAdmissibility:
    def test_example_labelings(self, j1, l1, l2, l3):
        for lab in (l1, l2, l3):
            assert fw.is_admissible(j1, lab)

    def test_all_in_is_not_admissible(self, j1):
        assert not fw.is_admissible(j1, labeling_of(j1, in_set=set(j1.args)))

    def test_all_undec_misses_strict_arguments(self, j1):
        assert not fw.is_admissible(j1, labeling_of(j1))

    @staticmethod
    def _leaf_check(monkeypatch, framework, in_set):
        """The leaf check's OUT set for ``in_set``, with its ``legal_out`` calls."""
        eng = fw._engine(framework)  # built first: its root cut calls legal_out
        calls = [0]
        legal_out = fw._Engine.legal_out

        def counted(engine, in_mask):
            calls[0] += 1
            return legal_out(engine, in_mask)

        monkeypatch.setattr(fw._Engine, "legal_out", counted)
        out = eng.admissible_out_for(labeling_of(framework, in_set=in_set).in_mask)
        return None if out is None else Labeling(eng.ids, 0, out).out_set, calls[0]

    def test_an_unsupported_attacker_not_attacked_is_refused_before_legal_out(self, monkeypatch):
        # y attacks x and is in no support, so it is OUT only if the IN-set attacks it
        framework = Jsbaf(args=("x", "y"), attacks=frozenset({("y", "x")}))
        assert self._leaf_check(monkeypatch, framework, {"x"}) == (None, 0)
        both = Jsbaf(args=("x", "y"), attacks=frozenset({("y", "x"), ("x", "y")}))
        assert self._leaf_check(monkeypatch, both, {"x"}) == ({"y"}, 1)

    def test_a_supported_attacker_reaches_legal_out(self, monkeypatch):
        # y attacks x and is in h's support with z: y is OUT only through that
        # support, its head h attacked by x and its co-supporter z IN
        framework = Jsbaf(
            args=("h", "x", "y", "z"),
            attacks=frozenset({("y", "x"), ("x", "h")}),
            supports={"h": frozenset({"y", "z"})},
        )
        assert self._leaf_check(monkeypatch, framework, {"x", "z"}) == ({"h", "y"}, 1)
        assert naive.naive_is_admissible(framework, labeling_of(framework, in_set={"x", "z"}, out_set={"h", "y"}))
        # without z, y is not OUT: refused after legal_out, as x is not legally IN
        assert self._leaf_check(monkeypatch, framework, {"x"}) == (None, 1)


class TestSim:
    def test_example(self, j1, l1):
        assert fw.sim_labeling(j1) == l1

    def test_empty_framework(self):
        framework = Jsbaf(args=(), attacks=frozenset())
        assert fw.sim_labeling(framework).labels == ()

    def test_single_unattacked_nonstrict(self):
        framework = Jsbaf(args=("x",), attacks=frozenset())
        sim = fw.sim_labeling(framework)
        assert sim.undec_set == {"x"}


class TestEnumeration:
    def test_example_admissible(self, j1, l1, l2, l3):
        assert fw.enumerate_admissible(j1) == sorted([l1, l2, l3], key=Labeling.vector)

    def test_empty_framework(self):
        framework = Jsbaf(args=(), attacks=frozenset())
        assert fw.enumerate_admissible(framework) == [Labeling((), 0, 0)]
        assert fw.enumerate_preferred(framework) == [Labeling((), 0, 0)]

    def test_self_attacker(self):
        framework = Jsbaf(args=("x",), attacks=frozenset({("x", "x")}))
        admissible = fw.enumerate_admissible(framework)
        assert admissible == [labeling_of(framework)]

    def test_example_preferred(self, j1, l2, l3):
        assert fw.enumerate_preferred(j1) == sorted([l2, l3], key=Labeling.vector)

    def test_single_free_argument_preferred(self):
        framework = Jsbaf(args=("x",), attacks=frozenset())
        assert fw.enumerate_preferred(framework) == [labeling_of(framework, in_set={"x"})]

    def test_resource_bound(self):
        framework = Jsbaf(args=tuple(f"x{i}" for i in range(14)), attacks=frozenset())
        with pytest.raises(ResourceLimitError):
            fw.enumerate_admissible(framework)

    def test_enumeration_contains_sim(self, j1):
        assert fw.sim_labeling(j1) in fw.enumerate_admissible(j1)


class TestAdmissibleSearch:
    def test_supersets_are_yielded_first(self):
        # IN is tried before not-IN at every node, which the preferred
        # search relies on: no IN mask is yielded after a strict subset of
        # it, so the first is maximal
        rng = random.Random(1717)
        nested = 0
        for _ in range(300):
            g = gen.generate_ground_framework(rng=rng, max_args=8)
            for rank in (None, {a: rng.randint(0, 2) for a in g.args}):
                framework = Jsbaf(args=g.args, attacks=g.attacks, supports=g.supports, rank=rank)
                yielded = [im for im, _ in fw._engine(framework).enumerate_admissible_masks()]
                for j, later in enumerate(yielded):
                    for earlier in yielded[:j]:
                        assert earlier & later != earlier
                        nested += later & earlier == later
        assert nested > 1_000, nested

    def test_searched_once_per_framework(self, j1, monkeypatch):
        calls = [0]
        search = fw._Engine.enumerate_admissible_masks

        def counted_search(engine):
            calls[0] += 1
            return search(engine)

        monkeypatch.setattr(fw._Engine, "enumerate_admissible_masks", counted_search)
        framework = Jsbaf(args=j1.args, attacks=j1.attacks, supports=j1.supports, rank=j1.rank)
        first = fw.enumerate_admissible(framework)
        assert fw.enumerate_admissible(framework) == first
        assert calls[0] == 1
        with pytest.raises(ResourceLimitError, match="6 arguments exceed the enumeration bound of 5"):
            fw.enumerate_admissible(framework, max_args=5)

    def test_never_in_arguments_are_settled_at_the_root(self, monkeypatch):
        # u attacks x0..x9 and nothing attacks u: every x has an attacker
        # outside legal_out of the largest IN-set, so no x is tried IN; the
        # search without that cut made 2**10 + 1 leaves here
        leaves = [0]
        verify = fw._Engine.admissible_out_for

        def counted_verify(engine, in_mask):
            leaves[0] += 1
            return verify(engine, in_mask)

        monkeypatch.setattr(fw._Engine, "admissible_out_for", counted_verify)
        xs = [f"x{i}" for i in range(10)]
        framework = Jsbaf(args=("u", *xs), attacks=frozenset(("u", x) for x in xs))
        assert fw.enumerate_admissible(framework) == [
            labeling_of(framework, in_set={"u"}, out_set=set(xs)),
            labeling_of(framework),
        ]
        assert leaves[0] == 2

    def test_an_undefendable_strict_argument_ends_the_search_at_the_root(self, monkeypatch):
        # b attacks the strict s and nothing can put b OUT: no leaf at all
        monkeypatch.setattr(fw._Engine, "admissible_out_for", None)
        framework = Jsbaf(args=("b", "s", "x"), attacks=frozenset({("b", "s")}), supports={"s": frozenset()})
        assert list(fw._engine(framework).enumerate_admissible_masks()) == []


class TestPreferredStop:
    def test_an_admissible_bound_is_the_only_preferred_labeling(self, monkeypatch):
        # with no attacks the bound is every argument and admissible, so its
        # leaf, the first, ends the search; without the stop all 2**24
        # IN-sets are leaves
        leaves = [0]
        verify = fw._Engine.admissible_out_for

        def counted_verify(engine, in_mask):
            leaves[0] += 1
            assert leaves[0] == 1, "a second leaf"
            return verify(engine, in_mask)

        monkeypatch.setattr(fw._Engine, "admissible_out_for", counted_verify)
        xs = tuple(f"x{i}" for i in range(24))
        framework = Jsbaf(args=xs, attacks=frozenset())
        assert fw.enumerate_preferred(framework, max_args=64) == [labeling_of(framework, in_set=set(xs))]
        assert leaves[0] == 1

    def test_an_inadmissible_bound_is_searched_past(self):
        # a and b attack each other, so the bound {a, b, c} is not
        # conflict-free and the search goes on to both preferred labelings
        framework = Jsbaf(args=("a", "b", "c"), attacks=frozenset({("a", "b"), ("b", "a")}))
        assert fw._engine(framework).bound == 0b111
        preferred = fw.enumerate_preferred(framework)
        assert preferred == naive.naive_enumerate_preferred(framework)
        assert preferred == sorted(
            [
                labeling_of(framework, in_set={"a", "c"}, out_set={"b"}),
                labeling_of(framework, in_set={"b", "c"}, out_set={"a"}),
            ],
            key=Labeling.vector,
        )


def _first_criterion_7_pairs():
    """(side 1, side 2, merge policy, cross rules) of the first ten criterion-7 pairs."""
    profile = gen.FuzzProfile(
        atom_count=(1, 3),
        defeasible_count=(1, 2),
        axiom_count=(0, 1),
        conjunction_probability=0.0,
    )
    for i in range(10):
        rng = random.Random(f"acceptance-non-interference-{i}")
        s1, s2 = gen.generate_disjoint_pair(profile, rng=rng)
        yield s1, s2, "raw" if i % 2 == 0 else "interleave", gen.cross_closure_rules(s1, s2)


def _union_frameworks(pairs) -> list[Jsbaf]:
    """The translated union of each (side 1, side 2, merge policy, cross rules)."""
    budget = po.NonInterferenceBudget()
    return [
        ar.complete_translation(
            union_systems(s1, s2, merge=merge, cross_rules=cross_rules), budget.max_args, budget.max_depth
        ).framework
        for s1, s2, merge, cross_rules in pairs
    ]


def _check_first_criterion_7_pairs():
    for s1, s2, merge, cross_rules in _first_criterion_7_pairs():
        po.check_non_interference(s1, s2, merge=merge, cross_rules=cross_rules)


class TestSearchWork:
    def test_leaves_on_criterion_7_pairs(self, monkeypatch):
        # the first ten criterion-7 pairs: 107,243 candidate IN-sets for the
        # 2**k scan, 30 leaves for the search, which settles at the root
        # the arguments that can never be IN, and which the preferred search
        # stops at a first leaf equal to the bound (1,632 leaves without
        # that stop)
        calls = [0]
        nominal = [0]
        verify = fw._Engine.admissible_out_for
        search = fw._Engine.enumerate_admissible_masks

        def counted_verify(engine, in_mask):
            calls[0] += 1
            return verify(engine, in_mask)

        def counted_search(engine):
            nominal[0] += 1 << (engine.n - engine.strict_mask.bit_count())
            return search(engine)

        monkeypatch.setattr(fw._Engine, "admissible_out_for", counted_verify)
        monkeypatch.setattr(fw._Engine, "enumerate_admissible_masks", counted_search)
        _check_first_criterion_7_pairs()
        assert nominal[0] == 107_243
        assert calls[0] <= 30

    def test_labelings_built_on_criterion_7_pairs(self, monkeypatch):
        # a non-interference check maps preferred IN masks straight to
        # conclusion sets and builds no Labeling (30 when it went through
        # enumerate_preferred); that builds one only for a maximal IN
        # mask: 10 on the ten union frameworks, which have 1,439
        # admissible IN masks
        budget = po.NonInterferenceBudget()
        unions = _union_frameworks(_first_criterion_7_pairs())
        built = [0]
        init = fw.Labeling.__init__

        def counted_init(labeling, *fields):
            built[0] += 1
            init(labeling, *fields)

        monkeypatch.setattr(fw.Labeling, "__init__", counted_init)
        _check_first_criterion_7_pairs()
        assert built[0] == 0
        returned = sum(len(fw.enumerate_preferred(union, max_args=budget.max_enum_args)) for union in unions)
        assert built[0] == returned == 10
        admissible = sum(len(list(fw._engine(union).enumerate_admissible_masks())) for union in unions)
        assert admissible == 1_439

    def test_one_build_per_non_interference_check(self, monkeypatch):
        # the union is built and translated once, its engine is made from the
        # translation's masks, and each side's engine is restricted from it:
        # 10 builds, translations and union engines on the first ten
        # criterion-7 pairs (30 builds when every side was built on its own),
        # with no Jsbaf spelled out, no support walk and no engine of a Jsbaf
        calls = _count_framework_work(monkeypatch)
        calls.update(build=0, translate=0)
        build, translate = ar.build_arguments, ar.framework_from_system

        def counted_build(*args, **kwargs):
            calls["build"] += 1
            return build(*args, **kwargs)

        def counted_translate(*args, **kwargs):
            calls["translate"] += 1
            return translate(*args, **kwargs)

        monkeypatch.setattr(ar, "build_arguments", counted_build)
        monkeypatch.setattr(ar, "framework_from_system", counted_translate)
        _check_first_criterion_7_pairs()
        assert calls == {
            "build": 10, "translate": 10, "engine": 30, "restrict": 20, "of": 0, "jsbaf": 0, "walk": 0,
        }

    def test_preferred_conclusions_spell_out_no_framework(self, monkeypatch):
        # one engine per system, made from the translation's masks: no Jsbaf,
        # no support walk, and the conclusion sets of the Jsbaf path
        systems = corpus6()[:20]
        expected = []
        for system in systems:
            translation = ar.framework_from_system(system)
            framework = translation.framework
            preferred = fw.enumerate_preferred(framework)
            expected.append(ar.conclusion_sets(translation, framework.args, [lab.in_mask for lab in preferred]))
        calls = _count_framework_work(monkeypatch)
        assert [ar.preferred_conclusions(system) for system in systems] == expected
        assert calls == {"engine": 20, "restrict": 0, "of": 0, "jsbaf": 0, "walk": 0}


def _count_framework_work(monkeypatch) -> dict[str, int]:
    """Counts, from now on, of the engines built in all and by
    ``restrict`` and ``of``, of the Jsbafs built and of the support walks."""
    calls = {"engine": 0, "restrict": 0, "of": 0, "jsbaf": 0, "walk": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return call

    monkeypatch.setattr(fw._Engine, "__init__", counted("engine", fw._Engine.__init__))
    monkeypatch.setattr(fw._Engine, "restrict", counted("restrict", fw._Engine.restrict))
    monkeypatch.setattr(fw._Engine, "of", classmethod(counted("of", fw._Engine.of.__func__)))
    monkeypatch.setattr(fw.Jsbaf, "__post_init__", counted("jsbaf", fw.Jsbaf.__post_init__))
    monkeypatch.setattr(fw, "_support_walk", counted("walk", fw._support_walk))
    return calls


class TestTranslation:
    def test_example_translation_is_isomorphic(self, as1, j1):
        translation = ar.framework_from_system(as1)
        by_conclusion = {
            str(arg.conclusion): aid for aid, arg in translation.argument_of.items()
        }
        to_j1 = {
            by_conclusion["alpha"]: "a",
            by_conclusion["!(gamma & delta & epsilon)"]: "b",
            by_conclusion["gamma & delta & epsilon"]: "bbar",
            by_conclusion["gamma"]: "c",
            by_conclusion["delta"]: "d",
            by_conclusion["epsilon"]: "e",
        }
        assert len(to_j1) == 6
        assert {(to_j1[a], to_j1[b]) for a, b in translation.framework.attacks} == j1.attacks
        assert {
            to_j1[head]: frozenset(to_j1[t] for t in tail)
            for head, tail in translation.framework.supports.items()
        } == j1.supports
        for x in translation.framework.args:
            for y in translation.framework.args:
                ours = translation.framework.rank[x] <= translation.framework.rank[y]
                theirs = j1.rank[to_j1[x]] <= j1.rank[to_j1[y]]
                assert ours == theirs
        assert fw.validate_jsbaf(translation.framework).ok

    def test_single_axiom_translation(self):
        system = make_system(atoms=["p"], axioms=[f("p")])
        translation = ar.framework_from_system(system)
        assert len(translation.framework.args) == 1
        (aid,) = translation.framework.args
        assert translation.framework.supports[aid] == frozenset()
        assert not translation.framework.attacks

    def test_undercut_translation(self, as_u):
        translation = ar.framework_from_system(as_u)
        by_conclusion = {str(a.conclusion): i for i, a in translation.argument_of.items()}
        u, x = by_conclusion["!nu"], by_conclusion["q"]
        assert translation.framework.attacks == {(u, x)}
        assert x not in translation.framework.supports


class TestExtensions:
    def test_example_extensions(self, as1):
        translation = ar.framework_from_system(as1)
        families = {
            frozenset(str(translation.argument_of[a].conclusion) for a in lab.in_set)
            for lab in fw.enumerate_preferred(translation.framework)
        }
        assert families == {
            frozenset({"alpha", "!(gamma & delta & epsilon)", "gamma", "delta"}),
            frozenset({"alpha", "!(gamma & delta & epsilon)", "delta", "epsilon"}),
        }

    def test_example_conclusions(self, as1):
        conclusions = ar.preferred_conclusions(as1)
        assert {frozenset(map(str, fam)) for fam in conclusions} == {
            frozenset({"alpha", "!(gamma & delta & epsilon)", "gamma", "delta"}),
            frozenset({"alpha", "!(gamma & delta & epsilon)", "delta", "epsilon"}),
        }

    def test_empty_system(self):
        system = make_system(atoms=["p"])
        assert ar.preferred_conclusions(system) == [frozenset()]

    def test_truncated_system_is_rejected(self):
        system = make_system(
            atoms=["p"],
            defeasible=[DefeasibleRule("d0", (), f("p")), DefeasibleRule("d1", (f("p"),), f("p"))],
        )
        with pytest.raises(ResourceLimitError, match="argument construction truncated") as caught:
            ar.preferred_conclusions(system, max_depth=4)
        assert (caught.value.bound_name, caught.value.bound_value) == ("max_depth", 4)
