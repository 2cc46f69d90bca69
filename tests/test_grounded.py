import inspect
import random

import pytest

import jsbaf.arguments as ar
import jsbaf.framework as fw
import jsbaf.generate as gen
import jsbaf.grounded as gr
import jsbaf.naive as naive
from jsbaf import textio
from jsbaf.errors import InstanceError, ResourceLimitError
from jsbaf.framework import IN, OUT, UNDEC, Jsbaf, Labeling

from conftest import INSTANCES, labeling_of


@pytest.fixture(scope="module")
def g1(j1):
    return gr.from_jsbaf(j1)


@pytest.fixture(scope="module")
def g2(j2):
    return gr.from_jsbaf(j2)


@pytest.fixture(scope="module")
def g3(j3):
    return gr.from_jsbaf(j3)


def glabeling(g, in_set=(), out_set=()):
    return Labeling.from_sets(g.args, in_set, out_set)


class TestFromJsbaf:
    def test_graph_is_preserved(self, j1, g1):
        assert g1.args == j1.args
        assert g1.attacks == j1.attacks
        assert g1.supports == j1.supports

    def test_rank_free_instance_round_trips(self, j2, g2):
        assert g2.args == j2.args

    def test_empty(self):
        g = gr.from_jsbaf(Jsbaf(args=(), attacks=frozenset()))
        assert g.args == ()

    def test_validation(self, g2, g3):
        assert fw.validate_structure(g2).ok
        assert fw.validate_structure(g3).ok

    def test_view_drops_ranks(self, j1, g1):
        assert j1.rank is not None
        assert g1.rank is None
        assert gr.from_jsbaf(g1) is g1
        assert gr.from_jsbaf(j1) == g1

    def test_view_reuses_the_checked_fields_and_no_cache(self, monkeypatch):
        # b is above a, so the ranked engine lists the support of c under a
        # alone; the rank-free engine must list it under both, as a fresh one
        ranked = Jsbaf(
            args=("a", "b", "c", "d"),
            attacks=frozenset({("d", "a"), ("c", "d")}),
            supports={"c": frozenset({"a", "b"})},
            rank={"a": 0, "b": 1, "c": 0, "d": 1},
        )
        ranked_engine = fw._engine(ranked)
        runs = [0]
        post_init = Jsbaf.__post_init__

        def counted(self):
            runs[0] += 1
            post_init(self)

        monkeypatch.setattr(Jsbaf, "__post_init__", counted)
        view = gr.from_jsbaf(ranked)
        assert runs[0] == 0
        assert view.rank is None
        assert set(vars(view)) == {"args", "attacks", "supports", "rank"}
        assert gr.from_jsbaf(ranked) is not view  # built anew, not cached
        plain = Jsbaf(args=ranked.args, attacks=ranked.attacks, supports=ranked.supports)
        assert view == plain
        free, fresh = gr._table(ranked), fw._Engine.of(plain)
        assert free is not ranked_engine and free.member_of != ranked_engine.member_of
        assert free.rank is None and gr._table(ranked) is free is ranked_engine.free
        for name in ("attackers", "member_of", "strict_mask", "bound", "order"):
            assert getattr(free, name) == getattr(fresh, name)

    def test_one_support_walk_and_one_engine_for_a_ranked_framework(self, monkeypatch):
        # as the CLI does: the rank-free validation, then the grounded oracle
        framework = textio.parse_instance(str(INSTANCES / "j1.jsbaf"))
        assert framework.rank is not None
        walks, built = [], []
        walk, of = fw._support_walk, fw._Engine.of.__func__

        def counted_walk(f):
            if "_walk_cache" not in vars(f):
                walks.append(f)
            return walk(f)

        def counted_of(cls, f):
            built.append(f)
            return of(cls, f)

        monkeypatch.setattr(fw, "_support_walk", counted_walk)
        monkeypatch.setattr(fw._Engine, "of", classmethod(counted_of))
        assert fw.validate_structure(framework).ok
        gr.grounded_labeling(framework, oracle=True)
        assert len(walks) == 1 and walks[0] is framework
        assert len(built) == 1 and built[0] is framework
        assert not {"_view_cache", "_masks_cache", "_table_cache"} & set(vars(framework))

    @pytest.mark.parametrize("ranked", [True, False], ids=["ranked", "rank-free"])
    def test_a_framework_keeps_only_its_walk_and_its_engine(self, j1, ranked):
        # every public function of framework and grounded; whatever else
        # they derive lives on the engine: its masks, and the rank-free
        # twin with the forced-IN table
        framework = Jsbaf(args=j1.args, attacks=j1.attacks, supports=j1.supports, rank=j1.rank if ranked else None)
        sim = fw.sim_labeling(framework)
        arguments = {
            "strict_args": (framework,),
            "validate_structure": (framework,),
            "validate_jsbaf": (framework,),
            "legally_in": (framework, sim, "c"),
            "is_admissible": (framework, sim),
            "sim_labeling": (framework,),
            "enumerate_admissible": (framework,),
            "enumerate_preferred": (framework,),
            "from_jsbaf": (framework,),
            "support_children": (framework, "e"),
            "more_informative": (IN, UNDEC),
            "admissible_catalogue": (framework,),
            "fi_set": (framework, sim),
            "enumerate_ground_complete": (framework,),
            "grounded_construction": (framework, None, fw.DEFAULT_MAX_ENUM_ARGS, []),
            "grounded_labeling": (framework, True),
        }
        public = {
            name: function
            for module in (fw, gr)
            for name, function in vars(module).items()
            if inspect.isfunction(function) and function.__module__ == module.__name__ and not name.startswith("_")
        }
        assert set(public) == set(arguments)
        for name, function in public.items():
            function(*arguments[name])
        assert set(vars(framework)) == {"args", "attacks", "supports", "rank", "_walk_cache", "_engine_cache"}
        engine = fw._engine(framework)
        free = engine.free if ranked else engine
        assert gr._table(framework) is free and free.rank is None and free.table is not None
        assert engine.masks is not None and free.masks is not None

    def test_ranks_and_call_order_do_not_matter(self):
        # the ranked engine cached by the preference-aware enumerator must
        # not leak into the grounded semantics
        rng = random.Random(7)
        for _ in range(1000):
            g = gen.generate_ground_framework(rng=rng, max_args=7)
            rank = {a: rng.randint(0, 2) for a in g.args}
            ranked = Jsbaf(args=g.args, attacks=g.attacks, supports=g.supports, rank=rank)
            fw.enumerate_admissible(ranked)
            expected = gr.grounded_labeling(gr.from_jsbaf(ranked))
            assert gr.grounded_labeling(ranked) == expected
            assert gr.grounded_labeling(g) == expected

    def test_ranks_are_ignored_on_translations(self):
        # the criterion-6 translations, against their graphs rebuilt without ranks
        from test_acceptance import corpus6

        for system in corpus6():
            ranked = ar.framework_from_system(system).framework
            plain = Jsbaf(args=ranked.args, attacks=ranked.attacks, supports=ranked.supports)
            labeling = gr.grounded_labeling(ranked, oracle=True)
            assert labeling == gr.grounded_labeling(plain)
            assert naive.naive_is_admissible(plain, labeling, use_ranks=False)


class TestLegality:
    def test_not_legally_in_with_single_undec_cosupporter(self, g3):
        sim = gr.sim_labeling(g3)
        assert not gr.legally_in(g3, sim, "A2")

    def test_no_legally_out_without_accepted_attackers(self, g2):
        all_undec = glabeling(g2)
        assert fw.is_admissible(g2, all_undec)  # the engine's fixpoint is empty
        assert not any(naive.naive_legally_out(g2, all_undec, a) for a in g2.args)

    def test_legally_out_via_chain(self, g3):
        lab = glabeling(g3, in_set={"Bbar", "A2"}, out_set={"A1", "B"})
        assert fw.is_admissible(g3, lab)  # the engine's fixpoint is {A1, B}
        assert naive.naive_legally_out(g3, lab, "A1")


class TestSimAndAdmissibility:
    def test_sim_j3(self, g3):
        sim = gr.sim_labeling(g3)
        assert sim == glabeling(g3, in_set={"Bbar"}, out_set={"B"})

    def test_sim_j2_all_undec(self, g2):
        assert gr.sim_labeling(g2) == glabeling(g2)

    def test_grounded_labeling_is_admissible(self, g3):
        assert fw.is_admissible(g3, gr.grounded_labeling(g3))


class TestSupportPaths:
    def test_children(self, g1):
        assert gr.support_children(g1, "a") == {"b"}

    def test_leaf_has_no_children(self, g1):
        assert gr.support_children(g1, "e") == {"bbar"}
        assert gr.support_children(g1, "b") == frozenset()


def fresh(g):
    """The same graph as a new framework, with nothing cached on it."""
    return Jsbaf(args=g.args, attacks=g.attacks, supports=g.supports)


def table_entries(g):
    """The (argument, head) pairs of the forced-IN table read so far."""
    eng = gr._table(g)
    return {(eng.ids[i], eng.ids[h]) for i, h in eng.table.entries}


class TestSafeSupports:
    """A safe support (nothing reachable from it has a non-OUT attacker)
    is passed by forced-IN without reading the table."""

    def test_attacked_head_is_unsafe(self, g3):
        g = fresh(g3)
        assert "A2" in gr.fi_set(g, gr.sim_labeling(g))
        assert table_entries(g) == {("A2", "B")}

    def test_unattacked_chain_is_safe(self):
        g = Jsbaf(
            args=("x", "y", "z"),
            attacks=frozenset(),
            supports={"y": frozenset({"x"}), "z": frozenset({"y"})},
        )
        assert gr.fi_set(g, glabeling(g)) == {"x", "y", "z"}
        assert table_entries(g) == set()

    def test_argument_in_no_supporting_set(self, g3):
        g = fresh(g3)
        assert "Bbar" in gr.fi_set(g, gr.sim_labeling(g))
        assert all(arg != "Bbar" for arg, _ in table_entries(g))


class TestMoreInformative:
    def test_refined_labels(self):
        assert gr.more_informative(IN, UNDEC)
        assert gr.more_informative(OUT, OUT)
        assert not gr.more_informative(UNDEC, OUT)


class TestForcedIn:
    def test_forced_despite_out_head(self, g3):
        assert "A2" in gr.fi_set(g3, gr.sim_labeling(g3))

    def test_not_forced_when_a_rejecting_labeling_exists(self, g2):
        assert "A2" not in gr.fi_set(g2, gr.sim_labeling(g2))

    def test_self_attacker_is_never_forced(self, g3):
        assert "A1" not in gr.fi_set(g3, gr.sim_labeling(g3))


class TestGroundComplete:
    def test_grounded_labeling_is_ground_complete(self, g3):
        assert naive.naive_is_ground_complete(g3, gr.grounded_labeling(g3))

    def test_sim_j3_not_ground_complete(self, g3):
        assert not naive.naive_is_ground_complete(g3, gr.sim_labeling(g3))

    def test_all_undec_ground_complete_on_j2(self, g2):
        assert naive.naive_is_ground_complete(g2, glabeling(g2))


class TestGroundedConstruction:
    def test_j2(self, g2):
        assert gr.grounded_construction(g2) == glabeling(g2)

    def test_j3(self, g3):
        assert gr.grounded_construction(g3) == glabeling(
            g3, in_set={"Bbar", "A2"}, out_set={"A1", "B"}
        )

    def test_empty(self):
        g = Jsbaf(args=(), attacks=frozenset())
        assert gr.grounded_construction(g).labels == ()

    def test_unattacked_support_chain_is_accepted(self):
        g = Jsbaf(
            args=("x", "y", "z"),
            attacks=frozenset(),
            supports={"y": frozenset({"x"}), "z": frozenset({"y"})},
        )
        assert gr.grounded_labeling(g, oracle=True) == glabeling(g, in_set={"x", "y", "z"})

    def test_bad_pick_function_rejected(self, g3):
        with pytest.raises(InstanceError):
            gr.grounded_construction(g3, pick=lambda cands: "nope")


class TestGroundedOracle:
    def test_uniqueness_oracle_passes(self, g2, g3):
        gr.grounded_labeling(g2, oracle=True)
        gr.grounded_labeling(g3, oracle=True)

    def test_enumeration_bound_holds_once_the_catalogue_is_cached(self):
        g = Jsbaf(args=tuple("abcde"), attacks=frozenset())
        gr.admissible_catalogue(g, max_args=10)
        with pytest.raises(ResourceLimitError, match="5 arguments exceed the enumeration bound of 3"):
            gr.grounded_labeling(g, oracle=True, max_args=3)

    def test_enumeration_bound_holds_once_the_table_is_filled(self):
        # j3: A2 is forced IN only by the table entry of its support with head B
        g = Jsbaf(
            args=("A1", "A2", "B", "Bbar"),
            attacks=frozenset({("A1", "A1"), ("Bbar", "B")}),
            supports={"B": frozenset({"A1", "A2"}), "Bbar": frozenset()},
        )
        gr.grounded_labeling(g, oracle=True)
        assert gr._table(g).table.entries
        for oracle in (True, False):
            with pytest.raises(ResourceLimitError, match="4 arguments exceed") as caught:
                gr.grounded_labeling(g, oracle=oracle, max_args=3)
            assert caught.value.bound_name == "max_enum_args"

    def test_catalogue_and_oracle_search_once_per_view(self, j1, g3, monkeypatch):
        calls = [0]
        search = fw._Engine.enumerate_admissible_masks

        def counted_search(engine):
            calls[0] += 1
            return search(engine)

        monkeypatch.setattr(fw._Engine, "enumerate_admissible_masks", counted_search)
        g = fresh(g3)
        gr.admissible_catalogue(g)
        gr.grounded_labeling(g, oracle=True)
        assert calls[0] == 1
        # a ranked framework searches once on its rank-free engine, and once
        # more on its ranked one; a view of it is a new framework
        ranked = Jsbaf(args=j1.args, attacks=j1.attacks, supports=j1.supports, rank=j1.rank)
        catalogue = gr.admissible_catalogue(ranked)
        gr.grounded_labeling(ranked, oracle=True)
        assert gr.admissible_catalogue(ranked) == catalogue and calls[0] == 2
        assert fw.enumerate_admissible(ranked) == catalogue and calls[0] == 3
        assert fw.enumerate_admissible(gr.from_jsbaf(ranked)) == catalogue and calls[0] == 4

    def test_oracle_refuses_a_construction_that_is_not_the_unique_minimum(self, monkeypatch):
        # a and b attack each other: all UNDEC is the grounded labeling, and
        # each of a, b IN with the other OUT is ground-complete too
        g = Jsbaf(args=("a", "b"), attacks=frozenset({("a", "b"), ("b", "a")}))
        assert gr.grounded_labeling(g, oracle=True) == glabeling(g)
        assert len(gr.enumerate_ground_complete(g)) == 3
        for wrong in (
            glabeling(g, in_set={"a"}, out_set={"b"}),  # ground-complete, not minimal
            glabeling(g, out_set={"a"}),  # the minimal IN-set, another labeling
        ):
            monkeypatch.setattr(gr, "grounded_construction", lambda g, **kwargs: wrong)
            with pytest.raises(InstanceError, match="does not match the unique minimal"):
                gr.grounded_labeling(g, oracle=True)

    def test_trace_intermediates_are_admissible(self, g3):
        trace = []
        gr.grounded_construction(g3, trace=trace)
        assert len(trace) >= 2
        for lab in trace:
            assert fw.is_admissible(g3, lab)


class TestForcedInTable:
    def test_fi_set_matches_the_definition(self):
        # every catalogue labeling of 300 random frameworks: the table
        # lookups against the catalogue-squared scan of the naive oracle
        rng = random.Random(1111)
        labelings = tabled = rejecting = 0
        for _ in range(300):
            g = gen.generate_ground_framework(rng=rng, max_args=8)
            catalogue = naive.naive_enumerate_admissible(g, use_ranks=False)
            assert gr.admissible_catalogue(g) == catalogue
            for lab in catalogue:
                expected = {a for a in g.args if naive.naive_forced_in(g, lab, a, catalogue)}
                assert gr.fi_set(g, lab) == expected
                labelings += 1
            complete = [lab for lab in catalogue if naive.naive_is_ground_complete(g, lab, catalogue)]
            assert gr.enumerate_ground_complete(g) == complete
            entries = gr._table(g).table.entries.values()
            tabled += bool(entries)
            rejecting += sum(1 for labels in entries if labels)
        # 1,744 labelings; the table was read on 104 frameworks
        assert labelings > 1_500 and tabled > 80 and rejecting > 80


class TestForcedInWork:
    def test_legality_tests_on_criterion_5(self, monkeypatch):
        # the catalogue-squared scan made 7,417 legally-IN tests here; each
        # table entry tests the catalogue labelings where its argument is not IN
        from test_acceptance import corpus5, run_criterion_5

        calls = [0]
        legally_in = fw._Engine.legally_in

        def counted(engine, i, in_mask, out_mask):
            calls[0] += 1
            return legally_in(engine, i, in_mask, out_mask)

        monkeypatch.setattr(fw._Engine, "legally_in", counted)
        corpus5.cache_clear()  # fresh frameworks, with nothing cached on them
        ok, _ = run_criterion_5()
        assert ok
        assert calls[0] <= 2_743

    def test_construction_stays_on_masks_on_criterion_5(self, monkeypatch):
        # forced-IN is read as a mask: the run names no forced-IN set, and a
        # construction without a trace builds one Labeling, its result, even
        # when it searches the view's admissible masks; the oracle builds one
        # per ground-complete labeling, 137 here (598 catalogue Labelings
        # and 898 in all before the table read the masks)
        from test_acceptance import corpus5, run_criterion_5

        fi_calls, built, extra = [0], [0], []
        fi_set, init, construction = gr.fi_set, Labeling.__init__, gr.grounded_construction

        def counted_fi_set(*args, **kwargs):
            fi_calls[0] += 1
            return fi_set(*args, **kwargs)

        def counted_init(self, *args, **kwargs):
            built[0] += 1
            init(self, *args, **kwargs)

        def counted_construction(g, *args, **kwargs):
            assert kwargs.get("trace") is None
            before = built[0]
            result = construction(g, *args, **kwargs)
            extra.append(built[0] - before)
            return result

        monkeypatch.setattr(gr, "fi_set", counted_fi_set)
        monkeypatch.setattr(Labeling, "__init__", counted_init)
        monkeypatch.setattr(gr, "grounded_construction", counted_construction)
        corpus5.cache_clear()  # fresh frameworks, with nothing cached on them
        ok, _ = run_criterion_5()
        assert ok
        assert fi_calls[0] == 0
        assert len(extra) == 300 and set(extra) == {1}
        assert built[0] <= 437
