import pytest

from jsbaf import formulas as fm
from jsbaf import naive
from jsbaf.errors import EvaluationError, ParseError, ResourceLimitError
from jsbaf.formulas import And, Not, Var, parse_formula

from conftest import big_conj, conj_of_set


def f(text):
    return parse_formula(text)


class TestAtoms:
    def test_single_atom(self):
        assert Var("p").atom_set == {"p"}

    def test_negated_conjunction(self):
        assert f("!(gamma & delta & epsilon)").atom_set == {"gamma", "delta", "epsilon"}

    def test_union_is_idempotent(self):
        assert f("p & !p").atom_set == {"p"}


class TestSatisfies:
    def test_atom_lookup(self):
        assert naive.satisfies({"p": True}, Var("p"))

    def test_negation_flips(self):
        assert not naive.satisfies({"p": True}, f("!p"))

    def test_conjunction(self):
        assert not naive.satisfies({"p": True, "q": False}, f("p & q"))

    def test_missing_atom_is_an_error(self):
        with pytest.raises(EvaluationError):
            naive.satisfies({"p": True}, f("q"))


class TestEntails:
    def test_reflexive(self):
        assert fm.entails([f("p")], f("p"))

    def test_conjunct_elimination(self):
        assert fm.entails([f("p & q")], f("q"))

    def test_from_contradiction(self):
        assert fm.entails([f("p"), f("!p")], f("q"))

    def test_not_entailed(self):
        assert not fm.entails([f("p")], f("q"))

    def test_atom_bound(self):
        gammas = [Var(f"x{i}") for i in range(17)]
        with pytest.raises(ResourceLimitError):
            fm.entails(gammas, Var("x0"))


class TestSatisfiable:
    def test_atom(self):
        assert fm.satisfiable([f("p")])

    def test_contradiction(self):
        assert not fm.satisfiable([f("p"), f("!p")])

    def test_conjunction_vs_negation(self):
        assert not fm.satisfiable([f("p & q"), f("!q")])

    def test_empty_set(self):
        assert fm.satisfiable([])


class TestNegComplement:
    def test_left_negation(self):
        assert fm.is_neg_complement(f("!p"), f("p"))

    def test_right_negation(self):
        assert fm.is_neg_complement(f("p"), f("!p"))

    def test_double_negation_is_structural(self):
        assert fm.is_neg_complement(f("!!p"), f("!p"))
        assert not fm.is_neg_complement(f("!!p"), f("p"))


class TestBigConj:
    def test_singleton(self):
        assert big_conj([f("p")]) == f("p")

    def test_right_nesting(self):
        assert big_conj([f("gamma"), f("delta"), f("epsilon")]) == f("gamma & (delta & epsilon)")

    def test_no_dedup(self):
        assert big_conj([f("p"), f("p")]) == f("p & p")

    def test_empty_list(self):
        with pytest.raises(ValueError):
            big_conj([])

    def test_conj_of_set_sorts_canonically(self):
        out = conj_of_set({f("delta"), f("gamma"), f("epsilon")})
        assert out == f("delta & (epsilon & gamma)")


class TestConjunctionPeels:
    def test_whole_formula_always_offered(self):
        assert (f("p"),) in list(fm.conjunction_peels(f("p")))

    def test_sorted_peels_only(self):
        peels = list(fm.conjunction_peels(f("a & (b & c)")))
        assert (f("a"), f("b"), f("c")) in peels
        # {a, b & c} canonically conjoins as (b & c) & a, so this split
        # can never arise from a set
        assert (f("a"), f("b & c")) not in peels
        peels = list(fm.conjunction_peels(f("!x & (b & c)")))
        assert (f("!x"), f("b & c")) in peels
        peels = list(fm.conjunction_peels(f("b & (a & c)")))
        assert (f("b"), f("a"), f("c")) not in peels
        assert (f("b & (a & c)"),) in peels


class TestSyntax:
    def test_left_associative_conjunction(self):
        assert f("a & b & c") == And(And(Var("a"), Var("b")), Var("c"))

    def test_parenthesised_right_nesting(self):
        assert f("a & (b & c)") == And(Var("a"), And(Var("b"), Var("c")))

    def test_negation_binds_tightly(self):
        assert f("!a & b") == And(Not(Var("a")), Var("b"))

    def test_parse_error_has_position(self):
        with pytest.raises(ParseError) as excinfo:
            parse_formula("p &")
        assert excinfo.value.column is not None

    @pytest.mark.parametrize(
        "text",
        ["p", "!p", "!!p", "p & q", "a & (b & c)", "!(a & b)", "!(a & b) & !c", "a & b & c"],
    )
    def test_round_trip(self, text):
        formula = f(text)
        assert parse_formula(fm.format_formula(formula)) == formula
