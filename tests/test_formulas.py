import random

import pytest

from jsbaf import formulas as fm
from jsbaf import naive
from jsbaf.errors import EvaluationError, ParseError, ResourceLimitError
from jsbaf.formulas import MAX_FORMULA_DEPTH, And, Not, Var, parse_formula

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


def _random_text(rng, depth):
    """A valid formula text with random blanks and redundant parentheses."""
    pick = rng.random()
    if depth == 0 or pick < 0.35:
        return rng.choice(["p", "q", "r1", "_a", "P_2"])
    blank = lambda: rng.choice(["", "", " ", "  ", "\t"])
    if pick < 0.55:
        return "!" + blank() + _random_text(rng, depth - 1)
    if pick < 0.7:
        return "(" + blank() + _random_text(rng, depth - 1) + blank() + ")"
    return _random_text(rng, depth - 1) + blank() + "&" + blank() + _random_text(rng, depth - 1)


def _mutated(rng, text):
    """``text`` with one to three of ``!``, ``(``, ``)``, ``&``, a blank
    or an identifier deleted or inserted."""
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(0, len(text))
        if text and rng.random() < 0.5:
            text = text[:at] + text[at + 1 :]
        else:
            text = text[:at] + rng.choice(["!", "(", ")", "&", " ", "\t", "p", "q1"]) + text[at:]
    return text


def _edge_texts():
    """Texts at and just past ``MAX_FORMULA_DEPTH`` in tree height, in
    ``(``/``!`` nesting and in the count of both that sends a text
    straight to the recursive descent, with faults after the limit."""
    top = MAX_FORMULA_DEPTH
    chain = lambda n: " & ".join(["p"] * n)
    texts = []
    for n in (top, top + 1):
        texts += [
            "!" * n + "p",
            "(" * n + "p" + ")" * n,
            "(" * n + chain(3) + ")" * n,
            chain(n + 1),
            "!(" + chain(n) + ")",
            "(" + chain(n) + ") & p",
            "p & (" + chain(n) + ")",
            "!" * (n // 2) + "(" * (n - n // 2) + "p" + ")" * (n - n // 2),
            " & ".join(["!p"] * n),
            "(" * (n - 1) + "!p" + ")" * (n - 1),
        ]
    texts += [text + tail for text in texts for tail in (")", " &", " q")]
    return texts


class TestSplitPass:
    """``parse_formula`` (the split pass, sharing a memo, with the recursive
    descent behind it) gives what the recursive-descent pass alone gives:
    the same key, or the same ParseError, line and column."""

    @staticmethod
    def assert_agree(texts):
        memo = {}
        for text in texts:
            try:
                split = parse_formula(text, 3, memo).key
            except ParseError as exc:
                split = (str(exc), exc.line, exc.column)
            try:
                descent = fm._descend(text, 3).key
            except ParseError as exc:
                descent = (str(exc), exc.line, exc.column)
            assert split == descent, text

    def test_random_and_mutated_texts(self):
        rng = random.Random(25)
        for _ in range(100):  # a memo per batch, as per file
            texts = [_random_text(rng, rng.randint(0, 6)) for _ in range(40)]
            self.assert_agree(texts + [_mutated(rng, text) for text in texts])

    def test_texts_at_the_nesting_limit(self):
        self.assert_agree(_edge_texts())

    def test_chains_too_tall_are_refused_as_they_grow(self):
        """A chain past the height limit is refused as soon as the limit is
        passed, whatever follows it."""
        with pytest.raises(ParseError, match="formula nested too deeply"):
            parse_formula(" & ".join(["p"] * (MAX_FORMULA_DEPTH + 2)) + " )")

    def test_top_level_cuts(self):
        """The scan finds the ``&`` outside parentheses, right to left, and
        gives up on parentheses that do not pair up or on a chain past the
        limit."""
        text = "(a & b) & !(c & d) & e"
        assert fm._cuts(text, 0, len(text)) == [19, 8]
        assert fm._cuts(text, 1, 6) == [3]
        for text in ("a) & (b", "(a & b", "a & b)", "(a & b))", ")a & b("):
            assert fm._cuts(text, 0, len(text)) is None
        for n, found in ((MAX_FORMULA_DEPTH, MAX_FORMULA_DEPTH), (MAX_FORMULA_DEPTH + 1, None)):
            text = " & ".join(["p"] * (n + 1))
            cuts = fm._cuts(text, 0, len(text))
            assert (cuts if cuts is None else len(cuts)) == found
