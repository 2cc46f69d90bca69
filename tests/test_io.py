import json
import random

import pytest

from jsbaf import arguments as ar
from jsbaf import generate as gen
from jsbaf import textio
from jsbaf.errors import InstanceError, ParseError
from jsbaf.framework import Jsbaf, Labeling

from conftest import INSTANCES


class TestSystemFormat:
    def test_round_trip(self, as1):
        text = textio.format_system(as1)
        again = textio.parse_system_text(text)
        assert textio.format_system(again) == text
        assert again.strict_rules == as1.strict_rules
        assert again.defeasible_rules == as1.defeasible_rules
        assert again.rank == as1.rank
        assert again.atoms == as1.atoms

    def test_round_trip_with_names(self, as_u):
        again = textio.parse_system_text(textio.format_system(as_u))
        assert again.defeasible_rules == as_u.defeasible_rules

    def test_round_trip_of_repeated_formula_text(self):
        """One formula text as an axiom, an antecedent, a consequent and a
        name is parsed once and prints back unchanged."""
        text = (
            "atom p\natom q\naxiom p & !q\n"
            "strict s1: p & !q -> p & !q\n"
            "defeasible d1[2]: p & !q, q => p & !q\n"
            "name d1 = p & !q\n"
        )
        system = textio.parse_system_text(text)
        assert textio.format_system(system) == text
        (axiom,) = system.axioms
        s1 = next(r for r in system.strict_rules if r.id == "s1")
        (d1,) = system.defeasible_rules
        assert all(f is axiom for f in (*s1.formulas(), d1.antecedents[0], d1.consequent, d1.name))

    def test_empty_antecedent_lists_print_back(self):
        # an empty list is valid, as the printer writes it; an empty item is not
        text = "atom p\nstrict s1:  -> p\ndefeasible d1[0]:  => p\n"
        assert textio.format_system(textio.parse_system_text(text)) == text

    def test_equal_sub_formula_texts_are_one_object(self):
        """A sub-formula text met again anywhere in the file, alone or
        inside a larger formula, is the formula object built the first time."""
        system = textio.parse_system_text(
            "atom p0\natom p1\natom p5\n"
            "axiom !(p1 & p5)\n"
            "strict s1: !(p1 & p5) & !p0 -> !!(!(p1 & p5) & !p0)\n"
            "defeasible d1[0]: p1 & p5, !p0 => p0\n"
        )
        (axiom,) = system.axioms
        s1 = next(r for r in system.strict_rules if r.id == "s1")
        (d1,) = system.defeasible_rules
        (antecedent,) = s1.antecedents
        assert s1.consequent.sub.sub is antecedent
        assert antecedent.left is axiom
        assert axiom.sub is d1.antecedents[0]
        assert antecedent.right is d1.antecedents[1]
        assert d1.consequent is antecedent.right.sub

    def test_malformed_formula_reports_position(self):
        for text, line in (
            ("atom p\naxiom p &\n", 2),
            # a malformed text repeated is reported at its first line
            ("atom p\natom q\naxiom p &\naxiom q\naxiom p &\n", 3),
            ("atom p\natom q\nstrict s1: q -> p &\naxiom q\ndefeasible d1[0]: p & => q\n", 3),
        ):
            with pytest.raises(ParseError) as excinfo:
                textio.parse_system_text(text)
            assert excinfo.value.line == line
            assert excinfo.value.column is not None

    def test_unknown_directive(self):
        with pytest.raises(ParseError):
            textio.parse_system_text("frobnicate p\n")

    def test_name_for_unknown_rule(self):
        with pytest.raises(ParseError):
            textio.parse_system_text("atom p\nname d1 = p\n")

    def test_reserved_axiom_prefix(self):
        with pytest.raises(ParseError):
            textio.parse_system_text("atom p\nstrict ax_0: p -> p\n")

    def test_reserved_axiom_prefix_on_defeasible_lines(self):
        # refused as on strict lines, also where the id is that of an axiom line
        for text in ("atom p\natom q\naxiom p\ndefeasible ax_516b9783: => q\n", "atom q\ndefeasible ax_1: => q\n"):
            with pytest.raises(ParseError, match="^rule id 'ax_[0-9a-f]+' is reserved for axiom lines$"):
                textio.parse_system_text(text)

    def test_second_name_for_a_rule(self):
        text = "atom p\natom n\natom m\ndefeasible d1[0]: => p\nname d1 = n\nname d1 = m\n"
        with pytest.raises(ParseError, match="second name for rule 'd1'") as excinfo:
            textio.parse_system_text(text)
        assert excinfo.value.line == 6

    def test_rank_on_a_strict_rule(self):
        for rank in ("5", "0"):
            with pytest.raises(ParseError, match="strict rules take no rank") as excinfo:
                textio.parse_system_text(f"atom p\nstrict s1[{rank}]: p -> !!p\n")
            assert excinfo.value.line == 2

    # (text, message, line): every error of a system file, and which of two
    # errors is reported, pinned by its whole message
    PARSE_ERRORS = (
        ("option foo\n", "unknown option 'foo' (line 1)", 1),
        ("atom p q\n", "expected one atom name, got 'p q' (line 1)", 1),
        ("atom p\nstrict s1 p -> p\n", "expected ':' after the rule id (line 2)", 2),
        ("atom p\nstrict s1:\n", "expected ':' after the rule id (line 2)", 2),
        ("atom p\nstrict s1[0]: p -> p\n", "strict rules take no rank (line 2)", 2),
        ("atom p\ndefeasible d1[0: => p\n", "expected ']' after the rank (line 2)", 2),
        ("atom p\ndefeasible d1[x]: => p\n", "rank must be an integer (line 2)", 2),
        ("atom p\nstrict s1: p => p\n", "expected '->' (line 2)", 2),
        ("atom p\ndefeasible d1: p -> p\n", "expected '=>' (line 2)", 2),
        ("atom p\ndefeasible d1: => p\nname d1\n", "expected '=' and a formula (line 3)", 3),
        ("atom p\ndefeasible d1: => p\nname d1 = \n", "expected '=' and a formula (line 3)", 3),
        ("atom p\ndefeasible d1: => p\nname d1 = p\nname d1 = !p\n", "second name for rule 'd1' (line 4)", 4),
        ("frobnicate p\n", "unknown directive 'frobnicate' (line 1)", 1),
        ("atom\tp\n", "unknown directive 'atom\\tp' (line 1)", 1),
        ("atom p\nname d1 = p\n", "name given for unknown defeasible rules ['d1']", None),
        ("atom p\nstrict ax_0: p -> p\n", "rule id 'ax_0' is reserved for axiom lines", None),
        ("atom p\naxiom p &\n", "expected a formula (line 2, column 4)", 2),
        ("atom p\nstrict s1: p, (p -> p\n", "expected ')' (line 2, column 3)", 2),
        ("atom p\ndefeasible d1: => p )\n", "unexpected ')' (line 2, column 3)", 2),
        ("atom p\nstrict s1: , -> p\nstrict s2: -> \n", "expected a formula (line 2, column 1)", 2),
        ("atom p\natom q\natom r\ndefeasible d1: p,, q, => r\n", "expected a formula (line 4, column 1)", 4),
        ("atom p\naxiom " + "!" * 201 + "p\n", "formula nested too deeply (line 2)", 2),
        ("atom p\ndefeasible d1: => p\nname d1 = p &\n", "expected a formula (line 3, column 4)", 3),
        # comment and blank lines count
        ("atom p # note\natom q#\n#only\n\nfrobnicate\n", "unknown directive 'frobnicate' (line 5)", 5),
        # a line's error comes before any error about names or ids
        ("atom p\nname d9 = p\nstrict ax_0: p -> p\nfrobnicate\n", "unknown directive 'frobnicate' (line 4)", 4),
        # names are parsed in the order of their rules' lines, before unknown names are refused
        ("atom p\ndefeasible d1: => p\ndefeasible d2: => p\nname d2 = )\nname d1 = &\nname d9 = p\n",
         "expected a formula (line 5, column 1)", 5),
        ("atom p\ndefeasible d2: => p\ndefeasible d1: => p\nname d2 = &\nname d1 = )\n",
         "expected a formula (line 4, column 1)", 4),
        ("atom p\nstrict ax_0: p -> p\nname d9 = p\n", "name given for unknown defeasible rules ['d9']", None),
        # strict rules are checked for the reserved prefix first
        ("atom p\ndefeasible ax_1: => p\nstrict ax_0: p -> p\n", "rule id 'ax_0' is reserved for axiom lines", None),
    )

    def test_every_parse_error_with_its_message_and_line(self):
        for text, message, line in self.PARSE_ERRORS:
            with pytest.raises(ParseError) as excinfo:
                textio.parse_system_text(text)
            assert (str(excinfo.value), excinfo.value.line) == (message, line), text


class TestFrameworkFormat:
    def test_round_trip(self, j1):
        rng = random.Random(41)
        frameworks = [j1] + [
            ar.framework_from_system(gen.generate_system(gen.FuzzProfile(), rng=rng)).framework
            for _ in range(10)
        ]
        frameworks += [gen.generate_ground_framework(rng=rng) for _ in range(10)]  # rank-free
        for framework in frameworks:
            again = textio.parse_framework_text(textio.format_framework(framework))
            assert again.args == framework.args
            assert again.attacks == framework.attacks
            assert again.supports == framework.supports
            assert again.rank == {a: framework.rank_of(a) for a in framework.args}

    def test_ids_that_would_not_parse_back_are_refused(self):
        # as text these would be "arg  rank=0" and "arg a b rank=0"
        for bad in ("", "a b"):
            with pytest.raises(InstanceError, match="is not an identifier"):
                Jsbaf(args=("a", bad), attacks=frozenset())

    def test_empty_support_side(self):
        framework = textio.parse_framework_text("arg a\nsup a <- \n")
        assert framework.supports["a"] == frozenset()

    def test_empty_support_items_are_refused(self):
        for text, line in (("arg a\narg b\narg c\nsup c <- a,,b\n", 4), ("arg c\nsup c <- ,\n", 2)):
            with pytest.raises(ParseError) as excinfo:
                textio.parse_framework_text(text)
            assert (str(excinfo.value), excinfo.value.line) == (f"expected an argument name, got '' (line {line})", line)

    def test_duplicate_argument(self):
        with pytest.raises(ParseError):
            textio.parse_framework_text("arg a\narg a\n")

    def test_comment_and_blank_lines_count(self):
        with pytest.raises(ParseError) as excinfo:
            textio.parse_framework_text("arg a # note\narg b#\n#only\n\natt a\n")
        assert (str(excinfo.value), excinfo.value.line) == ("expected two argument ids (line 5)", 5)

    def test_commented_file_parses_as_its_canonical_text(self, j1):
        canonical = textio.format_framework(j1)
        lines = canonical.splitlines()
        commented = "# j1, commented\n" + lines[0] + "  # note\n\n" + "\n".join(lines[1:]) + "#\n"
        framework = textio.parse_framework_text(commented)
        assert framework == textio.parse_framework_text(canonical)
        assert textio.format_framework(framework) == canonical

    def test_json_mirror(self, j1):
        data = json.loads(json.dumps(textio.framework_to_dict(j1)))
        assert data["args"] == [{"id": a, "rank": j1.rank[a]} for a in j1.args]
        assert data["attacks"] == sorted([a, b] for a, b in j1.attacks)
        assert data["supports"] == [
            {"arg": head, "by": sorted(j1.supports[head])} for head in sorted(j1.supports)
        ]

    def test_rank_free_framework_prints_rank_zero(self):
        framework = Jsbaf(args=("b", "a"), attacks=frozenset({("a", "b")}))
        assert textio.format_framework(framework) == "arg a rank=0\narg b rank=0\natt a b\n"
        assert textio.framework_to_dict(framework)["args"][0] == {"id": "a", "rank": 0}


class TestParseInstance:
    def test_by_extension(self):
        system = textio.parse_instance(str(INSTANCES / "as1.as"))
        framework = textio.parse_instance(str(INSTANCES / "j1.jsbaf"))
        assert hasattr(system, "defeasible_rules")
        assert hasattr(framework, "attacks")

    def test_kind_override(self):
        framework = textio.parse_instance(str(INSTANCES / "j1.jsbaf"), kind="jsbaf")
        assert "bbar" in framework.args
        with pytest.raises(ParseError, match="^unknown instance kind 'x'$"):
            textio.parse_instance(str(INSTANCES / "j1.jsbaf"), kind="x")


class TestLabelingOutput:
    def test_single_labeling(self, j1, l1):
        text = textio.format_labeling(l1)
        assert text.splitlines() == [
            "a IN",
            "b IN",
            "bbar OUT",
            "c UNDEC",
            "d IN",
            "e UNDEC",
        ]

    def test_count_line(self, l1, l2):
        text = textio.format_labelings([l1, l2])
        assert text.splitlines()[0] == "2"

    def test_json_wrapper(self):
        out = json.loads(textio.wrap_json("abc", {"x": 1}))
        assert out == {"schema_version": 1, "instance_digest": "abc", "payload": {"x": 1}}


class TestDigest:
    def test_stable(self, as1):
        text = textio.format_system(as1)
        assert textio.instance_digest(text) == textio.instance_digest(text)
        assert len(textio.instance_digest(text)) == 12
