import io
import json
import re
from dataclasses import replace

import pytest
from hypothesis import Phase, find, given, settings, strategies as st

import oracles
from ruleproofs import theory
from ruleproofs.datagen import PROFILES, GenConfig, generate_theory
from ruleproofs.proofgraph import ProofGraph
from ruleproofs.theory import (
    Fact,
    Literal,
    Question,
    Rule,
    Theory,
    TheoryParseError,
    make_fact,
    make_question,
    make_rule,
    parse_fact_sentence,
    parse_rule_sentence,
    parse_theory_line,
    read_theories,
    render_literal,
    render_rule,
    theory_to_record,
    validate_theory,
    write_theories,
)


def small_theory(theory_id="t"):
    return Theory(
        theory_id,
        (make_fact("F1", Literal("alan", "blue")),
         make_fact("F2", Literal("bob", "rough"))),
        (make_rule("R1", [Literal("someone", "blue")], Literal("someone", "young")),
         make_rule("R2", [Literal("someone", "rough")], Literal("someone", "cold"))),
        (make_question("Q1", Literal("alan", "young")),),
    )


def read_one(data):
    """The theory on the one line of JSONL text ``data``, or of the record
    ``data``, read as every subcommand reads a file."""
    text = data if isinstance(data, str) else json.dumps(data)
    return next(read_theories(io.StringIO(text + "\n")))


class TestRendering:
    def test_attribute_fact(self):
        assert make_fact("F1", Literal("alan", "blue")).text == "Alan is blue."

    def test_negative_attribute_fact(self):
        assert make_fact("F1", Literal("alan", "kind", positive=False)).text == "Alan is not kind."

    def test_relation_fact(self):
        assert make_fact("F1", Literal("alan", "like", "bob")).text == "Alan likes Bob."
        lit = Literal("alan", "like", "bob", positive=False)
        assert make_fact("F1", lit).text == "Alan does not like Bob."

    def test_single_antecedent_rule(self):
        r = make_rule("R1", [Literal("someone", "blue")], Literal("someone", "young"))
        assert r.text == "If someone is blue then they are young."

    def test_two_attribute_antecedents_elide_copula(self):
        r = make_rule(
            "R1",
            [Literal("someone", "blue"), Literal("someone", "rough")],
            Literal("someone", "young"),
        )
        assert r.text == "If someone is blue and rough then they are young."

    def test_mixed_antecedents(self):
        r = make_rule(
            "R1",
            [Literal("someone", "like", "bob"), Literal("someone", "kind", positive=False)],
            Literal("someone", "like", "alan"),
        )
        assert r.text == "If someone likes Bob and is not kind then they like Alan."

    def test_thing_variable_uses_it(self):
        r = make_rule(
            "R1", [Literal("something", "live")], Literal("something", "power", "bulb"))
        assert r.text == "If something is live then it powers Bulb."

    def test_ground_rule(self):
        r = make_rule(
            "R1",
            [Literal("alan", "blue"), Literal("bob", "see", "carol")],
            Literal("bob", "cold"),
        )
        assert r.text == "If Alan is blue and Bob sees Carol then Bob is cold."

    def test_rendering_is_deterministic(self):
        r = small_theory().rules[0]
        assert render_rule(r.antecedents, r.consequent) == render_rule(r.antecedents, r.consequent)


class TestParsing:
    def test_attribute_fact(self):
        assert parse_fact_sentence("Alan is blue.") == Literal("alan", "blue")

    def test_single_antecedent_rule(self):
        ants, cons = parse_rule_sentence("If someone is blue then they are young.")
        assert ants == (Literal("someone", "blue"),)
        assert cons == Literal("someone", "young")

    def test_round_trip_examples(self):
        for text in [
            "Alan is blue.",
            "Alan is not kind.",
            "Alan likes Bob.",
            "Alan does not like Bob.",
            "If someone is blue and rough then they are young.",
            "If someone likes Bob and is not kind then they like Alan.",
            "If something is live and does not power Bulb then it is broken.",
            "If Alan is blue and Bob sees Carol then Bob is cold.",
            "If something sees Cat then it is wild.",
            "If someone does not visit Bob then they are quiet.",
        ]:
            if text.startswith("If "):
                assert make_rule("R1", *parse_rule_sentence(text)).text == text
            else:
                assert make_fact("F1", parse_fact_sentence(text)).text == text

    def test_rejects_missing_period(self):
        with pytest.raises(TheoryParseError):
            parse_fact_sentence("Alan is blue")

    def test_rejects_reserved_word(self):
        with pytest.raises(TheoryParseError):
            parse_fact_sentence("Alan is not.")
        with pytest.raises(TheoryParseError):
            parse_fact_sentence("If is blue.")
        with pytest.raises(TheoryParseError):
            parse_fact_sentence("Alan does Bob.")
        with pytest.raises(TheoryParseError):
            parse_rule_sentence("If someone does Bob then they doe Carol.")

    @pytest.mark.parametrize("verb", ["doe", "i"])
    def test_rejects_verb_whose_third_person_is_reserved(self, verb):
        # "Carol does Bob." and "Carol is Bob." do not read, so neither may
        # the negated forms
        with pytest.raises(TheoryParseError, match="reserved word as its third person"):
            parse_fact_sentence(f"Carol does not {verb} Bob.")
        with pytest.raises(TheoryParseError, match="reserved word as its third person"):
            parse_rule_sentence(f"If someone is blue and does not {verb} Bob then they are red.")

    def test_rejects_lowercase_entity(self):
        with pytest.raises(TheoryParseError):
            parse_fact_sentence("alan is blue.")

    def test_rejects_two_thens(self):
        with pytest.raises(TheoryParseError):
            parse_rule_sentence("If someone is blue then they are young then they are old.")

    # Sentences the renderer never writes but the parser accepts: an
    # attribute antecedent of a variable rule may carry or drop its "is".
    @pytest.mark.parametrize("text, antecedents, consequent", [
        ("If someone blue then they are young.",
         [Literal("someone", "blue")], Literal("someone", "young")),
        ("If someone is blue and is rough then they are young.",
         [Literal("someone", "blue"), Literal("someone", "rough")], Literal("someone", "young")),
        ("If someone likes Bob and kind then they are young.",
         [Literal("someone", "like", "bob"), Literal("someone", "kind")],
         Literal("someone", "young")),
        ("If someone likes Bob and not kind then they are young.",
         [Literal("someone", "like", "bob"), Literal("someone", "kind", positive=False)],
         Literal("someone", "young")),
        ("If something not live then it is broken.",
         [Literal("something", "live", positive=False)], Literal("something", "broken")),
    ], ids=["first_without_is", "second_with_is", "after_relation_without_is",
            "negative_after_relation_without_is", "negative_first_without_is"])
    def test_accepts_optional_is(self, text, antecedents, consequent):
        assert parse_rule_sentence(text) == (tuple(antecedents), consequent)
        assert render_rule(antecedents, consequent) != text

    @pytest.mark.parametrize("text", [
        "If someone likes Bob then they likes Bob.",
        "If something likes Bob then it like Bob.",
        "If someone is blue then they is young.",
        "If something is blue then it are young.",
        "If something is blue then it do not like Bob.",
        "If someone is blue then it is young.",
    ], ids=["they_third_person", "it_base_form", "they_is", "it_are", "it_do", "wrong_pronoun"])
    def test_pronoun_decides_the_verb_form(self, text):
        with pytest.raises(TheoryParseError):
            parse_rule_sentence(text)

    def test_error_carries_line(self):
        with pytest.raises(TheoryParseError) as exc:
            parse_fact_sentence("Alan is blue")
        # the grammar reads text only, so its own errors name no line
        assert str(exc.value) == "sentence must end with a period: 'Alan is blue'"
        record = theory_to_record(small_theory())
        record["facts"][0]["text"] = "Alan is blue"
        lines = "\n" * 11 + json.dumps(record) + "\n"
        with pytest.raises(TheoryParseError) as exc:
            list(read_theories(io.StringIO(lines)))
        assert str(exc.value) == ("bad theory record on line 12: "
                                  "F1: sentence must end with a period: 'Alan is blue'")

    def test_failed_clause_raises_on_every_parse(self):
        for _ in range(2):
            with pytest.raises(TheoryParseError, match="reserved word"):
                parse_fact_sentence("Alan likes Someone.")
            with pytest.raises(TheoryParseError, match="base form"):
                parse_rule_sentence("If someone is blue then they likes Bob.")

    def test_clause_cache_bound_is_the_constant(self):
        for memo in (theory._entity_clause, theory._variable_clause,
                     parse_fact_sentence, parse_rule_sentence):
            assert memo.cache_info().maxsize == theory._CLAUSE_CACHE_SIZE

    def test_theory_cache_bound_is_the_constant(self):
        assert parse_theory_line.cache_info().maxsize == theory._THEORY_CACHE_SIZE


class TestParseTheory:
    def test_empty_theory(self):
        t = read_one({"id": "t", "facts": [], "rules": [], "questions": []})
        assert t.facts == () and t.rules == ()

    def test_json_round_trip(self):
        t = small_theory()
        again = read_one(theory_to_record(t))
        assert again == t

    def test_sentence_text_round_trip(self):
        t = small_theory()
        record = theory_to_record(t)
        items = record["facts"] + record["rules"] + record["questions"]
        assert all(set(item) == {"id", "text"} for item in items)
        again = read_one(record)
        assert (again.facts, again.rules, again.questions) == (t.facts, t.rules, t.questions)

    def test_text_parse_render_parse_fixpoint(self):
        first = read_one(theory_to_record(small_theory()))
        second = read_one(theory_to_record(first))
        assert first == second

    def test_sentence_text_error_has_line_number(self):
        first, second = (json.dumps(theory_to_record(small_theory(i))) for i in ("t1", "t2"))
        bad = theory_to_record(small_theory())
        bad["rules"][1]["text"] = "If someone is rough then Alan is"
        with pytest.raises(TheoryParseError, match="^bad theory record on line 3: "
                           "R2: sentence must end with a period"):
            list(read_theories(io.StringIO(f"{first}\n{second}\n{json.dumps(bad)}\n")))

    def test_failed_sentence_raises_alike_on_every_read(self):
        good = json.dumps(theory_to_record(small_theory("t1")))
        bad = theory_to_record(small_theory("t2"))
        bad["facts"][1]["text"] = "Bob likes Someone."
        bad["rules"][0]["text"] = "If someone is blue then they likes Bob."
        errors = []
        for facts in (bad["facts"], [], bad["facts"]):  # the rule alone fails in between
            lines = f"{good}\n{json.dumps({**bad, 'facts': facts})}\n"
            for _ in range(2):
                with pytest.raises(TheoryParseError) as exc:
                    list(read_theories(io.StringIO(lines)))
                errors.append(str(exc.value))
        fact = "bad theory record on line 2: F2: entity token 'Someone' is a reserved word"
        rule = "bad theory record on line 2: R1: relation verb 'likes' must be in base form"
        assert errors == [fact, fact, rule, rule, fact, fact]

    def test_ids_out_of_order_are_each_named(self):
        record = theory_to_record(small_theory())
        record["facts"][0]["id"], record["facts"][1]["id"] = "F2", "F1"
        record["rules"][1]["id"] = "R3"
        with pytest.raises(TheoryParseError) as exc:
            read_one(record)
        assert str(exc.value) == (
            "bad theory record on line 1: "
            "theory 't': id F2: expected F1 (ids must be contiguous); "
            "id F1: expected F2 (ids must be contiguous); "
            "id R3: expected R2 (ids must be contiguous)")

    def test_read_skips_blank_lines(self):
        buffer = io.StringIO()
        write_theories(buffer, [small_theory("t1"), small_theory("t2")])
        first, second = buffer.getvalue().splitlines()
        assert list(read_theories(io.StringIO(f"\n{first}\n  \n{second}\n"))) \
            == [small_theory("t1"), small_theory("t2")]

    def test_reading_a_file_twice_gives_equal_theories(self, tmp_path):
        cfg = GenConfig(seed=3, num_theories=3)
        written = [small_theory(), *(generate_theory(cfg, i) for i in range(3))]
        path = tmp_path / "t.jsonl"
        with path.open("w") as fp:
            write_theories(fp, written)
        reads = []
        for _ in range(2):
            with path.open() as fp:
                reads.append(list(read_theories(fp)))
        assert reads == [written, written]

    def test_read_shares_parsed_clauses_across_lines(self):
        buffer = io.StringIO()
        write_theories(buffer, [small_theory("t1"), small_theory("t2")])
        first, second = read_theories(io.StringIO(buffer.getvalue()))
        assert first.facts[0].literal is second.facts[0].literal
        assert first.rules[0].consequent is second.rules[0].consequent

    def test_a_line_read_again_is_the_same_theory(self):
        buffer = io.StringIO()
        write_theories(buffer, [small_theory("t1"), small_theory("t2")])
        first, again = (list(read_theories(io.StringIO(buffer.getvalue()))) for _ in range(2))
        assert len(again) == 2 and all(a is b for a, b in zip(first, again))

    def test_a_bad_line_fails_on_every_read_naming_its_own_line(self):
        good = "".join(json.dumps(theory_to_record(small_theory(i))) + "\n" for i in ("t1", "t2"))
        record = theory_to_record(small_theory("t3"))
        record["facts"][0]["text"] = "Alan is blue"
        bad = json.dumps(record) + "\n"
        for text, line_no in ((good + bad, 3), (bad, 1), (good + bad, 3), (bad, 1)):
            with pytest.raises(TheoryParseError, match=f"^bad theory record on line {line_no}: "
                               "F1: sentence must end with a period"):
                list(read_theories(io.StringIO(text)))

    @pytest.mark.parametrize("extra", [{}, {"note": "x"}], ids=["same_line", "another_line"])
    def test_a_repeated_id_is_named_when_both_lines_are_memo_hits(self, extra):
        record = theory_to_record(small_theory("t1"))
        first, second = json.dumps(record), json.dumps({**record, **extra})
        for line in {first, second}:  # each line read once, in its own file
            read_one(line)
        hits = parse_theory_line.cache_info().hits
        with pytest.raises(TheoryParseError, match="^bad theory record on line 3: "
                           "theory id 't1' already read on line 1$"):
            list(read_theories(io.StringIO(f"{first}\n\n{second}\n")))
        assert parse_theory_line.cache_info().hits == hits + 2

    def test_one_id_in_two_files_reads_as_each_files_theory(self):
        t1 = small_theory("T1")
        other = replace(t1, facts=(make_fact("F1", Literal("alan", "red")), t1.facts[1]))
        reads = [read_one(theory_to_record(t)) for t in (t1, other, t1)]
        assert reads == [t1, other, t1]

    def test_unknown_record_keys_are_ignored(self):
        record = theory_to_record(small_theory())
        record["facts"][0]["literal"] = {"subject": "bob", "predicate": "green"}
        record["note"] = "x"
        assert read_one(record) == small_theory()

    def test_invalid_json_is_a_parse_error(self):
        with pytest.raises(TheoryParseError):
            read_one("{not json")

    def test_duplicate_id_rejected(self):
        record = theory_to_record(small_theory())
        record["facts"][1]["id"] = "F1"
        with pytest.raises(TheoryParseError, match="F1"):
            read_one(record)

    @pytest.mark.parametrize("field, value", [
        ("nodes", [1]), ("nodes", "F1"), ("edges", [["F1", "R1", "R2"]]),
        ("nodes", []), ("edges", [["F1", "NAF"]]),
    ], ids=["int_node", "string_nodes", "three_element_edge", "no_nodes", "edge_end_not_a_node"])
    def test_malformed_gold_proof_is_a_parse_error(self, field, value):
        record = theory_to_record(small_theory())
        record["questions"][0]["proofs"] = [{"nodes": ["F1", "R1"], "edges": [["F1", "R1"]]}]
        assert read_one(record).questions[0].gold_proofs
        record["questions"][0]["proofs"][0][field] = value
        with pytest.raises(TheoryParseError, match=field):
            read_one(record)

    def test_sentence_index_covers_exactly_the_layout(self):
        t = small_theory()
        assert [t.sentence_index(i) for i in ("F1", "F2", "R1", "R2", "NAF")] == [0, 1, 2, 3, 4]
        for outside in ("Fx", "", "R0", "F0", "F01", "F3", "R3", "F 1", "F+1", "F\u0661",
                        "Q1", "naf", "NAF1"):
            with pytest.raises(KeyError):
                t.sentence_index(outside)

    def test_unknown_ids_are_the_ids_outside_the_layout_sorted(self):
        t = small_theory()
        assert t.unknown_ids(["R9", "F1", "NAF", "Fx", "F3", "R2", "F3"]) == ["F3", "Fx", "R9"]
        assert t.unknown_ids(["F1", "F2", "R1", "R2", "NAF"]) == []
        assert t.unknown_ids([]) == []

    @settings(max_examples=300)
    @given(st.integers(0, 4), st.integers(0, 4),
           st.lists(st.sampled_from(["F", "R", "NAF", "Q", "0", "1", "2", "9", "10", "\u0661",
                                     "\uff11", "\u00b2", " ", "+", "-"]),
                    max_size=4).map("".join))
    def test_sentence_index_agrees_with_parsing_the_id(self, num_facts, num_rules, sentence_id):
        t = Theory("t", tuple(make_fact(f"F{i}", Literal("alan", "blue"))
                              for i in range(1, num_facts + 1)),
                   tuple(make_rule(f"R{i}", [Literal("someone", "blue")],
                                   Literal("someone", "cold"))
                         for i in range(1, num_rules + 1)), ())
        try:
            expected = oracles.parsed_sentence_index(t, sentence_id)
        except KeyError:
            with pytest.raises(KeyError):
                t.sentence_index(sentence_id)
        else:
            assert t.sentence_index(sentence_id) == expected


class TestItems:
    """An item is its text: building it parses the text, and a text the
    grammar cannot state raises naming the item."""

    @pytest.mark.parametrize("build, message", [
        (lambda: Fact("F1", "Alan is blue"), "F1: sentence must end with a period"),
        (lambda: Fact("F1", "Alan is. blue."), "F1: sentence has a stray period"),
        (lambda: Fact("F1", "If Alan is blue then Alan is red."), "F1: expected a declarative"),
        (lambda: Rule("R1", "Alan is blue."), "R1: rule sentence must start with 'If'"),
        (lambda: Rule("R1", "If someone is blue then Bob is red."), "R1: consequent must start"),
        (lambda: Question("Q1", "Someone is blue.", gold_answer=True), "Q1: entity token"),
    ], ids=["fact_without_period", "fact_with_stray_period", "fact_from_rule_text",
            "rule_from_fact_text", "rule_mixing_subjects", "variable_question"])
    def test_unparseable_text_raises_naming_the_item(self, build, message):
        with pytest.raises(TheoryParseError, match=f"^{message}"):
            build()

    def test_id_and_text_must_be_strings(self):
        with pytest.raises(TypeError, match="id must be a string"):
            Fact(1, "Alan is blue.")
        with pytest.raises(TypeError, match="text must be a string"):
            Rule("R1", None)

    def test_replacing_the_text_rederives_the_structure(self):
        fact = replace(make_fact("F1", Literal("alan", "blue")), text="Alan is green.")
        assert fact.literal == Literal("alan", "green")
        rule = replace(small_theory().rules[0], text="If something is red then it is big.")
        assert (rule.antecedents, rule.consequent) == ((Literal("something", "red"),),
                                                       Literal("something", "big"))
        question = replace(make_question("Q1", Literal("alan", "blue"), gold_depth=0),
                           text="Bob does not like Alan.")
        assert question.literal == Literal("bob", "like", "alan", positive=False)
        assert question.gold_depth == 0

    def test_items_compare_by_id_text_and_gold(self):
        assert Fact("F1", "Alan is blue.") == make_fact("F1", Literal("alan", "blue"))
        assert Question("Q1", "Alan is blue.") != Question("Q1", "Alan is blue.", gold_answer=True)
        assert Rule("R1", "If someone blue then they are young.") != small_theory().rules[0]


class TestValidateTheory:
    def test_valid_theory(self):
        assert validate_theory(small_theory()) == []

    def test_context_size_limit(self):
        attrs = ["blue", "rough", "young", "kind", "smart", "quiet", "green",
                 "happy", "cold", "nice", "red", "big", "calm"]
        facts = tuple(
            make_fact(f"F{i + 1}", Literal(e, a))
            for i, (e, a) in enumerate(
                (e, a) for a in attrs for e in ("alan", "bob"))
        )[:13]
        rules = tuple(
            make_rule(f"R{i + 1}", [Literal("someone", attrs[i])], Literal("someone", attrs[i + 1] + "er"))
            for i in range(12)
        ) + (make_rule("R13", [Literal("someone", "calm")], Literal("someone", "safe")),)
        t = Theory("big", facts, rules, ())
        assert len(facts) + len(rules) == 26
        assert any("exceeds 25" in v for v in validate_theory(t))

    def test_duplicate_fact_literal(self):
        t = Theory(
            "t",
            (make_fact("F1", Literal("alan", "blue")),
             make_fact("F2", Literal("alan", "blue"))),
            (), (),
        )
        assert any("duplicate" in v for v in validate_theory(t))

    def test_non_contiguous_ids(self):
        t = Theory("t", (make_fact("F2", Literal("alan", "blue")),), (), ())
        assert any("F2" in v for v in validate_theory(t))

    def test_rule_needs_positive_antecedent_for_variable(self):
        r = make_rule("R1", [Literal("someone", "cold", positive=False)],
                      Literal("someone", "young"))
        t = Theory("t", (make_fact("F1", Literal("alan", "blue")),), (r,), ())
        assert any("positive antecedent" in v for v in validate_theory(t))

    def test_negative_consequent_rejected(self):
        with pytest.raises(TheoryParseError, match="^R1: rule consequent must be positive$"):
            Rule("R1", "If someone is blue then they are not kind.")
        with pytest.raises(TheoryParseError, match="^R1: rule consequent must be positive$"):
            make_rule("R1", [Literal("someone", "blue")], Literal("someone", "kind", positive=False))

    def test_variable_object_rejected(self):
        for variable in ("someone", "something"):
            antecedents = [Literal(variable, "blue"), Literal(variable, "like", variable)]
            consequent = Literal(variable, "young")
            with pytest.raises(TheoryParseError, match=f"^R1: entity token {variable.title()!r} "
                                                       "is a reserved word$"):
                make_rule("R1", antecedents, consequent)
            record = theory_to_record(Theory("t", (make_fact("F1", Literal("alan", "blue")),),
                                             (), ()))
            record["rules"] = [{"id": "R1", "text": render_rule(antecedents, consequent)}]
            with pytest.raises(TheoryParseError, match="R1: entity token .* is a reserved word"):
                read_one(record)

    def test_predicate_cannot_be_attribute_and_relation(self):
        t = Theory(
            "t",
            (make_fact("F1", Literal("alan", "like", "bob")),
             make_fact("F2", Literal("alan", "like"))),
            (), (),
        )
        assert any("with and without" in v for v in validate_theory(t))

    @pytest.mark.parametrize("literal", [
        Literal("alan", "likes", "bob"), Literal("alan", "doe", "bob"),
        Literal("alan", "i", "bob"), Literal("Alan", "blue"), Literal("alan", "Blue"),
        Literal("alan", "like", "Bob"), Literal("alan", "is"), Literal("al an", "blue"),
        Literal("alan", "like", "someone"), Literal("if", "blue"),
    ], ids=["third_person_verb", "verb_doe", "verb_i", "capital_subject",
            "capital_predicate", "capital_object", "reserved_predicate", "space",
            "variable_object", "reserved_entity"])
    def test_text_that_does_not_parse_back_is_flagged(self, literal):
        # The text rendered from ``literal`` does not parse, or, for a
        # capitalised token, reads as another literal; either way building
        # the item raises naming it.
        builds = {"F1": lambda: make_fact("F1", literal),
                  "Q1": lambda: make_question("Q1", literal),
                  "R1": lambda: make_rule("R1", [Literal("alan", "young")], literal)}
        for item_id, build in builds.items():
            with pytest.raises(TheoryParseError, match=f"^{item_id}: "):
                build()

    @pytest.mark.parametrize("build", [
        lambda: make_fact("F1", Literal("Alan", "blue")),
        lambda: make_question("F1", Literal("alan", "like", "Bob")),
        lambda: make_rule("F1", [Literal("Alan", "young")], Literal("alan", "blue")),
    ], ids=["fact", "question", "rule_antecedent"])
    def test_text_reading_as_another_structure_names_it(self, build):
        with pytest.raises(TheoryParseError,
                           match="^F1: text '.*' reads as another structure$"):
            build()

    def test_gold_depth_mismatch_flagged(self):
        from ruleproofs.proofgraph import ProofGraph
        q = Question("Q1", "Alan is blue.",
                     gold_answer=True,
                     gold_proofs=(ProofGraph.of(["F1"]),),
                     gold_depth=2)
        t = Theory("t", (make_fact("F1", Literal("alan", "blue")),), (), (q,))
        assert any("depth" in v for v in validate_theory(t))


class TestGeneratedCorpora:
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_every_sentence_round_trips(self, profile):
        cfg = GenConfig(seed=5, num_theories=4, max_depth=3, profile=profile)
        for index in range(cfg.num_theories):
            t = generate_theory(cfg, index)
            for item in (*t.facts, *t.rules, *t.questions):
                if isinstance(item, Rule):
                    parsed = parse_rule_sentence(item.text)
                    assert parsed == (item.antecedents, item.consequent)
                    assert render_rule(*parsed) == item.text
                else:
                    parsed = parse_fact_sentence(item.text)
                    assert parsed == item.literal
                    assert render_literal(parsed) == item.text
            assert read_one(theory_to_record(t)) == t

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_every_word_reads_back_in_each_clause_shape(self, profile):
        words = PROFILES[profile]
        subject = words.entities[0]
        positives = ([Literal(e, words.attributes[0]) for e in words.entities]
                     + [Literal(subject, a) for a in words.attributes]
                     + [Literal(subject, r, e) for r in words.relations for e in words.entities])
        for positive in positives:
            for lit in (positive, positive.negated()):
                assert parse_fact_sentence(render_literal(lit)) == lit
                ground = ((lit, lit), positive)
                assert parse_rule_sentence(render_rule(*ground)) == ground
                for variable in ("someone", "something"):
                    bound = replace(lit, subject=variable)
                    # the second antecedent may drop its "is"
                    rule = ((bound, bound), replace(positive, subject=variable))
                    assert parse_rule_sentence(render_rule(*rule)) == rule
            for subject in (positive.subject, "someone", "something"):
                negative = replace(positive, subject=subject, positive=False)
                with pytest.raises(TheoryParseError, match="consequent must be positive"):
                    parse_rule_sentence(render_rule([replace(positive, subject=subject)],
                                                    negative))


ENTITIES = st.sampled_from(["alan", "bob", "carol", "dave"])
ATTRS = st.sampled_from(["blue", "rough", "young", "kind", "smart", "quiet"])
VERBS = st.sampled_from(["like", "chase", "see", "need"])


@st.composite
def ground_literals(draw):
    if draw(st.booleans()):
        return Literal(draw(ENTITIES), draw(ATTRS), None, draw(st.booleans()))
    return Literal(draw(ENTITIES), draw(VERBS), draw(ENTITIES), draw(st.booleans()))


@st.composite
def rule_literal_sets(draw):
    variable = draw(st.sampled_from(["someone", "something"]))
    ground = draw(st.booleans())
    subject = draw(ENTITIES) if ground else variable

    def lit():
        if draw(st.booleans()):
            return Literal(subject, draw(ATTRS), None, draw(st.booleans()))
        return Literal(subject, draw(VERBS), draw(ENTITIES), draw(st.booleans()))

    antecedents = [lit() for _ in range(draw(st.integers(1, 3)))]
    consequent = replace(lit(), positive=True)  # the grammar has no negative consequent
    return antecedents, consequent


def mostly(good, bad):
    """``good`` fifteen draws in sixteen, else ``bad``."""
    return st.integers(0, 15).flatmap(lambda k: bad if k == 0 else good)


# Tokens as a hand-built theory may hold them: most read back, and the rest
# are capitalised, reserved, non-alphabetic, a variable, or a verb in the
# third person.
GROUND = st.sampled_from(["alan", "bob", "carol"])
ANY_SUBJECT = mostly(GROUND, st.sampled_from(["Alan", "if", "al an", "b0b", "", "someone"]))
ANY_OBJECT = mostly(GROUND, st.sampled_from(["Bob", "someone", "something", "not"]))
ANY_ATTRIBUTE = mostly(st.sampled_from(["blue", "rough", "young"]),
                       st.sampled_from(["Blue", "is", "blue1", "like"]))
ANY_VERB = mostly(st.sampled_from(["like", "see"]),
                  st.sampled_from(["likes", "sees", "doe", "i", "Like", "blue"]))


@st.composite
def drawn_literals(draw, subject):
    positive = draw(st.integers(0, 3)) > 0
    if draw(st.booleans()):
        return Literal(subject, draw(ANY_ATTRIBUTE), None, positive)
    return Literal(subject, draw(ANY_VERB), draw(ANY_OBJECT), positive)


@st.composite
def drawn_rules(draw, rule_id):
    """Mostly single-variable or ground rules; some mix subjects, have no
    antecedent or a negative consequent."""
    variable = draw(st.sampled_from(["someone", "something", None]))
    subject = draw(GROUND) if variable is None else variable
    subjects = mostly(st.just(subject), ANY_SUBJECT)
    antecedents = [draw(drawn_literals(draw(subjects)))
                   for _ in range(draw(mostly(st.integers(1, 3), st.just(0))))]
    consequent = draw(drawn_literals(draw(subjects)))
    return make_rule(rule_id, antecedents,
                     replace(consequent, positive=draw(mostly(st.just(True), st.just(False)))))


@st.composite
def drawn_theories(draw):
    """Theories as a hand-built one may be, valid or not, or the
    ``TheoryParseError`` that building one raised: bad tokens, variable
    facts and questions, the rule shapes of ``drawn_rules``, gold proofs
    that name unknown nodes, and texts replaced by others, not the
    rendered ones."""
    try:
        facts = [make_fact(f"F{i + 1}", draw(drawn_literals(draw(ANY_SUBJECT))))
                 for i in range(draw(st.integers(0, 3)))]
        rules = [draw(drawn_rules(f"R{i + 1}")) for i in range(draw(st.integers(0, 3)))]
        questions = []
        for i in range(draw(st.integers(0, 2))):
            gold = {}
            if draw(st.booleans()):
                node = draw(st.sampled_from(["F1", "R1", "NAF", "F9"]))
                gold = dict(gold_answer=draw(st.booleans()),
                            gold_proofs=(ProofGraph.of([node]),), gold_depth=int(node == "R1"))
            literal = draw(drawn_literals(draw(ANY_SUBJECT)))
            questions.append(make_question(f"Q{i + 1}", literal, **gold))
        items = facts + rules + questions
        for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2])) if items else 0):
            index = draw(st.integers(0, len(items) - 1))
            text = draw(st.sampled_from([
                "Alan is blue.", "If someone is blue and is rough then they are young.",
                items[index].text.replace(" is ", " is not ", 1),
                items[index].text.replace(" and ", " and is ", 1),
                items[draw(st.integers(0, len(items) - 1))].text]))
            items[index] = replace(items[index], text=text)
    except TheoryParseError as exc:
        return exc
    split = (len(facts), len(facts) + len(rules))
    return Theory("t", tuple(items[:split[0]]), tuple(items[split[0]:split[1]]),
                  tuple(items[split[1]:]))


def verdict(t) -> str:
    if isinstance(t, TheoryParseError):
        return "raised"
    return "invalid" if validate_theory(t) else "valid"


class TestValidTheoryReadsBack:
    @given(drawn_theories())
    @settings(max_examples=400)
    def test_a_valid_theory_reads_back_as_itself(self, t):
        # every theory that builds, valid or not, reads back as itself, or
        # is one the reader rejects
        if isinstance(t, TheoryParseError):
            assert re.match(r"[FRQ]\d: ", str(t))
        elif theory._read_violations(t):
            with pytest.raises(TheoryParseError):
                read_one(theory_to_record(t))
        else:
            again = read_one(theory_to_record(t))
            assert again == t
            assert list(again._all_literals()) == list(t._all_literals())

    def test_draws_hold_both_verdicts(self):
        # some draws raise, and of those that build some are valid, some not;
        # one of each is enough, so no shrinking, and a budget that a rare
        # verdict does not run out of
        for wanted in ("raised", "invalid", "valid"):
            find(drawn_theories(), lambda t: verdict(t) == wanted,
                 settings=settings(database=None, max_examples=1000,
                                   phases=[Phase.generate]))


class TestRoundTripProperties:
    @given(ground_literals())
    @settings(max_examples=200)
    def test_fact_round_trip(self, lit):
        assert parse_fact_sentence(make_fact("F1", lit).text) == lit

    @given(rule_literal_sets())
    @settings(max_examples=200)
    def test_rule_round_trip(self, parts):
        antecedents, consequent = parts
        rule = make_rule("R1", antecedents, consequent)
        got_ants, got_cons = parse_rule_sentence(rule.text)
        assert got_ants == tuple(antecedents)
        assert got_cons == consequent
        with pytest.raises(TheoryParseError, match="consequent must be positive"):
            parse_rule_sentence(render_rule(antecedents, consequent.negated()))

    @given(st.text(max_size=60))
    @settings(max_examples=300)
    def test_sentence_fuzz_never_crashes(self, text):
        for parse in (parse_fact_sentence, parse_rule_sentence):
            try:
                parse(text)
            except TheoryParseError:
                pass

    @given(st.text(max_size=120))
    @settings(max_examples=200)
    def test_theory_fuzz_raises_parse_errors_only(self, text):
        try:
            list(read_theories(io.StringIO(text)))
        except TheoryParseError:
            pass
