import hashlib
import json
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ruleproofs import datagen, proofgraph, reasoner, theory
from ruleproofs.cli import run_command
from ruleproofs.datagen import (
    ConfigError,
    GenConfig,
    GenerationError,
    PROFILES,
    generate_dataset,
    generate_theory,
)
from ruleproofs.proofgraph import proof_depth, validate_structure
from ruleproofs.theory import (
    MAX_CONTEXT_SENTENCES,
    TheoryParseError,
    theory_to_record,
    validate_theory,
)


ROOT = Path(__file__).resolve().parents[1]


def serialize(theories):
    return "\n".join(json.dumps(theory_to_record(t)) for t in theories)


class TestConfig:
    def test_round_trip(self):
        cfg = GenConfig(seed=3, num_theories=5, max_depth=2)
        assert GenConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("path", sorted(
        str(p.relative_to(ROOT)) for p in [*ROOT.glob("configs/*.json"),
                                           *ROOT.glob("bench/configs/*.json")]))
    def test_checked_in_configs_load(self, path):
        raw = json.loads((ROOT / path).read_text())
        assert GenConfig.from_dict(raw, seed=9).to_dict() == {**raw, "seed": 9}
        cfg = GenConfig.from_dict(raw)
        assert GenConfig.from_dict(cfg.to_dict()) == cfg
        assert list(cfg.to_dict()) == [f.name for f in fields(GenConfig)]

    @pytest.mark.parametrize("changes, message", [
        ({"num_theories": "2"}, "num_theories must be an integer, got '2'"),
        ({"max_depth": True}, "max_depth must be an integer, got True"),
        ({"facts_per_theory": [3, 7]}, "facts_per_theory must be a pair of integers"),
        ({"negation_rate": None, "profile": 1},
         "negation_rate must be a number, got None; profile must be a string, got 1"),
    ], ids=["string_int", "bool_int", "list_pair", "two_fields"])
    def test_mistyped_field_is_rejected_when_built(self, changes, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            GenConfig(**{"seed": 0, "num_theories": 1, **changes})

    def test_replace_is_checked(self):
        cfg = GenConfig(seed=0, num_theories=1)
        with pytest.raises(ConfigError, match="max_depth must be in 0..5"):
            replace(cfg, max_depth=9)
        assert replace(cfg, max_depth=2).max_depth == 2

    def test_every_range_problem_is_named(self):
        with pytest.raises(ConfigError, match="seed must be non-negative; "
                           "num_theories must be positive"):
            GenConfig(seed=-1, num_theories=0)

    @pytest.mark.parametrize("changes, message", [
        ({"facts_per_theory": (5, 3)}, "facts_per_theory range 5..3 is malformed"),
        ({"facts_per_theory": (0, 3)}, "facts_per_theory must allow at least one fact"),
        ({"profile": "nope"}, "unknown vocabulary profile 'nope'"),
    ], ids=["reversed_range", "no_fact", "unknown_profile"])
    def test_out_of_range_setting_is_named(self, changes, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            GenConfig(**{"seed": 0, "num_theories": 1, **changes})

    def test_rejects_rules_below_depth(self):
        with pytest.raises(ConfigError, match="below max_depth"):
            GenConfig(seed=1, num_theories=1, max_depth=4,
                      rules_per_theory=(1, 3))

    def test_rejects_oversized_context(self):
        with pytest.raises(ConfigError, match="limit is 25"):
            GenConfig(seed=1, num_theories=1, facts_per_theory=(3, 15),
                      rules_per_theory=(3, 15))

    def test_rejects_too_few_questions(self):
        with pytest.raises(ConfigError, match="questions_per_theory"):
            GenConfig(seed=1, num_theories=1, max_depth=3,
                      questions_per_theory=2)

    def test_rejects_negative_seed(self):
        with pytest.raises(ConfigError, match="seed must be non-negative"):
            GenConfig.from_dict({"seed": -1, "num_theories": 1})

    def test_rejects_depth_beyond_five(self):
        with pytest.raises(ConfigError, match="0..5"):
            GenConfig(seed=1, num_theories=1, max_depth=6,
                      rules_per_theory=(3, 9), questions_per_theory=8)


class TestGenerateTheory:
    def test_valid_and_annotated(self):
        cfg = GenConfig(seed=0, num_theories=1, max_depth=3)
        t = generate_theory(cfg, 0)
        assert validate_theory(t) == []
        assert t.num_sentences <= 25
        for q in t.questions:
            assert q.gold_answer is not None
            assert q.gold_proofs
            assert q.gold_depth == max(proof_depth(p) for p in q.gold_proofs)

    def test_depth_coverage_and_exact_max(self):
        for depth in (0, 1, 2, 3):
            cfg = GenConfig(seed=depth, num_theories=1, max_depth=depth,
                            rules_per_theory=(depth, 7),
                            questions_per_theory=max(4, depth + 1))
            t = generate_theory(cfg, 0)
            depths = {q.gold_depth for q in t.questions}
            assert depths >= set(range(depth + 1))
            assert depth in depths

    def test_no_rules_config_gives_lookup_questions(self):
        cfg = GenConfig(seed=2, num_theories=1, max_depth=0,
                        rules_per_theory=(0, 0), questions_per_theory=4)
        t = generate_theory(cfg, 0)
        assert t.rules == ()
        assert all(q.gold_depth == 0 for q in t.questions)

    def test_gold_matches_reasoner_recomputation(self):
        cfg = GenConfig(seed=4, num_theories=6, max_depth=3)
        for i in range(6):
            t = generate_theory(cfg, i)
            for q in t.questions:
                assert reasoner.answer_question(t, q) == q.gold_answer
                assert reasoner.prove(t, q) == list(q.gold_proofs)
                for p in q.gold_proofs:
                    assert validate_structure(p) == []
                    assert reasoner.check_proof(t, q, p)

    def test_negation_rate_zero_has_no_negative_literals(self):
        cfg = GenConfig(seed=9, num_theories=8, max_depth=2, negation_rate=0.0)
        for i in range(8):
            t = generate_theory(cfg, i)
            literals = [f.literal for f in t.facts] + [q.literal for q in t.questions]
            for r in t.rules:
                literals.extend(r.antecedents)
                literals.append(r.consequent)
            assert all(lit.positive for lit in literals)
            for q in t.questions:
                if q.gold_answer and q.literal.positive:
                    for p in q.gold_proofs:
                        assert "NAF" not in p.nodes

    def test_negation_present_at_high_rate(self):
        cfg = GenConfig(seed=1, num_theories=6, max_depth=3, negation_rate=0.9)
        seen_negative = False
        seen_naf_in_true_proof = False
        for i in range(6):
            t = generate_theory(cfg, i)
            for r in t.rules:
                seen_negative |= any(not a.positive for a in r.antecedents)
            for q in t.questions:
                if q.gold_answer:
                    seen_naf_in_true_proof |= any(
                        "NAF" in p.nodes for p in q.gold_proofs)
        assert seen_negative

    def test_other_profiles_generate(self):
        for profile in ("animals", "circuits"):
            cfg = GenConfig(seed=3, num_theories=2, max_depth=2, profile=profile)
            t = generate_theory(cfg, 0)
            assert validate_theory(t) == []
            variable = PROFILES[profile].variable
            assert any(variable in r.text for r in t.rules) or not t.rules


@st.composite
def gen_configs(draw):
    """Valid configs. Half have rules_per_theory[1] == max_depth and, drawn
    apart from that, half reach the 25-sentence limit."""
    depth = draw(st.integers(0, 5))
    rules_hi = depth if draw(st.booleans()) else draw(st.integers(depth, 12))
    room = MAX_CONTEXT_SENTENCES - rules_hi
    facts_hi = room if draw(st.booleans()) else draw(st.integers(1, room))
    return GenConfig(
        seed=draw(st.integers(0, 2**32 - 1)),
        num_theories=1,
        facts_per_theory=(draw(st.integers(1, facts_hi)), facts_hi),
        rules_per_theory=(draw(st.integers(0, rules_hi)), rules_hi),
        max_depth=depth,
        negation_rate=draw(st.sampled_from((0.0, 0.3, 1.0)) | st.floats(0.0, 1.0)),
        questions_per_theory=draw(st.integers(depth + 1, 12)),
        profile=draw(st.sampled_from(sorted(PROFILES))),
        answer_balance=draw(st.floats(0.3, 0.7)),
    )


@settings(max_examples=60, deadline=None)
@given(gen_configs(), st.integers(0, 99))
def test_generated_theories_keep_their_invariants(cfg, index):
    try:
        t = generate_theory(cfg, index)
    except GenerationError:
        return
    assert validate_theory(t) == []
    assert cfg.facts_per_theory[0] <= len(t.facts) <= cfg.facts_per_theory[1]
    assert cfg.rules_per_theory[0] <= len(t.rules) <= cfg.rules_per_theory[1]
    program = reasoner.closure(t)
    assert not any(f.literal.atom() in program.derived for f in t.facts if not f.literal.positive)
    heads = {r.consequent.predicate for r in t.rules}
    assert not any(not a.positive and a.predicate in heads for r in t.rules for a in r.antecedents)


def test_profiles_have_the_vocabulary_drafts_assume():
    # a draft takes three to five entities, so the chain entity always has
    # another to relate to; at depth 5 it takes 11 attributes for the chain
    # and its supports, and needs three more so that the negatable, unknown
    # and head-only thirds of the rest are each non-empty; two relations
    # feed the chain and at least one other serves as a support
    deepest = 5
    with pytest.raises(ConfigError, match="max_depth must be in 0..5"):
        GenConfig(seed=0, num_theories=1, max_depth=deepest + 1, rules_per_theory=(3, 7),
                  questions_per_theory=7)
    for name, profile in PROFILES.items():
        assert len(set(profile.entities)) == len(profile.entities) >= 5, name
        assert len(set(profile.attributes)) == len(profile.attributes) >= 2 * deepest + 1 + 3, name
        assert len(set(profile.relations)) == len(profile.relations) >= 3, name


def test_twin_rule_keeps_the_rule_bound():
    # with rules_per_theory[1] == max_depth, the second derivation of a
    # chain atom used to give these theories a fourth rule
    cfg = GenConfig(seed=0, num_theories=1, rules_per_theory=(3, 3), max_depth=3)
    assert [len(generate_theory(cfg, i).rules) for i in (0, 8, 10)] == [3, 3, 3]


DU5 = GenConfig.from_dict(json.loads((ROOT / "configs" / "du5.json").read_text()), seed=11)


def with_one_fault(t):
    """The theory with one fault each that the generator's final check
    must catch: a stored depth one too high, the gold proofs of two
    questions of different depths swapped, and a fact stated twice."""
    qs = t.questions
    i, j = next((i, j) for i in range(len(qs)) for j in range(i)
                if qs[i].gold_depth != qs[j].gold_depth)

    def with_questions(changes):
        return replace(t, questions=tuple(replace(q, **changes.get(k, {}))
                                          for k, q in enumerate(qs)))

    first = t.facts[0]
    return {
        "depth_plus_one": with_questions({0: {"gold_depth": qs[0].gold_depth + 1}}),
        "proofs_swapped": with_questions({i: {"gold_proofs": qs[j].gold_proofs},
                                          j: {"gold_proofs": qs[i].gold_proofs}}),
        "duplicate_fact": replace(t, facts=(*t.facts, replace(first, id=f"F{len(t.facts) + 1}"))),
    }


@pytest.mark.parametrize("index", range(4))
def test_check_against_the_depth_table_keeps_its_teeth(index):
    # the depth table is proof_depth's memo: generating the theory leaves
    # every gold proof in it, and the check must still catch each fault
    t = generate_theory(DU5, index)
    misses = proofgraph._measured_depth.cache_info().misses
    assert validate_theory(t) == []
    assert proofgraph._measured_depth.cache_info().misses == misses
    for name, bad in with_one_fault(t).items():
        assert validate_theory(bad), name
    # a text that is not the grammar's cannot even be built
    first = t.facts[0]
    with pytest.raises(TheoryParseError, match=f"^{first.id}: sentence must end with a period"):
        replace(first, text=first.text[:-1] + "!")


def test_each_distinct_proof_is_measured_once_while_in_the_memo(monkeypatch):
    asked = []

    def recorded_depth(p):
        asked.append(p)
        return proof_depth(p)

    monkeypatch.setattr(datagen, "proof_depth", recorded_depth)
    monkeypatch.setattr(theory, "proof_depth", recorded_depth)
    memo = proofgraph._measured_depth
    for index in range(10):
        memo.cache_clear()
        asked.clear()
        t = generate_theory(DU5, index)
        distinct = set(asked)
        assert len(distinct) <= proofgraph._PROOF_CACHE_SIZE  # nothing was evicted
        assert memo.cache_info().misses == len(distinct)
        assert len(asked) > len(distinct)  # the final check reads the memo
        assert {p for q in t.questions for p in q.gold_proofs} <= distinct


# sha256 of every file ``generate`` writes for configs/<name>.json at seed 0
GENERATED_SHA256 = {
    "circuits_shift": {
        "dev.theories.jsonl":
            "bf55d4fa5253db3761cc414e8da2dfc8910d15c98a124c7dad54a2d2845c8480",
        "manifest.json":
            "e0b902f8dc74c35f4029c7df2f1190990e8f8f31183c71345ea7cce17382bf07",
        "test.theories.jsonl":
            "688d20bfa40340353078d8d7a04d6b133cdbd54036bd5dc731adfd9501ca1ece",
        "train.theories.jsonl":
            "df785bd6e3bd6aba4b2e8d9561f3c259d34df02a5c16e4c65d61399744050a33",
    },
    "du0": {
        "dev.theories.jsonl":
            "88f5656a3f8f93a9ac6d3adb7918c9c0621e6acc5b2aefcc12141cc4031f17d0",
        "manifest.json":
            "c7709db1cc157819375ef62093f7cbb51e6f6ef7366ab6c9f420ada5afa96278",
        "test.theories.jsonl":
            "4835982e3ee6470fe8fac64c395a6eb08030003d749263b7be0c7ee4b9678cbb",
        "train.theories.jsonl":
            "b036c50de9900a65148265f42fc6a837955978c2570bf75436f6ac2a9752da87",
    },
    "du3": {
        "dev.theories.jsonl":
            "f333594d48f37defe656ad0ac8a22f7b4a08c35a7eae0b660d0e453eafffbca8",
        "manifest.json":
            "04ee72f0fb3e48967477c63c18e152fd9dd309f668242a6130316642ca3bdc4c",
        "test.theories.jsonl":
            "58134d6006e5a49ca1d0908ea97af5f6d413eec2a8988b07076988453ae9b8c3",
        "train.theories.jsonl":
            "acddbd02943627b2bff89b8b8a10989b964ff5b39693a1edeaf6eb9997f92db6",
    },
    "du5": {
        "dev.theories.jsonl":
            "c1bc7d790f9c65b8b7424efe53c2e2882ea12f9f71ac0730f349d8149e22fb34",
        "manifest.json":
            "a78901bceebf06a4a3d6a04c021914d0a7c5b16c13fb4c961aeae9cb13dd3ac0",
        "test.theories.jsonl":
            "38beadda71cbb9b673a6b115c12267ef9f63530843f196aa0aa49269d1a1d164",
        "train.theories.jsonl":
            "941343ba1101f69613e5323f2b05485890bbb308e16a754a0125b435e9beef57",
    },
}


@pytest.mark.parametrize("name", sorted(p.stem for p in ROOT.glob("configs/*.json")))
def test_generated_bytes_are_pinned(name, tmp_path):
    assert run_command(["generate", "--config", str(ROOT / "configs" / f"{name}.json"),
                        "--seed", "0", "-o", str(tmp_path)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == GENERATED_SHA256[name]


class TestGenerateDataset:
    def test_split_sizes(self):
        cfg = GenConfig(seed=0, num_theories=10, max_depth=2)
        bundle = generate_dataset(cfg)
        assert (len(bundle.train), len(bundle.dev), len(bundle.test)) == (7, 1, 2)
        ids = [t.id for split in (bundle.train, bundle.dev, bundle.test) for t in split]
        assert len(set(ids)) == 10

    def test_byte_identical_under_same_seed(self):
        cfg = GenConfig(seed=12, num_theories=8, max_depth=3)
        a = generate_dataset(cfg)
        b = generate_dataset(cfg)
        for split in ("train", "dev", "test"):
            assert serialize(a.split(split)) == serialize(b.split(split))
        assert json.dumps(a.manifest) == json.dumps(b.manifest)

    def test_manifest_reports_balance_and_histogram(self):
        cfg = GenConfig(seed=5, num_theories=10, max_depth=3)
        bundle = generate_dataset(cfg)
        for split in ("train", "dev", "test"):
            stats = bundle.manifest["splits"][split]
            assert 0.45 <= stats["answer_balance"] <= 0.55
            assert sum(stats["depth_histogram"].values()) == stats["questions"]
        train_hist = bundle.manifest["splits"]["train"]["depth_histogram"]
        assert set(train_hist) == {"0", "1", "2", "3"}

    def test_manifest_echoes_config(self):
        cfg = GenConfig(seed=5, num_theories=5, max_depth=2)
        bundle = generate_dataset(cfg)
        assert bundle.manifest["config"] == cfg.to_dict()

    def test_multi_proof_questions_occur(self):
        cfg = GenConfig(seed=8, num_theories=40, max_depth=3)
        counts = [
            len(q.gold_proofs)
            for i in range(40)
            for q in generate_theory(cfg, i).questions
        ]
        assert max(counts) > 1

    def test_proofs_stable_across_serialization(self):
        import io
        cfg = GenConfig(seed=14, num_theories=4, max_depth=3)
        written = [generate_theory(cfg, i) for i in range(4)]
        buffer = io.StringIO()
        theory.write_theories(buffer, written)
        for t, again in zip(written, theory.read_theories(io.StringIO(buffer.getvalue())),
                            strict=True):
            for q_before, q_after in zip(t.questions, again.questions):
                assert reasoner.prove(t, q_before) == reasoner.prove(again, q_after)
                assert q_after.gold_proofs == q_before.gold_proofs
