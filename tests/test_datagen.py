import json
from pathlib import Path

import pytest

from ruleproofs import reasoner
from ruleproofs.datagen import (
    GenConfig,
    PROFILES,
    generate_dataset,
    generate_theory,
)
from ruleproofs.proofgraph import proof_depth, validate_structure
from ruleproofs.theory import theory_to_record, validate_theory


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

    def test_rejects_rules_below_depth(self):
        with pytest.raises(ValueError, match="below max_depth"):
            GenConfig(seed=1, num_theories=1, max_depth=4,
                      rules_per_theory=(1, 3)).validate()

    def test_rejects_oversized_context(self):
        with pytest.raises(ValueError, match="limit is 25"):
            GenConfig(seed=1, num_theories=1, facts_per_theory=(3, 15),
                      rules_per_theory=(3, 15)).validate()

    def test_rejects_too_few_questions(self):
        with pytest.raises(ValueError, match="questions_per_theory"):
            GenConfig(seed=1, num_theories=1, max_depth=3,
                      questions_per_theory=2).validate()

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            GenConfig.from_dict({"seed": -1, "num_theories": 1})

    def test_rejects_depth_beyond_five(self):
        with pytest.raises(ValueError, match="0..5"):
            GenConfig(seed=1, num_theories=1, max_depth=6,
                      rules_per_theory=(3, 9), questions_per_theory=8).validate()


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
        import json
        from ruleproofs import reasoner
        from ruleproofs.theory import parse_theory, theory_to_record
        cfg = GenConfig(seed=14, num_theories=4, max_depth=3)
        for i in range(4):
            t = generate_theory(cfg, i)
            again = parse_theory(json.dumps(theory_to_record(t)))
            for q_before, q_after in zip(t.questions, again.questions):
                assert reasoner.prove(t, q_before) == reasoner.prove(again, q_after)
                assert q_after.gold_proofs == q_before.gold_proofs
