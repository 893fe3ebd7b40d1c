import numpy as np
import pytest

import oracles
from ruleproofs import decoder
from ruleproofs.datagen import GenConfig, generate_theory
from ruleproofs.potentials import (
    MASKED,
    FeatureVector,
    LinearScorer,
    ScorerConfig,
    ScorerError,
    allowed_pairs,
    build_edge_mask,
    edge_training_pairs,
    fit_linear_scorer,
    lexical_edge_features,
    logistic_loss_and_grad,
    make_edge_training_set,
    naf_prior,
    node_labels,
    oracle_potentials,
    scorer_potentials,
    sentence_tokens,
)
from ruleproofs.proofgraph import ProofGraph
from ruleproofs.theory import Literal, Theory, layout_ids, make_fact, make_question, make_rule


def labeled_theory():
    t = Theory(
        "t",
        (make_fact("F1", Literal("alan", "blue")),
         make_fact("F2", Literal("alan", "rough"))),
        (make_rule("R1", [Literal("someone", "blue")], Literal("someone", "cold")),
         make_rule("R2", [Literal("someone", "cold"), Literal("someone", "rough")],
                   Literal("someone", "young"))),
        (),
    )
    gold = ProofGraph.of(
        ["F1", "F2", "R1", "R2"],
        [("F1", "R1"), ("R1", "R2"), ("F2", "R2")],
    )
    return t, gold


def unmasked_cells(label):
    return [(m, n) for m, row in enumerate(label) for n, cell in enumerate(row) if cell != MASKED]


def generated_golds(count, seed=3, max_depth=3):
    cfg = GenConfig(seed=seed, num_theories=count, max_depth=max_depth)
    out = []
    for i in range(count):
        t = generate_theory(cfg, i)
        for q in t.questions:
            out.append((t, q.gold_proofs[0]))
    return out


class TestEdgeMask:
    def test_counting_formula_small(self):
        t, gold = labeled_theory()
        # 2 gold facts, 2 gold rules, no NAF: 2*2 + 0 + 2*1 = 6 unmasked
        assert len(unmasked_cells(build_edge_mask(t, gold))) == 6

    def test_five_node_example_with_naf(self):
        t = Theory(
            "t",
            (make_fact("F1", Literal("alan", "blue")),
             make_fact("F2", Literal("alan", "rough"))),
            (make_rule("R1", [Literal("someone", "blue"),
                              Literal("someone", "cold", positive=False)],
                       Literal("someone", "green")),
             make_rule("R2", [Literal("someone", "green"), Literal("someone", "rough")],
                       Literal("someone", "young"))),
            (),
        )
        gold = ProofGraph.of(
            ["F1", "F2", "R1", "R2", "NAF"],
            [("F1", "R1"), ("NAF", "R1"), ("R1", "R2"), ("F2", "R2")],
        )
        assert len(unmasked_cells(build_edge_mask(t, gold))) == 2 * 2 + 2 + 2 * 1  # == 8

    def test_two_node_example(self):
        t = Theory(
            "t",
            (make_fact("F1", Literal("alan", "blue")),),
            (make_rule("R1", [Literal("someone", "blue")], Literal("someone", "young")),),
            (),
        )
        gold = ProofGraph.of(["F1", "R1"], [("F1", "R1")])
        label = build_edge_mask(t, gold)
        assert unmasked_cells(label) == [(0, 1)]
        assert label == [[MASKED, 1, MASKED], [MASKED] * 3, [MASKED] * 3]
        assert type(label[0][1]) is int  # a bool cell would be written as true

    def test_diagonal_always_masked(self):
        for t, gold in generated_golds(8):
            label = build_edge_mask(t, gold)
            assert all(label[i][i] == MASKED for i in range(len(label)))

    def test_ones_reproduce_gold_edges(self):
        for t, gold in generated_golds(8):
            label = build_edge_mask(t, gold)
            ids = layout_ids(len(t.facts), t.num_sentences + 1)
            ones = {(ids[m], ids[n]) for m, row in enumerate(label)
                    for n, cell in enumerate(row) if cell == 1}
            assert ones == set(gold.edges)

    def test_counting_formula_on_generated_proofs(self):
        for t, gold in generated_golds(10):
            label = build_edge_mask(t, gold)
            facts = sum(1 for n in gold.nodes if n.startswith("F"))
            rules = sum(1 for n in gold.nodes if n.startswith("R"))
            has_naf = "NAF" in gold.nodes
            expected = facts * rules + int(has_naf) * rules + rules * (rules - 1)
            assert len(unmasked_cells(label)) == expected

    def test_mask_agrees_with_decoder_constraints(self):
        # a cell is unmasked exactly when the decoder may set it to 1
        for t, gold in generated_golds(10):
            label = build_edge_mask(t, gold)
            selected = sorted(t.sentence_index(n) for n in gold.nodes)
            allowed = set(decoder.allowed_pairs(selected, len(t.facts),
                                                t.num_sentences + 1))
            assert set(unmasked_cells(label)) == allowed

    def test_node_labels(self):
        t, gold = labeled_theory()
        assert node_labels(t, gold) == [1, 1, 1, 1, 0]

    def test_unknown_gold_ids_rejected(self):
        t, _ = labeled_theory()
        with pytest.raises(KeyError):
            build_edge_mask(t, ProofGraph.of(["F9", "R1"], [("F9", "R1")]))


class TestOraclePotentials:
    def test_zero_noise_gives_indicators(self):
        t, gold = labeled_theory()
        p = oracle_potentials(t, gold, 0.0, seed=1)
        assert p.node_prob == [1.0, 1.0, 1.0, 1.0, 0.0]
        assert p.edge_prob[0][2] == 1.0 and p.edge_prob[2][3] == 1.0
        assert sum(map(sum, p.edge_prob)) == 3.0

    def test_zero_noise_decodes_to_gold(self):
        for t, gold in generated_golds(10):
            p = oracle_potentials(t, gold, 0.0, seed=1)
            result = decoder.decode_proof(p)
            assert result.proof == gold

    def test_zero_noise_ignores_the_seed(self):
        for t, gold in generated_golds(5):
            reference = oracle_potentials(t, gold, 0.0, seed=0)
            for seed in (1, [9, 4], 2**40):
                p = oracle_potentials(t, gold, 0.0, seed=seed)
                assert p.node_prob == reference.node_prob
                assert p.edge_prob == reference.edge_prob

    def test_fixed_seed_is_deterministic(self):
        t, gold = labeled_theory()
        a = oracle_potentials(t, gold, 0.3, seed=7)
        b = oracle_potentials(t, gold, 0.3, seed=7)
        assert a.node_prob == b.node_prob
        assert a.edge_prob == b.edge_prob

    def test_noise_bounds(self):
        t, gold = labeled_theory()
        for bad in (-0.1, 0.5, 1.0):
            with pytest.raises(ValueError):
                oracle_potentials(t, gold, bad, seed=1)

    def test_probabilities_stay_valid(self):
        t, gold = labeled_theory()
        p = oracle_potentials(t, gold, 0.49, seed=3)
        assert all(0 <= v <= 1 for v in p.node_prob)
        assert all(0 <= v <= 1 for row in p.edge_prob for v in row)


class TestLexicalFeatures:
    def test_identical_sentences(self):
        t = Theory(
            "t",
            (),
            (make_rule("R1", [Literal("someone", "blue")], Literal("someone", "young")),
             make_rule("R2", [Literal("someone", "blue")], Literal("someone", "cold"))),
            (),
        )
        fv = lexical_edge_features(sentence_tokens(t), "R1", "R1")
        assert fv.unigram_jaccard == 1.0
        assert fv.bigram_jaccard == 1.0
        assert fv.normalized_length_difference == 0.0

    def test_fact_rule_overlap_value(self):
        # "Alan is blue." vs "If someone is blue then they are young."
        t = Theory(
            "t",
            (make_fact("F1", Literal("alan", "blue")),),
            (make_rule("R1", [Literal("someone", "blue")], Literal("someone", "young")),),
            (),
        )
        fv = lexical_edge_features(sentence_tokens(t), "F1", "R1")
        assert fv.unigram_jaccard == pytest.approx(2 / 9)
        assert fv.fact_to_rule and not fv.rule_to_rule and not fv.naf_to_rule

    def test_naf_source(self):
        t = Theory(
            "t", (),
            (make_rule("R1", [Literal("someone", "blue")], Literal("someone", "young")),),
            (),
        )
        fv = lexical_edge_features(sentence_tokens(t), "NAF", "R1")
        assert fv.unigram_jaccard == 0.0
        assert fv.naf_to_rule and not fv.fact_to_rule
        assert fv.normalized_length_difference == 1.0

    def test_negation_flags(self):
        t = Theory(
            "t",
            (make_fact("F1", Literal("alan", "kind", None, False)),),
            (make_rule("R1", [Literal("someone", "kind", None, False)],
                       Literal("someone", "quiet")),),
            (),
        )
        fv = lexical_edge_features(sentence_tokens(t), "F1", "R1")
        assert fv.source_has_negation and fv.target_has_negation

    def test_target_must_be_rule(self):
        t, _ = labeled_theory()
        with pytest.raises(ValueError):
            lexical_edge_features(sentence_tokens(t), "R1", "F1")

    def test_token_map_features_equal_per_cell_tokenizing(self):
        cfg = GenConfig(seed=5, num_theories=12, max_depth=3)
        cells = 0
        for t in (generate_theory(cfg, i) for i in range(cfg.num_theories)):
            tokens = sentence_tokens(t)
            size = t.num_sentences + 1
            ids = layout_ids(len(t.facts), size)
            every = allowed_pairs(list(range(size)), len(t.facts), size)
            for q in t.questions:
                gold = q.gold_proofs[0]
                selected = sorted(t.sentence_index(n) for n in gold.nodes)
                for m, n in allowed_pairs(selected, len(t.facts), size) + every:
                    assert lexical_edge_features(tokens, ids[m], ids[n]) \
                        == oracles.cell_features(t, ids[m], ids[n])
                    cells += 1
        assert cells > 1000


class TestLinearScorer:
    def test_zero_epochs_keeps_initialization(self):
        train = [(FeatureVector(1, 1, 0, False, False, True, False, False), 1)]
        scorer = fit_linear_scorer(train, ScorerConfig(epochs=0))
        assert (scorer.weights == 0).all()
        assert scorer.score(train[0][0]) == 0.5

    def test_empty_training_set_rejected(self):
        with pytest.raises(ScorerError, match="empty training set"):
            fit_linear_scorer([])

    def test_loss_decreases_on_separable_data(self):
        pos = FeatureVector(0.9, 0.8, 0.1, False, False, True, False, False)
        neg = FeatureVector(0.1, 0.0, 0.9, False, False, False, True, False)
        train = [(pos, 1), (neg, 0)] * 10
        X = np.array([fv for fv, _ in train], dtype=float)
        y = np.array([label for _, label in train], dtype=float)
        losses = []
        for epochs in (0, 5, 25, 125):
            scorer = fit_linear_scorer(train, ScorerConfig(0.5, epochs, 0))
            loss, _ = logistic_loss_and_grad(scorer.weights, X, y)
            losses.append(loss)
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(0)
        X = rng.random((40, 8))
        y = (rng.random(40) > 0.5).astype(float)
        for _ in range(5):
            w = rng.normal(size=9)
            _, grad = logistic_loss_and_grad(w, X, y)
            h = 1e-6
            for j in range(9):
                step = np.zeros(9)
                step[j] = h
                hi, _ = logistic_loss_and_grad(w + step, X, y)
                lo, _ = logistic_loss_and_grad(w - step, X, y)
                numeric = (hi - lo) / (2 * h)
                assert abs(grad[j] - numeric) <= 1e-5 * max(1.0, abs(numeric))

    def test_round_trip_serialization(self):
        train = make_edge_training_set(
            [t for t, _ in generated_golds(4)][:4])
        scorer = fit_linear_scorer(train, ScorerConfig(0.5, 20, 0))
        again = LinearScorer.from_dict(scorer.to_dict())
        assert (again.weights == scorer.weights).all()

    def test_trained_beats_untrained_on_held_out(self):
        cfg = GenConfig(seed=11, num_theories=40, max_depth=3)
        theories = [generate_theory(cfg, i) for i in range(40)]
        train = make_edge_training_set(theories[:32])
        dev = make_edge_training_set(theories[32:])
        trained = fit_linear_scorer(train, ScorerConfig(0.5, 300, 0))
        untrained = LinearScorer.untrained()
        acc_trained = np.mean([(trained.score(fv) >= 0.5) == label for fv, label in dev])
        acc_untrained = np.mean([(untrained.score(fv) >= 0.5) == label for fv, label in dev])
        assert acc_trained > acc_untrained

    def test_training_pairs_match_unmasked_cells(self):
        t, gold = labeled_theory()
        q = make_question("Q1", Literal("alan", "young"), gold_answer=True,
                          gold_proofs=(gold,), gold_depth=2)
        t = Theory(t.id, t.facts, t.rules, (q,))
        pairs = edge_training_pairs(t, q)
        assert len(pairs) == 6
        assert ("F1", "R1", 1) in pairs and ("F2", "R1", 0) in pairs


class TestScorerPotentials:
    def test_naf_prior_counts_negative_antecedents(self):
        t = Theory(
            "t", (),
            (make_rule("R1", [Literal("someone", "blue"),
                              Literal("someone", "cold", positive=False)],
                       Literal("someone", "young")),
             make_rule("R2", [Literal("someone", "rough")], Literal("someone", "quiet"))),
            (),
        )
        assert naf_prior(t) == pytest.approx(1 / 3)

    def test_runnable_potentials_shape(self):
        t, _ = labeled_theory()
        scorer = LinearScorer.untrained()
        p = scorer_potentials(t, scorer)
        assert p.size == t.num_sentences + 1
        assert p.node_prob[-1] == naf_prior(t)
        assert all(row[0] == 0 for row in p.edge_prob)  # nothing points into a fact
