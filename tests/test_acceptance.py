"""Acceptance suite: one test per shipping criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -s`` to watch).
All tolerances are fixed here, not configurable.
"""

import json
import time

import numpy as np
import pytest

import oracles
from ruleproofs import decoder, reasoner
from ruleproofs.cli import run_command
from ruleproofs.datagen import GenConfig, generate_dataset, generate_theory
from ruleproofs.evalharness import PredictionRecord, aggregate_report
from ruleproofs.potentials import (
    LinearScorer,
    Potentials,
    ScorerConfig,
    adversarial_potentials,
    build_edge_mask,
    fit_linear_scorer,
    logistic_loss_and_grad,
    make_edge_training_set,
    oracle_potentials,
)
from ruleproofs.proofgraph import is_connected


def report(number, ok, detail):
    status = "pass" if ok else "FAIL"
    print(f"ACCEPTANCE {number:>2} [{status}] {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def du5_bundle():
    cfg = GenConfig(seed=42, num_theories=167, max_depth=5,
                    facts_per_theory=(3, 8), rules_per_theory=(5, 9),
                    questions_per_theory=6)
    return generate_dataset(cfg)


def all_pairs(bundle):
    return [(t, q) for split in ("train", "dev", "test")
            for t in bundle.split(split) for q in t.questions]


def all_theories(bundle):
    return [t for split in ("train", "dev", "test") for t in bundle.split(split)]


def decode_dataset(bundle, noise, base_seed, connectivity=True, adversarial=False):
    predictions = []
    results = []
    for i, (t, q) in enumerate(all_pairs(bundle)):
        gold = q.gold_proofs[0]
        if adversarial:
            pot = adversarial_potentials(t, gold)
        else:
            pot = oracle_potentials(t, gold, noise, seed=[base_seed, i])
        result = decoder.decode_with_fallback(pot, connectivity=connectivity)
        results.append(result)
        predictions.append(PredictionRecord(
            t.id, q.id, q.gold_answer, result.proof, result.connectivity_relaxed))
    return predictions, results


def test_criterion_1_reasoner_oracle_equivalence():
    start = time.perf_counter()
    theories = []
    for profile, seed in (("people", 100), ("animals", 101), ("circuits", 102)):
        cfg = GenConfig(seed=seed, num_theories=334, max_depth=3,
                        facts_per_theory=(2, 6), rules_per_theory=(2, 6),
                        questions_per_theory=5, profile=profile)
        theories.extend(generate_theory(cfg, i) for i in range(334))
    theories = theories[:1000]
    assert all(len(t.facts) <= 6 and len(t.rules) <= 6 for t in theories)

    agreements = 0
    total = 0
    for t in theories:
        c = reasoner.closure(t)
        for q in t.questions:
            total += 1
            agreements += int(
                reasoner.holds_under_cwa(t, c, q.literal)
                == oracles.naive_answer(t, q.literal))
    elapsed = time.perf_counter() - start
    report(1, agreements == total and elapsed < 60.0,
           f"answer agreement {agreements}/{total} on 1000 theories "
           f"in {elapsed:.1f}s (limit 60s)")


def test_criterion_2_ilp_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    exact = 0
    total = 0
    infeasible = 0
    while total < 500:
        num_facts = int(rng.integers(1, 5))
        num_rules = int(rng.integers(1, 4))
        size = num_facts + num_rules + 1
        node_prob = rng.random(size)
        if not (node_prob >= 0.5).any():
            node_prob[int(rng.integers(size))] = 0.9
        while (node_prob >= 0.5).sum() > 6:
            high = np.flatnonzero(node_prob >= 0.5)
            node_prob[high[-1]] = 0.25
        p = Potentials(node_prob, rng.random((size, size)), num_facts)
        oracle = oracles.brute_force_decode(p.node_prob, p.edge_prob, p.num_facts)
        total += 1
        try:
            result = decoder.decode_proof(p, connectivity=True)
        except decoder.ConnectivityInfeasible:
            infeasible += 1
            exact += int(oracle is None)
            continue
        exact += int(oracle is not None
                     and abs(result.objective - oracle[0]) <= 1e-9)
    elapsed = time.perf_counter() - start
    report(2, exact == total and elapsed < 120.0,
           f"objective matches exhaustive enumeration {exact}/{total} "
           f"({infeasible} infeasible agree too) in {elapsed:.1f}s (limit 120s)")


def test_criterion_3_oracle_closure(du5_bundle):
    n_questions = len(all_pairs(du5_bundle))
    predictions, _ = decode_dataset(du5_bundle, noise=0.0, base_seed=0)
    rep = aggregate_report(all_theories(du5_bundle), predictions, "oracle eps=0")
    perfect = all(
        row.qa == row.na == row.ea == row.pa == row.fa == 1.0 for row in rep.rows)
    report(3, perfect and n_questions >= 1000,
           f"QA=NA=EA=PA=FA=1.000 on {n_questions} questions at depths "
           + ",".join(str(r.depth) for r in rep.rows[:-1]))


def test_criterion_4_noise_monotonicity(du5_bundle):
    theories = all_theories(du5_bundle)
    pa = []
    for eps in (0.0, 0.1, 0.2, 0.4):
        predictions, _ = decode_dataset(du5_bundle, noise=eps, base_seed=7)
        pa.append(aggregate_report(theories, predictions, f"eps={eps}").all_row.pa)
    non_increasing = all(a >= b for a, b in zip(pa, pa[1:]))
    report(4, non_increasing and pa[3] < pa[0],
           "PA at eps 0/0.1/0.2/0.4 = " + "/".join(f"{x:.3f}" for x in pa))


def test_criterion_5_connectivity_ablation(du5_bundle):
    theories = all_theories(du5_bundle)
    preds_off, results_off = decode_dataset(du5_bundle, 0.0, 0,
                                            connectivity=False, adversarial=True)
    preds_on, results_on = decode_dataset(du5_bundle, 0.0, 0,
                                          connectivity=True, adversarial=True)
    disconnected = sum(
        1 for r in results_off
        if not is_connected(r.proof.nodes, r.proof.edges))
    share = disconnected / len(results_off)

    certified = 0
    for r in results_on:
        assert not r.connectivity_relaxed
        assert is_connected(r.proof.nodes, r.proof.edges)
        flow = decoder.flow_certificate(r.proof)
        assert flow is not None and decoder.verify_flow(r.proof, flow)
        anchor = r.proof.canonical_nodes()[0]
        assert flow[("source", anchor)] == float(len(r.proof.nodes))
        certified += 1

    pa_on = aggregate_report(theories, preds_on, "connectivity on").all_row.pa
    pa_off = aggregate_report(theories, preds_off, "connectivity off").all_row.pa
    report(5, share >= 0.10 and pa_on > pa_off and certified == len(results_on),
           f"{share:.0%} unconstrained optima disconnected; "
           f"PA on/off = {pa_on:.3f}/{pa_off:.3f}; "
           f"{certified} flow certificates verified")


def _corrupt(rng, theories):
    records = []
    for t in theories:
        ids = t.sentence_ids()
        for q in t.questions:
            proof = q.gold_proofs[0]
            nodes = set(proof.nodes)
            edges = set(proof.edges)
            answer = q.gold_answer
            roll = rng.random()
            if roll < 0.25:
                answer = not answer
            elif roll < 0.5 and edges:
                edges.pop()
            elif roll < 0.75:
                nodes.add(str(rng.choice(ids)))
            from ruleproofs.proofgraph import ProofGraph
            records.append(PredictionRecord(t.id, q.id, answer,
                                            ProofGraph.of(nodes, edges)))
    return records


def test_criterion_6_metric_order(du5_bundle):
    theories = all_theories(du5_bundle)
    rng = np.random.default_rng(99)
    trials = 0
    reports = []
    predictions, _ = decode_dataset(du5_bundle, noise=0.3, base_seed=3)
    reports.append(aggregate_report(theories, predictions, "noisy"))
    trials += len(predictions)
    while trials < 10_000:
        corrupted = _corrupt(rng, theories)
        reports.append(aggregate_report(theories, corrupted, "corrupted"))
        trials += len(corrupted)
    ok = True
    for rep in reports:
        for row in rep.rows:
            ok &= row.pa <= min(row.na, row.ea) + 1e-12
            ok &= row.fa <= min(row.qa, row.pa) + 1e-12
    report(6, ok, f"PA<=min(NA,EA) and FA<=min(QA,PA) row-by-row over "
                  f"{len(reports)} reports, {trials} scored examples")


def test_criterion_7_mask_correctness(du5_bundle):
    pairs = all_pairs(du5_bundle)[:1000]
    ok = 0
    for t, q in pairs:
        gold = q.gold_proofs[0]
        mask = build_edge_mask(t, gold)
        facts = sum(1 for n in gold.nodes if n.startswith("F"))
        rules = sum(1 for n in gold.nodes if n.startswith("R"))
        has_naf = "NAF" in gold.nodes
        expected = facts * rules + int(has_naf) * rules + rules * (rules - 1)
        ones = {
            (t.id_for_index(m), t.id_for_index(n))
            for m, n in zip(*np.nonzero(mask.label == 1))
        }
        ok += int(len(mask.unmasked_cells()) == expected and ones == set(gold.edges))
    report(7, ok == len(pairs),
           f"closed-form unmasked count and gold-edge reconstruction on "
           f"{ok}/{len(pairs)} proofs")


def test_criterion_8_lexical_baseline():
    bundle = generate_dataset(GenConfig(seed=11, num_theories=80, max_depth=3))
    train = make_edge_training_set(bundle.train)
    dev = make_edge_training_set(bundle.dev)
    X = np.stack([fv.to_array() for fv, _ in dev])
    y = np.array([label for _, label in dev])
    trained = fit_linear_scorer(train, ScorerConfig(0.5, 300, 0))
    untrained = LinearScorer.untrained()
    acc_trained = float(((trained.score_matrix(X) >= 0.5).astype(int) == y).mean())
    acc_untrained = float(((untrained.score_matrix(X) >= 0.5).astype(int) == y).mean())

    rng = np.random.default_rng(1)
    Xg = rng.random((60, 8))
    yg = (rng.random(60) > 0.5).astype(float)
    grad_ok = True
    for _ in range(10):
        w = rng.normal(size=9)
        _, grad = logistic_loss_and_grad(w, Xg, yg)
        h = 1e-6
        for j in range(9):
            step = np.zeros(9)
            step[j] = h
            hi, _ = logistic_loss_and_grad(w + step, Xg, yg)
            lo, _ = logistic_loss_and_grad(w - step, Xg, yg)
            numeric = (hi - lo) / (2 * h)
            grad_ok &= abs(grad[j] - numeric) <= 1e-5 * max(1.0, abs(numeric))

    margin = acc_trained - acc_untrained
    report(8, margin >= 0.10 and grad_ok,
           f"edge-label accuracy trained {acc_trained:.3f} vs untrained "
           f"{acc_untrained:.3f} (margin {margin:+.3f}, needs >= +0.100); "
           f"gradient check within 1e-5: {grad_ok}")


def test_criterion_9_critical_sentences():
    # leave-one-out is only sound without negation, so the sample comes
    # from negation-free theories (unique-proof, positive, true questions)
    eligible = []
    seed = 200
    while len(eligible) < 500:
        cfg = GenConfig(seed=seed, num_theories=60, max_depth=3, negation_rate=0.0,
                        questions_per_theory=5)
        for i in range(60):
            t = generate_theory(cfg, i)
            for q in t.questions:
                if q.gold_answer and q.literal.positive and len(q.gold_proofs) == 1:
                    eligible.append((t, q))
        seed += 1
    eligible = eligible[:500]

    covered = 0
    for t, q in eligible:
        critical = reasoner.critical_sentences(t)[t.questions.index(q)]
        fact_nodes = {n for n in q.gold_proofs[0].nodes if n.startswith("F")}
        covered += int(fact_nodes <= critical)

    # independent recomputation of leave-one-out through the oracle evaluator
    from dataclasses import replace
    agree = True
    for t, q in eligible[:60]:
        base = oracles.naive_answer(t, q.literal)
        independent = set()
        for sid in t.sentence_ids():
            ablated = replace(
                t,
                facts=tuple(f for f in t.facts if f.id != sid),
                rules=tuple(r for r in t.rules if r.id != sid),
            )
            if oracles.naive_answer(ablated, q.literal) != base:
                independent.add(sid)
        agree &= independent == reasoner.critical_sentences(t)[t.questions.index(q)]

    report(9, covered == 500 and agree,
           f"unique-proof fact nodes critical for {covered}/500 questions; "
           f"independent leave-one-out agreement on 60/60 spot checks: {agree}")


def test_criterion_10_determinism(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "num_theories": 20, "max_depth": 3, "negation_rate": 0.3,
        "questions_per_theory": 6, "profile": "people", "seed": 0,
    }))
    digests = []
    for run in ("first", "second"):
        base = tmp_path / run
        data = base / "data"
        assert run_command(["generate", "--config", str(config), "--seed", "13",
                            "-o", str(data)]) == 0
        test_file = data / "test.theories.jsonl"
        pots = base / "pots.jsonl"
        preds = base / "preds.jsonl"
        labels = base / "labels.jsonl"
        rep = base / "report.json"
        assert run_command(["oracle-potentials", "--seed", "5", "--noise", "0.2",
                            str(test_file), "-o", str(pots)]) == 0
        assert run_command(["decode", "--theories", str(test_file), str(pots),
                            "-o", str(preds)]) == 0
        assert run_command(["mask-export", str(test_file), "-o", str(labels)]) == 0
        assert run_command(["eval", "--theories", str(test_file), str(preds),
                            "--json", str(rep), "-o", str(base / "report.txt")]) == 0
        digests.append(tuple(
            path.read_bytes()
            for path in (data / "train.theories.jsonl", data / "dev.theories.jsonl",
                         test_file, data / "manifest.json", pots, preds, labels, rep)
        ))
    report(10, digests[0] == digests[1],
           "dataset, potentials, predictions, labels, and report files are "
           "byte-identical across reruns")
