import json
import re

import numpy as np
import pytest
from test_pipeline_bytes import STAGES

from ruleproofs.cli import run_command
from ruleproofs.datagen import GenConfig, generate_dataset
from ruleproofs.evalharness import (
    EvaluationError,
    PredictionRecord,
    aggregate_report,
    read_predictions,
    score_example,
)
from ruleproofs.proofgraph import ProofGraph
from ruleproofs.theory import Literal, Theory, make_fact, make_question


def gold_question(proofs, answer=True):
    return make_question("Q1", Literal("alan", "blue"), gold_answer=answer,
                         gold_proofs=tuple(proofs), gold_depth=0)


def prediction(proof, answer=True):
    return PredictionRecord("t", "Q1", answer, proof)


P1 = ProofGraph.of(["F1", "R1"], [("F1", "R1")])
P2 = ProofGraph.of(["F2", "R2"], [("F2", "R2")])


class TestScoreExample:
    def test_perfect(self):
        s = score_example(gold_question([P1]), prediction(P1))
        assert (s.qa, s.na, s.ea, s.pa, s.fa) == (True, True, True, True, True)

    def test_any_gold_credit(self):
        s = score_example(gold_question([P1, P2]), prediction(P2))
        assert s.pa and s.fa

    def test_correct_proof_wrong_answer(self):
        s = score_example(gold_question([P1], answer=True), prediction(P1, answer=False))
        assert s.pa is True and s.qa is False and s.fa is False

    def test_wrong_proof_correct_answer(self):
        s = score_example(gold_question([P1]), prediction(P2))
        assert s.qa is True and s.pa is False and s.fa is False

    def test_missing_gold_is_an_error(self):
        q = make_question("Q1", Literal("alan", "blue"))
        with pytest.raises(EvaluationError):
            score_example(q, prediction(P1))


def perfect_predictions(theories):
    return [
        PredictionRecord(t.id, q.id, q.gold_answer, q.gold_proofs[0])
        for t in theories
        for q in t.questions
    ]


def corrupt(rng, theories):
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
                nodes.add(rng.choice(ids))
            records.append(PredictionRecord(t.id, q.id, answer, ProofGraph.of(nodes, edges)))
    return records


def assert_metric_order(report):
    for row in report.rows:
        assert row.pa <= min(row.na, row.ea) + 1e-12
        assert row.fa <= min(row.qa, row.pa) + 1e-12
        for rate in (row.qa, row.na, row.ea, row.pa, row.fa):
            assert 0.0 <= rate <= 1.0


@pytest.fixture(scope="module")
def bundle():
    return generate_dataset(GenConfig(seed=21, num_theories=10, max_depth=3))


class TestAggregateReport:

    def test_perfect_predictions_score_one(self, bundle):
        report = aggregate_report(bundle.test, perfect_predictions(bundle.test))
        for row in report.rows:
            assert (row.qa, row.na, row.ea, row.pa, row.fa) == (1.0, 1.0, 1.0, 1.0, 1.0)

    def test_all_row_count_is_total(self, bundle):
        report = aggregate_report(bundle.test, perfect_predictions(bundle.test))
        assert report.all_row.count == sum(r.count for r in report.rows[:-1])

    def test_metric_order_on_corrupted(self, bundle):
        rng = np.random.default_rng(3)
        for _ in range(20):
            report = aggregate_report(bundle.test, corrupt(rng, bundle.test))
            assert_metric_order(report)

    def test_reference_aggregate_satisfies_order(self):
        # the shape every valid report must have, checked on typical values
        qa, na, ea, pa, fa = 0.993, 0.892, 0.875, 0.871, 0.871
        assert fa <= min(qa, pa) and pa <= min(na, ea)

    def test_missing_prediction_rejected(self, bundle):
        *preds, last = perfect_predictions(bundle.test)
        with pytest.raises(EvaluationError, match=re.escape(
                f"missing prediction for {last.theory_id}/{last.question_id}")):
            aggregate_report(bundle.test, preds)

    def test_duplicate_prediction_rejected(self, bundle):
        preds = perfect_predictions(bundle.test)
        with pytest.raises(EvaluationError, match=re.escape(
                f"duplicate prediction for {preds[0].theory_id}/{preds[0].question_id}")):
            aggregate_report(bundle.test, preds + [preds[0]])

    def test_unknown_question_rejected(self, bundle):
        preds = perfect_predictions(bundle.test)
        preds[0] = PredictionRecord("nope", "Q1", True, P1)
        with pytest.raises(EvaluationError, match="prediction for unknown question nope/Q1$"):
            aggregate_report(bundle.test, preds)

    def test_unknown_prediction_node_named_in_sorted_order(self, bundle):
        preds = perfect_predictions(bundle.test)
        first = preds[0]
        preds[0] = PredictionRecord(first.theory_id, first.question_id, True,
                                    ProofGraph.of(["Fz", "NAF", "Fy", "R99", "F1"]))
        with pytest.raises(EvaluationError, match="references unknown sentence Fy$"):
            aggregate_report(bundle.test, preds)

    def test_questions_without_gold_are_skipped_and_counted(self):
        t = Theory(
            "t",
            (make_fact("F1", Literal("alan", "blue")),),
            (),
            (make_question("Q1", Literal("alan", "blue"), gold_answer=True,
                           gold_proofs=(ProofGraph.of(["F1"]),), gold_depth=0),
             make_question("Q2", Literal("alan", "rough"))),
        )
        report = aggregate_report([t], [PredictionRecord("t", "Q1", True, ProofGraph.of(["F1"]))])
        assert report.skipped_no_gold == 1
        assert report.all_row.count == 1
        with pytest.raises(EvaluationError, match="^no scorable questions$"):
            aggregate_report([Theory("t", t.facts, (), t.questions[1:])], [])

    def test_report_does_not_depend_on_record_order(self, bundle):
        rng = np.random.default_rng(5)
        theories = list(bundle.test)
        predictions = corrupt(rng, theories)
        report = aggregate_report(theories, predictions)
        assert len(report.rows) > 2 and report.all_row.pa < 1.0
        for _ in range(5):
            shuffled = aggregate_report([theories[i] for i in rng.permutation(len(theories))],
                                        [predictions[i] for i in rng.permutation(len(predictions))])
            assert shuffled.to_dict() == report.to_dict()
            assert shuffled.to_text() == report.to_text()

    def test_text_table_shape(self, bundle):
        report = aggregate_report(bundle.test, perfect_predictions(bundle.test),
                                  label="demo")
        text = report.to_text()
        assert text.splitlines()[0].startswith("# demo")
        assert text.splitlines()[1].split() == ["D", "Cnt", "QA", "NA", "EA", "PA", "FA"]
        assert text.splitlines()[-1].startswith(" All")

    def test_round_trip_via_jsonl(self, bundle, tmp_path):
        preds = perfect_predictions(bundle.test)
        path = tmp_path / "preds.jsonl"
        with open(path, "w") as fp:
            for p in preds:
                fp.write(json.dumps(p.to_dict()) + "\n")
        with open(path) as fp:
            again = read_predictions(fp)
        assert again == preds


def test_decoded_rows_of_the_pinned_pipeline_read_back_as_themselves(tmp_path):
    """``decode`` writes each row with ``PredictionRecord.to_dict``, so every
    row of the pinned pipeline's predictions round-trips, objective included."""
    fill = {"out": str(tmp_path), "test": str(tmp_path / "data" / "test.theories.jsonl")}
    for output, argv in STAGES:
        argv = [arg.format(**fill) for arg in argv]
        if output != "data":
            argv += ["-o", str(tmp_path / output)]
        assert run_command(argv) == 0, argv
    files = sorted(tmp_path.glob("*.preds.jsonl"))
    assert {f.name for f in files} == {o for o, _ in STAGES if o.endswith(".preds.jsonl")}
    for path in files:
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows and all("objective" in row for row in rows)
        assert [PredictionRecord.from_dict(row).to_dict() for row in rows] == rows, path.name
