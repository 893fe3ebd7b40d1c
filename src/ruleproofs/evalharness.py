"""Exact-match scoring of predictions against gold questions.

``METRICS`` names the five per-example flags once: answer accuracy
(QA), node/edge/proof exact match against any gold proof (NA/EA/PA), and
full accuracy (FA = answer and proof both right). ``ExampleScore``,
``ReportRow`` and both renderings of a ``Report`` are built from it.
Reports bucket examples by gold depth, taking the maximum depth over a
question's gold proofs, and always satisfy PA <= min(NA, EA) and
FA <= min(QA, PA) row by row. ``read_predictions`` reads a predictions
file through ``theory.read_records``.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from itertools import chain
from typing import ClassVar, Iterable, Optional

from .proofgraph import ProofGraph, match_proofs, proof_depth
from .theory import Question, Theory, json_object, read_records, string_field


METRICS = ("qa", "na", "ea", "pa", "fa")


class EvaluationError(ValueError):
    """Prediction file disagrees with the dataset (ids, duplicates)."""


@dataclass(frozen=True, slots=True)  # eval keeps one per question
class PredictionRecord:
    theory_id: str
    question_id: str
    answer: bool
    proof: ProofGraph
    connectivity_relaxed: bool = False
    objective: Optional[float] = None  # the decoder's score, when a decoder wrote it

    def to_dict(self) -> dict:
        d = self.proof.to_dict()
        row = {
            "theory_id": self.theory_id,
            "question_id": self.question_id,
            "answer": self.answer,
            "nodes": d["nodes"],
            "edges": d["edges"],
        }
        if self.objective is not None:
            row["objective"] = self.objective
        row["connectivity_relaxed"] = self.connectivity_relaxed
        return row

    @classmethod
    def from_dict(cls, d: dict) -> "PredictionRecord":
        for key in ("theory_id", "question_id"):
            string_field(d[key], key)
        relaxed = d.get("connectivity_relaxed", False)
        for key, value in (("answer", d["answer"]), ("connectivity_relaxed", relaxed)):
            if not isinstance(value, bool):
                raise TypeError(f"{key} must be a JSON boolean, got {value!r}")
        objective = d.get("objective")
        if "objective" in d and type(objective) not in (int, float):
            raise TypeError(f"objective must be a JSON number, got {objective!r}")
        return cls(
            d["theory_id"],
            d["question_id"],
            d["answer"],
            ProofGraph.from_dict(d),
            relaxed,
            objective,
        )


ExampleScore = namedtuple("ExampleScore", METRICS)


def score_example(gold: Question, pred: PredictionRecord) -> ExampleScore:
    """Per-example flags; proof credit goes to a match with any one gold."""
    if gold.gold_answer is None or not gold.gold_proofs:
        raise EvaluationError(f"question {gold.id} lacks a gold answer or proofs")
    qa = pred.answer == gold.gold_answer
    na, ea, pa = match_proofs(pred.proof, list(gold.gold_proofs))
    return ExampleScore(qa, na, ea, pa, qa and pa)


ReportRow = namedtuple("ReportRow", ("depth", "count") + METRICS)  # depth None for the All row


@dataclass(frozen=True)
class Report:
    label: str
    skipped_no_gold: int
    rows: tuple[ReportRow, ...]
    bucketing: ClassVar[str] = "max gold proof depth"

    @property
    def all_row(self) -> ReportRow:
        return self.rows[-1]

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "bucketing": self.bucketing,
            "skipped_no_gold": self.skipped_no_gold,
            "rows": [{**r._asdict(), "depth": "All" if r.depth is None else r.depth}
                     for r in self.rows],
        }

    def to_text(self) -> str:
        header = f"# {self.label} | bucketing: {self.bucketing}"
        if self.skipped_no_gold:
            header += f" | skipped (no gold proofs): {self.skipped_no_gold}"
        lines = [header,
                 " ".join([f"{'D':>4}", f"{'Cnt':>6}", *(f"{m.upper():>6}" for m in METRICS)])]
        for r in self.rows:
            depth = "All" if r.depth is None else str(r.depth)
            lines.append(" ".join([f"{depth:>4}", f"{r.count:>6}",
                                   *(f"{100 * getattr(r, m):>6.1f}" for m in METRICS)]))
        return "\n".join(lines) + "\n"


def _mean_row(depth: Optional[int], scores: list[ExampleScore]) -> ReportRow:
    n = len(scores)
    return ReportRow(depth, n, *(sum(column) / n for column in zip(*scores)))


def aggregate_report(
    theories: Iterable[Theory],
    predictions: Iterable[PredictionRecord],
    label: str = "default",
) -> Report:
    """Join predictions to questions and average the per-example flags.

    Exactly one prediction per scorable question is required; questions
    without gold proofs are skipped and counted instead of failing.
    """
    question_index = {(t.id, q.id): (t, q) for t in theories for q in t.questions}
    by_key: dict[tuple[str, str], PredictionRecord] = {}
    for pred in predictions:
        key = (pred.theory_id, pred.question_id)
        if key in by_key:
            raise EvaluationError(f"duplicate prediction for {key[0]}/{key[1]}")
        if key not in question_index:
            raise EvaluationError(f"prediction for unknown question {key[0]}/{key[1]}")
        by_key[key] = pred

    skipped = 0
    buckets: dict[int, list[ExampleScore]] = {}
    for key, (t, q) in question_index.items():
        if q.gold_answer is None or not q.gold_proofs:
            skipped += 1
            continue
        pred = by_key.get(key)
        if pred is None:
            raise EvaluationError(f"missing prediction for {key[0]}/{key[1]}")
        unknown = t.unknown_ids(chain(pred.proof.nodes, *pred.proof.edges))
        if unknown:
            raise EvaluationError(
                f"prediction for {key[0]}/{key[1]} references unknown sentence {unknown[0]}")
        depth = q.gold_depth if q.gold_depth is not None else \
            max(proof_depth(p) for p in q.gold_proofs)
        buckets.setdefault(depth, []).append(score_example(q, pred))

    if not buckets:
        raise EvaluationError("no scorable questions")
    depths = sorted(buckets)
    rows = [_mean_row(d, buckets[d]) for d in depths]
    rows.append(_mean_row(None, [s for d in depths for s in buckets[d]]))
    return Report(label, skipped, tuple(rows))


def read_predictions(fp) -> list[PredictionRecord]:
    """Every prediction of a JSONL file, read by ``theory.read_records``: a
    question is predicted once per file."""
    return list(read_records(fp, "prediction",
                             lambda line: PredictionRecord.from_dict(json_object(line)),
                             lambda p: f"question {p.theory_id}/{p.question_id}"))
