"""Exact-match scoring of predictions against gold questions.

Five per-example flags: answer accuracy (QA), node/edge/proof exact
match against any gold proof (NA/EA/PA), and full accuracy (FA = answer
and proof both right). Reports bucket examples by gold depth, taking the
maximum depth over a question's gold proofs, and always satisfy
PA <= min(NA, EA) and FA <= min(QA, PA) row by row.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Optional

from .proofgraph import ProofGraph, match_proofs, proof_depth
from .theory import Question, Theory, record_error


class EvaluationError(ValueError):
    """Prediction file disagrees with the dataset (ids, duplicates)."""


@dataclass(frozen=True)
class PredictionRecord:
    theory_id: str
    question_id: str
    answer: bool
    proof: ProofGraph
    connectivity_relaxed: bool = False

    def to_dict(self) -> dict:
        d = self.proof.to_dict()
        return {
            "theory_id": self.theory_id,
            "question_id": self.question_id,
            "answer": self.answer,
            "nodes": d["nodes"],
            "edges": d["edges"],
            "connectivity_relaxed": self.connectivity_relaxed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PredictionRecord":
        for key in ("theory_id", "question_id"):
            if not isinstance(d[key], str):
                raise TypeError(f"{key} must be a string, got {d[key]!r}")
        relaxed = d.get("connectivity_relaxed", False)
        for key, value in (("answer", d["answer"]), ("connectivity_relaxed", relaxed)):
            if not isinstance(value, bool):
                raise TypeError(f"{key} must be a JSON boolean, got {value!r}")
        return cls(
            d["theory_id"],
            d["question_id"],
            d["answer"],
            ProofGraph.from_dict(d),
            relaxed,
        )


@dataclass(frozen=True)
class ExampleScore:
    qa: bool
    na: bool
    ea: bool
    pa: bool
    fa: bool


def score_example(gold: Question, pred: PredictionRecord) -> ExampleScore:
    """Per-example flags; proof credit goes to a match with any one gold."""
    if gold.gold_answer is None or not gold.gold_proofs:
        raise EvaluationError(f"question {gold.id} lacks a gold answer or proofs")
    qa = pred.answer == gold.gold_answer
    na, ea, pa = match_proofs(pred.proof, list(gold.gold_proofs))
    return ExampleScore(qa, na, ea, pa, qa and pa)


@dataclass(frozen=True)
class ReportRow:
    depth: Optional[int]  # None for the All row
    count: int
    qa: float
    na: float
    ea: float
    pa: float
    fa: float


@dataclass(frozen=True)
class Report:
    label: str
    bucketing: str
    skipped_no_gold: int
    rows: tuple[ReportRow, ...]

    @property
    def all_row(self) -> ReportRow:
        return self.rows[-1]

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "bucketing": self.bucketing,
            "skipped_no_gold": self.skipped_no_gold,
            "rows": [
                {
                    "depth": "All" if r.depth is None else r.depth,
                    "count": r.count,
                    "qa": r.qa, "na": r.na, "ea": r.ea, "pa": r.pa, "fa": r.fa,
                }
                for r in self.rows
            ],
        }

    def to_text(self) -> str:
        header = f"# {self.label} | bucketing: {self.bucketing}"
        if self.skipped_no_gold:
            header += f" | skipped (no gold proofs): {self.skipped_no_gold}"
        lines = [header, f"{'D':>4} {'Cnt':>6} {'QA':>6} {'NA':>6} {'EA':>6} {'PA':>6} {'FA':>6}"]
        for r in self.rows:
            depth = "All" if r.depth is None else str(r.depth)
            lines.append(
                f"{depth:>4} {r.count:>6} "
                f"{100 * r.qa:>6.1f} {100 * r.na:>6.1f} {100 * r.ea:>6.1f} "
                f"{100 * r.pa:>6.1f} {100 * r.fa:>6.1f}"
            )
        return "\n".join(lines) + "\n"


def _mean_row(depth: Optional[int], scores: list[ExampleScore]) -> ReportRow:
    n = len(scores)
    return ReportRow(
        depth,
        n,
        sum(s.qa for s in scores) / n,
        sum(s.na for s in scores) / n,
        sum(s.ea for s in scores) / n,
        sum(s.pa for s in scores) / n,
        sum(s.fa for s in scores) / n,
    )


def aggregate_report(
    theories: Iterable[Theory],
    predictions: Iterable[PredictionRecord],
    label: str = "default",
) -> Report:
    """Join predictions to questions and average the per-example flags.

    Exactly one prediction per scorable question is required; questions
    without gold proofs are skipped and counted instead of failing.
    """
    theories = list(theories)
    question_index: dict[tuple[str, str], tuple[Theory, Question]] = {}
    for t in theories:
        for q in t.questions:
            question_index[(t.id, q.id)] = (t, q)

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
    everything: list[ExampleScore] = []
    for key, (t, q) in question_index.items():
        if q.gold_answer is None or not q.gold_proofs:
            by_key.pop(key, None)
            skipped += 1
            continue
        if key not in by_key:
            raise EvaluationError(f"missing prediction for {key[0]}/{key[1]}")
        pred = by_key.pop(key)
        unknown = t.unknown_ids(chain(pred.proof.nodes, *pred.proof.edges))
        if unknown:
            raise EvaluationError(
                f"prediction for {key[0]}/{key[1]} references unknown sentence {unknown[0]}")
        score = score_example(q, pred)
        if q.gold_depth is not None:
            depth = q.gold_depth
        else:
            depth = max(proof_depth(p) for p in q.gold_proofs)
        buckets.setdefault(depth, []).append(score)
        everything.append(score)

    if not everything:
        raise EvaluationError("no scorable questions")
    rows = [_mean_row(d, buckets[d]) for d in sorted(buckets)]
    rows.append(_mean_row(None, everything))
    return Report(label, "max gold proof depth", skipped, tuple(rows))


def read_predictions(fp) -> list[PredictionRecord]:
    records = []
    for line_no, line in enumerate(fp, start=1):
        if not line.strip():
            continue
        try:
            records.append(PredictionRecord.from_dict(json.loads(line)))
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise EvaluationError(
                f"bad prediction record on line {line_no}: {record_error(exc)}") from exc
    return records
