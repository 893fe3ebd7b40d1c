"""Batch command line over JSONL streams.

Every subcommand reads and writes the line-delimited formats of the
library modules, defaulting to stdin/stdout so commands can be piped:

    ruleproofs generate --config du3.json --seed 7 -o data/
    ruleproofs oracle-potentials --seed 1 --noise 0 data/test.theories.jsonl |
        ruleproofs decode --theories data/test.theories.jsonl |
        ruleproofs eval --theories data/test.theories.jsonl

Exit codes: 0 success, 1 usage error, 2 data/schema or I/O error, 3
internal invariant violation. Theories, potentials and predictions are
read by ``theory.read_records``: a bad line exits 2 with "bad <kind>
record on line N: <detail>", a repeated theory id or question naming
both lines, and leaves no output.

A theory is compiled only to answer one of its questions, so a theory
with no questions, even one with a cycle through negation, gives no rows
and no error; with a question, such a theory exits 2.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Optional

from . import datagen, decoder, evalharness, potentials, reasoner, proofgraph, theory as theory_mod

USAGE_ERROR = 1
DATA_ERROR = 2
INTERNAL_ERROR = 3


_FILE_ID = re.compile(r"[A-Za-z0-9_-]+")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@contextmanager
def _open(path: Optional[str], mode: str):
    """The file at ``path`` opened in ``mode``; for None or "-", standard
    input ("r") or output ("w"), yielded but never closed."""
    if path in (None, "-"):
        yield sys.stdin if mode == "r" else sys.stdout
    else:
        with open(path, mode, encoding="utf-8") as fp:
            yield fp


def _write_rows(path: Optional[str], rows: Iterable[dict]) -> None:
    """Write one JSON object per line. The output is opened before the
    first row is drawn, so a list keeps a data error from leaving a file."""
    with _open(path, "w") as fp:
        for row in rows:
            fp.write(json.dumps(row) + "\n")


def _load_json(path: str, error: type[Exception]):
    """The JSON value of a whole file; ``error`` on nesting too deep to read."""
    with open(path, "r", encoding="utf-8") as fp:
        try:
            return json.load(fp)
        except RecursionError:
            raise error(f"{path}: JSON nested too deeply to read") from None


def _load_theories(path: Optional[str]) -> list[theory_mod.Theory]:
    with _open(path, "r") as fp:
        return list(theory_mod.read_theories(fp))


def _int_at_least(low: int):
    def integer(text: str) -> int:  # argparse names the type by __name__
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def _noise_level(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < 0.5:
        raise argparse.ArgumentTypeError(f"must be in [0, 0.5), got {text}")
    return value


def _add_io(parser, input_help="input file (default: stdin)"):
    parser.add_argument("input", nargs="?", default=None, help=input_help)
    parser.add_argument("-o", "--output", default=None, help="output file (default: stdout)")


def build_parser() -> _Parser:
    parser = _Parser(prog="ruleproofs", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a dataset with gold proofs")
    p.add_argument("--config", required=True, help="generator config JSON")
    p.add_argument("--seed", type=_int_at_least(0), required=True,
                   help="overrides the config seed")
    p.add_argument("-o", "--out-dir", required=True)

    p = sub.add_parser("answer", help="answer every question with the reasoner")
    _add_io(p)

    p = sub.add_parser("prove", help="emit every question's gold proofs, as generate stores them")
    _add_io(p)

    p = sub.add_parser("mask-export", help="export training labels (masked cells are -100)")
    _add_io(p)

    p = sub.add_parser("oracle-potentials", help="noisy indicator potentials from gold proofs")
    _add_io(p)
    p.add_argument("--seed", type=_int_at_least(0), required=True)
    kind = p.add_mutually_exclusive_group()
    kind.add_argument("--noise", type=_noise_level, default=0.0,
                      help="mean perturbation, in [0, 0.5)")
    kind.add_argument("--adversarial", action="store_true",
                      help="exact potentials with one bridging gold edge pushed under threshold")

    p = sub.add_parser("train-baseline", help="fit the lexical edge scorer")
    _add_io(p, input_help="training theories (default: stdin)")
    p.add_argument("--seed", type=int, default=0,
                   help="recorded in the scorer file only; training draws nothing")

    p = sub.add_parser("score-edges", help="potentials from a trained lexical scorer")
    _add_io(p, input_help="theories to score (default: stdin)")
    p.add_argument("--scorer", required=True, help="scorer JSON from train-baseline")
    p.add_argument("--emit-potentials", action="store_true",
                   help="accepted for compatibility; potentials are the only output")

    p = sub.add_parser("decode", help="decode proofs from potentials")
    _add_io(p, input_help="potentials file (default: stdin)")
    p.add_argument("--theories", required=True,
                   help="dataset the potentials refer to (for answers and sentence layout)")
    ablation = p.add_mutually_exclusive_group()
    ablation.add_argument("--no-connectivity", action="store_true",
                          help="drop the connectivity constraint (ablation)")
    ablation.add_argument("--unconstrained", action="store_true",
                          help="threshold all pairs with no constraints at all (ablation)")

    p = sub.add_parser("eval", help="score predictions and print a report")
    _add_io(p, input_help="predictions file (default: stdin)")
    p.add_argument("--theories", required=True)
    p.add_argument("--label", default="default")
    p.add_argument("--json", dest="json_out", default=None,
                   help="also write the report as JSON to this path")

    p = sub.add_parser("critical", help="sentences whose removal flips each answer")
    _add_io(p)

    p = sub.add_parser("render-dot", help="write one DOT file per gold proof")
    p.add_argument("input", nargs="?", default=None)
    p.add_argument("-o", "--out-dir", required=True)
    return parser


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------

def _cmd_generate(args) -> int:
    cfg = datagen.GenConfig.from_dict(_load_json(args.config, datagen.ConfigError),
                                      seed=args.seed)
    bundle = datagen.generate_dataset(cfg)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for split in ("train", "dev", "test"):
        with open(out / f"{split}.theories.jsonl", "w", encoding="utf-8") as fp:
            theory_mod.write_theories(fp, bundle.split(split))
    with open(out / "manifest.json", "w", encoding="utf-8") as fp:
        json.dump(bundle.manifest, fp, indent=2)
        fp.write("\n")
    return 0


def _cmd_answer(args) -> int:
    rows = [
        {"theory_id": t.id, "question_id": q.id, "answer": reasoner.answer_question(t, q)}
        for t in _load_theories(args.input)
        for q in t.questions
    ]
    _write_rows(args.output, rows)
    return 0


def _cmd_prove(args) -> int:
    def row(t, q):
        proofs = reasoner.prove(t, q)
        return {"theory_id": t.id, "question_id": q.id, "proofs": [p.to_dict() for p in proofs],
                "depth": max(map(proofgraph.proof_depth, proofs))}

    rows = [row(t, q) for t in _load_theories(args.input) for q in t.questions]
    _write_rows(args.output, rows)
    return 0


def _require_gold(theories, answers: bool = False) -> None:
    """A data error, before anything is written, on a question without gold
    proofs or, with ``answers``, without a gold answer."""
    for t in theories:
        for q in t.questions:
            if answers and q.gold_answer is None:
                raise evalharness.EvaluationError(
                    f"question {t.id}/{q.id} has no gold answer to label")
            if not q.gold_proofs:
                raise evalharness.EvaluationError(
                    f"question {t.id}/{q.id} has no gold proofs; run prove or regenerate")


def _cmd_mask_export(args) -> int:
    theories = _load_theories(args.input)
    _require_gold(theories, answers=True)

    def rows():
        for t in theories:
            for q in t.questions:
                gold = q.gold_proofs[0]
                yield {
                    "theory_id": t.id,
                    "question_id": q.id,
                    "qa_label": int(q.gold_answer),
                    "node_labels": potentials.node_labels(t, gold),
                    "edge_labels": potentials.build_edge_mask(t, gold),
                }

    _write_rows(args.output, rows())
    return 0


def _cmd_oracle_potentials(args) -> int:
    theories = _load_theories(args.input)
    _require_gold(theories)

    def rows():
        question_counter = 0
        for t in theories:
            for q in t.questions:
                gold = q.gold_proofs[0]
                if args.adversarial:
                    pot = potentials.adversarial_potentials(t, gold)
                else:
                    seed = [args.seed, question_counter]
                    pot = potentials.oracle_potentials(t, gold, args.noise, seed)
                question_counter += 1
                yield pot.to_record(t.id, q.id)

    _write_rows(args.output, rows())
    return 0


def _cmd_train_baseline(args) -> int:
    theories = _load_theories(args.input)
    _require_gold(theories)
    train = potentials.make_edge_training_set(theories)
    scorer = potentials.fit_linear_scorer(train, args.seed)
    _write_rows(args.output, [scorer.to_dict()])
    return 0


def _cmd_score_edges(args) -> int:
    scorer = potentials.LinearScorer.from_dict(
        _load_json(args.scorer, potentials.ScorerError))
    theories = _load_theories(args.input)

    def rows():
        for t in theories:
            pot = potentials.scorer_potentials(t, scorer)
            for q in t.questions:
                yield pot.to_record(t.id, q.id)

    _write_rows(args.output, rows())
    return 0


def _cmd_decode(args) -> int:
    """Read, check, answer and decode one potentials record at a time,
    keeping only its output row; nothing is written before the last
    record is read. Each theory is compiled once, on its first record,
    whatever order the records come in."""
    theories = {t.id: t for t in _load_theories(args.theories)}
    index = {(t.id, q.id): (t, q) for t in theories.values() for q in t.questions}
    answers: dict[str, dict[str, bool]] = {}

    def target(line: str):
        record = theory_mod.json_object(line)
        ids = tuple(theory_mod.string_field(record[k], k) for k in ("theory_id", "question_id"))
        if ids not in index:
            raise ValueError(f"unknown question {ids[0]}/{ids[1]}" if ids[0] in theories
                             else f"unknown theory {ids[0]!r}")
        t, q = index[ids]
        return t, q, potentials.Potentials.from_record(record, t)

    rows = []
    with _open(args.input, "r") as fp:
        for t, q, pot in theory_mod.read_records(fp, "potentials", target,
                                                 lambda r: f"question {r[0].id}/{r[1].id}"):
            if args.unconstrained:
                result = decoder.decode_unconstrained(pot)
            else:
                result = decoder.decode_with_fallback(pot, connectivity=not args.no_connectivity)
            if t.id not in answers:
                program = reasoner.closure(t)
                answers[t.id] = {x.id: program.holds(x.literal) for x in t.questions}
            rows.append(evalharness.PredictionRecord(
                t.id, q.id, answers[t.id][q.id], result.proof,
                result.connectivity_relaxed, result.objective).to_dict())
    _write_rows(args.output, rows)
    return 0


def _cmd_eval(args) -> int:
    if args.json_out == "-":
        raise _UsageError("--json takes a file path; standard output is for the text report")
    if args.json_out and args.output not in (None, "-") \
            and Path(args.json_out).resolve() == Path(args.output).resolve():
        raise _UsageError("--json names the -o file; the text report would overwrite it")
    theories = _load_theories(args.theories)
    with _open(args.input, "r") as fp:
        predictions = evalharness.read_predictions(fp)
    report = evalharness.aggregate_report(theories, predictions, args.label)
    text = report.to_text()
    if args.json_out:  # written first, so a path it cannot open leaves no text report
        Path(args.json_out).write_text(json.dumps(report.to_dict(), indent=2) + "\n",
                                       encoding="utf-8")
    try:
        with _open(args.output, "w") as fp:
            fp.write(text)
    except OSError:  # nor does an output path it cannot open leave the JSON report
        if args.json_out:
            Path(args.json_out).unlink()
        raise
    return 0


def _cmd_critical(args) -> int:
    rows = [
        {"theory_id": t.id, "question_id": q.id,
         "critical": sorted(critical, key=proofgraph.node_sort_key)}
        for t in _load_theories(args.input)
        for q, critical in zip(t.questions, reasoner.critical_sentences(t))
    ]
    _write_rows(args.output, rows)
    return 0


def _cmd_render_dot(args) -> int:
    theories = _load_theories(args.input)
    _require_gold(theories)
    for t in theories:  # each id names files and a DOT title
        if not _FILE_ID.fullmatch(t.id):
            raise theory_mod.TheoryParseError(
                f"theory id {t.id!r} cannot name a DOT file: "
                "use ASCII letters, digits, '_' and '-'")
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for t in theories:
        for q in t.questions:
            for i, proof in enumerate(q.gold_proofs, start=1):
                name = f"{t.id}_{q.id}_p{i}.dot"
                (out / name).write_text(
                    proofgraph.to_dot(proof, title=f"{t.id}/{q.id}#{i}"),
                    encoding="utf-8")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "answer": _cmd_answer,
    "prove": _cmd_prove,
    "mask-export": _cmd_mask_export,
    "oracle-potentials": _cmd_oracle_potentials,
    "train-baseline": _cmd_train_baseline,
    "score-edges": _cmd_score_edges,
    "decode": _cmd_decode,
    "eval": _cmd_eval,
    "critical": _cmd_critical,
    "render-dot": _cmd_render_dot,
}

_DATA_ERRORS = (
    theory_mod.TheoryParseError,
    evalharness.EvaluationError,
    reasoner.NonStratifiedTheory,
    datagen.ConfigError,
    datagen.GenerationError,
    potentials.ScorerError,
    json.JSONDecodeError,
    UnicodeDecodeError,
    OSError,
)


def run_command(argv: list[str]) -> int:
    """Parse argv and run one subcommand, mapping failures to exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except BrokenPipeError:  # a closed downstream pipe ends the run quietly in main
        raise
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except (AssertionError, KeyError, ValueError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


def main() -> None:
    try:
        code = run_command(sys.argv[1:])
    except BrokenPipeError:
        code = 0
    finally:
        # One process runs one command, which reads each line once, so the
        # theory memo holds nothing it will use; left full, it would slow
        # the interpreter's exit.
        theory_mod.parse_theory_line.cache_clear()
    sys.exit(code)


if __name__ == "__main__":
    main()
