"""One repetition of a workload, in a fresh single-threaded process.

``run.py`` starts this script once per repetition with the path of a
request JSON file and the ``time.monotonic()`` reading taken just before
the process started, and reads back the result JSON file the request
names. The
script imports ``ruleproofs`` from the checkout's ``src/`` and:

1. set-up: imports ``ruleproofs.cli`` and reads the workload's input;
2. job: runs the workload's stages through ``cli.run_command`` (and, for
   ``audit-du5``, ``reasoner.check_proof``), timed as one block;
3. checks (only when asked): verifies every output, outside the clock;
4. records a sha256 digest of every input and output file.

With tracing on, ``tracer.Tracer`` wraps the package's public functions
after set-up and before the job. A request with ``prepare`` set only
generates the workload's corpus and exits.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import traceback
from pathlib import Path
from time import monotonic, perf_counter, process_time

from speed import SpeedProbe


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fp:
        for block in iter(lambda: fp.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def read_jsonl(path: Path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fp:
        return [json.loads(line) for line in fp if line.strip()]


def questions_of(theories) -> int:
    return sum(len(t.questions) for t in theories)


class Stage:
    """One unit of work in a job: a subcommand or a library loop."""

    def __init__(self, label, questions, outputs):
        self.label = label
        self.questions = questions
        self.outputs = outputs
        self.code = None
        self.failed: set = set()

    def fail(self, key):
        self.failed.add(key)

    def fail_all(self, keys):
        self.failed.update(keys)

    def expect_rows(self, rows, keys):
        """Rows by key; a missing, repeated or unexpected key fails."""
        seen = {}
        for row in rows:
            key = (row.get("theory_id"), row.get("question_id"))
            if key in seen:
                self.fail(key)
            seen[key] = row
        self.fail_all(set(keys).symmetric_difference(seen))
        return seen


class Job:
    """Shared plumbing: run stages, time each one as a ``cli`` span."""

    def __init__(self, request, tracer):
        from ruleproofs import cli

        self.cli = cli
        self.request = request
        self.tracer = tracer
        self.seed = str(request["seed"])
        self.out = Path(request["rep_dir"])
        self.corpus = Path(request["corpus_dir"])
        self.stages: list[Stage] = []

    def run(self, label, argv, questions, outputs):
        stage = Stage(label, questions, outputs)
        self.stages.append(stage)
        with self.tracer.span("cli." + argv[0]):
            try:
                stage.code = self.cli.run_command(argv)
            except Exception:
                # The command line would die here with a traceback and exit 1.
                traceback.print_exc()
                stage.code = 1
        return stage

    def path(self, name) -> str:
        return str(self.out / name)

    def stage(self, label) -> Stage:
        return next(s for s in self.stages if s.label == label)


def split_size(theories) -> dict:
    return {"theories": len(theories), "questions": questions_of(theories)}


def keys_of(theories):
    return [(t.id, q.id) for t in theories for q in t.questions]


# ---------------------------------------------------------------------------
# generate-du5
# ---------------------------------------------------------------------------

class GenerateJob(Job):
    """``generate`` with the workload's own copy of the du5 config."""

    def setup(self):
        with open(self.request["config"], "r", encoding="utf-8") as fp:
            self.config = json.load(fp)
        self.input_files = [Path(self.request["config"])]

    def job(self):
        expected = self.config["num_theories"] * self.config["questions_per_theory"]
        outputs = [f"corpus/{s}.theories.jsonl" for s in ("train", "dev", "test")] \
            + ["corpus/manifest.json"]
        self.run("generate", ["generate", "--config", self.request["config"],
                              "--seed", self.seed, "-o", self.path("corpus")],
                 expected, outputs)

    def questions(self) -> int:
        """Questions emitted, as the manifest counts them."""
        return sum(s["questions"] for s in self.sizes()["splits"].values())

    def sizes(self) -> dict:
        manifest = self.out / "corpus" / "manifest.json"
        splits = {}
        if manifest.exists():
            splits = json.loads(manifest.read_text(encoding="utf-8"))["splits"]
        return {"num_theories": self.config["num_theories"],
                "splits": {name: {"theories": s["theories"], "questions": s["questions"]}
                           for name, s in splits.items()}}

    def check(self):
        from ruleproofs import reasoner, theory

        stage = self.stage("generate")
        if stage.code != 0:
            return
        theories = []
        for split in ("train", "dev", "test"):
            with open(self.out / "corpus" / f"{split}.theories.jsonl", encoding="utf-8") as fp:
                theories.extend(theory.read_theories(fp))
        stage.fail_all(("missing", i) for i in range(len(theories), self.config["num_theories"]))
        for t in theories:
            invalid = bool(theory.validate_theory(t))
            for q in t.questions:
                if invalid or reasoner.answer_question(t, q) != q.gold_answer:
                    stage.fail((t.id, q.id))


# ---------------------------------------------------------------------------
# pipeline-du3
# ---------------------------------------------------------------------------

class PipelineJob(Job):
    """The model-facing path on a du3 corpus generated before the clock."""

    def setup(self):
        from ruleproofs import theory

        self.train_path = str(self.corpus / "train.theories.jsonl")
        self.test_path = str(self.corpus / "test.theories.jsonl")
        with open(self.train_path, encoding="utf-8") as fp:
            self.train = list(theory.read_theories(fp))
        with open(self.test_path, encoding="utf-8") as fp:
            self.test = list(theory.read_theories(fp))
        self.input_files = [Path(self.train_path), Path(self.test_path)]

    def questions(self) -> int:
        return questions_of(self.train) + questions_of(self.test)

    def sizes(self) -> dict:
        return {"splits": {"train": split_size(self.train), "test": split_size(self.test)}}

    def decode_and_eval(self, leg, theories_path, n, decodes=(("", ()),)):
        """Decode ``pot-<leg>.jsonl`` once per (suffix, flags) and eval each."""
        for suffix, flags in decodes:
            name = f"{leg}{suffix}"
            self.run(f"decode-{name}", ["decode", *flags, "--theories", theories_path,
                                        self.path(f"pot-{leg}.jsonl"),
                                        "-o", self.path(f"dec-{name}.jsonl")],
                     n, [f"dec-{name}.jsonl"])
            self.run(f"eval-{name}", ["eval", "--theories", theories_path, "--label", name,
                                      self.path(f"dec-{name}.jsonl"),
                                      "-o", self.path(f"eval-{name}.txt"),
                                      "--json", self.path(f"eval-{name}.json")],
                     n, [f"eval-{name}.txt", f"eval-{name}.json"])

    def job(self):
        n_train = questions_of(self.train)
        n_test = questions_of(self.test)
        train = self.train_path
        self.run("mask-export", ["mask-export", train, "-o", self.path("masks.jsonl")],
                 n_train, ["masks.jsonl"])
        for leg, flags in (("noise0", ["--noise", "0"]), ("noise0.3", ["--noise", "0.3"]),
                           ("adversarial", ["--adversarial"])):
            self.run(f"oracle-{leg}", ["oracle-potentials", "--seed", self.seed, *flags,
                                       train, "-o", self.path(f"pot-{leg}.jsonl")],
                     n_train, [f"pot-{leg}.jsonl"])
            decodes = (("", ()),)
            if leg == "adversarial":
                decodes = (("", ()), ("-noconn", ("--no-connectivity",)))
            self.decode_and_eval(leg, train, n_train, decodes)
        self.run("train-baseline", ["train-baseline", "--seed", self.seed, train,
                                    "-o", self.path("scorer.json")],
                 n_train, ["scorer.json"])
        self.run("score-lexical", ["score-edges", "--scorer", self.path("scorer.json"),
                                   "--emit-potentials", self.test_path,
                                   "-o", self.path("pot-lexical.jsonl")],
                 n_test, ["pot-lexical.jsonl"])
        self.decode_and_eval("lexical", self.test_path, n_test)

    def check(self):
        from ruleproofs import decoder, evalharness

        train_keys = keys_of(self.train)
        test_keys = keys_of(self.test)
        golds = {(t.id, q.id): q for t in self.train + self.test for q in t.questions}
        for stage in self.stages:
            keys = test_keys if stage.label.endswith("lexical") else train_keys
            if stage.code != 0:
                continue
            name = stage.outputs[0]
            if stage.label.startswith("eval-"):
                report = json.loads((self.out / stage.outputs[1]).read_text(encoding="utf-8"))
                stage.fail_all(keys[report["rows"][-1]["count"]:])
                if stage.label == "eval-noise0":
                    perfect = all(report["rows"][-1][m] == 1.0
                                  for m in ("qa", "na", "ea", "pa", "fa"))
                    if not perfect:
                        self._fail_imperfect(stage, golds, evalharness)
            elif stage.label == "train-baseline":
                scorer = json.loads((self.out / name).read_text(encoding="utf-8"))
                if not scorer.get("weights"):
                    stage.fail_all(keys)
            else:
                rows = stage.expect_rows(read_jsonl(self.out / name), keys)
                if stage.label == "decode-adversarial":
                    for key, row in rows.items():
                        if row["connectivity_relaxed"]:
                            continue
                        proof = evalharness.PredictionRecord.from_dict(row).proof
                        flow = decoder.flow_certificate(proof)
                        if flow is None or not decoder.verify_flow(proof, flow):
                            stage.fail(key)

    def _fail_imperfect(self, stage, golds, evalharness):
        """Name the questions the noise-0 leg got wrong on any metric."""
        for row in read_jsonl(self.out / "dec-noise0.jsonl"):
            pred = evalharness.PredictionRecord.from_dict(row)
            key = (pred.theory_id, pred.question_id)
            score = evalharness.score_example(golds[key], pred)
            if not (score.qa and score.na and score.ea and score.pa and score.fa):
                stage.fail(key)


# ---------------------------------------------------------------------------
# audit-du5
# ---------------------------------------------------------------------------

class AuditJob(Job):
    """Re-derive answers, proofs and critical sentences on a du5 test split."""

    def setup(self):
        from ruleproofs import theory

        self.test_path = str(self.corpus / "test.theories.jsonl")
        with open(self.test_path, encoding="utf-8") as fp:
            self.test = list(theory.read_theories(fp))
        self.input_files = [Path(self.test_path)]

    def questions(self) -> int:
        return questions_of(self.test)

    def sizes(self) -> dict:
        return {"splits": {"test": split_size(self.test)}}

    def job(self):
        from ruleproofs import reasoner

        n = questions_of(self.test)
        for sub in ("answer", "prove", "critical"):
            self.run(sub, [sub, self.test_path, "-o", self.path(f"{sub}.jsonl")],
                     n, [f"{sub}.jsonl"])
        stage = Stage("check_proof", n, ["check_proof.jsonl"])
        self.stages.append(stage)
        with open(self.out / "check_proof.jsonl", "w", encoding="utf-8") as fp:
            for t in self.test:
                for q in t.questions:
                    try:
                        accepted = [reasoner.check_proof(t, q, p) for p in q.gold_proofs]
                    except Exception:
                        traceback.print_exc()
                        accepted = None
                    fp.write(json.dumps({"theory_id": t.id, "question_id": q.id,
                                         "accepted": accepted}) + "\n")
        stage.code = 0

    def check(self):
        keys = keys_of(self.test)
        questions = {(t.id, q.id): (t, q) for t in self.test for q in t.questions}
        for stage in self.stages:
            if stage.code != 0:
                continue
            rows = stage.expect_rows(read_jsonl(self.out / stage.outputs[0]), keys)
            for key, row in rows.items():
                if key not in questions:
                    continue
                t, q = questions[key]
                if stage.label == "answer":
                    ok = row["answer"] == q.gold_answer
                elif stage.label == "prove":
                    ok = row["proofs"] == [p.to_dict() for p in q.gold_proofs] \
                        and row["depth"] == q.gold_depth
                elif stage.label == "critical":
                    ok = set(row["critical"]) <= set(t.sentence_ids())
                else:
                    ok = row["accepted"] is not None and all(row["accepted"]) \
                        and len(row["accepted"]) == len(q.gold_proofs)
                if not ok:
                    stage.fail(key)


JOBS = {"generate-du5": GenerateJob, "pipeline-du3": PipelineJob, "audit-du5": AuditJob}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def prepare(request) -> None:
    """Generate the workload's corpus (outside any measurement)."""
    from ruleproofs import cli

    code = cli.run_command(["generate", "--config", request["config"],
                            "--seed", str(request["seed"]), "-o", request["corpus_dir"]])
    if code != 0:
        raise SystemExit(f"corpus generation failed with exit code {code}")


def repetition(request, t0: float, probe) -> dict:
    root = Path(request["root"]).resolve()
    import ruleproofs.cli  # noqa: F401  (set-up cost: the CLI's import)

    import_s = monotonic() - t0
    src = (root / "src").resolve()
    loaded = Path(sys.modules["ruleproofs"].__file__).resolve()
    if src not in loaded.parents:
        raise SystemExit(f"ruleproofs was imported from {loaded}, not from {src}")

    from tracer import Tracer

    tracer = Tracer()
    work = JOBS[request["workload"]](request, tracer)
    work.setup()
    setup_s = monotonic() - t0
    setup_end = probe.mark()

    if request["trace"]:
        tracer.install()
        tracer.phase = "job"
    job_start = probe.mark()
    cpu_start = process_time()
    start = perf_counter()
    work.job()
    job_s = perf_counter() - start
    job_cpu_s = process_time() - cpu_start
    job_end = probe.mark()
    probe.stop()
    tracer.phase = None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if request["check"]:
        tracer.phase = "check" if request["trace"] else None
        check_start = perf_counter()
        try:
            work.check()
        except Exception:
            # Outputs the checks cannot read count as wrong outputs.
            traceback.print_exc()
            for stage in work.stages:
                stage.fail_all(range(stage.questions))
        check_s = perf_counter() - check_start
    else:
        check_s = None
    tracer.phase = None

    import numpy

    out = Path(request["rep_dir"])
    result = {
        "numpy": numpy.__version__,
        "sizes": work.sizes(),
        "import_s": import_s,
        "setup_s": setup_s,
        "job_s": job_s,
        "job_cpu_s": job_cpu_s,
        "check_s": check_s,
        "peak_rss_mb": peak_rss_mb,
        "questions": work.questions(),
        "checked": bool(request["check"]),
        "stages": [
            {
                "label": s.label,
                "code": s.code,
                "questions": s.questions,
                "failed": min(s.questions, len(s.failed)) if s.code == 0 else s.questions,
                "digests": {name: sha256(out / name) if (out / name).exists() else None
                            for name in s.outputs},
            }
            for s in work.stages
        ],
        "inputs": {p.name: sha256(p) for p in work.input_files},
        "speed": {"setup": probe.reference_time(setup_s, 0, setup_end),
                  "job": probe.reference_time(job_s, job_start, job_end)},
    }
    if request["trace"]:
        result["trace"] = {"job": tracer.summary("job", job_s),
                           "check": tracer.summary("check", check_s or 0.0)}
    return result


def main() -> None:
    request = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path[:0] = [str(Path(request["root"]) / "src"), str(Path(__file__).resolve().parent)]
    if request.get("prepare"):
        prepare(request)
        return
    probe = SpeedProbe()
    # Traced repetitions report no end-to-end times; a probe there would
    # add its samples to the self time of whichever span it interrupts.
    if not request["trace"]:
        probe.start()
    result = repetition(request, float(sys.argv[2]), probe)
    Path(request["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
