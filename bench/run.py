"""Benchmark of the ruleproofs pipeline: one workload, one seed, one run.

    python3 bench/run.py --workload generate-du5 --seed 3 --seconds 20 --trace 0

Run from the root of a checkout. The workload's inputs are built from
``--seed``. Each repetition runs in a fresh single-threaded process
(``child.py``), repetitions are repeated until ``--seconds`` have passed,
and medians are reported. The first repetition checks every output; the
others must reproduce its output digests. With ``--trace 1`` repetitions
alternate between traced and untraced, and the per-layer metrics of the
traced ones are reported.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a JSON report with the environment, the digests and every sample. The
metric names and units are those of ``BENCHMARK.json``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import monotonic

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Generator config copy and corpus size per workload. The configs under
# bench/configs keep the values of configs/du5.json and configs/du3.json,
# so an edit there cannot change what is measured.
WORKLOADS = {
    "generate-du5": ("du5.json", 400),
    "pipeline-du3": ("du3.json", 400),
    "audit-du5": ("du5.json", 800),
}

# Spans that run only in the output checks, outside the timed job.
CHECK_SPANS = ("decoder.flow_certificate", "decoder.verify_flow")

# A run must end within this many seconds of its start.
RUN_LIMIT_S = 170.0

SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--theories", type=int, default=None,
                        help="corpus size override (smoke test); default: the workload's size")
    return parser.parse_args(argv)


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fp:
        return json.load(fp)


class Runner:
    """Starts child processes in a private work directory under bench/_work."""

    def __init__(self, args, work: Path, started: float):
        self.args = args
        self.work = work
        self.started = started
        name, size = WORKLOADS[args.workload]
        config = json.loads((BENCH / "configs" / name).read_text(encoding="utf-8"))
        config["num_theories"] = args.theories or size
        self.config_path = work / name
        self.config_path.write_text(json.dumps(config), encoding="utf-8")
        self.env = {**os.environ, **SINGLE_THREAD}

    def child(self, **fields) -> dict:
        request = {
            "root": str(ROOT),
            "workload": self.args.workload,
            "seed": self.args.seed,
            "config": str(self.config_path),
            "corpus_dir": str(self.work / "corpus"),
            "rep_dir": str(self.work / "rep"),
            "result": str(self.work / "result.json"),
            "trace": 0,
            "check": 0,
            **fields,
        }
        request_path = self.work / "request.json"
        request_path.write_text(json.dumps(request), encoding="utf-8")
        result_path = Path(request["result"])
        result_path.unlink(missing_ok=True)
        shutil.rmtree(request["rep_dir"], ignore_errors=True)
        Path(request["rep_dir"]).mkdir()
        timeout = RUN_LIMIT_S - (monotonic() - self.started)
        if timeout <= 0:
            raise BenchError("no time left for another repetition")
        # CLOCK_MONOTONIC is system-wide, so the child can measure its
        # set-up time from this instant, just before its process starts.
        argv = [sys.executable, str(BENCH / "child.py"), str(request_path), repr(monotonic())]
        try:
            proc = subprocess.run(argv, env=self.env, stdout=sys.stderr, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"repetition did not finish within {timeout:.0f} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"child process exited with code {proc.returncode}")
        if fields.get("prepare"):
            return {}
        return json.loads(result_path.read_text(encoding="utf-8"))


def repetitions(runner: Runner, seconds: float, traced: bool) -> list[dict]:
    """Repeat until ``seconds`` have passed since the first repetition.

    Untraced runs check the first repetition. Traced runs alternate
    traced/untraced (at least one of each) and check the first traced one.
    """
    reps = []
    start = monotonic()
    while True:
        trace = int(traced and len(reps) % 2 == 0)
        rep = runner.child(trace=trace, check=int(len(reps) == 0))
        rep["traced"] = bool(trace)
        reps.append(rep)
        elapsed = monotonic() - start
        enough = len(reps) >= (2 if traced else 1)
        spent = monotonic() - runner.started
        if enough and (elapsed >= seconds or spent + elapsed / len(reps) > RUN_LIMIT_S - 10):
            return reps


def count_failures(reps: list[dict]) -> tuple[int, int]:
    """Attempts are questions times stages; a stage whose outputs differ
    from the checked repetition's fails all of its questions."""
    reference = {s["label"]: s["digests"] for s in reps[0]["stages"]}
    attempted = failed = 0
    for rep in reps:
        for stage in rep["stages"]:
            attempted += stage["questions"]
            if stage["failed"]:
                failed += stage["failed"]
            elif stage["digests"] != reference.get(stage["label"]):
                failed += stage["questions"]
    return attempted, failed


def layer_values(trace: dict) -> dict:
    """Every per-layer figure of one traced repetition, by metric name."""
    job = trace["job"]
    spans = dict(job["spans"])
    for name in CHECK_SPANS:
        if name in trace["check"]["spans"]:
            spans[name] = trace["check"]["spans"][name]
    values = {}
    for name, span in spans.items():
        for stat, value in span.items():
            values[f"{name}.{stat}"] = value

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    nested = job["nested"]
    decodes = job["decodes"]
    values.update({
        "reasoner.grounds_per_closure": ratio(calls("reasoner.ground_instances"),
                                              calls("reasoner.closure")),
        "reasoner.closures_per_question": ratio(
            nested.get("reasoner.critical_sentences>reasoner.closure", 0),
            calls("reasoner.critical_sentences")),
        "datagen.closures_per_theory": ratio(
            nested.get("datagen.generate_theory>reasoner.closure", 0),
            calls("datagen.generate_theory")),
        "decoder.redecode_ratio": ratio(calls("decoder.decode_proof"),
                                        calls("decoder.decode_with_fallback")),
        "decoder.relaxed_ratio": ratio(decodes.get("relaxed", 0), decodes.get("connected", 0)),
        "decoder.repairs_per_decode": ratio(decodes.get("repairs", 0), decodes.get("connected", 0)),
        "cli.self_s": sum(s["self_s"] for n, s in job["spans"].items() if n.startswith("cli.")),
        "trace.job_s": job["wall_s"],
        "trace.other_s": job["other_s"],
    })
    for name, span in job["spans"].items():
        if name.startswith("cli."):
            values[f"{name}.s"] = span["total_s"]
    return values


def median_of(reps, key):
    return statistics.median(rep[key] for rep in reps)


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def measure(args) -> tuple[dict, dict]:
    started = monotonic()
    load = os.getloadavg()
    (BENCH / "_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=BENCH / "_work"))
    try:
        runner = Runner(args, work, started)
        prepare_start = monotonic()
        runner.child(prepare=1)
        prepare_s = monotonic() - prepare_start
        reps = repetitions(runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    spec = benchmark_spec()
    attempted, failed = count_failures(reps)
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    rates = [r["questions"] / r["speed"]["job"]["ref_s"] for r in untraced]
    setups = [r["speed"]["setup"]["ref_s"] for r in untraced]
    raw_rates = [r["questions"] / r["job_s"] for r in untraced]

    metrics = {}
    if args.trace:
        overhead = median_of(traced, "job_s") - statistics.median(
            r["speed"]["job"]["wall_s"] for r in untraced)
        per_rep = [layer_values(r["trace"]) for r in traced]
        for rep_values, rep in zip(per_rep, traced):
            rep_values["trace.overhead_s"] = overhead
            rep_values["setup.import_s"] = rep["import_s"]
            rep_values["setup.read_s"] = rep["setup_s"] - rep["import_s"]
        for m in spec["per_layer"]:
            value = statistics.median(v.get(m["name"], 0.0) for v in per_rep)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    else:
        overhead = None
        figures = {
            "questions_per_s": statistics.median(rates),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": median_of(untraced, "peak_rss_mb"),
        }
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": figures[m["name"]], "unit": m["unit"]}

    checked = reps[0]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "python": platform.python_version(),
            "numpy": checked["numpy"],
            "nproc": os.cpu_count(),
            "loadavg_at_start": list(load),
            "git_commit": git_commit(),
            "seed": args.seed,
            "sizes": checked["sizes"],
            "trace_overhead_s": overhead,
        },
        "digests": {
            "inputs": checked["inputs"],
            "outputs": {s["label"]: s["digests"] for s in checked["stages"]},
        },
        "failed_ratio": failed / attempted,
        "prepare_s": prepare_s,
        "questions_per_s_quartiles": quartiles(rates),
        "raw": {
            "questions_per_s": statistics.median(raw_rates),
            "questions_per_s_quartiles": quartiles(raw_rates),
            "setup_s": median_of(untraced, "setup_s"),
            "slowdown_median": statistics.median(r["speed"]["job"]["slowdown"] for r in untraced),
        },
        "job_cpu_s_median": median_of(reps, "job_cpu_s"),
        "repetitions": [
            {k: r[k] for k in ("traced", "checked", "questions", "job_s", "job_cpu_s", "speed",
                               "check_s", "import_s", "setup_s", "peak_rss_mb")}
            | {"failed": sum(s["failed"] for s in r["stages"])}
            for r in reps
        ],
    }
    if traced:
        first = traced[0]["trace"]
        job = first["job"]
        report["trace"] = {
            "job_s": job["wall_s"],
            "other_s": job["other_s"],
            "self_s_sum": sum(s["self_s"] for s in job["spans"].values()),
            "spans": job["spans"],
            "check_spans": first["check"]["spans"],
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return report, result


def main(argv=None) -> int:
    # Turn a termination request into SystemExit, so the running child is
    # killed and waited for and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = parse_args(argv)
    if not (ROOT / "src" / "ruleproofs" / "cli.py").is_file():
        print(f"error: {ROOT / 'src' / 'ruleproofs'} not found; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 1
    try:
        report, result = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
