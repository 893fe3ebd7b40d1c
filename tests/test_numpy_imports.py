"""numpy is imported only by three subcommands, which draw noise or fit
the lexical scorer: ``oracle-potentials`` at noise above 0,
``train-baseline`` and ``score-edges``. Importing ``ruleproofs`` and
``ruleproofs.cli`` leaves numpy out, every other subcommand runs without
it (``generate`` draws from its own copy of numpy's stream), and with
numpy blocked those subcommands write the bytes pinned in
``test_pipeline_bytes``."""

import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ruleproofs.cli import run_command
from test_pipeline_bytes import PIPELINE_SHA256, STAGES

ROOT = Path(__file__).resolve().parents[1]

# The outputs of STAGES whose subcommand draws noise or fits, and so imports numpy.
DRAWING_OUTPUTS = {"noisy.pots.jsonl", "scorer.json", "scorer.pots.jsonl"}

# Imports the package and the CLI, then runs the argv lists in sys.argv[1]
# (JSON), each to exit 0; prints whether numpy was loaded after the imports
# and after each command. With sys.argv[2] == "block", numpy cannot load.
CHILD = """
import json, sys
if sys.argv[2] == "block":
    sys.modules["numpy"] = None
import ruleproofs, ruleproofs.cli
loaded = ["numpy" in sys.modules]
for argv in json.loads(sys.argv[1]):
    code = ruleproofs.cli.run_command(argv)
    if code:
        sys.exit(f"exit {code} from {argv}")
    loaded.append("numpy" in sys.modules)
print(json.dumps(loaded))
"""


def run_fresh(argvs, block=False) -> list[bool]:
    """Run ``argvs`` in one new interpreter; whether numpy was loaded
    after the imports, then after each command."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(argvs), "block" if block else "allow"],
        env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


@pytest.fixture(scope="module")
def split(tmp_path_factory):
    root = tmp_path_factory.mktemp("numpy")
    config = root / "config.json"
    config.write_text(json.dumps({
        "num_theories": 10, "max_depth": 3, "negation_rate": 0.3,
        "questions_per_theory": 6, "profile": "people", "seed": 0,
    }))
    assert run_command(["generate", "--config", str(config), "--seed", "3",
                        "-o", str(root / "data")]) == 0
    assert run_command(["train-baseline", str(root / "data" / "train.theories.jsonl"),
                        "-o", str(root / "scorer.json")]) == 0
    return root


def test_subcommands_that_draw_nothing_never_import_numpy(split, tmp_path):
    test = str(split / "data" / "test.theories.jsonl")
    pots, preds = str(tmp_path / "exact.pots.jsonl"), str(tmp_path / "preds.jsonl")
    null = ["-o", os.devnull]
    commands = {
        "generate": ["generate", "--config", str(split / "config.json"), "--seed", "4",
                     "-o", str(tmp_path / "data")],
        "answer": ["answer", test, *null],
        "prove": ["prove", test, *null],
        "critical": ["critical", test, *null],
        "mask-export": ["mask-export", test, *null],
        "oracle-potentials --adversarial":
            ["oracle-potentials", "--seed", "0", "--adversarial", test, *null],
        "oracle-potentials --noise 0":
            ["oracle-potentials", "--seed", "0", "--noise", "0", test, "-o", pots],
        "decode": ["decode", "--theories", test, pots, "-o", preds],
        "decode --no-connectivity":
            ["decode", "--theories", test, "--no-connectivity", pots, *null],
        "decode --unconstrained": ["decode", "--theories", test, "--unconstrained", pots, *null],
        "eval": ["eval", "--theories", test, "--json", str(tmp_path / "report.json"), preds,
                 *null],
        "render-dot": ["render-dot", test, "-o", str(tmp_path / "dot")],
    }
    loaded = run_fresh(list(commands.values()))
    assert loaded[0] is False, "importing ruleproofs.cli imported numpy"
    assert [name for name, was in zip(commands, loaded[1:]) if was] == []


@pytest.mark.parametrize("command", ["oracle-potentials --noise 0.3", "train-baseline",
                                     "score-edges"])
def test_subcommands_that_draw_import_numpy(split, tmp_path, command):
    test = str(split / "data" / "test.theories.jsonl")
    argv = {
        "oracle-potentials --noise 0.3": ["oracle-potentials", "--seed", "0",
                                          "--noise", "0.3", test, "-o", os.devnull],
        "train-baseline": ["train-baseline", str(split / "data" / "train.theories.jsonl"),
                           "-o", os.devnull],
        "score-edges": ["score-edges", "--scorer", str(split / "scorer.json"), test,
                        "-o", os.devnull],
    }[command]
    assert run_fresh([argv]) == [False, True]


def test_stages_that_draw_nothing_write_pinned_bytes_with_numpy_blocked(tmp_path):
    """The pinned pipeline in its order: the drawing stages run here, with
    numpy; each run of other stages between them runs in a fresh
    interpreter that cannot import it."""
    fill = {"out": str(tmp_path), "test": str(tmp_path / "data" / "test.theories.jsonl")}
    argvs = []
    for output, argv in STAGES:
        argv = [arg.format(**fill) for arg in argv]
        if output != "data":
            argv += ["-o", str(tmp_path / output)]
        argvs.append((output in DRAWING_OUTPUTS, argv))
    for drawing, run in itertools.groupby(argvs, key=lambda stage: stage[0]):
        run = [argv for _, argv in run]
        if drawing:
            for argv in run:
                assert run_command(argv) == 0, argv
        else:
            run_fresh(run, block=True)
    digests = {str(p.relative_to(tmp_path)): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(tmp_path.rglob("*")) if p.is_file()}
    assert digests == PIPELINE_SHA256
