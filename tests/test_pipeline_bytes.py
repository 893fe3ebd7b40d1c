"""Every stage of the README pipeline on configs/du3.json at seed 0, and
the reasoner subcommands answer, prove and critical on its test split,
write the bytes pinned here. A refactor of the reasoner, labels,
potentials, decoding, eval or the lexical scorer that changes any output
fails this test."""

import hashlib
from pathlib import Path

from ruleproofs.cli import run_command
from ruleproofs.theory import parse_theory_line

ROOT = Path(__file__).resolve().parents[1]

# (output file, argv); "{out}" is the working directory
STAGES = (
    ("data", ["generate", "--config", str(ROOT / "configs" / "du3.json"), "--seed", "0",
              "-o", "{out}/data"]),
    ("answers.jsonl", ["answer", "{test}"]),
    ("proofs.jsonl", ["prove", "{test}"]),
    ("critical.jsonl", ["critical", "{test}"]),
    ("labels.jsonl", ["mask-export", "{test}"]),
    ("noisy.pots.jsonl", ["oracle-potentials", "--seed", "0", "--noise", "0.3", "{test}"]),
    ("adversarial.pots.jsonl", ["oracle-potentials", "--seed", "0", "--adversarial", "{test}"]),
    ("noisy.preds.jsonl", ["decode", "--theories", "{test}", "{out}/noisy.pots.jsonl"]),
    ("adversarial.preds.jsonl",
     ["decode", "--theories", "{test}", "{out}/adversarial.pots.jsonl"]),
    ("ablated.preds.jsonl", ["decode", "--theories", "{test}", "--no-connectivity",
                             "{out}/adversarial.pots.jsonl"]),
    ("unconstrained.preds.jsonl", ["decode", "--theories", "{test}", "--unconstrained",
                                   "{out}/noisy.pots.jsonl"]),
    ("report.txt", ["eval", "--theories", "{test}", "--json", "{out}/report.json",
                    "{out}/noisy.preds.jsonl"]),
    ("scorer.json", ["train-baseline", "{out}/data/train.theories.jsonl"]),
    ("scorer.pots.jsonl", ["score-edges", "--scorer", "{out}/scorer.json", "--emit-potentials",
                           "{test}"]),
    ("scorer.preds.jsonl", ["decode", "--theories", "{test}", "{out}/scorer.pots.jsonl"]),
)

PIPELINE_SHA256 = {
    "ablated.preds.jsonl":
        "ac435105a327cf50d44fe07acc8121f7c89e23955e20095b9c852a4e157a9dbc",
    "adversarial.pots.jsonl":
        "514814ccb6d37384277c341ee082360b8dd2c677749e1e83ba9b84df1fb7b946",
    "adversarial.preds.jsonl":
        "3834d33a979a4e6484ba01b3151fcbc08383c314f4d4b96c060dd7230191351c",
    "answers.jsonl":
        "e93a624163cf67a2351060b5438856449f5966fc3ac0ba656c146804b836f250",
    "critical.jsonl":
        "af046b58119cdb2f6ab0ca493d99eefcf2b870399cefcf87e157de90a3626cca",
    "data/dev.theories.jsonl":
        "f333594d48f37defe656ad0ac8a22f7b4a08c35a7eae0b660d0e453eafffbca8",
    "data/manifest.json":
        "04ee72f0fb3e48967477c63c18e152fd9dd309f668242a6130316642ca3bdc4c",
    "data/test.theories.jsonl":
        "58134d6006e5a49ca1d0908ea97af5f6d413eec2a8988b07076988453ae9b8c3",
    "data/train.theories.jsonl":
        "acddbd02943627b2bff89b8b8a10989b964ff5b39693a1edeaf6eb9997f92db6",
    "labels.jsonl":
        "f68db3ce5b6300ea4dfa87a4428fac5861d5680a11a3d2ae34edb2815f0bf10e",
    "noisy.pots.jsonl":
        "d1f0b2545ea0d0cdce52e892163fa4e23e29b628c3b2beb09220bc287cdce88d",
    "noisy.preds.jsonl":
        "fec97882c8afa5359a5e2aad21ca2c6698376477da25b2cd4414fd7a8b543226",
    "proofs.jsonl":
        "c01a00fa9e95eebe23728591b46ea39971d979e8e1f6a91074a3be1418894cf3",
    "report.json":
        "afcb49fb392f5a5307dd1c6bc87e9d919035e506cc90a01374671f8862a4ab6d",
    "report.txt":
        "be78d2181e81d78da682239be23ca555f38c33be22aec5d0164e01e22e7b9890",
    "scorer.json":
        "b0b9a2fb32cd6bbef83ed76b9c1f31b36d824af16b9aae987326ed23db7ab720",
    "scorer.pots.jsonl":
        "30ed62b795c489ee676f2d66b9bb215aeb78683413b8794cc2620727ffc80816",
    "scorer.preds.jsonl":
        "88351dde705d83741cdefee28d2d4a38c9f96115348eb9fd38715d45394dbba6",
    "unconstrained.preds.jsonl":
        "aa682de6ee025664979be8ee3f62d29af1015deb301386538ed0cbfad5fb0871",
}


def stage_digests(tmp_path, before_stage=lambda: None) -> dict[str, str]:
    """Run ``STAGES`` in this process, calling ``before_stage`` before
    each, and return the sha256 of every file written."""
    fill = {"out": str(tmp_path), "test": str(tmp_path / "data" / "test.theories.jsonl")}
    for output, argv in STAGES:
        argv = [arg.format(**fill) for arg in argv]
        if output != "data":
            argv += ["-o", str(tmp_path / output)]
        before_stage()
        assert run_command(argv) == 0, argv
    return {str(p.relative_to(tmp_path)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(tmp_path.rglob("*")) if p.is_file()}


def test_pipeline_bytes_are_pinned(tmp_path):
    # every stage after the first reads the test split through the theory memo
    assert stage_digests(tmp_path) == PIPELINE_SHA256


def test_cold_reads_write_the_pinned_bytes(tmp_path):
    """Every stage reads its theories from scratch, as a fresh process does."""
    assert stage_digests(tmp_path, parse_theory_line.cache_clear) == PIPELINE_SHA256
