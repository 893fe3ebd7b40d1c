"""Boundary properties of every subcommand that reads records.

One field of a valid theory, potentials or prediction record is deleted,
renamed or replaced by another JSON value, or its line is cut short, and
every subcommand that reads that kind of record runs on the file through
``run_command``. Each run exits 0 or 2:

- on exit 2 it prints an ``error:`` message that names the line, as every
  reader error does ("bad <kind> record on line N: ..."), or, for one of
  the checks made after the read (``POST_READ``), the question or theory
  it concerns; and it leaves no output file;
- on exit 0, a second run writes the same bytes.

The generator config and scorer readers have their own property:
``GenConfig.from_dict`` (``LinearScorer.from_dict``) of any JSON value
builds a config (a scorer) that round-trips through ``to_dict``, or
raises ``ConfigError`` (``ScorerError``).
"""

import contextlib
import copy
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ruleproofs.cli import run_command
from ruleproofs.datagen import ConfigError, GenConfig, generate_dataset
from ruleproofs.potentials import LinearScorer, ScorerError
from ruleproofs.theory import write_theories

# Checks made after the whole file is read: they name the question
# ("question T/Q has no gold proofs", eval's join of predictions to
# questions) or the theory (render-dot's file names, a cycle through
# negation), not a line.
POST_READ = re.compile(r"error: (question |prediction for |missing prediction for "
                       r"|theory id .* cannot name a DOT file|theory .*: a dependency cycle)",
                       re.DOTALL)
READ_ERROR = re.compile(r"error: bad (theory|potentials|prediction) record on line [1-9]\d*: ")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Three small generated theories, their oracle potentials and their
    decoded predictions, as files and as records."""
    root = tmp_path_factory.mktemp("boundary")
    bundle = generate_dataset(GenConfig(
        seed=5, num_theories=3, facts_per_theory=(2, 4), rules_per_theory=(2, 4),
        max_depth=2, questions_per_theory=3))
    theories, pots, preds = root / "t.jsonl", root / "p.jsonl", root / "d.jsonl"
    with open(theories, "w", encoding="utf-8") as fp:
        write_theories(fp, bundle.train + bundle.dev + bundle.test)
    scorer = root / "scorer.json"
    scorer.write_text(json.dumps(LinearScorer.untrained().to_dict()))
    for argv in (["oracle-potentials", "--seed", "0", "--noise", "0.3", theories, "-o", pots],
                 ["decode", "--theories", theories, pots, "-o", preds]):
        assert run_command([str(a) for a in argv]) == 0
    records = {path: [json.loads(line) for line in path.read_text().splitlines()]
               for path in (theories, pots, preds)}
    return {"theories": theories, "potentials": pots, "predictions": preds,
            "scorer": scorer, "records": records}


def _readers(kind: str, corpus: dict, bad: Path) -> list:
    """For each subcommand that reads ``kind``, its argv as a function of
    an empty output directory, with ``bad`` as its ``kind`` input."""
    theories, pots, preds = corpus["theories"], corpus["potentials"], corpus["predictions"]
    if kind == "potentials":
        return [lambda out, flags=flags: ["decode", *flags, "--theories", theories, bad,
                                          "-o", out / "d.jsonl"]
                for flags in ([], ["--no-connectivity"], ["--unconstrained"])]
    if kind == "predictions":
        return [lambda out: ["eval", "--theories", theories, bad, "-o", out / "report.txt",
                             "--json", out / "report.json"]]
    return [lambda out, command=command: [command, bad, "-o", out / "out.jsonl"]
            for command in ("answer", "prove", "mask-export", "train-baseline", "critical")] + [
        lambda out: ["oracle-potentials", "--seed", "1", "--noise", "0.2", bad,
                     "-o", out / "p.jsonl"],
        lambda out: ["score-edges", "--scorer", corpus["scorer"], bad, "-o", out / "s.jsonl"],
        lambda out: ["decode", "--theories", bad, pots, "-o", out / "d.jsonl"],
        lambda out: ["eval", "--theories", bad, preds, "-o", out / "report.txt"],
        lambda out: ["render-dot", bad, "-o", out / "dots"],
    ]


def _run(argv, out: Path):
    out.mkdir()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = run_command([str(a) for a in argv(out)])
    written = {p.relative_to(out).as_posix(): p.read_bytes()
               for p in sorted(out.rglob("*")) if p.is_file()}
    return code, err.getvalue(), written


def _json_values(leaves: list):
    scalars = (st.none() | st.booleans() | st.integers(-3, 30) | st.floats()
               | st.text(max_size=6) | st.sampled_from(leaves))
    return st.recursive(scalars, lambda inner: st.lists(inner, max_size=3)
                        | st.dictionaries(st.text(max_size=4), inner, max_size=2),
                        max_leaves=4)


def _leaves(value) -> list:
    """Every scalar in a JSON value, so that a replacement can be another
    field's valid value."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [leaf for item in value for leaf in _leaves(item)]
    return [value]


@st.composite
def _mutated_line(draw, record: dict, leaves: list) -> str:
    """The JSON line of ``record`` with one field deleted, replaced, or
    renamed (a list item: moved), the whole record replaced, or the line
    cut short."""
    line = json.dumps(record)
    if draw(st.integers(0, 9)) == 0:
        return line[:draw(st.integers(0, len(line) - 1))]
    record = copy.deepcopy(record)
    parent, key, node = None, None, record
    while isinstance(node, (dict, list)) and node and draw(st.integers(0, 4)):
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        parent, node = node, node[key]
    if parent is None:
        return json.dumps(draw(_json_values(leaves)))
    action = draw(st.sampled_from(["delete", "rename", "replace"]))
    if action == "replace":
        parent[key] = draw(_json_values(leaves))
    elif action == "delete":
        del parent[key]
    elif isinstance(parent, dict):
        parent[key[:-1] or "_"] = parent.pop(key)  # a misspelt key
    else:
        parent.insert(draw(st.integers(0, len(parent))), parent.pop(key))
    return json.dumps(record)


@pytest.mark.parametrize("kind, examples", [("theories", 40), ("potentials", 60),
                                            ("predictions", 60)])
def test_one_mutated_field_exits_zero_or_two(corpus, kind, examples):
    records = corpus["records"][corpus[kind]]
    leaves = _leaves(records)

    @given(st.data())
    @settings(max_examples=examples, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def check(data):
        index = data.draw(st.integers(0, len(records) - 1), label="line index")
        line = data.draw(_mutated_line(records[index], leaves), label="line")
        lines = [json.dumps(r) for r in records]
        lines[index] = line
        with tempfile.TemporaryDirectory() as scratch:
            scratch = Path(scratch)
            bad = scratch / "bad.jsonl"
            bad.write_text("".join(text + "\n" for text in lines), encoding="utf-8")
            for i, argv in enumerate(_readers(kind, corpus, bad)):
                code, err, written = _run(argv, scratch / f"run{i}")
                assert code in (0, 2), err
                if code == 2:
                    assert READ_ERROR.match(err) or POST_READ.match(err), err
                    assert written == {}, err
                else:
                    assert _run(argv, scratch / f"again{i}") == (0, "", written)

    check()


def _json_with_keys(keys: list):
    """Any JSON value whose objects mostly use ``keys``."""
    return st.recursive(
        st.none() | st.booleans() | st.integers(-5, 40) | st.floats() | st.text(max_size=8),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.sampled_from(keys) | st.text(max_size=6), inner, max_size=4),
        max_leaves=12)


_CONFIG_KEYS = sorted(GenConfig(seed=0, num_theories=1).to_dict())
_JSON = _json_with_keys(_CONFIG_KEYS)


def _near_valid_configs():
    """Valid config dicts with some keys dropped, added or given other
    JSON values, so that most draws reach the range checks."""
    base = GenConfig(seed=0, num_theories=1).to_dict()
    changes = st.dictionaries(st.sampled_from(_CONFIG_KEYS) | st.text(max_size=6),
                              st.integers(-5, 40) | st.floats() | _JSON, max_size=3)
    drops = st.sets(st.sampled_from(_CONFIG_KEYS), max_size=2)
    return st.builds(lambda change, drop: {k: v for k, v in {**base, **change}.items()
                                           if k not in drop}, changes, drops)


@given(st.one_of(_JSON, _near_valid_configs()),
       st.none() | st.integers(-2, 10))
@settings(max_examples=200, deadline=None)
def test_config_from_any_json_builds_or_raises_config_error(value, seed):
    try:
        cfg = GenConfig.from_dict(value, seed=seed)
    except ConfigError:
        return
    assert GenConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


_SCORER_KEYS = sorted(LinearScorer.untrained().to_dict())
_SCORER_JSON = _json_with_keys(_SCORER_KEYS)


def _near_valid_scorers():
    """Valid scorer dicts with drawn weights, some keys dropped, added or
    given other JSON values, so that most draws reach the field checks and
    some build a trained-looking scorer."""
    base = LinearScorer.untrained().to_dict()
    size = len(base["weights"])
    finite = st.floats(-1e6, 1e6) | st.integers(-10**6, 10**6)
    weights = (st.lists(finite, min_size=size, max_size=size)
               | st.lists(finite | st.floats() | st.integers() | st.booleans(),
                          min_size=size - 1, max_size=size + 1))
    changes = st.dictionaries(st.sampled_from(_SCORER_KEYS) | st.text(max_size=6),
                              st.integers(-5, 40) | st.floats() | _SCORER_JSON, max_size=2)
    drops = st.sets(st.sampled_from(_SCORER_KEYS), max_size=1)
    return st.builds(lambda drawn, change, drop: {
        k: v for k, v in {**base, "weights": drawn, **change}.items() if k not in drop},
        weights, changes, drops)


@given(st.one_of(_SCORER_JSON, _near_valid_scorers()))
@settings(max_examples=200, deadline=None)
def test_scorer_from_any_json_builds_or_raises_scorer_error(value):
    try:
        scorer = LinearScorer.from_dict(value)
    except ScorerError:
        return
    record = scorer.to_dict()
    assert LinearScorer.from_dict(json.loads(json.dumps(record))).to_dict() == record
