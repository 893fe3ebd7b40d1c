import json
import re
import shlex
from itertools import product, zip_longest
from pathlib import Path

import pytest

from ruleproofs import cli, datagen
from ruleproofs.cli import run_command
from ruleproofs.potentials import FEATURE_NAMES, LinearScorer
from ruleproofs.proofgraph import ProofGraph
from ruleproofs.reasoner import check_proof
from ruleproofs.theory import Literal, Theory, make_fact, make_question, make_rule, write_theories


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.json"
    config.write_text(json.dumps({
        "num_theories": 10, "max_depth": 3, "negation_rate": 0.3,
        "questions_per_theory": 6, "profile": "people", "seed": 0,
    }))
    data = root / "data"
    assert run_command(["generate", "--config", str(config), "--seed", "7",
                        "-o", str(data)]) == 0
    return root


def run_ok(argv):
    assert run_command([str(a) for a in argv]) == 0


NESTED = '{"id": ' + "[" * 5000 + "]" * 5000 + "}"  # valid JSON, too deep to decode


READERS = ["answer", "prove", "mask-export", "oracle-potentials", "train-baseline",
           "score-edges", "decode", "eval", "critical", "render-dot"]


def reader_argv(command, theories, out):
    """Argv for ``command`` reading the theory file ``theories`` and
    writing ``out``; a scorer and an empty input file are made beside
    ``out`` where the command needs them."""
    scorer, empty = out.parent / "scorer.json", out.parent / "empty.jsonl"
    scorer.write_text(json.dumps(LinearScorer.untrained().to_dict()))
    empty.write_text("")
    argv = {
        "oracle-potentials": [command, "--seed", "0", theories, "-o", out],
        "score-edges": [command, "--scorer", scorer, theories, "-o", out],
        "decode": [command, "--theories", theories, empty, "-o", out],
        "eval": [command, "--theories", theories, empty, "-o", out],
        "render-dot": [command, theories, "-o", out],
    }.get(command, [command, theories, "-o", out])
    return [str(a) for a in argv]


class TestGenerate:
    def test_outputs_exist(self, workspace):
        data = workspace / "data"
        for name in ("train.theories.jsonl", "dev.theories.jsonl",
                     "test.theories.jsonl", "manifest.json"):
            assert (data / name).exists()

    def test_manifest_echoes_seed_override(self, workspace):
        manifest = json.loads((workspace / "data" / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 7

    def test_rerun_is_byte_identical(self, workspace):
        data2 = workspace / "data2"
        run_ok(["generate", "--config", workspace / "config.json", "--seed", 7,
                "-o", data2])
        for name in ("train.theories.jsonl", "dev.theories.jsonl",
                     "test.theories.jsonl", "manifest.json"):
            assert (workspace / "data" / name).read_bytes() == (data2 / name).read_bytes()


def test_readme_commands_parse():
    # every stage of README's command-line block parses, continuation lines
    # joined, so an option dropped from the CLI but still shown there fails
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if not line.lstrip().startswith("#")]
    stages = re.split(r"[|\n]", "\n".join(lines).replace("\\\n", " "))
    commands = [stage.strip() for stage in stages if stage.strip()]
    assert len(commands) > 10
    for command in commands:
        words = shlex.split(command)
        assert words[0] == "ruleproofs", command
        cli.build_parser().parse_args(words[1:])


class TestExitCodes:
    def test_usage_error_is_one(self, tmp_path, capsys):
        assert run_command(["no-such-command"]) == 1
        assert run_command(["decode"]) == 1  # missing required --theories
        assert run_command(["decode", "--theories", "t.jsonl", "--threads", "2"]) == 1
        # out-of-range values are rejected before the (missing) input is read
        missing = str(tmp_path / "missing.jsonl")
        assert run_command(["generate", "--config", missing, "--seed", "-1", "-o", missing]) == 1
        assert run_command(["oracle-potentials", "--seed", "-3", missing]) == 1
        capsys.readouterr()
        assert run_command(["prove", "--max-proofs", "5", missing]) == 1  # prove has no cap
        assert "usage error: unrecognized arguments: --max-proofs" in capsys.readouterr().err
        assert run_command(["oracle-potentials", "--seed", "1", "--noise", "0.7", missing]) == 1
        assert run_command(["oracle-potentials", "--seed", "1", "--noise", "-0.1", missing]) == 1
        for option in ("--epochs", "--learning-rate"):  # training settings are fixed
            assert run_command(["train-baseline", option, "1", missing]) == 1
            assert f"unrecognized arguments: {option}" in capsys.readouterr().err
        # a flag that the other flag of its pair would make ignored
        assert run_command(["decode", "--theories", missing, "--no-connectivity",
                            "--unconstrained", missing]) == 1
        assert run_command(["oracle-potentials", "--seed", "1", "--noise", "0.3",
                            "--adversarial", missing]) == 1
        assert run_command(["oracle-potentials", "--seed", "1", "--adversarial",
                            "--noise", "0", missing]) == 1

    @pytest.mark.parametrize("config, message", [
        ({"seed": 0, "num_theories": 2, "max_dept": 5}, "unknown key 'max_dept'"),
        ({"seed": 0, "num_theories": 2, "max_depth": "5"}, "max_depth must be an integer"),
        ({"seed": 0, "num_theories": 2.5}, "num_theories must be an integer"),
        ({"seed": 0, "num_theories": 2, "facts_per_theory": [3]}, "a pair of integers"),
        ({"seed": 0, "num_theories": 2, "negation_rate": "0.3"}, "negation_rate must be a number"),
        ({"seed": 0, "max_depth": 2}, "missing key 'num_theories'"),
        ([{"seed": 0, "num_theories": 2}], "must be a JSON object"),
        ({"seed": 0, "num_theories": 2, "max_depth": 9}, "max_depth must be in 0..5"),
    ], ids=["unknown_key", "string_int", "float_int", "short_pair", "string_number",
            "missing_key", "list", "out_of_range"])
    def test_bad_generator_config_is_a_data_error(self, tmp_path, capsys, config, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "data"
        code = run_command(["generate", "--config", str(path), "--seed", "1", "-o", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert message in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_unreachable_fact_count_names_the_shortfall(self, tmp_path, capsys):
        # distractor facts are drawn in a capped loop, so drafts fall short of 25
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "seed": 0, "num_theories": 1, "facts_per_theory": [25, 25],
            "rules_per_theory": [0, 0], "max_depth": 0, "negation_rate": 0.0,
            "questions_per_theory": 6, "profile": "people"}))
        out = tmp_path / "data"
        code = run_command(["generate", "--config", str(path), "--seed", "1", "-o", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "after 60 attempts: " in err
        assert "minimum of 25 facts" in err
        assert int(re.search(r"at most (\d+) facts", err).group(1)) < 25
        assert "Traceback" not in err
        assert not out.exists()

    def test_invalid_generated_theory_is_an_internal_error(self, workspace, tmp_path,
                                                           capsys, monkeypatch):
        build_draft = datagen._build_draft

        def duplicated_fact(rng, cfg, profile):
            draft, context = build_draft(rng, cfg, profile)
            draft.facts.append(draft.facts[0])
            return draft, context

        monkeypatch.setattr(datagen, "_build_draft", duplicated_fact)
        out = tmp_path / "data"
        code = run_command(["generate", "--config", str(workspace / "config.json"),
                            "--seed", "7", "-o", str(out)])
        err = capsys.readouterr().err
        assert code == 3
        assert "internal error: generated theory T00000 is invalid" in err
        assert "duplicate of F" in err
        assert not out.exists()

    def test_unstatable_generated_sentence_is_an_internal_error(self, workspace, tmp_path,
                                                               capsys, monkeypatch):
        build_draft = datagen._build_draft

        def unstatable_fact(rng, cfg, profile):
            draft, context = build_draft(rng, cfg, profile)
            draft.facts.append(Literal("alan", "likes", "bob"))  # renders "likess"
            return draft, context

        monkeypatch.setattr(datagen, "_build_draft", unstatable_fact)
        out = tmp_path / "data"
        code = run_command(["generate", "--config", str(workspace / "config.json"),
                            "--seed", "7", "-o", str(out)])
        err = capsys.readouterr().err
        assert code == 3
        assert re.search(r"internal error: generated theory T00000 is invalid: F\d+: "
                         r"relation verb 'likes' must be in base form", err)
        assert not out.exists()

    def test_data_error_is_two(self, workspace, tmp_path):
        assert run_command(["answer", str(tmp_path / "missing.jsonl")]) == 2
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json}\n")
        assert run_command(["answer", str(bad)]) == 2

    def test_schema_violation_is_two(self, workspace, tmp_path):
        test_file = workspace / "data" / "test.theories.jsonl"
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps({
            "theory_id": "missing", "question_id": "Q1", "answer": True,
            "nodes": ["F1"], "edges": []}) + "\n")
        assert run_command(["eval", "--theories", str(test_file), str(preds)]) == 2

    @pytest.mark.parametrize("bad", ["json", "output"])
    def test_eval_path_it_cannot_open_leaves_neither_report(self, workspace, tmp_path, bad):
        test_file = workspace / "data" / "test.theories.jsonl"
        preds = tmp_path / "preds.jsonl"
        preds.write_text("".join(
            json.dumps({"theory_id": theory["id"], "question_id": q["id"],
                        "answer": q["answer"], **q["proofs"][0]}) + "\n"
            for theory in map(json.loads, test_file.read_text().splitlines())
            for q in theory["questions"]))
        out, report = tmp_path / "report.txt", tmp_path / "report.json"
        argv = ["eval", "--theories", str(test_file), str(preds),
                "-o", str(out), "--json", str(report)]
        run_ok(argv)
        out.unlink()
        report.unlink()
        argv[argv.index(str(out if bad == "output" else report))] = str(tmp_path / "missing" / bad)
        assert run_command(argv) == 2
        assert not out.exists() and not report.exists()

    @pytest.mark.parametrize("field, value", [
        ("nodes", [1]),
        ("nodes", "F1"),
        ("edges", [["F1", "R1", "R2"]]),
        ("question_id", ["Q1"]),
        ("connectivity_relaxed", "false"),
        (None, "[1, 2]"),
        (None, "not json"),
        ("answer", False),
        ("objective", True),
    ], ids=["int_node", "string_nodes", "three_element_edge", "list_question_id",
            "string_relaxed", "list_record", "invalid_json", "duplicate", "bad_objective"])
    def test_malformed_prediction_is_a_data_error(self, workspace, tmp_path, capsys,
                                                  field, value):
        """``field`` of the second record set to ``value``, or, with no
        field, the second line replaced by ``value``. A new answer alone
        predicts the first record's question again."""
        test_file = workspace / "data" / "test.theories.jsonl"
        theory = json.loads(test_file.read_text().splitlines()[0])
        good = {"theory_id": theory["id"], "question_id": theory["questions"][0]["id"],
                "answer": True, "nodes": ["F1"], "edges": []}
        preds = tmp_path / "preds.jsonl"
        second = json.dumps({**good, field: value}) if field else value
        preds.write_text(json.dumps(good) + "\n" + second + "\n")
        capsys.readouterr()
        code = run_command(["eval", "--theories", str(test_file), str(preds)])
        err = capsys.readouterr().err
        assert code == 2
        assert "bad prediction record on line 2" in err
        assert {"[1, 2]": "line 2: record must be a JSON object, got list",
                "not json": "line 2: invalid JSON: Expecting value (column 1)",
                "answer": f"line 2: question {good['theory_id']}/{good['question_id']} "
                          "already read on line 1",
                "objective": "line 2: objective must be a JSON number, got True",
                }.get(value if field is None else field, "") in err
        assert "Traceback" not in err

    def test_prediction_without_a_key_names_the_key(self, workspace, tmp_path, capsys):
        test_file = workspace / "data" / "test.theories.jsonl"
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps({"theory_id": "T1", "question_id": "Q1",
                                     "nodes": ["F1"], "edges": []}) + "\n")
        capsys.readouterr()
        assert run_command(["eval", "--theories", str(test_file), str(preds)]) == 2
        assert "bad prediction record on line 1: missing key 'answer'" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("case, message", [
        ("swapped_ids", "id F2: expected F1"),
        ("unknown_proof_node", "gold proof names unknown node 'F99'"),
        ("nonsense", "F1: cannot parse clause 'nonsense'"),
        ("string_answer", "answer must be a JSON boolean, got 'yes'"),
        ("float_depth", "depth must be an integer, got 2.0"),
        ("no_antecedents", "R1: rule sentence needs exactly one 'then'"),
        ("variable_fact", "F1: entity token 'Someone' is a reserved word"),
        ("variable_question", "Q1: entity token 'Something' is a reserved word"),
        ("int_theory_id", "theory id must be a string, got 5"),
        ("int_text", "text must be a string, got 5"),
        ("third_person_verb", "Q1: relation verb 'likes' must be in base form"),
        ("empty_proof", "Q1: a gold proof has no nodes"),
        ("edge_end_not_a_node", "Q1: a gold proof's edges name ['NAF'] outside its nodes"),
        ("missing_fact_id", "bad theory record on line 2: missing key 'id'"),
        ("id_only", "bad theory record on line 2: missing key 'facts'"),
        ("misspelt_facts", "bad theory record on line 2: missing key 'facts'"),
        ("dict_fact_id", "bad theory record on line 2: id must be a string, got {}"),
        ("list_rule_id", "bad theory record on line 2: id must be a string, got ['R1']"),
        ("number_question_id", "bad theory record on line 2: id must be a string, got 1"),
    ], ids=["swapped_ids", "unknown_proof_node", "nonsense", "string_answer", "float_depth",
            "no_antecedents", "variable_fact", "variable_question", "int_theory_id",
            "int_text", "third_person_verb", "empty_proof", "edge_end_not_a_node",
            "missing_fact_id", "id_only", "misspelt_facts", "dict_fact_id", "list_rule_id",
            "number_question_id"])
    def test_theory_record_checked_at_read(self, workspace, tmp_path, capsys, case, message):
        test_file = workspace / "data" / "test.theories.jsonl"
        records = [json.loads(line) for line in test_file.read_text().splitlines()[:2]]
        bad = records[1]
        question = bad["questions"][0]
        if case == "swapped_ids":
            bad["facts"][0]["id"], bad["facts"][1]["id"] = "F2", "F1"
        elif case == "unknown_proof_node":
            question["proofs"][-1]["nodes"].append("F99")
        elif case == "nonsense":
            bad["facts"][0]["text"] = "Nonsense."
        elif case == "string_answer":
            question["answer"] = "yes"
        elif case == "float_depth":
            question["depth"] = 2.0
        elif case == "no_antecedents":
            bad["rules"][0]["text"] = "If then Alan is blue."
        elif case == "variable_fact":
            bad["facts"][0]["text"] = "Someone is blue."
        elif case == "variable_question":
            question["text"] = "Something is blue."
        elif case == "int_theory_id":
            bad["id"] = 5
        elif case == "third_person_verb":
            question["text"] = "Alan likess Bob."
        elif case == "empty_proof":
            question["proofs"][-1] = {"nodes": [], "edges": []}
        elif case == "edge_end_not_a_node":
            question["proofs"][-1] = {"nodes": ["F1"], "edges": [["F1", "NAF"]]}
        elif case == "missing_fact_id":
            del bad["facts"][0]["id"]
        elif case == "id_only":  # not an empty theory
            records[1] = {"id": bad["id"]}
        elif case == "misspelt_facts":  # not a theory without facts
            bad["fact"] = bad.pop("facts")
        elif case == "dict_fact_id":
            bad["facts"][0]["id"] = {}
        elif case == "list_rule_id":
            bad["rules"][0]["id"] = ["R1"]
        elif case == "number_question_id":
            question["id"] = 1
        else:
            bad["rules"][0]["text"] = 5
        theories = tmp_path / "theories.jsonl"
        theories.write_text("".join(json.dumps(r) + "\n" for r in records))
        capsys.readouterr()

        out = tmp_path / "labels.jsonl"
        code = run_command(["mask-export", str(theories), "-o", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert message in err
        assert "line 2" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("case", ["null_weights", "list", "nested_weights", "two_weights",
                                      "string_learning_rate", "reversed_features",
                                      "zero_epochs", "string_seed"])
    def test_malformed_scorer_is_a_data_error(self, workspace, tmp_path, capsys, case):
        payload = LinearScorer.untrained().to_dict()
        if case == "null_weights":
            payload["weights"] = None
        elif case == "list":
            payload = [payload]
        elif case == "nested_weights":
            payload["weights"] = [[w] for w in payload["weights"]]
        elif case == "two_weights":
            payload["weights"] = [0.0, 0.0]
        elif case == "string_learning_rate":
            payload["learning_rate"] = "x"
        elif case == "reversed_features":
            payload["features"] = list(reversed(FEATURE_NAMES))
        elif case == "zero_epochs":
            payload["epochs"] = 0
        else:
            payload["seed"] = "1"
        scorer = tmp_path / "scorer.json"
        scorer.write_text(json.dumps(payload))
        out = tmp_path / "scores.jsonl"
        capsys.readouterr()
        code = run_command(["score-edges", "--scorer", str(scorer),
                            str(workspace / "data" / "dev.theories.jsonl"), "-o", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        field = {"list": "scorer", "string_learning_rate": "learning_rate",
                 "reversed_features": "features", "zero_epochs": "epochs",
                 "string_seed": "seed"}.get(case, "weights")
        assert f"error: {field} must be" in err
        assert not out.exists()

    def test_unreadable_input_is_a_data_error(self, tmp_path, capsys):
        assert run_command(["answer", str(tmp_path)]) == 2
        assert run_command(["generate", "--config", str(tmp_path), "--seed", "1",
                            "-o", str(tmp_path / "data")]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_undecodable_input_is_a_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"\xff{}\n")
        assert run_command(["answer", str(bad)]) == 2
        assert "error: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err

    def test_empty_training_set_is_a_data_error(self, tmp_path, capsys):
        theories = tmp_path / "theories.jsonl"
        with open(theories, "w", encoding="utf-8") as fp:
            write_theories(fp, [Theory("T1", (make_fact("F1", Literal("alan", "blue")),), (), ())])
        out = tmp_path / "scorer.json"
        assert run_command(["train-baseline", str(theories), "-o", str(out)]) == 2
        assert "error: empty training set" in capsys.readouterr().err

    @pytest.mark.parametrize("error", [KeyError, ValueError])
    def test_internal_key_or_value_error_is_three(self, workspace, tmp_path, capsys,
                                                  monkeypatch, error):
        def broken_closure(t):
            raise error("broken invariant")

        monkeypatch.setattr(cli.reasoner, "closure", broken_closure)
        out = tmp_path / "answers.jsonl"
        code = run_command(["answer", str(workspace / "data" / "test.theories.jsonl"),
                            "-o", str(out)])
        err = capsys.readouterr().err
        assert code == 3
        assert "internal error:" in err and "broken invariant" in err
        assert not out.exists()

    def test_broken_pipe_exits_zero(self, monkeypatch):
        def closed_pipe(args):
            raise BrokenPipeError

        monkeypatch.setitem(cli._COMMANDS, "answer", closed_pipe)
        monkeypatch.setattr("sys.argv", ["ruleproofs", "answer"])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == 0

    def test_unknown_prediction_node_names_the_prediction(self, workspace, tmp_path, capsys):
        test_file = workspace / "data" / "test.theories.jsonl"
        theory = json.loads(test_file.read_text().splitlines()[0])
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps({
            "theory_id": theory["id"], "question_id": theory["questions"][0]["id"],
            "answer": True, "nodes": ["Fx"], "edges": []}) + "\n")
        capsys.readouterr()
        code = run_command(["eval", "--theories", str(test_file), str(preds)])
        err = capsys.readouterr().err
        assert code == 2
        assert (f"prediction for {theory['id']}/{theory['questions'][0]['id']} "
                "references unknown sentence Fx") in err

    @pytest.mark.parametrize("edges, unknown", [
        ([["F1", "R99"]], "R99"),
        ([["F7", "F8"]], "F7"),
    ], ids=["unknown_rule", "unknown_facts"])
    def test_prediction_edge_to_unknown_sentence_names_the_prediction(
            self, tmp_path, capsys, edges, unknown):
        t = Theory("T1", (make_fact("F1", Literal("alan", "blue")),),
                   (make_rule("R1", [Literal("someone", "blue")], Literal("someone", "cold")),),
                   (make_question("Q1", Literal("alan", "blue"), gold_answer=True,
                                  gold_proofs=(ProofGraph.of(["F1"]),), gold_depth=0),))
        theories, preds = tmp_path / "t.jsonl", tmp_path / "preds.jsonl"
        with theories.open("w", encoding="utf-8") as fp:
            write_theories(fp, [t])
        preds.write_text(json.dumps({"theory_id": "T1", "question_id": "Q1", "answer": True,
                                     "nodes": ["F1"], "edges": edges}) + "\n")
        capsys.readouterr()
        assert run_command(["eval", "--theories", str(theories), str(preds)]) == 2
        assert (f"prediction for T1/Q1 references unknown sentence {unknown}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("case", ["short", "long", "nan", "above_one", "edge_shape",
                                      "duplicate", "string", "bool", "huge_int", "short_row",
                                      "infinity", "negative", "nested_node", "unknown_theory",
                                      "unknown_question", "missing_question_id",
                                      "list_theory_id", "list_record", "invalid_json"])
    def test_malformed_potentials_are_data_errors(self, workspace, tmp_path, capsys, case):
        test_file = workspace / "data" / "test.theories.jsonl"
        pots = tmp_path / "pots.jsonl"
        run_ok(["oracle-potentials", "--seed", 1, "--noise", 0, test_file, "-o", pots])
        records = [json.loads(line) for line in pots.read_text().splitlines()[:2]]
        bad = records[1]
        size = len(bad["node_prob"])
        if case == "short":
            bad["node_prob"] = bad["node_prob"][:3]
            bad["edge_prob"] = [row[:3] for row in bad["edge_prob"][:3]]
        elif case == "long":  # extra slots would decode as rules the theory lacks
            bad["node_prob"] += [0.9] * 3
            bad["edge_prob"] = [row + [0.9] * 3 for row in bad["edge_prob"]] \
                + [[0.9] * (size + 3)] * 3
        elif case == "nan":
            bad["node_prob"][0] = float("nan")
        elif case == "above_one":
            bad["edge_prob"][0][0] = 1.5
        elif case == "duplicate":  # a second record for the first question
            records[1] = records[0]
        elif case == "string":
            bad["node_prob"] = [str(x) for x in bad["node_prob"]]
        elif case == "bool":
            bad["edge_prob"] = [[x > 0.5 for x in row] for row in bad["edge_prob"]]
        elif case == "huge_int":  # a JSON integer that no float can hold
            bad["edge_prob"][0][0] = 10 ** 400
        elif case == "short_row":
            bad["edge_prob"][-1] = bad["edge_prob"][-1][:-1]
        elif case == "infinity":  # written as the JSON extension Infinity
            bad["node_prob"][0] = float("inf")
        elif case == "negative":
            bad["edge_prob"][0][1] = -0.25
        elif case == "nested_node":
            bad["node_prob"][0] = [bad["node_prob"][0]]
        elif case == "unknown_theory":
            bad["theory_id"] = "T99999"
        elif case == "unknown_question":
            bad["question_id"] = "Q99"
        elif case == "missing_question_id":
            del bad["question_id"]
        elif case == "list_theory_id":
            bad["theory_id"] = [bad["theory_id"]]
        elif case == "list_record":
            records[1] = [1, 2]
        elif case != "invalid_json":
            bad["edge_prob"] = [row[:2] for row in bad["edge_prob"]]
        lines = [json.dumps(r) for r in records]
        if case == "invalid_json":
            lines[1] = "not json"
        pots.write_text("".join(line + "\n" for line in lines))
        capsys.readouterr()

        out = tmp_path / "decoded.jsonl"
        code = run_command(["decode", "--theories", str(test_file), str(pots), "-o", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "bad potentials record on line 2" in err
        assert {"unknown_theory": "line 2: unknown theory 'T99999'",
                "unknown_question": f"line 2: unknown question {bad['theory_id']}/Q99",
                "missing_question_id": "line 2: missing key 'question_id'",
                "list_theory_id": f"line 2: theory_id must be a string, got {bad['theory_id']!r}",
                "list_record": "line 2: record must be a JSON object, got list",
                "invalid_json": "line 2: invalid JSON: Expecting value (column 1)",
                "duplicate": f"line 2: question {records[0]['theory_id']}/"
                             f"{records[0]['question_id']} already read on line 1",
                }.get(case, "") in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_bad_last_potentials_record_leaves_no_output(self, workspace, tmp_path, capsys):
        test_file = workspace / "data" / "test.theories.jsonl"
        pots = tmp_path / "pots.jsonl"
        run_ok(["oracle-potentials", "--seed", 1, "--noise", 0, test_file, "-o", pots])
        records = [json.loads(line) for line in pots.read_text().splitlines()]
        records[-1]["node_prob"][0] = 2.0
        pots.write_text("".join(json.dumps(r) + "\n" for r in records))
        capsys.readouterr()

        out = tmp_path / "decoded.jsonl"
        code = run_command(["decode", "--theories", str(test_file), str(pots), "-o", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"bad potentials record on line {len(records)}: node_prob" in err
        assert not out.exists()

    def test_negative_rule_consequent_is_rejected_at_read(self, tmp_path, capsys):
        # no rule can hold this text, so the record is written by hand
        theories = tmp_path / "theories.jsonl"
        theories.write_text(json.dumps({
            "id": "T1", "facts": [{"id": "F1", "text": "Alan is blue."}],
            "rules": [{"id": "R1", "text": "If Alan is blue then Alan is not kind."}],
            "questions": [{"id": "Q1", "text": "Alan is kind."}]}) + "\n")
        out = tmp_path / "answers.jsonl"
        capsys.readouterr()
        code = run_command(["answer", str(theories), "-o", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "bad theory record on line 1: R1: rule consequent must be positive" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["answer", "mask-export", "eval"])
    def test_duplicate_fact_is_rejected_at_read(self, workspace, tmp_path, capsys, command):
        test_file = workspace / "data" / "test.theories.jsonl"
        records = [json.loads(line) for line in test_file.read_text().splitlines()[:2]]
        facts = records[1]["facts"]
        facts.append({"id": f"F{len(facts) + 1}", "text": facts[0]["text"]})
        theories = tmp_path / "theories.jsonl"
        theories.write_text("".join(json.dumps(r) + "\n" for r in records))
        argv = [command, theories]
        if command == "eval":
            pots, preds = tmp_path / "p.jsonl", tmp_path / "d.jsonl"
            run_ok(["oracle-potentials", "--seed", 0, test_file, "-o", pots])
            run_ok(["decode", "--theories", test_file, pots, "-o", preds])
            argv = [command, "--theories", theories, preds]
        out = tmp_path / "out"
        capsys.readouterr()
        code = run_command([str(a) for a in argv] + ["-o", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert (f"bad theory record on line 2: theory {records[1]['id']!r}: "
                f"F{len(facts)}: duplicate of F1") in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", READERS)
    def test_repeated_theory_id_is_rejected_at_read(self, workspace, tmp_path, capsys,
                                                   command):
        test_file = workspace / "data" / "test.theories.jsonl"
        first = json.loads(test_file.read_text().splitlines()[0])
        theories = tmp_path / "theories.jsonl"
        theories.write_text(json.dumps(first) + "\n" + json.dumps(first) + "\n")
        out = tmp_path / "out"
        capsys.readouterr()
        code = run_command(reader_argv(command, theories, out))
        err = capsys.readouterr().err
        assert code == 2
        assert f"bad theory record on line 2: theory id {first['id']!r} already read on line 1" \
            in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", READERS)
    @pytest.mark.parametrize("text", ["Alan does not doe Bob.", "Alan does not i Bob."],
                             ids=["doe", "i"])
    def test_verb_with_a_reserved_third_person_is_rejected_at_read(
            self, workspace, tmp_path, capsys, command, text):
        # "Alan does Bob." and "Alan is Bob." would not read
        test_file = workspace / "data" / "test.theories.jsonl"
        record = json.loads(test_file.read_text().splitlines()[0])
        fact_id = f"F{len(record['facts']) + 1}"
        record["facts"].append({"id": fact_id, "text": text})
        theories = tmp_path / "theories.jsonl"
        theories.write_text(json.dumps(record) + "\n")
        out = tmp_path / "out"
        capsys.readouterr()
        code = run_command(reader_argv(command, theories, out))
        err = capsys.readouterr().err
        assert code == 2
        assert f"bad theory record on line 1: {fact_id}: relation verb" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("theory_id", ["../escaped", 'T"1'], ids=["parent_dir", "quote"])
    def test_render_dot_rejects_an_id_that_cannot_name_a_file(self, workspace, tmp_path,
                                                             capsys, theory_id):
        test_file = workspace / "data" / "test.theories.jsonl"
        record = json.loads(test_file.read_text().splitlines()[0])
        record["id"] = theory_id
        root = tmp_path / "root"
        root.mkdir()
        theories = root / "theories.jsonl"
        theories.write_text(json.dumps(record) + "\n")
        capsys.readouterr()
        code = run_command(["render-dot", str(theories), "-o", str(root / "dots")])
        err = capsys.readouterr().err
        assert code == 2
        assert f"theory id {theory_id!r} cannot name a DOT file" in err
        assert "Traceback" not in err
        assert sorted(p.relative_to(root).as_posix() for p in root.rglob("*")) \
            == ["theories.jsonl"]

    @pytest.mark.parametrize("command,key,message", [
        (["mask-export"], "answer", "has no gold answer to label"),
        (["mask-export"], "proofs", "has no gold proofs"),
        (["oracle-potentials", "--seed", "0"], "proofs", "has no gold proofs"),
        (["train-baseline"], "proofs", "has no gold proofs"),
    ])
    def test_missing_gold_is_rejected_before_any_output(self, workspace, tmp_path, capsys,
                                                        command, key, message):
        test_file = workspace / "data" / "test.theories.jsonl"
        records = [json.loads(line) for line in test_file.read_text().splitlines()[:2]]
        question = records[1]["questions"][0]
        del question[key]
        theories = tmp_path / "theories.jsonl"
        theories.write_text("".join(json.dumps(r) + "\n" for r in records))
        out = tmp_path / "out.jsonl"
        capsys.readouterr()
        code = run_command(command + [str(theories), "-o", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"question {records[1]['id']}/{question['id']} {message}" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("reordered", [False, True])
    @pytest.mark.parametrize("command", ["answer", "prove", "critical", "mask-export"])
    def test_duplicate_rule_is_rejected_at_read(self, tmp_path, capsys, command, reordered):
        blue, rough = Literal("someone", "blue"), Literal("someone", "rough")
        kind = Literal("someone", "kind")
        theories = tmp_path / "theories.jsonl"
        with open(theories, "w", encoding="utf-8") as fp:
            write_theories(fp, [Theory(
                "T1", (make_fact("F1", Literal("alan", "blue")),
                       make_fact("F2", Literal("alan", "rough"))),
                (make_rule("R1", [blue, rough], kind),
                 make_rule("R2", [rough, blue] if reordered else [blue, rough], kind)),
                (make_question("Q1", Literal("alan", "kind"), gold_answer=True),))])
        second = "If someone is rough and blue" if reordered else "If someone is blue and rough"
        assert second + " then they are kind." in theories.read_text()
        out = tmp_path / "out.jsonl"
        capsys.readouterr()
        code = run_command([command, str(theories), "-o", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "bad theory record on line 1: theory 'T1': R2: duplicate of R1" in err
        assert "Traceback" not in err
        assert not out.exists()

    @staticmethod
    def check_cycle_fails_only_with_questions(command, tmp_path, capsys):
        """``command`` compiles a theory only to answer one of its
        questions: a cycle through negation exits 0 with no rows while the
        theory has no question, and 2 once it has one."""
        cycle = (
            make_fact("F1", Literal("alan", "blue")),
        ), (
            make_rule("R1", [Literal("alan", "happy", None, False)], Literal("alan", "quiet")),
            make_rule("R2", [Literal("alan", "quiet")], Literal("alan", "happy")),
        )
        bare = tmp_path / "bare.jsonl"
        asked = tmp_path / "asked.jsonl"
        with open(bare, "w", encoding="utf-8") as fp:
            write_theories(fp, [Theory("T1", *cycle, ())])
        with open(asked, "w", encoding="utf-8") as fp:
            write_theories(fp, [Theory("T1", *cycle,
                                       (make_question("Q1", Literal("alan", "quiet")),))])
        out = tmp_path / f"{command}.jsonl"
        assert run_command([command, str(bare), "-o", str(out)]) == 0
        assert out.read_text() == ""
        out.unlink()
        capsys.readouterr()
        assert run_command([command, str(asked), "-o", str(out)]) == 2
        assert "error: theory 'T1': a dependency cycle through negation" in capsys.readouterr().err
        assert not out.exists()

    def test_critical_rejects_non_stratified_theory_with_questions(self, tmp_path, capsys):
        self.check_cycle_fails_only_with_questions("critical", tmp_path, capsys)

    @pytest.mark.parametrize("command", ["answer", "prove"])
    def test_answer_and_prove_reject_non_stratified_theory_with_questions(
            self, command, tmp_path, capsys):
        self.check_cycle_fails_only_with_questions(command, tmp_path, capsys)

    @pytest.mark.parametrize("command, kind", [
        ("answer", "theory"), ("mask-export", "theory"), ("decode", "potentials"),
        ("eval", "prediction")])
    def test_deeply_nested_record_is_a_data_error(self, workspace, tmp_path, capsys,
                                                  command, kind):
        nested = tmp_path / "nested.jsonl"
        nested.write_text("\n" + NESTED + "\n")
        out = tmp_path / "out.jsonl"
        argv = [command, nested, "-o", out] if kind == "theory" else \
            [command, "--theories", workspace / "data" / "test.theories.jsonl", nested, "-o", out]
        capsys.readouterr()
        code = run_command([str(a) for a in argv])
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: bad {kind} record on line 2: nested too deeply to read" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "score-edges"])
    def test_deeply_nested_json_file_is_a_data_error(self, workspace, tmp_path, capsys, command):
        nested = tmp_path / "nested.json"
        nested.write_text(NESTED)
        out = tmp_path / "out"
        argv = ["generate", "--config", nested, "--seed", "1", "-o", out] \
            if command == "generate" else \
            ["score-edges", "--scorer", nested, workspace / "data" / "dev.theories.jsonl",
             "-o", out]
        capsys.readouterr()
        code = run_command([str(a) for a in argv])
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: {nested}: JSON nested too deeply to read" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_prove_handles_a_chain_past_the_recursion_limit(self, tmp_path):
        # one fact and a chain of 600 ground rules, asked about its last atom
        words = ["".join(w) for w in product("xyz", repeat=6)][:601]
        rules = tuple(make_rule(f"R{i}", [Literal("alan", a)], Literal("alan", b))
                      for i, (a, b) in enumerate(zip(words, words[1:]), start=1))
        t = Theory("T1", (make_fact("F1", Literal("alan", words[0])),), rules,
                   (make_question("Q1", Literal("alan", words[-1])),))
        theories = tmp_path / "chain.jsonl"
        with open(theories, "w", encoding="utf-8") as fp:
            write_theories(fp, [t])
        for command in ("answer", "critical", "prove"):
            run_ok([command, theories, "-o", tmp_path / f"{command}.jsonl"])
        [row] = [json.loads(line) for line in open(tmp_path / "prove.jsonl", encoding="utf-8")]
        [proof] = row["proofs"]
        assert (len(proof["nodes"]), len(proof["edges"]), row["depth"]) == (601, 600, 600)
        assert check_proof(t, t.questions[0], ProofGraph.from_dict(proof))

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            run_command(["--help"])
        assert exc.value.code == 0


class TestPipelines:
    def test_answer_and_prove(self, workspace, tmp_path):
        test_file = workspace / "data" / "test.theories.jsonl"
        answers = tmp_path / "answers.jsonl"
        run_ok(["answer", test_file, "-o", answers])
        rows = [json.loads(line) for line in answers.read_text().splitlines()]
        assert rows and set(rows[0]) == {"theory_id", "question_id", "answer"}

        gold = {}
        for line in test_file.read_text().splitlines():
            record = json.loads(line)
            for q in record["questions"]:
                gold[(record["id"], q["id"])] = q["answer"]
        for row in rows:
            assert row["answer"] == gold[(row["theory_id"], row["question_id"])]

        proofs = tmp_path / "proofs.jsonl"
        run_ok(["prove", test_file, "-o", proofs])
        row = json.loads(proofs.read_text().splitlines()[0])
        assert set(row) == {"theory_id", "question_id", "proofs", "depth"}

    def test_oracle_closure_loop(self, workspace, tmp_path):
        test_file = workspace / "data" / "test.theories.jsonl"
        before = test_file.read_bytes()
        pots = tmp_path / "pots.jsonl"
        preds = tmp_path / "preds.jsonl"
        report_json = tmp_path / "report.json"
        run_ok(["oracle-potentials", "--seed", 1, "--noise", 0, test_file, "-o", pots])
        run_ok(["decode", "--theories", test_file, pots, "-o", preds])
        run_ok(["eval", "--theories", test_file, preds,
                "--label", "oracle", "--json", report_json,
                "-o", tmp_path / "report.txt"])
        report = json.loads(report_json.read_text())
        for row in report["rows"]:
            assert row["qa"] == row["na"] == row["ea"] == row["pa"] == row["fa"] == 1.0
        assert test_file.read_bytes() == before  # inputs are never mutated

    def test_connectivity_ablation_direction(self, workspace, tmp_path):
        test_file = workspace / "data" / "test.theories.jsonl"
        pots = tmp_path / "adv.jsonl"
        run_ok(["oracle-potentials", "--seed", 1, "--adversarial", test_file, "-o", pots])
        full = tmp_path / "full.jsonl"
        ablated = tmp_path / "ablated.jsonl"
        run_ok(["decode", "--theories", test_file, pots, "-o", full])
        run_ok(["decode", "--theories", test_file, pots, "-o", ablated,
                "--no-connectivity"])

        def proof_accuracy(path):
            report = tmp_path / "r.json"
            run_ok(["eval", "--theories", test_file, path, "--json", report,
                    "-o", tmp_path / "r.txt"])
            return json.loads(report.read_text())["rows"][-1]["pa"]

        assert proof_accuracy(full) > proof_accuracy(ablated)

    def test_integer_potentials_decode_like_floats(self, workspace, tmp_path):
        test_file = workspace / "data" / "test.theories.jsonl"
        pots = tmp_path / "pots.jsonl"
        run_ok(["oracle-potentials", "--seed", 1, "--noise", 0, test_file, "-o", pots])
        records = [json.loads(line) for line in pots.read_text().splitlines()]
        for r in records:
            assert set(r["node_prob"]) <= {0.0, 1.0}
            r["node_prob"] = [int(v) for v in r["node_prob"]]
            r["edge_prob"] = [[int(v) for v in row] for row in r["edge_prob"]]
        ints = tmp_path / "ints.jsonl"
        ints.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert "1.0" not in ints.read_text() and "0.0" not in ints.read_text()
        for flags in ([], ["--no-connectivity"], ["--unconstrained"]):
            from_floats, from_ints = tmp_path / "floats.out", tmp_path / "ints.out"
            run_ok(["decode", "--theories", test_file, pots, "-o", from_floats, *flags])
            run_ok(["decode", "--theories", test_file, ints, "-o", from_ints, *flags])
            assert from_ints.read_bytes() == from_floats.read_bytes()

    def test_interleaved_potentials_compile_each_theory_once(self, workspace, tmp_path,
                                                             monkeypatch):
        """A model may emit its records in any order: decode answers each
        theory from one compiled program and writes the rows in input order."""
        test_file = workspace / "data" / "test.theories.jsonl"
        pots = tmp_path / "pots.jsonl"
        run_ok(["oracle-potentials", "--seed", 1, "--noise", 0, test_file, "-o", pots])
        by_theory: dict[str, list[str]] = {}
        for line in pots.read_text().splitlines():
            by_theory.setdefault(json.loads(line)["theory_id"], []).append(line)
        assert max(map(len, by_theory.values())) > 1
        interleaved = [line for group in zip_longest(*by_theory.values())
                       for line in group if line is not None]
        mixed = tmp_path / "mixed.jsonl"
        mixed.write_text("".join(line + "\n" for line in interleaved))
        grouped_out, mixed_out = tmp_path / "grouped.out", tmp_path / "mixed.out"
        run_ok(["decode", "--theories", test_file, pots, "-o", grouped_out])

        compiled = []
        closure = cli.reasoner.closure
        monkeypatch.setattr(cli.reasoner, "closure", lambda t: compiled.append(t.id) or closure(t))
        run_ok(["decode", "--theories", test_file, mixed, "-o", mixed_out])
        assert sorted(compiled) == sorted(by_theory)
        def question(line):
            record = json.loads(line)
            return record["theory_id"], record["question_id"]

        rows = {question(line): line for line in grouped_out.read_text().splitlines()}
        assert mixed_out.read_text().splitlines() == [rows[question(line)] for line in interleaved]

    def test_unconstrained_can_emit_illegal_edges(self, workspace, tmp_path):
        test_file = workspace / "data" / "test.theories.jsonl"
        pots = tmp_path / "p.jsonl"
        run_ok(["oracle-potentials", "--seed", 1, "--noise", 0, test_file, "-o", pots])
        # corrupt one record with a fact->fact probability
        lines = [json.loads(line) for line in pots.read_text().splitlines()]
        target = next(r for r in lines if len(r["node_prob"]) > 2)
        target["edge_prob"][0][1] = 0.9
        pots.write_text("\n".join(json.dumps(r) for r in lines) + "\n")
        out = tmp_path / "u.jsonl"
        run_ok(["decode", "--theories", test_file, pots, "-o", out, "--unconstrained"])
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert any(["F1", "F2"] in r["edges"] for r in rows)

    def test_unconstrained_predictions_from_noisy_potentials_are_scored(
            self, workspace, tmp_path):
        # The ablation thresholds edges between every pair, so an edge may
        # leave the selected nodes; eval scores it like any wrong edge.
        test_file = workspace / "data" / "test.theories.jsonl"
        pots, preds = tmp_path / "p.jsonl", tmp_path / "u.jsonl"
        run_ok(["oracle-potentials", "--seed", 1, "--noise", 0.3, test_file, "-o", pots])
        run_ok(["decode", "--theories", test_file, pots, "-o", preds, "--unconstrained"])
        rows = [json.loads(line) for line in preds.read_text().splitlines()]
        assert any(not set(e) <= set(r["nodes"]) for r in rows for e in r["edges"])
        run_ok(["eval", "--theories", test_file, preds, "-o", tmp_path / "r.txt"])

    def test_mask_export_schema(self, workspace, tmp_path):
        test_file = workspace / "data" / "test.theories.jsonl"
        labels = tmp_path / "labels.jsonl"
        run_ok(["mask-export", test_file, "-o", labels])
        row = json.loads(labels.read_text().splitlines()[0])
        assert list(row) == ["theory_id", "question_id", "qa_label",
                             "node_labels", "edge_labels"]
        flat = [cell for line in row["edge_labels"] for cell in line]
        assert set(flat) <= {-100, 0, 1}
        assert -100 in flat
        assert "true" not in labels.read_text()  # label cells are integers, not booleans

    def test_baseline_training_and_scoring(self, workspace, tmp_path):
        train_file = workspace / "data" / "train.theories.jsonl"
        dev_file = workspace / "data" / "dev.theories.jsonl"
        scorer = tmp_path / "scorer.json"
        run_ok(["train-baseline", train_file, "-o", scorer])
        payload = json.loads(scorer.read_text())
        assert len(payload["weights"]) == len(payload["features"]) + 1
        pots = tmp_path / "baseline_pots.jsonl"
        run_ok(["score-edges", "--scorer", scorer, dev_file, "-o", pots])
        flagged = tmp_path / "flagged_pots.jsonl"
        run_ok(["score-edges", "--scorer", scorer, dev_file, "-o", flagged,
                "--emit-potentials"])
        assert pots.read_bytes() == flagged.read_bytes()
        preds = tmp_path / "baseline_preds.jsonl"
        run_ok(["decode", "--theories", dev_file, pots, "-o", preds])

    def test_critical_output(self, workspace, tmp_path):
        test_file = workspace / "data" / "test.theories.jsonl"
        out = tmp_path / "critical.jsonl"
        run_ok(["critical", test_file, "-o", out])
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert all(set(r) == {"theory_id", "question_id", "critical"} for r in rows)
        expected = [(record["id"], q["id"])
                    for record in map(json.loads, test_file.read_text().splitlines())
                    for q in record["questions"]]
        assert [(r["theory_id"], r["question_id"]) for r in rows] == expected

    def test_render_dot_writes_one_file_per_proof(self, workspace, tmp_path):
        test_file = workspace / "data" / "test.theories.jsonl"
        dots = tmp_path / "dots"
        run_ok(["render-dot", test_file, "-o", dots])
        expected = 0
        for line in test_file.read_text().splitlines():
            for q in json.loads(line)["questions"]:
                expected += len(q["proofs"])
        files = list(Path(dots).glob("*.dot"))
        assert len(files) == expected
        assert files[0].read_text().startswith("digraph")

    def test_full_pipeline_determinism(self, workspace, tmp_path):
        test_file = workspace / "data" / "test.theories.jsonl"
        outputs = []
        for run in ("a", "b"):
            pots = tmp_path / f"{run}.pots.jsonl"
            preds = tmp_path / f"{run}.preds.jsonl"
            report = tmp_path / f"{run}.report.json"
            run_ok(["oracle-potentials", "--seed", 5, "--noise", 0.2, test_file,
                    "-o", pots])
            run_ok(["decode", "--theories", test_file, pots, "-o", preds])
            run_ok(["eval", "--theories", test_file, preds, "--json", report,
                    "-o", tmp_path / f"{run}.report.txt"])
            outputs.append((pots.read_bytes(), preds.read_bytes(), report.read_bytes()))
        assert outputs[0] == outputs[1]
