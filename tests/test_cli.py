import json
from pathlib import Path

import pytest

from ruleproofs.cli import run_command
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


class TestExitCodes:
    def test_usage_error_is_one(self):
        assert run_command(["no-such-command"]) == 1
        assert run_command(["decode"]) == 1  # missing required --theories
        assert run_command(["decode", "--theories", "t.jsonl", "--threads", "2"]) == 1

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

    @pytest.mark.parametrize("case", ["short", "long", "nan", "above_one", "edge_shape",
                                      "duplicate"])
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
        else:
            bad["edge_prob"] = [row[:2] for row in bad["edge_prob"]]
        pots.write_text("".join(json.dumps(r) + "\n" for r in records))
        capsys.readouterr()

        out = tmp_path / "decoded.jsonl"
        code = run_command(["decode", "--theories", str(test_file), str(pots), "-o", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "bad potentials record on line 2" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_critical_rejects_non_stratified_theory_with_questions(self, tmp_path):
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
        out = tmp_path / "critical.jsonl"
        assert run_command(["critical", str(bare), "-o", str(out)]) == 0
        assert out.read_text() == ""
        out.unlink()
        assert run_command(["critical", str(asked), "-o", str(out)]) == 2
        assert not out.exists()

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

    def test_baseline_training_and_scoring(self, workspace, tmp_path):
        train_file = workspace / "data" / "train.theories.jsonl"
        dev_file = workspace / "data" / "dev.theories.jsonl"
        scorer = tmp_path / "scorer.json"
        run_ok(["train-baseline", train_file, "-o", scorer])
        payload = json.loads(scorer.read_text())
        assert len(payload["weights"]) == len(payload["features"]) + 1
        scores = tmp_path / "scores.jsonl"
        run_ok(["score-edges", "--scorer", scorer, dev_file, "-o", scores])
        row = json.loads(scores.read_text().splitlines()[0])
        assert {"src", "dst", "prob", "label"} == set(row["cells"][0])
        pots = tmp_path / "baseline_pots.jsonl"
        run_ok(["score-edges", "--scorer", scorer, dev_file, "-o", pots,
                "--emit-potentials"])
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
