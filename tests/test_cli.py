import json

import pytest

from bruhatspec import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_interval_figure1(capsys):
    code, out, _ = run(capsys, "interval", "--matrix", "A3",
                       "--word", "3,2,1,2,3")
    assert code == 0
    assert "20 elements, ranks 1,3,5,6,4,1" in out


def test_interval_malformed_word(capsys):
    code, _, err = run(capsys, "interval", "--matrix", "A3", "--word", "1,x")
    assert code == 2
    assert "malformed word" in err


def test_interval_non_reduced_word(capsys):
    code, _, err = run(capsys, "interval", "--matrix", "A2", "--word", "1,1")
    assert code == 2


def test_unknown_verb(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_unknown_matrix(capsys):
    code, _, err = run(capsys, "interval", "--matrix", "Z9", "--word", "1")
    assert code == 2


def test_partition_output(capsys):
    code, out, _ = run(capsys, "partition", "--matrix", "A3",
                       "--word", "2,1,3", "--gen", "2")
    assert code == 0
    assert "W2 (1): e" in out
    assert "W1 (1): 2" in out


def test_pushout_check(capsys):
    code, out, _ = run(capsys, "pushout-check", "--matrix", "A3",
                       "--word", "2,1,3", "--gen", "2")
    assert code == 0
    assert "square_commutes: ok" in out


def test_pipeline_builtin(capsys):
    code, out, _ = run(capsys, "pipeline", "--builtin", "qaffine3")
    assert code == 0
    assert "final: 8 elements" in out


def test_pipeline_builtin_qmatrix(capsys):
    code, out, _ = run(capsys, "pipeline", "--builtin", "qmatrix2")
    assert code == 0
    assert "final: 14 elements, ranks 1,3,5,4,1" in out
    assert "square=ok" in out


def test_pipeline_bad_file(tmp_path, capsys):
    path = tmp_path / "nope.json"
    code, _, err = run(capsys, "pipeline", "--file", str(path))
    assert code == 2


def test_pipeline_verification_failure(tmp_path, capsys):
    d = {"coxeter": "A2",
         "steps": [{"var": "x1", "gen": 1},
                   {"var": "x2", "gen": 2,
                    "delta": {"x1": [{"unit": True}]}}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    code, _, err = run(capsys, "pipeline", "--file", str(path))
    assert code == 1
    assert "verification failure" in err


@pytest.mark.parametrize("step, message", [
    ({"var": "x1", "gen": "2"}, "gen must be null or an integer"),
    ({"var": "x1", "gen": True}, "gen must be null or an integer"),
    ({"var": "x1", "gen": 7}, "invalid generator index 7"),
    ({"var": "x1", "gen": 1, "side": "up"}, 'side must be "left" or "right"'),
    ({"var": ["x1"], "gen": 1}, "step 1: var must be a string"),
    ({"var": "x1", "gen": 1, "delta": [["x1"]]}, "delta must be an object"),
    ("x1", "step 1: expected an object"),
    ({"var": "x1", "gen": 1, "delta": {"x1": "x2"}},
     "expected a list of monomials, got 'x2'"),
    ({"var": "x1", "gen": 1, "delta": {"x1": ["x2"]}},
     "a monomial is a list of strings or a {unit, factors} object"),
    ({"var": "x1", "gen": 1, "delta": {"x1": [["x2", 3]]}},
     "a monomial is a list of strings or a {unit, factors} object"),
    ({"var": "x1", "gen": 1, "rewrite": {"x1": 5}},
     "rewrite must map strings to strings"),
    ({"var": "x1", "gen": 1, "partner": {"x1": "nope"}},
     "partner override names unknown prime"),
    ({"var": "x1", "gen": 1, "partner": {"0": "nope"}},
     "partner override names unknown prime 'nope'"),
])
def test_pipeline_malformed_step_is_usage_error(tmp_path, capsys, step,
                                                message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"coxeter": "A2", "steps": [step]}))
    code, _, err = run(capsys, "pipeline", "--file", str(path))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("expect", [
    {"size": "two"}, {"size": True}, {"rank_profile": 5},
    {"rank_profile": [1, "1"]}, {"sise": 4}, [2],
])
def test_pipeline_malformed_expect_is_usage_error(tmp_path, capsys, expect):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"coxeter": "A2", "expect": expect,
                                "steps": [{"var": "x1", "gen": 1}]}))
    code, out, err = run(capsys, "pipeline", "--file", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "expect must be an object" in err and repr(expect) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["interval", "--matrix", "A2", "--word", "1,2", "--format", "json"],
    ["export", "--matrix", "A2", "--word", "1,2", "--format", "dot"],
    ["pipeline", "--builtin", "qaffine2", "--format", "json"],
])
def test_unwritable_output_is_usage_error(tmp_path, capsys, argv):
    path = tmp_path / "missing" / "x.json"
    code, _, err = run(capsys, *argv, "--output", str(path))
    assert code == 2
    assert err.startswith("error: cannot write") and err.count("\n") == 1
    assert "Traceback" not in err and not path.exists()


def test_pipeline_unknown_builtin_is_usage_error(capsys):
    code, _, err = run(capsys, "pipeline", "--builtin", "nonsense")
    assert code == 2
    assert "unknown builtin pipeline" in err and err.count("\n") == 1
    assert "Traceback" not in err


def test_export_json(capsys):
    code, out, _ = run(capsys, "export", "--matrix", "A2",
                       "--word", "1,2", "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert len(d["elements"]) == 4


def test_export_dot_deterministic(capsys):
    code, out1, _ = run(capsys, "export", "--matrix", "A3",
                        "--word", "2,1,3", "--format", "dot")
    assert code == 0
    _, out2, _ = run(capsys, "export", "--matrix", "A3",
                     "--word", "2,1,3", "--format", "dot")
    assert out1 == out2
    assert out1.count("->") == 12   # Hasse edges of the cube


def test_export_to_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    code, _, _ = run(capsys, "export", "--matrix", "A2", "--word", "1",
                     "--format", "json", "--output", str(path))
    assert code == 0
    assert json.loads(path.read_text())["elements"]


def test_matrix_from_file(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"rank": 2, "m": [[1, 3], [3, 1]]}))
    code, out, _ = run(capsys, "interval", "--matrix", str(path),
                       "--word", "1,2,1")
    assert code == 0
    assert "6 elements" in out
