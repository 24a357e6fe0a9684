import json
import os
import subprocess
import sys
from importlib import resources

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
    """An empty token in a non-empty word is malformed, not skipped."""
    for word in ("1,x", "1,,2", ",", "1,2,"):
        code, _, err = run(capsys, "interval", "--matrix", "A3",
                           "--word", word)
        assert code == 2, word
        assert "malformed word" in err, word


def test_interval_empty_word_is_the_identity(capsys):
    code, out, _ = run(capsys, "interval", "--matrix", "A3", "--word", "")
    assert (code, out) == (0, "1 elements, ranks 1\n")


def test_interval_non_reduced_word(capsys):
    code, _, err = run(capsys, "interval", "--matrix", "A2", "--word", "1,1")
    assert code == 2


def test_unknown_verb(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_unknown_matrix(capsys):
    code, _, err = run(capsys, "interval", "--matrix", "Z9", "--word", "1")
    assert code == 2
    # a builtin family with a bad rank says why, not "no such file"
    code, _, err = run(capsys, "interval", "--matrix", "D3", "--word", "1")
    assert (code, err) == (2, "error: type D requires at least 4 nodes\n")


@pytest.mark.parametrize("name", ["A99999999999", "D65", "A" + "9" * 5000])
def test_builtin_rank_above_the_cap(capsys, name):
    """A builtin rank above the cap is refused before a matrix is made,
    even one too long for int()."""
    code, out, err = run(capsys, "interval", "--matrix", name, "--word", "1")
    assert (code, out, err) == (
        2, "", "error: a builtin matrix has rank at most 64\n")


def test_builtin_name_with_non_ascii_digits(capsys):
    code, _, err = run(capsys, "interval", "--matrix", "A\u00b2", "--word", "1")
    assert (code, err) == (2, "error: unknown builtin matrix name 'A\u00b2'\n")


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
     "step 1 (x1): partner override key 'x1' is not a P1 prime"),
    ({"var": "x1", "gen": 1, "partner": {"0": "nope"}},
     "step 1 (x1): partner override key '0' is not a P1 prime"),
    ({"var": "0", "gen": 1}, "step 1 (0): var must be a non-empty symbol"),
    ({"var": "", "gen": 1}, "step 1 (): var must be a non-empty symbol"),
    ({"var": "a,b", "gen": 1},
     "step 1 (a,b): var must be a non-empty symbol without \",\""),
    ({"var": "x1", "gen": 1, "rewrite": {"x2": "0"}},
     "step 1 (x1): rewrite value must be a non-empty symbol"),
    ({"var": "x1", "gen": 1, "rewrite": {"x2": "x,y"}},
     "rewrite value must be a non-empty symbol without \",\""),
    ({"var": "x1", "gen": 1, "rewrite": {"x2": ""}},
     "rewrite value must be a non-empty symbol"),
    ({"var": "x1", "gen": 1, "partner": {"0": "0"}},
     "step 1 (x1): partner override key '0' is not a P1 prime"),
])
def test_pipeline_malformed_step_is_usage_error(tmp_path, capsys, step,
                                                message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"coxeter": "A2", "steps": [step]}))
    code, _, err = run(capsys, "pipeline", "--file", str(path))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("partner, message", [
    ({"x1": "x2"}, "partner override 'x1' -> 'x2': the value must be a P2 "
                   "prime that the key covers"),
    ({"x1": "0"}, None),
])
def test_pipeline_partner_override_value(tmp_path, capsys, partner, message):
    """qmatrix2 with its last step's partner given: the P2 prime '0' that
    'x1' covers is accepted, the real prime 'x2' is bad input."""
    spec = json.loads(resources.files("bruhatspec").joinpath(
        "data", "qmatrix2.json").read_text())
    spec["steps"][3]["partner"] = partner
    path = tmp_path / "partner.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "pipeline", "--file", str(path))
    if message is None:
        assert code == 0 and "final: 14 elements" in out
    else:
        assert code == 2 and out == ""
        assert err == "error: pipeline 'qmatrix2', step 4 (x4): %s\n" % message


@pytest.mark.parametrize("coxeter, rewrite, more, where, label", [
    ("A3", {"x1": "x2"}, [], "step 4 (x4)", "x2"),
    ("A4", {"x1": "Dq"}, [{"var": "Dq", "gen": 4}], "step 5 (Dq)", "Dq"),
], ids=["rewrite", "var"])
def test_pipeline_label_collision_is_usage_error(tmp_path, capsys, coxeter,
                                                 rewrite, more, where, label):
    """qmatrix2 whose last step rewrites x1 to x2 renames the prime {x1}
    onto the prime x2; a fifth step with var Dq, a symbol the rewrite
    before it uses, gives the x-prime over Dq the label Dq.  Either names
    two primes alike: bad input, named, not a failed check."""
    spec = json.loads(resources.files("bruhatspec").joinpath(
        "data", "qmatrix2.json").read_text())
    spec["coxeter"] = coxeter
    spec["steps"][3]["rewrite"] = rewrite
    spec["steps"] += more
    path = tmp_path / "collide.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "pipeline", "--file", str(path))
    assert code == 2 and out == ""
    assert err == ("error: pipeline 'qmatrix2', %s: the rewrite or var "
                   "gives two primes the label %r\n" % (where, label))


@pytest.mark.parametrize("vars_, message", [
    (["x", "x"], "step 2 (x): var repeats an earlier step's"),
    (["a", "b", "a"], "step 3 (a): var repeats an earlier step's"),
])
def test_pipeline_repeated_var_is_usage_error(tmp_path, capsys, vars_,
                                              message):
    path = tmp_path / "bad.json"
    steps = [{"var": v, "gen": g} for g, v in enumerate(vars_, 1)]
    path.write_text(json.dumps({"coxeter": "A3", "steps": steps}))
    code, out, err = run(capsys, "pipeline", "--file", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err and "Traceback" not in err


FIRST_STEP = ("step 1 (x1): first step must adjoin a polynomial variable "
              "(delta = 0, with a Bruhat letter)")


@pytest.mark.parametrize("steps, message", [
    ([], "empty schedule"),
    ([{"var": "x1", "gen": 1, "delta": {"x1": [["x1"]]}}], FIRST_STEP),
    ([{"var": "x1", "gen": None}], FIRST_STEP),
    ([{"var": "x1", "gen": 1}, {"var": "y1", "gen": None},
      {"var": "x2", "gen": 1, "side": "left"}],
     "step 3 (x2): left step generator 1 already occurs in wbar"),
    ([{"var": "x1", "gen": 1},
      {"var": "x2", "gen": 2, "side": "left", "delta": {"x1": [["x1"]]}}],
     "step 2 (x2): left steps require delta = 0"),
], ids=["empty", "first-delta", "first-no-letter", "left-letter-used",
        "left-delta"])
def test_pipeline_malformed_schedule_is_usage_error(tmp_path, capsys, steps,
                                                    message):
    """Rules on the schedule alone are checked as it loads: exit 2, not a
    verification failure."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"coxeter": "A2", "steps": steps}))
    code, out, err = run(capsys, "pipeline", "--file", str(path))
    assert code == 2 and out == ""
    assert err == "error: cannot load pipeline %r: %s\n" % (str(path), message)


def test_pipeline_left_step_without_letter_loads(tmp_path, capsys):
    """Only lettered left steps have a letter to check: weyl1 with its
    second step, which has no letter, marked left runs as weyl1 does."""
    spec = {"coxeter": "A1", "steps": [
        {"var": "x1", "gen": 1},
        {"var": "y1", "gen": None, "side": "left", "delta": {"x1": [[]]},
         "rewrite": {"x1": "Omega1"},
         "expansions": {"Omega1": [[], ["y1", "x1"]]}}]}
    path = tmp_path / "weyl1.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "pipeline", "--file", str(path))
    assert code == 0 and "final: 2 elements" in out


def test_pipeline_right_step_on_a_descent_is_input_error(tmp_path, capsys):
    """A right step whose letter is a right descent of wbar makes wbar*a
    shorter, so the letters are not a reduced word.  That depends on the
    schedule alone: bad input, exit 2, found as the step runs since loading
    does no group arithmetic."""
    for cox, gen in (("A2", 1), ("A3", 2)):
        path = tmp_path / "descent.json"
        path.write_text(json.dumps({"coxeter": cox, "steps": [
            {"var": "x1", "gen": gen}, {"var": "x2", "gen": gen}]}))
        code, out, err = run(capsys, "pipeline", "--file", str(path))
        assert code == 2 and out == ""
        assert err == ("error: pipeline 'pipeline', step 2 (x2): wbar*a < "
                       "wbar: wbar must not have a as right descent\n")


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
    code, out, err = run(capsys, *argv, "--output", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write") and err.count("\n") == 1
    assert "Traceback" not in err and not path.exists()


@pytest.mark.parametrize("argv", [
    ["export", "--matrix", "A2", "--word", "1,2", "--format", "json"],
    ["pipeline", "--builtin", "qaffine2", "--format", "dot"],
])
def test_a_write_that_fails_after_the_check_is_usage_error(
        tmp_path, capsys, monkeypatch, argv):
    """The output check opens the path to append and passes; the write
    itself, opened with mode "w", then fails."""
    real_open = open

    def failing_open(path, mode="r", *args, **kwargs):
        if mode == "w":
            raise OSError(28, "No space left on device")
        return real_open(path, mode, *args, **kwargs)
    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    path = tmp_path / "x.out"
    code, _, err = run(capsys, *argv, "--output", str(path))
    assert code == 2
    assert err.startswith("error: cannot write %r: " % str(path))
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["interval", "--matrix", "A2", "--word", "1,2"],
    ["pipeline", "--builtin", "qaffine1"],
])
def test_output_without_format_is_usage_error(tmp_path, capsys, argv):
    path = tmp_path / "x.json"
    code, out, err = run(capsys, *argv, "--output", str(path))
    assert code == 2 and out == ""
    assert err == "error: --output requires --format\n"
    assert not path.exists()


def test_output_check_leaves_files_alone_when_the_work_fails(tmp_path, capsys):
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    old.write_text("kept")
    for path in (new, old):
        code, out, err = run(capsys, "export", "--matrix", "A2", "--word",
                             "1,1", "--format", "json", "--output", str(path))
        assert code == 2 and out == "" and "not reduced" in err
    assert not new.exists() and old.read_text() == "kept"
    code, _, _ = run(capsys, "export", "--matrix", "A2", "--word", "1,2",
                     "--format", "json", "--output", str(new))
    assert code == 0 and len(json.loads(new.read_text())["elements"]) == 4


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


@pytest.mark.parametrize("argv", [
    ["pipeline", "--builtin", "qaffine2", "--format", "json"],
    ["export", "--matrix", "A2", "--word", "1,2", "--format", "dot"],
])
def test_closed_pipe_exits_141_without_a_traceback(argv):
    """The pipe's read end is closed before the CLI starts, so every write
    to stdout fails with EPIPE: the CLI exits 141, not 1, and prints
    nothing to stderr."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    try:
        proc = subprocess.run([sys.executable, "-m", "bruhatspec.cli"] + argv,
                              stdout=write_end, stderr=subprocess.PIPE,
                              text=True, env={**os.environ, "PYTHONPATH": src})
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


def _expansion_chain_file(tmp_path, name, depth):
    """A2 pipeline whose second step sends x1 to E0, where E0 expands
    through E1, ..., E<depth> to x1."""
    exp = {"E%d" % k: [["E%d" % (k + 1)]] for k in range(depth)}
    exp["E%d" % depth] = [["x1"]]
    path = tmp_path / (name + ".json")
    path.write_text(json.dumps({"coxeter": "A2", "steps": [
        {"var": "x1", "gen": 1},
        {"var": "x2", "gen": 2, "delta": {"x1": [["E0"]]},
         "expansions": exp}]}))
    return str(path)


def test_pipeline_deep_expansion_chain_is_no_traceback(tmp_path, capsys):
    """A 400-deep expansion chain is judged like its collapsed form."""
    flat = run(capsys, "pipeline", "--file",
               _expansion_chain_file(tmp_path, "flat", 0))
    deep = run(capsys, "pipeline", "--file",
               _expansion_chain_file(tmp_path, "deep", 400))
    assert flat == deep
    code, out, err = deep
    assert code == 1 and out == "" and err.count("\n") == 1
    assert err.startswith("verification failure: pipeline 'pipeline', "
                          "step 2 (x2): no block-respecting isomorphism")


NOT_INTEGERS = [
    ({"rank": 2, "m": [[True, False], [False, True]]}, "entry (1,1)"),
    ({"rank": 2, "m": [[1, 3.0], [3.0, 1]]}, "entry (1,2)"),
    ({"rank": True, "m": [[1]]}, "rank must be an integer"),
    ({"rank": 2, "m": [[1, 3], []]}, "entries must be square"),
]


@pytest.mark.parametrize("matrix, message", NOT_INTEGERS,
                         ids=["bools", "float", "bool-rank", "short-row"])
def test_matrix_file_entries_must_be_integers(tmp_path, capsys, matrix,
                                              message):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matrix))
    code, out, err = run(capsys, "interval", "--matrix", str(path),
                         "--word", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("content, message", [
    ([1, 2], "a Coxeter matrix is an object with rank and m"),
    ({"rank": 2}, "a Coxeter matrix is an object with rank and m"),
    ({"rank": 2, "m": 5}, "m must be a list of rows"),
    ({"rank": 2, "m": [[1, 3], 5]}, "row 2 of m must be a list"),
], ids=["list", "no-m", "m-not-list", "row-not-list"])
def test_malformed_matrix_file_names_the_field(tmp_path, capsys, content,
                                               message):
    """A malformed matrix file exits 2 with a message that names the bad
    field, not a Python error about indices or iteration."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps(content))
    code, out, err = run(capsys, "interval", "--matrix", str(path),
                         "--word", "1")
    assert (code, out) == (2, "")
    assert err == "error: cannot read Coxeter matrix %r: %s\n" % (
        str(path), message)


@pytest.mark.parametrize("matrix, message", NOT_INTEGERS,
                         ids=["bools", "float", "bool-rank", "short-row"])
def test_pipeline_matrix_entries_must_be_integers(tmp_path, capsys, matrix,
                                                  message):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"coxeter": matrix,
                                "steps": [{"var": "x1", "gen": 1}]}))
    code, out, err = run(capsys, "pipeline", "--file", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_matrix_from_file(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"rank": 2, "m": [[1, 3], [3, 1]]}))
    code, out, _ = run(capsys, "interval", "--matrix", str(path),
                       "--word", "1,2,1")
    assert code == 0
    assert "6 elements" in out
