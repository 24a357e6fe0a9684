"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Expected interval sizes and rank profiles were frozen from an independent
subword-enumeration oracle (see oracle.py) before the implementation was
built; the frozen values are re-derived against that oracle here where the
group is symmetric.
"""

import re

import pytest

from bruhatspec import acceptance
from bruhatspec import bruhat as br
from bruhatspec import cli
from bruhatspec import coxeter as cx

import oracle


def _run(num):
    entry = next(c for c in acceptance.CRITERIA if c[0] == num)
    _, title, func = entry
    try:
        detail = func()
    except Exception as e:
        print("FAIL criterion %d (%s): %s" % (num, title, e))
        raise
    print("PASS criterion %d (%s): %s" % (num, title, detail))


def test_criterion_01_oracle_equivalence():
    _run(1)


def test_criterion_02_figure1_weyl3():
    # re-derive the frozen profile independently: A3 is S4
    perms = [oracle.perm_of_word(4, w.word)
             for w in br.interval(cx.builtin_matrix("A", 3),
                                  (3, 2, 1, 2, 3)).elements]
    assert len(set(perms)) == 20
    _run(2)


def test_criterion_03_figure3_m2_ext_a3():
    perms = [oracle.perm_of_word(4, w.word)
             for w in br.interval(cx.builtin_matrix("A", 3),
                                  (2, 1, 3, 2, 1)).elements]
    assert len(set(perms)) == 18
    _run(3)


def test_criterion_04_figure4_m2_ext_affine_a2():
    _run(4)


def test_criterion_05_figure2_horton3():
    assert acceptance.HORTON3_SIZE == 48          # frozen before the build
    assert acceptance.HORTON3_PROFILE == (1, 4, 9, 14, 13, 6, 1)
    _run(5)


def test_criterion_06_pushout_sweep():
    _run(6)


def test_criterion_07_times2_property():
    _run(7)


def test_criterion_08_quantum_affine_boolean():
    _run(8)


def test_criterion_09_heights():
    _run(9)


def test_criterion_10_commuting_squares():
    _run(10)


def test_criterion_11_partition_laws():
    _run(11)


def test_criterion_12_lifting_fuzz():
    _run(12)


def test_run_all_reports_every_criterion(monkeypatch, capsys):
    """run_all reports a line per criterion, PASS or FAIL with the error,
    and selftest exits 1 on a failure; each real criterion has its own
    test above."""
    assert [c[0] for c in acceptance.CRITERIA] == list(range(1, 13))

    def broken():
        raise AssertionError("no such figure")
    passing = [(1, "stub", lambda: "fine")]
    monkeypatch.setattr(acceptance, "CRITERIA",
                        passing + [(2, "broken stub", broken)])
    lines = []
    assert acceptance.run_all(emit=lines.append) is False
    assert len(lines) == 2
    assert re.fullmatch(r"PASS  1  stub :: fine \(\d+\.\d\ds\)", lines[0])
    assert re.fullmatch(r"FAIL  2  broken stub :: AssertionError: "
                        r"no such figure \(\d+\.\d\ds\)", lines[1])
    assert cli.main(["selftest"]) == 1
    monkeypatch.setattr(acceptance, "CRITERIA", passing)
    assert acceptance.run_all(emit=lambda line: None) is True
    assert cli.main(["selftest"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [l.split(" ::")[0] for l in out] == [
        "PASS  1  stub", "FAIL  2  broken stub", "PASS  1  stub"]
