"""The mutant table of ``mutants.py`` stays in step with the source text it edits."""

import subprocess

import pytest

import mutants
from mutants import MUTANTS, ROOT, BrokenRow, killed, main


@pytest.mark.parametrize("name, filename, old, new, killers", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_mutant_source_text_occurs_once(name, filename, old, new, killers):
    text = (ROOT / filename).read_text(encoding="utf-8")
    assert text.count(old) == 1, f"{name}: {old!r} occurs {text.count(old)} times in {filename}"


def test_rows_are_named_once_and_an_unknown_name_exits_2(capsys):
    names = [m[0] for m in MUTANTS]
    assert len(set(names)) == len(names)
    assert main([names[0], "no-such-mutant"]) == 2  # checked before any row runs
    assert capsys.readouterr().err == "error: no mutant named no-such-mutant\n"


@pytest.mark.parametrize("returncode", [3, 4, 5, -9])
def test_only_a_failed_or_uncollected_run_kills_a_row(monkeypatch, capsys, returncode):
    # pytest exits 1 when a test fails and 2 on a collection error; 4 on a stale test id
    assert killed("row", 1) and killed("row", 2) and not killed("row", 0)
    with pytest.raises(BrokenRow, match=f"row: pytest exited {returncode}"):
        killed("row", returncode)
    monkeypatch.setattr(mutants, "run_mutant", lambda name, *edit: (killed(name, returncode), ""))
    assert main([MUTANTS[0][0]]) == 2
    assert capsys.readouterr().err == f"error: {MUTANTS[0][0]}: pytest exited {returncode}\n"


@pytest.mark.parametrize("name, killers", [(m[0], m[4]) for m in MUTANTS],
                         ids=[m[0] for m in MUTANTS])
def test_every_row_names_tests_that_kill_it(name, killers):
    # each id names a test file and a test defined in it; a stale id makes pytest exit 4
    assert isinstance(killers, tuple) and killers, f"{name} names no killing test"
    for test_id in killers:
        path, *parts = test_id.split("::")
        assert path.startswith("test_") and parts, test_id
        source = (ROOT / "tests" / path).read_text(encoding="utf-8")
        assert f"def {parts[-1].split('[')[0]}(" in source, test_id


def test_a_row_runs_its_killers_first_and_the_suite_only_when_they_pass(monkeypatch):
    name, filename, old, new, killers = MUTANTS[0]
    runs = []

    def fake_run(argv, **kwargs):
        runs.append(argv[argv.index("no:cacheprovider") + 1:])
        return subprocess.CompletedProcess(argv, outcomes.pop(0), "", "")

    monkeypatch.setattr(mutants.subprocess, "run", fake_run)
    first = [f"tests/{test_id}" for test_id in killers]
    # killed by its killers (1 or 2): no suite run; they pass (0): the suite judges the row
    for codes, calls in [([1], [first]), ([2], [first]), ([0, 1], [first, []]),
                         ([0, 0], [first, []])]:
        runs.clear()
        outcomes = list(codes)
        assert mutants.run_mutant(name, filename, old, new, killers)[0] == (codes[-1] != 0)
        assert runs == calls
