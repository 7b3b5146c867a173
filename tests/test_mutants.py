"""The mutant table of ``mutants.py`` stays in step with the source text it edits."""

import pytest

import mutants
from mutants import MUTANTS, ROOT, BrokenRow, killed, main


@pytest.mark.parametrize("name, filename, old, new", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_mutant_source_text_occurs_once(name, filename, old, new):
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
