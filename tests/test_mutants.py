"""The mutant table of ``mutants.py`` stays in step with the source text it edits."""

import pytest

from mutants import MUTANTS, ROOT, main


@pytest.mark.parametrize("name, filename, old, new", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_mutant_source_text_occurs_once(name, filename, old, new):
    text = (ROOT / filename).read_text(encoding="utf-8")
    assert text.count(old) == 1, f"{name}: {old!r} occurs {text.count(old)} times in {filename}"


def test_rows_are_named_once_and_an_unknown_name_exits_2(capsys):
    names = [m[0] for m in MUTANTS]
    assert len(set(names)) == len(names)
    assert main([names[0], "no-such-mutant"]) == 2  # checked before any row runs
    assert capsys.readouterr().err == "error: no mutant named no-such-mutant\n"
