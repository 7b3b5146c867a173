"""The mutant table of ``mutants.py`` stays in step with the source text it edits."""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("name, filename, old, new", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_mutant_source_text_occurs_once(name, filename, old, new):
    text = (ROOT / filename).read_text(encoding="utf-8")
    assert text.count(old) == 1, f"{name}: {old!r} occurs {text.count(old)} times in {filename}"
