"""The output manifest ``golden.json`` parses and lists the entries ``golden.py`` makes.

The digests themselves depend on the build, so only ``python tests/golden.py``
compares them; this test computes none.
"""

import json
import re

import golden


def test_manifest_lists_the_scripts_entries():
    manifest = json.loads(golden.MANIFEST.read_text(encoding="utf-8"))
    assert set(manifest) == {"fingerprint", "entries"}
    assert set(manifest["fingerprint"]) == set(golden.fingerprint())
    assert list(manifest["entries"]) == list(golden.entries())
    assert all(re.fullmatch(r"[0-9a-f]{64}", d) for d in manifest["entries"].values())


def test_entries_cover_the_workloads_selftests_and_library_trees():
    names = list(golden.entries())
    assert len([n for n in names if n.startswith("workload/")]) == 18
    assert len([n for n in names if n.startswith("cli/selftest")]) == 3
    for tree in ("shannon", "haar", "d4", "haar-2d", "d4-2d"):
        for item in ("trace-payload-trace", "trace-payload-hs", "depth-blocks", "cylinder-rows",
                     "density"):
            assert f"library/{tree}/rank-5/{item}" in names
