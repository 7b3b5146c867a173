"""Mutation check of the certificates and tolerances: every mutant must fail Tier-1.

Not collected by pytest (the name does not match ``test_*.py``), and too
slow for Tier-1: a mutant takes up to one full suite run. From the
repository root:

    python tests/mutants.py

For each mutant it copies ``src/``, ``tests/`` (without ``test_mutants.py``,
the Tier-1 check of this table) and ``pyproject.toml`` to a temporary
directory, replaces one piece of source text, and runs
``python -m pytest -x -q`` there. The mutant is killed when that run
fails. Exit status: 0 when every mutant is killed, 1 when one survives,
2 when an edit no longer matches its source text exactly once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (name, file under src/wpcontent, source text, replacement)
MUTANTS = [
    # certified inequalities and envelopes of greedy extraction
    ("trace-envelope-ratio-2N", "greedy.py",
     "ratio = 1.0 - 1.0 / len(nodes)\n", "ratio = 1.0 - 1.0 / (2 * len(nodes))\n"),
    ("trace-one-step-ratio-2N", "greedy.py",
     "ratio = 1.0 - 1.0 / nn\n", "ratio = 1.0 - 1.0 / (2 * nn)\n"),
    ("gamma-range-2N", "greedy.py", "gamma <= nn + 1e-9", "gamma <= 2 * nn + 1e-9"),
    ("pythagorean-removed", "greedy.py", "if not rem_sq <= pythagorean + slack:", "if False:"),
    ("trace-rule-second-heaviest", "greedy.py",
     "nodes[int(np.argmax(trace_scores(current.matrix, tree, n)))]",
     "nodes[int(np.argsort(trace_scores(current.matrix, tree, n))[-2])]"),
    ("hs-rule-second-heaviest", "greedy.py",
     "nodes[int(np.argmax(scores))]", "nodes[int(np.argsort(scores)[-2])]"),
    ("clamp-tol-1e-6", "psdcore.py", "DEFAULT_CLAMP_TOL = 1e-10", "DEFAULT_CLAMP_TOL = 1e-6"),
    ("trace-slack-1e-3", "greedy.py",
     "slack = 1e-9 * tr.initial_trace", "slack = 1e-3 * tr.initial_trace"),
    ("hs-slack-1e-3", "greedy.py",
     "slack = 1e-9 * tr.initial_hs**2", "slack = 1e-3 * tr.initial_hs**2"),
    ("hs-envelope-ratio-N3", "greedy.py",
     "1.0 - 1.0 / len(nodes) ** 2", "1.0 - 1.0 / len(nodes) ** 3"),
    ("coherence-contraction-2gammaN", "greedy.py",
     "1.0 - 1.0 / (gamma * nn)", "1.0 - 1.0 / (2 * gamma * nn)"),
    ("trace-stop-rule-x10", "greedy.py",
     "if trace(current) <= stop_tol * tr.initial_trace:",
     "if trace(current) <= 10 * stop_tol * tr.initial_trace:"),
    # input and budget tolerances
    ("additivity-budget-1e-4", "content.py",
     "budget = 1e-9 * abs(total)", "budget = 1e-4 * abs(total)"),
    ("reconstruction-budget-1e-3", "content.py",
     "if err > 1e-8 * hs_norm(r):", "if err > 1e-3 * hs_norm(r):"),
    ("coherence-zero-1e-12", "greedy.py", "if den <= 1e-28 * num:", "if den <= 1e-12 * num:"),
    ("filter-tol-1e-4", "tree.py", "_FILTER_TOL = 1e-10", "_FILTER_TOL = 1e-4"),
    ("input-asymmetry-1e-4", "psdcore.py",
     "if asym > 1e-10 * float(np.max(np.abs(a))):", "if asym > 1e-4 * float(np.max(np.abs(a))):"),
]


def _first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ")[0]
    return output.strip().splitlines()[-1] if output.strip() else "(no output)"


def run_mutant(name: str, filename: str, old: str, new: str) -> tuple[bool, str]:
    """(killed, detail) for one mutant, tested in a fresh copy of the tree."""
    with tempfile.TemporaryDirectory(prefix="wpc-mutant-") as tmp:
        work = Path(tmp)
        # test_mutants.py checks this table against the source, so it fails on every mutant
        ignore = shutil.ignore_patterns(
            "__pycache__", ".pytest_cache", ".hypothesis", "test_mutants.py"
        )
        shutil.copytree(ROOT / "src", work / "src", ignore=ignore)
        shutil.copytree(ROOT / "tests", work / "tests", ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")
        target = work / "src" / "wpcontent" / filename
        text = target.read_text(encoding="utf-8")
        if text.count(old) != 1:
            raise LookupError(f"{name}: {old!r} occurs {text.count(old)} times in {filename}")
        target.write_text(text.replace(old, new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
            cwd=work, env=env, capture_output=True, text=True,
        )
        return proc.returncode != 0, _first_failure(proc.stdout + proc.stderr)


def main() -> int:
    survivors = []
    for name, filename, old, new in MUTANTS:
        start = time.monotonic()
        try:
            killed, detail = run_mutant(name, filename, old, new)
        except LookupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"{'killed ' if killed else 'SURVIVED'} {time.monotonic() - start:5.1f}s "
              f"{name}: {detail}", flush=True)
        if not killed:
            survivors.append(name)
    print(f"{len(survivors)} survived: {', '.join(survivors)}" if survivors else "all killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
