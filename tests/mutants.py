"""Mutation check of the certificates, tolerances and input rules: every mutant must fail Tier-1.

Not collected by pytest (the name does not match ``test_*.py``), and too
slow for Tier-1: a mutant takes up to one full suite run. From the
repository root:

    python tests/mutants.py                 # the full table
    python tests/mutants.py NAME [NAME ...]  # only the named rows

For each mutant it copies ``src/``, ``tests/`` (without ``test_mutants.py``,
the Tier-1 check of this table), ``wpcbench/`` (whose workloads ``golden.py``
names), ``pyproject.toml`` and ``README.md`` (which a test reads) to a
temporary directory, replaces one piece of source text,
and runs ``python -m pytest -x -q`` there. The mutant is killed when pytest
exits 1 (a test failed) or 2 (a collection error), and survives when it
exits 0; any other status (an internal or usage error, no tests
collected) judged nothing, so the row is broken. Each row prints its
verdict and time, and the last line says whether the full table or only
the named rows ran. Exit status: 0 when every mutant run is killed, 1
when one survives, 2 when a name is no row of the table, an edit no
longer matches its source text exactly once, or a row's run is broken.
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

# (name, file relative to the repository root, source text, replacement)
MUTANTS = [
    # certified inequalities and envelopes of greedy extraction
    ("trace-envelope-ratio-2N", "src/wpcontent/greedy.py",
     "ratio = 1.0 - 1.0 / len(nodes)\n", "ratio = 1.0 - 1.0 / (2 * len(nodes))\n"),
    ("trace-one-step-ratio-2N", "src/wpcontent/greedy.py",
     "ratio = 1.0 - 1.0 / nn\n", "ratio = 1.0 - 1.0 / (2 * nn)\n"),
    ("gamma-range-2N", "src/wpcontent/greedy.py", "gamma <= nn + 1e-9", "gamma <= 2 * nn + 1e-9"),
    ("pythagorean-removed", "src/wpcontent/greedy.py",
     "if not rem_sq <= pythagorean + hs_slack:", "if False:"),
    ("trace-rule-second-heaviest", "src/wpcontent/greedy.py",
     "nodes[int(np.argmax(trace_scores(tr.final_remainder, tree, n)))]",
     "nodes[int(np.argsort(trace_scores(tr.final_remainder, tree, n))[-2])]"),
    ("hs-rule-second-heaviest", "src/wpcontent/greedy.py",
     "nodes[int(np.argmax(scores))]", "nodes[int(np.argsort(scores)[-2])]"),
    ("clamp-tol-1e-6", "src/wpcontent/psdcore.py",
     "DEFAULT_CLAMP_TOL = 1e-10", "DEFAULT_CLAMP_TOL = 1e-6"),
    ("constructor-clamp-skipped", "src/wpcontent/psdcore.py",
     "self.clamp_applied = check_clamp(max(float(lam[0]), scale), float(lam[-1]))",
     "self.clamp_applied = bool(lam[-1] < 0.0)"),
    ("remainder-checked-at-own-scale", "src/wpcontent/psdcore.py",
     "_stated(rest, *sym_eigen(rest), self.scale)", "_stated(rest, *sym_eigen(rest), 0.0)"),
    ("trace-slack-1e-3", "src/wpcontent/greedy.py",
     'trace_slack, hs_slack = 1e-9 * initial["trace"],',
     'trace_slack, hs_slack = 1e-3 * initial["trace"],'),
    ("hs-slack-1e-3", "src/wpcontent/greedy.py",
     ', 1e-9 * initial["hs"] ** 2\n', ', 1e-3 * initial["hs"] ** 2\n'),
    ("hs-envelope-ratio-N3", "src/wpcontent/greedy.py",
     "1.0 - 1.0 / len(nodes) ** 2", "1.0 - 1.0 / len(nodes) ** 3"),
    ("coherence-contraction-2gammaN", "src/wpcontent/greedy.py",
     "1.0 - 1.0 / (gamma * nn)", "1.0 - 1.0 / (2 * gamma * nn)"),
    # a run stops at the clamp's zero, checks its input at its own lam_max and reports JSON types
    ("zero-rule-dropped", "src/wpcontent/psdcore.py",
     "return float(self.eigenvalues[0]) <= DEFAULT_CLAMP_TOL * self.scale", "return False"),
    ("zero-rule-x10", "src/wpcontent/psdcore.py",
     "return float(self.eigenvalues[0]) <= DEFAULT_CLAMP_TOL * self.scale",
     "return float(self.eigenvalues[0]) <= 10 * DEFAULT_CLAMP_TOL * self.scale"),
    ("run-input-at-inherited-scale", "src/wpcontent/psdcore.py",
     "return self if self.scale == float(self.eigenvalues[0]) else PsdOperator(self.matrix)",
     "return self"),
    ("report-depth-not-int", "src/wpcontent/greedy.py",
     '"depth": None if depth is None else int(depth)', '"depth": depth'),
    # the relations every mode is held to: the trace identity, Pythagoras (also outside the
    # HS rule) and the triangle inequality
    ("trace-identity-removed", "src/wpcontent/greedy.py",
     "if not defect <= trace_slack:", "if False:"),
    ("pythagorean-hs-only", "src/wpcontent/greedy.py",
     "if not rem_sq <= pythagorean + hs_slack:",
     'if run["mode"] == "hs-greedy" and not rem_sq <= pythagorean + hs_slack:'),
    ("triangle-removed", "src/wpcontent/greedy.py",
     "if not prev_sq <= triangle + hs_slack:", "if False:"),
    # ||X|| <= tr X for the PSD block and remainder, in every mode, and the HS rule's
    # mean-block bound
    ("block-hs-above-trace-unchecked", "src/wpcontent/greedy.py",
     'for part in ("extracted", "remainder"):', 'for part in ("remainder",):'),
    ("remainder-hs-above-trace-unchecked", "src/wpcontent/greedy.py",
     'for part in ("extracted", "remainder"):', 'for part in ("extracted",):'),
    ("hs-mean-block-removed", "src/wpcontent/greedy.py",
     "if not mean_sq <= ext_sq + hs_slack:", "if False:"),
    # a run's report states its input, and an undefined coherence ends an HS run cleanly
    ("payload-initial-hs-x2", "src/wpcontent/greedy.py",
     '"hs": hs_norm(r)}', '"hs": 2 * hs_norm(r)}'),
    ("coherence-undefined-raises", "src/wpcontent/greedy.py",
     "except NumericalBreakdownError:\n            break\n",
     "except NumericalBreakdownError:\n            raise\n"),
    # the re-check of a report: decay_report must run the checker on every row
    ("decay-report-unchecked", "src/wpcontent/greedy.py",
     "ok = _violation(payload, prev, row) is None", "ok = True"),
    # input and budget tolerances
    ("additivity-budget-1e-4", "src/wpcontent/content.py",
     "budget = 1e-9 * abs(total)", "budget = 1e-4 * abs(total)"),
    ("reconstruction-budget-1e-3", "src/wpcontent/content.py",
     "if err > 1e-8 * hs_norm(r):", "if err > 1e-3 * hs_norm(r):"),
    ("coherence-zero-1e-12", "src/wpcontent/greedy.py",
     "if den <= 1e-28 * num:", "if den <= 1e-12 * num:"),
    ("input-asymmetry-1e-4", "src/wpcontent/psdcore.py",
     "if asym > 1e-10 * float(np.max(np.abs(a))):", "if asym > 1e-4 * float(np.max(np.abs(a))):"),
    ("square-sum-underflow-removed", "src/wpcontent/psdcore.py",
     "if total < np.finfo(np.float64).tiny and np.any(flat):", "if False:"),
    # command-line input rules
    ("in-symbol-conflict-removed", "src/wpcontent/cli.py",
     "if args.input and args.symbol:", "if False:"),
    ("output-on-input-allowed", "src/wpcontent/cli.py",
     'for option in ("--in", "--symbol", "--clean", *outputs):', "for option in outputs:"),
    # checks outside the certificates: densities, cylinder masses, gamma's lower end, the
    # selftest's own rows and the tests' Loewner oracle
    ("loewner-tol-1e-2", "tests/helpers.py", "LOEWNER_TOL = 1e-8", "LOEWNER_TOL = 1e-2"),
    ("density-eps-1e-3", "src/wpcontent/content.py",
     "eps = 1e-12 * trace(r)", "eps = 1e-3 * trace(r)"),
    ("abs-continuity-removed", "src/wpcontent/content.py", "elif nu > eps * x_sq:", "elif False:"),
    ("density-rule-unscaled", "src/wpcontent/content.py", "elif nu > eps * x_sq:", "elif nu > eps:"),
    ("root-mass-budget-removed", "src/wpcontent/content.py",
     "if abs(masses[0][0] - total) > budget:", "if False:"),
    ("gamma-lower-1e-3", "src/wpcontent/greedy.py", "1.0 - 1e-9 <= gamma", "1.0 - 1e-3 <= gamma"),
    ("selftest-tree-axioms-1e-2", "src/wpcontent/selftest.py",
     "for t in trees), 1e-10)", "for t in trees), 1e-2)"),
    ("selftest-parallelogram-1e-2", "src/wpcontent/selftest.py",
     '_bounded("parallelogram", para, 1e-9)', '_bounded("parallelogram", para, 1e-2)'),
    ("selftest-band-oracle-1e-3", "src/wpcontent/selftest.py",
     '_bounded("band-oracle", oracle, 1e-12)', '_bounded("band-oracle", oracle, 1e-3)'),
    # the shipped filter taps (one D4 tap moved by about 2e-10)
    ("d4-tap-off-by-2e-10", "src/wpcontent/tree.py",
     "(3.0 - _ROOT3) / _D4_SCALE", "(3.0 - _ROOT3 + 1e-9) / _D4_SCALE"),
    # the denoiser's square-sum rule, HS ranking, retained fraction and PSNR cap
    ("patch-square-sum-removed", "src/wpcontent/denoise.py",
     'check_square_sum(gram, "patch second moment")', "pass"),
    ("hs-selection-score-squared", "src/wpcontent/denoise.py",
     "np.sqrt(hs_scores_squared(patches.rhat, tree, n))",
     "hs_scores_squared(patches.rhat, tree, n)"),
    ("retained-fraction-total", "src/wpcontent/denoise.py",
     "if total > 0.0 else 1.0", "if total > 0.0 else 0.0"),
    ("psnr-cap-off", "src/wpcontent/denoise.py",
     "return min(PSNR_CAP_DB, float(10.0 * np.log10(1.0 / mse)))",
     "return float(10.0 * np.log10(1.0 / mse))"),
    # a P5 maxval is followed by one whitespace byte
    ("p5-separator-unchecked", "src/wpcontent/pgm.py",
     "if sep and not sep.isspace():", "if False:"),
    # cylinder masses are clamped at zero, and every tree depth is at least 1
    ("cylinder-clamp-removed", "src/wpcontent/content.py",
     "np.maximum(trace_scores(a, tree, n), 0.0)", "trace_scores(a, tree, n)"),
    ("dyadic-depth-0", "src/wpcontent/tree.py",
     "if not 1 <= depth <= top:", "if not 0 <= depth <= top:"),
    # a word the tree lacks is no node of it, also when the key is unhashable
    ("unknown-word-accepted", "src/wpcontent/tree.py",
     "except ConfigError:\n            return False", "except ConfigError:\n            return True"),
    ("unhashable-word-raises-type-error", "src/wpcontent/tree.py",
     "except (KeyError, TypeError):", "except KeyError:"),
    # input rules on shapes and counts: a PGM's size, top-K's K, a patch stride, a matrix's shape
    ("pgm-empty-size-accepted", "src/wpcontent/pgm.py", "if width < 1 or height < 1:", "if False:"),
    ("top-k-below-one-accepted", "src/wpcontent/denoise.py", "if k < 1:", "if False:"),
    ("patch-stride-below-one-accepted", "src/wpcontent/denoise.py",
     "if self.stride < 1:", "if False:"),
    ("matrix-not-square-accepted", "src/wpcontent/psdcore.py",
     "if a.ndim != 2 or a.shape[0] != a.shape[1]:", "if False:"),
    ("matrix-dim-zero-accepted", "src/wpcontent/psdcore.py", "if a.shape[0] < 1:", "if False:"),
    # bytes and boundaries: a PGM header's order, the density's mass cut, a report's last byte
    ("pgm-header-swapped", "src/wpcontent/pgm.py", "{width} {height}", "{height} {width}"),
    ("density-mass-10eps", "src/wpcontent/content.py", "if mu > eps:", "if mu > 10 * eps:"),
    ("report-final-newline-dropped", "src/wpcontent/cli.py",
     'text = _dumps(payload) + "\\n"', "text = _dumps(payload)"),
    # rules that moved into a constructor: a matrix is symmetrized whatever its flags, a
    # default stride is half the patch side, and top-K keeps at most the 4^n blocks
    ("matrix-unsymmetrized", "src/wpcontent/psdcore.py",
     "m = _symmetric(matrix)", "m = np.array(matrix, dtype=np.float64)"),
    ("default-stride-quarter", "src/wpcontent/denoise.py", "max(1, m // 2)", "max(1, m // 4)"),
    ("denoise-topk-unbounded", "src/wpcontent/denoise.py",
     "if self.top_k > 4**self.depth:", "if False:"),
    # a symbol's values are diag(A) to the HS scores, as to the trace scores
    ("symbol-hs-rule-dropped", "src/wpcontent/content.py",
     "a = np.diag(a) if a.ndim == 1 else a", "a = a"),
    # a symbol has a power-of-two count of at least two finite values
    ("symbol-count-unchecked", "src/wpcontent/psdcore.py",
     "if n < 2 or n & (n - 1):", "if False:"),
    ("symbol-finiteness-unchecked", "src/wpcontent/psdcore.py",
     "if not np.all(np.isfinite(vals)):", "if False:"),
    # a saved greedy report states its depth's node count and numbers its steps 1..n
    ("report-N_n-unbound-to-depth", "src/wpcontent/greedy.py",
     "if power not in (depth, 2 * depth):", "if power < 0:"),
    ("report-k-order-unchecked", "src/wpcontent/greedy.py",
     'if not (integer(row["k"]) and row["k"] == k):', 'if not integer(row["k"]):'),
]


def _first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ")[0]
    return output.strip().splitlines()[-1] if output.strip() else "(no output)"


class BrokenRow(Exception):
    """A row that judges nothing: its edit misses its source text, or pytest could not run."""


def killed(name: str, returncode: int) -> bool:
    """True when pytest exited 1 or 2, False when it exited 0; BrokenRow on any other status."""
    if returncode not in (0, 1, 2):
        raise BrokenRow(f"{name}: pytest exited {returncode}")
    return returncode != 0


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
        shutil.copytree(ROOT / "wpcbench", work / "wpcbench", ignore=ignore)
        for extra in ("pyproject.toml", "README.md"):
            shutil.copy2(ROOT / extra, work / extra)
        target = work / filename
        text = target.read_text(encoding="utf-8")
        if text.count(old) != 1:
            raise BrokenRow(f"{name}: {old!r} occurs {text.count(old)} times in {filename}")
        target.write_text(text.replace(old, new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
            cwd=work, env=env, capture_output=True, text=True,
        )
        return killed(name, proc.returncode), _first_failure(proc.stdout + proc.stderr)


def main(names: list[str]) -> int:
    unknown = sorted(set(names) - {row[0] for row in MUTANTS})
    if unknown:
        print(f"error: no mutant named {', '.join(unknown)}", file=sys.stderr)
        return 2
    rows = [row for row in MUTANTS if not names or row[0] in names]
    scope = (f"{len(rows)} of {len(MUTANTS)} rows, by name" if names
             else f"the full table of {len(MUTANTS)} rows")
    survivors = []
    for name, filename, old, new in rows:
        start = time.monotonic()
        try:
            dead, detail = run_mutant(name, filename, old, new)
        except BrokenRow as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"{'killed ' if dead else 'SURVIVED'} {time.monotonic() - start:5.1f}s "
              f"{name}: {detail}", flush=True)
        if not dead:
            survivors.append(name)
    verdict = f"{len(survivors)} survived: {', '.join(survivors)}" if survivors else "all killed"
    print(f"{verdict} ({scope})")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
