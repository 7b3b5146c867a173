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
and runs ``python -m pytest -x -q`` there: first on the test ids its row
names as its killers, and on the whole suite only when those all pass, so
the full suite still judges every row. The mutant is killed when pytest
exits 1 (a test failed) or 2 (a collection error), and survives when it
exits 0; any other status (an internal or usage error, a stale test id,
no tests collected) judged nothing, so the row is broken. Each row prints its
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

# (name, file relative to the repository root, source text, replacement, the ids of
# tests that kill it, relative to tests/, run first)
MUTANTS = [
    # certified inequalities and envelopes of greedy extraction
    ("trace-envelope-ratio-2N", "src/wpcontent/greedy.py",
     "ratio = 1.0 - 1.0 / len(nodes)\n", "ratio = 1.0 - 1.0 / (2 * len(nodes))\n",
     ("test_greedy.py::TestTraceGreedy::test_shannon_worked_example",)),
    ("trace-one-step-ratio-2N", "src/wpcontent/greedy.py",
     "ratio = 1.0 - 1.0 / nn\n", "ratio = 1.0 - 1.0 / (2 * nn)\n",
     ("test_greedy.py::test_each_inequality_keeps_its_constant_and_slack",)),
    ("gamma-range-2N", "src/wpcontent/greedy.py", "gamma <= nn + 1e-9", "gamma <= 2 * nn + 1e-9",
     ("test_greedy.py::TestDecayReport::test_coherence_out_of_range_stops_the_loop",)),
    ("pythagorean-removed", "src/wpcontent/greedy.py",
     "if not rem_sq <= pythagorean + hs_slack:", "if False:",
     ("test_greedy.py::test_a_forged_number_in_a_saved_report_is_flagged_at_its_own_step",)),
    ("trace-rule-second-heaviest", "src/wpcontent/greedy.py",
     "nodes[int(np.argmax(trace_scores(tr.final_remainder, tree, n)))]",
     "nodes[int(np.argsort(trace_scores(tr.final_remainder, tree, n))[-2])]",
     ("test_acceptance.py::test_criterion_3_trace_greedy_envelope",)),
    ("hs-rule-second-heaviest", "src/wpcontent/greedy.py",
     "nodes[int(np.argmax(scores))]", "nodes[int(np.argsort(scores)[-2])]",
     ("test_acceptance.py::test_criterion_4_hs_greedy_envelopes",)),
    ("clamp-tol-1e-6", "src/wpcontent/psdcore.py",
     "DEFAULT_CLAMP_TOL = 1e-10", "DEFAULT_CLAMP_TOL = 1e-6",
     ("test_cli.py::TestDecompose::test_symbol_clamp_boundary",)),
    ("constructor-clamp-skipped", "src/wpcontent/psdcore.py",
     "self.clamp_applied = check_clamp(max(float(lam[0]), scale), float(lam[-1]))",
     "self.clamp_applied = bool(lam[-1] < 0.0)",
     ("test_cli.py::TestDecompose::test_not_positive_exits_3",)),
    ("remainder-checked-at-own-scale", "src/wpcontent/psdcore.py",
     "_stated(rest, *sym_eigen(rest), self.scale)", "_stated(rest, *sym_eigen(rest), 0.0)",
     ("test_acceptance.py::test_criterion_3_trace_greedy_envelope",)),
    ("trace-slack-1e-3", "src/wpcontent/greedy.py",
     'trace_slack, hs_slack = 1e-9 * initial["trace"],',
     'trace_slack, hs_slack = 1e-3 * initial["trace"],',
     ("test_greedy.py::test_each_inequality_keeps_its_constant_and_slack",)),
    ("hs-slack-1e-3", "src/wpcontent/greedy.py",
     ', 1e-9 * initial["hs"] ** 2\n', ', 1e-3 * initial["hs"] ** 2\n',
     ("test_greedy.py::test_each_inequality_keeps_its_constant_and_slack",)),
    ("hs-envelope-ratio-N3", "src/wpcontent/greedy.py",
     "1.0 - 1.0 / len(nodes) ** 2", "1.0 - 1.0 / len(nodes) ** 3",
     ("test_greedy.py::test_recorded_envelopes_are_the_closed_forms",)),
    ("coherence-contraction-2gammaN", "src/wpcontent/greedy.py",
     "1.0 - 1.0 / (gamma * nn)", "1.0 - 1.0 / (2 * gamma * nn)",
     ("test_greedy.py::test_each_inequality_keeps_its_constant_and_slack",)),
    # a recorded envelope is its closed form
    ("envelope-unbound", "src/wpcontent/greedy.py",
     "return not abs(envelope - closed) <= slack", "return False",
     ("test_greedy.py::test_a_forged_number_in_a_saved_report_is_flagged_at_its_own_step",)),
    # a run stops at the clamp's zero, checks its input at its own lam_max and reports JSON types
    ("zero-rule-dropped", "src/wpcontent/psdcore.py",
     "return float(self.eigenvalues[0]) <= DEFAULT_CLAMP_TOL * self.scale", "return False",
     ("test_acceptance.py::test_criterion_3_trace_greedy_envelope",)),
    ("zero-rule-x10", "src/wpcontent/psdcore.py",
     "return float(self.eigenvalues[0]) <= DEFAULT_CLAMP_TOL * self.scale",
     "return float(self.eigenvalues[0]) <= 10 * DEFAULT_CLAMP_TOL * self.scale",
     ("test_cli.py::TestGreedy::test_a_run_goes_on_at_a_remainder_of_1e_9_lam_max",)),
    ("run-input-at-inherited-scale", "src/wpcontent/psdcore.py",
     "if self.is_zero() or self.scale == float(self.eigenvalues[0]):", "if True:",
     ("test_greedy.py::test_a_run_from_a_remainder_is_checked_at_its_own_lam_max",)),
    ("zero-input-rechecked-at-own-scale", "src/wpcontent/psdcore.py",
     "if self.is_zero() or self.scale == float(self.eigenvalues[0]):",
     "if self.scale == float(self.eigenvalues[0]):",
     ("test_greedy.py::test_a_run_goes_on_from_its_own_final_remainder_with_no_step",)),
    # a NaN extreme eigenvalue fails the clamp, which a remainder, used as computed, relies on
    ("clamp-passes-nan", "src/wpcontent/psdcore.py",
     "if not lam_min >= -thresh:", "if lam_min < -thresh:",
     ("test_psdcore.py::TestPsdOperator::test_a_nan_extreme_eigenvalue_fails_the_clamp",)),
    ("report-depth-not-int", "src/wpcontent/greedy.py",
     '"depth": None if depth is None else int(depth)', '"depth": depth',
     ("test_greedy.py::test_a_numpy_int_depth_is_reported_as_an_int",)),
    # the relations every mode is held to: the trace identity, Pythagoras (also outside the
    # HS rule) and the triangle inequality
    ("trace-identity-removed", "src/wpcontent/greedy.py",
     "if not defect <= trace_slack:", "if False:",
     ("test_greedy.py::test_a_forged_number_in_a_saved_report_is_flagged_at_its_own_step",)),
    ("pythagorean-hs-only", "src/wpcontent/greedy.py",
     "if not rem_sq <= pythagorean + hs_slack:",
     'if run["mode"] == "hs-greedy" and not rem_sq <= pythagorean + hs_slack:',
     ("test_greedy.py::test_a_forged_number_in_a_saved_report_is_flagged_at_its_own_step",)),
    ("triangle-removed", "src/wpcontent/greedy.py",
     "if not prev_sq <= triangle + hs_slack:", "if False:",
     ("test_greedy.py::test_a_forged_number_in_a_saved_report_is_flagged_at_its_own_step",)),
    # ||X|| <= tr X for the PSD block and remainder, in every mode, and the HS rule's
    # mean-block bound
    ("block-hs-above-trace-unchecked", "src/wpcontent/greedy.py",
     'for part in ("extracted", "remainder"):', 'for part in ("remainder",):',
     ("test_greedy.py::test_a_forged_number_in_a_saved_report_is_flagged_at_its_own_step",)),
    ("remainder-hs-above-trace-unchecked", "src/wpcontent/greedy.py",
     'for part in ("extracted", "remainder"):', 'for part in ("extracted",):',
     ("test_greedy.py::test_a_forged_number_in_a_saved_report_is_flagged_at_its_own_step",)),
    ("hs-mean-block-removed", "src/wpcontent/greedy.py",
     "if not mean_sq <= ext_sq + hs_slack:", "if False:",
     ("test_greedy.py::test_a_forged_number_in_a_saved_report_is_flagged_at_its_own_step",)),
    # a run's report states its input, and an undefined coherence ends an HS run cleanly
    ("payload-initial-hs-x2", "src/wpcontent/greedy.py",
     '"hs": hs_norm(r)}', '"hs": 2 * hs_norm(r)}',
     ("test_acceptance.py::test_criterion_3_trace_greedy_envelope",)),
    ("coherence-undefined-raises", "src/wpcontent/greedy.py",
     "except NumericalBreakdownError:\n            break\n",
     "except NumericalBreakdownError:\n            raise\n",
     ("test_cli.py::TestGreedy::test_undefined_coherence_ends_an_hs_run_cleanly",)),
    # the re-check of a report: decay_report must run the checker on every row
    ("decay-report-unchecked", "src/wpcontent/greedy.py",
     "ok = _violation(payload, prev, row) is None", "ok = True",
     ("test_greedy.py::TestDecayReport::test_pythagorean_break_is_flagged",)),
    # input and budget tolerances
    ("additivity-budget-1e-4", "src/wpcontent/content.py",
     "budget = 1e-9 * abs(total)", "budget = 1e-4 * abs(total)",
     ("test_content.py::TestCylinderMasses::test_moved_mass_against_the_additivity_budget",)),
    ("reconstruction-budget-1e-3", "src/wpcontent/content.py",
     "if err > 1e-8 * hs_norm(r):", "if err > 1e-3 * hs_norm(r):",
     ("test_content.py::TestDepthDecomposition::"
      "test_moved_entry_against_the_reconstruction_budget",)),
    ("coherence-zero-1e-12", "src/wpcontent/greedy.py",
     "if den <= 1e-28 * num:", "if den <= 1e-12 * num:",
     ("test_greedy.py::TestCoherence::test_block_mass_against_the_zero_test",)),
    ("input-asymmetry-1e-4", "src/wpcontent/psdcore.py",
     "if asym > 1e-10 * float(np.max(np.abs(a))):", "if asym > 1e-4 * float(np.max(np.abs(a))):",
     ("test_cli.py::TestGreedy::test_input_asymmetry_of_1e_8_exits_2",)),
    ("square-sum-underflow-removed", "src/wpcontent/psdcore.py",
     "if _square_sum(values, what) < np.finfo(np.float64).tiny and np.any(values):", "if False:",
     ("test_cli.py::TestDenoise::test_underflowing_patch_second_moment_exits_2",)),
    # command-line input rules
    ("in-symbol-conflict-removed", "src/wpcontent/cli.py",
     "if args.input and args.symbol:", "if False:",
     ("test_cli.py::TestExitCodes::test_in_and_symbol_together_exit_5",)),
    ("output-on-input-allowed", "src/wpcontent/cli.py",
     'for option in ("--in", "--symbol", "--clean", *outputs):', "for option in outputs:",
     ("test_cli.py::TestExitCodes::test_an_output_on_an_input_exits_5",)),
    # checks outside the certificates: densities, cylinder masses, gamma's lower end, the
    # selftest's own rows and the tests' Loewner oracle
    ("loewner-tol-1e-2", "tests/helpers.py", "LOEWNER_TOL = 1e-8", "LOEWNER_TOL = 1e-2",
     ("test_psdcore.py::TestLoewner::test_tolerance_is_1e_8_of_the_spectral_norm",)),
    ("density-eps-1e-3", "src/wpcontent/content.py",
     "eps = 1e-12 * trace(r)", "eps = 1e-3 * trace(r)",
     ("test_content.py::TestDensities::test_light_node_keeps_its_density",)),
    ("abs-continuity-removed", "src/wpcontent/content.py", "elif nu > eps * x_sq:", "elif False:",
     ("test_content.py::TestDensities::test_vector_weight_on_a_massless_node_raises",)),
    ("density-rule-unscaled", "src/wpcontent/content.py", "elif nu > eps * x_sq:", "elif nu > eps:",
     ("test_content.py::TestDensities::test_light_node_may_carry_its_mass_times_x_squared",)),
    ("root-mass-budget-removed", "src/wpcontent/content.py",
     "if abs(masses[0][0] - total) > budget:", "if False:",
     ("test_content.py::TestCylinderMasses::test_moved_root_mass_against_the_trace",)),
    ("gamma-lower-1e-3", "src/wpcontent/greedy.py", "1.0 - 1e-9 <= gamma", "1.0 - 1e-3 <= gamma",
     ("test_greedy.py::test_gamma_below_one_keeps_its_slack",)),
    ("selftest-tree-axioms-1e-2", "src/wpcontent/selftest.py",
     "for t in trees), 1e-10)", "for t in trees), 1e-2)",
     ("test_cli.py::TestSelftest::test_own_checks_keep_their_thresholds",)),
    ("selftest-parallelogram-1e-2", "src/wpcontent/selftest.py",
     '_bounded("parallelogram", para, 1e-9)', '_bounded("parallelogram", para, 1e-2)',
     ("test_cli.py::TestSelftest::test_own_checks_keep_their_thresholds",)),
    ("selftest-band-oracle-1e-3", "src/wpcontent/selftest.py",
     '_bounded("band-oracle", oracle, 1e-12)', '_bounded("band-oracle", oracle, 1e-3)',
     ("test_cli.py::TestSelftest::test_own_checks_keep_their_thresholds",)),
    # the shipped filter taps (one D4 tap moved by about 2e-10)
    ("d4-tap-off-by-2e-10", "src/wpcontent/tree.py",
     "(3.0 - _ROOT3) / _D4_SCALE", "(3.0 - _ROOT3 + 1e-9) / _D4_SCALE",
     ("test_acceptance.py::test_criterion_1_reconstruction",)),
    # the denoiser's square-sum rule, HS ranking, retained fraction and PSNR cap
    ("patch-square-sum-removed", "src/wpcontent/denoise.py",
     'check_square_sum(gram, "patch second moment")', "pass",
     ("test_cli.py::TestDenoise::test_overflowing_sigma_exits_2_without_warning",)),
    ("hs-selection-score-squared", "src/wpcontent/denoise.py",
     "np.sqrt(hs_scores_squared(patches.rhat, tree, n))",
     "hs_scores_squared(patches.rhat, tree, n)",
     ("test_denoise.py::TestDenoisePipeline::test_hs_selection_scores_are_the_block_hs_norms",)),
    ("retained-fraction-total", "src/wpcontent/denoise.py",
     "if total > 0.0 else 1.0", "if total > 0.0 else 0.0",
     ("test_denoise.py::TestDenoisePipeline::"
      "test_an_all_black_image_retains_all_of_its_zero_energy",)),
    ("psnr-cap-off", "src/wpcontent/denoise.py",
     "return min(PSNR_CAP_DB, float(10.0 * np.log10(1.0 / mse)))",
     "return float(10.0 * np.log10(1.0 / mse))",
     ("test_denoise.py::TestPsnrAndNoise::test_a_nonzero_mse_above_99_db_is_capped",)),
    # a P5 maxval is followed by one whitespace byte
    ("p5-separator-unchecked", "src/wpcontent/pgm.py",
     "if sep and not sep.isspace():", "if False:",
     ("test_cli.py::TestDenoise::test_p5_maxval_needs_a_whitespace_separator",)),
    # cylinder masses are clamped at zero, and every tree depth is at least 1
    ("cylinder-clamp-removed", "src/wpcontent/content.py",
     "np.maximum(trace_scores(a, tree, n), 0.0)", "trace_scores(a, tree, n)",
     ("test_content.py::TestCylinderMasses::"
      "test_masses_are_nonnegative_on_a_rank_one_input_inside_one_node",)),
    ("dyadic-depth-0", "src/wpcontent/tree.py",
     "if not 1 <= depth <= top:", "if not 0 <= depth <= top:",
     ("test_cli.py::TestExitCodes::test_depth_0_exits_5",)),
    # a word the tree lacks is no node of it, also when the key is unhashable, and a sequence
    # looks up every word before its first step
    ("sequence-lookup-dropped", "src/wpcontent/greedy.py",
     "        tree.basis(node)  # an unknown word raises before any step runs\n", "        pass\n",
     ("test_greedy.py::TestExtractSequence::test_an_unknown_word_raises_before_any_step_runs",)),
    ("unhashable-word-raises-type-error", "src/wpcontent/tree.py",
     "except (KeyError, TypeError):", "except KeyError:",
     ("test_tree.py::TestTreeAxioms::test_word_the_tree_lacks_is_unknown",)),
    # input rules on shapes and counts: a PGM's size, top-K's K, a patch stride, a matrix's shape
    ("pgm-empty-size-accepted", "src/wpcontent/pgm.py", "if width < 1 or height < 1:", "if False:",
     ("test_denoise.py::TestPgm::test_zero_width_or_height_rejected",)),
    ("top-k-below-one-accepted", "src/wpcontent/denoise.py", 'if _count("k", k) < 1:', "if False:",
     ("test_denoise.py::TestSelection::test_k_below_one_rejected",)),
    ("patch-stride-below-one-accepted", "src/wpcontent/denoise.py",
     "if self.stride < 1:", "if False:",
     ("test_denoise.py::TestExtractPatches::test_stride_below_one_rejected",)),
    ("matrix-not-square-accepted", "src/wpcontent/psdcore.py",
     "if a.ndim != 2 or a.shape[0] != a.shape[1]:", "if False:",
     ("test_psdcore.py::TestPsdOperator::"
      "test_a_read_only_matrix_gives_what_a_writable_copy_gives",)),
    ("matrix-dim-zero-accepted", "src/wpcontent/psdcore.py", "if a.shape[0] < 1:", "if False:",
     ("test_psdcore.py::TestPsdOperator::"
      "test_a_read_only_matrix_gives_what_a_writable_copy_gives",)),
    # bytes and boundaries: a PGM header's order, the density's mass cut, a report's last byte
    ("pgm-header-swapped", "src/wpcontent/pgm.py", "{width} {height}", "{height} {width}",
     ("test_cli.py::TestDenoise::test_a_non_square_image_keeps_its_header",)),
    ("density-mass-10eps", "src/wpcontent/content.py", "if mu > eps:", "if mu > 10 * eps:",
     ("test_content.py::TestDensities::test_node_just_above_the_mass_cut_keeps_its_density",)),
    ("report-final-newline-dropped", "src/wpcontent/cli.py",
     'text = _dumps(payload) + "\\n"', "text = _dumps(payload)",
     ("test_cli.py::test_a_report_file_is_indented_json_and_a_final_newline",)),
    # rules that moved into a constructor: a matrix is symmetrized whatever its flags and its
    # sum of squares is finite, a default stride is half the patch side, and top-K keeps at
    # most the 4^n blocks
    ("matrix-unsymmetrized", "src/wpcontent/psdcore.py",
     "m = _symmetric(matrix)", "m = np.array(matrix, dtype=np.float64)",
     ("test_psdcore.py::TestPsdOperator::"
      "test_a_read_only_matrix_gives_what_a_writable_copy_gives",)),
    ("constructor-overflow-unchecked", "src/wpcontent/psdcore.py",
     '\n    _square_sum(m, "matrix entries")\n', "\n",
     ("test_psdcore.py::TestPsdOperator::test_an_overflowing_sum_of_squares_is_refused",)),
    ("default-stride-quarter", "src/wpcontent/denoise.py", "max(1, m // 2)", "max(1, m // 4)",
     ("test_denoise.py::TestDenoisePipeline::test_default_stride_half_overlap",)),
    ("denoise-topk-unbounded", "src/wpcontent/denoise.py",
     "if self.top_k > 4**self.depth:", "if False:",
     ("test_cli.py::TestDenoise::test_topk_above_the_block_count_exits_5",)),
    # the dense root is root_rows of the identity, symmetrized
    ("sqrt-entries-unsymmetrized", "src/wpcontent/psdcore.py",
     "return 0.5 * (s + s.T)", "return s",
     ("test_psdcore.py::TestSqrt::test_sqrt_entries_is_root_rows_of_the_identity_symmetrized",)),
    # a denoiser band is a slice of one anchor row run
    ("band-spills-past-its-run", "src/wpcontent/denoise.py",
     "band = r[i : i + BAND_ROWS]", "band = range(r[i], r[i] + BAND_ROWS * r.step, r.step)",
     ("test_oracle.py::test_bands_are_slices_of_one_anchor_run",)),
    # a symbol's values are diag(A) to the HS scores, as to the trace scores: on an identity
    # depth a block's squared norm is the sum of its squared values
    ("symbol-hs-rule-dropped", "src/wpcontent/content.py",
     "return _segment_sums(a * a, nn)", "return _segment_sums(a, nn) ** 2",
     ("test_content.py::TestSymbolReaders::test_values_match_the_dense_route",)),
    # a symbol has a power-of-two count of at least two finite values
    ("symbol-count-unchecked", "src/wpcontent/psdcore.py",
     "if n < 2 or n & (n - 1):", "if False:",
     ("test_tree.py::TestSymbol::test_every_entry_checks_a_symbol",)),
    ("symbol-finiteness-unchecked", "src/wpcontent/psdcore.py",
     "if not np.all(np.isfinite(vals)):", "if False:",
     ("test_tree.py::TestSymbol::test_every_entry_checks_a_symbol",)),
    # a saved greedy report states its depth's node count and numbers its steps 1..n
    ("report-N_n-unbound-to-depth", "src/wpcontent/greedy.py",
     "if power not in (depth, 2 * depth):", "if power < 0:",
     ("test_greedy.py::test_a_malformed_saved_report_names_its_field_before_any_relation_runs",)),
    ("report-k-order-unchecked", "src/wpcontent/greedy.py",
     'if not (_integer(row["k"]) and row["k"] == k):', 'if not _integer(row["k"]):',
     ("test_greedy.py::test_a_malformed_saved_report_names_its_field_before_any_relation_runs",)),
    # a content block is remove's Gram product M^T M, bit for bit
    ("content-block-product-rescaled", "src/wpcontent/content.py",
     "block = m.T @ m\n", "block = m.T @ m * (1.0 + 2.0**-52)\n",
     ("test_content.py::TestContentOperator::"
      "test_a_block_is_the_gram_product_remove_forms_with_no_eigensolver",)),
    # a malformed file exits 2: JSON nested past the recursion limit, a PGM number of more
    # digits than int() reads, a P2 pixel beyond the float range
    ("json-recursion-uncaught", "src/wpcontent/cli.py",
     "except (OSError, ValueError, RecursionError) as exc:", "except (OSError, ValueError) as exc:",
     ("test_cli.py::TestNumericInput::test_json_nested_too_deep_exits_2",)),
    ("pgm-digit-limit-uncaught", "src/wpcontent/pgm.py",
     "    except ValueError:\n", "    except ZeroDivisionError:\n",
     ("test_cli.py::TestDenoise::test_a_number_past_the_digit_limit_exits_2",)),
    ("p2-pixel-overflow-uncaught", "src/wpcontent/pgm.py",
     "except OverflowError:", "except ZeroDivisionError:",
     ("test_cli.py::TestDenoise::test_a_number_past_the_digit_limit_exits_2",)),
    # a patch set's cached second moment is read-only
    ("rhat-writable", "src/wpcontent/denoise.py", "        gram.setflags(write=False)\n", "",
     ("test_denoise.py::TestSecondMoment::test_the_cached_second_moment_is_read_only",)),
    # a vector whose energies are read is finite, with a finite sum of squares
    ("vector-non-finite-accepted", "src/wpcontent/content.py",
     "if not np.all(np.isfinite(rows)):", "if False:",
     ("test_content.py::test_a_vector_energy_refuses_a_non_finite_vector",)),
    ("vector-square-sum-unchecked", "src/wpcontent/content.py",
     '    _square_sum(rows, "vector entries")\n', "",
     ("test_content.py::test_a_vector_energy_refuses_a_non_finite_vector",)),
    # the one integer rule, and the counts that read it
    ("integer-rule-takes-bool", "src/wpcontent/psdcore.py",
     "return isinstance(value, (int, np.integer)) and not isinstance(value, bool)",
     "return isinstance(value, (int, np.integer))",
     ("test_greedy.py::test_a_step_count_that_is_no_int_is_refused",)),
    ("stop-rule-takes-a-float", "src/wpcontent/greedy.py",
     "if not (_integer(max_steps) and max_steps >= 0):", "if not max_steps >= 0:",
     ("test_greedy.py::test_a_step_count_that_is_no_int_is_refused",)),
    ("denoiser-count-rule-dropped", "src/wpcontent/denoise.py",
     "    if not _integer(value):\n", "    if False:\n",
     ("test_denoise.py::test_a_count_that_is_no_int_is_refused",)),
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


def run_mutant(name: str, filename: str, old: str, new: str,
               killers: tuple[str, ...]) -> tuple[bool, str]:
    """(killed, detail) for one mutant, tested in a fresh copy of the tree: its killers first."""
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

        def pytest(*ids: str) -> subprocess.CompletedProcess:
            return subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *ids],
                cwd=work, env=env, capture_output=True, text=True,
            )

        proc = pytest(*(f"tests/{test_id}" for test_id in killers))
        if not killed(name, proc.returncode):  # its named killers passed: the whole suite judges
            proc = pytest()
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
    for name, *edit in rows:
        start = time.monotonic()
        try:
            dead, detail = run_mutant(name, *edit)
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
