import ast
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wpcontent as w

from helpers import (
    block_diagonal_gram,
    dense_pinching,
    geometric_symbol,
    loewner_leq,
    random_gram,
    sequence_step,
    spread_vector,
)


class TestExtractSequence:
    def test_root_extracts_everything(self, rng):
        tree = w.build_shannon_tree(3, 1)
        r = random_gram(rng, 8)
        run = w.extract_sequence(r, tree, [tree.root])
        assert len(run.steps) == 1
        block, _ = sequence_step(r, tree, [tree.root], 1)
        assert np.max(np.abs(block - r.matrix)) <= 1e-12 * (1 + w.trace(r))
        assert w.trace(run.final_remainder) <= 1e-12 * (1 + w.trace(r))

    def test_diagonal_two_steps_exhaust(self):
        r = w.symbol_operator(geometric_symbol(3))
        tree = w.build_shannon_tree(3, 1)
        nodes = tree.nodes_at(1)
        run = w.extract_sequence(r, tree, nodes)
        total = w.trace(r)
        assert w.trace(run.final_remainder) <= 1e-14 * total
        # diagonal input commutes with the projections: first block is the band mask
        mask = np.diag([1.0] * 4 + [0.0] * 4)
        expect = mask @ r.matrix
        block, _ = sequence_step(r, tree, nodes, 1)
        assert np.max(np.abs(block - expect)) <= 1e-12

    def test_repeat_node_second_block_vanishes(self):
        r = w.symbol_operator(geometric_symbol(3))
        tree = w.build_shannon_tree(3, 1)
        node = "0"
        run = w.extract_sequence(r, tree, [node, node])
        assert run.steps[1]["extracted_trace"] <= run.steps[0]["extracted_trace"]
        assert run.steps[1]["extracted_trace"] <= 1e-14 * w.trace(r)

    def test_telescoping_and_loewner_chain(self, rng):
        tree = w.build_filter_tree_1d("d4", 8, 2)
        r = random_gram(rng, 8)
        fro = w.hs_norm(r)
        seq = [tree.nodes_at(2)[0], tree.nodes_at(1)[1], tree.nodes_at(2)[3]]
        run = w.extract_sequence(r, tree, seq)
        partial = np.zeros((8, 8))
        prev = r.matrix
        for step in run.steps:
            block, remainder = sequence_step(r, tree, seq, step["k"])
            partial += block
            assert np.max(np.abs(r.matrix - partial - remainder)) <= 1e-8 * (1 + fro)
            assert loewner_leq(remainder, prev)
            prev = remainder

    def test_unknown_node_rejected(self, rng):
        tree = w.build_shannon_tree(3, 1)
        with pytest.raises(w.ConfigError, match="not in tree"):
            w.extract_sequence(random_gram(rng, 8), tree, ["00"])

    def test_remainder_stats_nonincreasing(self, rng):
        tree = w.build_shannon_tree(3, 2)
        r = random_gram(rng, 8)
        nodes = [tree.nodes_at(2)[i % 4] for i in range(8)]
        run = w.extract_sequence(r, tree, nodes)
        traces = [w.trace(r)] + [s["remainder_trace"] for s in run.steps]
        assert all(b <= a + 1e-12 * traces[0] for a, b in zip(traces, traces[1:]))


class TestCoherence:
    def test_block_diagonal_gives_one(self, rng):
        tree = w.build_shannon_tree(3, 2)
        a = block_diagonal_gram(rng, tree, 2, 8)
        assert w.coherence(a, tree, 2) == pytest.approx(1.0, abs=1e-9)

    def test_equal_spread_rank_one_gives_node_count(self, rng):
        for tree in (
            w.build_shannon_tree(3, 2),
            w.build_filter_tree_1d("d4", 16, 2),
        ):
            n = tree.max_depth
            nn = len(tree.nodes_at(n))
            v = spread_vector(tree, n)
            a = w.PsdOperator(np.outer(v, v))
            assert w.coherence(a, tree, n) == pytest.approx(nn, abs=1e-6)

    def test_zero_operator_undefined(self):
        tree = w.build_shannon_tree(3, 1)
        a = w.PsdOperator(np.zeros((8, 8)))
        with pytest.raises(w.NumericalBreakdownError, match="coherence undefined"):
            w.coherence(a, tree, 1)

    @pytest.mark.parametrize("levels", [3, 4, 6])
    @pytest.mark.parametrize("name", ["shannon", "haar", "d4"])
    def test_symbol_values_match_the_symbol_operator(self, rng, name, levels):
        # a symbol's values are diag(A): scores and gamma are the diagonal operator's, bit for bit
        sym = w.shannon_symbol(rng.uniform(0.1, 1.0, 2**levels))
        tree = (w.build_shannon_tree(levels, levels) if name == "shannon"
                else w.build_filter_tree_1d(name, 2**levels, levels))
        op = w.symbol_operator(sym)
        for n in range(tree.max_depth + 1):
            assert np.array_equal(w.content.hs_scores_squared(sym, tree, n),
                                  w.content.hs_scores_squared(op, tree, n)), n
            assert w.coherence(sym, tree, n) == w.coherence(op, tree, n), n

    @pytest.mark.parametrize("mass, defined", [(1e-20, True), (0.5e-28, False)],
                             ids=["1e-20-defined", "0.5e-28-undefined"])
    def test_block_mass_against_the_zero_test(self, rng, mass, defined):
        # a PSD operator's own block HS mass is at least ||A||^2 / N, so the
        # zero test (1e-28 ||A||^2) is reached here through given scores
        tree = w.build_shannon_tree(3, 2)
        a = random_gram(rng, 8)
        num = w.hs_norm(a) ** 2
        scores = np.full(4, mass * num / 4)
        if defined:
            gamma = w.coherence(a, tree, 2, scores=scores)
            assert gamma == pytest.approx(1.0 / mass, rel=1e-12)
        else:
            with pytest.raises(w.NumericalBreakdownError, match="coherence undefined"):
                w.coherence(a, tree, 2, scores=scores)

    def test_pinching_identity_and_sandwich(self, rng):
        # gamma is ||A||^2 over the sum of squared block HS norms; that sum
        # equals tr(E_n(A) A) and sits in [||A||^2 / N, ||A||^2]
        tree = w.build_filter_tree_1d("haar", 16, 2)
        a = random_gram(rng, 16)
        num = w.hs_norm(a) ** 2
        den = float(np.sum(w.content.hs_scores_squared(a.matrix, tree, 2)))
        cross = float(np.sum(dense_pinching(a.matrix, tree, 2) * a.matrix))
        assert w.coherence(a, tree, 2) == pytest.approx(num / den, rel=1e-12)
        assert den == pytest.approx(cross, rel=1e-8)
        nn = len(tree.nodes_at(2))
        assert den <= num * (1 + 1e-9)
        assert den >= num / nn * (1 - 1e-9)

    def test_bounds_on_random_ensemble(self, rng):
        tree = w.build_shannon_tree(4, 2)
        nn = len(tree.nodes_at(2))
        for _ in range(10):
            a = random_gram(rng, 16)
            gamma = w.coherence(a, tree, 2)
            assert 1.0 - 1e-9 <= gamma <= nn + 1e-9


class TestTraceGreedy:
    def test_shannon_worked_example(self):
        # band sums for the geometric symbol at levels 3: 15/16 and 15/8
        r = w.symbol_operator(geometric_symbol(3))
        tree = w.build_shannon_tree(3, 1)
        total = w.trace(r)
        assert total == pytest.approx(45.0 / 16.0, abs=1e-14)
        run = w.trace_greedy(r, tree, 1, max_steps=4)
        assert run.steps[0]["node"] == "1"
        assert run.steps[0]["extracted_trace"] == pytest.approx(15.0 / 8.0, abs=1e-12)
        assert run.steps[0]["remainder_trace"] == pytest.approx(15.0 / 16.0, abs=1e-12)
        assert run.steps[0]["remainder_trace"] <= 0.5 * total
        assert run.steps[0]["bound_trace"] == pytest.approx(0.5 * total, abs=1e-12)
        assert run.steps[1]["node"] == "0"
        assert run.steps[1]["remainder_trace"] <= 1e-12 * total

    def test_diagonal_exhausts_in_node_count_steps(self, rng):
        tree = w.build_shannon_tree(4, 2)
        nn = len(tree.nodes_at(2))
        vals = rng.uniform(0.1, 1.0, size=16)
        r = w.PsdOperator(np.diag(vals))
        run = w.trace_greedy(r, tree, 2, max_steps=2 * nn)
        assert len(run.steps) <= nn
        assert w.trace(run.final_remainder) <= 1e-12 * w.trace(r)

    def test_zero_operator_empty_trace(self):
        tree = w.build_shannon_tree(3, 1)
        r = w.PsdOperator(np.zeros((8, 8)))
        run = w.trace_greedy(r, tree, 1, max_steps=5)
        assert run.steps == ()

    def test_envelope_on_random_ensemble(self, rng):
        for tree in (w.build_shannon_tree(3, 2), w.build_filter_tree_1d("d4", 8, 2)):
            nn = len(tree.nodes_at(2))
            ratio = 1.0 - 1.0 / nn
            for _ in range(5):
                r = random_gram(rng, 8)
                total = w.trace(r)
                run = w.trace_greedy(r, tree, 2, max_steps=3 * nn)
                for step in run.steps:
                    assert step["remainder_trace"] <= ratio**step["k"] * total * (1 + 1e-9)

    def test_first_step_dominates_average(self, rng):
        tree = w.build_shannon_tree(4, 3)
        nn = len(tree.nodes_at(3))
        r = random_gram(rng, 16)
        run = w.trace_greedy(r, tree, 3, max_steps=1)
        assert run.steps[0]["extracted_trace"] >= w.trace(r) / nn - 1e-10

    def test_deterministic(self, rng):
        tree = w.build_filter_tree_1d("haar", 8, 2)
        r = random_gram(rng, 8)
        a = w.trace_greedy(r, tree, 2, max_steps=10)
        b = w.trace_greedy(r, tree, 2, max_steps=10)
        assert [s["node"] for s in a.steps] == [s["node"] for s in b.steps]
        assert [s["remainder_trace"] for s in a.steps] == [s["remainder_trace"] for s in b.steps]

    def test_max_steps_zero(self, rng):
        tree = w.build_shannon_tree(3, 1)
        run = w.trace_greedy(random_gram(rng, 8), tree, 1, max_steps=0)
        assert run.steps == ()


class TestHsGreedy:
    def test_block_diagonal_improved_factor(self, rng):
        tree = w.build_shannon_tree(3, 1)
        r = block_diagonal_gram(rng, tree, 1, 8)
        nn = 2
        run = w.hs_greedy(r, tree, 1, max_steps=6)
        prev_sq = run.report["initial"]["hs"] ** 2
        for step in run.steps:
            assert step["gamma"] == pytest.approx(1.0, abs=1e-9)
            assert step["remainder_hs"] ** 2 <= (1.0 - 1.0 / nn) * prev_sq * (1 + 1e-9) + 1e-15
            prev_sq = step["remainder_hs"] ** 2

    def test_shannon_symbol_picks_heaviest_hs_block(self):
        # block l2 masses: sqrt(85/256) for "0" vs sqrt(85/64) for "1"
        r = w.symbol_operator(geometric_symbol(3))
        tree = w.build_shannon_tree(3, 1)
        run = w.hs_greedy(r, tree, 1, max_steps=1)
        assert run.steps[0]["node"] == "1"
        assert run.steps[0]["extracted_hs"] == pytest.approx(np.sqrt(85.0 / 64.0), rel=1e-12)

    def test_zero_operator_empty(self):
        tree = w.build_shannon_tree(3, 1)
        r = w.PsdOperator(np.zeros((8, 8)))
        assert w.hs_greedy(r, tree, 1, max_steps=5).steps == ()

    def test_envelopes_on_random_ensemble(self, rng):
        for tree in (w.build_shannon_tree(3, 2), w.build_filter_tree_1d("d4", 8, 2)):
            nn = len(tree.nodes_at(2))
            uniform = 1.0 - 1.0 / nn**2
            for _ in range(5):
                r = random_gram(rng, 8)
                run = w.hs_greedy(r, tree, 2, max_steps=3 * nn)
                h0_sq = prev_sq = run.report["initial"]["hs"] ** 2
                for step in run.steps:
                    assert 1.0 - 1e-9 <= step["gamma"] <= nn + 1e-9
                    per_step = 1.0 - 1.0 / (step["gamma"] * nn)
                    assert step["remainder_hs"] ** 2 <= per_step * prev_sq + 1e-9 * (1 + prev_sq)
                    assert step["remainder_hs"] ** 2 <= (
                        uniform**step["k"] * h0_sq + 1e-9 * (1 + h0_sq)
                    )
                    prev_sq = step["remainder_hs"] ** 2

    def test_pythagorean_property_on_projected_pairs(self, rng):
        # pairs (A, D = sqrt(A) Q sqrt(A)) with Q a packet projection satisfy
        # ||A - D||^2 <= ||A||^2 - ||D||^2
        trees = [w.build_shannon_tree(3, 2), w.build_filter_tree_1d("d4", 8, 2)]
        for _ in range(50):
            tree = trees[int(rng.integers(len(trees)))]
            a = random_gram(rng, 8)
            depth = int(rng.integers(1, tree.max_depth + 1))
            nodes = tree.nodes_at(depth)
            node = nodes[int(rng.integers(len(nodes)))]
            s = a.sqrt_entries()
            b = tree.basis(node)
            m = b @ s
            d = m.T @ m
            lhs = float(np.sum((a.matrix - d) ** 2))
            rhs = float(np.sum(a.matrix**2)) - float(np.sum(d**2))
            assert lhs <= rhs + 1e-9 * float(np.sum(a.matrix**2))


class TestDecayReport:
    def test_empty_trace(self):
        tree = w.build_shannon_tree(3, 1)
        r = w.PsdOperator(np.zeros((8, 8)))
        rep = w.decay_report(w.trace_greedy(r, tree, 1, max_steps=3).report)
        assert rep["rows"] == []
        assert rep["summary"]["note"] == "no steps"
        assert rep["summary"]["first_violation"] is None

    def test_trace_rows_within_envelope(self, rng):
        tree = w.build_shannon_tree(3, 2)
        r = random_gram(rng, 8)
        rep = w.decay_report(w.trace_greedy(r, tree, 2, max_steps=12).report)
        assert rep["summary"]["first_violation"] is None
        for row in rep["rows"]:
            assert row["bound_satisfied"]
            assert row["remainder_trace"] <= row["bound_trace"] * (1 + 1e-9) + 1e-12

    def test_hs_rows_record_gamma_in_bounds(self, rng):
        tree = w.build_shannon_tree(3, 2)
        nn = len(tree.nodes_at(2))
        r = random_gram(rng, 8)
        rep = w.decay_report(w.hs_greedy(r, tree, 2, max_steps=12).report)
        assert rep["summary"]["first_violation"] is None
        for row in rep["rows"]:
            assert 1.0 - 1e-9 <= row["gamma"] <= nn + 1e-9

    def test_payload_schema(self, rng):
        tree = w.build_shannon_tree(3, 1)
        run = w.trace_greedy(random_gram(rng, 8), tree, 1, max_steps=3)
        payload = run.report
        assert payload["mode"] == "trace-greedy"
        assert payload["depth"] == 1 and payload["N_n"] == 2
        assert set(payload["initial"]) == {"trace", "hs"}
        assert {"k", "node", "extracted_trace", "remainder_hs"} <= set(payload["steps"][0])

    def test_pythagorean_break_is_flagged(self, rng):
        tree = w.build_shannon_tree(3, 2)
        run = w.hs_greedy(random_gram(rng, 8), tree, 2, max_steps=6)
        prev_sq = run.steps[1]["remainder_hs"] ** 2
        step = run.steps[2]
        # ||D||^2 1% past the room ||A||^2 - ||A - D||^2 (plus slack) the bound leaves
        room = prev_sq - step["remainder_hs"] ** 2 + 1e-9 * (1 + prev_sq)
        bad = {**step, "extracted_hs": float(np.sqrt(1.01 * room))}
        steps = run.steps[:2] + (bad,) + run.steps[3:]
        rep = w.decay_report({**run.report, "steps": steps})
        assert rep["summary"]["first_violation"] == 3
        assert [row["bound_satisfied"] for row in rep["rows"]][:4] == [True, True, False, True]

    def test_one_step_trace_break_inside_envelope_is_flagged(self, rng):
        tree = w.build_shannon_tree(3, 2)
        run = w.trace_greedy(random_gram(rng, 8), tree, 2, max_steps=6)
        ratio = 1.0 - 1.0 / len(tree.nodes_at(2))
        k = next(
            i for i in range(1, len(run.steps))
            if run.steps[i]["bound_trace"] - ratio * run.steps[i - 1]["remainder_trace"]
            > 1e-6 * (1 + run.report["initial"]["trace"])
        )
        one_step = ratio * run.steps[k - 1]["remainder_trace"]
        step = run.steps[k]
        bad = {**step, "remainder_trace": 0.5 * (one_step + step["bound_trace"])}
        steps = run.steps[:k] + (bad,) + run.steps[k + 1 :]
        rep = w.decay_report({**run.report, "steps": steps})
        assert rep["summary"]["first_violation"] == k + 1

    @pytest.mark.parametrize("run, field", [
        (w.trace_greedy, "remainder_trace"),
        (w.hs_greedy, "remainder_hs"),
        (w.hs_greedy, "extracted_hs"),
    ], ids=["trace-remainder_trace", "hs-remainder_hs", "hs-extracted_hs"])
    def test_nan_is_flagged(self, rng, run, field):
        # json.load accepts NaN, and every comparison with NaN is false
        tree = w.build_shannon_tree(3, 2)
        record = run(random_gram(rng, 8), tree, 2, max_steps=4)
        bad = {**record.steps[1], field: float("nan")}
        steps = record.steps[:1] + (bad,) + record.steps[2:]
        rep = w.decay_report({**record.report, "steps": steps})
        assert rep["summary"]["first_violation"] == 2
        assert not rep["rows"][1]["bound_satisfied"]

    def test_coherence_out_of_range_stops_the_loop(self, rng, monkeypatch):
        tree = w.build_shannon_tree(3, 2)
        nn = len(tree.nodes_at(2))
        real = w.greedy.coherence

        def inflated(*args, **kwargs):
            real(*args, **kwargs)
            return nn + 1.0

        monkeypatch.setattr(w.greedy, "coherence", inflated)
        with pytest.raises(w.NumericalBreakdownError) as exc:
            w.hs_greedy(random_gram(rng, 8), tree, 2, max_steps=4)
        assert exc.value.step == 1


@pytest.mark.parametrize("case, params", [
    ("test_pythagorean_break_is_flagged", {}),
    ("test_one_step_trace_break_inside_envelope_is_flagged", {}),
    ("test_nan_is_flagged", {"run": w.trace_greedy, "field": "remainder_trace"}),
    ("test_nan_is_flagged", {"run": w.hs_greedy, "field": "remainder_hs"}),
    ("test_nan_is_flagged", {"run": w.hs_greedy, "field": "extracted_hs"}),
], ids=["pythagorean", "trace-one-step", "nan-trace-remainder_trace", "nan-hs-remainder_hs",
        "nan-hs-extracted_hs"])
def test_a_saved_corruption_is_flagged_at_the_same_step(rng, tmp_path, monkeypatch, case, params):
    # each corruption test of TestDecayReport, with decay_report reading its payload back from
    # a file: json writes floats by repr and reads NaN, so the test's own assertions must hold
    real, saved = w.decay_report, []

    def from_file(payload):
        with open(tmp_path / "report.json", "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        with open(tmp_path / "report.json", encoding="utf-8") as fh:
            saved.append(json.load(fh))
        return real(saved[-1])

    monkeypatch.setattr(w, "decay_report", from_file)
    getattr(TestDecayReport(), case)(rng, **params)
    assert len(saved) == 1


def _saved_run(mode, tree=None, depth=2):
    """A 4-step run of ``mode`` on a d = 8 Gram matrix, as json.load returns its report."""
    tree = tree or w.build_shannon_tree(3, 2)
    r = random_gram(np.random.default_rng(5), tree.ambient_dim)
    if mode == "sequence":
        run = w.extract_sequence(r, tree, [tree.nodes_at(2)[1], tree.root, tree.nodes_at(1)[0]])
    else:
        run = (w.trace_greedy if mode == "trace-greedy" else w.hs_greedy)(r, tree, depth, 4)
    return json.loads(json.dumps(run.report))


def _row(i, **fields):
    return lambda report: report["steps"][i].update(fields)


# (mode, edit of the loaded report, the field the error names): each probe raised a bare
# TypeError, KeyError or ZeroDivisionError, or passed silently, before decay_report checked
# the fields it reads
_MALFORMED = {
    "N_n-0": ("trace-greedy", lambda r: r.update(N_n=0), '"N_n"'),
    "N_n-string": ("trace-greedy", lambda r: r.update(N_n="4"), '"N_n"'),
    "N_n-1e9": ("trace-greedy", lambda r: r.update(N_n=10**9), '"N_n"'),
    "N_n-2^30": ("trace-greedy", lambda r: r.update(N_n=2**30), '"N_n"'),
    "N_n-8-at-depth-2": ("hs-greedy", lambda r: r.update(N_n=8), '"N_n"'),
    "N_n-true-at-depth-0": ("trace-greedy", lambda r: r.update(depth=0, N_n=True), '"N_n"'),
    "depth-negative": ("trace-greedy", lambda r: r.update(depth=-1, N_n=1), '"depth"'),
    "depth-true": ("hs-greedy", lambda r: r.update(depth=True, N_n=2), '"depth"'),
    "mode-foo": ("trace-greedy", lambda r: r.update(mode="foo"), '"mode"'),
    "gamma-null": ("hs-greedy", _row(1, gamma=None), r'"steps\[1\]\.gamma"'),
    "gamma-true": ("hs-greedy", _row(0, gamma=True), r'"steps\[0\]\.gamma"'),
    "bound_trace-null": ("trace-greedy", _row(2, bound_trace=None), r'"steps\[2\]\.bound_trace"'),
    "remainder_hs-string": ("trace-greedy", _row(1, remainder_hs="1"),
                            r'"steps\[1\]\.remainder_hs"'),
    "extracted_hs-true": ("sequence", _row(0, extracted_hs=True), r'"steps\[0\]\.extracted_hs"'),
    "initial-trace-true": ("trace-greedy", lambda r: r["initial"].update(trace=True),
                           '"initial.trace"'),
    "steps-missing": ("trace-greedy", lambda r: r.pop("steps"), '"steps"'),
    "steps-dict": ("hs-greedy", lambda r: r.update(steps={}), '"steps"'),
    "initial-missing": ("sequence", lambda r: r.pop("initial"), '"initial"'),
    "initial-hs-missing": ("trace-greedy", lambda r: r["initial"].pop("hs"), '"initial.hs"'),
    "row-field-missing": ("hs-greedy", lambda r: r["steps"][2].pop("bound_hs"),
                          r'"steps\[2\]"'),
    "k-renumbered": ("trace-greedy", _row(2, k=7), r'"steps\[2\]\.k" must be 3'),
    "k-true": ("sequence", _row(0, k=True), r'"steps\[0\]\.k" must be 1'),
    "node-int": ("sequence", _row(0, node=5), r'"steps\[0\]\.node"'),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_a_malformed_saved_report_names_its_field_before_any_relation_runs(monkeypatch, case):
    mode, edit, field = _MALFORMED[case]
    report = _saved_run(mode)
    edit(report)
    monkeypatch.setattr(w.greedy, "_violation", mock.Mock(side_effect=AssertionError))
    with pytest.raises(w.MalformedInputError, match=f"^report field {field}"):
        w.decay_report(report)


def test_a_report_that_is_no_dict_is_malformed():
    with pytest.raises(w.MalformedInputError, match="a report must be a dict"):
        w.decay_report([])


@pytest.mark.parametrize("tree, depth, nn", [
    (w.build_shannon_tree(3, 2), 0, 1),
    (w.build_shannon_tree(3, 2), 2, 4),
    (w.build_filter_tree_2d("haar", 4, 2), 1, 4),
    (w.build_filter_tree_2d("haar", 4, 2), 2, 16),
], ids=["1d-depth-0", "1d-depth-2", "2d-depth-1", "2d-depth-2"])
@pytest.mark.parametrize("mode", ["trace-greedy", "hs-greedy"])
def test_a_saved_run_states_2_or_4_to_the_depth_nodes_and_passes(mode, tree, depth, nn):
    report = _saved_run(mode, tree, depth)
    assert (report["depth"], report["N_n"]) == (depth, nn)
    assert w.decay_report(report)["summary"]["first_violation"] is None


def _moved_trace(row, field, value):
    """``field`` (a trace) set to ``value``, the difference moved to the other trace of ``row``."""
    other = "remainder_trace" if field == "extracted_trace" else "extracted_trace"
    return {field: value, other: row[other] + row[field] - value}


def _below_the_mean_block(prev, row):
    """extracted_hs halfway from the triangle's lower end to the mean block norm (N = 8)."""
    low = prev["remainder_hs"] - row["remainder_hs"]
    mean = prev["remainder_hs"] / np.sqrt(8 * row["gamma"])
    return {"extracted_hs": 0.5 * (low + mean)}


_MODES = ("trace-greedy", "hs-greedy", "sequence")
# (step, forgery, relation the checker names, modes): ``forgery(prev, row)`` gives new values
# for fields of step ``step``'s row, ``prev`` being the row before it; step 0 forges
# "initial" instead. Each is flagged at its own step (step 1 for "initial"). The trace
# moves keep the trace identity and every HS relation, and the mean-block forgery keeps
# Pythagoras and the triangle inequality, so only the relation named can flag them.
_FORGERIES = {
    "extracted_trace-0": (5, lambda p, r: {"extracted_trace": 0.0}, "trace identity", _MODES),
    "extracted_trace-x100": (
        5, lambda p, r: {"extracted_trace": 100 * r["extracted_trace"]}, "trace identity", _MODES),
    "extracted_hs-0": (5, lambda p, r: {"extracted_hs": 0.0}, "HS triangle", _MODES),
    "extracted_hs-x100": (
        5, lambda p, r: {"extracted_hs": 100 * r["extracted_hs"]}, "pythagorean", _MODES),
    "remainder_hs-0": (5, lambda p, r: {"remainder_hs": 0.0}, "HS triangle", _MODES),
    "initial-trace-x2": (0, lambda p, i: {"trace": 2 * i["trace"]}, "trace identity", _MODES),
    "initial-hs-x2": (0, lambda p, i: {"hs": 2 * i["hs"]}, "HS triangle", _MODES),
    "extracted_trace-below-its-hs": (
        5, lambda p, r: _moved_trace(r, "extracted_trace", 0.5 * r["extracted_hs"]),
        "extracted HS norm above its trace", _MODES),
    "remainder_trace-below-its-hs": (
        5, lambda p, r: _moved_trace(r, "remainder_trace", 0.5 * r["remainder_hs"]),
        "remainder HS norm above its trace", _MODES),
    "extracted_hs-below-the-mean-block": (
        5, _below_the_mean_block, "HS block below the mean block", ("hs-greedy",)),
}


def _forged(report, forgery):
    """``report`` with the forgery of `_FORGERIES` applied."""
    k, forge = _FORGERIES[forgery][:2]
    if k == 0:
        return {**report, "initial": {**report["initial"], **forge(None, report["initial"])}}
    steps = list(report["steps"])
    steps[k - 1] = {**steps[k - 1], **forge(steps[k - 2], steps[k - 1])}
    return {**report, "steps": steps}


_FORGERY_CASES = [(m, f) for f, spec in _FORGERIES.items() for m in _MODES if m in spec[3]]


@pytest.mark.parametrize("mode, forgery", _FORGERY_CASES,
                         ids=[f"{m}-{f}" for m, f in _FORGERY_CASES])
def test_a_forged_number_in_a_saved_report_is_flagged_at_its_own_step(rng, tmp_path, mode, forgery):
    # a d = 32 Gram matrix on the D4 tree, depth 3, 12 steps; the forged report goes
    # through a file, and decay_report reads what json.load returns
    tree = w.build_filter_tree_1d("d4", 32, 3)
    r = random_gram(rng, 32)
    if mode == "sequence":
        at = tree.nodes_at
        nodes = [at(3)[6], at(1)[0], at(2)[3], at(3)[1], at(2)[1], at(3)[4],
                 at(0)[0], at(3)[2], at(1)[1], at(2)[0], at(3)[7], at(3)[5]]
        run = w.extract_sequence(r, tree, nodes)
    else:
        run = (w.trace_greedy if mode == "trace-greedy" else w.hs_greedy)(r, tree, 3, 12)
    assert len(run.steps) == 12
    assert w.decay_report(run.report)["summary"]["first_violation"] is None
    path = tmp_path / "report.json"
    path.write_text(json.dumps(_forged(run.report, forgery)), encoding="utf-8")
    saved = json.loads(path.read_text(encoding="utf-8"))
    k, relation = max(_FORGERIES[forgery][0], 1), _FORGERIES[forgery][2]
    rep = w.decay_report(saved)
    assert rep["summary"]["first_violation"] == k
    prev = saved["steps"][k - 2] if k > 1 else None
    assert w.greedy._violation(saved, prev, saved["steps"][k - 1]).startswith(relation)


def test_greedy_reads_no_operator_entries():
    # a step asks its remainder to remove the block, which checks it at the remainder's own
    # scale, and the scores read it through as_entries
    source = ast.parse(Path(w.greedy.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(source):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.update({node.name, node.asname})
    assert not names & {"matrix", "eigenvalues", "scale"}


@pytest.mark.parametrize("mode", ["sequence", "trace-greedy", "hs-greedy"])
def test_one_eigensolver_per_step_and_no_square_root(rng, monkeypatch, mode):
    tree = w.build_filter_tree_1d("d4", 8, 2)
    r = random_gram(rng, 8)
    real, calls = w.psdcore.sym_eigen, []

    def counted(m):
        calls.append(m)
        return real(m)

    def no_sqrt(_):
        raise AssertionError("an extraction step formed the square root")

    monkeypatch.setattr(w.psdcore, "sym_eigen", counted)
    monkeypatch.setattr(w.PsdOperator, "sqrt_entries", no_sqrt)
    if mode == "sequence":
        seq = [tree.nodes_at(2)[0], tree.nodes_at(1)[1], tree.root, tree.nodes_at(2)[3]]
        run = w.extract_sequence(r, tree, seq)
    else:
        extract = w.trace_greedy if mode == "trace-greedy" else w.hs_greedy
        run = extract(r, tree, 2, max_steps=4)
    assert len(run.steps) == 4 and len(calls) == 4


@pytest.mark.parametrize("extract", [w.trace_greedy, w.hs_greedy], ids=["trace", "hs"])
@pytest.mark.parametrize("tail, steps", [(-5e-11, None), (-5e-13, None), (-5e-15, 2)])
def test_a_run_from_a_remainder_is_checked_at_its_own_lam_max(extract, tail, steps):
    # diag(0, 1e-3, tail, 2e-4) was checked at scale 1; a run checks it at its own lam_max,
    # 1e-3, where a tail below -1e-13 is too deep, before step 1
    _, rest = w.PsdOperator(np.diag([1.0, 1e-3, tail, 2e-4])).remove(np.eye(4)[:1])
    assert rest.scale == 1.0
    tree = w.build_shannon_tree(2, 1)
    if steps is None:
        with pytest.raises(w.NotPositiveError), mock.patch.object(
            w.PsdOperator, "remove", side_effect=AssertionError("a step ran")
        ):
            extract(rest, tree, 1, max_steps=2)
    else:
        run = extract(rest, tree, 1, max_steps=2)
        assert len(run.steps) == steps and run.final_remainder.scale == 1e-3


@pytest.mark.parametrize("extract", [w.trace_greedy, w.hs_greedy], ids=["trace", "hs"])
def test_greedy_rejects_a_stopping_rule_that_cannot_fire(extract):
    # a negative step count records nothing
    r = w.PsdOperator(np.diag([1.0, 1.0, 0.0, 0.0]))
    with pytest.raises(w.ConfigError):
        extract(r, w.build_shannon_tree(2, 1), 1, -3)


@pytest.mark.parametrize("extract", [w.trace_greedy, w.hs_greedy], ids=["trace", "hs"])
@pytest.mark.parametrize("tree", [w.build_shannon_tree(3, 3), w.build_filter_tree_1d("d4", 8, 2)],
                         ids=["shannon-3", "d4-2"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_run_stops_cleanly_at_the_first_remainder_at_the_clamps_zero(extract, tree, seed):
    # past that zero the remainder is rounding noise, on which the HS rule's gamma leaves [1, N]
    g = np.random.default_rng(seed).standard_normal((8, 8))
    r = w.PsdOperator(g @ g.T / 8)
    run = extract(r, tree, tree.max_depth, max_steps=400)
    before = w.extract_sequence(r, tree, [s["node"] for s in run.steps[:-1]]).final_remainder
    ratios = [float(op.eigenvalues[0]) / op.scale for op in (before, run.final_remainder)]
    assert len(run.steps) < 400 and ratios[0] > 1e-10 >= ratios[1]


_SCALE_EXPONENTS = (-60, -40, -20, 0, 20, 40)
_SCALED_FIELDS = (
    "extracted_trace", "extracted_hs", "remainder_trace", "remainder_hs", "bound_trace", "bound_hs",
)


def _scale_tree(name):
    if name == "shannon":
        return w.build_shannon_tree(4, 2)
    return w.build_filter_tree_1d(name, 16, 2)


def _scaled_runs(base, tree, c):
    """Trace-greedy, HS-greedy and sequence runs on c * base."""
    r = w.PsdOperator(c * base)
    seq = [tree.nodes_at(2)[0], tree.nodes_at(1)[1], tree.root, tree.nodes_at(2)[3]]
    return (
        w.trace_greedy(r, tree, 2, max_steps=12),
        w.hs_greedy(r, tree, 2, max_steps=12),
        w.extract_sequence(r, tree, seq),
    )


@pytest.mark.parametrize("tree_name", ["shannon", "haar", "d4"])
def test_runs_on_a_power_of_two_multiple_scale_exactly(rng, tree_name):
    # scaling by 2^k (k even, so sqrt(2^k) is exact too) commutes with every
    # rounding, so a scale-relative rule must pick the same blocks and values
    tree = _scale_tree(tree_name)
    g = rng.standard_normal((16, 16))
    base = g.T @ g / 16
    unit = _scaled_runs(base, tree, 1.0)
    assert [len(run.steps) for run in unit] == [12, 12, 4]
    for k in _SCALE_EXPONENTS:
        c = 2.0**k
        for u, s in zip(unit, _scaled_runs(base, tree, c)):
            mode, su, ss = u.report["mode"], u.report["initial"], s.report["initial"]
            assert [st["node"] for st in s.steps] == [st["node"] for st in u.steps], (k, mode)
            assert (ss["trace"], ss["hs"]) == (c * su["trace"], c * su["hs"])
            for a, b in zip(u.steps, s.steps):
                assert b["gamma"] == a["gamma"]
                for f in _SCALED_FIELDS:
                    ua, sb = a[f], b[f]
                    assert sb == (None if ua is None else c * ua), (k, mode, b["k"], f)


@pytest.mark.parametrize("k", _SCALE_EXPONENTS)
@pytest.mark.parametrize("extract", [w.trace_greedy, w.hs_greedy], ids=["trace", "hs"])
def test_a_step_that_does_not_shrink_is_flagged_at_every_scale(rng, k, extract):
    tree = _scale_tree("d4")
    g = rng.standard_normal((16, 16))
    run = extract(w.PsdOperator(2.0**k * (g.T @ g) / 16), tree, 2, max_steps=4)
    prev, step = run.steps[0], run.steps[1]
    stuck = {
        **step, "remainder_trace": prev["remainder_trace"], "remainder_hs": prev["remainder_hs"]
    }
    rep = w.decay_report({**run.report, "steps": (prev, stuck, *run.steps[2:])})
    assert rep["summary"]["first_violation"] == 2


def _one_step_record(mode, t, h, **row):
    """Hand-built report on N = 4 nodes, initial trace ``t`` and HS norm ``h``, one step.

    The fields ``row`` leaves out keep the relations of every mode with room when
    t = 4h: the extracted trace is ``t`` less the remainder trace (half of it by
    default), and the HS norms default to sqrt(0.5) and sqrt(0.4) times ``h``
    (extracted, remainder).
    """
    fields = dict(k=1, node="00", remainder_trace=0.5 * t,
                  extracted_hs=np.sqrt(0.5) * h, remainder_hs=np.sqrt(0.4) * h)
    step = {**dict.fromkeys(w.greedy.ROW_FIELDS), **fields, **row}
    step["extracted_trace"] = t - step["remainder_trace"]
    return {"mode": mode, "depth": 2, "N_n": 4, "initial": {"trace": t, "hs": h},
            "steps": [step]}


# Each record breaks one certified inequality by ``excess`` times the run's
# scale (t = tr R for trace checks and HS-below-trace, h^2 = ||R||^2 for HS
# checks); the slack is 1e-9 times that scale. Every other relation holds with
# room, except Pythagoras in coherence-contraction: Pythagoras and the mean-block
# bound together imply the contraction, so breaking it leaves Pythagoras tight.
_BROKEN = {
    "trace-one-step": ("trace-greedy", "one-step trace contraction", lambda t, h, e: dict(
        remainder_trace=(0.75 + e) * t, bound_trace=t)),
    "trace-envelope": ("trace-greedy", "trace envelope", lambda t, h, e: dict(
        remainder_trace=(0.5 + e) * t, bound_trace=0.5 * t)),
    "extracted-hs-above-trace": ("sequence", "extracted HS norm above its trace",
                                 lambda t, h, e: dict(remainder_trace=0.9 * t,
                                                      extracted_hs=(0.1 + e) * t)),
    "remainder-hs-above-trace": ("sequence", "remainder HS norm above its trace",
                                 lambda t, h, e: dict(remainder_trace=0.1 * t,
                                                      remainder_hs=(0.1 + e) * t)),
    "pythagorean": ("hs-greedy", "pythagorean", lambda t, h, e: dict(
        remainder_hs=np.sqrt(0.5) * h, extracted_hs=np.sqrt(0.5 + e) * h, gamma=1.0, bound_hs=h)),
    "coherence-contraction": ("hs-greedy", "coherence contraction", lambda t, h, e: dict(
        remainder_hs=np.sqrt(0.875 + e) * h, extracted_hs=np.sqrt(0.125 - e) * h, gamma=2.0,
        bound_hs=h)),
    "hs-envelope": ("hs-greedy", "uniform HS envelope", lambda t, h, e: dict(
        remainder_hs=np.sqrt(0.5 + e) * h, extracted_hs=np.sqrt(0.3) * h, gamma=1.0,
        bound_hs=np.sqrt(0.5) * h)),
    "hs-mean-block": ("hs-greedy", "HS block below the mean block", lambda t, h, e: dict(
        remainder_hs=np.sqrt(0.5) * h, extracted_hs=np.sqrt(0.125 - e) * h, gamma=2.0,
        bound_hs=h)),
}


@pytest.mark.parametrize("scale", [3e-7, 1.0, 7.3e5])
@pytest.mark.parametrize("excess, flagged", [(1e-6, True), (0.5e-9, False)],
                         ids=["1e-6-flagged", "0.5e-9-passes"])
@pytest.mark.parametrize("case", list(_BROKEN))
def test_each_inequality_keeps_its_constant_and_slack(case, excess, flagged, scale):
    # gamma = 2 with N = 4: the contraction checks 1 - 1/(gamma N) = 7/8, the mean block 1/8
    mode, message, row = _BROKEN[case]
    t, h = 4 * scale, scale
    record = _one_step_record(mode, t, h, **row(t, h, excess))
    found = w.greedy._violation(record, None, record["steps"][0])
    assert (found is not None and found.startswith(message)) if flagged else found is None
    assert w.decay_report(record)["summary"]["first_violation"] == (1 if flagged else None)


@pytest.mark.parametrize("below, flagged", [(1e-6, True), (0.5e-9, False)],
                         ids=["1e-6-flagged", "0.5e-9-passes"])
def test_gamma_below_one_keeps_its_slack(below, flagged):
    # gamma is dimensionless: [1, N] has an absolute slack of 1e-9; every other check has room
    record = _one_step_record("hs-greedy", 4.0, 1.0, remainder_hs=np.sqrt(0.5),
                              extracted_hs=np.sqrt(0.3), gamma=1.0 - below, bound_hs=1.0)
    found = w.greedy._violation(record, None, record["steps"][0])
    assert (found is not None and found.endswith("outside [1, 4]")) if flagged else found is None


@pytest.mark.parametrize("tree_name", ["shannon", "d4"])
def test_recorded_envelopes_are_the_closed_forms(rng, tree_name):
    tree = _scale_tree(tree_name)
    nn = len(tree.nodes_at(2))
    r = random_gram(rng, 16)
    trace_run = w.trace_greedy(r, tree, 2, max_steps=12)
    hs_run = w.hs_greedy(r, tree, 2, max_steps=12)
    assert len(trace_run.steps) == len(hs_run.steps) == 12
    for t, h in zip(trace_run.steps, hs_run.steps):
        want_t = (1.0 - 1.0 / nn) ** t["k"] * w.trace(r)
        want_h = np.sqrt((1.0 - 1.0 / nn**2) ** h["k"]) * w.hs_norm(r)
        assert abs(t["bound_trace"] - want_t) <= 4 * t["k"] * np.spacing(want_t)
        assert abs(h["bound_hs"] - want_h) <= 4 * h["k"] * np.spacing(want_h)


@pytest.mark.parametrize("extract", [w.trace_greedy, w.hs_greedy], ids=["trace", "hs"])
@pytest.mark.parametrize("eps, steps", [(5e-10, 2), (5e-11, 1)])
def test_a_run_stops_at_a_remainder_of_lam_max_1e_10_scale(extract, eps, steps):
    # after step 1 the remainder is diag(0, eps): five times the clamp's zero, or half of it
    r = w.PsdOperator(np.diag([1.0, eps]))
    run = extract(r, w.build_shannon_tree(1, 1), 1, max_steps=5)
    assert run.steps[0]["remainder_trace"] == pytest.approx(eps, rel=1e-12)
    assert len(run.steps) == steps


def test_a_numpy_int_depth_is_reported_as_an_int():
    r = w.PsdOperator(np.diag([1.0, 2.0, 3.0, 4.0]))
    report = w.trace_greedy(r, w.build_shannon_tree(2, 1), np.int64(1), 2).report
    json.dumps(report)
    assert type(report["depth"]) is int


@pytest.mark.parametrize("mode", ["sequence", "trace-greedy", "hs-greedy"])
def test_the_report_states_its_input_exactly(rng, mode):
    # the checker holds "initial" only through step 1's relations, and not at all without steps
    tree = w.build_filter_tree_1d("d4", 16, 2)
    r = random_gram(rng, 16)
    for steps in (0, 4):
        if mode == "sequence":
            run = w.extract_sequence(r, tree, tree.nodes_at(2)[:steps])
        else:
            run = (w.trace_greedy if mode == "trace-greedy" else w.hs_greedy)(r, tree, 2, steps)
        depth, nn = (None, None) if mode == "sequence" else (2, 4)
        assert len(run.steps) == steps
        assert {k: v for k, v in run.report.items() if k != "steps"} == {
            "mode": mode, "depth": depth, "N_n": nn,
            "initial": {"trace": w.trace(r), "hs": w.hs_norm(r)},
        }


def _draw_tree(draw, names, max_levels):
    """(tree, depth): a tree of one of ``names``; 1-D dims 2-2^max_levels, 2-D sides 2-8."""
    name = draw(st.sampled_from(names))
    if name.endswith("-2d"):
        side = 2 ** draw(st.integers(1, 3))
        depth = draw(st.integers(1, side.bit_length() - 1))
        return w.build_filter_tree_2d(name[:-3], side, depth), depth
    levels = draw(st.integers(1, max_levels))
    depth = draw(st.integers(1, levels))
    if name == "shannon":
        return w.build_shannon_tree(levels, depth), depth
    return w.build_filter_tree_1d(name, 2**levels, depth), depth


def _draw_gram(draw, dim):
    """A rank-r Gram matrix whose nonzero eigenvalues, drawn from {0.5, 1, 3}, repeat."""
    rank = draw(st.integers(1, dim))
    values = draw(st.lists(st.sampled_from([0.5, 1.0, 3.0]), min_size=rank, max_size=rank))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    g = np.sqrt(values)[:, None] * q[:, :rank].T
    return g.T @ g


@st.composite
def _gram_on_a_tree(draw, max_levels=5):
    """(R, tree, depth): a 2^k-scaled Gram matrix of `_draw_gram` on a 1-D tree."""
    tree, depth = _draw_tree(draw, ("shannon", "haar", "d4"), max_levels)
    gram = _draw_gram(draw, tree.ambient_dim)
    return w.PsdOperator(2.0 ** draw(st.integers(-26, 26)) * gram), tree, depth


@settings(max_examples=40, deadline=None, database=None)
@given(_gram_on_a_tree())
def test_greedy_certificates_hold_on_gram_matrices(case):
    r, tree, depth = case
    nn = len(tree.nodes_at(depth))
    for extract in (w.trace_greedy, w.hs_greedy):
        run = extract(r, tree, depth, max_steps=2 * nn)
        assert w.decay_report(run.report)["summary"]["first_violation"] is None
        traces = [run.report["initial"]["trace"]] + [s["remainder_trace"] for s in run.steps]
        assert all(b <= a for a, b in zip(traces, traces[1:])), traces
        if extract is w.hs_greedy:
            assert all(1.0 - 1e-9 <= s["gamma"] <= nn + 1e-9 for s in run.steps)


@st.composite
def _gram_at_any_scale(draw):
    """(R, tree, depth): a `_draw_gram` matrix times 10^u, u in [-8, 8], on a 1-D or 2-D tree."""
    tree, depth = _draw_tree(draw, ("shannon", "haar", "d4", "haar-2d", "d4-2d"), 5)
    gram = _draw_gram(draw, tree.ambient_dim)
    return w.PsdOperator(10.0 ** draw(st.floats(-8.0, 8.0)) * gram), tree, depth


@settings(max_examples=40, deadline=None, database=None)
@given(_gram_at_any_scale())
def test_remainders_stay_psd_under_their_envelope_on_any_tree_and_scale(case):
    # each remainder is checked by its own eigvalsh, against 1e-10 of the run-initial lam_max;
    # each rule's closed-form envelope is recomputed here, with the rule's own slack
    r, tree, depth = case
    nn = len(tree.nodes_at(depth))
    lam_max, t0, h0 = r.eigenvalues[0], w.trace(r), w.hs_norm(r)
    for extract in (w.trace_greedy, w.hs_greedy):
        remainders = []

        def recording(self, *args, _remove=w.PsdOperator.remove, **kwargs):
            block, rem = _remove(self, *args, **kwargs)
            remainders.append(rem)
            return block, rem

        with mock.patch.object(w.PsdOperator, "remove", recording):
            run = extract(r, tree, depth, max_steps=min(2 * nn, 24))
        assert w.decay_report(run.report)["summary"]["first_violation"] is None
        assert len(remainders) == len(run.steps)
        for step, rem in zip(run.steps, remainders):
            assert np.linalg.eigvalsh(rem.matrix)[0] >= -1e-10 * lam_max
            if extract is w.trace_greedy:
                assert step["remainder_trace"] <= (1.0 - 1.0 / nn) ** step["k"] * t0 + 1e-9 * t0
            else:
                assert step["remainder_hs"] ** 2 <= (
                    (1.0 - 1.0 / nn**2) ** step["k"] * h0**2 + 1e-9 * h0**2
                )


@settings(max_examples=100, deadline=None, database=None)
@given(_gram_on_a_tree(max_levels=6))
def test_reconstruction_and_additivity_hold_on_gram_matrices(case):
    r, tree, _ = case
    for n in range(1, tree.max_depth + 1):
        w.depth_decomposition(r, tree, n)
    gap = w.cylinder_weights(r, tree)["validation"]["max_additivity_gap"]
    assert gap <= 1e-9 * w.trace(r)
