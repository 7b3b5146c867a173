import dataclasses

import numpy as np
import pytest

import wpcontent as w

from helpers import (
    block_diagonal_gram,
    geometric_symbol,
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
        r = geometric_symbol(3).to_operator()
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
        r = geometric_symbol(3).to_operator()
        tree = w.build_shannon_tree(3, 1)
        node = w.PacketNode("0", 1)
        run = w.extract_sequence(r, tree, [node, node])
        assert run.steps[1].extracted_trace <= run.steps[0].extracted_trace
        assert run.steps[1].extracted_trace <= 1e-14 * w.trace(r)

    def test_telescoping_and_loewner_chain(self, rng):
        tree = w.build_filter_tree_1d(w.d4_filter(), 8, 2)
        r = random_gram(rng, 8)
        fro = w.hs_norm(r)
        seq = [tree.nodes_at(2)[0], tree.nodes_at(1)[1], tree.nodes_at(2)[3]]
        run = w.extract_sequence(r, tree, seq)
        partial = np.zeros((8, 8))
        prev = r.matrix
        for step in run.steps:
            block, remainder = sequence_step(r, tree, seq, step.k)
            partial += block
            assert np.max(np.abs(r.matrix - partial - remainder)) <= 1e-8 * (1 + fro)
            assert w.loewner_leq(remainder, prev, tol=1e-8)
            prev = remainder

    def test_unknown_node_rejected(self, rng):
        tree = w.build_shannon_tree(3, 1)
        with pytest.raises(w.UnknownNodeError):
            w.extract_sequence(random_gram(rng, 8), tree, [w.PacketNode("00", 2)])

    def test_remainder_stats_nonincreasing(self, rng):
        tree = w.build_shannon_tree(3, 2)
        r = random_gram(rng, 8)
        nodes = [tree.nodes_at(2)[i % 4] for i in range(8)]
        run = w.extract_sequence(r, tree, nodes)
        traces = [w.trace(r)] + [s.remainder_trace for s in run.steps]
        assert all(b <= a + 1e-12 * traces[0] for a, b in zip(traces, traces[1:]))


class TestConditionalExpectation:
    def test_fixes_block_diagonal(self, rng):
        tree = w.build_shannon_tree(3, 1)
        a = block_diagonal_gram(rng, tree, 1, 8)
        pinched = w.conditional_expectation(a.matrix, tree, 1)
        assert np.max(np.abs(pinched.matrix - a.matrix)) <= 1e-9

    def test_masks_off_diagonal_quadrants(self):
        tree = w.build_shannon_tree(3, 1)
        ones = np.ones((8, 8))
        pinched = w.conditional_expectation(ones, tree, 1).matrix
        expect = np.zeros((8, 8))
        expect[:4, :4] = 1.0
        expect[4:, 4:] = 1.0
        assert np.max(np.abs(pinched - expect)) <= 1e-12

    def test_idempotent_and_contractive(self, rng):
        tree = w.build_filter_tree_1d(w.d4_filter(), 16, 2)
        a = rng.standard_normal((16, 16))
        a = w.SymMatrix(a + a.T)
        once = w.conditional_expectation(a, tree, 2)
        twice = w.conditional_expectation(once, tree, 2)
        assert np.max(np.abs(twice.matrix - once.matrix)) <= 1e-9
        assert w.hs_norm(once) <= w.hs_norm(a) + 1e-10

    def test_hs_orthogonal_projection(self, rng):
        tree = w.build_filter_tree_1d(w.haar_filter(), 8, 2)
        a = rng.standard_normal((8, 8))
        a = 0.5 * (a + a.T)
        e = w.conditional_expectation(a, tree, 2).matrix
        inner = float(np.trace(e @ (a - e)))
        assert abs(inner) <= 1e-9 * (1.0 + float(np.sum(a * a)))


class TestCoherence:
    def test_block_diagonal_gives_one(self, rng):
        tree = w.build_shannon_tree(3, 2)
        a = block_diagonal_gram(rng, tree, 2, 8)
        assert w.coherence(a, tree, 2).gamma == pytest.approx(1.0, abs=1e-9)

    def test_equal_spread_rank_one_gives_node_count(self, rng):
        for tree in (
            w.build_shannon_tree(3, 2),
            w.build_filter_tree_1d(w.d4_filter(), 16, 2),
        ):
            n = tree.max_depth
            nn = len(tree.nodes_at(n))
            v = spread_vector(tree, n)
            a = w.make_psd(w.SymMatrix(np.outer(v, v)))
            assert w.coherence(a, tree, n).gamma == pytest.approx(nn, abs=1e-6)

    def test_zero_operator_undefined(self):
        tree = w.build_shannon_tree(3, 1)
        a = w.make_psd(w.SymMatrix(np.zeros((8, 8))))
        with pytest.raises(w.UndefinedCoherenceError):
            w.coherence(a, tree, 1)

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
            gamma = w.coherence(a, tree, 2, scores=scores).gamma
            assert gamma == pytest.approx(1.0 / mass, rel=1e-12)
        else:
            with pytest.raises(w.UndefinedCoherenceError):
                w.coherence(a, tree, 2, scores=scores)

    def test_pinching_identity_and_sandwich(self, rng):
        # sum of squared block HS norms equals tr(E_n(A) A) and sits in
        # [||A||^2 / N, ||A||^2]
        tree = w.build_filter_tree_1d(w.haar_filter(), 16, 2)
        a = random_gram(rng, 16)
        coh = w.coherence(a, tree, 2)
        pinched = w.conditional_expectation(a.matrix, tree, 2).matrix
        cross = float(np.sum(pinched * a.matrix))
        assert coh.denominator == pytest.approx(cross, rel=1e-8)
        nn = len(tree.nodes_at(2))
        assert coh.denominator <= coh.numerator * (1 + 1e-9)
        assert coh.denominator >= coh.numerator / nn * (1 - 1e-9)

    def test_bounds_on_random_ensemble(self, rng):
        tree = w.build_shannon_tree(4, 2)
        nn = len(tree.nodes_at(2))
        for _ in range(10):
            a = random_gram(rng, 16)
            gamma = w.coherence(a, tree, 2).gamma
            assert 1.0 - 1e-9 <= gamma <= nn + 1e-9


class TestTraceGreedy:
    def test_shannon_worked_example(self):
        # band sums for the geometric symbol at levels 3: 15/16 and 15/8
        r = geometric_symbol(3).to_operator()
        tree = w.build_shannon_tree(3, 1)
        total = w.trace(r)
        assert total == pytest.approx(45.0 / 16.0, abs=1e-14)
        run = w.trace_greedy(r, tree, 1, max_steps=4)
        assert run.steps[0].node.word == "1"
        assert run.steps[0].extracted_trace == pytest.approx(15.0 / 8.0, abs=1e-12)
        assert run.steps[0].remainder_trace == pytest.approx(15.0 / 16.0, abs=1e-12)
        assert run.steps[0].remainder_trace <= 0.5 * total
        assert run.steps[0].bound_trace == pytest.approx(0.5 * total, abs=1e-12)
        assert run.steps[1].node.word == "0"
        assert run.steps[1].remainder_trace <= 1e-12 * total

    def test_diagonal_exhausts_in_node_count_steps(self, rng):
        tree = w.build_shannon_tree(4, 2)
        nn = len(tree.nodes_at(2))
        vals = rng.uniform(0.1, 1.0, size=16)
        r = w.make_psd(w.SymMatrix(np.diag(vals)))
        run = w.trace_greedy(r, tree, 2, max_steps=2 * nn)
        assert len(run.steps) <= nn
        assert w.trace(run.final_remainder) <= 1e-12 * w.trace(r)

    def test_zero_operator_empty_trace(self):
        tree = w.build_shannon_tree(3, 1)
        r = w.make_psd(w.SymMatrix(np.zeros((8, 8))))
        run = w.trace_greedy(r, tree, 1, max_steps=5)
        assert run.steps == ()

    def test_envelope_on_random_ensemble(self, rng):
        for tree in (w.build_shannon_tree(3, 2), w.build_filter_tree_1d(w.d4_filter(), 8, 2)):
            nn = len(tree.nodes_at(2))
            ratio = 1.0 - 1.0 / nn
            for _ in range(5):
                r = random_gram(rng, 8)
                total = w.trace(r)
                run = w.trace_greedy(r, tree, 2, max_steps=3 * nn)
                for step in run.steps:
                    assert step.remainder_trace <= ratio**step.k * total * (1 + 1e-9)

    def test_first_step_dominates_average(self, rng):
        tree = w.build_shannon_tree(4, 3)
        nn = len(tree.nodes_at(3))
        r = random_gram(rng, 16)
        run = w.trace_greedy(r, tree, 3, max_steps=1)
        assert run.steps[0].extracted_trace >= w.trace(r) / nn - 1e-10

    def test_deterministic(self, rng):
        tree = w.build_filter_tree_1d(w.haar_filter(), 8, 2)
        r = random_gram(rng, 8)
        a = w.trace_greedy(r, tree, 2, max_steps=10)
        b = w.trace_greedy(r, tree, 2, max_steps=10)
        assert [s.node for s in a.steps] == [s.node for s in b.steps]
        assert [s.remainder_trace for s in a.steps] == [s.remainder_trace for s in b.steps]

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
        prev_sq = run.initial_hs**2
        for step in run.steps:
            assert step.gamma == pytest.approx(1.0, abs=1e-9)
            assert step.remainder_hs**2 <= (1.0 - 1.0 / nn) * prev_sq * (1 + 1e-9) + 1e-15
            prev_sq = step.remainder_hs**2

    def test_shannon_symbol_picks_heaviest_hs_block(self):
        # block l2 masses: sqrt(85/256) for "0" vs sqrt(85/64) for "1"
        r = geometric_symbol(3).to_operator()
        tree = w.build_shannon_tree(3, 1)
        run = w.hs_greedy(r, tree, 1, max_steps=1)
        assert run.steps[0].node.word == "1"
        assert run.steps[0].extracted_hs == pytest.approx(np.sqrt(85.0 / 64.0), rel=1e-12)

    def test_zero_operator_empty(self):
        tree = w.build_shannon_tree(3, 1)
        r = w.make_psd(w.SymMatrix(np.zeros((8, 8))))
        assert w.hs_greedy(r, tree, 1, max_steps=5).steps == ()

    def test_envelopes_on_random_ensemble(self, rng):
        for tree in (w.build_shannon_tree(3, 2), w.build_filter_tree_1d(w.d4_filter(), 8, 2)):
            nn = len(tree.nodes_at(2))
            uniform = 1.0 - 1.0 / nn**2
            for _ in range(5):
                r = random_gram(rng, 8)
                run = w.hs_greedy(r, tree, 2, max_steps=3 * nn)
                prev_sq = run.initial_hs**2
                for step in run.steps:
                    assert 1.0 - 1e-9 <= step.gamma <= nn + 1e-9
                    per_step = 1.0 - 1.0 / (step.gamma * nn)
                    assert step.remainder_hs**2 <= per_step * prev_sq + 1e-9 * (1 + prev_sq)
                    assert step.remainder_hs**2 <= uniform**step.k * run.initial_hs**2 + 1e-9 * (
                        1 + run.initial_hs**2
                    )
                    prev_sq = step.remainder_hs**2

    def test_pythagorean_property_on_projected_pairs(self, rng):
        # pairs (A, D = sqrt(A) Q sqrt(A)) with Q a packet projection satisfy
        # ||A - D||^2 <= ||A||^2 - ||D||^2
        trees = [w.build_shannon_tree(3, 2), w.build_filter_tree_1d(w.d4_filter(), 8, 2)]
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
        r = w.make_psd(w.SymMatrix(np.zeros((8, 8))))
        rep = w.decay_report(w.trace_greedy(r, tree, 1, max_steps=3))
        assert rep["rows"] == []
        assert rep["summary"]["note"] == "no steps"
        assert rep["summary"]["first_violation"] is None

    def test_trace_rows_within_envelope(self, rng):
        tree = w.build_shannon_tree(3, 2)
        r = random_gram(rng, 8)
        rep = w.decay_report(w.trace_greedy(r, tree, 2, max_steps=12))
        assert rep["summary"]["first_violation"] is None
        for row in rep["rows"]:
            assert row["bound_satisfied"]
            assert row["remainder_trace"] <= row["bound_trace"] * (1 + 1e-9) + 1e-12

    def test_hs_rows_record_gamma_in_bounds(self, rng):
        tree = w.build_shannon_tree(3, 2)
        nn = len(tree.nodes_at(2))
        r = random_gram(rng, 8)
        rep = w.decay_report(w.hs_greedy(r, tree, 2, max_steps=12))
        assert rep["summary"]["first_violation"] is None
        for row in rep["rows"]:
            assert 1.0 - 1e-9 <= row["gamma"] <= nn + 1e-9

    def test_payload_schema(self, rng):
        tree = w.build_shannon_tree(3, 1)
        run = w.trace_greedy(random_gram(rng, 8), tree, 1, max_steps=3)
        payload = w.trace_payload(run)
        assert payload["mode"] == "trace-greedy"
        assert payload["depth"] == 1 and payload["N_n"] == 2
        assert set(payload["initial"]) == {"trace", "hs"}
        assert {"k", "node", "extracted_trace", "remainder_hs"} <= set(payload["steps"][0])

    def test_pythagorean_break_is_flagged(self, rng):
        tree = w.build_shannon_tree(3, 2)
        run = w.hs_greedy(random_gram(rng, 8), tree, 2, max_steps=6)
        prev_sq = run.steps[1].remainder_hs ** 2
        step = run.steps[2]
        # ||D||^2 1% past the room ||A||^2 - ||A - D||^2 (plus slack) the bound leaves
        room = prev_sq - step.remainder_hs**2 + 1e-9 * (1 + prev_sq)
        bad = dataclasses.replace(step, extracted_hs=float(np.sqrt(1.01 * room)))
        steps = run.steps[:2] + (bad,) + run.steps[3:]
        rep = w.decay_report(dataclasses.replace(run, steps=steps))
        assert rep["summary"]["first_violation"] == 3
        assert [row["bound_satisfied"] for row in rep["rows"]][:4] == [True, True, False, True]

    def test_one_step_trace_break_inside_envelope_is_flagged(self, rng):
        tree = w.build_shannon_tree(3, 2)
        run = w.trace_greedy(random_gram(rng, 8), tree, 2, max_steps=6)
        ratio = 1.0 - 1.0 / len(tree.nodes_at(2))
        k = next(
            i for i in range(1, len(run.steps))
            if run.steps[i].bound_trace - ratio * run.steps[i - 1].remainder_trace
            > 1e-6 * (1 + run.initial_trace)
        )
        one_step = ratio * run.steps[k - 1].remainder_trace
        step = run.steps[k]
        bad = dataclasses.replace(step, remainder_trace=0.5 * (one_step + step.bound_trace))
        steps = run.steps[:k] + (bad,) + run.steps[k + 1 :]
        rep = w.decay_report(dataclasses.replace(run, steps=steps))
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
        bad = dataclasses.replace(record.steps[1], **{field: float("nan")})
        steps = record.steps[:1] + (bad,) + record.steps[2:]
        rep = w.decay_report(dataclasses.replace(record, steps=steps))
        assert rep["summary"]["first_violation"] == 2
        assert not rep["rows"][1]["bound_satisfied"]

    def test_coherence_out_of_range_stops_the_loop(self, rng, monkeypatch):
        tree = w.build_shannon_tree(3, 2)
        nn = len(tree.nodes_at(2))
        real = w.greedy.coherence

        def inflated(*args, **kwargs):
            c = real(*args, **kwargs)
            return w.CoherenceValue(nn + 1.0, c.numerator, c.denominator)

        monkeypatch.setattr(w.greedy, "coherence", inflated)
        with pytest.raises(w.NumericalBreakdownError) as exc:
            w.hs_greedy(random_gram(rng, 8), tree, 2, max_steps=4)
        assert exc.value.step == 1


@pytest.mark.parametrize("mode", ["sequence", "trace-greedy", "hs-greedy"])
def test_one_eigensolver_per_step_and_no_square_root(rng, monkeypatch, mode):
    tree = w.build_filter_tree_1d(w.d4_filter(), 8, 2)
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
@pytest.mark.parametrize("max_steps, stop_tol", [
    (10, float("nan")), (10, -1e-12), (10, float("inf")), (-3, 1e-12),
], ids=["nan-tol", "negative-tol", "inf-tol", "negative-steps"])
def test_greedy_rejects_a_stopping_rule_that_cannot_fire(extract, max_steps, stop_tol):
    # a NaN tolerance never stops the run, and a negative step count records nothing
    r = w.make_psd(w.SymMatrix(np.diag([1.0, 1.0, 0.0, 0.0])))
    with pytest.raises(w.ConfigError):
        extract(r, w.build_shannon_tree(2, 1), 1, max_steps, stop_tol=stop_tol)


_SCALE_EXPONENTS = (-60, -40, -20, 0, 20, 40)
_SCALED_FIELDS = (
    "extracted_trace", "extracted_hs", "remainder_trace", "remainder_hs", "bound_trace", "bound_hs",
)


def _scale_tree(name):
    if name == "shannon":
        return w.build_shannon_tree(4, 2)
    return w.build_filter_tree_1d(w.haar_filter() if name == "haar" else w.d4_filter(), 16, 2)


def _scaled_runs(base, tree, c):
    """Trace-greedy, HS-greedy and sequence runs on c * base."""
    r = w.make_psd(w.SymMatrix(c * base))
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
            assert [st.node for st in s.steps] == [st.node for st in u.steps], (k, u.mode)
            assert (s.initial_trace, s.initial_hs) == (c * u.initial_trace, c * u.initial_hs)
            for a, b in zip(u.steps, s.steps):
                assert b.gamma == a.gamma
                for f in _SCALED_FIELDS:
                    ua, sb = getattr(a, f), getattr(b, f)
                    assert sb == (None if ua is None else c * ua), (k, u.mode, b.k, f)


@pytest.mark.parametrize("k", _SCALE_EXPONENTS)
@pytest.mark.parametrize("extract", [w.trace_greedy, w.hs_greedy], ids=["trace", "hs"])
def test_a_step_that_does_not_shrink_is_flagged_at_every_scale(rng, k, extract):
    tree = _scale_tree("d4")
    g = rng.standard_normal((16, 16))
    run = extract(w.make_psd(w.SymMatrix(2.0**k * (g.T @ g) / 16)), tree, 2, max_steps=4)
    prev, step = run.steps[0], run.steps[1]
    stuck = dataclasses.replace(
        step, remainder_trace=prev.remainder_trace, remainder_hs=prev.remainder_hs
    )
    rep = w.decay_report(dataclasses.replace(run, steps=(prev, stuck, *run.steps[2:])))
    assert rep["summary"]["first_violation"] == 2


def _one_step_record(mode, scale, **row):
    """Hand-built record on N = 4 nodes; initial trace and HS norm both ``scale``, one step."""
    fields = dict(k=1, node=w.PacketNode("00", 2), extracted_trace=0.0, extracted_hs=0.0,
                  remainder_trace=0.0, remainder_hs=0.0)
    step = w.ExtractionStep(**{**fields, **row})
    return w.ExtractionTrace(mode, 2, 4, scale, scale, (step,), None)


# Each record breaks one certified inequality by ``excess`` times the run's
# scale (tr R for trace checks, ||R||^2 for HS checks) and keeps every other
# one with room to spare; the slack is 1e-9 times that scale.
_BROKEN = {
    "trace-one-step": ("trace-greedy", "one-step trace contraction", lambda t, e: dict(
        remainder_trace=(0.75 + e) * t, bound_trace=t)),
    "trace-envelope": ("trace-greedy", "trace envelope", lambda t, e: dict(
        remainder_trace=(0.5 + e) * t, bound_trace=0.5 * t)),
    "pythagorean": ("hs-greedy", "pythagorean", lambda h, e: dict(
        remainder_hs=np.sqrt(0.5) * h, extracted_hs=np.sqrt(0.5 + e) * h, gamma=1.0, bound_hs=h)),
    "coherence-contraction": ("hs-greedy", "coherence contraction", lambda h, e: dict(
        remainder_hs=np.sqrt(0.875 + e) * h, extracted_hs=np.sqrt(0.1) * h, gamma=2.0,
        bound_hs=h)),
    "hs-envelope": ("hs-greedy", "uniform HS envelope", lambda h, e: dict(
        remainder_hs=np.sqrt(0.5 + e) * h, extracted_hs=np.sqrt(0.1) * h, gamma=1.0,
        bound_hs=np.sqrt(0.5) * h)),
}


@pytest.mark.parametrize("scale", [3e-7, 1.0, 7.3e5])
@pytest.mark.parametrize("excess, flagged", [(1e-6, True), (0.5e-9, False)],
                         ids=["1e-6-flagged", "0.5e-9-passes"])
@pytest.mark.parametrize("case", list(_BROKEN))
def test_each_inequality_keeps_its_constant_and_slack(case, excess, flagged, scale):
    # coherence-contraction uses gamma = 2, so it is 1 - 1/(gamma N) = 7/8 that is checked
    mode, message, row = _BROKEN[case]
    record = _one_step_record(mode, scale, **row(scale, excess))
    found = w.greedy._violation(record, None, record.steps[0])
    assert (found is not None and found.startswith(message)) if flagged else found is None
    assert w.decay_report(record)["summary"]["first_violation"] == (1 if flagged else None)


@pytest.mark.parametrize("tree_name", ["shannon", "d4"])
def test_recorded_envelopes_are_the_closed_forms(rng, tree_name):
    tree = _scale_tree(tree_name)
    nn = len(tree.nodes_at(2))
    r = random_gram(rng, 16)
    trace_run = w.trace_greedy(r, tree, 2, max_steps=12)
    hs_run = w.hs_greedy(r, tree, 2, max_steps=12)
    assert len(trace_run.steps) == len(hs_run.steps) == 12
    for t, h in zip(trace_run.steps, hs_run.steps):
        want_t = (1.0 - 1.0 / nn) ** t.k * w.trace(r)
        want_h = np.sqrt((1.0 - 1.0 / nn**2) ** h.k) * w.hs_norm(r)
        assert abs(t.bound_trace - want_t) <= 4 * t.k * np.spacing(want_t)
        assert abs(h.bound_hs - want_h) <= 4 * h.k * np.spacing(want_h)


def test_trace_run_at_five_stop_tols_keeps_running():
    # after step 1 the remainder trace is eps = 5 * stop_tol * tr(R), above the stop rule
    stop_tol = 1e-3
    eps = 5 * stop_tol / (1 - 5 * stop_tol)
    r = w.make_psd(w.SymMatrix(np.diag([1.0, eps])))
    run = w.trace_greedy(r, w.build_shannon_tree(1, 1), 1, max_steps=5, stop_tol=stop_tol)
    assert run.steps[0].remainder_trace == pytest.approx(5 * stop_tol * w.trace(r), rel=1e-12)
    assert len(run.steps) == 2
