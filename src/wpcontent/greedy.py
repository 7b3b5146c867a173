"""Sequential and greedy extraction of content blocks with decay certificates.

Extraction repeatedly removes one content block from the current
remainder: D_k = sqrt(R_prev) P_w sqrt(R_prev), R_next = R_prev - D_k.
Every extracted piece and every remainder stays PSD, so remainders are
nonincreasing in the Loewner order.

Two fixed-depth greedy rules are provided. The trace rule removes the
block of largest trace; since the N depth-n block traces sum to the
remainder trace, the largest is at least the average and the remainder
trace contracts by (1 - 1/N) per step. The HS rule removes the block of
largest Hilbert-Schmidt norm; its per-step contraction is
(1 - 1/(gamma * N)) in squared HS norm, where gamma in [1, N] is the
depth-n coherence (1 exactly when the remainder is block-diagonal, in
which case the factor improves to 1 - 1/N). Both certified envelopes
are recorded per step. One checker, `_violation`, holds every certified
inequality: each step passes it before it is recorded, and
`decay_report` re-runs it on the record alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .content import _check_dims, hs_scores_squared, trace_scores
from .errors import (
    ConfigError,
    NotPositiveError,
    NumericalBreakdownError,
    UndefinedCoherenceError,
    UnknownNodeError,
)
from .psdcore import PsdOperator, hs_norm, make_psd, trace
from .tree import PacketNode, PacketTree

DEFAULT_STOP_TOL = 1e-12


@dataclass(frozen=True)
class ExtractionStep:
    """One extraction; ROW_FIELDS, its field names, is the step-row schema of every report."""

    k: int
    node: PacketNode
    extracted_trace: float
    extracted_hs: float
    remainder_trace: float
    remainder_hs: float
    gamma: float | None = None
    bound_trace: float | None = None
    bound_hs: float | None = None

    def row(self) -> dict:
        """ROW_FIELDS in order, with the node given by its word."""
        return {f: self.node.word if f == "node" else getattr(self, f) for f in self.ROW_FIELDS}


ExtractionStep.ROW_FIELDS = tuple(f.name for f in fields(ExtractionStep))


@dataclass(frozen=True)
class ExtractionTrace:
    """Ordered record of an extraction run plus the final remainder."""

    mode: str
    depth: int | None
    n_nodes: int | None
    initial_trace: float
    initial_hs: float
    steps: tuple[ExtractionStep, ...]
    final_remainder: PsdOperator


def coherence(a: PsdOperator, tree: PacketTree, n: int, scores=None) -> float:
    """Depth-n coherence gamma: ||A||_2^2 over the summed squared block HS norms.

    Always in [1, N] up to rounding: 1 exactly for block-diagonal A, N for
    maximally spread operators. ``scores`` are the block norms
    hs_scores_squared(A, tree, n) when the caller already has them. The
    denominator equals the pinching trace tr(E_n(A) A), E_n(A) = sum_w P_w A P_w,
    since in packet coordinates both are the same sum of squared diagonal-block entries.
    Raises UndefinedCoherenceError when the block HS mass is at most
    1e-28 ||A||^2, that is numerically zero relative to A itself.
    """
    num = hs_norm(a) ** 2
    if scores is None:
        scores = hs_scores_squared(a.matrix, tree, n)
    den = float(np.sum(scores))
    if den <= 1e-28 * num:
        raise UndefinedCoherenceError(
            f"block HS mass {den:.3e} is numerically zero; coherence undefined"
        )
    return num / den


def _start(mode: str, r: PsdOperator, tree: PacketTree, depth: int | None) -> ExtractionTrace:
    """Empty record of a run on ``r``; its final remainder is ``r`` itself."""
    _check_dims(r.dim, tree)
    nn = None if depth is None else len(tree.nodes_at(depth))
    return ExtractionTrace(mode, depth, nn, trace(r), hs_norm(r), (), r)


def _check_stop(max_steps: int, stop_tol: float, names=("max_steps", "stop_tol")) -> None:
    """A greedy run's stopping rule must be able to fire: max_steps >= 0, stop_tol finite >= 0.

    ``names`` are the two values' names in the error message (`cli` gives its options).
    """
    if max_steps < 0:
        raise ConfigError(f"{names[0]} must be >= 0, got {max_steps}")
    if not (math.isfinite(stop_tol) and stop_tol >= 0.0):
        raise ConfigError(f"{names[1]} must be finite and >= 0, got {stop_tol}")


def _violation(
    tr: ExtractionTrace, prev: ExtractionStep | None, step: ExtractionStep
) -> str | None:
    """Message naming the first certified inequality ``step`` breaks, or None.

    Reads recorded numbers only: the run's mode, N and initial values,
    the previous step's remainder (the initial values before step 1) and
    the step's own row. The extraction loops ask it before recording a
    step and `decay_report` asks it of every recorded step, so both
    accept exactly the same steps. Sequence runs certify nothing. The
    slack is 1e-9 times the run's initial tr(R) for trace checks and
    ||R||^2 for HS checks, with no absolute floor, so a run on cR
    accepts exactly the steps of a run on R; gamma is dimensionless and
    its range keeps an absolute 1e-9. Each check is ``not value <= bound``,
    so a NaN anywhere in it fails the step.
    """
    nn = tr.n_nodes
    prev_trace, prev_hs = (tr.initial_trace, tr.initial_hs) if prev is None else (
        prev.remainder_trace, prev.remainder_hs
    )
    if tr.mode == "trace-greedy":
        rem = step.remainder_trace
        slack = 1e-9 * tr.initial_trace
        ratio = 1.0 - 1.0 / nn
        if not rem <= ratio * prev_trace + slack:
            return (
                f"one-step trace contraction failed: {rem:.6e} > "
                f"{ratio:.6f} * {prev_trace:.6e}"
            )
        if not rem <= step.bound_trace + slack:
            return f"trace envelope failed: {rem:.6e} > {step.bound_trace:.6e}"
    elif tr.mode == "hs-greedy":
        rem_sq, prev_sq, gamma = step.remainder_hs**2, prev_hs**2, step.gamma
        slack = 1e-9 * tr.initial_hs**2
        if not 1.0 - 1e-9 <= gamma <= nn + 1e-9:
            return f"coherence {gamma:.9f} outside [1, {nn}]"
        pythagorean = prev_sq - step.extracted_hs**2
        if not rem_sq <= pythagorean + slack:
            return f"pythagorean HS bound failed: {rem_sq:.6e} > {pythagorean:.6e}"
        step_ratio = 1.0 - 1.0 / (gamma * nn)
        if not rem_sq <= step_ratio * prev_sq + slack:
            return (
                f"coherence contraction failed: {rem_sq:.6e} > "
                f"{step_ratio:.9f} * {prev_sq:.6e}"
            )
        if not rem_sq <= step.bound_hs**2 + slack:
            return f"uniform HS envelope failed: {rem_sq:.6e} > {step.bound_hs**2:.6e}"
    return None


def _step(
    tr: ExtractionTrace, tree: PacketTree, node: PacketNode, scale: float, **bounds
) -> ExtractionTrace:
    """Remove ``node``'s block from the record's remainder; the record with the step added.

    D = M^T M with M = B sqrt(R) from the remainder's `root_rows`, in
    O(s d^2). The new remainder R - D is PSD-checked against ``scale``,
    the run-initial lam_max: subtraction noise sits at that scale even
    once the remainder itself has decayed to nothing. A step that leaves
    the PSD cone or breaks a certified inequality raises NumericalBreakdownError.
    """
    k = len(tr.steps) + 1
    current = tr.final_remainder
    m = current.root_rows(tree.basis(node))
    d = m.T @ m
    try:
        nxt = make_psd(current.matrix - d, scale=scale)
    except NotPositiveError as exc:
        raise NumericalBreakdownError(k, f"remainder left the PSD cone ({exc})") from exc
    step = ExtractionStep(k, node, trace(d), hs_norm(d), trace(nxt), hs_norm(nxt), **bounds)
    message = _violation(tr, tr.steps[-1] if tr.steps else None, step)
    if message is not None:
        raise NumericalBreakdownError(k, message)
    return replace(tr, steps=(*tr.steps, step), final_remainder=nxt)


def extract_sequence(r: PsdOperator, tree: PacketTree, nodes: list[PacketNode]) -> ExtractionTrace:
    """Extract content blocks along an arbitrary node sequence (any depths)."""
    tr = _start("sequence", r, tree, None)
    for node in nodes:
        if not tree.has_node(node):
            raise UnknownNodeError(f"node {node.word!r} (depth {node.depth}) not in tree")
    for node in nodes:
        tr = _step(tr, tree, node, float(r.eigenvalues[0]))
    return tr


def trace_greedy(
    r: PsdOperator, tree: PacketTree, n: int, max_steps: int, stop_tol: float = DEFAULT_STOP_TOL
) -> ExtractionTrace:
    """Repeatedly remove the depth-n block of maximal trace.

    Stops at max_steps or once the remainder trace falls to
    stop_tol * trace(R). Each step records the cumulative envelope
    (1 - 1/N)^k * trace(R) and is certified against it and against the
    one-step contraction.
    """
    _check_stop(max_steps, stop_tol)
    tr = _start("trace-greedy", r, tree, n)
    nodes = tree.nodes_at(n)
    ratio = 1.0 - 1.0 / len(nodes)
    envelope = tr.initial_trace
    for _ in range(max_steps):
        current = tr.final_remainder
        if trace(current) <= stop_tol * tr.initial_trace:
            break
        node = nodes[int(np.argmax(trace_scores(current.matrix, tree, n)))]
        envelope *= ratio
        tr = _step(tr, tree, node, float(r.eigenvalues[0]), bound_trace=envelope)
    return tr


def hs_greedy(
    r: PsdOperator, tree: PacketTree, n: int, max_steps: int, stop_tol: float = DEFAULT_STOP_TOL
) -> ExtractionTrace:
    """Repeatedly remove the depth-n block of maximal Hilbert-Schmidt norm.

    Records the coherence gamma of the remainder before each step and the
    uniform envelope (1 - 1/N^2)^k ||R||_2^2; each step is certified for
    gamma in [1, N], the pythagorean bound ||A - D||^2 <= ||A||^2 - ||D||^2,
    the contraction by (1 - 1/(gamma N)) and the envelope. Terminates
    cleanly when the remainder is numerically zero (undefined coherence).
    """
    _check_stop(max_steps, stop_tol)
    tr = _start("hs-greedy", r, tree, n)
    nodes = tree.nodes_at(n)
    uniform_ratio = 1.0 - 1.0 / len(nodes) ** 2
    envelope_sq = tr.initial_hs**2
    for _ in range(max_steps):
        current = tr.final_remainder
        if hs_norm(current) <= stop_tol * tr.initial_hs:
            break
        scores = hs_scores_squared(current.matrix, tree, n)
        try:
            gamma = coherence(current, tree, n, scores)
        except UndefinedCoherenceError:
            break
        envelope_sq *= uniform_ratio
        tr = _step(
            tr, tree, nodes[int(np.argmax(scores))], float(r.eigenvalues[0]),
            gamma=gamma, bound_hs=float(np.sqrt(envelope_sq)),
        )
    return tr


def decay_report(tr: ExtractionTrace) -> dict:
    """Re-check every recorded step with the extraction loops' own checker.

    Returns {"rows": [...], "summary": {...}}; each row carries a
    bound_satisfied flag and the summary names the first violating step
    (expected: none).
    """
    rows = []
    first_violation = None
    for prev, step in zip((None, *tr.steps), tr.steps):
        ok = _violation(tr, prev, step) is None
        rows.append({**step.row(), "bound_satisfied": ok})
        if not ok and first_violation is None:
            first_violation = step.k
    summary = {
        "mode": tr.mode,
        "steps": len(tr.steps),
        "first_violation": first_violation,
        "note": "no steps" if not tr.steps else None,
    }
    return {"rows": rows, "summary": summary}


def trace_payload(tr: ExtractionTrace) -> dict:
    """Decay-report wire format: {mode, depth, N_n, initial, steps}."""
    return {
        "mode": tr.mode,
        "depth": tr.depth,
        "N_n": tr.n_nodes,
        "initial": {"trace": tr.initial_trace, "hs": tr.initial_hs},
        "steps": [s.row() for s in tr.steps],
    }
