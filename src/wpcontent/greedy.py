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
are recorded per step and re-checked from the record by `decay_report`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .content import hs_scores_squared, trace_scores
from .errors import (
    DimensionMismatchError,
    NotPositiveError,
    NumericalBreakdownError,
    UndefinedCoherenceError,
    UnknownNodeError,
)
from .psdcore import PsdOperator, SymMatrix, as_entries, hs_norm, make_psd, trace
from .tree import PacketNode, PacketTree

_RETAIN_POLICIES = ("stats", "blocks")
DEFAULT_STOP_TOL = 1e-12


@dataclass(frozen=True)
class ExtractionStep:
    """One extraction; ROW_FIELDS is the step-row schema of every report format."""

    ROW_FIELDS: ClassVar[tuple[str, ...]] = (
        "k",
        "node",
        "extracted_trace",
        "extracted_hs",
        "remainder_trace",
        "remainder_hs",
        "gamma",
        "bound_trace",
        "bound_hs",
    )

    k: int
    node: PacketNode
    extracted_trace: float
    extracted_hs: float
    remainder_trace: float
    remainder_hs: float
    gamma: float | None = None
    bound_trace: float | None = None
    bound_hs: float | None = None
    block: np.ndarray | None = None
    remainder: np.ndarray | None = None

    def row(self) -> dict:
        """ROW_FIELDS in order, with the node given by its word."""
        return {f: self.node.word if f == "node" else getattr(self, f) for f in self.ROW_FIELDS}


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


@dataclass(frozen=True)
class CoherenceValue:
    gamma: float
    numerator: float
    denominator: float


def conditional_expectation(a, tree: PacketTree, n: int) -> SymMatrix:
    """Pinch onto the depth-n block diagonal: sum of P_w A P_w.

    Computed as W_n^T blockdiag(W_n A W_n^T) W_n, node i's block being
    rows and columns i*s:(i+1)*s of the packet-coordinate matrix.
    """
    e = as_entries(a)
    if e.shape[0] != tree.ambient_dim:
        raise DimensionMismatchError(
            f"matrix dim {e.shape[0]} != tree ambient dim {tree.ambient_dim}"
        )
    w = tree.transform(n)
    seg = np.arange(tree.ambient_dim) // (tree.ambient_dim // len(tree.nodes_at(n)))
    blockdiag = (w @ e @ w.T) * (seg[:, None] == seg[None, :])
    return SymMatrix(w.T @ blockdiag @ w)


def coherence(a: PsdOperator, tree: PacketTree, n: int, scores=None) -> CoherenceValue:
    """Depth-n coherence ||A||_2^2 over the summed squared block HS norms.

    Always in [1, N] up to rounding: 1 exactly for block-diagonal A, N for
    maximally spread operators. ``scores`` are the block norms
    hs_scores_squared(A, tree, n) when the caller already has them. The
    denominator equals the pinching trace tr(E_n(A) A), since in packet
    coordinates both are the same sum of squared diagonal-block entries.
    Raises UndefinedCoherenceError when the operator is numerically zero.
    """
    num = hs_norm(a) ** 2
    if scores is None:
        scores = hs_scores_squared(a.matrix, tree, n)
    den = float(np.sum(scores))
    if den <= 1e-28 * (1.0 + num):
        raise UndefinedCoherenceError(
            f"block HS mass {den:.3e} is numerically zero; coherence undefined"
        )
    return CoherenceValue(num / den, num, den)


def _extract_block(current, tree: PacketTree, node: PacketNode, k: int, tol, scale):
    """One extraction: returns (block entries, next remainder PsdOperator).

    The remainder clamp is referenced to the run-initial spectral scale:
    subtraction noise sits at that scale even once the remainder itself
    has decayed to nothing.
    """
    b = tree.basis(node)
    m = b @ current.sqrt_entries()
    d = m.T @ m
    d = 0.5 * (d + d.T)
    rem = current.matrix - d
    try:
        nxt = make_psd(SymMatrix(rem), tol, scale=scale)
    except NotPositiveError as exc:
        raise NumericalBreakdownError(k, f"remainder left the PSD cone ({exc})") from exc
    return d, nxt


def _make_step(k, node, d, nxt, retain, **bounds) -> ExtractionStep:
    return ExtractionStep(
        k=k,
        node=node,
        extracted_trace=float(np.trace(d)),
        extracted_hs=float(np.sqrt(np.sum(d * d))),
        remainder_trace=trace(nxt),
        remainder_hs=hs_norm(nxt),
        block=d if retain == "blocks" else None,
        remainder=nxt.matrix if retain == "blocks" else None,
        **bounds,
    )


def _check_setup(r: PsdOperator, tree: PacketTree, retain: str) -> None:
    if r.dim != tree.ambient_dim:
        raise DimensionMismatchError(
            f"operator dim {r.dim} != tree ambient dim {tree.ambient_dim}"
        )
    if retain not in _RETAIN_POLICIES:
        raise ValueError(f"retain must be one of {_RETAIN_POLICIES}, got {retain!r}")


def extract_sequence(
    r: PsdOperator,
    tree: PacketTree,
    nodes: list[PacketNode],
    retain: str = "stats",
    tol: float | None = None,
) -> ExtractionTrace:
    """Extract content blocks along an arbitrary node sequence (any depths)."""
    _check_setup(r, tree, retain)
    for node in nodes:
        if not tree.has_node(node):
            raise UnknownNodeError(f"node {node.word!r} (depth {node.depth}) not in tree")
    scale0 = float(max(r.eigenvalues[0], 0.0))
    current = r
    steps = []
    for k, node in enumerate(nodes, start=1):
        d, nxt = _extract_block(current, tree, node, k, tol, scale0)
        steps.append(_make_step(k, node, d, nxt, retain))
        current = nxt
    return ExtractionTrace(
        "sequence", None, None, trace(r), hs_norm(r), tuple(steps), current
    )


def trace_greedy(
    r: PsdOperator,
    tree: PacketTree,
    n: int,
    max_steps: int,
    stop_tol: float = DEFAULT_STOP_TOL,
    retain: str = "stats",
    tol: float | None = None,
) -> ExtractionTrace:
    """Repeatedly remove the depth-n block of maximal trace.

    Stops at max_steps or once the remainder trace falls to
    stop_tol * trace(R). Each step is checked against the certified
    one-step contraction and recorded with the cumulative envelope
    (1 - 1/N)^k * trace(R).
    """
    _check_setup(r, tree, retain)
    nodes = tree.nodes_at(n)
    nn = len(nodes)
    init_trace = trace(r)
    init_hs = hs_norm(r)
    ratio = 1.0 - 1.0 / nn
    scale0 = float(max(r.eigenvalues[0], 0.0))
    current = r
    steps = []
    envelope = init_trace
    for k in range(1, max_steps + 1):
        cur_trace = trace(current)
        if cur_trace <= stop_tol * init_trace:
            break
        scores = trace_scores(current.matrix, tree, n)
        node = nodes[int(np.argmax(scores))]
        d, nxt = _extract_block(current, tree, node, k, tol, scale0)
        if trace(nxt) > ratio * cur_trace + 1e-9 * (1.0 + init_trace):
            raise NumericalBreakdownError(
                k,
                f"one-step trace contraction failed: {trace(nxt):.6e} > "
                f"{ratio:.6f} * {cur_trace:.6e}",
            )
        envelope *= ratio
        steps.append(_make_step(k, node, d, nxt, retain, bound_trace=envelope))
        current = nxt
    return ExtractionTrace(
        "trace-greedy", n, nn, init_trace, init_hs, tuple(steps), current
    )


def hs_greedy(
    r: PsdOperator,
    tree: PacketTree,
    n: int,
    max_steps: int,
    stop_tol: float = DEFAULT_STOP_TOL,
    retain: str = "stats",
    tol: float | None = None,
) -> ExtractionTrace:
    """Repeatedly remove the depth-n block of maximal Hilbert-Schmidt norm.

    Records the coherence of the remainder before each step and checks
    the per-step contraction with that coherence, the pythagorean bound
    ||A - D||^2 <= ||A||^2 - ||D||^2, and the uniform envelope
    (1 - 1/N^2)^k ||R||_2^2. Terminates cleanly when the remainder is
    numerically zero (undefined coherence).
    """
    _check_setup(r, tree, retain)
    nodes = tree.nodes_at(n)
    nn = len(nodes)
    init_trace = trace(r)
    init_hs = hs_norm(r)
    uniform_ratio = 1.0 - 1.0 / nn**2
    scale0 = float(max(r.eigenvalues[0], 0.0))
    current = r
    steps = []
    envelope_sq = init_hs**2
    for k in range(1, max_steps + 1):
        cur_hs = hs_norm(current)
        if cur_hs <= stop_tol * init_hs:
            break
        scores = hs_scores_squared(current.matrix, tree, n)
        try:
            coh = coherence(current, tree, n, scores)
        except UndefinedCoherenceError:
            break
        node = nodes[int(np.argmax(scores))]
        d, nxt = _extract_block(current, tree, node, k, tol, scale0)
        rem_sq = hs_norm(nxt) ** 2
        d_sq = float(np.sum(d * d))
        slack = 1e-9 * (1.0 + cur_hs**2)
        if rem_sq > cur_hs**2 - d_sq + slack:
            raise NumericalBreakdownError(
                k, f"pythagorean HS bound failed: {rem_sq:.6e} > {cur_hs**2 - d_sq:.6e}"
            )
        step_ratio = 1.0 - 1.0 / (coh.gamma * nn)
        if rem_sq > step_ratio * cur_hs**2 + slack:
            raise NumericalBreakdownError(
                k,
                f"coherence contraction failed: {rem_sq:.6e} > "
                f"{step_ratio:.9f} * {cur_hs**2:.6e}",
            )
        envelope_sq *= uniform_ratio
        if rem_sq > envelope_sq + 1e-9 * (1.0 + init_hs**2):
            raise NumericalBreakdownError(
                k, f"uniform HS envelope failed: {rem_sq:.6e} > {envelope_sq:.6e}"
            )
        steps.append(
            _make_step(
                k, node, d, nxt, retain, gamma=coh.gamma, bound_hs=float(np.sqrt(envelope_sq))
            )
        )
        current = nxt
    return ExtractionTrace("hs-greedy", n, nn, init_trace, init_hs, tuple(steps), current)


def decay_report(tr: ExtractionTrace) -> dict:
    """Re-check every recorded step against its envelope, from the record alone.

    Returns {"rows": [...], "summary": {...}}; each row carries a
    bound_satisfied flag and the summary names the first violating step
    (expected: none).
    """
    rows = []
    first_violation = None
    prev_hs = tr.initial_hs
    for step in tr.steps:
        ok = True
        if tr.mode == "trace-greedy" and step.bound_trace is not None:
            ok = step.remainder_trace <= step.bound_trace + 1e-9 * (1.0 + tr.initial_trace)
        elif tr.mode == "hs-greedy":
            if step.bound_hs is not None:
                ok = step.remainder_hs**2 <= step.bound_hs**2 + 1e-9 * (
                    1.0 + tr.initial_hs**2
                )
            if ok and step.gamma is not None and tr.n_nodes:
                ok = 1.0 - 1e-9 <= step.gamma <= tr.n_nodes + 1e-9
                if ok:
                    step_ratio = 1.0 - 1.0 / (step.gamma * tr.n_nodes)
                    ok = step.remainder_hs**2 <= step_ratio * prev_hs**2 + 1e-9 * (
                        1.0 + prev_hs**2
                    )
        rows.append({**step.row(), "bound_satisfied": bool(ok)})
        if not ok and first_violation is None:
            first_violation = step.k
        prev_hs = step.remainder_hs
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
