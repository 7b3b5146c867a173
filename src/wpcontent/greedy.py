"""Sequential and greedy extraction of content blocks with decay certificates.

Extraction repeatedly removes one content block from the current
remainder: D_k = sqrt(R_prev) P_w sqrt(R_prev), R_next = R_prev - D_k.
Every extracted piece and every remainder stays PSD, so remainders are
nonincreasing in the Loewner order. A run's input is PSD-checked at its own
lam_max, and each remainder at that scale, which `PsdOperator.remove` passes
on; a greedy run stops at max_steps or at the first remainder that `is_zero`.

Two fixed-depth greedy rules are provided. The trace rule removes the
block of largest trace; since the N depth-n block traces sum to the
remainder trace, the largest is at least the average and the remainder
trace contracts by (1 - 1/N) per step. The HS rule removes the block of
largest Hilbert-Schmidt norm; its per-step contraction is
(1 - 1/(gamma * N)) in squared HS norm, where gamma in [1, N] is the
depth-n coherence (1 exactly when the remainder is block-diagonal, in
which case the factor improves to 1 - 1/N). Both certified envelopes
are recorded per step, bound to their closed forms. A step is its
report row, a dict with the keys ROW_FIELDS. One checker, `_violation`,
holds every certified inequality: each step passes it before it is
recorded, and `decay_report` re-runs it on the run's report alone, which
is what `json.load` returns for a saved `wpc greedy` report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .content import _check_dims, hs_scores_squared, trace_scores
from .errors import ConfigError, MalformedInputError, NotPositiveError, NumericalBreakdownError
from .psdcore import _NUMBER_TYPES, PsdOperator, _integer, hs_norm, trace
from .tree import PacketTree

# The step-row schema of the JSON report, the CSV and `decay_report`, in order.
# "node" is the node's word; a rule's unused gamma or bound is None.
ROW_FIELDS = (
    "k", "node", "extracted_trace", "extracted_hs", "remainder_trace", "remainder_hs",
    "gamma", "bound_trace", "bound_hs",
)
# The row fields `_violation` reads in each mode, besides the four traces and HS norms.
_MODE_FIELDS = {"trace-greedy": ("bound_trace",), "hs-greedy": ("gamma", "bound_hs"),
                "sequence": ()}


@dataclass(frozen=True)
class ExtractionTrace:
    """An extraction run as its report, plus the final remainder.

    ``report`` is the dict `wpc greedy` writes and `decay_report` reads:
    {"mode", "depth", "N_n", "initial": {"trace", "hs"}, "steps"}, the
    steps a tuple of ROW_FIELDS dicts in order.
    """

    report: dict
    final_remainder: PsdOperator

    @property
    def steps(self) -> tuple[dict, ...]:
        return self.report["steps"]


def coherence(a, tree: PacketTree, n: int, scores=None) -> float:
    """Depth-n coherence gamma: ||A||_2^2 over the summed squared block HS norms.

    Always in [1, N] up to rounding: 1 exactly for block-diagonal A, N for
    maximally spread operators. ``a`` is a PsdOperator, its matrix, or a
    symbol's values, diag(A). ``scores`` are the block norms
    hs_scores_squared(A, tree, n) when the caller already has them. The
    denominator equals the pinching trace tr(E_n(A) A), E_n(A) = sum_w P_w A P_w,
    since in packet coordinates both are the same sum of squared diagonal-block entries.
    Raises NumericalBreakdownError when the block HS mass is at most
    1e-28 ||A||^2, that is numerically zero relative to A itself.
    """
    num = hs_norm(a) ** 2
    if scores is None:
        scores = hs_scores_squared(a, tree, n)
    den = float(np.sum(scores))
    if den <= 1e-28 * num:
        raise NumericalBreakdownError(
            None, f"block HS mass {den:.3e} is numerically zero; coherence undefined"
        )
    return num / den


def _start(mode: str, r: PsdOperator, tree: PacketTree, depth: int | None) -> ExtractionTrace:
    """Empty record of a run on ``r`` at its own scale; its final remainder is that operator."""
    _check_dims(r.dim, tree)
    r = r.at_own_scale()
    nn = None if depth is None else len(tree.nodes_at(depth))
    report = {"mode": mode, "depth": None if depth is None else int(depth), "N_n": nn,
              "initial": {"trace": trace(r), "hs": hs_norm(r)}, "steps": ()}
    return ExtractionTrace(report, r)


def _check_stop(max_steps: int, name: str = "max_steps") -> None:
    """A greedy run takes an int (`_integer`) max_steps >= 0; ``name`` is `cli`'s option."""
    if not (_integer(max_steps) and max_steps >= 0):
        raise ConfigError(f"{name} must be an int >= 0, got {max_steps!r}")


def _violation(run: dict, prev: dict | None, row: dict) -> str | None:
    """Message naming the first certified inequality step ``row`` breaks, or None.

    Reads recorded numbers only: the report's "mode", "N_n" and "initial",
    the previous row's remainder (the initial values before step 1) and
    the step's own row. The loops ask it before recording a step and
    `decay_report` asks it of every recorded step. Every mode is held to
    the trace identity, Pythagoras ||A - D||^2 <= ||A||^2 - ||D||^2, the
    triangle inequality ||A|| <= ||D|| + ||A - D|| and ||X|| <= tr X for
    the PSD block and remainder; each greedy rule adds its own. The HS
    rule's block is at least the mean of the N blocks, whose squared norms
    sum to ||A||^2 / gamma; with Pythagoras that implies the coherence
    contraction, which is checked first. A recorded envelope is held to
    its closed form, (1 - 1/N)^k tr R or (1 - 1/N^2)^k ||R||^2 squared,
    before the remainder is held to it. The slack is 1e-9 times the
    initial tr(R) for trace checks and ||R||^2 for HS checks, with no
    absolute floor, so a run on cR accepts exactly the steps of a run on
    R; the dimensionless gamma keeps an absolute 1e-9. Each check is
    ``not value <= bound``, so a NaN fails it.
    """
    nn, initial = run["N_n"], run["initial"]
    prev_trace, prev_hs = (initial["trace"], initial["hs"]) if prev is None else (
        prev["remainder_trace"], prev["remainder_hs"]
    )
    trace_slack, hs_slack = 1e-9 * initial["trace"], 1e-9 * initial["hs"] ** 2
    defect = abs(prev_trace - row["extracted_trace"] - row["remainder_trace"])
    if not defect <= trace_slack:
        return f"trace identity failed: |tr A - tr D - tr(A - D)| = {defect:.6e}"
    rem_sq, prev_sq = row["remainder_hs"] ** 2, prev_hs**2
    pythagorean = prev_sq - row["extracted_hs"] ** 2
    if not rem_sq <= pythagorean + hs_slack:
        return f"pythagorean HS bound failed: {rem_sq:.6e} > {pythagorean:.6e}"
    triangle = (row["extracted_hs"] + row["remainder_hs"]) ** 2
    if not prev_sq <= triangle + hs_slack:
        return f"HS triangle inequality failed: {prev_sq:.6e} > {triangle:.6e}"
    for part in ("extracted", "remainder"):
        norm, total = row[f"{part}_hs"], row[f"{part}_trace"]
        if not norm <= total + trace_slack:
            return f"{part} HS norm above its trace: {norm:.6e} > {total:.6e}"
    if run["mode"] == "trace-greedy":
        rem, bound = row["remainder_trace"], row["bound_trace"]
        ratio = 1.0 - 1.0 / nn
        if not rem <= ratio * prev_trace + trace_slack:
            return f"one-step trace contraction failed: {rem:.6e} > {ratio:.6f} * {prev_trace:.6e}"
        closed = ratio ** row["k"] * initial["trace"]
        if _off_closed_form(bound, closed, trace_slack):
            return f"bound_trace {bound:.6e} is not (1 - 1/N)^k tr R = {closed:.6e}"
        if not rem <= bound + trace_slack:
            return f"trace envelope failed: {rem:.6e} > {bound:.6e}"
    elif run["mode"] == "hs-greedy":
        gamma = row["gamma"]
        if not 1.0 - 1e-9 <= gamma <= nn + 1e-9:
            return f"coherence {gamma:.9f} outside [1, {nn}]"
        step_ratio = 1.0 - 1.0 / (gamma * nn)
        if not rem_sq <= step_ratio * prev_sq + hs_slack:
            return f"coherence contraction failed: {rem_sq:.6e} > {step_ratio:.9f} * {prev_sq:.6e}"
        envelope_sq = row["bound_hs"] ** 2
        closed_sq = (1.0 - 1.0 / nn**2) ** row["k"] * initial["hs"] ** 2
        if not row["bound_hs"] >= 0.0 or _off_closed_form(envelope_sq, closed_sq, hs_slack):
            closed = float(np.sqrt(closed_sq))
            return f"bound_hs {row['bound_hs']:.6e} is not (1 - 1/N^2)^(k/2) ||R|| = {closed:.6e}"
        if not rem_sq <= envelope_sq + hs_slack:
            return f"uniform HS envelope failed: {rem_sq:.6e} > {envelope_sq:.6e}"
        ext_sq, mean_sq = row["extracted_hs"] ** 2, prev_sq / (gamma * nn)
        if not mean_sq <= ext_sq + hs_slack:
            return f"HS block below the mean block: {ext_sq:.6e} < {mean_sq:.6e}"
    return None


def _off_closed_form(envelope: float, closed: float, slack: float) -> bool:
    """Whether a recorded envelope is more than ``slack`` from its closed form (a NaN is)."""
    return not abs(envelope - closed) <= slack


def _step(tr: ExtractionTrace, tree: PacketTree, node: str, **bounds) -> ExtractionTrace:
    """Remove ``node``'s block from the record's remainder; the record with its row added.

    The remainder's `remove` gives D = sqrt(R) B^T B sqrt(R) for the
    node's basis B, in O(s d^2), and R - D, PSD-checked at the run's scale,
    its input's lam_max: subtraction noise sits at that scale even once the
    remainder itself has decayed to nothing. A step that leaves
    the PSD cone or breaks a certified inequality raises NumericalBreakdownError.
    ``bounds`` fill the row's gamma and bound fields.
    """
    k = len(tr.steps) + 1
    try:
        d, nxt = tr.final_remainder.remove(tree.basis(node))
    except NotPositiveError as exc:
        raise NumericalBreakdownError(k, f"remainder left the PSD cone ({exc})") from exc
    row = dict.fromkeys(ROW_FIELDS)
    row.update(k=k, node=node, extracted_trace=trace(d), extracted_hs=hs_norm(d),
               remainder_trace=trace(nxt), remainder_hs=hs_norm(nxt), **bounds)
    message = _violation(tr.report, tr.steps[-1] if tr.steps else None, row)
    if message is not None:
        raise NumericalBreakdownError(k, message)
    return ExtractionTrace({**tr.report, "steps": (*tr.steps, row)}, nxt)


def extract_sequence(r: PsdOperator, tree: PacketTree, nodes: list[str]) -> ExtractionTrace:
    """Extract content blocks along an arbitrary node sequence (any depths)."""
    tr = _start("sequence", r, tree, None)
    for node in nodes:
        tree.basis(node)  # an unknown word raises before any step runs
    for node in nodes:
        tr = _step(tr, tree, node)
    return tr


def trace_greedy(r: PsdOperator, tree: PacketTree, n: int, max_steps: int) -> ExtractionTrace:
    """Repeatedly remove the depth-n block of maximal trace.

    Stops at max_steps or at the first remainder that `is_zero` at the
    run's scale. Each step records the cumulative envelope
    (1 - 1/N)^k * trace(R) and is certified against it and against the
    one-step contraction.
    """
    _check_stop(max_steps)
    tr = _start("trace-greedy", r, tree, n)
    nodes = tree.nodes_at(n)
    ratio = 1.0 - 1.0 / len(nodes)
    envelope = tr.report["initial"]["trace"]
    for _ in range(max_steps):
        if tr.final_remainder.is_zero():
            break
        node = nodes[int(np.argmax(trace_scores(tr.final_remainder, tree, n)))]
        envelope *= ratio
        tr = _step(tr, tree, node, bound_trace=envelope)
    return tr


def hs_greedy(r: PsdOperator, tree: PacketTree, n: int, max_steps: int) -> ExtractionTrace:
    """Repeatedly remove the depth-n block of maximal Hilbert-Schmidt norm.

    Records the coherence gamma of the remainder before each step and the
    uniform envelope (1 - 1/N^2)^k ||R||_2^2; each step is certified for
    gamma in [1, N], the contraction by (1 - 1/(gamma N)) and the envelope,
    besides the relations `_violation` holds in every mode. Stops at
    max_steps or at the first remainder that `is_zero` at the run's scale,
    and also, cleanly, at one whose coherence is undefined: a numerically
    indefinite remainder can have no block HS mass above that zero.
    """
    _check_stop(max_steps)
    tr = _start("hs-greedy", r, tree, n)
    nodes = tree.nodes_at(n)
    uniform_ratio = 1.0 - 1.0 / len(nodes) ** 2
    envelope_sq = tr.report["initial"]["hs"] ** 2
    for _ in range(max_steps):
        current = tr.final_remainder
        if current.is_zero():
            break
        scores = hs_scores_squared(current, tree, n)
        try:
            gamma = coherence(current, tree, n, scores)
        except NumericalBreakdownError:
            break
        envelope_sq *= uniform_ratio
        tr = _step(tr, tree, nodes[int(np.argmax(scores))],
                   gamma=gamma, bound_hs=float(np.sqrt(envelope_sq)))
    return tr


def _check_report(payload) -> None:
    """Raise MalformedInputError naming the first field of a report `_violation` cannot trust.

    "mode" is one of the three modes. A greedy mode has an int "depth" >= 0
    and "N_n" = 2^depth or 4^depth (a 1-D or a 2-D tree), read from the bit
    length, so no power is formed. "steps" is a list or tuple of dicts, each
    with every ROW_FIELDS key, "k" running 1..n and "node" a str. Every
    number a relation reads is an int or a float, never a bool.
    """
    def malformed(field: str, rule: str) -> MalformedInputError:
        return MalformedInputError(f'report field "{field}" must be {rule}')

    def number(value, field: str) -> None:
        if not isinstance(value, _NUMBER_TYPES) or isinstance(value, bool):
            raise malformed(field, "an int or a float")

    if not isinstance(payload, dict):
        raise MalformedInputError("a report must be a dict")
    mode = payload.get("mode")
    if mode not in _MODE_FIELDS:
        raise malformed("mode", f"one of {', '.join(_MODE_FIELDS)}")
    if mode != "sequence":
        depth, nn = payload.get("depth"), payload.get("N_n")
        if not (_integer(depth) and depth >= 0):
            raise malformed("depth", "an int >= 0")
        power = int(nn).bit_length() - 1 if _integer(nn) and nn > 0 and not nn & (nn - 1) else -1
        if power not in (depth, 2 * depth):
            raise malformed("N_n", f"2^depth or 4^depth for depth {depth}")
    initial = payload.get("initial")
    if not isinstance(initial, dict):
        raise malformed("initial", "a dict")
    for key in ("trace", "hs"):
        number(initial.get(key), f"initial.{key}")
    steps = payload.get("steps")
    if not isinstance(steps, (list, tuple)):
        raise malformed("steps", "a list")
    for k, row in enumerate(steps, 1):
        where = f"steps[{k - 1}]"
        if not (isinstance(row, dict) and all(f in row for f in ROW_FIELDS)):
            raise malformed(where, "a dict with every ROW_FIELDS key")
        if not (_integer(row["k"]) and row["k"] == k):
            raise malformed(f"{where}.k", str(k))
        if not isinstance(row["node"], str):
            raise malformed(f"{where}.node", "a str")
        for field in ("extracted_trace", "extracted_hs", "remainder_trace", "remainder_hs",
                      *_MODE_FIELDS[mode]):
            number(row[field], f"{where}.{field}")


def decay_report(payload: dict) -> dict:
    """Re-check every step row of a run's report with the extraction loops' own checker.

    ``payload`` is an `ExtractionTrace.report`, or a saved `wpc greedy`
    report as `json.load` returns it; other keys
    are ignored. A report whose fields the checker cannot read, or a
    greedy report whose "N_n" is not its depth's node count, raises
    MalformedInputError naming the field before any relation runs.
    Returns {"rows": [...], "summary": {...}}; each row
    carries a bound_satisfied flag and the summary names the first
    violating step (expected: none).
    """
    _check_report(payload)
    steps = payload["steps"]
    rows = []
    first_violation = None
    for prev, row in zip((None, *steps), steps):
        ok = _violation(payload, prev, row) is None
        rows.append({**row, "bound_satisfied": ok})
        if not ok and first_violation is None:
            first_violation = row["k"]
    summary = {
        "mode": payload["mode"],
        "steps": len(steps),
        "first_violation": first_violation,
        "note": "no steps" if not steps else None,
    }
    return {"rows": rows, "summary": summary}

