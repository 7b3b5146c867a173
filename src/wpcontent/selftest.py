"""Embedded invariant suite behind the ``selftest`` subcommand.

Runs on seeded random instances and reports one pass/fail row per
invariant. Three rows are the suite's own checks: tree axioms, the
parallelogram law and the frequency-band oracle. The others drive the
library routine that already verifies the invariant (depth
reconstruction, cylinder additivity, the trace- and HS-greedy
certificates, which include the coherence range) and report its verdict:
the value it measured, or the NumericalBreakdownError it raised.
"""

from __future__ import annotations

import numpy as np

from .content import cylinder_weights, depth_decomposition, parallelogram_check
from .errors import ConfigError, NumericalBreakdownError
from .greedy import hs_greedy, trace_greedy
from .psdcore import make_psd
from .tree import (
    PacketTree,
    build_filter_tree_1d,
    build_filter_tree_2d,
    build_shannon_tree,
    d4_filter,
    haar_filter,
    validate_tree,
)

DEFAULT_SEED = 20240801


def corrupted_tree_fixture() -> PacketTree:
    """Frequency-band tree with one basis row of node "0" zeroed; must fail validation."""
    t = build_shannon_tree(3, 2)
    transforms = [t.transform(n) for n in range(t.max_depth + 1)]
    transforms[1] = transforms[1].copy()
    transforms[1][0, :] = 0.0
    return PacketTree(
        t.realization, t.ambient_dim, t.max_depth, t._levels, transforms, t._parents
    )


def _random_gram(rng, dim: int):
    g = rng.standard_normal((dim, dim))
    return make_psd(g.T @ g / dim)


def _band_sum(values: np.ndarray, levels: int, word: str) -> float:
    """Direct symbol block sum over the node's frequency band."""
    size = 2 ** (levels - len(word))
    start = (int(word, 2) if word else 0) * size
    return float(np.sum(values[start : start + size]))


def _checked(name: str, fmt: str, check, *args) -> dict:
    """Row of a library-checked invariant: what ``check(*args)`` measured, or its breakdown."""
    try:
        return {"name": name, "ok": True, "detail": fmt.format(check(*args))}
    except NumericalBreakdownError as exc:
        return {"name": name, "ok": False, "detail": str(exc)}


def _bounded(name: str, violation: float, tol: float) -> dict:
    """Row for one of the suite's own checks: a measured violation against its tolerance."""
    detail = f"violation {violation:.3e}  tolerance {tol:.1e}"
    return {"name": name, "ok": bool(violation <= tol), "detail": detail}


def _certified_steps(extract, instances) -> int:
    """Steps of greedy runs at each tree's full depth; the loop certifies each one."""
    return sum(
        len(extract(r, t, t.max_depth, max_steps=3 * len(t.nodes_at(t.max_depth))).steps)
        for t, r, _, _ in instances
    )


def run_selftest(seed: int = DEFAULT_SEED, quick: bool = False, corrupt_tree: bool = False):
    """Run the suite; returns (all_ok, rows) with one row per invariant."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    trees = [
        build_shannon_tree(3, 3),
        build_filter_tree_1d(haar_filter(), 8, 2),
        build_filter_tree_1d(d4_filter(), 8, 2),
        build_filter_tree_2d(haar_filter(), 4, 2),
    ]
    if corrupt_tree:
        trees.append(corrupted_tree_fixture())
    rows = [_bounded("tree-axioms", max(validate_tree(t).max_violation() for t in trees), 1e-10)]

    if quick:
        cases = [(build_shannon_tree(3, 2), 8), (build_filter_tree_1d(haar_filter(), 8, 2), 8)]
        grams_per_case = 1
    else:
        cases = [
            (build_shannon_tree(3, 3), 8),
            (build_filter_tree_1d(haar_filter(), 16, 3), 16),
            (build_filter_tree_1d(d4_filter(), 16, 3), 16),
            (build_filter_tree_2d(haar_filter(), 4, 2), 16),
        ]
        grams_per_case = 2
    instances = [
        (tree, _random_gram(rng, dim), rng.standard_normal(dim), rng.standard_normal(dim))
        for tree, dim in cases
        for _ in range(grams_per_case)
    ]

    para = max(
        parallelogram_check(r, t, x, y, t.max_depth)
        / (float(r.eigenvalues[0]) * (np.linalg.norm(x) + np.linalg.norm(y)) ** 2)
        for t, r, x, y in instances
    )
    rows += [
        _checked("depth-reconstruction", "max error {:.3e}", lambda: max(
            depth_decomposition(r, t, n).max_error
            for t, r, _, _ in instances for n in range(1, t.max_depth + 1)
        )),
        _checked("cylinder-additivity", "max gap {:.3e}", lambda: max(
            cylinder_weights(r, t).max_additivity_gap for t, r, _, _ in instances
        )),
        _bounded("parallelogram", para, 1e-9),
        _checked("trace-greedy", "{} steps certified", _certified_steps, trace_greedy, instances),
        _checked("hs-greedy", "{} steps certified", _certified_steps, hs_greedy, instances),
    ]

    levels = 4
    sh_tree = build_shannon_tree(levels, levels)
    oracle = 0.0
    for _ in range(2 if quick else 5):
        vals = rng.uniform(0.0, 1.0, size=2**levels)
        r = make_psd(np.diag(vals))
        cw = cylinder_weights(r, sh_tree)
        for word, _, mass in cw.rows:
            oracle = max(oracle, abs(mass - _band_sum(vals, levels, word)))
    rows.append(_bounded("band-oracle", oracle, 1e-12))

    return all(row["ok"] for row in rows), rows


def format_rows(rows) -> str:
    name_w = max(len(r["name"]) for r in rows)
    return "\n".join(
        f"{'PASS' if r['ok'] else 'FAIL'}  {r['name']:<{name_w}}  {r['detail']}" for r in rows
    )
