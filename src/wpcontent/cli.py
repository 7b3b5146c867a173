"""Command-line interface: decompose, greedy, denoise, selftest.

Exit codes: 0 success, 1 selftest failure, 2 malformed input,
3 not positive semidefinite, 4 bound violation / numerical breakdown,
5 invalid configuration.

The command runs BLAS on one thread unless one of _THREAD_VARS is set:
on two cores one thread cost 26-48% less CPU than two at about the same
wall time (BENCH_thread_policy.json), and its report bytes do not depend
on the core count. OpenBLAS reads the
variables when numpy loads, so the policy applies only to a process in
which this module loads numpy; a caller that imported numpy first keeps
its own threads and its environment.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules and not any(v in os.environ for v in _THREAD_VARS):
    os.environ.update(dict.fromkeys(_THREAD_VARS, "1"))

from .content import cylinder_weights
from .denoise import DenoiseConfig, add_gaussian_noise, denoise_image
from .errors import (
    ConfigError,
    DimensionMismatchError,
    InvalidDepthError,
    InvalidFilterError,
    MalformedInputError,
    NotPositiveError,
    NumericalBreakdownError,
    UnknownNodeError,
)
from .greedy import ExtractionStep, decay_report, hs_greedy, trace_greedy, trace_payload
from .pgm import read_pgm, write_pgm
from .psdcore import make_psd, matrix_from_json
from .selftest import DEFAULT_SEED, format_rows, run_selftest
from .tree import (
    ShannonSymbol,
    build_filter_tree_1d,
    build_shannon_tree,
    named_filter,
    tree_description,
)

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_MALFORMED = 2
EXIT_NOT_POSITIVE = 3
EXIT_BOUND = 4
EXIT_CONFIG = 5


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise MalformedInputError(f"cannot read JSON from {path}: {exc}") from exc


@contextlib.contextmanager
def _writing(path):
    """Report a failed write of the output file ``path`` as a ConfigError (exit 5)."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _write_json(path, payload) -> None:
    """Strict JSON: a non-finite value is a numerical breakdown (exit 4), and nothing is written."""
    try:
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericalBreakdownError(None, f"report holds a non-finite value ({exc})") from exc
    if path == "-" or path is None:
        sys.stdout.write(text)
    else:
        with _writing(path), open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_operator(args, dense=True):
    """Matrix or symbol input -> (PsdOperator, levels hint or None); dense=False keeps a symbol."""
    if getattr(args, "symbol", None):
        sym = ShannonSymbol.from_json(_load_json(args.symbol))
        return sym.to_operator() if dense else sym, sym.levels
    if not getattr(args, "input", None):
        raise ConfigError("one of --in or --symbol is required")
    return make_psd(matrix_from_json(_load_json(args.input))), None


def _build_matrix_tree(args, dim: int, levels_hint):
    if args.tree == "shannon":
        levels = args.levels if args.levels is not None else levels_hint
        if levels is None:
            levels = dim.bit_length() - 1
        if 2**levels != dim:
            raise ConfigError(
                f"shannon tree needs dim = 2^levels; got dim {dim}, levels {levels}"
            )
        depth = args.depth if args.depth is not None else levels
        return build_shannon_tree(levels, depth)
    if args.depth is None:
        raise ConfigError(f"--depth is required for the {args.tree} tree")
    return build_filter_tree_1d(named_filter(args.tree), dim, args.depth)


def cmd_decompose(args) -> int:
    operator, levels_hint = _load_operator(args, dense=False)
    tree = _build_matrix_tree(args, operator.dim, levels_hint)
    weights = cylinder_weights(operator, tree)
    total = weights.source_trace
    payload = {
        "tree": tree_description(tree),
        "cylinders": weights.to_rows(),
        "validation": {
            "root_mass": weights.mass(tree.root),
            "trace": total,
            "root_mass_error": abs(weights.mass(tree.root) - total),
            "max_additivity_gap": weights.max_additivity_gap,
        },
    }
    _write_json(args.report, payload)
    return EXIT_OK


def cmd_greedy(args) -> int:
    if args.steps < 0:
        raise ConfigError(f"--steps must be >= 0, got {args.steps}")
    if not (math.isfinite(args.stop_tol) and args.stop_tol >= 0.0):
        raise ConfigError(f"--stop-tol must be finite and >= 0, got {args.stop_tol}")
    operator, levels_hint = _load_operator(args)
    tree = _build_matrix_tree(args, operator.dim, levels_hint)
    depth = args.depth if args.depth is not None else tree.max_depth
    run = trace_greedy if args.mode == "trace" else hs_greedy
    record = run(operator, tree, depth, max_steps=args.steps, stop_tol=args.stop_tol)
    payload = trace_payload(record)
    payload["summary"] = decay_report(record)["summary"]
    _write_json(args.report, payload)
    if args.csv:
        columns = ExtractionStep.ROW_FIELDS
        with _writing(args.csv), open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            for step in payload["steps"]:
                writer.writerow(["" if step[c] is None else step[c] for c in columns])
    return EXIT_OK


def cmd_denoise(args) -> int:
    if args.tree == "shannon":
        raise ConfigError("denoise needs a patch filter bank: --tree haar or d4")
    noisy = read_pgm(args.input)
    if args.sigma is not None:
        noisy = add_gaussian_noise(noisy, args.sigma, args.seed)
    clean = read_pgm(args.clean) if args.clean else None
    cfg = DenoiseConfig(
        patch_side=args.patch_side,
        depth=args.depth,
        top_k=args.topk,
        stride=args.stride,
        filter_name=args.tree,
        mode=args.mode,
    )
    out, report = denoise_image(noisy, cfg, clean)
    if args.out:
        with _writing(args.out):
            write_pgm(args.out, out)
    if args.report:
        _write_json(args.report, report)
    return EXIT_OK


def cmd_selftest(args) -> int:
    ok, rows = run_selftest(seed=args.seed, quick=args.quick, corrupt_tree=args.corrupt_tree)
    print(format_rows(rows))
    print("selftest:", "PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_SELFTEST


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="wpc",
        description="Packet-tree content decomposition, greedy extraction, denoising.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_matrix_args(sp):
        sp.add_argument("--in", dest="input", help="matrix JSON {dim, data}")
        sp.add_argument("--symbol", help="diagonal symbol JSON {levels, r}")
        sp.add_argument(
            "--tree", choices=["shannon", "haar", "d4"], default="shannon"
        )
        sp.add_argument("--levels", type=int, help="shannon levels (dim = 2^levels)")
        sp.add_argument("--depth", type=int, help="tree depth / slice depth")
        sp.add_argument("--report", default="-", help="output JSON path (- = stdout)")

    sp = sub.add_parser("decompose", help="cylinder weights for all node depths")
    add_matrix_args(sp)
    sp.set_defaults(func=cmd_decompose)

    sp = sub.add_parser("greedy", help="greedy block extraction with decay report")
    add_matrix_args(sp)
    sp.add_argument("--mode", choices=["trace", "hs"], default="trace")
    sp.add_argument("--steps", type=int, default=32, help="max extraction steps")
    sp.add_argument("--stop-tol", type=float, default=1e-12)
    sp.add_argument("--csv", help="also write the step table as CSV")
    sp.set_defaults(func=cmd_greedy)

    sp = sub.add_parser("denoise", help="packet-block patch denoising of a PGM image")
    sp.add_argument("--in", dest="input", required=True, help="noisy PGM (P2 or P5)")
    sp.add_argument("--out", help="denoised PGM output path")
    sp.add_argument("--clean", help="clean reference PGM for PSNR reporting")
    sp.add_argument("--tree", choices=["shannon", "haar", "d4"], default="haar")
    sp.add_argument("--patch-side", type=int, default=8)
    sp.add_argument("--depth", type=int, default=2)
    sp.add_argument("--topk", type=int, default=4)
    sp.add_argument("--stride", type=int, help="default: patch side / 2")
    sp.add_argument("--mode", choices=["trace", "hs"], default="trace")
    sp.add_argument("--sigma", type=float, help="add seeded Gaussian noise first")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--report", help="report JSON path")
    sp.set_defaults(func=cmd_denoise)

    sp = sub.add_parser("selftest", help="run the embedded invariant suite")
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sp.add_argument("--quick", action="store_true", help="small fast subset")
    sp.add_argument(
        "--corrupt-tree", action="store_true", help="inject a corrupted tree fixture"
    )
    sp.set_defaults(func=cmd_selftest)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except MalformedInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except NotPositiveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_POSITIVE
    except NumericalBreakdownError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except (
        ConfigError,
        InvalidDepthError,
        InvalidFilterError,
        UnknownNodeError,
        DimensionMismatchError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
