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

Each subcommand executes only the layers it runs. `errors`, `psdcore`,
`tree` and `content` load with this module (every subcommand needs them,
and they load numpy). `greedy`, `denoise`, `pgm` and `selftest` are
registered in sys.modules by a LazyLoader and execute on their first
attribute access: `decompose` runs none of them, `greedy` runs `greedy`,
`denoise` runs `denoise` and `pgm`, `selftest` runs `selftest` and
`greedy`. Reports are the text of ``json.dumps(indent=2)``, produced by
the C encoder (`_dumps`).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import importlib.util
import json
import os
import sys
from itertools import chain

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules and not any(v in os.environ for v in _THREAD_VARS):
    os.environ.update(dict.fromkeys(_THREAD_VARS, "1"))

from .content import cylinder_weights
from .errors import (
    ConfigError,
    MalformedInputError,
    NotPositiveError,
    NumericalBreakdownError,
)
from .psdcore import PsdOperator, as_entries, matrix_from_json, symbol_from_json, symbol_operator
from .tree import build_filter_tree_1d, build_shannon_tree, tree_description


def _lazy(name: str):
    """Submodule ``name``, in sys.modules from now on but executed on its first attribute access."""
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


denoise, greedy, pgm, selftest = map(_lazy, ("denoise", "greedy", "pgm", "selftest"))

EXIT_OK = 0
EXIT_SELFTEST = 1
# exit code of each error class (and its subclasses) `main` reports as one ``error:`` line
EXIT_CODES = {
    MalformedInputError: 2, NotPositiveError: 3, NumericalBreakdownError: 4, ConfigError: 5,
}


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


_SCALAR_TYPES = {str, int, float, bool, type(None)}


def _compact(value, sep: str) -> str:
    """One C-encoder call: item separator ``sep`` at every level, strict about non-finite floats."""
    return json.dumps(value, separators=(sep, ": "), allow_nan=False)


def _scalars(values) -> bool:
    """Whether every value is a JSON scalar (exact types; a subclass takes the general route)."""
    return set(map(type, values)) <= _SCALAR_TYPES


def _dumps(value, level: int = 0) -> str:
    """``json.dumps(value, indent=2, allow_nan=False)`` for string-keyed JSON values, in C.

    ``indent`` sends `json` to its pure-Python encoder. Here a container of
    scalars is one C call whose item separator carries the indentation. So
    is a list of non-empty flat dicts, whose row boundary ``},\\n<pad>{`` is
    then re-indented: only a separator holds a raw newline, and no encoded
    scalar ends in ``}``. Any other container recurses.
    """
    pad, inner = "  " * level, "  " * (level + 1)
    is_dict = isinstance(value, dict)
    if not (is_dict or isinstance(value, (list, tuple))):
        return _compact(value, ",")
    if not value:
        return "{}" if is_dict else "[]"
    items = value.values() if is_dict else value
    if _scalars(items):
        text = _compact(value, ",\n" + inner)
        return f"{text[0]}\n{inner}{text[1:-1]}\n{pad}{text[-1]}"
    if (not is_dict and set(map(type, value)) == {dict} and all(value)
            and _scalars(chain.from_iterable(map(dict.values, value)))):
        row = inner + "  "
        body = _compact(value, ",\n" + row)[2:-2]
        body = body.replace("},\n" + row + "{", f"\n{inner}}},\n{inner}{{\n{row}")
        return f"[\n{inner}{{\n{row}{body}\n{inner}}}\n{pad}]"
    if is_dict:
        parts = [f"{json.encoder.encode_basestring_ascii(k)}: {_dumps(v, level + 1)}"
                 for k, v in value.items()]
    else:
        parts = [_dumps(v, level + 1) for v in value]
    brackets = "{}" if is_dict else "[]"
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(parts) + f"\n{pad}{brackets[1]}"


def _write_json(path, payload) -> None:
    """Strict JSON: a non-finite value is a numerical breakdown (exit 4), and nothing is written.

    The text is that of ``json.dumps(payload, indent=2, allow_nan=False)``, byte for byte.
    """
    try:
        text = _dumps(payload) + "\n"
    except ValueError as exc:
        raise NumericalBreakdownError(None, f"report holds a non-finite value ({exc})") from exc
    if path == "-" or path is None:
        sys.stdout.write(text)
    else:
        with _writing(path), open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _check_files(args, *outputs) -> None:
    """Refuse an output whose file another output or an input (--in, --symbol, --clean) names.

    Paths match by os.path.realpath, so ``sub/..`` and symlinks count. Only
    --report takes "-", for stdout; a file named "-" is ``./-``. Runs before
    any input is read, so a refused command reads and writes nothing.
    """
    named = {}
    for option in ("--in", "--symbol", "--clean", *outputs):
        path = getattr(args, "input" if option == "--in" else option[2:], None)
        if not path or (path == "-" and option == "--report"):
            continue
        if path == "-" and option in outputs:
            raise ConfigError(f"{option} takes a file, not - (stdout); "
                              "write ./- for a file named -")
        real = os.path.realpath(path)
        if option in outputs and real in named:
            raise ConfigError(f"{option} {path} would overwrite {' '.join(named[real])}")
        named.setdefault(real, (option, path))


def _load_operator(args, dense=True):
    """Matrix or symbol input as a PsdOperator; dense=False keeps a symbol its 1-D values."""
    if args.input and args.symbol:
        raise ConfigError("give one of --in or --symbol, not both")
    if args.symbol:
        sym = symbol_from_json(_load_json(args.symbol))
        return symbol_operator(sym) if dense else sym
    if not args.input:
        raise ConfigError("one of --in or --symbol is required")
    return PsdOperator(matrix_from_json(_load_json(args.input)))


def _build_matrix_tree(args, dim: int):
    """The --tree on dim; the shannon tree takes levels = log2(dim), as a symbol's levels are."""
    if args.tree == "shannon":
        levels = dim.bit_length() - 1
        if 2**levels != dim:
            raise ConfigError(f"shannon tree needs dim = 2^levels; got dim {dim}")
        depth = args.depth if args.depth is not None else levels
        return build_shannon_tree(levels, depth)
    if args.depth is None:
        raise ConfigError(f"--depth is required for the {args.tree} tree")
    return build_filter_tree_1d(args.tree, dim, args.depth)


def cmd_decompose(args) -> int:
    _check_files(args, "--report")
    operator = _load_operator(args, dense=False)
    tree = _build_matrix_tree(args, len(as_entries(operator)))
    _write_json(args.report, {"tree": tree_description(tree), **cylinder_weights(operator, tree)})
    return EXIT_OK


def cmd_greedy(args) -> int:
    _check_files(args, "--report", "--csv")
    greedy._check_stop(args.steps, "--steps")
    operator = _load_operator(args)
    tree = _build_matrix_tree(args, operator.dim)
    run = greedy.trace_greedy if args.mode == "trace" else greedy.hs_greedy
    record = run(operator, tree, tree.max_depth, max_steps=args.steps)
    summary = greedy.decay_report(record.report)["summary"]
    _write_json(args.report, {**record.report, "summary": summary})
    if args.csv:
        columns = greedy.ROW_FIELDS
        with _writing(args.csv), open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            for step in record.steps:
                writer.writerow(["" if step[c] is None else step[c] for c in columns])
    return EXIT_OK


def cmd_denoise(args) -> int:
    _check_files(args, "--report", "--out")
    noisy = pgm.read_pgm(args.input)
    if args.sigma is not None:
        noisy = denoise.add_gaussian_noise(noisy, args.sigma, args.seed)
    clean = pgm.read_pgm(args.clean) if args.clean else None
    cfg = denoise.DenoiseConfig(
        patch_side=args.patch_side,
        depth=args.depth,
        top_k=args.topk,
        stride=args.stride,
        filter_name=args.tree,
        mode=args.mode,
    )
    out, report = denoise.denoise_image(noisy, cfg, clean)
    if args.out:
        with _writing(args.out):
            pgm.write_pgm(args.out, out)
    if args.report:
        _write_json(args.report, report)
    return EXIT_OK


def cmd_selftest(args) -> int:
    seed = selftest.DEFAULT_SEED if args.seed is None else args.seed
    ok, rows = selftest.run_selftest(seed=seed, quick=args.quick)
    print(selftest.format_rows(rows))
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
        sp.add_argument("--depth", type=int, help="tree depth / slice depth")
        sp.add_argument("--report", default="-", help="output JSON path (- = stdout)")

    sp = sub.add_parser("decompose", help="cylinder weights for all node depths")
    add_matrix_args(sp)
    sp.set_defaults(func=cmd_decompose)

    sp = sub.add_parser("greedy", help="greedy block extraction with decay report")
    add_matrix_args(sp)
    sp.add_argument("--mode", choices=["trace", "hs"], default="trace")
    sp.add_argument("--steps", type=int, default=32, help="max extraction steps")
    sp.add_argument("--csv", help="also write the step table as CSV")
    sp.set_defaults(func=cmd_greedy)

    sp = sub.add_parser("denoise", help="packet-block patch denoising of a PGM image")
    sp.add_argument("--in", dest="input", required=True, help="noisy PGM (P2 or P5)")
    sp.add_argument("--out", help="denoised PGM output path")
    sp.add_argument("--clean", help="clean reference PGM for PSNR reporting")
    sp.add_argument("--tree", choices=["haar", "d4"], default="haar")
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
    sp.add_argument("--seed", type=int, help="default: the suite's fixed seed")
    sp.add_argument("--quick", action="store_true", help="small fast subset")
    sp.set_defaults(func=cmd_selftest)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
