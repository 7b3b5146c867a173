"""Byte-identity manifest: SHA-256 digests of the program's outputs, against tests/golden.json.

Not collected by pytest (the name does not match ``test_*.py``), and not
part of Tier-1, because the digests depend on the build: report bytes
depend on the BLAS build and the CPU. From the repository root:

    python tests/golden.py            # compare every entry with the manifest
    python tests/golden.py --update   # rewrite the manifest from this tree

It runs numpy on one BLAS thread and regenerates, in process:

* the output files of the four benchmark workloads of
  ``wpcbench/workloads.py`` on the inputs of seeds 1-3, through ``cli.main``;
* the standard output of ``wpc selftest``, ``wpc selftest --quick`` and
  ``wpc selftest --seed 7``;
* a library corpus on Shannon, Haar, D4 and 2-D Haar and D4 trees, each
  with a full-rank and a rank-deficient Gram matrix (and the Shannon tree
  with a diagonal symbol too): the ``report`` of both greedy rules'
  ``ExtractionTrace``, the ``depth_decomposition`` block bytes, the
  ``cylinder_weights`` rows and ``discrete_density``. The item names
  (``trace-payload-*`` and ``cylinder-rows``) keep the manifest's keys.

The manifest also stores a fingerprint of the machine: the Python and
numpy versions, numpy's BLAS, the CPU model and the thread variables.
Exit status: 0 when every entry matches, 1 when some entry differs or is
missing (each is named), 2 when the manifest cannot be read, and 3 when
it was made on another fingerprint, in which case no entry is compared.
A change that alters outputs on purpose runs ``--update`` and lists the
changed entries.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
import time
from functools import lru_cache
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))  # before numpy loads

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = Path(__file__).resolve().parent / "golden.json"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "wpcbench")]

import numpy as np  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import wpcontent as w  # noqa: E402
from wpcontent import cli  # noqa: E402

SEEDS = (1, 2, 3)
SELFTESTS = {"selftest": [], "selftest-quick": ["--quick"], "selftest-seed-7": ["--seed", "7"]}
TREES = ("shannon", "haar", "d4", "haar-2d", "d4-2d")
OPERATORS = ("full-rank", "rank-5")
ITEMS = ("trace-payload-trace", "trace-payload-hs", "depth-blocks", "cylinder-rows", "density")


def fingerprint() -> dict:
    """What the digests depend on besides the code."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except TypeError:  # numpy before 1.26 only prints its configuration
        with contextlib.redirect_stdout(io.StringIO()) as text:
            np.show_config()
        blas = text.getvalue()
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
            cpu = models[0] if models else cpu
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu": cpu,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


# ------------------------------------------------------------- workloads


def _workload_files(name: str) -> list[str]:
    """The file names a job of the workload writes into its output directory."""
    out = Path("out")
    argv = WORKLOADS[name].argv({"path": Path("in"), "dir": Path("in")}, out)
    return [Path(a).name for a in argv if Path(a).parent == out]


@lru_cache(maxsize=1)
def _workload_outputs(name: str, seed: int) -> dict[str, bytes]:
    job = WORKLOADS[name]
    with tempfile.TemporaryDirectory(prefix="wpc-golden-") as tmp:
        indir, out = Path(tmp, "in"), Path(tmp, "out")
        indir.mkdir()
        out.mkdir()
        code = cli.main(job.argv(job.make_inputs(seed, indir), out))
        if code != 0:
            raise RuntimeError(f"workload {name} seed {seed} exited {code}")
        return {f: (out / f).read_bytes() for f in _workload_files(name)}


def _selftest_stdout(args: list[str]) -> bytes:
    with contextlib.redirect_stdout(io.StringIO()) as text:
        cli.main(["selftest", *args])
    return text.getvalue().encode("utf-8")


# --------------------------------------------------------------- library


@lru_cache(maxsize=None)
def _tree(name: str):
    if name == "shannon":
        return w.build_shannon_tree(4, 3)
    if name.endswith("-2d"):
        return w.build_filter_tree_2d(name[:-3], 4, 2)
    return w.build_filter_tree_1d(name, 16, 3)


@lru_cache(maxsize=None)
def _operator(kind: str):
    if kind == "symbol":
        return w.symbol_operator(w.shannon_symbol(0.8 ** np.arange(16.0)))
    rank = 16 if kind == "full-rank" else int(kind.removeprefix("rank-"))
    g = np.random.default_rng([7, rank]).standard_normal((rank, 16))
    return w.PsdOperator(g.T @ g / 16)


def _json(value) -> bytes:
    return json.dumps(value).encode("utf-8")


def _library_item(tree_name: str, kind: str, item: str) -> bytes:
    tree, r = _tree(tree_name), _operator(kind)
    n = tree.max_depth
    if item.startswith("trace-payload-"):
        run = w.trace_greedy if item.endswith("-trace") else w.hs_greedy
        return _json(run(r, tree, n, max_steps=12).report)
    if item == "depth-blocks":
        parts = []
        for depth in range(1, n + 1):
            blocks, max_error = w.depth_decomposition(r, tree, depth)
            parts.append(np.array([w.trace(r), max_error]).tobytes())
            for blk in blocks:
                parts.append(np.asarray(blk).tobytes())
                parts.append(np.array([w.trace(blk), w.hs_norm(blk)]).tobytes())
        return b"".join(parts)
    if item == "cylinder-rows":
        weights = w.cylinder_weights(r, tree)
        return _json([weights["cylinders"], weights["validation"]["max_additivity_gap"]])
    x = np.random.default_rng(11).standard_normal(r.dim)
    return _json([w.discrete_density(r, tree, x, depth) for depth in range(n + 1)])


# --------------------------------------------------------------- entries


def entries() -> dict:
    """Entry name -> a function that makes the entry's bytes, in manifest order."""
    out = {}
    for name in WORKLOADS:
        for seed in SEEDS:
            for f in _workload_files(name):
                out[f"workload/{name}/seed-{seed}/{f}"] = (
                    lambda name=name, seed=seed, f=f: _workload_outputs(name, seed)[f])
    for name, args in SELFTESTS.items():
        out[f"cli/{name}/stdout"] = lambda args=args: _selftest_stdout(args)
    for tree_name in TREES:
        kinds = OPERATORS + (("symbol",) if tree_name == "shannon" else ())
        for kind in kinds:
            for item in ITEMS:
                out[f"library/{tree_name}/{kind}/{item}"] = (
                    lambda t=tree_name, k=kind, i=item: _library_item(t, k, i))
    return out


def digests() -> dict[str, str]:
    return {name: hashlib.sha256(make()).hexdigest() for name, make in entries().items()}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args not in ([], ["--update"]):
        print("usage: python tests/golden.py [--update]", file=sys.stderr)
        return 2
    start = time.monotonic()
    if args == ["--update"]:
        manifest = {"fingerprint": fingerprint(), "entries": digests()}
        MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {len(manifest['entries'])} entries to {MANIFEST.name} "
              f"in {time.monotonic() - start:.1f} s")
        return 0
    try:
        manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
        stored, want = manifest["fingerprint"], manifest["entries"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: cannot read {MANIFEST.name}: {exc!r}", file=sys.stderr)
        return 2
    here = fingerprint()
    if stored != here:
        for key in sorted(set(stored) | set(here)):
            if stored.get(key) != here.get(key):
                print(f"fingerprint {key}: manifest {stored.get(key)!r}, here {here.get(key)!r}")
        print("other fingerprint: no verdict (run --update on the parent commit here)")
        return 3
    got = digests()
    bad = [name for name in got if want.get(name) != got[name]]
    bad += [name for name in want if name not in got]
    for name in bad:
        print(f"{'differs' if name in got and name in want else 'missing'}: {name}")
    verdict = f"{len(bad)} of {len(got)} entries differ" if bad else f"all {len(got)} entries match"
    print(f"{verdict} ({time.monotonic() - start:.1f} s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
