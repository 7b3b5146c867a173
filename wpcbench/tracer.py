"""Traced `wpc` job, and the per-layer metrics computed from its spans.

Run as a script, it executes one `wpc` job in its own process through
`wpcontent.cli.main`, with every public function of the package wrapped
under each name it is looked up by (modules bind imported names
directly, so a wrapper on `psdcore.make_psd` alone would miss the call
`greedy` makes through its own `make_psd`). Spans are kept in memory and
written as JSON when the job ends:

    python3 wpcbench/tracer.py --job 3 --spans spans.json -- greedy --in m.json ...

Imported, it turns span files into the per-layer metrics of the benchmark.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import types

# Layer attributes recorded on a span, taken from the call's result.
ATTRS = {
    "psdcore.sym_eigen": lambda out: {"dim": len(out[0])},
    "psdcore.make_psd": lambda out: {"clamp": bool(out.clamp_applied)},
    "greedy.trace_greedy": lambda out: {"steps": len(out.steps)},
    "greedy.hs_greedy": lambda out: {"steps": len(out.steps)},
    "denoise.extract_patches": lambda out: {"bytes": out.patches.nbytes},
}
for _build in ("build_shannon_tree", "build_filter_tree_1d", "build_filter_tree_2d"):
    ATTRS["tree." + _build] = lambda out: {
        "bytes": sum(out.basis(nd).nbytes for nd in out.all_nodes())
    }

# Per-layer metrics in output order: name -> unit.
METRICS = {
    "psdcore.sym_eigen.calls": "count",
    "psdcore.sym_eigen.s": "s",
    "psdcore.sym_eigen.slow_calls": "count",
    "psdcore.make_psd.s": "s",
    "psdcore.make_psd.clamps": "count",
    "psdcore.sqrt_entries.s": "s",
    "tree.build.s": "s",
    "tree.basis_mb": "MB",
    "content.trace_scores.calls": "count",
    "content.trace_scores.s": "s",
    "content.hs_scores_squared.calls": "count",
    "content.hs_scores_squared.s": "s",
    "content.cylinder_weights.s": "s",
    "greedy.steps": "count",
    "greedy.step.s": "s",
    "greedy.self.s": "s",
    "greedy.coherence.s": "s",
    "greedy.conditional_expectation.s": "s",
    "greedy.decay_report.s": "s",
    "denoise.extract_patches.s": "s",
    "denoise.block_scores.s": "s",
    "denoise.self.s": "s",
    "denoise.patches_mb": "MB",
    "pgm.read_pgm.s": "s",
    "pgm.write_pgm.s": "s",
    "cli.self.s": "s",
    "cli.report_bytes": "bytes",
    "trace.overhead_s": "s",
}

SLOW_FACTOR = 10.0


class Tracer:
    """In-memory span recorder for one job."""

    def __init__(self, job: int):
        self.job = job
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._wrappers: dict[int, types.FunctionType] = {}

    def wrap(self, fn, name: str):
        """One wrapper per function, shared by every name it is bound to."""
        if id(fn) in self._wrappers:
            return self._wrappers[id(fn)]
        spans, open_ids, attrs = self.spans, self._open, ATTRS.get(name)

        def traced(*args, **kwargs):
            span = {"name": name, "job": self.job, "parent": open_ids[-1] if open_ids else None}
            open_ids.append(len(spans))
            spans.append(span)
            span["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                open_ids.pop()
            if attrs is not None:
                span.update(attrs(out))
            return out

        self._wrappers[id(fn)] = traced
        return traced

    def install(self) -> None:
        """Wrap every public function of every loaded `wpcontent` module."""
        import wpcontent.cli  # noqa: F401  (loads every layer)
        from wpcontent.psdcore import PsdOperator

        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "wpcontent"]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if (
                    isinstance(value, types.FunctionType)
                    and not attr.startswith("_")
                    and value.__module__.startswith("wpcontent.")
                ):
                    layer = value.__module__.split(".")[-1]
                    setattr(mod, attr, self.wrap(value, f"{layer}.{value.__name__}"))
        PsdOperator.sqrt_entries = self.wrap(PsdOperator.sqrt_entries, "psdcore.sqrt_entries")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--job", type=int, required=True, help="job id shared by the job's spans")
    p.add_argument("--spans", required=True, help="span JSON written when the job ends")
    p.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the wpc arguments")
    args = p.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    tracer = Tracer(args.job)
    tracer.install()
    import wpcontent.cli

    code = wpcontent.cli.main(argv)
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump({"job": args.job, "argv": argv, "exit": code, "spans": tracer.spans}, fh)
    return code


def _job_metrics(doc: dict, slow_over: dict[int, float]) -> dict[str, float]:
    spans = doc["spans"]
    dur = [s["end"] - s["start"] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s["parent"] is not None:
            child[s["parent"]] += d
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    layer_self: dict[str, float] = {}
    for s, d, c in zip(spans, dur, child):
        name = s["name"]
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + d
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + d - c

    def is_build(i):
        return i is not None and spans[i]["name"].startswith("tree.build_")

    builds = [i for i in range(len(spans)) if is_build(i) and not is_build(spans[i]["parent"])]
    eig = [(s["dim"], d) for s, d in zip(spans, dur) if s["name"] == "psdcore.sym_eigen"]
    rules = [i for i, s in enumerate(spans) if s["name"] in ("greedy.trace_greedy", "greedy.hs_greedy")]
    steps = sum(spans[i]["steps"] for i in rules)
    patches = [s["bytes"] for s in spans if s["name"] == "denoise.extract_patches"]
    return {
        "psdcore.sym_eigen.calls": calls.get("psdcore.sym_eigen", 0),
        "psdcore.sym_eigen.s": incl.get("psdcore.sym_eigen", 0.0),
        "psdcore.sym_eigen.slow_calls": sum(d > slow_over[dim] for dim, d in eig),
        "psdcore.make_psd.s": incl.get("psdcore.make_psd", 0.0),
        "psdcore.make_psd.clamps": sum(
            bool(s.get("clamp")) for s in spans if s["name"] == "psdcore.make_psd"
        ),
        "psdcore.sqrt_entries.s": incl.get("psdcore.sqrt_entries", 0.0),
        "tree.build.s": sum(dur[i] for i in builds),
        "tree.basis_mb": sum(spans[i]["bytes"] for i in builds) / 1e6,
        "content.trace_scores.calls": calls.get("content.trace_scores", 0),
        "content.trace_scores.s": incl.get("content.trace_scores", 0.0),
        "content.hs_scores_squared.calls": calls.get("content.hs_scores_squared", 0),
        "content.hs_scores_squared.s": incl.get("content.hs_scores_squared", 0.0),
        "content.cylinder_weights.s": incl.get("content.cylinder_weights", 0.0),
        "greedy.steps": steps,
        "greedy.step.s": sum(dur[i] for i in rules) / steps if steps else 0.0,
        "greedy.self.s": layer_self.get("greedy", 0.0),
        "greedy.coherence.s": incl.get("greedy.coherence", 0.0),
        "greedy.conditional_expectation.s": incl.get("greedy.conditional_expectation", 0.0),
        "greedy.decay_report.s": incl.get("greedy.decay_report", 0.0),
        "denoise.extract_patches.s": incl.get("denoise.extract_patches", 0.0),
        "denoise.block_scores.s": incl.get("denoise.block_scores", 0.0),
        "denoise.self.s": layer_self.get("denoise", 0.0),
        "denoise.patches_mb": sum(patches) / 1e6,
        "pgm.read_pgm.s": incl.get("pgm.read_pgm", 0.0),
        "pgm.write_pgm.s": incl.get("pgm.write_pgm", 0.0),
        "cli.self.s": layer_self.get("cli", 0.0),
        "cli.report_bytes": doc["report_bytes"],
    }


def layer_metrics(docs: list[dict]) -> dict[str, float]:
    """Median over traced jobs of each per-job layer metric (all but the overhead).

    A `sym_eigen` call is slow when it takes over SLOW_FACTOR times the
    median call at the same dimension, over all traced jobs of the run.
    """
    by_dim: dict[int, list[float]] = {}
    for doc in docs:
        for s in doc["spans"]:
            if s["name"] == "psdcore.sym_eigen":
                by_dim.setdefault(s["dim"], []).append(s["end"] - s["start"])
    slow_over = {dim: SLOW_FACTOR * statistics.median(v) for dim, v in by_dim.items()}
    per_job = [_job_metrics(doc, slow_over) for doc in docs]
    return {name: statistics.median(m[name] for m in per_job) for name in per_job[0]}


if __name__ == "__main__":
    sys.exit(main())
