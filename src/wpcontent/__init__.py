"""Positive-block decompositions of PSD operators over wavelet packet trees.

A PSD operator splits, at any fixed packet-tree depth, into positive
content blocks (one per node) that sum back to the operator. The block
traces define consistent cylinder weights on the tree, greedy removal
of the heaviest block contracts the remainder at a certified geometric
rate (in trace or Hilbert-Schmidt norm), and the same block-selection
rule drives a patch-based image denoiser.

The public names load lazily (PEP 562): ``import wpcontent`` imports no
submodule and not numpy, so ``wpcontent.cli`` can still choose the BLAS
thread count before numpy starts.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "content": (
        "content_operator",
        "cylinder_weights",
        "depth_decomposition",
        "discrete_density",
        "parallelogram_check",
        "vector_weight",
    ),
    "denoise": (
        "DenoiseConfig",
        "PatchSet",
        "add_gaussian_noise",
        "block_scores",
        "denoise_image",
        "second_moment",
        "select_top_k",
    ),
    "errors": (
        "ConfigError",
        "MalformedInputError",
        "NotPositiveError",
        "NumericalBreakdownError",
        "WpcError",
    ),
    "greedy": (
        "ExtractionTrace",
        "coherence",
        "decay_report",
        "extract_sequence",
        "hs_greedy",
        "trace_greedy",
    ),
    "pgm": ("quantize", "read_pgm", "write_pgm"),
    "psdcore": (
        "PsdOperator",
        "hs_norm",
        "matrix_from_json",
        "shannon_symbol",
        "sym_eigen",
        "symbol_from_json",
        "symbol_operator",
        "trace",
    ),
    "tree": (
        "PacketTree",
        "build_filter_tree_1d",
        "build_filter_tree_2d",
        "build_shannon_tree",
        "filter_taps",
        "projection",
        "tree_description",
        "validate_tree",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    """Load an exported name, or one of the submodules above, on first use."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
