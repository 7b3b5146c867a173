"""Positive-block decompositions of PSD operators over wavelet packet trees.

A PSD operator splits, at any fixed packet-tree depth, into positive
content blocks (one per node) that sum back to the operator. The block
traces define consistent cylinder weights on the tree, greedy removal
of the heaviest block contracts the remainder at a certified geometric
rate (in trace or Hilbert-Schmidt norm), and the same block-selection
rule drives a patch-based image denoiser.
"""

from .content import (
    ContentBlock,
    ContentDecomposition,
    CylinderWeights,
    content_operator,
    cylinder_weights,
    depth_decomposition,
    discrete_density,
    parallelogram_check,
    vector_weight,
)
from .denoise import (
    BlockScores,
    DenoiseConfig,
    ImageBuffer,
    PatchSet,
    Selection,
    add_gaussian_noise,
    block_scores,
    denoise_image,
    extract_patches,
    psnr,
    second_moment,
    select_top_k,
)
from .errors import (
    AbsoluteContinuityViolation,
    ConfigError,
    DimensionMismatchError,
    InvalidDepthError,
    InvalidFilterError,
    MalformedInputError,
    NotPositiveError,
    NumericalBreakdownError,
    UndefinedCoherenceError,
    UnknownNodeError,
    WpcError,
)
from .greedy import (
    CoherenceValue,
    ExtractionStep,
    ExtractionTrace,
    coherence,
    conditional_expectation,
    decay_report,
    extract_sequence,
    hs_greedy,
    trace_greedy,
    trace_payload,
)
from .pgm import quantize, read_pgm, write_pgm
from .psdcore import (
    PsdOperator,
    SymMatrix,
    hs_norm,
    loewner_leq,
    make_psd,
    matrix_from_json,
    matrix_to_json,
    sqrt_psd,
    sym_eigen,
    trace,
)
from .tree import (
    FilterPair,
    PacketNode,
    PacketTree,
    ShannonSymbol,
    build_filter_tree_1d,
    build_filter_tree_2d,
    build_shannon_tree,
    d4_filter,
    filter_from_json,
    haar_filter,
    named_filter,
    projection,
    tree_description,
    validate_tree,
)

__version__ = "0.1.0"
