"""Core kernel-compression library: the paper's primary contribution.

The modern surface is codec-centric: every coder of the paper's
comparison (Sec. III-B) implements one :class:`~repro.core.codec.Codec`
protocol and lives in a string-keyed registry, and whole models are
compressed through the :class:`~repro.core.pipeline.CompressionPipeline`
facade configured by a single
:class:`~repro.core.pipeline.PipelineConfig`.

Public surface:

* :mod:`~repro.core.codec` — the :class:`~repro.core.codec.Codec`
  protocol, the registry (:func:`~repro.core.codec.register_codec` /
  :func:`~repro.core.codec.get_codec` /
  :func:`~repro.core.codec.available_codecs`) and the four built-in
  coders: ``fixed`` (9-bit daBNN layout), ``huffman`` (full canonical
  Huffman, Deep Compression [11]), ``simplified`` (the paper's 4-node
  tree) and ``rank-gamma`` (Elias gamma over frequency ranks)
* :class:`~repro.core.pipeline.CompressionPipeline` — model-level
  facade: one config, all blocks, any registered codec
* :mod:`~repro.core.bitseq` — natural mapping of 3x3 channels to 9-bit ids
* :class:`~repro.core.frequency.FrequencyTable` — per-block histograms
* :func:`~repro.core.clustering.cluster_sequences` — Hamming-1 replacement

Lower-level pieces (:class:`~repro.core.huffman.HuffmanEncoder`,
:class:`~repro.core.simplified.SimplifiedTree`,
:class:`~repro.core.streams.CompressedKernel`, the bit-stream
primitives) remain available for the hardware model and for direct use.
"""

from .bitseq import (
    ALL_MINUS_ONE,
    ALL_PLUS_ONE,
    BITS_PER_SEQUENCE,
    KERNEL_SIDE,
    NUM_SEQUENCES,
    bits_to_signs,
    channels_to_sequences,
    hamming_distance,
    hamming_neighbours,
    kernel_to_sequences,
    popcount,
    sequences_to_channels,
    sequences_to_kernel,
    signs_to_bits,
)
# NOTE: the low-level batch packing helpers (``pack_bits``,
# ``unpack_bits``, ``bits_to_words``) stay namespaced under
# ``repro.core.bitstream`` — ``repro.bnn`` exports channel-packing
# functions of the same names with different signatures.
from .bitstream import (
    BitReader,
    BitWriter,
    bytes_to_words,
    extract_payload,
    words_to_bytes,
)
from .clustering import ClusteringConfig, ClusteringResult, cluster_sequences
from .codec import (
    Codec,
    FixedCodec,
    HuffmanCodec,
    RankGammaCodec,
    SimplifiedTreeCodec,
    available_codecs,
    elias_gamma_length,
    get_codec,
    register_codec,
)
from .frequency import FrequencyTable, merge_tables
from .huffman import HuffmanCode, HuffmanEncoder, build_huffman_code
from .pipeline import (
    BlockCodecResult,
    CompressionPipeline,
    ModelCompressionResult,
    PipelineConfig,
    validate_kernel,
)
from .simplified import (
    DEFAULT_CAPACITIES,
    NodeAssignment,
    SimplifiedTree,
    TreeLayout,
)
from .streams import CompressedKernel

__all__ = [
    "ALL_MINUS_ONE",
    "ALL_PLUS_ONE",
    "BITS_PER_SEQUENCE",
    "KERNEL_SIDE",
    "NUM_SEQUENCES",
    "BitReader",
    "BitWriter",
    "BlockCodecResult",
    "ClusteringConfig",
    "ClusteringResult",
    "Codec",
    "CompressedKernel",
    "CompressionPipeline",
    "DEFAULT_CAPACITIES",
    "FixedCodec",
    "FrequencyTable",
    "HuffmanCode",
    "HuffmanCodec",
    "HuffmanEncoder",
    "ModelCompressionResult",
    "NodeAssignment",
    "PipelineConfig",
    "RankGammaCodec",
    "SimplifiedTree",
    "SimplifiedTreeCodec",
    "TreeLayout",
    "available_codecs",
    "bits_to_signs",
    "build_huffman_code",
    "bytes_to_words",
    "channels_to_sequences",
    "cluster_sequences",
    "elias_gamma_length",
    "extract_payload",
    "get_codec",
    "words_to_bytes",
    "hamming_distance",
    "hamming_neighbours",
    "kernel_to_sequences",
    "merge_tables",
    "popcount",
    "register_codec",
    "sequences_to_channels",
    "sequences_to_kernel",
    "signs_to_bits",
    "validate_kernel",
]
