"""Model-level compression facade over the unified codec registry.

:class:`CompressionPipeline` runs the paper's offline flow (Sec. IV-A:
histogram -> optional clustering -> codec fit -> encode).  One
:class:`PipelineConfig` names the codec (any registry entry), its
parameters, the clustering pass and the block grouping.
``compress_block`` compresses one block's kernels into a
:class:`BlockCodecResult` (a tree codec's ``to_stream`` turns its
payloads into :class:`~repro.core.streams.CompressedKernel` streams);
``compress_model`` runs the flow over *all* blocks of a model in one
call, returning a :class:`ModelCompressionResult` that aggregates the
per-block results into the whole-model metrics of Sec. VI.

Block grouping: the paper fits one tree per basic block
(``merge_blocks=False``); the global-tree ablation fits a single coder on
the merged histogram of every block (``merge_blocks=True``) and reuses it
everywhere, trading ratio for one shared decoder configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from .bitseq import (
    BITS_PER_SEQUENCE,
    KERNEL_SIDE,
    kernel_to_sequences,
    sequences_to_kernel,
)
from .bitstream import extract_payload
from .clustering import ClusteringConfig, ClusteringResult, cluster_sequences
from .codec import Codec, get_codec
from .frequency import FrequencyTable, merge_tables

__all__ = [
    "PipelineConfig",
    "BlockCodecResult",
    "ModelCompressionResult",
    "CompressionPipeline",
    "validate_kernel",
]


def validate_kernel(kernel: np.ndarray, index: int = 0) -> np.ndarray:
    """Check one kernel is a 4-D ``(out, in, 3, 3)`` bit tensor.

    Returns the array (as passed, coerced with ``np.asarray``) so callers
    can validate and use in one step; raises ``ValueError`` with the
    offending position otherwise.
    """
    kernel = np.asarray(kernel)
    if kernel.ndim != 4:
        raise ValueError(
            f"kernel {index} must be 4-D (out, in, {KERNEL_SIDE}, "
            f"{KERNEL_SIDE}), got {kernel.ndim}-D shape {kernel.shape}"
        )
    if kernel.shape[2:] != (KERNEL_SIDE, KERNEL_SIDE):
        raise ValueError(
            f"kernel {index} spatial dims must be {KERNEL_SIDE}x"
            f"{KERNEL_SIDE}, got {kernel.shape[2]}x{kernel.shape[3]}"
        )
    return kernel


@dataclass(frozen=True)
class PipelineConfig:
    """Everything that parameterises one compression run.

    ``codec`` is a registry name (see
    :func:`~repro.core.codec.available_codecs`), ``codec_params`` its
    constructor keywords (e.g. ``capacities`` for the simplified tree).
    """

    codec: str = "simplified"
    codec_params: Mapping[str, Any] = field(default_factory=dict)
    clustering: Optional[ClusteringConfig] = None
    merge_blocks: bool = False
    #: encode whole blocks through the vectorised batch codec path; the
    #: scalar per-kernel path (``False``) is the bit-identical reference
    use_batch: bool = True
    #: process-pool fan-out across blocks in ``compress_model``
    #: (0 or 1 = in-process serial)
    workers: int = 0

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")

    def make_codec(self) -> Codec:
        """Instantiate an unfitted codec from the registry."""
        return get_codec(self.codec, **dict(self.codec_params))


@dataclass
class BlockCodecResult:
    """One block's kernels compressed through one fitted codec."""

    #: block identifier (``None`` for anonymous single-block runs)
    block: Optional[Any]
    #: histogram before any clustering
    table: FrequencyTable
    #: histogram the codec was fitted on (post-clustering if any)
    effective_table: FrequencyTable
    codec: Codec
    clustering: Optional[ClusteringResult]
    #: per-kernel encoded ``(payload, bit_length)``
    payloads: List[Tuple[bytes, int]]
    #: per-kernel ``(out_channels, in_channels)``
    kernel_shapes: List[Tuple[int, int]]
    #: batch layout: every kernel's codes in one uint64 word stream
    #: (``None`` when the block was encoded through the scalar path)
    packed_words: Optional[np.ndarray] = None
    #: kernel ``i`` occupies bits ``[bit_offsets[i], bit_offsets[i+1])``
    bit_offsets: Optional[np.ndarray] = None

    @property
    def raw_bits(self) -> int:
        """Uncompressed kernel payload in bits (9 per channel)."""
        return self.effective_table.total * BITS_PER_SEQUENCE

    @property
    def compressed_bits(self) -> int:
        """Compressed payload bits summed over the block's kernels."""
        return sum(bit_length for _, bit_length in self.payloads)

    @property
    def compression_ratio(self) -> float:
        """The Table V metric for this block.

        An empty payload for a non-empty block means infinitely
        compressible; only a genuinely empty block reports 1.0.
        """
        compressed = self.compressed_bits
        if compressed == 0:
            return float("inf") if self.raw_bits > 0 else 1.0
        return self.raw_bits / compressed

    def decode_sequences(self) -> List[np.ndarray]:
        """Decode every payload back into flat sequence ids.

        Uses the batch decoder over the packed-word layout when the
        block was batch-encoded, the per-kernel scalar path otherwise.
        """
        if self.packed_words is not None and self.bit_offsets is not None:
            counts = [shape[0] * shape[1] for shape in self.kernel_shapes]
            return self.codec.decode_batch(
                self.packed_words, counts, self.bit_offsets
            )
        out = []
        for (payload, bit_length), shape in zip(
            self.payloads, self.kernel_shapes
        ):
            count = shape[0] * shape[1]
            out.append(self.codec.decode(payload, count, bit_length))
        return out

    def decode_kernels(self) -> List[np.ndarray]:
        """Decode every payload back into kernel bit tensors."""
        return [
            sequences_to_kernel(sequences, shape)
            for sequences, shape in zip(
                self.decode_sequences(), self.kernel_shapes
            )
        ]


@dataclass
class ModelCompressionResult:
    """All blocks of one model compressed under one config."""

    config: PipelineConfig
    blocks: Dict[Any, BlockCodecResult]

    @property
    def num_blocks(self) -> int:
        """Number of compressed blocks."""
        return len(self.blocks)

    @property
    def raw_bits(self) -> int:
        """Total uncompressed 3x3 payload across blocks."""
        return sum(result.raw_bits for result in self.blocks.values())

    @property
    def compressed_bits(self) -> int:
        """Total compressed 3x3 payload across blocks."""
        return sum(result.compressed_bits for result in self.blocks.values())

    @property
    def compression_ratio(self) -> float:
        """Whole-payload ratio (raw over compressed) across all blocks."""
        compressed = self.compressed_bits
        if compressed == 0:
            return float("inf") if self.raw_bits > 0 else 1.0
        return self.raw_bits / compressed

    def block_ratios(self) -> Dict[Any, float]:
        """Per-block compression ratio, keyed like ``blocks``."""
        return {
            block: result.compression_ratio
            for block, result in self.blocks.items()
        }

    def summary(self) -> str:
        """One-line human summary of the run."""
        return (
            f"{self.num_blocks} blocks, codec={self.config.codec!r}, "
            f"clustering={'on' if self.config.clustering else 'off'}: "
            f"{self.raw_bits} -> {self.compressed_bits} bits "
            f"({self.compression_ratio:.2f}x)"
        )


class CompressionPipeline:
    """Compress whole models (or single blocks) through any registered codec.

    The per-block flow is the paper's offline step (Sec. IV-A): histogram
    -> optional clustering -> fit codec -> encode every kernel.  The codec
    and all knobs come from one :class:`PipelineConfig`, so swapping full
    Huffman for the simplified tree — or any future registry entry — is a
    config change, not new plumbing.
    """

    def __init__(self, config: Optional[PipelineConfig] = None) -> None:
        self._config = config if config is not None else PipelineConfig()

    @property
    def config(self) -> PipelineConfig:
        """The immutable run configuration."""
        return self._config

    # ------------------------------------------------------------------
    # Single block
    # ------------------------------------------------------------------
    def compress_block(
        self,
        kernels: Sequence[np.ndarray],
        block: Optional[Any] = None,
        codec: Optional[Codec] = None,
    ) -> BlockCodecResult:
        """Compress all 3x3 kernels of one basic block together.

        ``codec`` injects an already-fitted codec (the shared-coder path
        of ``merge_blocks``); by default a fresh codec is fitted on this
        block's (post-clustering) histogram.
        """
        return self._encode_prepared(
            self._prepare_block(kernels), block=block, codec=codec
        )

    def _prepare_block(
        self, kernels: Sequence[np.ndarray]
    ) -> "_PreparedBlock":
        """Validate, sequence and (optionally) cluster one block's kernels."""
        if not kernels:
            raise ValueError("compress_block needs at least one kernel")
        kernels = [
            validate_kernel(kernel, index)
            for index, kernel in enumerate(kernels)
        ]
        sequence_arrays = [kernel_to_sequences(kernel) for kernel in kernels]
        shapes = [(kernel.shape[0], kernel.shape[1]) for kernel in kernels]
        table = merge_tables(
            [FrequencyTable.from_sequences(arr) for arr in sequence_arrays]
        )

        clustering_result: Optional[ClusteringResult] = None
        effective_table = table
        if self._config.clustering is not None:
            clustering_result = cluster_sequences(
                table, self._config.clustering
            )
            sequence_arrays = [
                clustering_result.apply_to_sequences(arr)
                for arr in sequence_arrays
            ]
            effective_table = clustering_result.apply_to_table(table)
        return _PreparedBlock(
            sequence_arrays=sequence_arrays,
            kernel_shapes=shapes,
            table=table,
            effective_table=effective_table,
            clustering=clustering_result,
        )

    def _encode_prepared(
        self,
        prepared: "_PreparedBlock",
        block: Optional[Any] = None,
        codec: Optional[Codec] = None,
    ) -> BlockCodecResult:
        """Fit (unless injected) and encode one prepared block.

        The batch path encodes the whole block in one ``encode_batch``
        call; per-kernel payloads are sliced back out of the packed
        words, bit-for-bit identical to the scalar path's.
        """
        if codec is None:
            codec = self._config.make_codec().fit(prepared.effective_table)
        packed_words: Optional[np.ndarray] = None
        bit_offsets: Optional[np.ndarray] = None
        if self._config.use_batch:
            packed_words, bit_offsets = codec.encode_batch(
                prepared.sequence_arrays
            )
            payloads = [
                extract_payload(
                    packed_words, int(bit_offsets[i]), int(bit_offsets[i + 1])
                )
                for i in range(len(prepared.sequence_arrays))
            ]
        else:
            payloads = [
                codec.encode(arr) for arr in prepared.sequence_arrays
            ]
        return BlockCodecResult(
            block=block,
            table=prepared.table,
            effective_table=prepared.effective_table,
            codec=codec,
            clustering=prepared.clustering,
            payloads=payloads,
            kernel_shapes=prepared.kernel_shapes,
            packed_words=packed_words,
            bit_offsets=bit_offsets,
        )

    # ------------------------------------------------------------------
    # Whole model
    # ------------------------------------------------------------------
    def compress_model(
        self,
        kernels: Mapping[Any, np.ndarray | Sequence[np.ndarray]],
        workers: Optional[int] = None,
    ) -> ModelCompressionResult:
        """Compress every block of a model in one call.

        ``kernels`` maps block ids to one 4-D kernel or a sequence of
        them (e.g. the output of
        :func:`~repro.synth.weights.generate_reactnet_kernels`).

        ``workers`` (default: the config's ``workers``) fans the
        independent per-block compressions out over a process pool.
        Results are keyed and ordered exactly as in the serial run; the
        shared-codec path (``merge_blocks``) parallelises the prepare
        phase and fits/encodes under the one shared codec serially.
        """
        if not kernels:
            raise ValueError("compress_model needs at least one block")
        workers = self._config.workers if workers is None else workers
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        block_kernels = [
            (block, self._as_kernel_list(block, entry))
            for block, entry in sorted(kernels.items())
        ]

        if not self._config.merge_blocks:
            if workers > 1:
                blocks = dict(
                    self._map_parallel(
                        workers, _compress_block_job, block_kernels
                    )
                )
            else:
                blocks = {
                    block: self.compress_block(entry, block=block)
                    for block, entry in block_kernels
                }
            return ModelCompressionResult(config=self._config, blocks=blocks)

        if workers > 1:
            prepared = dict(
                self._map_parallel(workers, _prepare_block_job, block_kernels)
            )
        else:
            prepared = {
                block: self._prepare_block(entry)
                for block, entry in block_kernels
            }
        # one codec fitted on the merged (post-clustering) histogram
        shared = self._config.make_codec().fit(
            merge_tables(
                [entry.effective_table for entry in prepared.values()]
            )
        )
        blocks = {
            block: self._encode_prepared(entry, block=block, codec=shared)
            for block, entry in prepared.items()
        }
        return ModelCompressionResult(config=self._config, blocks=blocks)

    def _map_parallel(self, workers: int, job, block_kernels):
        """Run ``job(config, block, kernels)`` per block in a process pool."""
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(job, self._config, block, entry)
                for block, entry in block_kernels
            ]
            return [future.result() for future in futures]

    @staticmethod
    def _as_kernel_list(block: Any, entry) -> List[np.ndarray]:
        """Normalise one mapping value to a list of 4-D kernels."""
        if isinstance(entry, np.ndarray) and entry.ndim == 4:
            return [entry]
        kernels = list(entry)
        if not kernels:
            raise ValueError(f"block {block!r} has no kernels")
        return kernels


@dataclass
class _PreparedBlock:
    """One block after validation, sequencing and optional clustering."""

    sequence_arrays: List[np.ndarray]
    kernel_shapes: List[Tuple[int, int]]
    table: FrequencyTable
    effective_table: FrequencyTable
    clustering: Optional[ClusteringResult]


# ----------------------------------------------------------------------
# Process-pool jobs (module level so they pickle)
# ----------------------------------------------------------------------
def _compress_block_job(config: PipelineConfig, block, kernels):
    """Fully compress one block in a worker process."""
    result = CompressionPipeline(config).compress_block(kernels, block=block)
    return block, result


def _prepare_block_job(config: PipelineConfig, block, kernels):
    """Run the prepare phase (validate/sequence/cluster) in a worker."""
    return block, CompressionPipeline(config)._prepare_block(kernels)
