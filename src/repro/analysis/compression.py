"""Compression experiments: Table V, whole-model ratio, code-length mix.

``measure_table5`` runs the full pipeline (frequency table -> optional
clustering -> simplified tree -> encode) per block and reports the two
columns of Table V.  ``measure_model_compression`` folds the per-block
payloads into the Table I storage model to reproduce the paper's
whole-model 1.2x figure.  ``measure_codelength_mix`` reproduces the
Sec. VI frequency-per-code-length narrative (46/24/23/5% before
clustering, 65/25/8/0.6% after).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.clustering import ClusteringConfig
from ..core.pipeline import CompressionPipeline, PipelineConfig
from ..core.simplified import DEFAULT_CAPACITIES
from ..synth.weights import generate_reactnet_kernels
from .report import format_percent, format_ratio, render_table
from .storage import compute_storage_breakdown

__all__ = [
    "Table5Row",
    "PAPER_TABLE5",
    "measure_table5",
    "render_table5",
    "ModelCompressionResult",
    "measure_model_compression",
    "CodeLengthMix",
    "measure_codelength_mix",
]

#: Table V of the paper: per block (encoding ratio, clustering ratio).
PAPER_TABLE5: Dict[int, Tuple[float, float]] = {
    1: (1.18, 1.30),
    2: (1.22, 1.30),
    3: (1.21, 1.31),
    4: (1.21, 1.32),
    5: (1.19, 1.30),
    6: (1.20, 1.33),
    7: (1.18, 1.33),
    8: (1.20, 1.32),
    9: (1.20, 1.31),
    10: (1.18, 1.32),
    11: (1.19, 1.33),
    12: (1.25, 1.36),
    13: (1.22, 1.35),
}

#: Sec. VI clustering configuration: top-64 donors, 256 rarest replaced.
PAPER_CLUSTERING = ClusteringConfig(num_common=64, num_rare=256, max_distance=1)


@dataclass(frozen=True)
class Table5Row:
    """One block of Table V: measured and published ratios."""

    block: int
    encoding_ratio: float
    clustering_ratio: float
    paper_encoding: float
    paper_clustering: float
    replaced: int

    @property
    def clustering_gain(self) -> float:
        """Ratio improvement contributed by the clustering pass."""
        return self.clustering_ratio - self.encoding_ratio


def measure_table5(
    kernels: Optional[Dict[int, np.ndarray]] = None,
    capacities: Sequence[int] = DEFAULT_CAPACITIES,
    clustering: ClusteringConfig = PAPER_CLUSTERING,
    seed: int = 0,
    codec: str = "simplified",
    codec_params: Optional[Dict] = None,
    use_batch: bool = True,
    workers: int = 0,
) -> List[Table5Row]:
    """Compress every block twice (encoding only / with clustering).

    ``codec`` selects any registry entry; the published numbers are for
    the default ``"simplified"`` scheme, other codecs re-run the same
    experiment with a different coder (the paper-column entries then
    serve as reference only).  ``use_batch`` / ``workers`` select the
    vectorised codec path and the per-block process-pool fan-out; both
    produce bit-identical payloads to the serial scalar run.
    """
    kernels = kernels or generate_reactnet_kernels(seed=seed)
    params = dict(codec_params or {})
    if codec == "simplified":
        params.setdefault("capacities", tuple(int(c) for c in capacities))
    plain = CompressionPipeline(
        PipelineConfig(
            codec=codec, codec_params=params, clustering=None,
            use_batch=use_batch, workers=workers,
        )
    )
    clustered = CompressionPipeline(
        PipelineConfig(
            codec=codec, codec_params=params, clustering=clustering,
            use_batch=use_batch, workers=workers,
        )
    )
    plain_results = plain.compress_model(kernels).blocks
    clustered_results = clustered.compress_model(kernels).blocks
    rows = []
    for block in sorted(kernels):
        encoding = plain_results[block]
        with_clustering = clustered_results[block]
        paper = PAPER_TABLE5.get(block, (float("nan"), float("nan")))
        rows.append(
            Table5Row(
                block=block,
                encoding_ratio=encoding.compression_ratio,
                clustering_ratio=with_clustering.compression_ratio,
                paper_encoding=paper[0],
                paper_clustering=paper[1],
                replaced=(
                    with_clustering.clustering.num_replaced
                    if with_clustering.clustering
                    else 0
                ),
            )
        )
    return rows


def render_table5(
    rows: Sequence[Table5Row], codec: str = "simplified"
) -> str:
    """Aligned text rendition of Table V (measured vs. paper).

    ``codec`` only affects the title, flagging runs where the measured
    columns came from a non-default coder.
    """
    table_rows = [
        (
            f"Block {row.block}",
            format_ratio(row.encoding_ratio),
            format_ratio(row.paper_encoding),
            format_ratio(row.clustering_ratio),
            format_ratio(row.paper_clustering),
            row.replaced,
        )
        for row in rows
    ]
    mean_enc = float(np.mean([row.encoding_ratio for row in rows]))
    mean_clu = float(np.mean([row.clustering_ratio for row in rows]))
    table_rows.append(
        ("Average", format_ratio(mean_enc), "~1.20x",
         format_ratio(mean_clu), "1.32x", "")
    )
    title = "Table V — compression ratio of 3x3 kernels per basic block"
    if codec != "simplified":
        title += f" [codec: {codec}]"
    return render_table(
        ("Layer", "Encoding", "(paper)", "Clustering", "(paper)", "Repl."),
        table_rows,
        title=title,
    )


@dataclass
class ModelCompressionResult:
    """Whole-model storage with compressed 3x3 kernels (Sec. VI, 1.2x)."""

    baseline_bits: int
    compressed_bits: int
    conv3x3_ratio: float

    @property
    def model_ratio(self) -> float:
        """End-to-end model compression ratio (paper: 1.2x)."""
        if self.compressed_bits == 0:
            return 1.0
        return self.baseline_bits / self.compressed_bits


def measure_model_compression(
    kernels: Optional[Dict[int, np.ndarray]] = None,
    clustering: ClusteringConfig = PAPER_CLUSTERING,
    seed: int = 0,
    use_batch: bool = True,
    workers: int = 0,
) -> ModelCompressionResult:
    """Fold compressed 3x3 payloads into the whole-model storage total.

    Only the 3x3 binary kernels are compressed (the paper compresses
    nothing else); node tables are charged once per block.  The blocks
    run through ``CompressionPipeline.compress_model``, so ``use_batch``
    selects the vectorised codec path and ``workers`` fans blocks out
    over a process pool — the measured bits are identical either way.
    """
    kernels = kernels or generate_reactnet_kernels(seed=seed)
    breakdown = compute_storage_breakdown()
    baseline_bits = breakdown.total_bits
    conv3x3_bits = breakdown.row("Conv 3x3").storage_bits

    pipeline = CompressionPipeline(
        PipelineConfig(
            codec="simplified", clustering=clustering,
            use_batch=use_batch, workers=workers,
        )
    )
    model_result = pipeline.compress_model(kernels)
    compressed_payload_bits = 0
    table_bits = 0
    for block in sorted(kernels):
        result = model_result.blocks[block]
        compressed_payload_bits += result.compressed_bits
        table_bits += sum(
            len(t) * 2 * 8
            for t in result.codec.tree.assignment.node_tables
        )
    compressed_total = (
        baseline_bits - conv3x3_bits + compressed_payload_bits + table_bits
    )
    return ModelCompressionResult(
        baseline_bits=baseline_bits,
        compressed_bits=compressed_total,
        conv3x3_ratio=conv3x3_bits / max(compressed_payload_bits + table_bits, 1),
    )


@dataclass(frozen=True)
class CodeLengthMix:
    """Share of channels per code length, before/after clustering (E8)."""

    code_lengths: Tuple[int, ...]
    before: Tuple[float, ...]
    after: Tuple[float, ...]

    #: Sec. VI published mixes (node order 6/8/9/12 bits)
    PAPER_BEFORE = (0.46, 0.24, 0.23, 0.05)
    PAPER_AFTER = (0.65, 0.25, 0.08, 0.006)

    def render(self) -> str:
        """Aligned table of the mixes."""
        rows = []
        for index, length in enumerate(self.code_lengths):
            rows.append(
                (
                    f"{length}-bit codes",
                    format_percent(self.before[index]),
                    format_percent(self.PAPER_BEFORE[index]),
                    format_percent(self.after[index]),
                    format_percent(self.PAPER_AFTER[index]),
                )
            )
        return render_table(
            ("Code length", "Encoding", "(paper)", "Clustering", "(paper)"),
            rows,
            title="Sec. VI — share of channels per code length",
        )


def measure_codelength_mix(
    kernels: Optional[Dict[int, np.ndarray]] = None,
    clustering: ClusteringConfig = PAPER_CLUSTERING,
    seed: int = 0,
) -> CodeLengthMix:
    """Average node-share mix across blocks, before and after clustering."""
    kernels = kernels or generate_reactnet_kernels(seed=seed)
    plain = CompressionPipeline(PipelineConfig())
    clustered = CompressionPipeline(PipelineConfig(clustering=clustering))
    before_acc = None
    after_acc = None
    count = 0
    lengths: Tuple[int, ...] = ()
    for block in sorted(kernels):
        enc = plain.compress_block([kernels[block]])
        clu = clustered.compress_block([kernels[block]])
        before = np.asarray(enc.codec.tree.node_shares())
        after = np.asarray(clu.codec.tree.node_shares())
        lengths = enc.codec.tree.layout.code_lengths
        before_acc = before if before_acc is None else before_acc + before
        after_acc = after if after_acc is None else after_acc + after
        count += 1
    return CodeLengthMix(
        code_lengths=lengths,
        before=tuple(float(x) for x in before_acc / count),
        after=tuple(float(x) for x in after_acc / count),
    )
