"""Coder comparison: the simplified tree against alternative encoders.

Positions the paper's scheme among its natural baselines on the same
per-block distributions:

* **fixed 9-bit** — the uncompressed daBNN layout (ratio 1.0);
* **full Huffman** — Deep Compression's coder (related work [11]); the
  upper bound among practical prefix codes, but needs per-symbol-length
  decode hardware;
* **simplified tree** — the paper's 4-node scheme (6/8/9/12-bit codes);
* **rank Elias-gamma** — a parameter-free universal code on frequency
  ranks, included as a "no tables at all" strawman;
* **entropy** — the information-theoretic bound.

All concrete coders are resolved through the unified codec registry
(:mod:`repro.core.codec`), so registering a new
:class:`~repro.core.codec.Codec` automatically enrols it in this
experiment — its ratio lands in :attr:`CoderComparison.ratios` next to
the canonical four columns.

The experiment quantifies the claim of Sec. III-B: the simplified tree
gives up only a little compression relative to full Huffman in exchange
for a trivially decodable format.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.bitseq import BITS_PER_SEQUENCE
from ..core.codec import available_codecs, get_codec
from ..core.frequency import FrequencyTable
from ..core.simplified import DEFAULT_CAPACITIES
from ..synth.weights import generate_reactnet_kernels
from .report import format_ratio, render_table

__all__ = ["CoderComparison", "compare_coders", "render_coders"]

@dataclass(frozen=True)
class CoderComparison:
    """Per-block compression ratio of every coder.

    The canonical coders keep their named columns; ``ratios`` carries
    every registry entry evaluated on the block (including the canonical
    ones, under their registry names).
    """

    block: int
    fixed: float
    huffman: float
    simplified: float
    rank_gamma: float
    entropy_bound: float
    ratios: Dict[str, float] = field(default_factory=dict)

    def as_row(self) -> tuple:
        """Render-ready row."""
        return (
            f"Block {self.block}",
            format_ratio(self.fixed),
            format_ratio(self.simplified),
            format_ratio(self.huffman),
            format_ratio(self.rank_gamma),
            format_ratio(self.entropy_bound),
        )


def compare_coders(
    kernels: Optional[Dict[int, np.ndarray]] = None,
    capacities: Sequence[int] = DEFAULT_CAPACITIES,
    seed: int = 0,
    codecs: Optional[Sequence[str]] = None,
    codec_params: Optional[Dict[str, Dict]] = None,
) -> List[CoderComparison]:
    """Evaluate all registered coders on every block's distribution.

    ``codecs`` restricts the run to a subset of registry names; the
    default evaluates every entry of
    :func:`~repro.core.codec.available_codecs`.  ``codec_params`` maps
    registry names to constructor keywords for codecs that need them
    (``capacities`` is threaded to ``"simplified"`` by default).
    """
    kernels = kernels or generate_reactnet_kernels(seed=seed)
    names = tuple(codecs) if codecs is not None else available_codecs()
    params_by_name: Dict[str, Dict] = {
        "simplified": {"capacities": capacities}
    }
    params_by_name.update(codec_params or {})
    rows = []
    for block in sorted(kernels):
        table = FrequencyTable.from_kernels([kernels[block]])
        ratios: Dict[str, float] = {}
        for name in names:
            codec = get_codec(name, **params_by_name.get(name, {}))
            ratios[name] = codec.fit(table).compression_ratio(table)
        entropy = table.entropy_bits()
        rows.append(
            CoderComparison(
                block=block,
                fixed=ratios.get("fixed", 1.0),
                huffman=ratios.get("huffman", float("nan")),
                simplified=ratios.get("simplified", float("nan")),
                rank_gamma=ratios.get("rank-gamma", float("nan")),
                entropy_bound=(
                    BITS_PER_SEQUENCE / entropy if entropy > 0 else float("inf")
                ),
                ratios=ratios,
            )
        )
    return rows


def render_coders(rows: Sequence[CoderComparison]) -> str:
    """Aligned comparison table plus per-coder means."""
    table_rows = [row.as_row() for row in rows]
    means = (
        "Average",
        format_ratio(float(np.mean([r.fixed for r in rows]))),
        format_ratio(float(np.mean([r.simplified for r in rows]))),
        format_ratio(float(np.mean([r.huffman for r in rows]))),
        format_ratio(float(np.mean([r.rank_gamma for r in rows]))),
        format_ratio(float(np.mean([r.entropy_bound for r in rows]))),
    )
    table_rows.append(means)
    return render_table(
        ("Layer", "Fixed 9b", "Simplified", "Huffman", "Rank-gamma",
         "Entropy"),
        table_rows,
        title="Coder comparison — compression ratio per basic block",
    )
