"""Plan-based batched packed inference (Sec. IV-B execution model).

An :class:`InferencePlan` is the compiled serving form of a BNN: each
``RSign -> BinaryConv2d`` pair of the Fig. 1 block structure is lowered
into one fused :class:`PackedConvStep` — sign/threshold straight to
{0, 1} bits, bit-domain im2col, xnor+popcount over prepacked
channel-word kernels (the daBNN layout of Fig. 5) — while the float glue
(stem, batch norm, RPReLU, pooling, 8-bit head) executes through the
layers' own eval-mode forward so the plan's logits are bit-identical to
the float reference oracle.

Plans compile from two sources:

* :meth:`InferencePlan.from_model` — lower a live
  :class:`~repro.bnn.model.Sequential`; kernels are channel-packed once
  per weight version via :meth:`~repro.bnn.layers.BinaryConv2d.prepare`
  (never per call — the pre-plan hot-path bug).
* :meth:`InferencePlan.from_artifact` — lower a deploy artifact via
  :class:`~repro.deploy.ArtifactReader` *without* materialising a model:
  compressed kernel streams are decoded and prepacked on demand, held in
  a bounded :class:`~repro.infer.cache.LruCache` the way the decoding
  unit's scratchpad holds a bounded working set of decoded kernels.

:meth:`InferencePlan.run_batch` then executes the step list over
``(N, C, H, W)`` float inputs in minibatches, which is the batched
serving path the ROADMAP's production-scale story needs.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..bnn.binarize import binarize_bits
from ..bnn.contraction import (
    ContractionTelemetry,
    contract_packed_patches,
    resolve_strategy,
    threshold_pack_patches,
)
from ..bnn.layers import BinaryConv2d, BinaryDense, Layer, RSign
from ..bnn.model import Sequential
from ..bnn.ops import (
    CONTRACTION_STRATEGIES,
    _as_packed_kernel,
    binary_dense_packed,
    bit_signs,
)
from ..bnn.packing import pack_kernel_channels, unpack_bits
from ..deploy import ArtifactReader
from .cache import LruCache

__all__ = [
    "FloatStep",
    "InferencePlan",
    "KernelEntry",
    "PackedConvStep",
    "PackedDenseStep",
    "PlanStep",
]

class KernelEntry:
    """One decoded kernel: prepacked operand + lazy gemm sign matrix.

    The unit the plan's caching policy manages.  ``operand`` is the
    ``(words, num_bits)`` pair the popcount strategy consumes; ``signs``
    lazily unpacks it into the {+1, -1} float32 matrix the gemm
    strategy contracts with (once per entry — the same hoist
    ``prepare()`` gives the packed words).  Because the sign matrix
    lives *on* the entry, whatever owns the entry bounds it too: an
    artifact plan's LRU eviction drops both representations together,
    and a model plan's per-layer memo ties both to the weight version.
    """

    __slots__ = ("operand", "_signs", "__weakref__")

    def __init__(self, operand: Tuple[np.ndarray, int]) -> None:
        self.operand = operand
        self._signs: Optional[np.ndarray] = None

    def signs(self) -> np.ndarray:
        """The position-major {+1, -1} weight matrix, built on first use."""
        if self._signs is None:
            words, num_bits = self.operand
            self._signs = bit_signs(unpack_bits(words, num_bits))
        return self._signs


#: provider of a cached :class:`KernelEntry`
KernelSource = Callable[[], KernelEntry]


class _LayerKernelSource:
    """Adapter from a layer's ``prepare()`` to the entry contract.

    Keyed on the identity of the packed-words array ``prepare()``
    returns: a weight replacement (optimiser step, ``set_weight_bits``)
    yields a new words array and transparently invalidates the entry —
    sign matrix included.
    """

    def __init__(self, prepare: Callable[[], Tuple[np.ndarray, int]]) -> None:
        self.prepare = prepare
        self._entry: Optional[KernelEntry] = None

    def __call__(self) -> KernelEntry:
        operand = self.prepare()
        if self._entry is None or self._entry.operand[0] is not operand[0]:
            self._entry = KernelEntry(operand)
        return self._entry


class PlanStep:
    """One executable stage of a compiled plan."""

    #: short step family for reports ("packed_conv", "packed_dense", "float")
    kind: str = ""
    #: human-readable detail for ``describe()``
    label: str = ""

    def run(self, x: np.ndarray) -> np.ndarray:
        """Transform one minibatch; inputs/outputs are dense arrays."""
        raise NotImplementedError


class FloatStep(PlanStep):
    """The float glue: delegate to a layer's eval-mode forward.

    Reusing the layer's own forward (rather than re-deriving an affine
    form) is what makes the plan *bit-identical* to the reference path:
    batch norm, RPReLU and the 8-bit ends execute the exact same float32
    operation sequence in both worlds.
    """

    kind = "float"

    def __init__(self, layer: Layer) -> None:
        layer.eval()  # plans always execute inference semantics
        self.layer = layer
        self.label = type(layer).__name__

    def run(self, x: np.ndarray) -> np.ndarray:
        layer = self.layer
        if not layer.training:
            return layer.forward(x)
        # the model was flipped back to training mode since compile
        # (e.g. model.train() between fine-tuning epochs): execute with
        # inference semantics — batch norm must not consume the serving
        # batch's statistics or corrupt its running buffers — but leave
        # the mode as we found it so training continues unaffected
        layer.eval()
        try:
            return layer.forward(x)
        finally:
            layer.train()


class PackedConvStep(PlanStep):
    """Fused sign/threshold + bit-packed binary convolution.

    ``shift`` is the preceding RSign's per-channel threshold (``None``
    for a bare binary conv, whose {+1, -1} input contract makes the
    threshold zero).  The threshold lowers *directly* into packed patch
    words via :func:`~repro.bnn.contraction.threshold_pack_patches` —
    one ``x >= shift`` comparison, no ``x - shift`` float intermediate
    and no full {0, 1} uint8 patch tensor.  The kernel operand comes
    from ``source`` — either a live layer's
    :meth:`~repro.bnn.layers.BinaryConv2d.prepare` or an artifact
    plan's LRU-cached decode — so channel packing is hoisted out of the
    per-call path.  ``threads`` fans the contraction out over the
    shared tile pool; ``telemetry`` accumulates per-strategy tile and
    timing counters for :meth:`InferencePlan.contraction_stats`.
    """

    kind = "packed_conv"

    def __init__(
        self,
        source: KernelSource,
        stride: int,
        padding: int,
        shift: Optional[np.ndarray] = None,
        out_channel_chunk: int = 64,
        strategy: str = "gemm",
        kernel_size: Optional[int] = None,
        label: str = "BinaryConv2d",
        threads: Optional[int] = None,
    ) -> None:
        # validate the strategy/threads combination at compile time
        self.base_strategy, self.threads = resolve_strategy(
            strategy, threads, CONTRACTION_STRATEGIES
        )
        self.source = source
        self.stride = stride
        self.padding = padding
        self.shift = None if shift is None else np.asarray(shift, np.float32)
        self.out_channel_chunk = out_channel_chunk
        self.strategy = strategy
        self.kernel_size = kernel_size
        self.label = label
        self.telemetry = ContractionTelemetry()

    def run(self, x: np.ndarray) -> np.ndarray:
        entry = self.source()
        w_words, num_bits, _, kernel = _as_packed_kernel(
            entry.operand, x.shape[1], self.kernel_size
        )
        patch_words, patch_bits = threshold_pack_patches(
            x, self.shift, kernel, self.stride, self.padding
        )
        if patch_bits != num_bits:
            raise AssertionError("kernel/patch bit count mismatch")
        out = contract_packed_patches(
            patch_words,
            w_words,
            num_bits,
            self.base_strategy,
            self.threads,
            self.out_channel_chunk,
            kernel_signs=(
                entry.signs() if self.base_strategy == "gemm" else None
            ),
            telemetry=self.telemetry,
        )
        return out.transpose(0, 3, 1, 2).astype(np.float32)


class PackedDenseStep(PlanStep):
    """Bit-packed binary dense layer over {+1, -1} inputs."""

    kind = "packed_dense"

    def __init__(
        self,
        source: KernelSource,
        strategy: str = "gemm",
        label: str = "BinaryDense",
        threads: Optional[int] = None,
    ) -> None:
        self.base_strategy, self.threads = resolve_strategy(
            strategy, threads, CONTRACTION_STRATEGIES
        )
        self.source = source
        self.strategy = strategy
        self.label = label
        self.telemetry = ContractionTelemetry()

    def run(self, x: np.ndarray) -> np.ndarray:
        entry = self.source()
        return binary_dense_packed(
            binarize_bits(x),
            entry.operand,
            strategy=self.base_strategy,
            weight_signs=(
                entry.signs() if self.base_strategy == "gemm" else None
            ),
            threads=self.threads,
            telemetry=self.telemetry,
        ).astype(np.float32)


class InferencePlan:
    """A compiled, batched serving plan for one BNN.

    Build with :meth:`from_model` or :meth:`from_artifact`; execute with
    :meth:`run_batch`.  ``kernel_cache`` is the artifact plan's decoded
    kernel LRU (``None`` for model-backed plans, whose layers own their
    packed kernels).
    """

    def __init__(
        self,
        steps: Sequence[PlanStep],
        name: str = "model",
        kernel_cache: Optional[LruCache] = None,
        reader: Optional[ArtifactReader] = None,
    ) -> None:
        self.steps: List[PlanStep] = list(steps)
        self.name = name
        self.kernel_cache = kernel_cache
        self.reader = reader

    def fetch_stats(self) -> Optional[Dict]:
        """Store fetch counters of the plan's backing reader.

        Non-``None`` only for store-ref artifact plans (see
        :meth:`ArtifactReader.fetch_stats
        <repro.deploy.ArtifactReader.fetch_stats>`): the number of
        distinct layer blobs this plan has faulted in so far plus the
        blob-store media counters.  Serving surfaces it per tenant, so a
        fleet worker's lazy-shard footprint is observable.
        """
        if self.reader is None:
            return None
        return self.reader.fetch_stats()

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    @classmethod
    def from_model(
        cls,
        model: Sequential,
        out_channel_chunk: int = 64,
        strategy: str = "gemm",
        threads: Optional[int] = None,
    ) -> "InferencePlan":
        """Lower a live model into a packed plan.

        Every ``RSign -> BinaryConv2d`` pair fuses into one
        :class:`PackedConvStep`; bare binary conv/dense layers lower with
        a zero threshold (their documented {+1, -1} input contract);
        everything else — including residual wrappers — stays on the
        layer's own forward.  Compiling puts the model in inference
        mode.  Kernel packing happens lazily through each layer's
        ``prepare()`` cache, so a plan stays consistent when the
        optimiser replaces latent weights.
        """
        steps: List[PlanStep] = []
        layers = list(model.layers)
        index = 0
        while index < len(layers):
            layer = layers[index]
            successor = layers[index + 1] if index + 1 < len(layers) else None
            if isinstance(layer, RSign) and isinstance(successor, BinaryConv2d):
                steps.append(
                    cls._conv_step(
                        successor,
                        shift=layer.params["shift"],
                        out_channel_chunk=out_channel_chunk,
                        strategy=strategy,
                        threads=threads,
                    )
                )
                layer.eval()
                successor.eval()
                index += 2
            elif isinstance(layer, BinaryConv2d):
                steps.append(
                    cls._conv_step(
                        layer,
                        shift=None,
                        out_channel_chunk=out_channel_chunk,
                        strategy=strategy,
                        threads=threads,
                    )
                )
                layer.eval()
                index += 1
            elif isinstance(layer, BinaryDense):
                steps.append(
                    PackedDenseStep(
                        _LayerKernelSource(layer.prepare),
                        strategy=strategy,
                        threads=threads,
                        label=(
                            f"BinaryDense {layer.in_features}"
                            f"->{layer.out_features}"
                        ),
                    )
                )
                layer.eval()
                index += 1
            else:
                steps.append(FloatStep(layer))
                index += 1
        return cls(steps, name=model.name)

    @staticmethod
    def _conv_step(
        conv: BinaryConv2d,
        shift: Optional[np.ndarray],
        out_channel_chunk: int,
        strategy: str,
        threads: Optional[int] = None,
    ) -> PackedConvStep:
        label = (
            f"BinaryConv2d {conv.in_channels}->{conv.out_channels} "
            f"k{conv.kernel_size} s{conv.stride}"
        )
        return PackedConvStep(
            _LayerKernelSource(conv.prepare),
            stride=conv.stride,
            padding=conv.padding,
            shift=shift,
            out_channel_chunk=out_channel_chunk,
            strategy=strategy,
            kernel_size=conv.kernel_size,
            label=label,
            threads=threads,
        )

    @classmethod
    def from_artifact(
        cls,
        path,
        cache_size: Optional[int] = None,
        out_channel_chunk: int = 64,
        strategy: str = "gemm",
        threads: Optional[int] = None,
    ) -> "InferencePlan":
        """Lower a deploy artifact straight into a serving plan.

        ``path`` is a monolithic ``.npz`` file, a ``<store-dir>#<name>``
        ref into a sharded :class:`~repro.store.ArtifactStore` (blobs
        are then fetched lazily — a worker decodes only the layers it
        executes), or an already-open
        :class:`~repro.deploy.ArtifactReader`.

        Binary conv entries become packed steps whose kernel operands
        are decoded from the stored streams *on demand* and kept in an
        LRU cache (the gemm strategy's sign matrix rides in the same
        cache entry, so eviction bounds both representations; per-key
        build locks let concurrent workers decode different layers in
        parallel).  ``cache_size=None`` sizes the cache to the plan's
        binary-conv count, so each layer decodes exactly once — for the
        registered ``reactnet`` model that holds ~113 MB of float32 sign
        matrices plus ~3.5 MB of packed words; an explicit
        ``cache_size=N`` bounds that memory and re-decodes evicted
        layers on their next use.  The float glue is rebuilt
        through :class:`~repro.deploy.ArtifactReader` exactly as
        :func:`~repro.deploy.load_compressed_model` would, so the plan's
        logits match the reloaded model's reference forward bit for bit.
        """
        reader = path if isinstance(path, ArtifactReader) else ArtifactReader(path)
        entries = reader.entries
        if cache_size is None:
            cache_size = max(
                1, sum(entry["type"] == "BinaryConv2d" for entry in entries)
            )
        cache = LruCache(maxsize=cache_size)
        steps: List[PlanStep] = []
        index = 0
        while index < len(entries):
            entry = entries[index]
            successor = (
                entries[index + 1] if index + 1 < len(entries) else None
            )
            if (
                entry["type"] == "RSign"
                and successor is not None
                and successor["type"] == "BinaryConv2d"
            ):
                shift = reader.arrays[
                    f"{reader.key(entry)}.shift"
                ].astype(np.float32)
                steps.append(
                    cls._artifact_conv_step(
                        reader, cache, successor, shift,
                        out_channel_chunk, strategy, threads,
                    )
                )
                index += 2
            elif entry["type"] == "BinaryConv2d":
                steps.append(
                    cls._artifact_conv_step(
                        reader, cache, entry, None,
                        out_channel_chunk, strategy, threads,
                    )
                )
                index += 1
            else:
                steps.append(FloatStep(reader.rebuild_layer(entry)))
                index += 1
        return cls(steps, name=reader.name, kernel_cache=cache, reader=reader)

    @staticmethod
    def _artifact_conv_step(
        reader: ArtifactReader,
        cache: LruCache,
        entry: Dict,
        shift: Optional[np.ndarray],
        out_channel_chunk: int,
        strategy: str,
        threads: Optional[int] = None,
    ) -> PackedConvStep:
        config = entry["config"]
        layer_index = entry["index"]

        def decode_and_pack() -> KernelEntry:
            return KernelEntry(
                pack_kernel_channels(reader.kernel_bits(entry))
            )

        def source() -> KernelEntry:
            return cache.get(layer_index, decode_and_pack)

        label = (
            f"BinaryConv2d {config['in_channels']}->{config['out_channels']} "
            f"k{config['kernel_size']} s{config['stride']} "
            f"[{entry['storage']}]"
        )
        return PackedConvStep(
            source,
            stride=config["stride"],
            padding=config["padding"],
            shift=shift,
            out_channel_chunk=out_channel_chunk,
            strategy=strategy,
            kernel_size=config["kernel_size"],
            label=label,
            threads=threads,
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_batch(
        self, x: np.ndarray, batch_size: Optional[int] = None
    ) -> np.ndarray:
        """Run ``(N, ...)`` inputs through the plan, in minibatches.

        ``batch_size=None`` executes the whole array as one batch;
        otherwise inputs are split into chunks of ``batch_size`` and the
        outputs concatenated, which bounds the im2col working set for
        large serving batches.

        Bit-identity contract: each chunk's logits equal the reference
        ``model.forward`` run on that same chunk, bit for bit.  (The
        float oracle itself is not guaranteed batch-size-invariant —
        BLAS may block a GEMM differently per batch shape — so the
        oracle is always "the reference at the same minibatching".)
        """
        x = np.asarray(x, dtype=np.float32)
        if x.ndim < 2:
            raise ValueError(
                f"expected a batched (N, ...) input, got {x.ndim} dims"
            )
        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if batch_size is None or batch_size >= x.shape[0]:
            return self._run_chunk(x)
        chunks = [
            self._run_chunk(x[offset:offset + batch_size])
            for offset in range(0, x.shape[0], batch_size)
        ]
        return np.concatenate(chunks, axis=0)

    def _run_chunk(self, x: np.ndarray) -> np.ndarray:
        for step in self.steps:
            x = step.run(x)
        return x

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.run_batch(x)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.steps)

    @property
    def num_packed_steps(self) -> int:
        """How many steps run through the bit-packed engine."""
        return sum(1 for step in self.steps if step.kind != "float")

    def describe(self) -> List[Tuple[str, str]]:
        """``(kind, label)`` per step, for reports and the CLI."""
        return [(step.kind, step.label) for step in self.steps]

    def cache_stats(self) -> Optional[Dict[str, Any]]:
        """Decoded-kernel cache counters (``None`` for model plans)."""
        if self.kernel_cache is None:
            return None
        return self.kernel_cache.stats()

    def contraction_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-strategy contraction telemetry, merged across steps.

        ``{strategy: {calls, tiles, threaded_calls, max_threads,
        seconds}}`` — the tile-engine twin of :meth:`fetch_stats`, and
        surfaced per tenant by the serving daemon the same way.
        """
        return ContractionTelemetry.merge(
            [
                step.telemetry.snapshot()
                for step in self.steps
                if isinstance(step, (PackedConvStep, PackedDenseStep))
            ]
        )
