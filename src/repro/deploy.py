"""Deployment artifacts: save / load a compressed BNN as one file.

This is the end-to-end flow a user of the paper's scheme needs: take a
trained model, compress every 3x3 binary kernel per block (optionally
with clustering), store everything at deployed precision — compressed
streams for the 3x3 kernels, bit-packed 1x1 kernels, 8-bit stem/head
weights, 32-bit normalisation parameters — and reload it into a runnable
model whose 3x3 kernels are recovered through the real decoder.

The container is a numpy ``.npz`` with a JSON manifest describing each
layer, so artifacts are portable and inspectable.  ``artifact_report``
compares the artifact's on-device footprint against the uncompressed
deployment, reproducing the paper's model-level 1.2x at file level.

Artifacts also have a *sharded* form: passing a
``<store-dir>#<name>`` ref (see :mod:`repro.store`) to
:func:`save_compressed_model` publishes each layer as one
content-addressed blob plus a manifest, and :class:`ArtifactReader`
accepts the same ref, fetching layer blobs lazily so a worker reads
only the layers it executes.  Both forms carry the identical manifest
schema and decode bit-identically.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .bnn.layers import (
    AvgPool2d,
    BatchNorm2d,
    BinaryConv2d,
    Flatten,
    Layer,
    QuantConv2d,
    QuantDense,
    RPReLU,
    RSign,
)
from .bnn.model import Sequential
from .core.bitseq import sequences_to_kernel
from .core.clustering import ClusteringConfig
from .core.codec import SimplifiedTreeCodec
from .core.pipeline import CompressionPipeline, PipelineConfig
from .core.streams import CompressedKernel
from .store.blobs import StoreRef
from .bnn.quantize import dequantize_tensor, quantize_tensor, QuantizedTensor

__all__ = [
    "save_compressed_model",
    "load_compressed_model",
    "artifact_report",
    "ArtifactReader",
    "ArtifactReport",
]

#: v1 predates the codec registry (implicit simplified tree); v2 records
#: the codec name and parameters in the manifest.  Loading accepts both.
_FORMAT_VERSION = 2
_SUPPORTED_VERSIONS = (1, 2)


def _pack_bit_tensor(bits: np.ndarray) -> Tuple[np.ndarray, List[int]]:
    """Flatten a {0,1} tensor into packed bytes plus its shape."""
    flat = np.asarray(bits, dtype=np.uint8).reshape(-1)
    return np.packbits(flat), list(bits.shape)


def _unpack_bit_tensor(packed: np.ndarray, shape: List[int]) -> np.ndarray:
    """Inverse of :func:`_pack_bit_tensor`."""
    count = int(np.prod(shape))
    bits = np.unpackbits(packed)[:count]
    return bits.reshape(shape)


def _serialise_model(
    model: Sequential,
    clustering: Optional[ClusteringConfig] = None,
    codec: str = "simplified",
    codec_params: Optional[Dict] = None,
) -> Tuple[Dict, Dict[str, np.ndarray]]:
    """Lower ``model`` to its artifact form: ``(header, arrays)``.

    The shared serialisation substrate under both artifact containers:
    the monolithic ``.npz`` writes ``arrays`` plus the JSON ``header``
    as one file, the sharded store packs each layer's arrays into a
    content-addressed blob and records the header as a manifest.
    """
    config = PipelineConfig(
        codec=codec, codec_params=dict(codec_params or {}),
        clustering=clustering,
    )
    pipeline = CompressionPipeline(config)
    manifest: List[Dict] = []
    arrays: Dict[str, np.ndarray] = {}

    for index, layer in enumerate(model.layers):
        key = f"layer{index}"
        entry: Dict = {"index": index, "type": type(layer).__name__}
        if isinstance(layer, BinaryConv2d) and layer.kernel_size == 3:
            result = pipeline.compress_block([layer.binary_weight_bits()])
            fitted = result.codec
            if not isinstance(fitted, SimplifiedTreeCodec):
                raise ValueError(
                    f"codec {codec!r} has no decoder tree; artifacts store "
                    "hardware-decodable streams (use a tree-based codec)"
                )
            payload, bit_length = result.payloads[0]
            stream = fitted.to_stream(
                result.kernel_shapes[0], payload, bit_length
            )
            blob = stream.to_bytes()
            arrays[f"{key}.stream"] = np.frombuffer(blob, dtype=np.uint8)
            entry["config"] = {
                "in_channels": layer.in_channels,
                "out_channels": layer.out_channels,
                "kernel_size": layer.kernel_size,
                "stride": layer.stride,
                "padding": layer.padding,
            }
            entry["storage"] = "compressed3x3"
        elif isinstance(layer, BinaryConv2d):
            packed, shape = _pack_bit_tensor(layer.binary_weight_bits())
            arrays[f"{key}.bits"] = packed
            entry["bit_shape"] = shape
            entry["config"] = {
                "in_channels": layer.in_channels,
                "out_channels": layer.out_channels,
                "kernel_size": layer.kernel_size,
                "stride": layer.stride,
                "padding": layer.padding,
            }
            entry["storage"] = "packed_binary"
        elif isinstance(layer, (QuantConv2d, QuantDense)):
            quantised = quantize_tensor(
                layer.params["weight"], layer.weight_bits
            )
            arrays[f"{key}.qweight"] = quantised.values
            arrays[f"{key}.bias"] = layer.params["bias"]
            entry["scale"] = quantised.scale
            entry["zero_point"] = quantised.zero_point
            if isinstance(layer, QuantConv2d):
                entry["config"] = {
                    "in_channels": layer.in_channels,
                    "out_channels": layer.out_channels,
                    "kernel_size": layer.kernel_size,
                    "stride": layer.stride,
                    "padding": layer.padding,
                    "weight_bits": layer.weight_bits,
                }
            else:
                entry["config"] = {
                    "in_features": layer.in_features,
                    "out_features": layer.out_features,
                    "weight_bits": layer.weight_bits,
                }
            entry["storage"] = "quantised"
        elif isinstance(layer, BatchNorm2d):
            arrays[f"{key}.gamma"] = layer.params["gamma"]
            arrays[f"{key}.beta"] = layer.params["beta"]
            arrays[f"{key}.running_mean"] = layer.running_mean
            arrays[f"{key}.running_var"] = layer.running_var
            entry["config"] = {"channels": layer.channels}
            entry["storage"] = "float32"
        elif isinstance(layer, (RSign, RPReLU)):
            for name, value in layer.params.items():
                arrays[f"{key}.{name}"] = value
            entry["config"] = {"channels": layer.channels}
            entry["storage"] = "float32"
        elif isinstance(layer, (AvgPool2d, Flatten)):
            entry["config"] = {}
            entry["storage"] = "stateless"
        else:
            raise TypeError(
                f"cannot serialise layer of type {type(layer).__name__}"
            )
        manifest.append(entry)

    header = {
        "format_version": _FORMAT_VERSION,
        "name": model.name,
        "clustered": clustering is not None,
        "codec": {
            "name": config.codec,
            "params": {
                k: list(v) if isinstance(v, tuple) else v
                for k, v in dict(config.codec_params).items()
            },
        },
        "layers": manifest,
    }
    if clustering is not None:
        header["clustering"] = {
            "num_common": clustering.num_common,
            "num_rare": clustering.num_rare,
            "max_distance": clustering.max_distance,
        }
    return header, arrays


def save_compressed_model(
    model: Sequential,
    path,
    clustering: Optional[ClusteringConfig] = None,
    codec: str = "simplified",
    codec_params: Optional[Dict] = None,
) -> Optional[StoreRef]:
    """Serialise ``model`` at deployed precision into ``path``.

    All 3x3 binary convolutions are compressed through one
    :class:`~repro.core.pipeline.CompressionPipeline` per conv (each conv
    is one "block" in the paper's sense); 1x1 binary kernels are
    bit-packed; 8-bit layers are actually quantised; everything else is
    stored as float32.  The codec and its parameters are recorded in the
    artifact manifest.  Only tree-based codecs can be serialised — the
    stream container is the hardware decoder's configuration structure.

    ``path`` is either an ``.npz`` file path (the monolithic container)
    or a ``<store-dir>#<name>`` ref, in which case the model is
    published *sharded* into that :class:`~repro.store.ArtifactStore` —
    one content-addressed blob per layer, deduplicated against whatever
    the store already holds — and the resulting ref is returned.
    """
    header, arrays = _serialise_model(
        model, clustering=clustering, codec=codec, codec_params=codec_params
    )
    ref = StoreRef.coerce(path)
    if ref is not None:
        from .store import ArtifactStore

        return ArtifactStore(ref.root).put_model(
            header, arrays, name=ref.name
        )
    arrays = dict(arrays)
    arrays["manifest"] = np.frombuffer(
        json.dumps(header).encode("utf-8"), dtype=np.uint8
    )
    np.savez(path, **arrays)


def _kernel_bits(entry: Dict, arrays, key: str) -> np.ndarray:
    """Decode one binary conv entry to its kernel bit tensor.

    ``compressed3x3`` entries run through the real stream decoder;
    ``packed_binary`` entries are unpacked from their bit container.
    """
    storage = entry.get("storage")
    if storage == "compressed3x3":
        stream = CompressedKernel.from_bytes(arrays[f"{key}.stream"].tobytes())
        return sequences_to_kernel(stream.decode(), stream.shape)
    if storage == "packed_binary":
        return _unpack_bit_tensor(arrays[f"{key}.bits"], entry["bit_shape"])
    raise ValueError(
        f"layer {entry['index']} is not a binary conv entry "
        f"(storage={storage!r})"
    )


def _rebuild_layer(entry: Dict, arrays, key: str) -> Layer:
    """Instantiate one layer from its manifest entry and stored arrays."""
    layer_type = entry["type"]
    config = entry.get("config", {})
    if layer_type == "BinaryConv2d":
        layer = BinaryConv2d(**config)
        layer.set_weight_bits(_kernel_bits(entry, arrays, key))
        return layer
    if layer_type == "QuantConv2d":
        layer = QuantConv2d(**config)
    elif layer_type == "QuantDense":
        layer = QuantDense(**config)
    elif layer_type == "BatchNorm2d":
        layer = BatchNorm2d(**config)
        layer.params["gamma"] = arrays[f"{key}.gamma"].astype(np.float32)
        layer.params["beta"] = arrays[f"{key}.beta"].astype(np.float32)
        layer.running_mean = arrays[f"{key}.running_mean"].astype(np.float32)
        layer.running_var = arrays[f"{key}.running_var"].astype(np.float32)
        return layer
    elif layer_type == "RSign":
        layer = RSign(**config)
        layer.params["shift"] = arrays[f"{key}.shift"].astype(np.float32)
        return layer
    elif layer_type == "RPReLU":
        layer = RPReLU(**config)
        for name in ("slope", "shift_in", "shift_out"):
            layer.params[name] = arrays[f"{key}.{name}"].astype(np.float32)
        return layer
    elif layer_type == "AvgPool2d":
        return AvgPool2d()
    elif layer_type == "Flatten":
        return Flatten()
    else:
        raise TypeError(f"unknown layer type in manifest: {layer_type}")

    # shared tail for the two quantised layer types
    quantised = QuantizedTensor(
        values=arrays[f"{key}.qweight"],
        scale=float(entry["scale"]),
        zero_point=int(entry["zero_point"]),
    )
    layer.params["weight"] = dequantize_tensor(quantised)
    layer.params["bias"] = arrays[f"{key}.bias"].astype(np.float32)
    return layer


class ArtifactReader:
    """Random-access view of one deploy artifact.

    The shared substrate under :func:`load_compressed_model` (which
    rebuilds a whole runnable model eagerly),
    :meth:`repro.infer.plan.InferencePlan.from_artifact` (which lowers
    the artifact into a batched serving plan, decoding compressed kernel
    streams lazily) and :func:`artifact_report`.  The manifest is
    validated once here; per-layer accessors then work off the array
    mapping.

    ``source`` is a monolithic ``.npz`` path (arrays loaded eagerly) or
    a ``<store-dir>#<name>`` ref / :class:`~repro.store.StoreRef` into a
    sharded :class:`~repro.store.ArtifactStore`, in which case the array
    mapping is *lazy*: indexing an array mmap-faults in only that
    layer's blob, so a reader that touches three layers reads three
    blobs.
    """

    def __init__(self, source) -> None:
        ref = StoreRef.coerce(source)
        if ref is not None:
            from .store import ArtifactStore, ShardedArrays

            store = ArtifactStore(ref.root, create=False)
            self.header: Dict = store.manifest(ref.name)
            self.arrays = ShardedArrays(store.blobs, self.header)
        else:
            with np.load(source) as arrays:
                self.arrays: Dict[str, np.ndarray] = {
                    name: arrays[name] for name in arrays.files
                }
            self.header = json.loads(
                bytes(self.arrays["manifest"]).decode("utf-8")
            )
        self.source = source
        if self.header["format_version"] not in _SUPPORTED_VERSIONS:
            raise ValueError(
                f"unsupported artifact version {self.header['format_version']}"
            )

    @property
    def name(self) -> str:
        """The serialised model's name."""
        return self.header.get("name", "model")

    @property
    def entries(self) -> List[Dict]:
        """The manifest's layer entries, in model order."""
        return self.header["layers"]

    @staticmethod
    def key(entry: Dict) -> str:
        """Array-name prefix of one manifest entry."""
        return f"layer{entry['index']}"

    def array_names(self, entry: Dict) -> List[str]:
        """Names of the arrays stored for one manifest entry."""
        key = self.key(entry)
        if "fields" in entry:  # sharded manifests list fields explicitly
            return [f"{key}.{name}" for name in entry["fields"]]
        prefix = f"{key}."
        return [name for name in self.arrays if name.startswith(prefix)]

    def fetch_stats(self) -> Optional[Dict]:
        """Store I/O counters for sharded readers, ``None`` for eager ones.

        A store-ref reader reports how many distinct blobs it has
        materialised (:attr:`~repro.store.ShardedArrays.fetched_blobs`)
        plus the underlying :meth:`~repro.store.blobs.BlobStore.stats`
        media counters — the observable footprint of lazy fetching.  A
        monolithic ``.npz`` reader loads everything up front, so there
        is nothing to count and this returns ``None``.
        """
        fetched = getattr(self.arrays, "fetched_blobs", None)
        if fetched is None:
            return None
        return {"fetched_blobs": fetched, **self.arrays.blobs.stats()}

    def stream_blob(self, entry: Dict) -> bytes:
        """Raw compressed-stream bytes of a ``compressed3x3`` entry."""
        if entry.get("storage") != "compressed3x3":
            raise ValueError(
                f"layer {entry['index']} has no compressed stream "
                f"(storage={entry.get('storage')!r})"
            )
        return self.arrays[f"{self.key(entry)}.stream"].tobytes()

    def kernel_bits(self, entry: Dict) -> np.ndarray:
        """Decode one binary conv entry to its kernel bit tensor.

        ``compressed3x3`` entries run through the real stream decoder;
        ``packed_binary`` entries are unpacked from their bit container.
        This is the same decode :meth:`rebuild_layer` installs.
        """
        return _kernel_bits(entry, self.arrays, self.key(entry))

    def rebuild_layer(self, entry: Dict) -> Layer:
        """Instantiate one layer (streams decoded eagerly)."""
        return _rebuild_layer(entry, self.arrays, self.key(entry))

    def rebuild_model(self) -> Sequential:
        """Rebuild the whole model in inference mode."""
        model = Sequential(
            [self.rebuild_layer(entry) for entry in self.entries],
            name=self.name,
        )
        model.eval()
        return model


def load_compressed_model(path) -> Sequential:
    """Reload an artifact produced by :func:`save_compressed_model`.

    The 3x3 kernels come back through the real stream decoder, so the
    loaded model is bit-exact with the (possibly clustered) deployed one.
    """
    return ArtifactReader(path).rebuild_model()


@dataclass(frozen=True)
class ArtifactReport:
    """Deployed-footprint accounting of one artifact."""

    compressed_payload_bits: int
    uncompressed_payload_bits: int
    other_bits: int

    @property
    def payload_ratio(self) -> float:
        """3x3-kernel payload compression ratio inside the artifact."""
        if self.compressed_payload_bits == 0:
            return 1.0
        return self.uncompressed_payload_bits / self.compressed_payload_bits

    @property
    def model_ratio(self) -> float:
        """Whole-artifact ratio against an uncompressed deployment."""
        compressed_total = self.compressed_payload_bits + self.other_bits
        baseline_total = self.uncompressed_payload_bits + self.other_bits
        if compressed_total == 0:
            return 1.0
        return baseline_total / compressed_total


def artifact_report(path) -> ArtifactReport:
    """Measure an artifact's 3x3 payload against its uncompressed size.

    Routed through :class:`ArtifactReader` so the manifest is format-
    validated first — an unsupported-version artifact raises instead of
    silently yielding a report — and so monolithic ``.npz`` files and
    sharded store refs report identically.
    """
    reader = ArtifactReader(path)
    compressed_bits = 0
    uncompressed_bits = 0
    other_bits = 0
    for entry in reader.entries:
        key = reader.key(entry)
        storage = entry.get("storage")
        if storage == "compressed3x3":
            stream = CompressedKernel.from_bytes(reader.stream_blob(entry))
            compressed_bits += stream.bit_length
            # node tables ride in the decoding unit's scratchpad
            compressed_bits += sum(
                len(t) * 16 for t in stream.node_tables
            )
            uncompressed_bits += stream.raw_bits
        elif storage == "packed_binary":
            other_bits += int(np.prod(entry["bit_shape"]))
        elif storage == "quantised":
            other_bits += reader.arrays[f"{key}.qweight"].size * 8
            other_bits += reader.arrays[f"{key}.bias"].size * 32
        elif storage == "float32":
            for name in reader.array_names(entry):
                other_bits += reader.arrays[name].size * 32
    return ArtifactReport(
        compressed_payload_bits=compressed_bits,
        uncompressed_payload_bits=uncompressed_bits,
        other_bits=other_bits,
    )
