"""Quickstart: compress one block of binary 3x3 kernels.

Demonstrates the core pipeline of the paper on synthetic ReActNet-like
kernels: frequency analysis (Sec. III-A), the simplified Huffman tree
(Sec. III-B), the clustering pass (Sec. III-C), and a verified
decompression roundtrip.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.core import (
    ClusteringConfig,
    CompressionPipeline,
    FrequencyTable,
    PipelineConfig,
    kernel_to_sequences,
)
from repro.synth import generate_reactnet_kernels


def main() -> None:
    # A block of binary 3x3 kernels with ReActNet-like statistics
    # (block 5: 256 input channels, 256 output channels).
    kernels = generate_reactnet_kernels(seed=42)
    kernel = kernels[5]
    print(f"kernel shape: {kernel.shape}  ({kernel.shape[0] * kernel.shape[1]}"
          " bit sequences of 9 bits each)")

    # --- Sec. III-A: the distribution is highly skewed
    table = FrequencyTable.from_kernels([kernel])
    print(f"distinct sequences used: {table.num_used()} / 512")
    print(f"all-zeros + all-ones share: {table.uniform_share():.1%}")
    print(f"top-64 share: {table.top_share(64):.1%}"
          f"   top-256 share: {table.top_share(256):.1%}")
    print(f"entropy: {table.entropy_bits():.2f} bits/sequence (raw: 9)")

    # --- Sec. III-B: encoding only
    plain = CompressionPipeline(PipelineConfig())  # the simplified tree
    encoded = plain.compress_block([kernel])
    print(f"\nencoding-only compression ratio: "
          f"{encoded.compression_ratio:.2f}x")
    print(f"code lengths per tree node: "
          f"{encoded.codec.tree.layout.code_lengths}")

    # --- Sec. III-C: clustering then encoding
    clustered = CompressionPipeline(PipelineConfig(
        clustering=ClusteringConfig(num_common=64, num_rare=256)
    ))
    result = clustered.compress_block([kernel])
    print(f"with clustering: {result.compression_ratio:.2f}x "
          f"({result.clustering.num_replaced} rare sequences replaced)")

    # --- roundtrip: the hardware stream decodes to the (clustered)
    # kernel exactly
    (payload, bit_length), = result.payloads
    stream = result.codec.to_stream(kernel.shape[:2], payload, bit_length)
    expected = result.clustering.apply_to_sequences(
        kernel_to_sequences(kernel)
    )
    assert np.array_equal(stream.decode(), expected)
    print("\nroundtrip verified: decoded kernel matches bit-for-bit")


if __name__ == "__main__":
    main()
