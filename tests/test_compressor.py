"""Tests for the end-to-end kernel compression pipeline (one block)."""

import numpy as np
import pytest

from repro.core.clustering import ClusteringConfig
from repro.core.bitseq import kernel_to_sequences, sequences_to_kernel
from repro.core.pipeline import CompressionPipeline, PipelineConfig


def compress(kernels, **config):
    """One block through the pipeline (simplified codec by default)."""
    return CompressionPipeline(PipelineConfig(**config)).compress_block(
        kernels
    )


def streams(result):
    """The block's hardware streams, as ``deploy`` builds them."""
    return [
        result.codec.to_stream(shape, payload, bit_length)
        for (payload, bit_length), shape in zip(
            result.payloads, result.kernel_shapes
        )
    ]


def stream_kernels(result):
    """Decode every stream back into a kernel bit tensor."""
    return [
        sequences_to_kernel(stream.decode(), stream.shape)
        for stream in streams(result)
    ]


@pytest.fixture()
def skewed_kernel(rng):
    """A kernel whose channels heavily favour sequences 0 and 511."""
    n = 512
    choices = np.concatenate(
        [
            np.zeros(n // 2, dtype=np.int64),
            np.full(n // 4, 511, dtype=np.int64),
            rng.integers(0, 512, n // 4),
        ]
    )
    rng.shuffle(choices)
    return sequences_to_kernel(choices, (16, 32))


class TestCompressBlock:
    def test_empty_block_raises(self):
        with pytest.raises(ValueError):
            compress([])

    def test_roundtrip_without_clustering(self, skewed_kernel):
        result = compress([skewed_kernel])
        assert np.array_equal(result.decode_kernels()[0], skewed_kernel)
        assert np.array_equal(stream_kernels(result)[0], skewed_kernel)

    def test_clustering_changes_kernels_but_roundtrips(self, skewed_kernel):
        result = compress(
            [skewed_kernel],
            clustering=ClusteringConfig(num_common=8, num_rare=300),
        )
        # decoded equals the *clustered* kernel, not necessarily the input
        expected = result.clustering.apply_to_sequences(
            kernel_to_sequences(skewed_kernel)
        )
        for decoded in (result.decode_kernels(), stream_kernels(result)):
            assert np.array_equal(kernel_to_sequences(decoded[0]), expected)

    def test_compression_ratio_above_one_for_skewed(self, skewed_kernel):
        result = compress([skewed_kernel])
        assert result.compression_ratio > 1.0

    def test_clustering_never_hurts_ratio(self, skewed_kernel):
        plain = compress([skewed_kernel])
        clustered = compress(
            [skewed_kernel],
            clustering=ClusteringConfig(num_common=64, num_rare=256),
        )
        assert clustered.compression_ratio >= plain.compression_ratio - 1e-9

    def test_multiple_kernels_share_one_tree(self, skewed_kernel, rng):
        other = np.asarray(skewed_kernel).copy()
        result = compress([skewed_kernel, other])
        first, second = streams(result)
        assert first.node_tables == second.node_tables

    def test_raw_bits_accounting(self, skewed_kernel):
        result = compress([skewed_kernel])
        assert result.raw_bits == 16 * 32 * 9

    def test_compressed_bits_matches_streams(self, skewed_kernel):
        result = compress([skewed_kernel])
        assert result.compressed_bits == sum(
            s.bit_length for s in streams(result)
        )

    def test_effective_table_reflects_clustering(self, skewed_kernel):
        result = compress(
            [skewed_kernel],
            clustering=ClusteringConfig(num_common=64, num_rare=256),
        )
        for source in result.clustering.replacements:
            assert result.effective_table.count(source) == 0

    def test_compress_sequences_convenience(self, rng):
        sequences = rng.integers(0, 512, 64)
        result = compress([sequences_to_kernel(sequences, (8, 8))])
        assert np.array_equal(streams(result)[0].decode(), sequences)

    def test_custom_capacities_flow_through(self, skewed_kernel):
        result = compress(
            [skewed_kernel], codec_params={"capacities": (256, 256)}
        )
        # 1-bit prefix (0 / 1) + 8-bit table index
        assert result.codec.tree.layout.code_lengths == (9, 9)

    def test_non_4d_kernel_rejected(self):
        with pytest.raises(ValueError, match="must be 4-D"):
            compress([np.zeros((4, 9), dtype=np.uint8)])

    def test_non_3x3_kernel_rejected(self):
        with pytest.raises(ValueError, match="3x3"):
            compress([np.zeros((2, 2, 1, 1), dtype=np.uint8)])

    def test_paper_configuration_on_synthetic_block(self, reactnet_kernels):
        """Block 12 (most skewed) compresses > 1.2x with clustering."""
        result = compress(
            [reactnet_kernels[12]],
            clustering=ClusteringConfig(num_common=64, num_rare=256),
        )
        assert result.compression_ratio > 1.2


class TestCompressionRatioDegenerateCases:
    """Regression: zero compressed bits with a real payload is inf, not 1."""

    def test_zero_compressed_nonzero_raw_is_inf(self, skewed_kernel):
        result = compress([skewed_kernel])
        result.payloads = [(b"", 0) for _ in result.payloads]
        assert result.raw_bits > 0
        assert result.compression_ratio == float("inf")

    def test_zero_raw_and_zero_compressed_is_one(self, skewed_kernel):
        from repro.core.frequency import FrequencyTable
        from repro.core.bitseq import NUM_SEQUENCES

        result = compress([skewed_kernel])
        result.effective_table = FrequencyTable(
            np.zeros(NUM_SEQUENCES, dtype=np.int64)
        )
        result.payloads = []
        assert result.raw_bits == 0
        assert result.compression_ratio == 1.0

    def test_normal_ratio_unchanged(self, skewed_kernel):
        result = compress([skewed_kernel])
        assert result.compression_ratio == (
            result.raw_bits / result.compressed_bits
        )
