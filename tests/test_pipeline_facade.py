"""Tests for the model-level CompressionPipeline facade."""

import numpy as np
import pytest

from repro.core.bitseq import kernel_to_sequences, sequences_to_kernel
from repro.core.clustering import ClusteringConfig
from repro.core.codec import available_codecs
from repro.core.pipeline import (
    CompressionPipeline,
    PipelineConfig,
    validate_kernel,
)


@pytest.fixture()
def skewed_kernel(rng):
    choices = np.concatenate(
        [
            np.zeros(256, dtype=np.int64),
            np.full(128, 511, dtype=np.int64),
            rng.integers(0, 512, 128),
        ]
    )
    rng.shuffle(choices)
    return sequences_to_kernel(choices, (16, 32))


class TestConfig:
    def test_defaults(self):
        config = PipelineConfig()
        assert config.codec == "simplified"
        assert config.clustering is None
        assert not config.merge_blocks

    def test_make_codec_uses_params(self):
        config = PipelineConfig(
            codec="simplified", codec_params={"capacities": (256, 256)}
        )
        assert config.make_codec().capacities == (256, 256)

    def test_unknown_codec_surfaces_at_make(self):
        with pytest.raises(KeyError):
            PipelineConfig(codec="nope").make_codec()


class TestCompressBlock:
    def test_empty_block_raises(self):
        with pytest.raises(ValueError):
            CompressionPipeline().compress_block([])

    def test_non_4d_kernel_rejected(self):
        with pytest.raises(ValueError, match="must be 4-D"):
            CompressionPipeline().compress_block(
                [np.zeros((4, 3, 3), dtype=np.uint8)]
            )

    def test_wrong_spatial_dims_rejected(self):
        with pytest.raises(ValueError, match="3x3"):
            CompressionPipeline().compress_block(
                [np.zeros((4, 4, 5, 5), dtype=np.uint8)]
            )

    def test_offending_kernel_index_reported(self, skewed_kernel):
        with pytest.raises(ValueError, match="kernel 1"):
            CompressionPipeline().compress_block(
                [skewed_kernel, np.zeros((2, 2), dtype=np.uint8)]
            )

    @pytest.mark.parametrize("name", available_codecs())
    def test_roundtrip_any_codec(self, name, skewed_kernel):
        pipeline = CompressionPipeline(PipelineConfig(codec=name))
        result = pipeline.compress_block([skewed_kernel])
        assert np.array_equal(result.decode_kernels()[0], skewed_kernel)

    @pytest.mark.parametrize("name", available_codecs())
    def test_roundtrip_with_clustering(self, name, skewed_kernel):
        pipeline = CompressionPipeline(
            PipelineConfig(
                codec=name,
                clustering=ClusteringConfig(num_common=16, num_rare=200),
            )
        )
        result = pipeline.compress_block([skewed_kernel])
        expected = result.clustering.apply_to_sequences(
            kernel_to_sequences(skewed_kernel)
        )
        decoded = kernel_to_sequences(result.decode_kernels()[0])
        assert np.array_equal(decoded, expected)


class TestCompressModel:
    def test_empty_model_raises(self):
        with pytest.raises(ValueError):
            CompressionPipeline().compress_model({})

    def test_all_blocks_compressed(self, reactnet_kernels):
        subset = {b: reactnet_kernels[b] for b in (1, 2, 3)}
        result = CompressionPipeline().compress_model(subset)
        assert result.num_blocks == 3
        assert sorted(result.blocks) == [1, 2, 3]
        for block, block_result in result.blocks.items():
            assert block_result.block == block
            assert block_result.compression_ratio > 1.0

    def test_aggregates_sum_blocks(self, reactnet_kernels):
        subset = {b: reactnet_kernels[b] for b in (1, 2)}
        result = CompressionPipeline().compress_model(subset)
        assert result.raw_bits == sum(
            r.raw_bits for r in result.blocks.values()
        )
        assert result.compressed_bits == sum(
            r.compressed_bits for r in result.blocks.values()
        )
        ratios = result.block_ratios()
        assert set(ratios) == {1, 2}

    def test_list_valued_blocks(self, skewed_kernel):
        result = CompressionPipeline().compress_model(
            {0: [skewed_kernel, skewed_kernel]}
        )
        assert len(result.blocks[0].payloads) == 2

    def test_whole_reactnet_matches_per_block_runs(self, reactnet_kernels):
        pipeline = CompressionPipeline()
        model_result = pipeline.compress_model(reactnet_kernels)
        single = pipeline.compress_block([reactnet_kernels[5]])
        assert (
            model_result.blocks[5].payloads == single.payloads
        )

    def test_summary_mentions_codec(self, skewed_kernel):
        result = CompressionPipeline(
            PipelineConfig(codec="huffman")
        ).compress_model({0: skewed_kernel})
        assert "huffman" in result.summary()


class TestMergeBlocks:
    def test_shared_codec_instance(self, reactnet_kernels):
        subset = {b: reactnet_kernels[b] for b in (1, 2)}
        result = CompressionPipeline(
            PipelineConfig(merge_blocks=True)
        ).compress_model(subset)
        codecs = {id(r.codec) for r in result.blocks.values()}
        assert len(codecs) == 1

    def test_shared_codec_roundtrips(self, reactnet_kernels):
        subset = {b: reactnet_kernels[b] for b in (1, 2)}
        result = CompressionPipeline(
            PipelineConfig(merge_blocks=True)
        ).compress_model(subset)
        for block in subset:
            decoded = result.blocks[block].decode_kernels()[0]
            assert np.array_equal(decoded, subset[block])

    def test_global_tree_never_beats_per_block(self, reactnet_kernels):
        subset = {b: reactnet_kernels[b] for b in (1, 12)}
        per_block = CompressionPipeline().compress_model(subset)
        merged = CompressionPipeline(
            PipelineConfig(merge_blocks=True)
        ).compress_model(subset)
        assert (
            merged.compression_ratio
            <= per_block.compression_ratio + 1e-9
        )


class TestValidateKernel:
    def test_accepts_valid(self, skewed_kernel):
        out = validate_kernel(skewed_kernel)
        assert out.shape == skewed_kernel.shape

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="4-D"):
            validate_kernel(np.zeros((3, 3)))

    def test_rejects_wrong_spatial(self):
        with pytest.raises(ValueError, match="spatial dims"):
            validate_kernel(np.zeros((1, 1, 1, 3)))
