"""Cross-module integration tests: the pipelines the paper describes end to end."""

import numpy as np
import pytest

from repro.analysis.accuracy import (
    apply_clustering_to_model,
    run_accuracy_experiment,
)
from repro.analysis.performance import (
    ratios_from_table5,
    run_performance_experiment,
)
from repro.bnn.datasets import make_blob_dataset
from repro.bnn.packing import unpack_bits
from repro.bnn.reactnet import build_small_bnn
from repro.bnn.training import train_model
from repro.core.bitseq import kernel_to_sequences
from repro.core.clustering import ClusteringConfig
from repro.core.frequency import FrequencyTable
from repro.core.huffman import HuffmanEncoder
from repro.core.pipeline import CompressionPipeline, PipelineConfig
from repro.core.simplified import SimplifiedTree
from repro.core.streams import CompressedKernel
from repro.hw.config import DecoderConfig
from repro.hw.decoder import DecodingUnit
from repro.hw.isa import lddu


class TestOfflineFlow:
    """Sec. IV-A: frequency -> tree -> encode, once per block."""

    def test_full_block_pipeline(self, reactnet_kernels):
        kernel = reactnet_kernels[3]
        pipeline = CompressionPipeline(
            PipelineConfig(
                clustering=ClusteringConfig(num_common=64, num_rare=256)
            )
        )
        result = pipeline.compress_block([kernel])
        # serialise, reload, decode, and verify the clustered kernel
        (payload, bit_length), = result.payloads
        stream = result.codec.to_stream(
            result.kernel_shapes[0], payload, bit_length
        )
        blob = stream.to_bytes()
        reloaded = CompressedKernel.from_bytes(blob)
        decoded = reloaded.decode()
        expected = result.clustering.apply_to_sequences(
            kernel_to_sequences(kernel)
        )
        assert np.array_equal(decoded, expected)

    def test_simplified_tree_tracks_full_huffman(self, reactnet_kernels):
        """Sec. III-B's trade-off: the simplified tree stays within ~15%
        of unrestricted Huffman on real block statistics."""
        table = FrequencyTable.from_kernels([reactnet_kernels[12]])
        huffman = HuffmanEncoder.from_table(table)
        tree = SimplifiedTree(table)
        assert tree.compression_ratio() > 0.80 * huffman.compression_ratio(
            table
        )


class TestHardwareSoftwareEquivalence:
    """The decoding unit must produce exactly what software decodes."""

    def test_decoder_output_matches_software(self, reactnet_kernels):
        kernel = reactnet_kernels[1]
        sequences = kernel_to_sequences(kernel)[:256]
        tree = SimplifiedTree(FrequencyTable.from_sequences(sequences))
        stream = CompressedKernel.from_sequences(sequences, (16, 16), tree)

        unit = DecodingUnit(DecoderConfig(), register_bits=128)
        lddu(unit, stream)
        words = unit.drain_words()
        registers = unpack_bits(words.reshape(-1, 9, 2), 128)
        # reconstruct sequence bits from the packed registers
        lanes = registers.transpose(0, 2, 1).reshape(-1, 9)[:256]
        rebuilt = (lanes.astype(np.int64) * (1 << np.arange(8, -1, -1))).sum(
            axis=1
        )
        assert np.array_equal(rebuilt, sequences)


class TestTrainCompressEvaluate:
    """Train a BNN, compress its kernels, check nothing breaks."""

    def test_trained_kernels_compress(self):
        ds = make_blob_dataset(seed=11)
        model = build_small_bnn(
            in_channels=1, num_classes=ds.num_classes, image_size=8,
            channels=(8, 16), seed=11,
        )
        train_model(model, ds, epochs=3, seed=11)
        kernels = model.binary_kernel_bits(3)
        result = CompressionPipeline().compress_block(kernels)
        decoded = result.decode_kernels()
        for original, roundtripped in zip(kernels, decoded):
            assert np.array_equal(original, roundtripped)

    def test_clustering_applied_to_model_changes_few_bits(self):
        ds = make_blob_dataset(seed=12)
        model = build_small_bnn(
            in_channels=1, num_classes=ds.num_classes, image_size=8,
            channels=(8,), seed=12,
        )
        train_model(model, ds, epochs=3, seed=12)
        before = model.binary_kernel_bits(3)[0].copy()
        replaced, rewritten, flips = apply_clustering_to_model(
            model, ClusteringConfig(num_common=32, num_rare=400)
        )
        after = model.binary_kernel_bits(3)[0]
        assert int((before != after).sum()) == flips
        assert rewritten <= before.shape[0] * before.shape[1]

    def test_accuracy_experiment_preserves_accuracy(self):
        result = run_accuracy_experiment(epochs=10, seed=3)
        # the paper's claim: clustering does not meaningfully hurt accuracy
        assert result.accuracy_drop < 0.10
        assert result.sequences_replaced > 0


class TestPerformancePipeline:
    def test_measured_ratios_drive_speedup(self, reactnet_kernels):
        from repro.analysis.compression import measure_table5

        ratios = ratios_from_table5(measure_table5(reactnet_kernels))
        assert len(ratios) == 13
        result = run_performance_experiment(compression_ratios=ratios)
        assert result.hw_speedup > 1.2
        assert result.sw_slowdown > 1.2

    def test_speedup_result_consistency(self, reactnet_kernels):
        from repro.analysis.compression import measure_table5

        ratios = ratios_from_table5(measure_table5(reactnet_kernels))
        result = run_performance_experiment(compression_ratios=ratios)
        assert result.baseline.total_cycles == pytest.approx(
            result.hw_compressed.total_cycles * result.hw_speedup
        )
