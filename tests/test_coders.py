"""Tests for the coder-comparison analysis."""

import numpy as np
import pytest

from repro.analysis.coders import compare_coders, render_coders
from repro.core.codec import elias_gamma_length


class TestEliasGamma:
    def test_one_is_one_bit(self):
        assert elias_gamma_length(1) == 1

    def test_powers_of_two(self):
        assert elias_gamma_length(2) == 3
        assert elias_gamma_length(4) == 5
        assert elias_gamma_length(512) == 19

    def test_monotone(self):
        lengths = [elias_gamma_length(v) for v in range(1, 100)]
        assert all(b >= a for a, b in zip(lengths, lengths[1:]))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            elias_gamma_length(0)


class TestComparison:
    def test_all_blocks_present(self, reactnet_kernels):
        rows = compare_coders(reactnet_kernels)
        assert [row.block for row in rows] == list(range(1, 14))

    def test_coder_ordering(self, reactnet_kernels):
        for row in compare_coders(reactnet_kernels):
            assert row.fixed == 1.0
            assert row.simplified <= row.huffman + 1e-9
            assert row.huffman <= row.entropy_bound + 1e-9

    def test_simplified_close_to_huffman(self, reactnet_kernels):
        rows = compare_coders(reactnet_kernels)
        ratio = np.mean([r.simplified / r.huffman for r in rows])
        assert ratio > 0.85

    def test_render(self, reactnet_kernels):
        text = render_coders(compare_coders(reactnet_kernels))
        assert "Coder comparison" in text
        assert "Average" in text
        assert "Entropy" in text

    def test_ratios_dict_carries_every_registry_entry(self, reactnet_kernels):
        from repro.core.codec import available_codecs

        rows = compare_coders(reactnet_kernels)
        for row in rows:
            assert set(row.ratios) == set(available_codecs())

    def test_codecs_subset_restricts_run(self, reactnet_kernels):
        rows = compare_coders(reactnet_kernels, codecs=("fixed", "huffman"))
        for row in rows:
            assert set(row.ratios) == {"fixed", "huffman"}
            assert row.huffman == row.ratios["huffman"]


class TestRegistryParity:
    """The registry-based comparison pins the legacy hand-rolled math."""

    def test_averages_match_direct_implementations(self, reactnet_kernels):
        import math

        from repro.core.bitseq import BITS_PER_SEQUENCE
        from repro.core.frequency import FrequencyTable
        from repro.core.huffman import HuffmanEncoder
        from repro.core.simplified import SimplifiedTree

        def rank_gamma_average(table):
            bits = 0
            for rank, sequence in enumerate(
                table.ranked_sequences(), start=1
            ):
                length = 2 * int(math.floor(math.log2(rank))) + 1
                bits += table.count(int(sequence)) * length
            return bits / table.total

        rows = compare_coders(reactnet_kernels)
        for row in rows:
            table = FrequencyTable.from_kernels(
                [reactnet_kernels[row.block]]
            )
            assert row.fixed == 1.0
            assert row.huffman == HuffmanEncoder.from_table(
                table
            ).compression_ratio(table)
            assert row.simplified == SimplifiedTree(table).compression_ratio(
                table
            )
            assert row.rank_gamma == (
                BITS_PER_SEQUENCE / rank_gamma_average(table)
            )

    def test_mean_ratios_in_paper_ballpark(self, reactnet_kernels):
        rows = compare_coders(reactnet_kernels)
        mean_simplified = float(np.mean([r.simplified for r in rows]))
        assert 1.1 < mean_simplified < 1.4
