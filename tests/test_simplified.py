"""Tests for the simplified four-node Huffman tree."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bitseq import NUM_SEQUENCES
from repro.core.frequency import FrequencyTable
from repro.core.simplified import (
    DEFAULT_CAPACITIES,
    SimplifiedTree,
    TreeLayout,
)


def table_of(sequences):
    return FrequencyTable.from_sequences(np.asarray(sequences))


class TestTreeLayout:
    def test_paper_code_lengths(self):
        """The 32/64/64/512 layout yields the paper's 6/8/9/12-bit codes."""
        layout = TreeLayout(DEFAULT_CAPACITIES)
        assert layout.code_lengths == (6, 8, 9, 12)

    def test_prefixes_are_prefix_free(self):
        layout = TreeLayout(DEFAULT_CAPACITIES)
        prefixes = layout.prefixes
        rendered = [
            format(value, f"0{length}b") for value, length in prefixes
        ]
        for i, a in enumerate(rendered):
            for b in rendered[i + 1:]:
                assert not b.startswith(a) and not a.startswith(b)

    def test_two_node_layout(self):
        layout = TreeLayout((256, 256))
        assert layout.code_lengths == (9, 9)

    def test_eight_node_layout_valid(self):
        layout = TreeLayout((8, 8, 16, 16, 32, 64, 128, 512))
        assert layout.num_nodes == 8
        assert len(layout.prefixes) == 8

    def test_single_node_rejected(self):
        with pytest.raises(ValueError):
            TreeLayout((512,))

    def test_insufficient_capacity_rejected(self):
        with pytest.raises(ValueError):
            TreeLayout((32, 64))

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            TreeLayout((0, 512))

    def test_decoder_table_fits_1kb_for_small_trees(self):
        """A 32/64/64/256-entry table set fits the paper's 1 KB scratchpad."""
        layout = TreeLayout((32, 64, 64, 352))
        assert layout.decoder_table_bytes() <= 1024


class TestAssignment:
    def test_most_common_lands_in_first_node(self):
        sequences = [7] * 100 + list(range(100, 140))
        tree = SimplifiedTree(table_of(sequences))
        assert tree.assignment.node_tables[0][0] == 7

    def test_all_sequences_assigned_exactly_once(self, block1_table):
        tree = SimplifiedTree(block1_table)
        seen = [s for node in tree.assignment.node_tables for s in node]
        assert sorted(seen) == list(range(NUM_SEQUENCES))

    def test_node_of(self):
        tree = SimplifiedTree(table_of([3] * 5))
        assert tree.assignment.node_of(3) == 0

    def test_code_lengths_by_rank(self):
        sequences = [0] * 100
        tree = SimplifiedTree(table_of(sequences))
        assert tree.code_length_of(0) == 6

    def test_code_of_prefix_and_index(self):
        sequences = [9] * 10
        tree = SimplifiedTree(table_of(sequences))
        code, length = tree.code_of(9)
        assert length == 6
        assert code >> 5 == 0  # node-0 prefix is a single 0 bit
        assert code & 0x1F == 0  # index 0 in the first table


class TestCoding:
    def test_roundtrip(self, rng):
        sequences = rng.integers(0, NUM_SEQUENCES, 500)
        tree = SimplifiedTree(table_of(sequences))
        payload, bits = tree.encode(sequences)
        assert np.array_equal(tree.decode(payload, 500, bits), sequences)

    def test_roundtrip_unseen_sequences(self):
        """Sequences absent at tree-build time still encode (512-wide node)."""
        tree = SimplifiedTree(table_of([0] * 5))
        sequences = np.arange(NUM_SEQUENCES)
        payload, bits = tree.encode(sequences)
        assert np.array_equal(tree.decode(payload, NUM_SEQUENCES, bits), sequences)

    def test_empty_encode(self):
        tree = SimplifiedTree(table_of([0]))
        payload, bits = tree.encode(np.array([], dtype=np.int64))
        assert payload == b""
        assert bits == 0
        assert tree.decode(payload, 0, 0).size == 0

    def test_out_of_range_sequence_raises(self):
        tree = SimplifiedTree(table_of([0]))
        with pytest.raises(ValueError):
            tree.encode(np.array([700]))

    def test_decode_too_many_raises(self):
        tree = SimplifiedTree(table_of([0] * 4))
        payload, bits = tree.encode(np.array([0, 0]))
        with pytest.raises(EOFError):
            tree.decode(payload, 3, bits)

    def test_decode_bit_length_exceeding_payload_raises(self):
        tree = SimplifiedTree(table_of([0]))
        with pytest.raises(ValueError):
            tree.decode(b"\x00", 1, 100)

    def test_decode_steps_agree_with_decode(self):
        sequences = np.array([0, 100, 511, 3, 3, 77])
        tree = SimplifiedTree(table_of(sequences))
        payload, bits = tree.encode(sequences)
        stepped = [s for s, _, _ in tree.decode_steps(payload, 6, bits)]
        assert stepped == list(sequences)

    def test_decode_steps_report_correct_lengths(self):
        sequences = np.array([4] * 50)
        tree = SimplifiedTree(table_of(sequences))
        payload, bits = tree.encode(sequences)
        for _, node, length in tree.decode_steps(payload, 50, bits):
            assert node == 0
            assert length == 6

    def test_encoded_size_matches_compressed_bits(self, block1_table):
        tree = SimplifiedTree(block1_table)
        sequences = np.repeat(
            np.arange(NUM_SEQUENCES), block1_table.counts
        )
        _, bits = tree.encode(sequences)
        assert bits == tree.compressed_bits()


class TestMetrics:
    def test_node_shares_sum_to_one(self, block1_table):
        tree = SimplifiedTree(block1_table)
        assert sum(tree.node_shares()) == pytest.approx(1.0)

    def test_average_length_between_min_and_max(self, block1_table):
        tree = SimplifiedTree(block1_table)
        average = tree.average_length()
        assert 6.0 <= average <= 12.0

    def test_average_length_at_least_entropy(self, block1_table):
        tree = SimplifiedTree(block1_table)
        assert tree.average_length() >= block1_table.entropy_bits() - 1e-9

    def test_compression_ratio_consistent_with_average(self, block1_table):
        tree = SimplifiedTree(block1_table)
        assert tree.compression_ratio() == pytest.approx(
            9.0 / tree.average_length(), rel=1e-6
        )

    def test_skewed_distribution_compresses(self):
        sequences = [0] * 900 + list(range(1, 100))
        tree = SimplifiedTree(table_of(sequences))
        assert tree.compression_ratio() > 1.3

    def test_uniform_distribution_expands(self):
        """A flat distribution cannot beat 9 bits with 6..12-bit codes."""
        table = FrequencyTable(np.ones(NUM_SEQUENCES, dtype=np.int64))
        tree = SimplifiedTree(table)
        assert tree.compression_ratio() < 1.0

    def test_ratio_of_empty_table_is_one(self):
        empty = FrequencyTable(np.zeros(NUM_SEQUENCES, dtype=np.int64))
        tree = SimplifiedTree(empty)
        assert tree.compression_ratio() == 1.0


@settings(deadline=None, max_examples=30)
@given(
    st.lists(
        st.integers(0, NUM_SEQUENCES - 1), min_size=1, max_size=300
    )
)
def test_simplified_roundtrip_property(sequences):
    """Any message round-trips through the default tree."""
    arr = np.asarray(sequences)
    tree = SimplifiedTree(table_of(arr))
    payload, bits = tree.encode(arr)
    assert np.array_equal(tree.decode(payload, arr.size, bits), arr)
    # bit length bounded by the extreme code lengths
    assert 6 * arr.size <= bits <= 12 * arr.size


@settings(deadline=None, max_examples=20)
@given(
    st.lists(st.integers(0, NUM_SEQUENCES - 1), min_size=2, max_size=200),
    st.sampled_from([(32, 64, 64, 512), (256, 256), (16, 16, 480), (64, 448)]),
)
def test_roundtrip_any_layout_property(sequences, capacities):
    """Round-trip holds for every legal tree layout."""
    arr = np.asarray(sequences)
    tree = SimplifiedTree(table_of(arr), capacities)
    payload, bits = tree.encode(arr)
    assert np.array_equal(tree.decode(payload, arr.size, bits), arr)


def _numpy_loop_decode(tree, payload, count, bit_length):
    """The numpy-indexed per-symbol loop that ``decode`` replaced.

    Kept as the reference for ``decode``'s error contract: which
    exception a truncated stream or an invalid code raises, and with
    which message.
    """
    if count == 0:
        return np.empty(0, dtype=np.int64)
    if bit_length > len(payload) * 8:
        raise ValueError(
            f"bit_length {bit_length} exceeds payload of "
            f"{len(payload) * 8} bits"
        )
    symbols, lengths = tree._decode_lut()
    max_length = tree._max_length
    data = payload + b"\x00\x00"
    window_mask = (1 << max_length) - 1
    out = np.empty(count, dtype=np.int64)
    position = 0
    for index in range(count):
        if position >= bit_length:
            raise EOFError(
                f"stream exhausted after {index} of {count} sequences"
            )
        byte_index = position >> 3
        chunk = int.from_bytes(data[byte_index:byte_index + 3], "big")
        window = (chunk >> (24 - max_length - (position & 7))) & window_mask
        sequence = symbols[window]
        if sequence < 0:
            raise ValueError(f"invalid code at bit {position}")
        out[index] = sequence
        position += int(lengths[window])
    if position > bit_length:
        raise EOFError("final code ran past the declared bit length")
    return out


def _outcome(decode, *args):
    try:
        return "ok", decode(*args).tolist()
    except (EOFError, ValueError) as error:
        return type(error), str(error)


#: custom layouts: 2-6 nodes, the last one wide enough to cover all
#: sequences (codes stay within the decoder's 17-bit window)
_capacities = st.lists(st.integers(1, 200), min_size=1, max_size=4).flatmap(
    lambda head: st.integers(0, 64).map(
        lambda extra: tuple(head)
        + (max(1, NUM_SEQUENCES - sum(head)) + extra,)
    )
)


@settings(deadline=None, max_examples=60)
@given(
    sequences=st.lists(
        st.integers(0, NUM_SEQUENCES - 1), min_size=1, max_size=200
    ),
    capacities=st.one_of(st.just(DEFAULT_CAPACITIES), _capacities),
    cut=st.integers(0, 1 << 12),
    garbage=st.binary(min_size=1, max_size=40),
)
def test_decode_matches_tree_walk_oracle_property(
    sequences, capacities, cut, garbage
):
    """``decode`` equals the ``decode_steps`` tree walk on valid streams
    and keeps the numpy loop's errors on truncated or invalid ones."""
    arr = np.asarray(sequences)
    tree = SimplifiedTree(table_of(arr[: max(1, arr.size // 2)]), capacities)
    payload, bits = tree.encode(arr)
    decoded = tree.decode(payload, arr.size, bits)
    walked = [s for s, _, _ in tree.decode_steps(payload, arr.size, bits)]
    assert decoded.dtype == np.int64
    assert decoded.tolist() == walked == arr.tolist()

    cases = [
        (payload, arr.size, cut % bits),            # truncated bit length
        (payload[: (cut % bits) // 8], arr.size, bits),  # truncated bytes
        (payload, arr.size + 1, bits),               # one code too many
        (garbage, cut % 64, len(garbage) * 8),       # possibly invalid codes
    ]
    for case in cases:
        assert _outcome(tree.decode, *case) == _outcome(
            lambda *a: _numpy_loop_decode(tree, *a), *case
        )
