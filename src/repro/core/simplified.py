"""Simplified Huffman tree with a bounded number of nodes (Sec. III-B, Fig. 4).

Decoding an unrestricted Huffman stream needs either large lookup tables or
multi-cycle bit-serial hardware.  The paper instead limits the tree to a
small number of nodes (four in the evaluation); each node owns a *table* of
uncompressed sequences and every code is ``node prefix + table index``.

With the unary-style prefixes ``0 / 10 / 110 / 111`` and node capacities
32 / 64 / 64 / 512 the code lengths are 6, 8, 9 and 12 bits — exactly the
lengths reported in Sec. VI.  (The paper states the last node stores 256
sequences yet uses 12-bit codes, which implies a 9-bit table index; we
default the last node's capacity to 512 so the code can represent any
sequence even without clustering, and keep the capacity configurable.)

During decode the *first* bits select the node, the node selects a code
length from the length table, and the remaining index bits address the
uncompressed table — mirroring the stream parser / length table /
uncompressed table pipeline of the hardware decoding unit (Fig. 6).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .bitseq import BITS_PER_SEQUENCE, NUM_SEQUENCES
from .bitstream import BitReader, pack_bits, words_to_bytes
from .frequency import FrequencyTable

__all__ = [
    "DEFAULT_CAPACITIES",
    "TreeLayout",
    "NodeAssignment",
    "SimplifiedTree",
]

#: Node capacities used in the paper's evaluation (Sec. VI); the last node
#: is widened to 512 so every sequence is representable (see module doc).
DEFAULT_CAPACITIES: Tuple[int, ...] = (32, 64, 64, 512)


def _unary_prefixes(num_nodes: int) -> List[Tuple[int, int]]:
    """Prefix (value, length) per node: 0, 10, 110, ..., 1..10, 1..1.

    The final node reuses the all-ones pattern of length ``num_nodes - 1``
    so the prefix set stays complete and prefix-free.
    """
    prefixes = []
    for node in range(num_nodes - 1):
        # node leading ones followed by a zero
        value = ((1 << node) - 1) << 1
        prefixes.append((value, node + 1))
    value = (1 << (num_nodes - 1)) - 1
    prefixes.append((value, num_nodes - 1))
    return prefixes


@dataclass(frozen=True)
class TreeLayout:
    """Static geometry of a simplified tree: capacities, prefixes, lengths."""

    capacities: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.capacities) < 2:
            raise ValueError("a simplified tree needs at least two nodes")
        for capacity in self.capacities:
            if capacity < 1:
                raise ValueError(f"node capacity must be >= 1, got {capacity}")
        if sum(self.capacities) < NUM_SEQUENCES:
            raise ValueError(
                "total capacity must cover all "
                f"{NUM_SEQUENCES} sequences, got {sum(self.capacities)}"
            )

    @property
    def num_nodes(self) -> int:
        """Number of tree nodes (tables)."""
        return len(self.capacities)

    @property
    def prefixes(self) -> List[Tuple[int, int]]:
        """Per node ``(prefix value, prefix length)``."""
        return _unary_prefixes(self.num_nodes)

    def index_bits(self, node: int) -> int:
        """Table-index width of ``node`` (ceil log2 of its capacity)."""
        return max(1, math.ceil(math.log2(self.capacities[node])))

    def code_length(self, node: int) -> int:
        """Total code length (prefix + index) of codes in ``node``."""
        return self.prefixes[node][1] + self.index_bits(node)

    @property
    def code_lengths(self) -> Tuple[int, ...]:
        """Code length per node; (6, 8, 9, 12) for the default layout."""
        return tuple(self.code_length(n) for n in range(self.num_nodes))

    def decoder_table_bytes(self) -> int:
        """Size of the uncompressed table the hardware decoder needs.

        Each entry stores one 9-bit sequence; entries are byte-padded to
        2 bytes as in the 1 KB scratchpad of Table IV.
        """
        entries = sum(self.capacities)
        return entries * 2


@dataclass(frozen=True)
class NodeAssignment:
    """Frequency-ranked placement of every sequence into tree nodes."""

    layout: TreeLayout
    #: per node, the sequence ids stored in its table (index order)
    node_tables: Tuple[Tuple[int, ...], ...]

    def node_of(self, sequence: int) -> int:
        """Node owning ``sequence``; raises ``KeyError`` if unassigned."""
        for node, tables in enumerate(self.node_tables):
            if sequence in tables:
                return node
        raise KeyError(f"sequence {sequence} is not assigned to any node")


class SimplifiedTree:
    """Encoder/decoder for the bounded-node Huffman scheme.

    Build one per basic block from that block's frequency table — the paper
    creates the tree offline per kernel group and ships it alongside the
    compressed stream (Sec. IV-A, Table III).
    """

    def __init__(
        self,
        table: FrequencyTable,
        capacities: Sequence[int] = DEFAULT_CAPACITIES,
    ) -> None:
        self._layout = TreeLayout(tuple(int(c) for c in capacities))
        self._table = table
        ranked = table.ranked_sequences()
        node_tables: List[Tuple[int, ...]] = []
        cursor = 0
        for node, capacity in enumerate(self._layout.capacities):
            take = min(capacity, NUM_SEQUENCES - cursor)
            node_tables.append(
                tuple(int(s) for s in ranked[cursor:cursor + take])
            )
            cursor += take
        if cursor != NUM_SEQUENCES:
            raise AssertionError("layout validation should prevent this")
        self._assignment = NodeAssignment(self._layout, tuple(node_tables))

        # symbol -> (node, index) for O(1) encoding
        self._placement: Dict[int, Tuple[int, int]] = {}
        for node, sequences in enumerate(node_tables):
            for index, sequence in enumerate(sequences):
                self._placement[sequence] = (node, index)

        # vectorised codec tables: codeword / length per sequence id, and
        # a max-length prefix LUT mirroring the hardware's parallel lookup
        # (built per node table rather than per sequence: tree builds sit
        # on the whole-model hot path)
        self._code_lut = np.zeros(NUM_SEQUENCES, dtype=np.int64)
        self._length_lut = np.zeros(NUM_SEQUENCES, dtype=np.int64)
        for node, sequences in enumerate(node_tables):
            if not sequences:
                continue
            ids = np.asarray(sequences, dtype=np.int64)
            prefix_value, prefix_length = self._layout.prefixes[node]
            index_bits = self._layout.index_bits(node)
            self._code_lut[ids] = (prefix_value << index_bits) | np.arange(
                ids.size, dtype=np.int64
            )
            self._length_lut[ids] = prefix_length + index_bits
        self._max_length = int(self._length_lut.max())
        self._decode_lut_cache: Tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def layout(self) -> TreeLayout:
        """Static tree geometry."""
        return self._layout

    @property
    def assignment(self) -> NodeAssignment:
        """Which sequence landed in which node table."""
        return self._assignment

    def code_of(self, sequence: int) -> Tuple[int, int]:
        """``(codeword, length)`` for ``sequence``."""
        node, index = self._placement[sequence]
        prefix_value, prefix_length = self._layout.prefixes[node]
        index_bits = self._layout.index_bits(node)
        code = (prefix_value << index_bits) | index
        return code, prefix_length + index_bits

    def code_length_of(self, sequence: int) -> int:
        """Code length in bits assigned to ``sequence``."""
        node, _ = self._placement[sequence]
        return self._layout.code_length(node)

    def node_shares(
        self, table: FrequencyTable | None = None
    ) -> List[float]:
        """Fraction of channels encoded by each node under ``table``.

        With the paper's distributions this reproduces the code-length mix
        of Sec. VI: ~46/24/23/5% before clustering, ~65/25/8/0.6% after.
        """
        table = table if table is not None else self._table
        total = table.total
        shares = []
        for sequences in self._assignment.node_tables:
            if total == 0:
                shares.append(0.0)
                continue
            count = sum(table.count(s) for s in sequences)
            shares.append(count / total)
        return shares

    def average_length(self, table: FrequencyTable | None = None) -> float:
        """Expected code length in bits under ``table``."""
        table = table if table is not None else self._table
        shares = self.node_shares(table)
        return float(
            sum(
                share * self._layout.code_length(node)
                for node, share in enumerate(shares)
            )
        )

    def compressed_bits(self, table: FrequencyTable | None = None) -> int:
        """Exact compressed payload size in bits for ``table``'s channels."""
        table = table if table is not None else self._table
        bits = 0
        for node, sequences in enumerate(self._assignment.node_tables):
            length = self._layout.code_length(node)
            for sequence in sequences:
                bits += table.count(sequence) * length
        return bits

    def compression_ratio(self, table: FrequencyTable | None = None) -> float:
        """Raw (9 bits/channel) over compressed size.

        This is the per-block metric of Table V.
        """
        table = table if table is not None else self._table
        compressed = self.compressed_bits(table)
        if compressed == 0:
            return 1.0
        return table.total * BITS_PER_SEQUENCE / compressed

    # ------------------------------------------------------------------
    # Coding
    # ------------------------------------------------------------------
    def encode(self, sequences: np.ndarray) -> Tuple[bytes, int]:
        """Encode sequence ids into ``(payload, bit_length)``.

        Vectorised: codewords and lengths come from per-sequence lookup
        tables and the variable-length bits are scattered with numpy.
        """
        sequences = np.asarray(sequences, dtype=np.int64).reshape(-1)
        if sequences.size == 0:
            return b"", 0
        if sequences.min() < 0 or sequences.max() >= NUM_SEQUENCES:
            raise ValueError(f"sequence ids must lie in [0, {NUM_SEQUENCES})")
        words, total = pack_bits(
            self._code_lut[sequences], self._length_lut[sequences]
        )
        return words_to_bytes(words, total), total

    def _decode_lut(self) -> Tuple[np.ndarray, np.ndarray]:
        """``max_length``-bit window -> (sequence, code length) tables.

        This is the software analogue of the decoding unit's parallel
        prefix inspection: any ``max_length``-bit window starting at a
        code boundary uniquely identifies the code in front.
        """
        if self._decode_lut_cache is not None:
            return self._decode_lut_cache
        size = 1 << self._max_length
        symbols = np.full(size, -1, dtype=np.int64)
        lengths = np.zeros(size, dtype=np.int64)
        for sequence in range(NUM_SEQUENCES):
            code = int(self._code_lut[sequence])
            length = int(self._length_lut[sequence])
            pad = self._max_length - length
            base = code << pad
            symbols[base:base + (1 << pad)] = sequence
            lengths[base:base + (1 << pad)] = length
        self._decode_lut_cache = (symbols, lengths)
        return self._decode_lut_cache

    def decode(self, payload: bytes, count: int, bit_length: int) -> np.ndarray:
        """Decode ``count`` sequence ids from an encoded payload.

        One step per code, like the decoding unit's stream parser: the
        ``max_length``-bit window at the current bit selects a sequence
        and a code length from the prefix LUT.  The loop touches only
        Python objects (a ``uint32`` memoryview of the 3-byte chunk at
        every byte offset, the LUTs as lists, an ``array('q')`` output)
        because numpy scalar indexing would dominate its cost.

        Single streams deliberately stay off the vectorised decoders,
        which build a window at every bit position.  On the 1024x1024
        ReActNet stream (2-core x86 host) this loop took 0.22 s with a
        13 MB transient, :meth:`decode_batch`'s binary lifting 0.60 s
        with 376 MB, and the :mod:`repro.hw.rtl_fast` wavefront 0.27 s
        with 201 MB.
        """
        if count == 0:
            return np.empty(0, dtype=np.int64)
        if bit_length > len(payload) * 8:
            raise ValueError(
                f"bit_length {bit_length} exceeds payload of "
                f"{len(payload) * 8} bits"
            )
        symbols, lengths = (table.tolist() for table in self._decode_lut())
        max_length = self._max_length
        # big-endian 3-byte chunk at every byte offset, built in place;
        # the padding keeps the final window read inside the payload
        data = np.frombuffer(payload + b"\x00\x00", dtype=np.uint8)
        chunks = data[:-2].astype(np.uint32)
        for tail in (data[1:-1], data[2:]):
            chunks <<= 8
            chunks |= tail
        chunks = memoryview(chunks)
        shift = 24 - max_length
        window_mask = (1 << max_length) - 1
        out = array("q", [0]) * count
        position = 0
        for index in range(count):
            if position >= bit_length:
                raise EOFError(
                    f"stream exhausted after {index} of {count} sequences"
                )
            chunk = chunks[position >> 3]
            window = (chunk >> (shift - (position & 7))) & window_mask
            sequence = symbols[window]
            if sequence < 0:
                raise ValueError(f"invalid code at bit {position}")
            out[index] = sequence
            position += lengths[window]
        if position > bit_length:
            raise EOFError("final code ran past the declared bit length")
        return np.frombuffer(out, dtype=np.int64)

    # ------------------------------------------------------------------
    # Batch coding (uint64 words + cumulative bit offsets)
    # ------------------------------------------------------------------
    def encode_batch(self, batch) -> Tuple[np.ndarray, np.ndarray]:
        """Encode many sequence arrays into one packed word stream.

        Returns ``(packed_words, bit_offsets)`` — see
        :mod:`repro.core.batch` for the layout.  Bit-for-bit identical
        to concatenating per-item :meth:`encode` payloads.
        """
        from .batch import lut_encode_batch

        return lut_encode_batch(batch, self._code_lut, self._length_lut)

    def decode_batch(self, words, counts, bit_offsets) -> List[np.ndarray]:
        """Decode every item of a packed word stream at array speed.

        Layouts whose longest code exceeds
        :data:`~repro.core.batch.MAX_WINDOW_BITS` (many-node custom
        capacity configurations) fall back to the per-item scalar
        decoder, exactly as the Huffman coder does for degenerate
        trees.
        """
        from .batch import (
            MAX_WINDOW_BITS,
            decode_prefix_batch,
            scalar_decode_batch,
        )

        if self._max_length > MAX_WINDOW_BITS:
            # the per-symbol tree walk avoids the 2**max_length LUT
            def decode_item(payload, count, bit_length):
                return np.fromiter(
                    (
                        sequence
                        for sequence, _, _ in self.decode_steps(
                            payload, count, bit_length
                        )
                    ),
                    dtype=np.int64,
                    count=count,
                )

            return scalar_decode_batch(
                decode_item, words, counts, bit_offsets
            )
        symbols, lengths = self._decode_lut()
        return decode_prefix_batch(
            words, counts, bit_offsets, symbols, lengths, self._max_length
        )

    def _read_node(self, reader: BitReader) -> int:
        """Consume prefix bits and return the matching node id."""
        last = self._layout.num_nodes - 1
        for node in range(last):
            if reader.read_bit() == 0:
                return node
        return last

    def decode_steps(self, payload: bytes, count: int, bit_length: int):
        """Decode while yielding ``(sequence, node, code_length)`` triples.

        The hardware model replays these steps to attribute per-sequence
        decode latency; see :mod:`repro.hw.decoder`.
        """
        reader = BitReader(payload, bit_length)
        for _ in range(count):
            node = self._read_node(reader)
            index = reader.read(self._layout.index_bits(node))
            sequence = self._assignment.node_tables[node][index]
            yield sequence, node, self._layout.code_length(node)
