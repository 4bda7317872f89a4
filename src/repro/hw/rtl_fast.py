"""Vectorised cycle-replay engine for the RTL decoding unit.

:meth:`repro.hw.rtl.RtlDecodingUnit.run_fsm` ticks the Fig. 6 datapath
one cycle at a time — the golden reference, but far too slow to cover a
whole model.  This module reproduces the FSM's results *exactly* without
ticking, in three vectorised stages:

1. **decode** — the entire stream is decoded at once with the same
   ``max_length``-bit window LUT the FSM peeks through: a speculative
   segmented wavefront (long streams) or the binary-lifting chain of
   :func:`~repro.core.bitstream.chain_positions` (short streams, shared
   with the batch codec machinery of :mod:`repro.core.batch`)
   materialises every code boundary, symbol and code length as arrays.
2. **timing** — chunk-arrival cycles are derived analytically from
   ``memory_latency`` / ``fetch_chunk_bytes`` / ``input_buffer_bytes``;
   each sequence's availability cycle is the landing cycle of the chunk
   completing its lookahead window, and its parse cycle resolves the
   in-order, ``parse_rate``-slots-per-cycle recurrence
   ``c[j] = max(avail[j], c[j - parse_rate] + 1)`` with one
   ``np.maximum.accumulate`` per parse slot.  When the input buffer is
   large enough that fetch is never capacity-gated this is a single
   closed-form pass; otherwise an exact chunk-by-chunk replay resolves
   the fetch/parse feedback (still vectorised per chunk segment).
3. **pack** — the packing registers are filled with numpy bitwise ops
   and retired through :func:`~repro.bnn.packing.pack_bits`, replacing
   the FSM's 9 x ``register_bits`` per-bit Python loop.

The replay is **universal**: every parse configuration is cycle-exact
and ``engine="replay"`` never ticks the FSM (the FSM remains the golden
oracle only).  Timing resolves through one of two schedulers.  The FSM
refills its parse window only while it holds <= 24 bits, so a refill
tops it up to at least 25 bits whenever bytes are buffered; when
``parse_rate * max_length <= 25`` no cycle can starve mid-window and
the fully analytic schedule of :func:`_parse_cycle_schedule` applies
(one ``np.maximum.accumulate`` per parse slot).  Wider configurations
track the byte-granular window occupancy exactly in
:func:`_windowed_schedule` — a lean event loop that mirrors the FSM's
per-cycle order (fetch-issue check, landing, refill, parse) but skips
every stall run in one jump, including the FSM's livelock condition
(a refilled window can hold at most 32 bits; a code needing more than
the refill ceiling never parses and the FSM spins forever).  The
property suite in ``tests/test_rtl_replay.py`` pins the two engines to
identical ``(decoded, packed_words, stats)`` across random streams on
both sides of the scheduler split.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..bnn.packing import pack_bits
from ..core.bitseq import BITS_PER_SEQUENCE
from ..core.bitstream import chain_positions
from ..core.streams import CompressedKernel
from .config import DecoderConfig
from .rtl import RtlDecodeStats

__all__ = ["replay_supported", "replay_run"]

#: the FSM refills its parse window while it holds <= 24 bits, so any
#: cycle that finds bytes buffered starts with at least this many bits
_WINDOW_GUARANTEE_BITS = 25

#: issue-cycle sentinel for fetches the FSM never gets to issue
_NEVER = np.iinfo(np.int64).max // 4


def replay_supported(parse_rate: int, max_length: int) -> bool:
    """True when the closed-form analytic scheduler is cycle-exact.

    One cycle parses up to ``parse_rate`` codes of up to ``max_length``
    bits; the refilled window guarantees only 25 bits, so anything wider
    can starve mid-cycle on window occupancy.  The replay engine covers
    both regimes — this predicate only selects between the analytic
    schedule and the exact windowed event loop, it no longer gates
    replay availability.
    """
    return parse_rate * max_length <= _WINDOW_GUARANTEE_BITS


def replay_run(
    stream: CompressedKernel,
    config: DecoderConfig,
    register_bits: int,
    memory_latency: int,
    parse_rate: int,
) -> Tuple[np.ndarray, List[int], RtlDecodeStats]:
    """Replay one FSM run without ticking.

    Returns ``(sequences, packed_words, stats)`` bit- and cycle-identical
    to :meth:`repro.hw.rtl.RtlDecodingUnit.run_fsm` on the same stream,
    for every parse configuration.
    """
    tree = stream.rebuild_tree()
    symbols_lut, lengths_lut = tree._decode_lut()
    max_length = int(max(tree.layout.code_lengths))

    count = stream.num_sequences
    stats = RtlDecodeStats()
    if count == 0:
        return np.empty(0, dtype=np.int64), [], stats

    bit_length = stream.bit_length
    total_bytes = (bit_length + 7) // 8
    payload = bytes(stream.payload[:total_bytes])

    positions, lengths, decoded = _decode_stream(
        payload, bit_length, count, symbols_lut, lengths_lut, max_length
    )
    if replay_supported(parse_rate, max_length):
        cycles, fetch_requests = _parse_cycle_schedule(
            positions,
            positions + lengths,
            bit_length,
            total_bytes,
            config,
            memory_latency,
            parse_rate,
            max_length,
        )
    else:
        cycles, fetch_requests = _windowed_schedule(
            lengths,
            bit_length,
            total_bytes,
            config,
            memory_latency,
            parse_rate,
            max_length,
        )
    packed_words = _pack_stream(decoded, register_bits)

    stats.cycles = int(cycles[-1])
    stats.active_cycles = int(1 + np.count_nonzero(np.diff(cycles)))
    stats.stall_cycles = stats.cycles - stats.active_cycles
    stats.fetch_requests = fetch_requests
    stats.sequences_decoded = count
    return decoded, packed_words, stats


# ----------------------------------------------------------------------
# Stage 1: whole-stream LUT decode
# ----------------------------------------------------------------------
#: wavefront segment width in bits; streams shorter than a few segments
#: (or with few codes) use the lifted chain instead
_WAVE_SEGMENT_BITS = 1024
_WAVE_MIN_CODES = 4096


def _decode_stream(
    payload: bytes,
    bit_length: int,
    count: int,
    symbols_lut: np.ndarray,
    lengths_lut: np.ndarray,
    max_length: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All code boundaries, lengths and symbols, no per-symbol loop.

    The window at every bit position is produced by broadcasting eight
    in-byte shifts over 32-bit byte chunks (cheaper than a per-bit
    gather); the code-boundary chain comes from the speculative
    wavefront (:func:`_boundary_positions`) for long streams and from
    :func:`~repro.core.bitstream.chain_positions`' binary lifting for
    short ones.
    """
    if bit_length == 0:
        # no bits ever arrive: the FSM's parser starves forever
        raise RuntimeError("FSM failed to converge (livelock?)")
    padded = np.concatenate(
        [np.frombuffer(payload, dtype=np.uint8), np.zeros(4, dtype=np.uint8)]
    ).astype(np.uint32)
    chunks = (
        (padded[:-4] << np.uint32(24))
        | (padded[1:-3] << np.uint32(16))
        | (padded[2:-2] << np.uint32(8))
        | padded[3:-1]
    )
    shifts = (32 - max_length - np.arange(8)).astype(np.uint32)
    mask = np.uint32((1 << max_length) - 1)
    windows = ((chunks[:, None] >> shifts) & mask).reshape(-1)[:bit_length]
    lengths_at = lengths_lut.astype(np.int32)[windows]
    positions = _boundary_positions(lengths_at, bit_length, count, max_length)
    if positions.size < count:
        if positions.size:
            last = int(positions[-1])
            if last + int(lengths_at[last]) > bit_length:
                # a code running past the stream is the FSM's ValueError
                raise ValueError("invalid code word in stream")
        # a cleanly exhausted stream starves the FSM's parser forever
        raise RuntimeError("FSM failed to converge (livelock?)")
    positions = positions[:count]
    decoded = symbols_lut[windows[positions]]
    lengths = lengths_at[positions].astype(np.int64)
    if decoded.min() < 0 or int(positions[-1] + lengths[-1]) > bit_length:
        raise ValueError("invalid code word in stream")
    return positions, lengths, decoded


def _boundary_positions(
    lengths_at: np.ndarray, bit_length: int, count: int, max_length: int
) -> np.ndarray:
    """Code-boundary chain from bit 0, truncated at the stream end.

    Returns at least ``count`` ``int64`` positions for a well-formed
    stream; fewer signal early exhaustion (an invalid, stalling window
    instead repeats its position so the caller's symbol check fires).

    Long streams use a **speculative wavefront**: the stream splits into
    fixed segments, and because no code exceeds ``max_length`` bits the
    true chain enters each segment at one of its first ``max_length``
    bit offsets.  All candidate entry cursors advance in lockstep (one
    gather per step), segment entries are stitched sequentially from
    each candidate's exit position, and the surviving candidates'
    recorded positions concatenate into the exact chain — O(stream
    bits) work with no full-domain binary lifting.
    """
    if count <= _WAVE_MIN_CODES or bit_length < 4 * _WAVE_SEGMENT_BITS:
        domain = np.arange(bit_length, dtype=np.int32)
        jump = np.minimum(domain + lengths_at, np.int32(bit_length))
        positions = chain_positions(jump, count, start=0)
        overrun = positions >= bit_length
        if overrun.any():
            positions = positions[: int(np.argmax(overrun))]
        return positions

    seg_bits = _WAVE_SEGMENT_BITS
    min_length = int(lengths_at[lengths_at > 0].min(initial=max_length))
    num_segments = -(-bit_length // seg_bits)
    starts = np.arange(num_segments, dtype=np.int32) * seg_bits
    seg_end = np.minimum(starts + seg_bits, bit_length).astype(np.int32)
    cursors = np.minimum(
        (starts[:, None] + np.arange(max_length, dtype=np.int32)).reshape(-1),
        np.int32(bit_length),
    )
    # zero-padded tail: a cursor past the stream stalls in place
    lengths_padded = np.zeros(
        bit_length + max_length + seg_bits, dtype=np.int32
    )
    lengths_padded[:bit_length] = lengths_at
    max_steps = seg_bits // max(min_length, 1) + 2
    trace = np.empty((max_steps, cursors.size), dtype=np.int32)
    position = cursors.copy()
    for step in range(max_steps):
        trace[step] = position
        position = position + lengths_padded[position]
    in_segment = np.repeat(seg_end, max_length)
    counts = (trace < in_segment).sum(axis=0)
    exits = trace[
        np.minimum(counts, max_steps - 1), np.arange(cursors.size)
    ]
    counts_list = counts.tolist()
    exits_list = exits.tolist()
    ends_list = seg_end.tolist()
    chosen: List[int] = []
    chosen_counts: List[int] = []
    offset = 0
    for segment in range(num_segments):
        if not 0 <= offset < max_length or (
            chosen and counts_list[chosen[-1]] >= max_steps
        ):
            # the chain desynchronised or stalled inside a segment:
            # only possible on a corrupt stream
            raise ValueError("invalid code word in stream")
        cursor = segment * max_length + offset
        chosen.append(cursor)
        chosen_counts.append(counts_list[cursor])
        exit_position = exits_list[cursor]
        if exit_position >= bit_length:
            break
        offset = exit_position - ends_list[segment]
    selected = trace[:, chosen]
    keep = (
        np.arange(max_steps)[:, None]
        < np.asarray(chosen_counts, dtype=np.int64)[None, :]
    )
    return selected.T[keep.T].astype(np.int64)


# ----------------------------------------------------------------------
# Stage 2: analytic cycle schedule
# ----------------------------------------------------------------------
def _max_recurrence(avail: np.ndarray, parse_rate: int) -> np.ndarray:
    """Resolve ``c[j] = max(avail[j], c[j - parse_rate] + 1)`` per slot.

    ``avail`` must be non-decreasing (chunk landings are), which makes
    the result non-decreasing as well — the in-order guarantee.
    """
    cycles = np.empty_like(avail)
    for slot in range(parse_rate):
        lane = avail[slot::parse_rate]
        steps = np.arange(lane.size, dtype=np.int64)
        cycles[slot::parse_rate] = steps + np.maximum.accumulate(lane - steps)
    return cycles


def _parse_cycle_schedule(
    positions: np.ndarray,
    ends: np.ndarray,
    bit_length: int,
    total_bytes: int,
    config: DecoderConfig,
    memory_latency: int,
    parse_rate: int,
    max_length: int,
) -> Tuple[np.ndarray, int]:
    """Per-sequence parse cycles plus the number of fetches issued.

    The fast path assumes the input buffer never gates a fetch (issue
    cycles ``1, 1 + L, 1 + 2L, ...``) and then *verifies* that
    assumption against the resulting parse schedule; when the buffer
    does fill, the exact chunk-by-chunk replay resolves the
    fetch-issue / buffer-drain feedback loop instead.
    """
    chunk = config.fetch_chunk_bytes
    capacity = config.input_buffer_bytes
    num_chunks = -(-total_bytes // chunk)
    chunk_sizes = np.full(num_chunks, chunk, dtype=np.int64)
    chunk_sizes[-1] = total_bytes - chunk * (num_chunks - 1)
    landed_bytes = np.cumsum(chunk_sizes)
    landed_bits = 8 * landed_bytes

    # chunk whose landing completes each sequence's lookahead window
    need = np.minimum(max_length, bit_length - positions)
    chunk_of = np.searchsorted(landed_bits, positions + need, side="left")

    land = memory_latency * (np.arange(num_chunks, dtype=np.int64) + 1)
    cycles = _max_recurrence(land[chunk_of], parse_rate)
    if _fetch_gate_holds(cycles, ends, landed_bytes, land, capacity, chunk):
        issue = land - (memory_latency - 1)
        return cycles, int(np.count_nonzero(issue <= cycles[-1]))
    return _gated_schedule(
        ends,
        chunk_of,
        landed_bytes,
        capacity,
        chunk,
        memory_latency,
        parse_rate,
    )


def _fetch_gate_holds(
    cycles: np.ndarray,
    ends: np.ndarray,
    landed_bytes: np.ndarray,
    land: np.ndarray,
    capacity: int,
    chunk: int,
) -> bool:
    """Check the ungated fetch schedule against buffer capacity.

    Chunk ``k + 1`` issues at cycle ``land[k] + 1``; at that point the
    buffer holds the landed bytes minus what the parse window pulled
    (the window refills to ``ceil((parsed_bits + 25) / 8)`` bytes while
    the buffer has data).  The schedule is valid iff a full chunk always
    fits.
    """
    if landed_bytes.size <= 1:
        return True
    over = landed_bytes[:-1] - (capacity - chunk)
    if int(over.max()) <= 0:
        return True
    parsed_counts = np.searchsorted(cycles, land[:-1] - 1, side="right")
    parsed_bits = np.where(
        parsed_counts > 0, ends[np.maximum(parsed_counts - 1, 0)], 0
    )
    pulled_bytes = np.minimum(
        landed_bytes[:-1], (parsed_bits + _WINDOW_GUARANTEE_BITS + 7) // 8
    )
    return bool(np.all(landed_bytes[:-1] - pulled_bytes <= capacity - chunk))


def _gated_schedule(
    ends: np.ndarray,
    chunk_of: np.ndarray,
    landed_bytes: np.ndarray,
    capacity: int,
    chunk: int,
    memory_latency: int,
    parse_rate: int,
) -> Tuple[np.ndarray, int]:
    """Exact replay of the fetch-gate / parse feedback, chunk by chunk.

    Each chunk's landing unlocks one contiguous segment of sequences
    whose availability cycle is that landing; within a segment the
    max-recurrence has the closed form
    ``max(land, carry + 1) + arange(n)`` per parse slot.  The next
    fetch can only issue once the parser has drained the buffer below
    ``capacity - chunk`` bytes, which maps to "the sequence whose code
    ends at the drain threshold has been parsed".
    """
    count = ends.size
    num_chunks = landed_bytes.size
    seg_bounds = np.searchsorted(
        chunk_of, np.arange(num_chunks + 1), side="left"
    )
    # everything the scalar feedback loop reads is precomputed as a
    # plain list, so each chunk iteration costs a handful of Python ops
    bounds = seg_bounds.tolist()
    drain_bits = (8 * (landed_bytes - (capacity - chunk)) - 32).tolist()
    unlocks = np.searchsorted(ends, drain_bits, side="left")
    unlock_chunk = chunk_of[np.minimum(unlocks, count - 1)].tolist()
    unlocks = unlocks.tolist()

    bases = [[0] * parse_rate for _ in range(num_chunks)]
    carries = [0] * parse_rate
    issue_cycles = []
    issue = 1
    for k in range(num_chunks):
        issue_cycles.append(issue)
        land = issue + memory_latency - 1
        lo, hi = bounds[k], bounds[k + 1]
        if lo < hi and issue >= _NEVER:
            raise AssertionError("sequence waits on a never-issued fetch")
        base_row = bases[k]
        for offset in range(min(parse_rate, hi - lo)):
            slot = (lo + offset) % parse_rate
            size = (hi - lo - offset + parse_rate - 1) // parse_rate
            floor = carries[slot] + 1
            base = land if land > floor else floor
            base_row[slot] = base
            carries[slot] = base + size - 1
        if k + 1 == num_chunks:
            break
        # fetch gate: the next issue waits until the parser has drained
        # the buffer below ``capacity - chunk`` bytes, i.e. until the
        # sequence whose code reaches the drain threshold has parsed
        # (the window pull covers parsed bits plus at most 32 bits)
        drain = drain_bits[k]
        if drain <= 0:
            gate = 0
        else:
            unlock = unlocks[k]
            if unlock >= count:
                gate = _NEVER  # parser finishes without draining enough
            else:
                if unlock >= hi:
                    raise AssertionError(
                        "fetch gate depends on an unscheduled sequence"
                    )
                holder = unlock_chunk[k]
                gate = (
                    bases[holder][unlock % parse_rate]
                    + (unlock - bounds[holder]) // parse_rate
                    + 2
                )
        issue = _NEVER if gate >= _NEVER else max(land + 1, gate)

    # materialise the per-sequence cycles in one vectorised pass:
    # ``c[j] = base[chunk(j), j % rate] + (j - segment_start) // rate``
    codes = np.arange(count, dtype=np.int64)
    segment_starts = seg_bounds[:-1][chunk_of]
    cycles = (
        np.asarray(bases, dtype=np.int64)[chunk_of, codes % parse_rate]
        + (codes - segment_starts) // parse_rate
    )
    requests = int(
        np.count_nonzero(np.asarray(issue_cycles) <= int(cycles[-1]))
    )
    return cycles, requests


def _windowed_schedule(
    lengths: np.ndarray,
    bit_length: int,
    total_bytes: int,
    config: DecoderConfig,
    memory_latency: int,
    parse_rate: int,
    max_length: int,
) -> Tuple[np.ndarray, int]:
    """Exact schedule for wide windows (``parse_rate * max_length > 25``).

    Outside the analytic envelope the number of codes a cycle can parse
    depends on the byte-granular occupancy of the 32-bit shift window,
    so this scheduler tracks the FSM's architectural state directly —
    ``(window bits, bytes pulled, bytes landed, in-flight fetch)`` —
    and applies the FSM's per-cycle event order: fetch-issue check
    (prior-cycle buffer level), landing, refill while <= 24 bits,
    then up to ``parse_rate`` parses.  Unlike the FSM it never *ticks*
    through a stall: when a cycle parses nothing the state can only
    change at the pending landing, so the loop jumps straight there.
    Total work is O(codes + chunks) scalar steps against the FSM's
    O(cycles x register_bits) — the stall runs (memory latency, buffer
    drain) cost one iteration each instead of hundreds.

    Livelock is detected exactly: a refill stops as soon as the window
    exceeds 24 bits, so it can never hold more than 32; once the window
    is past the refill threshold but still narrower than the next
    code's ``need``, no future event widens it and the FSM would spin
    to its cycle cap — raise its ``RuntimeError`` without the spin.
    """
    count = lengths.size
    lengths_list = lengths.tolist()
    chunk = config.fetch_chunk_bytes
    capacity = config.input_buffer_bytes

    cycles = np.empty(count, dtype=np.int64)
    cycle = 0
    window_bits = 0
    pulled = 0  # bytes moved from the input buffer into the window
    landed = 0  # bytes landed in the input buffer
    next_fetch = 0  # bytes requested so far
    in_flight = 0  # size of the pending fetch (0: none)
    land_cycle = 0
    fetch_requests = 0
    bit_position = 0
    code = 0

    while code < count:
        cycle += 1

        # fetch-issue check: uses the buffer level left by the previous
        # cycle's refill, and a landing this cycle does not free the slot
        if not in_flight and next_fetch < total_bytes:
            if capacity - (landed - pulled) >= chunk:
                in_flight = min(chunk, total_bytes - next_fetch)
                next_fetch += in_flight
                land_cycle = cycle + memory_latency - 1
                fetch_requests += 1

        if in_flight and cycle >= land_cycle:
            landed += in_flight
            in_flight = 0

        # refill while the window holds <= 24 bits and bytes are buffered
        if window_bits <= 24 and pulled < landed:
            pull = min((32 - window_bits) // 8, landed - pulled)
            pulled += pull
            window_bits += 8 * pull

        produced = 0
        while produced < parse_rate and code < count:
            need = min(max_length, bit_length - bit_position)
            if window_bits < need:
                break
            length = lengths_list[code]
            window_bits -= length
            bit_position += length
            cycles[code] = cycle
            code += 1
            produced += 1

        if produced or code >= count:
            continue
        if window_bits > 24:
            # refill refuses a window past 24 bits, so it is capped at
            # 32 and can only shrink: this parse can never be satisfied
            raise RuntimeError("FSM failed to converge (livelock?)")
        if in_flight:
            # pure stall: only the landing changes anything — jump to it
            # (issue is blocked by the in-flight slot until then)
            cycle = max(cycle, land_cycle - 1)
            continue
        if next_fetch >= total_bytes and pulled >= landed:
            # every byte fetched and pulled yet the parser still starves
            raise RuntimeError("FSM failed to converge (livelock?)")
        if next_fetch < total_bytes and capacity - (landed - pulled) < chunk:
            # the buffer can never drain below the issue threshold while
            # the parser is starved: the fetch gate never reopens
            raise RuntimeError("FSM failed to converge (livelock?)")

    requests = int(fetch_requests)
    return cycles, requests


# ----------------------------------------------------------------------
# Stage 3: vectorised pack stage
# ----------------------------------------------------------------------
def _pack_stream(decoded: np.ndarray, register_bits: int) -> List[int]:
    """Retire all packing-register groups with array bitwise ops.

    Bit ``position`` of sequence ``lane`` lands in packing register
    ``position`` at bit ``lane`` — exactly the FSM's insert — and each
    full (or final partial) group flushes through
    :func:`~repro.bnn.packing.pack_bits` in the FSM's word order.
    """
    if decoded.size == 0:
        return []
    groups = -(-decoded.size // register_bits)
    lanes = np.zeros(groups * register_bits, dtype=np.uint16)
    lanes[: decoded.size] = decoded
    sequence_bits = np.unpackbits(
        lanes.astype(">u2").view(np.uint8).reshape(-1, 2), axis=1
    )[:, 16 - BITS_PER_SEQUENCE :]
    grouped = sequence_bits.reshape(groups, register_bits, BITS_PER_SEQUENCE)
    words = pack_bits(grouped.transpose(0, 2, 1))
    return words.reshape(-1).tolist()
