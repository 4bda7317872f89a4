"""FSM-vs-replay equivalence: the vectorised engine must be cycle-exact.

The replay engine (:mod:`repro.hw.rtl_fast`) is only useful if it is a
*drop-in* for the per-cycle FSM, so the property suite asserts complete
equality of ``(decoded, packed_words, cycles, stall_cycles,
fetch_requests, active_cycles)`` across random streams, parse rates,
register widths, memory latencies and buffer geometries — including the
capacity-gated fetch regime (low latency + small buffer), the wavefront
decode path (large streams), and parse configurations *outside* the old
``parse_rate * max_length <= 25`` analytic envelope, where the exact
windowed event loop tracks the FSM's byte-granular shift window
(including its livelock condition).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.frequency import FrequencyTable
from repro.core.simplified import SimplifiedTree
from repro.core.streams import CompressedKernel
from repro.hw.config import DecoderConfig
from repro.hw.rtl import RtlDecodingUnit
from repro.hw.rtl_fast import (
    _windowed_schedule,
    replay_run,
    replay_supported,
)

STAT_FIELDS = (
    "cycles",
    "stall_cycles",
    "fetch_requests",
    "sequences_decoded",
    "active_cycles",
)


def build_stream(seed: int, count: int, concentration: float):
    """A stream whose symbol skew is controlled by ``concentration``."""
    rng = np.random.default_rng(seed)
    head_count = int(count * concentration)
    head = rng.integers(0, 8, head_count)
    tail = rng.integers(0, 512, count - head_count)
    sequences = np.concatenate([head, tail])
    rng.shuffle(sequences)
    tree = SimplifiedTree(FrequencyTable.from_sequences(sequences))
    return (
        CompressedKernel.from_sequences(sequences, (1, count), tree),
        sequences,
    )


def assert_engines_agree(stream, sequences, config=None, **unit_kwargs):
    """Both engines must produce identical outputs and statistics."""
    fsm = RtlDecodingUnit(config, engine="fsm", **unit_kwargs)
    replay = RtlDecodingUnit(config, engine="replay", **unit_kwargs)
    fsm_decoded, fsm_words, fsm_stats = fsm.run(stream)
    rep_decoded, rep_words, rep_stats = replay.run(stream)
    assert np.array_equal(fsm_decoded, sequences)
    assert np.array_equal(rep_decoded, fsm_decoded)
    assert rep_words == fsm_words
    for field in STAT_FIELDS:
        assert getattr(rep_stats, field) == getattr(fsm_stats, field), field
    assert rep_stats.utilisation == fsm_stats.utilisation
    return rep_stats


@settings(deadline=None, max_examples=25)
@given(
    seed=st.integers(0, 2**31 - 1),
    count=st.integers(1, 400),
    concentration=st.floats(0.0, 0.95),
    parse_rate=st.sampled_from([1, 2]),
    register_bits=st.sampled_from([128, 256]),
    memory_latency=st.sampled_from([1, 2, 7, 40, 150]),
)
def test_replay_matches_fsm_on_random_streams(
    seed, count, concentration, parse_rate, register_bits, memory_latency
):
    stream, sequences = build_stream(seed, count, concentration)
    assert_engines_agree(
        stream,
        sequences,
        register_bits=register_bits,
        memory_latency=memory_latency,
        parse_rate=parse_rate,
    )


@settings(deadline=None, max_examples=20)
@given(
    seed=st.integers(0, 2**31 - 1),
    count=st.integers(32, 600),
    parse_rate=st.sampled_from([1, 2]),
    memory_latency=st.sampled_from([1, 2, 3]),
    geometry=st.sampled_from([(64, 64), (64, 32), (96, 32), (128, 128)]),
)
def test_replay_matches_fsm_when_fetch_is_buffer_gated(
    seed, count, parse_rate, memory_latency, geometry
):
    """Low latency + small buffer: the fetch/parse feedback loop regime."""
    buffer_bytes, chunk_bytes = geometry
    stream, sequences = build_stream(seed, count, 0.5)
    config = DecoderConfig(
        input_buffer_bytes=buffer_bytes, fetch_chunk_bytes=chunk_bytes
    )
    stats = assert_engines_agree(
        stream,
        sequences,
        config=config,
        memory_latency=memory_latency,
        parse_rate=parse_rate,
    )
    assert stats.sequences_decoded == count


@pytest.mark.parametrize("parse_rate", (1, 2))
@pytest.mark.parametrize("register_bits", (128, 256))
def test_replay_matches_fsm_through_wavefront_path(parse_rate, register_bits):
    """Streams big enough to take the segmented wavefront decode."""
    stream, sequences = build_stream(99, 6000, 0.6)
    assert stream.bit_length > 4096  # really exercises the wavefront
    assert_engines_agree(
        stream,
        sequences,
        register_bits=register_bits,
        memory_latency=25,
        parse_rate=parse_rate,
    )


def test_single_sequence_stream_matches():
    stream, sequences = build_stream(3, 1, 0.0)
    stats = assert_engines_agree(stream, sequences, memory_latency=5)
    assert stats.sequences_decoded == 1


@settings(deadline=None, max_examples=25)
@given(
    seed=st.integers(0, 2**31 - 1),
    count=st.integers(1, 400),
    concentration=st.floats(0.0, 0.95),
    parse_rate=st.sampled_from([3, 4, 5, 7]),
    memory_latency=st.sampled_from([1, 2, 7, 40, 150]),
)
def test_replay_matches_fsm_outside_envelope(
    seed, count, concentration, parse_rate, memory_latency
):
    """The newly covered regime: ``parse_rate * max_length > 25``.

    Here the per-cycle parse count depends on the byte-granular window
    occupancy, so these runs exercise the exact windowed event loop
    rather than the analytic schedule.
    """
    stream, sequences = build_stream(seed, count, concentration)
    max_length = int(max(stream.rebuild_tree().layout.code_lengths))
    assert not replay_supported(parse_rate, max_length)
    assert_engines_agree(
        stream,
        sequences,
        memory_latency=memory_latency,
        parse_rate=parse_rate,
    )


@settings(deadline=None, max_examples=15)
@given(
    seed=st.integers(0, 2**31 - 1),
    count=st.integers(32, 400),
    parse_rate=st.sampled_from([3, 5]),
    memory_latency=st.sampled_from([1, 2, 3]),
    geometry=st.sampled_from([(64, 64), (64, 32), (96, 32)]),
)
def test_outside_envelope_with_buffer_gated_fetch(
    seed, count, parse_rate, memory_latency, geometry
):
    """Wide parse windows combined with the fetch/parse feedback loop."""
    buffer_bytes, chunk_bytes = geometry
    stream, sequences = build_stream(seed, count, 0.5)
    config = DecoderConfig(
        input_buffer_bytes=buffer_bytes, fetch_chunk_bytes=chunk_bytes
    )
    assert_engines_agree(
        stream,
        sequences,
        config=config,
        memory_latency=memory_latency,
        parse_rate=parse_rate,
    )


class TestWindowedSchedule:
    """Direct checks of the wide-window scheduler's FSM state tracking.

    Driven with synthetic code-length arrays so the >25-bit-code corner
    cases are reachable without building a ``2^26``-entry decode LUT.
    """

    @staticmethod
    def _schedule(lengths, max_length, parse_rate=1, latency=3, **cfg):
        lengths = np.asarray(lengths, dtype=np.int64)
        bit_length = int(lengths.sum())
        config = DecoderConfig(**cfg)
        return _windowed_schedule(
            lengths,
            bit_length,
            (bit_length + 7) // 8,
            config,
            latency,
            parse_rate,
            max_length,
        )

    def test_livelock_when_code_exceeds_refilled_window(self):
        # after the 7-bit code the refilled window holds 32 - 7 = 25
        # bits: a 26-bit code can never parse and the FSM would spin
        with pytest.raises(RuntimeError, match="livelock"):
            self._schedule([7, 26], max_length=26)

    def test_aligned_wide_code_parses(self):
        # from an aligned window (32 bits) the same 26-bit code is fine
        cycles, fetches = self._schedule([26], max_length=26, latency=4)
        assert cycles.tolist() == [4]
        assert fetches == 1

    def test_wide_code_after_full_byte_consumption(self):
        # 8+26: the first code drains exactly one byte, so the refill
        # tops back up to 32 bits and the 26-bit code still parses
        cycles, _ = self._schedule([8, 26], max_length=26, latency=1)
        assert cycles.size == 2
        assert (np.diff(cycles) >= 0).all()

    def test_stall_runs_are_skipped_not_ticked(self):
        # long memory latency: the schedule must still report the
        # landing-gated cycles exactly (chunk 0 lands at cycle 100)
        cycles, fetches = self._schedule(
            [12] * 8, max_length=12, parse_rate=5, latency=100
        )
        assert int(cycles[0]) == 100
        assert fetches >= 1


class TestEngineSelection:
    def test_default_equals_forced_replay(self):
        assert RtlDecodingUnit.ENGINES == ("replay", "fsm")
        stream, sequences = build_stream(11, 200, 0.4)
        unit = RtlDecodingUnit(memory_latency=9)
        assert unit.engine == "replay"
        default = unit.run(stream)
        forced = RtlDecodingUnit(memory_latency=9, engine="replay").run(stream)
        assert np.array_equal(default[0], forced[0])
        assert default[1] == forced[1]
        assert default[2] == forced[2]

    def test_unknown_engine_rejected(self):
        for engine in ("verilog", "auto"):
            with pytest.raises(ValueError, match="engine"):
                RtlDecodingUnit(engine=engine)

    def test_scheduler_split_predicate(self):
        """``replay_supported`` now only picks the analytic fast path."""
        assert replay_supported(parse_rate=1, max_length=12)
        assert replay_supported(parse_rate=2, max_length=12)
        assert not replay_supported(parse_rate=3, max_length=12)
        assert not replay_supported(parse_rate=1, max_length=26)

    def test_forced_replay_succeeds_outside_envelope(self):
        """The replay engine no longer has an exactness envelope."""
        stream, sequences = build_stream(5, 64, 0.5)
        stats = assert_engines_agree(
            stream, sequences, memory_latency=3, parse_rate=3
        )
        assert stats.sequences_decoded == 64

    def test_replay_never_ticks_fsm_outside_envelope(self, monkeypatch):
        stream, sequences = build_stream(5, 64, 0.5)
        replay = RtlDecodingUnit(
            memory_latency=3, parse_rate=3, engine="replay"
        )
        fsm = RtlDecodingUnit(memory_latency=3, parse_rate=3, engine="fsm")
        fsm_out = fsm.run(stream)

        def forbid_fsm(self, stream):
            raise AssertionError("replay must not tick the FSM")

        monkeypatch.setattr(RtlDecodingUnit, "run_fsm", forbid_fsm)
        replay_out = replay.run(stream)
        assert np.array_equal(replay_out[0], sequences)
        assert replay_out[1] == fsm_out[1]
        assert replay_out[2] == fsm_out[2]

    def test_replay_run_direct_api(self):
        stream, sequences = build_stream(21, 128, 0.3)
        decoded, words, stats = replay_run(
            stream, DecoderConfig(), 128, 10, 1
        )
        assert np.array_equal(decoded, sequences)
        assert stats.sequences_decoded == 128
        assert len(words) == 9 * 2  # one partial 128-lane group
