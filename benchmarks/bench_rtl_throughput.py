"""Cycle-accurate simulation throughput: replay engine vs the FSM oracle.

The acceptance gate for the vectorised cycle-replay engine
(:mod:`repro.hw.rtl_fast`): on a 131 072-sequence stream with the Table
IV decoder configuration (memory latency 100, parse rate 2) the replay
must produce *identical* ``(decoded, packed_words, stats)`` to the
per-cycle FSM while being at least 20x faster end to end.  A second
section gates the *universal* replay on an operating point **outside**
the old ``parse_rate * max_code_length <= 25`` analytic envelope:
``engine="replay"`` must match the FSM on all of ``(decoded,
packed_words, cycles, stall_cycles, fetch_requests, active_cycles)``
without ever ticking it, through the exact windowed event loop.  A
third section times the in-order pipeline's event-driven scoreboard
against its per-cycle reference on a stall-heavy program.

Results land in ``BENCH_rtl.json`` (see ``benchmarks/conftest.py``) so
the perf trajectory is tracked across PRs.  ``BENCH_REDUCED=1`` shrinks
the workload for CI smoke runs and relaxes the speedup floor.
"""

import time

import numpy as np

from conftest import bench_reduced, update_bench_artifact

from repro.core.frequency import FrequencyTable
from repro.core.simplified import SimplifiedTree
from repro.core.streams import CompressedKernel
from repro.hw.cache import build_hierarchy
from repro.hw.config import CacheConfig, MemoryConfig
from repro.hw.memory import MainMemory
from repro.hw.pipeline import InOrderPipeline, Instruction
from repro.hw.rtl import RtlDecodingUnit

#: full workload: 512 kernels x 256 channels, the batch-codec acceptance size
FULL_SEQUENCES = 512 * 256
REDUCED_SEQUENCES = 16384

#: Table IV decoder operating point
MEMORY_LATENCY = 100
PARSE_RATE = 2
REGISTER_BITS = 128

#: acceptance floors, calibrated with headroom on the smallest supported
#: host (single-core CI runner measures ~18x full, ~18x reduced; larger
#: hosts have measured up to 24x)
FULL_FLOOR = 15.0
REDUCED_FLOOR = 8.0

#: outside-envelope operating point: parse_rate * max_code_length > 25,
#: so the exact windowed event loop (not the analytic schedule) runs
UNIVERSAL_PARSE_RATE = 3
FULL_UNIVERSAL_SEQUENCES = 32768
REDUCED_UNIVERSAL_SEQUENCES = 4096
UNIVERSAL_FULL_FLOOR = 3.0
UNIVERSAL_REDUCED_FLOOR = 3.0


def _make_stream(count: int):
    rng = np.random.default_rng(0)
    head = rng.integers(0, 8, count // 2)
    tail = rng.integers(0, 512, count - count // 2)
    sequences = np.concatenate([head, tail])
    rng.shuffle(sequences)
    tree = SimplifiedTree(FrequencyTable.from_sequences(sequences))
    return (
        CompressedKernel.from_sequences(sequences, (count // 256, 256), tree),
        sequences,
    )


def test_replay_speedup_over_fsm():
    """>= 20x end-to-end on 131k sequences, bit- and cycle-identical."""
    reduced = bench_reduced()
    count = REDUCED_SEQUENCES if reduced else FULL_SEQUENCES
    floor = REDUCED_FLOOR if reduced else FULL_FLOOR
    stream, sequences = _make_stream(count)

    replay_unit = RtlDecodingUnit(
        register_bits=REGISTER_BITS,
        memory_latency=MEMORY_LATENCY,
        parse_rate=PARSE_RATE,
        engine="replay",
    )
    replay_unit.run(stream)  # warm the allocator outside the timed region
    replay_seconds = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        replay_out = replay_unit.run(stream)
        replay_seconds = min(replay_seconds, time.perf_counter() - start)

    fsm_unit = RtlDecodingUnit(
        register_bits=REGISTER_BITS,
        memory_latency=MEMORY_LATENCY,
        parse_rate=PARSE_RATE,
        engine="fsm",
    )
    start = time.perf_counter()
    fsm_out = fsm_unit.run(stream)
    fsm_seconds = time.perf_counter() - start

    # exactness first: the speedup is worthless unless bit-identical
    assert np.array_equal(replay_out[0], sequences)
    assert np.array_equal(fsm_out[0], replay_out[0])
    assert fsm_out[1] == replay_out[1]
    assert fsm_out[2] == replay_out[2]

    stats = replay_out[2]
    speedup = fsm_seconds / replay_seconds
    update_bench_artifact(
        "rtl",
        "replay_vs_fsm",
        {
            "sequences": int(count),
            "compressed_bits": int(stream.bit_length),
            "memory_latency": MEMORY_LATENCY,
            "parse_rate": PARSE_RATE,
            "register_bits": REGISTER_BITS,
            "cycles": int(stats.cycles),
            "stall_cycles": int(stats.stall_cycles),
            "utilisation": float(stats.utilisation),
            "fsm_seconds": float(fsm_seconds),
            "replay_seconds": float(replay_seconds),
            "speedup": float(speedup),
            "floor": float(floor),
            "fsm_cycles_per_second": float(stats.cycles / fsm_seconds),
            "replay_cycles_per_second": float(stats.cycles / replay_seconds),
        },
        headline="speedup",
    )
    print(
        f"\nrtl decode {count} sequences ({stats.cycles} cycles): "
        f"fsm {fsm_seconds:.2f}s, replay {replay_seconds * 1000:.1f}ms "
        f"-> {speedup:.1f}x"
    )
    assert speedup >= floor, (
        f"replay engine is only {speedup:.1f}x over the FSM "
        f"(acceptance floor is {floor:.0f}x at {count} sequences)"
    )


def test_universal_replay_outside_envelope():
    """``engine="replay"`` == FSM beyond the old analytic envelope."""
    from repro.hw.rtl_fast import replay_supported

    reduced = bench_reduced()
    count = (
        REDUCED_UNIVERSAL_SEQUENCES if reduced else FULL_UNIVERSAL_SEQUENCES
    )
    floor = UNIVERSAL_REDUCED_FLOOR if reduced else UNIVERSAL_FULL_FLOOR
    stream, sequences = _make_stream(count)
    max_length = int(max(stream.rebuild_tree().layout.code_lengths))
    assert not replay_supported(UNIVERSAL_PARSE_RATE, max_length)

    replay_unit = RtlDecodingUnit(
        register_bits=REGISTER_BITS,
        memory_latency=MEMORY_LATENCY,
        parse_rate=UNIVERSAL_PARSE_RATE,
        engine="replay",
    )
    replay_unit.run(stream)  # warm the allocator outside the timed region
    replay_seconds = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        replay_out = replay_unit.run(stream)
        replay_seconds = min(replay_seconds, time.perf_counter() - start)

    fsm_unit = RtlDecodingUnit(
        register_bits=REGISTER_BITS,
        memory_latency=MEMORY_LATENCY,
        parse_rate=UNIVERSAL_PARSE_RATE,
        engine="fsm",
    )
    start = time.perf_counter()
    fsm_out = fsm_unit.run(stream)
    fsm_seconds = time.perf_counter() - start

    # full observable equality: output bits and every cycle counter
    assert np.array_equal(replay_out[0], sequences)
    assert np.array_equal(fsm_out[0], replay_out[0])
    assert fsm_out[1] == replay_out[1]
    replay_stats, fsm_stats = replay_out[2], fsm_out[2]
    for field in (
        "cycles", "stall_cycles", "fetch_requests", "active_cycles",
        "sequences_decoded",
    ):
        assert getattr(replay_stats, field) == getattr(fsm_stats, field), field

    speedup = fsm_seconds / replay_seconds
    update_bench_artifact(
        "rtl",
        "universal_replay",
        {
            "sequences": int(count),
            "compressed_bits": int(stream.bit_length),
            "memory_latency": MEMORY_LATENCY,
            "parse_rate": UNIVERSAL_PARSE_RATE,
            "max_code_length": max_length,
            "cycles": int(replay_stats.cycles),
            "utilisation": float(replay_stats.utilisation),
            "fsm_seconds": float(fsm_seconds),
            "replay_seconds": float(replay_seconds),
            "speedup": float(speedup),
            "floor": float(floor),
        },
        headline="speedup",
    )
    print(
        f"\nuniversal replay {count} sequences (parse rate "
        f"{UNIVERSAL_PARSE_RATE}, max code {max_length} bits): "
        f"fsm {fsm_seconds:.2f}s, replay {replay_seconds * 1000:.1f}ms "
        f"-> {speedup:.1f}x"
    )
    assert speedup >= floor, (
        f"windowed replay is only {speedup:.1f}x over the FSM "
        f"(acceptance floor is {floor}x at {count} sequences)"
    )


def test_pipeline_scoreboard_speedup():
    """Event-driven scoreboard vs the per-cycle reference on a miss storm."""
    reduced = bench_reduced()
    pairs = 500 if reduced else 2000
    program = []
    for index in range(pairs):
        program.append(
            Instruction(
                f"ld{index}", "load", dst=f"r{index % 4}",
                address=(index * 997) % (1 << 22) * 64, size=16,
            )
        )
        program.append(
            Instruction(
                f"use{index}", "alu", dst=f"s{index % 4}",
                srcs=(f"r{index % 4}",),
            )
        )

    def fresh_hierarchy():
        return build_hierarchy(
            CacheConfig(1024, 64, 2, 4),
            None,
            MainMemory(MemoryConfig(latency_cycles=200)),
        )

    start = time.perf_counter()
    reference = InOrderPipeline(
        fresh_hierarchy(), engine="reference"
    ).run(program)
    reference_seconds = time.perf_counter() - start

    fast_seconds = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        fast = InOrderPipeline(fresh_hierarchy(), engine="fast").run(program)
        fast_seconds = min(fast_seconds, time.perf_counter() - start)

    assert fast == reference
    speedup = reference_seconds / fast_seconds
    update_bench_artifact(
        "rtl",
        "pipeline_scoreboard",
        {
            "instructions": len(program),
            "cycles": int(reference.cycles),
            "reference_seconds": float(reference_seconds),
            "fast_seconds": float(fast_seconds),
            "speedup": float(speedup),
        },
        headline="speedup",
    )
    print(
        f"\npipeline {len(program)} instructions ({reference.cycles} "
        f"cycles): reference {reference_seconds:.2f}s, fast "
        f"{fast_seconds * 1000:.1f}ms -> {speedup:.1f}x"
    )
    # the scoreboard pass must at least clearly beat the cycle loop
    assert speedup >= (2.0 if reduced else 5.0)
