"""Correctness checks the benchmark applies to the program's outputs.

Each check takes plain arrays or numbers, recomputes what it can without
the program (sequence ids, Hamming distances, histograms, entropy,
cache-line bounds), and raises :class:`CheckFailed` on a mismatch.
Keeping them free of program state is what lets ``selftest.py`` feed
each one a corrupted output and see it rejected.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import numpy as np

#: bits per 3x3 kernel channel (one "sequence" of the paper)
SEQUENCE_BITS = 9
NUM_SEQUENCES = 1 << SEQUENCE_BITS


class CheckFailed(AssertionError):
    """A program output disagreed with what the benchmark expects."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def kernel_sequences(kernel_bits: np.ndarray) -> np.ndarray:
    """Sequence ids of an ``(out, in, 3, 3)`` bit kernel, row-major.

    Position (0, 0) is the most significant of the nine bits, the
    natural mapping of Sec. III of the paper.
    """
    flat = np.asarray(kernel_bits, dtype=np.int64).reshape(-1, SEQUENCE_BITS)
    return flat @ (1 << np.arange(SEQUENCE_BITS - 1, -1, -1))


def popcount9(values: np.ndarray) -> np.ndarray:
    """Set bits of each 9-bit value."""
    values = np.asarray(values, dtype=np.int64)
    return sum((values >> bit) & 1 for bit in range(SEQUENCE_BITS))


def check_clustered_block(
    original: np.ndarray,
    decoded: np.ndarray,
    replacements: Mapping[int, int],
    max_distance: int,
    block,
) -> np.ndarray:
    """A block's decoded stream is its clustered input, and nothing else.

    ``decoded`` may differ from ``original`` only where the original id
    was replaced by clustering, each replacement is within
    ``max_distance`` bit flips, and every other position decodes back
    unchanged.  Returns the clustered sequences.
    """
    sources = np.fromiter(replacements.keys(), np.int64, len(replacements))
    targets = np.fromiter(replacements.values(), np.int64, len(replacements))
    distance = popcount9(sources ^ targets)
    require(
        bool(np.all((distance >= 1) & (distance <= max_distance))),
        f"block {block}: a clustering replacement moves "
        f"{int(distance.max(initial=0))} bits (max {max_distance})",
    )
    lut = np.arange(NUM_SEQUENCES, dtype=np.int64)
    lut[sources] = targets
    clustered = lut[np.asarray(original, dtype=np.int64)]
    decoded = np.asarray(decoded, dtype=np.int64)
    require(
        decoded.shape == clustered.shape,
        f"block {block}: decoded {decoded.shape} sequences, "
        f"expected {clustered.shape}",
    )
    wrong = np.flatnonzero(decoded != clustered)
    require(
        wrong.size == 0,
        f"block {block}: {wrong.size} decoded sequences differ from the "
        f"clustered input (first at {wrong[:1].tolist()})",
    )
    return clustered


def check_payload_bits(
    clustered: np.ndarray, code_lengths: Sequence[int], compressed_bits: int, block
) -> None:
    """The payload is the sum of code lengths, and above the entropy bound.

    The histogram is the benchmark's own ``bincount``; ``code_lengths``
    gives each of the 512 ids its code length in the fitted codec.
    """
    counts = np.bincount(np.asarray(clustered, np.int64), minlength=NUM_SEQUENCES)
    lengths = np.asarray(code_lengths, dtype=np.int64)
    expected = int(counts @ lengths)
    require(
        expected == int(compressed_bits),
        f"block {block}: payload {compressed_bits} bits, but the histogram "
        f"and code lengths give {expected}",
    )
    total = counts.sum()
    shares = counts[counts > 0] / total
    shannon = float(-(shares * np.log2(shares)).sum() * total)
    require(
        compressed_bits >= math.floor(shannon),
        f"block {block}: payload {compressed_bits} bits is below the "
        f"Shannon bound {shannon:.0f}",
    )


def check_rtl_block(decoded: np.ndarray, sequences: np.ndarray, block) -> None:
    """The decoding unit returns exactly the stream's input sequences."""
    decoded = np.asarray(decoded, dtype=np.int64)
    require(
        decoded.shape == np.shape(sequences)
        and bool(np.array_equal(decoded, sequences)),
        f"block {block}: RTL-decoded sequences differ from the input",
    )


def check_rtl_oracle(replay: Mapping[str, int], fsm: Mapping[str, int], block) -> None:
    """Replay statistics equal the per-cycle FSM's, field by field."""
    for field in ("cycles", "stall_cycles", "fetch_requests"):
        require(
            int(replay[field]) == int(fsm[field]),
            f"block {block}: replay {field}={replay[field]} but the FSM "
            f"oracle gives {fsm[field]}",
        )


def check_dram_bytes(
    layers: Iterable[Mapping], line_bytes: int, mode: str
) -> None:
    """Each layer moves at least its weight payload from DRAM.

    ``layers`` rows carry ``name``, ``payload_bytes`` (compressed where
    the mode compresses) and the simulated ``dram_bytes``.  A cold
    hierarchy must miss on every line of the payload at least once.
    """
    for layer in layers:
        lines = -(-int(layer["payload_bytes"]) // line_bytes)
        bound = lines * line_bytes
        require(
            int(layer["dram_bytes"]) >= bound,
            f"{mode} {layer['name']}: {layer['dram_bytes']} DRAM bytes, "
            f"below its {bound}-byte compulsory payload",
        )


def check_lossless(installed: np.ndarray, decoded: np.ndarray, layer) -> None:
    """A kernel read back from an artifact equals the one published."""
    require(
        np.shape(installed) == np.shape(decoded)
        and bool(np.array_equal(installed, decoded)),
        f"layer {layer}: decoded kernel bits differ from the published ones",
    )


def check_logits_exact(logits: np.ndarray, reference: np.ndarray, what: str) -> None:
    """Bit-identical logits (the plan's contract at equal minibatching)."""
    logits = np.asarray(logits)
    reference = np.asarray(reference)
    require(
        logits.shape == reference.shape
        and logits.dtype == reference.dtype
        and logits.tobytes() == reference.tobytes(),
        f"{what}: logits are not bit-identical to the float reference",
    )


def check_logits_close(logits: np.ndarray, reference: np.ndarray, what: str) -> None:
    """Logits within float32 round-off of the reference.

    Batch shape is free in the daemon, and BLAS may block a GEMM
    differently per shape, so exact bits are not required here.
    """
    logits = np.asarray(logits, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    scale = max(float(np.abs(reference).max(initial=0.0)), 1.0)
    require(
        logits.shape == reference.shape
        and bool(np.allclose(logits, reference, rtol=1e-4, atol=1e-5 * scale)),
        f"{what}: logits differ from the float reference beyond float32 "
        "round-off",
    )


def check_fetched_blobs(fetched: int, manifest_blobs: int) -> None:
    """A lazy reader never fetches more blobs than the manifest names."""
    require(
        0 < int(fetched) <= int(manifest_blobs),
        f"fetched {fetched} blobs from a manifest of {manifest_blobs}",
    )


def check_response_count(received: int, completed: int) -> None:
    """Every response the daemon counts as completed reached its client."""
    require(
        int(received) == int(completed),
        f"clients received {received} responses, the daemon reports "
        f"{completed} completed",
    )
