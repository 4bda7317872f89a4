"""Threaded tiled contraction engine: bit-identity is the contract.

Every strategy x tiling x thread-count combination of
:mod:`repro.bnn.contraction` must produce the *same integers* as the
float reference — the partial sums are small exact integers, so any
reassociation (BLAS blocking, tile order, thread interleaving) is
provably value-preserving, and the property suites here pin that
guarantee across the ``batch x out_channel x tile-size`` grid.  The
fused threshold->pack stage is held to the same standard against the
unfused ``binarize -> im2col -> pack`` composition it replaces.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bnn.binarize import binarize_bits
from repro.bnn.contraction import (
    _XOR_BLOCK_WORDS,
    ContractionTelemetry,
    default_threads,
    pack_input_patches,
    resolve_strategy,
    threshold_pack_patches,
    tile_spans,
)
from repro.bnn.ops import (
    CONTRACTION_STRATEGIES,
    binary_conv2d_packed,
    binary_conv2d_reference,
    binary_dense_packed,
    binary_dense_reference,
    im2col_bits,
)
from repro.bnn.packing import pack_bits


def _conv_case(seed, batch, in_ch, out_ch, size, kernel=3):
    rng = np.random.default_rng(seed)
    x_bits = rng.integers(0, 2, (batch, in_ch, size, size), dtype=np.uint8)
    k_bits = rng.integers(
        0, 2, (out_ch, in_ch, kernel, kernel), dtype=np.uint8
    )
    return x_bits, k_bits


# ----------------------------------------------------------------------
# Threaded-vs-serial parity over the batch x out_channel x tile grid
# ----------------------------------------------------------------------
@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**31 - 1),
    batch=st.integers(1, 5),
    in_ch=st.sampled_from([3, 16, 64, 130]),
    out_ch=st.integers(1, 9),
    chunk=st.sampled_from([1, 3, 64]),
    threads=st.sampled_from([2, 3, 5]),
)
def test_conv_threaded_matches_serial_and_reference(
    seed, batch, in_ch, out_ch, chunk, threads
):
    x_bits, k_bits = _conv_case(seed, batch, in_ch, out_ch, size=5)
    reference = binary_conv2d_reference(
        x_bits * 2.0 - 1.0, k_bits * 2.0 - 1.0, stride=1, padding=1
    )
    for strategy in CONTRACTION_STRATEGIES:
        for fan_out in (None, threads):
            out = binary_conv2d_packed(
                x_bits,
                k_bits,
                stride=1,
                padding=1,
                out_channel_chunk=chunk,
                strategy=strategy,
                threads=fan_out,
            )
            assert out.dtype == np.int32
            assert np.array_equal(
                out.astype(np.float32), reference
            ), (strategy, fan_out)


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**31 - 1),
    batch=st.integers(1, 6),
    features=st.sampled_from([7, 64, 100, 192]),
    out=st.integers(1, 9),
    chunk=st.sampled_from([1, 4, 64]),
    threads=st.sampled_from([2, 3]),
)
def test_dense_threaded_matches_serial_and_reference(
    seed, batch, features, out, chunk, threads
):
    rng = np.random.default_rng(seed)
    x_bits = rng.integers(0, 2, (batch, features), dtype=np.uint8)
    w_bits = rng.integers(0, 2, (out, features), dtype=np.uint8)
    reference = binary_dense_reference(
        x_bits * 2.0 - 1.0, w_bits * 2.0 - 1.0
    )
    for strategy in CONTRACTION_STRATEGIES:
        for fan_out in (None, threads):
            result = binary_dense_packed(
                x_bits,
                w_bits,
                strategy=strategy,
                threads=fan_out,
                out_channel_chunk=chunk,
            )
            assert np.array_equal(
                result.astype(np.float32), reference
            ), (strategy, fan_out)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "in_ch, size, block", [(256, 8, 56), (512, 4, 28)]
)
def test_popcount_row_blocks_match_gemm_and_reference(
    threads, in_ch, size, block
):
    """Row blocks that do not divide the rows stay exact and add no tiles.

    At 3x3, 256 channels are 36 words, so a 64-channel chunk walks its
    rows in blocks of ``_XOR_BLOCK_WORDS // (64 * 36) = 56``; 512
    channels are 72 words, in blocks of 28.  Neither block size divides
    the 2 x size x size rows.
    """
    x_bits, k_bits = _conv_case(3, batch=2, in_ch=in_ch, out_ch=70, size=size)
    reference = binary_conv2d_reference(
        x_bits * 2.0 - 1.0, k_bits * 2.0 - 1.0, stride=1, padding=1
    )
    words = in_ch * 9 // 64
    assert _XOR_BLOCK_WORDS // (64 * words) == block
    rows = 2 * size * size
    assert rows % block
    telemetry = ContractionTelemetry()
    popcount = binary_conv2d_packed(
        x_bits, k_bits, strategy="popcount", threads=threads,
        telemetry=telemetry,
    )
    gemm = binary_conv2d_packed(
        x_bits, k_bits, strategy="gemm", threads=threads
    )
    assert np.array_equal(popcount, gemm)
    assert np.array_equal(popcount.astype(np.float32), reference)
    unblocked_tiles = len(tile_spans(rows, threads)) * 2  # chunks 64 + 6
    assert telemetry.snapshot()["popcount"]["tiles"] == unblocked_tiles


def test_explicit_threads_on_base_strategy_matches_serial():
    """A positive ``threads`` forces the pool even for base strategies."""
    x_bits, k_bits = _conv_case(7, batch=4, in_ch=16, out_ch=6, size=6)
    serial = binary_conv2d_packed(x_bits, k_bits, strategy="popcount")
    for strategy in ("popcount", "gemm"):
        threaded = binary_conv2d_packed(
            x_bits, k_bits, strategy=strategy, threads=4
        )
        assert np.array_equal(threaded, serial)


# ----------------------------------------------------------------------
# Fused threshold -> pack
# ----------------------------------------------------------------------
@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**31 - 1),
    channels=st.sampled_from([1, 3, 8, 16, 64, 96, 128]),
    kernel_stride_pad=st.sampled_from([(3, 1, 1), (3, 2, 1), (1, 1, 0)]),
    with_shift=st.booleans(),
)
def test_threshold_pack_matches_unfused_pipeline(
    seed, channels, kernel_stride_pad, with_shift
):
    kernel, stride, padding = kernel_stride_pad
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, channels, 5, 5)).astype(np.float32)
    shift = (
        rng.standard_normal(channels).astype(np.float32)
        if with_shift
        else None
    )
    fused_words, num_bits = threshold_pack_patches(
        x, shift, kernel, stride, padding
    )
    shifted = x if shift is None else x - shift[None, :, None, None]
    patches = im2col_bits(binarize_bits(shifted), kernel, stride, padding)
    assert num_bits == patches.shape[-1]
    assert np.array_equal(fused_words, pack_bits(patches))


@settings(deadline=None, max_examples=30)
@given(
    seed=st.integers(0, 2**31 - 1),
    channels=st.sampled_from([2, 4, 17, 64, 128, 192]),
)
def test_pack_input_patches_matches_im2col_pack(seed, channels):
    """All three pack paths (aligned / word-multiple / row-tiled) agree."""
    rng = np.random.default_rng(seed)
    x_bits = rng.integers(0, 2, (2, channels, 4, 4), dtype=np.uint8)
    words, num_bits = pack_input_patches(x_bits, 3, 1, 1)
    patches = im2col_bits(x_bits, 3, 1, 1)
    assert num_bits == patches.shape[-1]
    assert np.array_equal(words, pack_bits(patches))


# ----------------------------------------------------------------------
# Validation order and strategy resolution
# ----------------------------------------------------------------------
class _ExplodingOperand:
    """An operand whose conversion must never happen on invalid knobs."""

    def __array__(self, dtype=None, copy=None):
        raise AssertionError("operand converted before knob validation")


def test_bad_strategy_rejected_before_conversion():
    with pytest.raises(ValueError, match="strategy"):
        binary_conv2d_packed(
            _ExplodingOperand(), _ExplodingOperand(), strategy="simd"
        )


def test_bad_chunk_rejected_before_conversion():
    with pytest.raises(ValueError, match="out_channel_chunk"):
        binary_conv2d_packed(
            _ExplodingOperand(),
            _ExplodingOperand(),
            out_channel_chunk=0,
        )
    with pytest.raises(ValueError, match="out_channel_chunk"):
        binary_dense_packed(
            _ExplodingOperand(),
            _ExplodingOperand(),
            out_channel_chunk=-3,
        )


def test_negative_threads_rejected():
    with pytest.raises(ValueError, match="threads"):
        binary_conv2d_packed(
            _ExplodingOperand(), _ExplodingOperand(), threads=-1
        )


def test_resolve_strategy_rules():
    strategies = CONTRACTION_STRATEGIES
    assert resolve_strategy("popcount", None, strategies) == ("popcount", 1)
    assert resolve_strategy("gemm", 0, strategies) == ("gemm", 1)
    assert resolve_strategy("gemm", 6, strategies) == ("gemm", 6)
    assert resolve_strategy("popcount", default_threads(), strategies) == (
        "popcount",
        default_threads(),
    )
    # threads= is the only fan-out setting: no strategy name implies one
    assert strategies == ("popcount", "gemm")
    for name in ("xnor", "popcount-threaded", "gemm-threaded"):
        with pytest.raises(ValueError, match="strategy"):
            resolve_strategy(name, None, strategies)


def test_default_threads_env_pin(monkeypatch):
    monkeypatch.setenv("REPRO_THREADS", "3")
    assert default_threads() == 3
    monkeypatch.setenv("REPRO_THREADS", "0")
    assert default_threads() == 1
    monkeypatch.setenv("REPRO_THREADS", "many")
    with pytest.raises(ValueError, match="REPRO_THREADS"):
        default_threads()


# ----------------------------------------------------------------------
# Tiling and telemetry plumbing
# ----------------------------------------------------------------------
@settings(deadline=None, max_examples=60)
@given(total=st.integers(0, 200), tiles=st.integers(1, 24))
def test_tile_spans_partition_the_range(total, tiles):
    spans = tile_spans(total, tiles)
    if total == 0:
        assert spans == []
        return
    assert len(spans) == min(tiles, total)
    assert spans[0][0] == 0
    assert spans[-1][1] == total
    for (_, stop), (start, _) in zip(spans, spans[1:]):
        assert stop == start
    lengths = [stop - start for start, stop in spans]
    assert max(lengths) - min(lengths) <= 1


def test_telemetry_records_and_merges():
    telemetry = ContractionTelemetry()
    x_bits, k_bits = _conv_case(11, batch=3, in_ch=8, out_ch=4, size=5)
    binary_conv2d_packed(
        x_bits, k_bits, strategy="popcount", telemetry=telemetry
    )
    binary_conv2d_packed(
        x_bits, k_bits, strategy="popcount", threads=2, telemetry=telemetry
    )
    stats = telemetry.snapshot()["popcount"]
    assert stats["calls"] == 2
    assert stats["threaded_calls"] == 1
    assert stats["max_threads"] == 2
    assert stats["tiles"] >= 2
    assert stats["seconds"] >= 0.0

    other = ContractionTelemetry()
    binary_conv2d_packed(x_bits, k_bits, strategy="gemm", telemetry=other)
    merged = ContractionTelemetry.merge(
        [telemetry.snapshot(), other.snapshot()]
    )
    assert merged["popcount"]["calls"] == 2
    assert merged["gemm"]["calls"] == 1
