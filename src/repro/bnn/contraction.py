"""Tiled contraction engine for the packed bit-plane kernels, on a thread pool.

The packed binary kernels (:func:`repro.bnn.ops.binary_conv2d_packed`,
:func:`~repro.bnn.ops.binary_dense_packed`) evaluate Eq. 2 as exact
integer contractions, which makes them embarrassingly parallel: any
tiling over the ``batch x out_channel`` output grid produces the same
integers because every partial sum of either strategy is a small exact
integer (so even the BLAS ``gemm`` strategy is reassociation-proof).
This module supplies the two pieces that turn that observation into the
serving hot path:

* **a shared worker pool** — the ``workers=`` fan-out idiom of
  ``compress_model`` / ``RtlBackend``, but *thread*-based so the packed
  operands are shared zero-copy between tiles (processes would have to
  pickle the whole im2col tensor).  numpy's bitwise/popcount ufuncs and
  the BLAS contraction all release the GIL on the tile sizes the engine
  produces, so tiles genuinely overlap on multi-core hosts.  The pool is
  lazily built, sized by ``REPRO_THREADS`` (or the CPU count) and shared
  by every kernel call in the process — the serving daemon's executor
  threads funnel into one bounded pool instead of oversubscribing.
* **a fused threshold -> pack stage** — :func:`threshold_pack_patches`
  lowers an RSign threshold straight into packed ``uint64`` patch words:
  one vectorised ``x >= shift`` comparison (no ``x - shift``
  intermediate), then a bit-domain im2col that never materialises the
  whole ``{0, 1}`` ``uint8`` patch tensor between ``im2col_bits`` and
  ``pack_bits``.  When the channel count divides the word width the
  input is packed once per *pixel* and patch words are assembled by
  gathering/shifting those per-pixel codes (64x less data through the
  im2col gather); otherwise the pack runs over bounded row tiles.

Telemetry: every contraction records per-strategy call/tile/second
counters into a :class:`ContractionTelemetry`, surfaced by
``InferencePlan.contraction_stats()`` and the serving snapshots the same
way the artifact store's ``fetch_stats()`` counters are.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .packing import WORD_BITS, pack_bits, packed_words, unpack_bits

__all__ = [
    "ContractionTelemetry",
    "contract_packed_patches",
    "default_threads",
    "resolve_strategy",
    "shared_pool",
    "threshold_pack_patches",
    "tile_spans",
]

#: environment knob pinning the engine's thread count (also the CI
#: reproducibility pin: ``REPRO_THREADS=1`` forces every tile serial)
THREADS_ENV = "REPRO_THREADS"

#: do not spawn more pool threads than this even on very wide hosts;
#: the kernels are memory-bandwidth bound well before 16 tiles overlap
_MAX_POOL_THREADS = 16


def default_threads() -> int:
    """The engine's automatic thread count.

    ``REPRO_THREADS`` pins it (values < 1 mean serial); otherwise the
    CPU count, capped at :data:`_MAX_POOL_THREADS`.  A single-core host
    resolves to 1, i.e. the serial path — threading is never forced
    where it cannot help.
    """
    pinned = os.environ.get(THREADS_ENV, "").strip()
    if pinned:
        try:
            return max(1, int(pinned))
        except ValueError:
            raise ValueError(
                f"{THREADS_ENV} must be an integer, got {pinned!r}"
            ) from None
    return max(1, min(os.cpu_count() or 1, _MAX_POOL_THREADS))


def resolve_strategy(
    strategy: str,
    threads: Optional[int],
    strategies: Sequence[str],
) -> Tuple[str, int]:
    """Validate ``strategy`` and resolve the effective thread count.

    Returns ``(strategy, threads)``.  ``threads`` is the only fan-out
    setting: a positive value tiles the contraction over the shared
    pool, and ``None``/``0``/``1`` all mean serial (pass
    :func:`default_threads` for the pool's automatic width).
    Validation happens here — before any operand conversion work — so
    a bad strategy string fails fast and cheap.
    """
    if strategy not in strategies:
        raise ValueError(
            f"unknown strategy {strategy!r}; valid: {tuple(strategies)}"
        )
    if threads is not None and threads < 0:
        raise ValueError(f"threads must be >= 0, got {threads}")
    return strategy, max(1, int(threads or 1))


# ----------------------------------------------------------------------
# Shared worker pool
# ----------------------------------------------------------------------
_POOL_LOCK = threading.Lock()
_POOL: Optional[ThreadPoolExecutor] = None


def shared_pool() -> ThreadPoolExecutor:
    """The process-wide tile pool, built lazily on first threaded call."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(
                max_workers=max(2, default_threads()),
                thread_name_prefix="repro-contract",
            )
        return _POOL


def tile_spans(total: int, tiles: int) -> List[Tuple[int, int]]:
    """Split ``range(total)`` into at most ``tiles`` contiguous spans."""
    if total <= 0:
        return []
    tiles = max(1, min(tiles, total))
    base, extra = divmod(total, tiles)
    spans = []
    start = 0
    for index in range(tiles):
        stop = start + base + (1 if index < extra else 0)
        spans.append((start, stop))
        start = stop
    return spans


def _run_tiles(
    work: Sequence[Callable[[], None]], threads: int
) -> None:
    """Execute tile thunks, on the shared pool when it can overlap them."""
    if threads <= 1 or len(work) <= 1:
        for thunk in work:
            thunk()
        return
    pool = shared_pool()
    futures = [pool.submit(thunk) for thunk in work]
    error: Optional[BaseException] = None
    for future in futures:
        try:
            future.result()
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            error = error or exc
    if error is not None:
        raise error


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------
class ContractionTelemetry:
    """Per-strategy contraction counters (calls, tiles, seconds).

    One instance rides on each plan step; ``snapshot()`` is merged into
    ``InferencePlan.contraction_stats()`` and from there into the
    serving daemon's per-tenant metrics, mirroring how store
    ``fetch_stats()`` counters surface.  Thread-safe: the daemon may run
    one plan from several executor threads at once.
    """

    __slots__ = ("_lock", "_stats")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stats: Dict[str, Dict[str, float]] = {}

    def record(
        self, strategy: str, tiles: int, threads: int, seconds: float
    ) -> None:
        with self._lock:
            entry = self._stats.setdefault(
                strategy,
                {
                    "calls": 0,
                    "tiles": 0,
                    "threaded_calls": 0,
                    "max_threads": 0,
                    "seconds": 0.0,
                },
            )
            entry["calls"] += 1
            entry["tiles"] += tiles
            if threads > 1:
                entry["threaded_calls"] += 1
            entry["max_threads"] = max(entry["max_threads"], threads)
            entry["seconds"] += seconds

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {
                strategy: dict(entry)
                for strategy, entry in self._stats.items()
            }

    @staticmethod
    def merge(
        snapshots: Sequence[Dict[str, Dict[str, float]]]
    ) -> Dict[str, Dict[str, float]]:
        """Combine per-step snapshots into one per-strategy summary."""
        merged: Dict[str, Dict[str, float]] = {}
        for snapshot in snapshots:
            for strategy, entry in snapshot.items():
                into = merged.setdefault(
                    strategy,
                    {
                        "calls": 0,
                        "tiles": 0,
                        "threaded_calls": 0,
                        "max_threads": 0,
                        "seconds": 0.0,
                    },
                )
                for key, value in entry.items():
                    if key == "max_threads":
                        into[key] = max(into[key], value)
                    else:
                        into[key] += value
        return merged


# ----------------------------------------------------------------------
# Fused threshold -> pack
# ----------------------------------------------------------------------
#: bound on the transient row-tile patch tensor of the general path
_PACK_TILE_BYTES = 1 << 20


def _threshold_bits(
    x: np.ndarray, shift: Optional[np.ndarray]
) -> np.ndarray:
    """``x >= shift`` straight to {0, 1} ``uint8``, no float intermediate.

    Bit-identical to the reference's ``binarize(x - shift)``: IEEE
    subtraction of unequal floats never rounds to zero (gradual
    underflow keeps near cancellations exact), so the sign of
    ``x - shift`` and the predicate ``x >= shift`` always agree.
    """
    if shift is None:
        bits = x >= 0
    else:
        bits = x >= shift[None, :, None, None]
    # bool and uint8 share a memory layout; the view skips a copy
    return bits.view(np.uint8)


def _per_pixel_codes(bits_nhwc: np.ndarray, channels: int) -> np.ndarray:
    """Pack each pixel's channel bits into one big-endian integer code."""
    packed = np.packbits(bits_nhwc, axis=-1)  # (..., ceil(C / 8)) bytes
    if channels <= 8:
        return packed[..., 0].astype(np.uint64) >> np.uint64(8 - channels)
    codes = packed[..., 0].astype(np.uint64)
    for byte_index in range(1, packed.shape[-1]):
        codes = (codes << np.uint64(8)) | packed[..., byte_index]
    return codes


def _pack_patches_word_aligned(
    bits: np.ndarray, kernel: int, stride: int, padding: int
) -> np.ndarray:
    """Patch words when whole pixels tile words (``64 % C == 0``).

    Each pixel's channel block is one ``C``-bit code; ``r = 64 / C``
    consecutive patch positions share a word, so patch words assemble
    from a sliding-window gather of the per-pixel codes — the wide
    ``uint8`` patch tensor never exists.
    """
    batch, channels, height, width = bits.shape
    codes = _per_pixel_codes(bits.transpose(0, 2, 3, 1), channels)
    if padding:
        codes = np.pad(
            codes,
            ((0, 0), (padding, padding), (padding, padding)),
            constant_values=0,  # a 0 bit decodes to -1, like im2col_bits
        )
    windows = np.lib.stride_tricks.sliding_window_view(
        codes, (kernel, kernel), axis=(1, 2)
    )[:, ::stride, ::stride]
    batch, out_h, out_w = windows.shape[:3]
    positions = kernel * kernel
    per_word = WORD_BITS // channels
    words = packed_words(positions * channels)
    padded = np.zeros(
        (batch, out_h, out_w, words * per_word), dtype=np.uint64
    )
    padded[..., :positions] = windows.reshape(batch, out_h, out_w, positions)
    grouped = padded.reshape(batch, out_h, out_w, words, per_word)
    shifts = (
        WORD_BITS - channels * (np.arange(per_word) + 1)
    ).astype(np.uint64)
    return (grouped << shifts).sum(axis=-1, dtype=np.uint64)


def _pack_patches_word_multiple(
    bits: np.ndarray, kernel: int, stride: int, padding: int
) -> np.ndarray:
    """Patch words when pixels span whole words (``C % 64 == 0``).

    The input packs once per pixel into ``C / 64`` words; the im2col
    gather then moves words, not bits — 64x less data than the uint8
    patch tensor it replaces.
    """
    batch, channels, height, width = bits.shape
    pixel_words = pack_bits(bits.transpose(0, 2, 3, 1))
    if padding:
        pixel_words = np.pad(
            pixel_words,
            ((0, 0), (padding, padding), (padding, padding), (0, 0)),
            constant_values=0,
        )
    windows = np.lib.stride_tricks.sliding_window_view(
        pixel_words, (kernel, kernel), axis=(1, 2)
    )[:, ::stride, ::stride]
    # (N, oh, ow, C/64 words, kh, kw) -> position-major (kh, kw, words)
    out = windows.transpose(0, 1, 2, 4, 5, 3)
    batch, out_h, out_w = out.shape[:3]
    return np.ascontiguousarray(out).reshape(batch, out_h, out_w, -1)


def _pack_patches_row_tiled(
    bits: np.ndarray, kernel: int, stride: int, padding: int
) -> np.ndarray:
    """General-channel fallback: pack over bounded output-row tiles.

    The classic ``im2col_bits`` + ``pack_bits`` pipeline, but the uint8
    patch tensor only ever exists for a slice of output rows small
    enough to stay cache-resident (:data:`_PACK_TILE_BYTES`).
    """
    from .ops import conv_output_size, im2col_bits

    batch, channels, height, width = bits.shape
    out_h = conv_output_size(height, kernel, stride, padding)
    out_w = conv_output_size(width, kernel, stride, padding)
    num_bits = kernel * kernel * channels
    words = packed_words(num_bits)
    out = np.empty((batch, out_h, out_w, words), dtype=np.uint64)
    row_bytes = max(1, batch * out_w * num_bits)
    rows_per_tile = max(1, _PACK_TILE_BYTES // row_bytes)
    if rows_per_tile >= out_h:
        out[:] = pack_bits(im2col_bits(bits, kernel, stride, padding))
        return out
    padded = bits
    if padding:
        padded = np.pad(
            padded,
            ((0, 0), (0, 0), (padding, padding), (padding, padding)),
            constant_values=0,
        )
    for row_start in range(0, out_h, rows_per_tile):
        row_stop = min(row_start + rows_per_tile, out_h)
        in_start = row_start * stride
        in_stop = (row_stop - 1) * stride + kernel
        tile = im2col_bits(
            padded[:, :, in_start:in_stop, :], kernel, stride, 0
        )
        out[:, row_start:row_stop] = pack_bits(tile)
    return out


def threshold_pack_patches(
    x: np.ndarray,
    shift: Optional[np.ndarray],
    kernel: int,
    stride: int,
    padding: int,
) -> Tuple[np.ndarray, int]:
    """Fused RSign threshold -> bit-domain im2col -> packed patch words.

    ``x`` is the float ``(N, C, H, W)`` activation; ``shift`` the
    preceding RSign's per-channel threshold (``None`` means the bare
    binary-conv zero threshold).  Returns ``(patch_words, num_bits)``
    where ``patch_words`` has shape ``(N, out_h, out_w, words)`` —
    bit-identical to ``pack_bits(im2col_bits(binarize_bits(x - shift),
    ...))`` with neither the float subtraction nor the full uint8 patch
    tensor ever materialised.
    """
    bits = _threshold_bits(np.asarray(x, dtype=np.float32), shift)
    return pack_input_patches(bits, kernel, stride, padding)


def pack_input_patches(
    x_bits: np.ndarray, kernel: int, stride: int, padding: int
) -> Tuple[np.ndarray, int]:
    """Bit-domain im2col straight to packed words (layout of Fig. 5).

    The packed twin of ``im2col_bits``: same patch bit order, but the
    result is already the ``uint64`` word tensor the contraction
    strategies consume.
    """
    x_bits = np.asarray(x_bits, dtype=np.uint8)
    if x_bits.ndim != 4:
        raise ValueError(f"expected (N, C, H, W) input, got {x_bits.ndim} dims")
    channels = x_bits.shape[1]
    num_bits = kernel * kernel * channels
    if channels and WORD_BITS % channels == 0:
        words = _pack_patches_word_aligned(x_bits, kernel, stride, padding)
    elif channels % WORD_BITS == 0:
        words = _pack_patches_word_multiple(x_bits, kernel, stride, padding)
    else:
        words = _pack_patches_row_tiled(x_bits, kernel, stride, padding)
    return words, num_bits


# ----------------------------------------------------------------------
# Tiled contraction
# ----------------------------------------------------------------------
#: bound on the popcount strategy's xor intermediate of one row block
#: (``words x chunk x block`` uint64 words, 1 MiB): each block is xored,
#: popcounted and summed while it is still cache-resident
_XOR_BLOCK_WORDS = 1 << 17


def contract_packed_patches(
    patch_words: np.ndarray,
    w_words: Optional[np.ndarray],
    num_bits: int,
    strategy: str,
    threads: int,
    out_channel_chunk: int,
    kernel_signs: Optional[np.ndarray] = None,
    telemetry: Optional[ContractionTelemetry] = None,
) -> np.ndarray:
    """Contract packed patches against packed weights, tiled and threaded.

    ``patch_words``: ``(..., words)`` packed patches (conv: one patch
    per output pixel; dense: one per row).  ``w_words``: ``(out,
    words)`` packed weights (optional for ``gemm`` when
    ``kernel_signs`` is supplied).  Returns the exact Eq. 2 integer dot
    products with shape ``(..., out)`` as ``int32`` — identical for
    every strategy, thread count and tiling, because every partial sum
    is a small exact integer.

    ``popcount`` tiles over ``batch x out_channel`` (a tile spans
    ``out_channel_chunk`` output channels) and walks each tile's rows
    in blocks whose xor intermediate holds at most
    :data:`_XOR_BLOCK_WORDS` words; the blocks live inside a tile, so
    they change neither the tile count nor the thread fan-out.
    ``gemm`` tiles over batch only — each tile unpacks its patch words
    to the {+1, -1} plane once and contracts it with BLAS against
    ``kernel_signs`` (built per weight version by the caller), so both
    strategies consume the *same* packed patches and the old per-call
    ``bit_signs(patches)`` float pass over the whole tensor is gone.
    """
    started = time.perf_counter()
    lead_shape = patch_words.shape[:-1]
    if strategy == "gemm" and kernel_signs is None:
        if w_words is None:
            raise ValueError("gemm needs kernel_signs or packed weights")
        kernel_signs = (
            unpack_bits(w_words, num_bits).astype(np.float32) * 2.0 - 1.0
        )
    out_ch = (
        kernel_signs.shape[0] if strategy == "gemm" else w_words.shape[0]
    )
    flat = patch_words.reshape(-1, patch_words.shape[-1])
    rows = flat.shape[0]
    out = np.empty((rows, out_ch), dtype=np.int32)

    threads = max(1, threads)
    row_spans = tile_spans(rows, threads)
    tiles = 0
    work: List[Callable[[], None]] = []

    if strategy == "gemm":
        # a view, not a copy: F-ordered signs (``KernelEntry.signs``)
        # make it C-contiguous, the BLAS non-transposed operand
        weights_t = kernel_signs.T
        # BLAS needs a float destination; contract into a scratch and
        # round-trip to int32 exactly (every value is a small integer)
        scratch = np.empty((rows, out_ch), dtype=np.float32)

        def gemm_tile(row_start: int, row_stop: int) -> None:
            signs = unpack_bits(
                flat[row_start:row_stop], num_bits
            ).astype(np.float32)
            signs *= 2.0
            signs -= 1.0
            np.matmul(signs, weights_t, out=scratch[row_start:row_stop])

        for row_start, row_stop in row_spans:
            work.append(
                lambda a=row_start, b=row_stop: gemm_tile(a, b)
            )
            tiles += 1
        _run_tiles(work, threads)
        np.copyto(out, scratch, casting="unsafe")
    elif strategy == "popcount":
        # word-major operands put the long row axis innermost, so each
        # xor/popcount pass runs over contiguous rows, and the word sum
        # becomes an add of whole (chunk, block) planes
        patches_t = np.ascontiguousarray(flat.T)[:, None, :]
        chunk_words = min(out_channel_chunk, out_ch) * flat.shape[1]
        block = max(1, _XOR_BLOCK_WORDS // max(1, chunk_words))

        def popcount_tile(
            row_start: int, row_stop: int, ch_start: int, ch_stop: int
        ) -> None:
            weights_t = w_words[ch_start:ch_stop].T[:, :, None]
            for start in range(row_start, row_stop, block):
                stop = min(start + block, row_stop)
                xor = weights_t ^ patches_t[..., start:stop]
                mismatches = np.bitwise_count(xor).sum(axis=0, dtype=np.int32)
                out[start:stop, ch_start:ch_stop] = (
                    num_bits - 2 * mismatches.T
                )

        for row_start, row_stop in row_spans:
            for ch_start in range(0, out_ch, out_channel_chunk):
                ch_stop = min(ch_start + out_channel_chunk, out_ch)
                work.append(
                    lambda a=row_start, b=row_stop, c=ch_start, d=ch_stop:
                    popcount_tile(a, b, c, d)
                )
                tiles += 1
        _run_tiles(work, threads)
    else:  # pragma: no cover - resolve_strategy guards the public paths
        raise ValueError(f"unknown strategy {strategy!r}")

    if telemetry is not None:
        telemetry.record(
            strategy, tiles, threads, time.perf_counter() - started
        )
    return out.reshape(*lead_shape, out_ch)
