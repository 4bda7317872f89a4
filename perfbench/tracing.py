"""Per-layer tracing from outside the program.

:class:`Trace` replaces public names of the layers (``core``, ``store``,
``infer``, ``bnn``, ``serve``, ``hw``, ``sim``) where their callers look
them up with wrappers that time each call and count its work, and puts
the originals back on :meth:`Trace.uninstall`.  Spans are kept in memory
and summed per name; only the traced run (``--trace 1``) installs them,
so the untraced run measures the program as it ships.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

#: every per-layer metric the traced run prints, with its unit
PER_LAYER_UNITS = {
    "core.compress_block_s": "s",
    "core.sequences_encoded": "count",
    "core.decode_s": "s",
    "core.sequences_decoded": "count",
    "store.blobs_fetched": "count",
    "store.bytes_read": "bytes",
    "store.resolve_s": "s",
    "infer.compile_s": "s",
    "infer.cache_hits": "count",
    "infer.cache_misses": "count",
    "infer.cache_hit_ratio": "ratio",
    "infer.float_s": "s",
    "infer.packed_conv_s": "s",
    "infer.packed_dense_s": "s",
    "bnn.threshold_pack_s": "s",
    "bnn.contract_gemm_s": "s",
    "bnn.contract_popcount_s": "s",
    "bnn.unpack_s": "s",
    "bnn.contract_calls": "count",
    "bnn.contract_tiles": "count",
    "serve.batches": "count",
    "serve.batch_images_mean": "images",
    "serve.rejected": "count",
    "serve.tenant_plan_s": "s",
    "serve.run_batch_s": "s",
    "serve.run_batch_ms_p50": "ms",
    "serve.latency_p90_ms": "ms",
    "serve.closed_loop_rps": "images/s",
    "serve.generator_lag_ms_p50": "ms",
    "serve.generator_lag_ms_max": "ms",
    "hw.perf_s": "s",
    "hw.cache_line_accesses": "count",
    "hw.perf_ns_per_line_access": "ns",
    "hw.dram_bytes.baseline": "bytes",
    "hw.dram_bytes.hw_compressed": "bytes",
    "hw.dram_bytes.sw_compressed": "bytes",
    "hw.rtl_s": "s",
    "hw.rtl_sequences": "count",
    "hw.rtl_cycles": "cycles",
    "hw.rtl_stall_cycles": "cycles",
    "sim.compression_s": "s",
}

#: thread-name prefix of the serving daemon's executor
_SERVE_THREAD_PREFIX = "repro-serve"


class Trace:
    """Summed spans, counters and samples of one benchmark run."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._undo: List[Callable[[], None]] = []
        self._simulating = 0
        self._paused = False
        self.values: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.plans: List[Any] = []

    def add(self, name: str, amount: float) -> None:
        if self._paused:
            return
        with self._lock:
            self.values[name] += amount

    def sample(self, name: str, value: float) -> None:
        if self._paused:
            return
        with self._lock:
            self.samples[name].append(value)

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (the probes of other phases:
        per-layer metrics describe the workload's main phase only)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    # ------------------------------------------------------------------
    # Installing the wrappers
    # ------------------------------------------------------------------
    def _replace(self, owner: Any, name: str, make: Callable) -> None:
        original = vars(owner)[name]
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        setattr(owner, name, replacement)
        self._undo.append(lambda: setattr(owner, name, original))

    def _span(self, span: Optional[str], count: Callable[..., Dict[str, float]] = None):
        """Wrapper factory: time every call as ``span`` (unless ``None``),
        then add what ``count(result, *args)`` counts of its work."""

        def make(func):
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                started = time.perf_counter()
                result = func(*args, **kwargs)
                if span is not None:
                    self.add(span, time.perf_counter() - started)
                if count is not None:
                    for name, amount in count(result, *args, **kwargs).items():
                        self.add(name, amount)
                return result

            return wrapper

        return make

    def install(self) -> None:
        """Wrap every traced name; :meth:`uninstall` puts the originals back."""
        from repro.bnn import contraction, ops
        from repro.core.pipeline import CompressionPipeline
        from repro.deploy import ArtifactReader
        from repro.hw.cache import Cache
        from repro.hw.perf import PerfModel
        from repro.hw.rtl import RtlDecodingUnit
        from repro.infer import plan as plan_module
        from repro.infer.plan import (
            FloatStep,
            InferencePlan,
            PackedConvStep,
            PackedDenseStep,
        )
        from repro.serve.tenants import Tenant
        from repro.sim.simulator import Simulator
        from repro.store import ArtifactStore

        def encoded(result, pipeline, kernels, *args, **kwargs):
            return {
                "core.sequences_encoded": sum(
                    k.shape[0] * k.shape[1] for k in kernels
                )
            }

        def decoded(bits, reader, entry):
            if entry.get("storage") != "compressed3x3":
                return {}
            return {"core.sequences_decoded": bits.shape[0] * bits.shape[1]}

        def compiled(plan, *args, **kwargs):
            if not self._paused:
                with self._lock:
                    self.plans.append(plan)
            return {}

        def replayed(outcome, unit, stream):
            stats = outcome[2]
            return {
                "hw.rtl_sequences": stats.sequences_decoded,
                "hw.rtl_cycles": stats.cycles,
                "hw.rtl_stall_cycles": stats.stall_cycles,
            }

        def line_accesses(cycles, cache, address, size):
            line = cache.config.line_bytes
            return {
                "hw.cache_line_accesses": (address + size - 1) // line
                - address // line
                + 1
            }

        def simulated(timing, *args, **kwargs):
            return {
                f"hw.dram_bytes.{timing.mode}": sum(
                    layer.dram_bytes for layer in timing.layers
                )
            }

        replace = self._replace
        replace(CompressionPipeline, "compress_block",
                self._span("core.compress_block_s", encoded))
        replace(CompressionPipeline, "compress_model", self._sim_compression)
        replace(Simulator, "run", self._simulator_run)
        replace(ArtifactReader, "kernel_bits", self._span("core.decode_s", decoded))
        replace(ArtifactStore, "resolve", self._span("store.resolve_s"))
        replace(InferencePlan, "from_artifact",
                self._span("infer.compile_s", compiled))
        replace(InferencePlan, "from_model", self._span("infer.compile_s", compiled))
        replace(InferencePlan, "run_batch", self._serve_run_batch)
        replace(FloatStep, "run", self._span("infer.float_s"))
        replace(PackedConvStep, "run", self._span("infer.packed_conv_s"))
        replace(PackedDenseStep, "run", self._span("infer.packed_dense_s"))
        replace(plan_module, "threshold_pack_patches",
                self._span("bnn.threshold_pack_s"))
        for module in (plan_module, ops):
            replace(module, "contract_packed_patches", self._contract)
        for module in (plan_module, ops, contraction):
            replace(module, "unpack_bits", self._span("bnn.unpack_s"))
        replace(Tenant, "plan", self._span("serve.tenant_plan_s"))
        replace(PerfModel, "simulate_model", self._span("hw.perf_s", simulated))
        replace(Cache, "access_bytes", self._span(None, line_accesses))
        replace(RtlDecodingUnit, "run", self._span("hw.rtl_s", replayed))

    def uninstall(self) -> None:
        """Put every original back, newest first."""
        while self._undo:
            self._undo.pop()()

    # wrappers whose bookkeeping depends on the caller ------------------
    def _sim_compression(self, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            result = func(*args, **kwargs)
            if self._simulating:
                self.add("sim.compression_s", time.perf_counter() - started)
            return result

        return wrapper

    def _simulator_run(self, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            self._simulating += 1
            try:
                return func(*args, **kwargs)
            finally:
                self._simulating -= 1

        return wrapper

    def _serve_run_batch(self, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            result = func(*args, **kwargs)
            elapsed = time.perf_counter() - started
            if threading.current_thread().name.startswith(_SERVE_THREAD_PREFIX):
                self.add("serve.run_batch_s", elapsed)
                self.sample("serve.run_batch_ms", elapsed * 1e3)
            return result

        return wrapper

    def _contract(self, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            strategy = kwargs.get("strategy", args[3] if len(args) > 3 else None)
            started = time.perf_counter()
            result = func(*args, **kwargs)
            self.add(f"bnn.contract_{strategy}_s", time.perf_counter() - started)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # Reading the metrics
    # ------------------------------------------------------------------
    def metrics(self) -> Dict[str, float]:
        """Every per-layer metric, summed over the main phase."""
        with self._lock:
            values = defaultdict(float, self.values)
            samples = {name: list(items) for name, items in self.samples.items()}
            plans = list(self.plans)
        for plan in plans:
            cache = plan.cache_stats()
            if cache is not None:
                values["infer.cache_hits"] += cache["hits"]
                values["infer.cache_misses"] += cache["misses"]
            fetch = plan.fetch_stats()
            if fetch is not None:
                values["store.blobs_fetched"] += fetch["fetched_blobs"]
                values["store.bytes_read"] += fetch["bytes_read"]
            for entry in plan.contraction_stats().values():
                values["bnn.contract_calls"] += entry["calls"]
                values["bnn.contract_tiles"] += entry["tiles"]

        def ratio(numerator: float, denominator: float) -> float:
            return numerator / denominator if denominator else 0.0

        values["infer.cache_hit_ratio"] = ratio(
            values["infer.cache_hits"],
            values["infer.cache_hits"] + values["infer.cache_misses"],
        )
        values["serve.batch_images_mean"] = ratio(
            values["serve.batch_images"], values["serve.batches"]
        )
        values["hw.perf_ns_per_line_access"] = ratio(
            values["hw.perf_s"] * 1e9, values["hw.cache_line_accesses"]
        )
        for name, key in (
            ("serve.run_batch_ms_p50", "serve.run_batch_ms"),
            ("serve.generator_lag_ms_p50", "serve.generator_lag_ms"),
        ):
            items = samples.get(key)
            values[name] = statistics.median(items) if items else 0.0
        values["serve.generator_lag_ms_max"] = max(
            samples.get("serve.generator_lag_ms", [0.0])
        )
        return {name: float(values[name]) for name in PER_LAYER_UNITS}
