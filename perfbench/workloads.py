"""The benchmark's workloads, built from phases over the public API.

Every run reports every end-to-end metric, so each workload runs its
*main* phases at full size for the metrics it exists for, plus a small
fixed *probe* of each other phase on the 16/32-channel toy model (or
the registered ``small-bnn`` scenario model).  Probe repetitions are
spread over the main phases (see :func:`measure`) so that they sample
the host over the whole run, not over one short window.  Every phase
works in rounds, and every host-time metric is the best round of the
run (shortest time, highest rate, lowest median latency): on a shared
host the best round moves far less between runs than the median does.

A phase's ``steps()`` generator does the work and yields at the points
where probes may run; ``finish()`` records the phase's metrics and
returns a ``verify`` callable that checks its outputs after timing.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Tuple

import numpy as np

from repro.bnn.reactnet import build_small_bnn
from repro.core.frequency import FrequencyTable
from repro.core.pipeline import CompressionPipeline, ModelCompressionResult
from repro.core.simplified import SimplifiedTree
from repro.core.streams import CompressedKernel
from repro.deploy import load_compressed_model, save_compressed_model
from repro.hw.rtl import RtlDecodingUnit
from repro.infer import InferencePlan
from repro.serve import QueueFullError, ServeConfig, ServingDaemon
from repro.sim.scenario import Scenario, get_model, paper_pipeline
from repro.sim.simulator import Simulator
from repro.store import ArtifactStore
from repro.synth.weights import generate_reactnet_kernels

import checks

Verify = Callable[[], None]

#: the 16/32-channel 8x8 toy of the serving benches (overhead-bound)
TOY_CHANNELS = (16, 32)
TOY_IMAGE = 8
TOY_POOL = 512
NUM_CLASSES = 10

#: reactnet-serve: 3x32x32 images in minibatches of 16, cycling a pool
REACTNET_IMAGE = 32
REACTNET_BATCH = 16
REACTNET_POOL_BATCHES = 2

#: popcount-wide: ReActNet widths at 3x16x16, minibatches of 64
WIDE_CHANNELS = (128, 256)
WIDE_IMAGE = 16
WIDE_BATCH = 64
WIDE_POOL_BATCHES = 4

#: daemon load: open-loop Poisson rate, closed-loop client count, and
#: the share of the daemon's time given to the open loop
DAEMON_RATE = 1000.0
DAEMON_CLIENTS = 32
DAEMON_OPEN_SHARE = 0.6
DAEMON_WARMUP = 32

#: probes: repetitions per run, and the work in each repetition
PROBE_REPEATS = 30
PROBE_BATCHES = 4
PROBE_REQUESTS = 60
PROBE_CLOSED_SECONDS = 0.06
#: the compression/simulation probe runs the registered ``small-bnn``
#: model with fixed kernels, so its counts are the same in every run
PROBE_SEED = 0

#: blocks whose per-cycle FSM replay is cheap enough to run every time
#: (ReActNet blocks 1-4; the FSM takes about 0.1 s on the largest)
FSM_ORACLE_MAX_SEQUENCES = 16_384


class NoTrace:
    """Stand-in for :class:`tracing.Trace` in the untraced run."""

    def add(self, name: str, amount: float) -> None:
        pass

    def sample(self, name: str, value: float) -> None:
        pass

    def paused(self):
        return contextlib.nullcontext()


class Run:
    """One benchmark run: its seed, budget, scratch root and results."""

    def __init__(self, seed: int, seconds: float, root: Path, trace=None) -> None:
        self.seed = seed
        self.seconds = seconds
        self.root = root
        self.trace = trace if trace is not None else NoTrace()
        self.metrics: Dict[str, float] = {}
        self.attempted = 0

    def rng(self, stream: int) -> np.random.Generator:
        """An input generator derived from the run's seed."""
        return np.random.default_rng([self.seed, stream])


def _timed(op: Callable[[], object]) -> Tuple[float, object]:
    started = time.perf_counter()
    result = op()
    return time.perf_counter() - started, result


def _another_round(spent: float, last_round: float, budget: float) -> bool:
    """Whether a main phase starts another round: it stops at the round
    boundary nearest to ``budget`` seconds of main-phase time."""
    return spent + last_round / 2 < budget


def _chunks(images: np.ndarray, batch: int) -> List[np.ndarray]:
    return [images[i:i + batch] for i in range(0, len(images), batch)]


# ----------------------------------------------------------------------
# Fixtures shared by several phases
# ----------------------------------------------------------------------
def _publish(model, store: Path, name: str):
    """Publish ``model`` losslessly; return (ref, reloaded model, bits)."""
    installed = [conv.binary_weight_bits() for conv in model.binary_conv_layers()]
    ref = save_compressed_model(model, f"{store}#{name}")
    return ref, load_compressed_model(ref), installed


class Toy:
    """The toy model, published into a store and reloaded from it."""

    def __init__(self, run: Run) -> None:
        self.model = build_small_bnn(
            in_channels=1, num_classes=NUM_CLASSES, channels=TOY_CHANNELS,
            image_size=TOY_IMAGE, seed=run.seed,
        )
        self.model.eval()
        self.ref, self.reloaded, self.installed = _publish(
            self.model, run.root / "store", "toy"
        )
        self.images = run.rng(1).standard_normal(
            (TOY_POOL, 1, TOY_IMAGE, TOY_IMAGE)
        ).astype(np.float32)
        self.reference = self.reloaded.forward(self.images)
        # first-call costs (imports, BLAS start-up) are paid here
        InferencePlan.from_artifact(self.ref).run_batch(self.images[:16])
        InferencePlan.from_model(self.model, strategy="popcount").run_batch(
            self.images[:16]
        )


# ----------------------------------------------------------------------
# Phase: compression + simulation (the paper's evaluation)
# ----------------------------------------------------------------------
def _eval_scenario(model: str, seed: int) -> Scenario:
    return Scenario(
        name=f"bench-{model}", model=model, seed=seed,
        backends=("rtl", "analytic"),
    )


def _verify_compression(kernels, result, max_distance: int) -> None:
    total = 0
    for block, kernel in kernels.items():
        block_result = result.blocks[block]
        clustering = block_result.clustering
        clustered = checks.check_clustered_block(
            checks.kernel_sequences(kernel),
            np.concatenate(block_result.decode_sequences()),
            clustering.replacements if clustering is not None else {},
            max_distance,
            block,
        )
        tree = block_result.codec.tree
        lengths = [tree.code_length_of(s) for s in range(checks.NUM_SEQUENCES)]
        checks.check_payload_bits(
            clustered, lengths, block_result.compressed_bits, block
        )
        total += block_result.compressed_bits
    checks.require(
        total == result.compressed_bits,
        f"model payload {result.compressed_bits} bits, blocks sum to {total}",
    )


def _verify_simulation(scenario: Scenario, kernels, report) -> None:
    system = scenario.system
    capacities = tuple(dict(scenario.pipeline.codec_params)["capacities"])
    blocks = report.sections["rtl"]["blocks"]
    for block, kernel in kernels.items():
        sequences = checks.kernel_sequences(kernel)
        stream = CompressedKernel.from_sequences(
            sequences, kernel.shape[:2],
            SimplifiedTree(FrequencyTable.from_sequences(sequences), capacities),
        )
        unit = RtlDecodingUnit(
            system.decoder,
            memory_latency=max(system.memory.latency_cycles, 1),
            parse_rate=max(1, int(system.decoder.sequences_per_cycle)),
        )
        decoded, _, stats = unit.run(stream)
        checks.check_rtl_block(decoded, sequences, block)
        reported = blocks[str(block)]
        checks.check_rtl_oracle(reported, vars(stats), block)
        if sequences.size <= FSM_ORACLE_MAX_SEQUENCES:
            _, _, fsm = unit.run_fsm(stream)
            checks.check_rtl_oracle(reported, vars(fsm), block)
    line = system.l1.line_bytes
    ratios = report.layer_ratios
    for mode, timing in report.timings.items():
        rows = []
        for layer in timing.layers:
            workload = layer.workload
            payload = workload.weight_bytes
            if mode != "baseline" and workload.kind == "conv3x3":
                payload = math.ceil(payload / ratios.get(workload.name, 1.0))
            rows.append(
                {"name": workload.name, "payload_bytes": payload,
                 "dram_bytes": layer.dram_bytes}
            )
        checks.check_dram_bytes(rows, line, mode)


#: the end-to-end metrics an evaluation phase can set
EVAL_METRICS = ("table5_s", "simulate_s", "compressed_bits", "sim_hw_cycles")


class EvalPhase:
    """Compression rounds and ``Simulator.run`` of one scenario model.

    A compression round runs ``compress_model`` on each block alone and
    times each call.  The paper's pipeline compresses blocks apart
    (``merge_blocks`` off, no workers), so the sum over blocks of each
    block's fastest call is the model's compression time, taken from many
    short samples.  The main phase runs compression rounds for ``budget``
    seconds with one ``Simulator.run`` after the first round; a probe
    repetition is one compression round and one simulation.  ``reports``
    names the end-to-end metrics the phase sets.
    """

    def __init__(self, run: Run, model: str, kernels, seed: int, probe: bool,
                 budget: float = 0.0, reports=EVAL_METRICS) -> None:
        self.run = run
        self.kernels = kernels
        self.pipeline = CompressionPipeline(paper_pipeline())
        self.scenario = _eval_scenario(model, seed)
        self.probe = probe
        self.budget = budget
        self.reports = reports
        self.block_s: Dict[object, List[float]] = {block: [] for block in kernels}
        self.simulate_s: List[float] = []
        self.rounds = 0
        self.blocks: Dict[object, object] = {}
        self.report = None

    def _compress_round(self) -> float:
        spent = 0.0
        for block, kernel in self.kernels.items():
            elapsed, result = _timed(
                lambda: self.pipeline.compress_model({block: kernel})
            )
            self.block_s[block].append(elapsed)
            self.blocks[block] = result.blocks[block]
            spent += elapsed
        self.rounds += 1
        return spent

    def _simulate(self) -> float:
        elapsed, self.report = _timed(lambda: Simulator().run(self.scenario))
        self.simulate_s.append(elapsed)
        return elapsed

    def steps(self) -> Iterator[None]:
        if self.probe:
            for _ in range(PROBE_REPEATS):
                self._compress_round()
                self._simulate()
                yield
            return
        spent = 0.0
        while True:
            last_round = self._compress_round()
            if self.rounds == 1:
                yield
                last_round += self._simulate()
            spent += last_round
            if not _another_round(spent, last_round, self.budget):
                return
            yield

    def finish(self) -> Verify:
        run = self.run
        run.attempted += self.rounds * len(self.kernels) + len(self.simulate_s)
        result = ModelCompressionResult(
            config=self.pipeline.config, blocks=dict(sorted(self.blocks.items()))
        )
        report = self.report
        values = {
            "table5_s": sum(min(times) for times in self.block_s.values()),
            "simulate_s": min(self.simulate_s),
            "compressed_bits": result.compressed_bits,
            "sim_hw_cycles": report.sections["analytic"]["modes"][
                "hw_compressed"]["total_cycles"],
        }
        for name in self.reports:
            run.metrics[name] = values[name]
        max_distance = self.pipeline.config.clustering.max_distance

        def verify() -> None:
            _verify_compression(self.kernels, result, max_distance)
            _verify_simulation(self.scenario, self.kernels, report)

        return verify


# ----------------------------------------------------------------------
# Phase: offline serving from the store
# ----------------------------------------------------------------------
class ServePhase:
    """Rounds of a cold start from a ``<store>#<name>`` ref followed by
    steady minibatches.

    A cold start is ``InferencePlan.from_artifact`` with its defaults up
    to the first minibatch's logits.  A main-phase round is a cold start
    and one steady minibatch, repeated for ``budget`` seconds; a probe
    repetition is a cold start and :data:`PROBE_BATCHES` steady
    minibatches.
    """

    def __init__(self, run: Run, ref, reloaded, installed, images: np.ndarray,
                 probe: bool, budget: float = 0.0) -> None:
        self.run = run
        self.ref, self.reloaded, self.installed = ref, reloaded, installed
        self.batch = REACTNET_BATCH
        self.pool = _chunks(images, self.batch)
        self.probe = probe
        self.budget = budget
        self.steady_per_round = PROBE_BATCHES if probe else 1
        self.cold_s: List[float] = []
        self.steady_s: List[float] = []
        self.served: List[Tuple[int, np.ndarray]] = []
        self.plan = None

    def _serve(self) -> None:
        index = len(self.served) % len(self.pool)
        logits = self.plan.run_batch(self.pool[index], batch_size=self.batch)
        self.served.append((index, logits))

    def _cold(self) -> None:
        self.plan = InferencePlan.from_artifact(self.ref)
        self._serve()

    def steps(self) -> Iterator[None]:
        spent = 0.0
        for rounds in range(1, 1 << 30):
            last_round, _ = _timed(self._cold)
            self.cold_s.append(last_round)
            for _ in range(self.steady_per_round):
                if not self.probe:
                    yield
                elapsed, _ = _timed(self._serve)
                self.steady_s.append(elapsed)
                last_round += elapsed
            spent += last_round
            if self.probe:
                if rounds == PROBE_REPEATS:
                    return
            elif not _another_round(spent, last_round, self.budget):
                return
            yield

    def finish(self) -> Verify:
        run = self.run
        run.attempted += len(self.served) * self.batch
        run.metrics["cold_start_s"] = min(self.cold_s)
        run.metrics["reactnet_images_per_s"] = self.batch / min(self.steady_s)
        plan = self.plan

        def verify() -> None:
            decoded = [c.binary_weight_bits() for c in self.reloaded.binary_conv_layers()]
            checks.require(
                len(decoded) == len(self.installed),
                f"{self.ref}: {len(decoded)} binary convs reloaded, "
                f"{len(self.installed)} published",
            )
            for index, (bits, kernel) in enumerate(zip(self.installed, decoded)):
                checks.check_lossless(bits, kernel, index)
            store = ArtifactStore(self.ref.root, create=False)
            layers = store.manifest(self.ref.name)["layers"]
            checks.check_fetched_blobs(
                plan.fetch_stats()["fetched_blobs"],
                sum(1 for entry in layers if "content_key" in entry),
            )
            reference: Dict[int, np.ndarray] = {}
            for index, logits in self.served:
                if index not in reference:
                    reference[index] = self.reloaded.forward(self.pool[index])
                checks.check_logits_exact(
                    logits, reference[index], f"{self.ref} minibatch {index}"
                )

        return verify


# ----------------------------------------------------------------------
# Phase: the serving daemon, open loop then closed loop
# ----------------------------------------------------------------------
class DaemonPhase:
    """Single-image requests into a ``ServingDaemon`` with one tenant.

    Each of :data:`PROBE_REPEATS` rounds sends open-loop Poisson
    arrivals at :data:`DAEMON_RATE`, each timed from when it was due,
    then runs :data:`DAEMON_CLIENTS` closed-loop clients.  The main phase
    splits ``budget`` seconds between the two by :data:`DAEMON_OPEN_SHARE`;
    a probe round is :data:`PROBE_REQUESTS` requests and
    :data:`PROBE_CLOSED_SECONDS`.  The daemon and its event loop live
    across the rounds; other phases run between them.
    """

    def __init__(self, run: Run, toy: Toy, probe: bool, budget: float = 0.0) -> None:
        self.run = run
        self.toy = toy
        self.chunks = PROBE_REPEATS
        if probe:
            self.requests = PROBE_REQUESTS
            self.closed_seconds = PROBE_CLOSED_SECONDS
        else:
            share = budget / self.chunks
            self.requests = int(DAEMON_RATE * DAEMON_OPEN_SHARE * share)
            self.closed_seconds = (1.0 - DAEMON_OPEN_SHARE) * share
        total = self.requests * self.chunks
        self.arrivals = run.rng(2).exponential(1.0 / DAEMON_RATE, total)
        self.order = run.rng(3).integers(0, TOY_POOL, size=total)
        self.indices: List[int] = []
        self.responses: List[np.ndarray] = []
        self.latencies: List[float] = []
        self.round_p50_ms: List[float] = []
        self.round_rps: List[float] = []
        self.lags: List[float] = []
        self.before = self.after = None

    async def _submit(self, daemon: ServingDaemon, index: int) -> None:
        while True:
            try:
                logits = await daemon.submit("toy", self.toy.images[index])
            except QueueFullError:
                await asyncio.sleep(0.001)
                continue
            self.indices.append(index)
            self.responses.append(logits)
            return

    async def _warm_up(self, daemon: ServingDaemon) -> None:
        images = self.toy.images[:DAEMON_WARMUP]
        await asyncio.gather(*(daemon.submit("toy", image) for image in images))

    async def _open_loop(self, daemon: ServingDaemon, chunk: int) -> None:
        async def one(i: int, due: float) -> None:
            await self._submit(daemon, int(self.order[i]))
            self.latencies.append(time.perf_counter() - due)

        # one generator sleeps until each arrival is due and hands the
        # request off, so a slow request never delays the next send
        first = chunk * self.requests
        offsets = np.cumsum(self.arrivals[first:first + self.requests])
        sent = []
        latencies = len(self.latencies)
        start = time.perf_counter()
        for i, offset in enumerate(offsets, start=first):
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            self.lags.append(time.perf_counter() - due)
            sent.append(asyncio.ensure_future(one(i, due)))
        await asyncio.gather(*sent)
        self.round_p50_ms.append(
            float(np.median(self.latencies[latencies:])) * 1e3
        )

    async def _closed_loop(self, daemon: ServingDaemon) -> None:
        served = len(self.responses)
        started = time.perf_counter()
        deadline = started + self.closed_seconds

        async def client(c: int) -> None:
            k = 0
            while time.perf_counter() < deadline:
                await self._submit(daemon, (c * 131 + k) % TOY_POOL)
                k += 1

        await asyncio.gather(*(client(c) for c in range(DAEMON_CLIENTS)))
        elapsed = time.perf_counter() - started
        self.round_rps.append((len(self.responses) - served) / elapsed)

    def steps(self) -> Iterator[None]:
        loop = asyncio.new_event_loop()
        try:
            daemon = ServingDaemon(ServeConfig())
            daemon.register("toy", str(self.toy.ref))
            loop.run_until_complete(self._warm_up(daemon))
            self.before = daemon.snapshot()["tenants"]["toy"]
            for chunk in range(self.chunks):
                loop.run_until_complete(self._open_loop(daemon, chunk))
                loop.run_until_complete(self._closed_loop(daemon))
                self.after = daemon.snapshot()["tenants"]["toy"]
                if chunk + 1 < self.chunks:
                    yield
            loop.run_until_complete(daemon.stop())
        finally:
            loop.close()
        yield

    def finish(self) -> Verify:
        run = self.run
        run.attempted += len(self.responses)
        run.metrics["latency_p50_ms"] = min(self.round_p50_ms)
        # too unsteady on a shared 2-core host to carry a bound (README)
        run.trace.add(
            "serve.latency_p90_ms", float(np.percentile(self.latencies, 90)) * 1e3
        )
        # too unsteady with both cores busy to carry a bound (README)
        run.trace.add("serve.closed_loop_rps", max(self.round_rps))
        completed = self.after["completed"] - self.before["completed"]
        run.trace.add("serve.batches", self.after["batches"] - self.before["batches"])
        run.trace.add("serve.rejected", self.after["rejected"] - self.before["rejected"])
        run.trace.add("serve.batch_images", completed)
        for lag in self.lags:
            run.trace.sample("serve.generator_lag_ms", lag * 1e3)

        def verify() -> None:
            checks.check_response_count(len(self.responses), completed)
            checks.check_logits_close(
                np.stack(self.responses), self.toy.reference[self.indices],
                "daemon responses",
            )

        return verify


# ----------------------------------------------------------------------
# Phase: the xnor+popcount plan from a live model
# ----------------------------------------------------------------------
class PopcountPhase:
    """``InferencePlan.from_model(strategy="popcount")`` over minibatches.

    Minibatches of :data:`WIDE_BATCH` for ``budget`` seconds, or, as a
    probe, :data:`PROBE_BATCHES` minibatches per repetition.
    """

    def __init__(self, run: Run, model, images: np.ndarray, probe: bool,
                 budget: float = 0.0) -> None:
        self.run = run
        self.budget = budget
        self.model = model
        self.batch = WIDE_BATCH
        self.pool = _chunks(images, self.batch)
        self.reference = [model.forward(chunk) for chunk in self.pool]
        self.per_step = PROBE_BATCHES if probe else 1
        self.probe = probe
        self.times: List[float] = []
        self.served: List[Tuple[int, np.ndarray]] = []
        self.plan = None

    def _serve(self) -> None:
        index = len(self.served) % len(self.pool)
        logits = self.plan.run_batch(self.pool[index], batch_size=self.batch)
        self.served.append((index, logits))

    def steps(self) -> Iterator[None]:
        self.plan = InferencePlan.from_model(self.model, strategy="popcount")
        for _ in range(PROBE_REPEATS if self.probe else 1 << 30):
            for _ in range(self.per_step):
                elapsed, _ = _timed(self._serve)
                self.times.append(elapsed)
            if not self.probe and not _another_round(
                sum(self.times), self.times[-1], self.budget
            ):
                return
            yield

    def finish(self) -> Verify:
        run = self.run
        run.attempted += len(self.served) * self.batch
        run.metrics["popcount_images_per_s"] = self.batch / min(self.times)

        def verify() -> None:
            for index, logits in self.served:
                checks.check_logits_exact(
                    logits, self.reference[index], f"popcount minibatch {index}"
                )

        return verify


# ----------------------------------------------------------------------
# Probes: fixed small versions of each phase
# ----------------------------------------------------------------------
def _probe_eval(run: Run, reports=EVAL_METRICS) -> EvalPhase:
    spec = get_model("small-bnn")
    return EvalPhase(run, spec.name, spec.kernels(PROBE_SEED), PROBE_SEED,
                     probe=True, reports=reports)


def _probe_serve(run: Run, toy: Toy) -> ServePhase:
    images = toy.images[:REACTNET_BATCH * REACTNET_POOL_BATCHES]
    return ServePhase(run, toy.ref, toy.reloaded, toy.installed, images, probe=True)


def _probe_daemon(run: Run, toy: Toy) -> DaemonPhase:
    return DaemonPhase(run, toy, probe=True)


def _probe_popcount(run: Run, toy: Toy) -> PopcountPhase:
    images = toy.images[:WIDE_BATCH * 2]
    return PopcountPhase(run, toy.model, images, probe=True)


def _interleave(phases: List) -> Iterator[None]:
    """Step the main phases in turn, one step each, until all are done,
    so that each samples the host over the whole run."""
    iterators = [iter(phase.steps()) for phase in phases]
    while iterators:
        for iterator in list(iterators):
            if next(iterator, StopIteration) is StopIteration:
                iterators.remove(iterator)
            else:
                yield


def measure(run: Run, mains: List, probes: List) -> List[Verify]:
    """Run the ``mains`` with one probe repetition due every ``seconds / R``
    of main-phase time (``R`` = :data:`PROBE_REPEATS`), then finish all.

    The trace records the main phases only."""
    iterators = [iter(probe.steps()) for probe in probes]
    interval = run.seconds / PROBE_REPEATS

    def repetition() -> float:
        with run.trace.paused():
            elapsed, _ = _timed(lambda: [next(it, None) for it in iterators])
        return elapsed

    started = time.perf_counter()
    probe_time = repetition()
    done = 1
    for _ in _interleave(mains):
        main_time = time.perf_counter() - started - probe_time
        while done < PROBE_REPEATS and main_time >= done * interval:
            probe_time += repetition()
            done += 1
    while done < PROBE_REPEATS:
        repetition()
        done += 1
    with run.trace.paused():
        for iterator in iterators:
            for _ in iterator:  # run what follows each probe's last step
                pass
        verifiers = [probe.finish() for probe in probes]
    return [*(main.finish() for main in mains), *verifiers]


# ----------------------------------------------------------------------
# The three workloads: set-up, then a function that measures
# ----------------------------------------------------------------------
Workload = Callable[[], List[Verify]]


def paper_eval(run: Run) -> Workload:
    kernels = generate_reactnet_kernels(seed=run.seed)
    toy = Toy(run)
    # simulate_s comes from the small-bnn probe here too: the ReActNet
    # simulation takes ~8 s, too few samples per run to be steady (README)
    main = EvalPhase(run, "reactnet", kernels, run.seed, probe=False,
                     budget=run.seconds,
                     reports=("table5_s", "compressed_bits", "sim_hw_cycles"))
    # first-call costs of the compression and simulation stack
    next(iter(_probe_eval(run).steps()))
    probes = [_probe_eval(run, reports=("simulate_s",)), _probe_serve(run, toy),
              _probe_daemon(run, toy), _probe_popcount(run, toy)]
    return lambda: measure(run, [main], probes)


def reactnet_serve(run: Run) -> Workload:
    model = get_model("reactnet").builder(run.seed)
    ref, reloaded, installed = _publish(model, run.root / "store", "reactnet")
    del model
    images = run.rng(4).standard_normal(
        (REACTNET_BATCH * REACTNET_POOL_BATCHES, 3, REACTNET_IMAGE, REACTNET_IMAGE)
    ).astype(np.float32)
    toy = Toy(run)
    main = ServePhase(run, ref, reloaded, installed, images, probe=False,
                      budget=run.seconds)
    probes = [_probe_eval(run), _probe_daemon(run, toy), _probe_popcount(run, toy)]
    return lambda: measure(run, [main], probes)


def daemon_popcount(run: Run) -> Workload:
    toy = Toy(run)
    model = build_small_bnn(
        in_channels=3, num_classes=NUM_CLASSES, channels=WIDE_CHANNELS,
        image_size=WIDE_IMAGE, seed=run.seed,
    )
    model.eval()
    images = run.rng(5).standard_normal(
        (WIDE_BATCH * WIDE_POOL_BATCHES, 3, WIDE_IMAGE, WIDE_IMAGE)
    ).astype(np.float32)
    # the daemon and the wide popcount plan share the run half and half
    mains = [
        DaemonPhase(run, toy, probe=False, budget=run.seconds / 2),
        PopcountPhase(run, model, images, probe=False, budget=run.seconds / 2),
    ]
    probes = [_probe_eval(run), _probe_serve(run, toy)]
    return lambda: measure(run, mains, probes)


WORKLOADS: Dict[str, Callable[[Run], Workload]] = {
    "paper-eval": paper_eval,
    "reactnet-serve": reactnet_serve,
    "daemon-popcount": daemon_popcount,
}
