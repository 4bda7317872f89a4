"""Command-line interface: run any experiment from the shell.

Each subcommand regenerates one table/figure of the paper and prints the
aligned text report used in EXPERIMENTS.md:

.. code-block:: console

   python -m repro table1          # storage / time breakdown
   python -m repro table2          # per-block distribution
   python -m repro table5          # compression ratios (--codec to swap)
   python -m repro coders          # all registered codecs per block
   python -m repro backends        # simulation backend + model registries
   python -m repro infer --artifact model.npz --batch 64   # serve it
   python -m repro serve --artifact model.npz --tenant t0  # daemon demo
   python -m repro fleet run --artifact ./models#prod --workers 4
   python -m repro fleet rollout --artifact ./models#prod \
                                 --rollout-to ./models#next
   python -m repro store import model.npz --store ./models # shard it
   python -m repro store ls --store ./models               # inventory
   python -m repro store gc --store ./models --dry-run     # audit a sweep
   python -m repro store gc --store ./models               # sweep blobs
   python -m repro bench trend     # render BENCH_*.json perf history
   python -m repro fig3            # top-16 frequency head
   python -m repro mix             # code-length mix (Sec. VI)
   python -m repro model           # whole-model ratio
   python -m repro speedup         # 1.35x / 1.47x experiments
   python -m repro accuracy        # clustering-vs-accuracy run
   python -m repro feasibility     # LP consistency check
   python -m repro export --out r/ # all data series as CSV/JSON
   python -m repro all             # everything, in order

The simulator facade has two subcommands of its own:

.. code-block:: console

   # one scenario through any set of backends
   python -m repro simulate --backends analytic energy
   python -m repro simulate --backends rtl pipeline --json

   # expand config axes into a scenario grid (cartesian product)
   python -m repro sweep --axis "system.memory.latency_cycles=[40,100,400]" \
                         --axis "system.l2.size_bytes=[131072,1048576]" \
                         --modes baseline hw_compressed --workers 4

Every subcommand accepts ``--seed`` for the synthetic kernels.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, List, Optional

__all__ = ["main", "build_parser"]


def _cmd_table1(args: argparse.Namespace) -> str:
    from .analysis.storage import compute_storage_breakdown

    return compute_storage_breakdown().render()


def _cmd_table2(args: argparse.Namespace) -> str:
    from .analysis.distribution import measure_table2, render_table2

    return render_table2(measure_table2(seed=args.seed))


def _cmd_table5(args: argparse.Namespace) -> str:
    from .analysis.compression import measure_table5, render_table5

    codec = getattr(args, "codec", "simplified")
    return render_table5(
        measure_table5(
            seed=args.seed,
            codec=codec,
            use_batch=getattr(args, "use_batch", True),
            workers=getattr(args, "workers", 0),
        ),
        codec=codec,
    )


def _cmd_coders(args: argparse.Namespace) -> str:
    from .analysis.coders import compare_coders, render_coders

    return render_coders(compare_coders(seed=args.seed))


def _cmd_backends(args: argparse.Namespace) -> str:
    from .analysis.report import render_table
    from .bnn.contraction import default_threads
    from .bnn.ops import CONTRACTION_STRATEGIES
    from .sim.backends import registered_backends
    from .sim.scenario import available_models, get_model

    backend_rows = [
        (name, cls.paper_ref)
        for name, cls in registered_backends().items()
    ]
    model_rows = []
    for name in available_models():
        spec = get_model(name)
        runnable = "yes" if spec.builder is not None else "no"
        model_rows.append((name, runnable, spec.description))
    return "\n\n".join(
        [
            render_table(
                ("backend", "paper mapping"),
                backend_rows,
                title="Simulation backends",
            ),
            render_table(
                ("strategy",),
                [(name,) for name in CONTRACTION_STRATEGIES],
                title=(
                    "Contraction strategies (serial unless --threads; "
                    f"default pool width {default_threads()})"
                ),
            ),
            render_table(
                ("model", "runnable", "description"),
                model_rows,
                title="Workload models",
            ),
        ]
    )


def _cmd_infer(args: argparse.Namespace) -> str:
    import time

    import numpy as np

    from .infer import InferencePlan

    rng = np.random.default_rng(args.seed)
    if args.artifact is not None:
        plan = InferencePlan.from_artifact(
            args.artifact,
            cache_size=args.cache_size,
            strategy=args.strategy,
            threads=args.threads,
        )
        model = None
        if args.engine == "reference":
            from .deploy import load_compressed_model

            model = load_compressed_model(args.artifact)
        source = f"artifact {args.artifact}"
        input_shape = _artifact_input_shape(args.artifact)
    else:
        from .sim.scenario import get_model

        spec = get_model(args.model)
        if spec.builder is None or spec.input_shape is None:
            raise SystemExit(
                f"model {args.model!r} has no runnable builder; "
                "pass --artifact or a runnable --model"
            )
        model = spec.builder(args.seed)
        plan = InferencePlan.from_model(
            model, strategy=args.strategy, threads=args.threads
        )
        source = f"model {args.model!r}"
        input_shape = spec.input_shape

    x = rng.standard_normal((args.images, *input_shape)).astype(np.float32)
    if args.engine == "reference":
        run = lambda: model.forward_batched(x, batch_size=args.batch)
    else:
        run = lambda: plan.run_batch(x, batch_size=args.batch)
    run()  # warm caches outside the timed region
    start = time.perf_counter()
    logits = run()
    seconds = time.perf_counter() - start

    lines = [
        f"serving {source} via engine {args.engine!r}",
        f"plan: {len(plan)} steps, {plan.num_packed_steps} packed",
        f"input: {args.images} images of shape {tuple(input_shape)}, "
        f"batch {args.batch}",
        f"logits: {logits.shape}",
        f"throughput: {args.images / seconds:.0f} images/sec "
        f"({seconds * 1e3:.1f} ms total)",
    ]
    stats = plan.cache_stats()
    if stats is not None and args.engine == "packed":
        lines.append(
            "kernel cache: "
            f"{stats['size']}/{stats['maxsize']} entries, "
            f"{stats['hits']} hits, {stats['misses']} misses, "
            f"{stats['evictions']} evictions"
        )
    if args.engine == "packed":
        for strategy, counters in sorted(plan.contraction_stats().items()):
            lines.append(
                f"contraction[{strategy}]: {counters['calls']} calls, "
                f"{counters['tiles']} tiles, "
                f"{counters['threaded_calls']} threaded "
                f"(max {counters['max_threads']} threads), "
                f"{counters['seconds'] * 1e3:.1f} ms"
            )
    return "\n".join(lines)


def _cmd_serve(args: argparse.Namespace) -> str:
    import asyncio
    import time

    import numpy as np

    from .fleet import RetryPolicy
    from .serve import QueueFullError, ServeConfig, ServingDaemon

    config = ServeConfig(
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        queue_depth=args.queue_depth,
        workers=args.workers,
        threads=args.threads,
    )
    # demo-load clients live under the unified policy: many cheap
    # attempts with capped backoff, bounded by a hard deadline instead
    # of spinning forever on a wedged daemon
    retry = RetryPolicy(
        max_attempts=10_000, base_delay_ms=0.5, max_delay_ms=20.0,
        deadline_ms=120_000.0,
    )
    daemon = ServingDaemon(config)
    daemon.register(
        args.tenant, args.artifact, cache_size=args.cache_size
    )
    input_shape = _artifact_input_shape(args.artifact)
    rng = np.random.default_rng(args.seed)
    images = rng.standard_normal(
        (args.requests, *input_shape)
    ).astype(np.float32)

    async def _one(index: int, gate: "asyncio.Semaphore") -> None:
        async with gate:
            await retry.acall(
                lambda: daemon.submit(args.tenant, images[index]),
                retriable=(QueueFullError,),
            )

    async def _drive() -> float:
        gate = asyncio.Semaphore(args.concurrency)
        async with daemon:
            start = time.perf_counter()
            await asyncio.gather(
                *(_one(index, gate) for index in range(args.requests))
            )
            return time.perf_counter() - start

    seconds = asyncio.run(_drive())
    snapshot = daemon.snapshot()
    snapshot["load"] = {
        "requests": int(args.requests),
        "concurrency": int(args.concurrency),
        "seconds": seconds,
        "requests_per_second": args.requests / seconds if seconds else None,
    }
    return json.dumps(snapshot, indent=2)


def _cmd_fleet(args: argparse.Namespace) -> str:
    import time
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np

    from .fleet import FleetConfig, FleetRouter, RetryPolicy
    from .serve import ServeConfig

    config = FleetConfig(
        workers=args.workers,
        serve=ServeConfig(
            max_batch=args.max_batch,
            max_wait_ms=args.max_wait_ms,
            queue_depth=args.queue_depth,
            threads=args.threads,
        ),
    )
    input_shape = _artifact_input_shape(args.artifact)
    rng = np.random.default_rng(args.seed)
    document = {"action": args.action, "tenant": args.tenant}

    def _drive(fleet: FleetRouter) -> None:
        images = rng.standard_normal(
            (args.requests, *input_shape)
        ).astype(np.float32)
        blocks = [
            images[index:index + args.batch]
            for index in range(0, args.requests, args.batch)
        ]

        # fleet clients ride the router's unified retry machinery: the
        # retriable classes (backpressure, exhausted failover, empty
        # rotation) back off exponentially under a hard deadline
        retry = RetryPolicy(
            max_attempts=10_000, base_delay_ms=0.5, max_delay_ms=20.0,
            deadline_ms=120_000.0,
        )

        def _one(block):
            return fleet.submit_retrying(args.tenant, block, policy=retry)

        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=args.concurrency) as pool:
            for result in pool.map(_one, blocks):
                result.shape  # surface worker errors eagerly
        seconds = time.perf_counter() - start
        document["load"] = {
            "requests": int(args.requests),
            "failed": 0,  # _one raised otherwise and we never got here
            "block_size": int(args.batch),
            "concurrency": int(args.concurrency),
            "seconds": seconds,
            "images_per_second": (
                args.requests / seconds if seconds else None
            ),
        }

    with FleetRouter(config) as fleet:
        document["artifact"] = fleet.register(
            args.tenant, args.artifact, cache_size=args.cache_size,
            threads=args.threads,
        )
        if args.action in ("run", "rollout"):
            _drive(fleet)
        if args.action == "rollout":
            if not args.rollout_to:
                raise SystemExit("fleet rollout needs --rollout-to")
            document["rollout"] = fleet.rollout(
                args.tenant, args.rollout_to
            ).to_dict()
            _drive(fleet)  # prove the new version serves
        document["status"] = fleet.status()
    return json.dumps(document, indent=2)


def _artifact_input_shape(path):
    """Infer a servable (C, H, W) for the artifact's stem.

    The manifest records every layer's configuration but not the image
    geometry, so the spatial side is the smallest power of two that
    survives every stride in the model (times two so the deepest layer
    still sees a 2x2 map), floored at 8 for the tiny test artifacts.
    """
    from .deploy import ArtifactReader

    reader = ArtifactReader(path)
    in_channels = None
    stride_product = 1
    for entry in reader.entries:
        config = entry.get("config", {})
        if in_channels is None and "in_channels" in config:
            in_channels = int(config["in_channels"])
        stride_product *= int(config.get("stride", 1))
    side = max(8, 2 * stride_product)
    return (1 if in_channels is None else in_channels, side, side)


def _cmd_store(args: argparse.Namespace) -> str:
    from .analysis.report import render_table
    from .store import ArtifactStore

    if args.action == "import":
        if not args.target:
            raise SystemExit("store import needs an artifact path")
        store = ArtifactStore(args.store)
        ref = store.import_artifact(args.target, name=args.name)
        info = store.describe()["models"][ref.name]
        return (
            f"imported {args.target} as {ref}\n"
            f"manifest {info['manifest'][:12]}: {info['layers']} layers, "
            f"{info['blobs']} blobs ({info['bytes']} bytes), "
            f"{info['shared_blobs']} shared with other models"
        )
    store = ArtifactStore(args.store, create=False)
    if args.action == "ls":
        described = store.describe()
        rows = [
            (
                name,
                info["manifest"][:12],
                str(info["layers"]),
                str(info["blobs"]),
                str(info["bytes"]),
                str(info["shared_blobs"]),
            )
            for name, info in sorted(described["models"].items())
        ]
        totals = described["totals"]
        table = render_table(
            ("model", "manifest", "layers", "blobs", "bytes", "shared"),
            rows,
            title=f"store {described['root']}",
        )
        return (
            f"{table}\n"
            f"totals: {totals['blobs']} blobs, {totals['bytes']} bytes, "
            f"{totals['manifests']} manifests, "
            f"dedup {totals['dedup_ratio']:.2f}x "
            f"({totals['referenced_keys']} refs -> "
            f"{totals['unique_referenced_keys']} unique)"
        )
    if args.action == "gc":
        result = store.gc(dry_run=args.dry_run)
        verb = "would remove" if args.dry_run else "removed"
        lines = [
            f"gc{' (dry run)' if args.dry_run else ''}: "
            f"{verb} {len(result.removed_blobs)} blobs, "
            f"{len(result.removed_manifests)} manifests "
            f"(kept {result.kept_blobs}, pinned {result.pinned_blobs})"
        ]
        if args.dry_run:
            lines.extend(
                f"  manifest {manifest_hash}"
                for manifest_hash in result.removed_manifests
            )
            lines.extend(f"  blob {key}" for key in result.removed_blobs)
        return "\n".join(lines)
    if args.action == "fsck":
        result = store.fsck(repair=args.repair)
        lines = [
            f"fsck{' (repair)' if args.repair else ''}: checked "
            f"{result.checked_blobs} blobs, "
            f"{result.checked_manifests} manifests — "
            f"{'store is clean' if result.ok else 'PROBLEMS FOUND'}"
        ]
        for label, findings in (
            ("corrupt blob", result.corrupt_blobs),
            ("missing blob", result.missing_blobs),
            ("corrupt manifest", result.corrupt_manifests),
            ("dangling ref", result.dangling_refs),
            ("orphan blob", result.orphan_blobs),
            ("stale tmp", result.stale_tmp),
        ):
            lines.extend(f"  {label}: {item}" for item in findings)
        if args.repair and result.quarantined:
            lines.append(
                f"quarantined {len(result.quarantined)} damaged files "
                f"under {store.quarantine_root}"
            )
        return "\n".join(lines)
    if not args.target:
        raise SystemExit(f"store {args.action} needs a model name or blob key")
    if args.action == "pin":
        kind = store.pin(args.target)
        return f"pinned {kind} {args.target}"
    if args.action == "unpin":
        store.unpin(args.target)
        return f"unpinned {args.target}"
    if args.action == "rm":
        store.remove(args.target)
        return f"removed ref {args.target} (blobs remain until gc)"
    raise SystemExit(f"unknown store action {args.action!r}")


def _cmd_bench(args: argparse.Namespace) -> str:
    """Render the committed ``BENCH_*.json`` perf trajectories."""
    import os
    from pathlib import Path

    from .analysis.report import render_table

    if args.action != "trend":
        raise SystemExit(f"unknown bench action {args.action!r}")
    directory = Path(
        args.dir or os.environ.get("BENCH_ARTIFACT_DIR") or "."
    )
    paths = sorted(directory.glob("BENCH_*.json"))
    if args.only:
        wanted = set(args.only)
        paths = [
            path for path in paths
            if path.stem[len("BENCH_"):] in wanted
        ]
    if not paths:
        raise SystemExit(f"no BENCH_*.json artifacts under {directory}")
    rows = []
    for path in paths:
        name = path.stem[len("BENCH_"):]
        try:
            document = json.loads(path.read_text())
        except json.JSONDecodeError:
            rows.append((name, "(unreadable)", "-", "-", "-", "-"))
            continue
        for section, payload in sorted(document.items()):
            history = (payload or {}).get("history") or []
            if not history:
                rows.append((name, section, "-", "-", "-", "-"))
                continue
            for entry in history[-args.last:]:
                value = entry.get("value")
                rows.append(
                    (
                        name,
                        section,
                        str(entry.get("at", "-")),
                        "yes" if entry.get("reduced") else "no",
                        str(entry.get("metric", "-")),
                        f"{value:.2f}" if isinstance(value, float)
                        else str(value),
                    )
                )
    return render_table(
        ("artifact", "section", "at", "reduced", "metric", "value"),
        rows,
        title=(
            f"perf trajectory ({len(paths)} artifacts, "
            f"last {args.last} entries per section)"
        ),
    )


def _cmd_fig3(args: argparse.Namespace) -> str:
    from .analysis.distribution import measure_fig3, render_fig3

    return render_fig3(measure_fig3(seed=args.seed))


def _cmd_mix(args: argparse.Namespace) -> str:
    from .analysis.compression import measure_codelength_mix

    return measure_codelength_mix(seed=args.seed).render()


def _cmd_model(args: argparse.Namespace) -> str:
    from .analysis.compression import measure_model_compression

    result = measure_model_compression(
        seed=args.seed,
        use_batch=getattr(args, "use_batch", True),
        workers=getattr(args, "workers", 0),
    )
    return (
        f"baseline model bits:   {result.baseline_bits}\n"
        f"compressed model bits: {result.compressed_bits}\n"
        f"whole-model ratio:     {result.model_ratio:.2f}x (paper 1.2x)\n"
        f"3x3 payload ratio:     {result.conv3x3_ratio:.2f}x (paper 1.32x)"
    )


def _cmd_speedup(args: argparse.Namespace) -> str:
    from .analysis.performance import render_speedup, run_performance_experiment

    return render_speedup(run_performance_experiment(seed=args.seed))


def _cmd_accuracy(args: argparse.Namespace) -> str:
    from .analysis.accuracy import render_accuracy, run_accuracy_experiment

    return render_accuracy(
        run_accuracy_experiment(epochs=args.epochs, seed=args.seed)
    )


def _cmd_feasibility(args: argparse.Namespace) -> str:
    from .analysis.feasibility import analyze_feasibility, render_feasibility

    return render_feasibility(analyze_feasibility())


def _scenario_from_args(args: argparse.Namespace, name: str):
    """Build the Scenario a ``simulate`` / ``sweep`` invocation describes."""
    from .core.pipeline import PipelineConfig
    from .sim import Scenario, paper_pipeline

    pipeline = paper_pipeline()
    codec = getattr(args, "codec", "simplified")
    if codec != "simplified":
        pipeline = PipelineConfig(codec=codec, clustering=pipeline.clustering)
    return Scenario(
        name=name,
        model=args.model,
        seed=args.seed,
        pipeline=pipeline,
        backends=tuple(args.backends),
        modes=tuple(args.modes),
    )


def _cmd_simulate(args: argparse.Namespace) -> str:
    from .sim import Simulator

    scenario = _scenario_from_args(args, f"cli-simulate-seed{args.seed}")
    if getattr(args, "workers", 0):
        scenario = scenario.with_value("pipeline.workers", args.workers)
    report = Simulator().run(scenario)
    if args.json:
        return report.to_json(indent=2)
    return report.render()


def _parse_axis(text: str):
    """``path=[v1,v2,...]`` -> ``(path, values)`` with JSON-typed values."""
    path, separator, raw = text.partition("=")
    if not separator or not path:
        raise argparse.ArgumentTypeError(
            f"axis {text!r} is not of the form path=[v1,v2,...]"
        )
    try:
        values = json.loads(raw)
    except json.JSONDecodeError as error:
        raise argparse.ArgumentTypeError(
            f"axis {path!r} values are not valid JSON: {error}"
        ) from None
    if not isinstance(values, list) or not values:
        raise argparse.ArgumentTypeError(
            f"axis {path!r} needs a non-empty JSON array of values"
        )
    return path, [tuple(v) if isinstance(v, list) else v for v in values]


def _cmd_sweep(args: argparse.Namespace) -> str:
    from .analysis.report import render_table
    from .sim import Simulator

    base = _scenario_from_args(args, f"cli-sweep-seed{args.seed}")
    axes = dict(args.axis)
    reports = Simulator().sweep(base, axes, workers=args.workers)
    if args.json:
        return json.dumps([report.to_dict() for report in reports], indent=2)
    metrics = (
        ("hw speedup", "hw_speedup"),
        ("sw slowdown", "sw_slowdown"),
        ("ratio", "compression_ratio"),
        ("energy saving", "energy_saving"),
    )
    live = [
        (label, attr)
        for label, attr in metrics
        if any(getattr(report, attr) is not None for report in reports)
    ]
    rows = []
    for report in reports:
        axis_cells = [
            str(report.scenario.axis_values[path]) for path in axes
        ]
        metric_cells = [
            "-" if getattr(report, attr) is None
            else f"{getattr(report, attr):.4f}"
            for _, attr in live
        ]
        rows.append(axis_cells + metric_cells)
    headers = [path.rsplit(".", 1)[-1] for path in axes]
    headers += [label for label, _ in live]
    return render_table(
        headers, rows, title=f"sweep over {len(reports)} scenarios"
    )


def _cmd_export(args: argparse.Namespace) -> str:
    from .analysis.export import export_all

    written = export_all(args.out, seed=args.seed, only=args.only or ())
    lines = [f"wrote {len(written)} files to {args.out}:"]
    lines.extend(f"  {path.name}" for path in written)
    return "\n".join(lines)


_COMMANDS: Dict[str, Callable[[argparse.Namespace], str]] = {
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "table5": _cmd_table5,
    "coders": _cmd_coders,
    "backends": _cmd_backends,
    "infer": _cmd_infer,
    "serve": _cmd_serve,
    "fleet": _cmd_fleet,
    "store": _cmd_store,
    "bench": _cmd_bench,
    "fig3": _cmd_fig3,
    "mix": _cmd_mix,
    "model": _cmd_model,
    "speedup": _cmd_speedup,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "accuracy": _cmd_accuracy,
    "feasibility": _cmd_feasibility,
    "export": _cmd_export,
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for shell-completion tooling and tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Exploiting Kernel Compression on BNNs' "
            "(DATE 2023): regenerate any table or figure."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("table1", "Table I: storage and execution-time breakdown"),
        ("table2", "Table II: per-block bit-sequence distribution"),
        ("table5", "Table V: per-block compression ratios"),
        ("coders", "Sec. III-B: all registered codecs compared per block"),
        ("backends", "list the simulation backend + workload registries"),
        ("infer", "batched packed inference from a deploy artifact"),
        ("serve", "drive the dynamic-batching daemon; print metrics JSON"),
        ("fleet", "multi-process serving fleet: run/rollout/status"),
        ("store", "content-addressed artifact store: import/ls/gc/pin"),
        ("bench", "render the committed BENCH_*.json perf trajectories"),
        ("fig3", "Fig. 3: top-16 bit-sequence frequencies"),
        ("mix", "Sec. VI: share of channels per code length"),
        ("model", "Sec. VI: whole-model compression ratio"),
        ("speedup", "Sec. VI: hw speedup and sw slowdown"),
        ("simulate", "run one declarative Scenario through the Simulator"),
        ("sweep", "expand config axes into a scenario grid and run it"),
        ("accuracy", "Sec. III-C: clustering vs accuracy"),
        ("feasibility", "LP consistency check of Tables II vs V"),
        ("export", "write all experiment data as CSV/JSON"),
        ("all", "run every experiment in order"),
    ):
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument(
            "--seed", type=int, default=0,
            help="seed for the synthetic kernels (default 0)",
        )
        if name == "table5":
            from .core.codec import available_codecs

            sub.add_argument(
                "--codec", choices=available_codecs(), default="simplified",
                help="codec registry entry to measure (default simplified)",
            )
        if name in ("table5", "model"):
            sub.add_argument(
                "--workers", type=int, default=0,
                help="process-pool fan-out across blocks (default serial)",
            )
            path = sub.add_mutually_exclusive_group()
            path.add_argument(
                "--batch", dest="use_batch", action="store_true",
                default=True,
                help="vectorised batch codec path (default)",
            )
            path.add_argument(
                "--scalar", dest="use_batch", action="store_false",
                help="scalar per-kernel reference path (bit-identical)",
            )
        if name in ("simulate", "sweep"):
            from .core.codec import available_codecs
            from .sim import SIMULATION_MODES, available_backends, available_models

            sub.add_argument(
                "--model", choices=available_models(), default="reactnet",
                help="workload model registry entry (default reactnet)",
            )
            sub.add_argument(
                "--codec", choices=available_codecs(), default="simplified",
                help="compression codec for the measurement stage",
            )
            sub.add_argument(
                "--backends", nargs="+", choices=available_backends(),
                default=["analytic"],
                help="evaluation backends to run (default: analytic)",
            )
            sub.add_argument(
                "--modes", nargs="+", choices=SIMULATION_MODES,
                default=list(SIMULATION_MODES),
                help="execution modes the analytic backend times",
            )
            sub.add_argument(
                "--json", action="store_true",
                help="emit the serialised report instead of text tables",
            )
        if name == "infer":
            from .sim import available_models

            sub.add_argument(
                "--artifact", default=None,
                help="deploy artifact to serve (.npz path or "
                     "<store-dir>#<name> ref); omit to build the "
                     "--model in process",
            )
            sub.add_argument(
                "--model", choices=available_models(), default="small-bnn",
                help="runnable workload model when no artifact is given",
            )
            sub.add_argument(
                "--batch", type=int, default=32,
                help="serving minibatch size (default 32)",
            )
            sub.add_argument(
                "--images", type=int, default=64,
                help="number of synthetic images to run (default 64)",
            )
            sub.add_argument(
                "--engine", choices=("packed", "reference"),
                default="packed",
                help="packed plan engine or the float reference forward",
            )
            from .bnn.ops import CONTRACTION_STRATEGIES

            sub.add_argument(
                "--strategy", choices=CONTRACTION_STRATEGIES,
                default="gemm",
                help="packed contraction strategy (default gemm)",
            )
            sub.add_argument(
                "--threads", type=int, default=None,
                help="tiles each contraction over this many pool threads "
                     "(default: serial; REPRO_THREADS pins the pool width)",
            )
            sub.add_argument(
                "--cache-size", type=int, default=None,
                help="decoded-kernel LRU capacity for artifact plans "
                     "(default: every binary layer, each decoded once)",
            )
        if name == "fleet":
            sub.add_argument(
                "action", choices=("run", "rollout", "status"),
                help="drive load, perform a rolling hot-swap, or just "
                     "report fleet status",
            )
            sub.add_argument(
                "--artifact", required=True,
                help="deploy artifact (.npz path or <store-dir>#<name> "
                     "ref) the fleet serves",
            )
            sub.add_argument(
                "--rollout-to", default=None,
                help="rollout only: the artifact to hot-swap the "
                     "tenant to, one worker at a time",
            )
            sub.add_argument(
                "--tenant", default="default",
                help="tenant namespace to register (default 'default')",
            )
            sub.add_argument(
                "--workers", type=int, default=2,
                help="worker processes in the fleet (default 2)",
            )
            sub.add_argument(
                "--requests", type=int, default=64,
                help="demo-load image count to drive (default 64)",
            )
            sub.add_argument(
                "--batch", type=int, default=16,
                help="images per submitted block (default 16)",
            )
            sub.add_argument(
                "--concurrency", type=int, default=4,
                help="concurrent client threads in the demo load",
            )
            sub.add_argument(
                "--max-batch", type=int, default=32,
                help="per-worker dynamic-batch flush size (default 32)",
            )
            sub.add_argument(
                "--max-wait-ms", type=float, default=2.0,
                help="per-worker batcher wait bound (default 2.0)",
            )
            sub.add_argument(
                "--queue-depth", type=int, default=1024,
                help="per-worker admitted-image bound (default 1024)",
            )
            sub.add_argument(
                "--cache-size", type=int, default=None,
                help="decoded-kernel LRU capacity of each worker's plan "
                     "(default: every binary layer, each decoded once)",
            )
            sub.add_argument(
                "--threads", type=int, default=None,
                help="contraction-engine thread count on every worker "
                     "(default: strategy decides)",
            )
        if name == "store":
            sub.add_argument(
                "action",
                choices=("import", "ls", "gc", "fsck", "pin", "unpin", "rm"),
                help="store operation to perform",
            )
            sub.add_argument(
                "target", nargs="?", default=None,
                help="artifact path (import) or model name / blob key "
                     "(pin/unpin/rm)",
            )
            sub.add_argument(
                "--store", required=True,
                help="store root directory",
            )
            sub.add_argument(
                "--name", default=None,
                help="model name to register on import (default: the "
                     "artifact's own model name)",
            )
            sub.add_argument(
                "--dry-run", action="store_true",
                help="gc only: list what a sweep would remove without "
                     "deleting anything",
            )
            sub.add_argument(
                "--repair", action="store_true",
                help="fsck only: quarantine corrupt blobs/manifests, "
                     "delete dangling refs, sweep stale temp files",
            )
        if name == "bench":
            sub.add_argument(
                "action", choices=("trend",),
                help="bench operation to perform",
            )
            sub.add_argument(
                "--dir", default=None,
                help="directory holding BENCH_*.json (default: "
                     "$BENCH_ARTIFACT_DIR or the current directory)",
            )
            sub.add_argument(
                "--only", nargs="*", default=None,
                help="restrict to these artifact names (e.g. infer rtl)",
            )
            sub.add_argument(
                "--last", type=int, default=5,
                help="history entries shown per section (default 5)",
            )
        if name == "serve":
            sub.add_argument(
                "--artifact", required=True,
                help="deploy artifact (.npz path or <store-dir>#<name> "
                     "ref) the tenant serves",
            )
            sub.add_argument(
                "--tenant", default="default",
                help="tenant namespace to register (default 'default')",
            )
            sub.add_argument(
                "--max-batch", type=int, default=32,
                help="flush a coalesced batch at this size (default 32)",
            )
            sub.add_argument(
                "--max-wait-ms", type=float, default=2.0,
                help="flush once the oldest request waited this long",
            )
            sub.add_argument(
                "--queue-depth", type=int, default=256,
                help="per-tenant backpressure bound (default 256)",
            )
            sub.add_argument(
                "--workers", type=int, default=2,
                help="thread-pool width for batch execution (default 2)",
            )
            sub.add_argument(
                "--cache-size", type=int, default=None,
                help="decoded-kernel LRU capacity of the tenant's plan "
                     "(default: every binary layer, each decoded once)",
            )
            sub.add_argument(
                "--threads", type=int, default=None,
                help="contraction-engine thread count for registered "
                     "tenants (default: strategy decides)",
            )
            sub.add_argument(
                "--requests", type=int, default=64,
                help="demo-load request count to drive (default 64)",
            )
            sub.add_argument(
                "--concurrency", type=int, default=32,
                help="concurrent in-flight clients in the demo load",
            )
        if name == "simulate":
            sub.add_argument(
                "--workers", type=int, default=0,
                help=(
                    "process-pool fan-out across blocks for the "
                    "compression and rtl backends (default serial)"
                ),
            )
        if name == "sweep":
            sub.add_argument(
                "--axis", action="append", type=_parse_axis, required=True,
                metavar="PATH=[V1,V2,...]",
                help=(
                    "sweep axis: dotted config path and a JSON array of "
                    "values; repeat for a cartesian grid"
                ),
            )
            sub.add_argument(
                "--workers", type=int, default=0,
                help="process-pool fan-out across scenarios (default serial)",
            )
        if name in ("accuracy", "all"):
            sub.add_argument(
                "--epochs", type=int, default=25,
                help="training epochs for the accuracy run (default 25)",
            )
        if name == "export":
            sub.add_argument(
                "--out", default="results",
                help="output directory (default ./results)",
            )
            sub.add_argument(
                "--only", nargs="*", default=None,
                help="restrict to a subset of exporters",
            )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "all":
        order = (
            "table1", "fig3", "table2", "table5", "mix",
            "model", "speedup", "accuracy", "feasibility",
        )
        for name in order:
            print(f"==== {name} " + "=" * (60 - len(name)))
            print(_COMMANDS[name](args))
            print()
        return 0
    print(_COMMANDS[args.command](args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
