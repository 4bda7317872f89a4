"""Tests for the multi-process serving fleet (``repro.fleet``).

The fleet's contract is distribution-shaped, so that is what is pinned
here: the wire format round-trips bit-exactly, blocks dispatched across
worker processes come back bit-identical to the float oracle at the
same minibatching, a ``kill -9`` mid-load loses zero admitted requests
(transparent failover plus automatic restart), backpressure surfaces
with worker identity attached while victim tenants keep being served,
and a rolling rollout flips every worker with zero failed requests —
pinning the old and new manifests for its whole duration, rolling back
on probe failure, and refusing to drop below the availability floor.

Every test in this module runs under a hard ``faulthandler`` watchdog:
a hung worker or a deadlocked router dumps every thread's stack and
fails the run instead of wedging CI.
"""

import faulthandler
import json
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.bnn.reactnet import build_small_bnn
from repro.deploy import load_compressed_model, save_compressed_model
from repro.fleet import (
    FleetConfig,
    FleetRouter,
    RolloutError,
    decode_frame,
    encode_frame,
)
from repro.serve import QueueFullError, ServeConfig
from repro.store import ArtifactStore

IMAGE_SIZE = 8

#: generous hard bound; spawn start + plan compile cost ~2s per fleet
WATCHDOG_SECONDS = 180


@pytest.fixture(autouse=True)
def _hard_timeout():
    """Fail hung multiprocess tests with stacks instead of wedging CI."""
    faulthandler.dump_traceback_later(WATCHDOG_SECONDS, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


def _build_model(seed: int):
    model = build_small_bnn(
        in_channels=1, num_classes=4, image_size=IMAGE_SIZE,
        channels=(8, 16), seed=seed,
    )
    model.eval()
    return model


def _save_artifact(tmp_path, seed: int, name: str = "model.npz"):
    path = tmp_path / name
    save_compressed_model(_build_model(seed), path)
    return path


def _images(count: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(
        (count, 1, IMAGE_SIZE, IMAGE_SIZE)
    ).astype(np.float32)


def _oracle(artifact, images: np.ndarray, batch: int) -> np.ndarray:
    """Reference logits at the fleet's fixed block minibatching."""
    return load_compressed_model(artifact).forward_batched(
        images, batch_size=batch
    )


def _config(workers: int = 2, **kwargs) -> FleetConfig:
    serve = kwargs.pop(
        "serve",
        ServeConfig(max_batch=16, max_wait_ms=1.0, queue_depth=4096),
    )
    return FleetConfig(workers=workers, serve=serve, **kwargs)


# ----------------------------------------------------------------------
# Wire format
# ----------------------------------------------------------------------
class TestWire:
    def test_message_only_roundtrip(self):
        message = {"op": "ping", "id": 7, "nested": {"a": [1, 2]}}
        decoded, arrays = decode_frame(encode_frame(message))
        assert decoded == message
        assert arrays == {}

    def test_arrays_roundtrip_bitexact(self):
        rng = np.random.default_rng(0)
        arrays = {
            "logits": rng.standard_normal((5, 4)).astype(np.float32),
            "mask": rng.integers(0, 2, size=(3, 3)).astype(np.uint8),
            "scalar": np.array([3.5], dtype=np.float64),
        }
        frame = encode_frame({"op": "result", "id": 1}, arrays)
        message, decoded = decode_frame(frame)
        assert message == {"op": "result", "id": 1}
        assert sorted(decoded) == sorted(arrays)
        for name, array in arrays.items():
            assert decoded[name].dtype == array.dtype
            assert np.array_equal(decoded[name], array)

    def test_decoded_arrays_are_readonly_views(self):
        frame = encode_frame(
            {"op": "x"}, {"a": np.arange(4, dtype=np.int32)}
        )
        _, arrays = decode_frame(frame)
        assert not arrays["a"].flags.writeable

    def test_noncontiguous_input_is_encoded_correctly(self):
        base = np.arange(24, dtype=np.float32).reshape(4, 6)
        strided = base[::2, ::3]  # non-contiguous view
        _, arrays = decode_frame(encode_frame({"op": "x"}, {"s": strided}))
        assert np.array_equal(arrays["s"], strided)

    @pytest.mark.parametrize(
        "frame",
        [
            b"",
            b"\x01\x02",
            (1 << 30).to_bytes(4, "little") + b"{}",
            # header claims an array larger than the buffer holds
            encode_frame(
                {"op": "x"}, {"a": np.zeros(8, dtype=np.float64)}
            )[:-16],
        ],
    )
    def test_corrupt_frames_fail_fast(self, frame):
        with pytest.raises(ValueError):
            decode_frame(frame)


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
class TestFleetConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"max_retries": -1},
            {"availability_floor": 1.5},
            {"availability_floor": -0.1},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FleetConfig(**kwargs)

    def test_inflight_bound_derives_from_workers(self):
        config = FleetConfig(
            workers=3, serve=ServeConfig(queue_depth=10)
        )
        assert config.tenant_inflight_bound == 30
        assert FleetConfig(max_inflight=7).tenant_inflight_bound == 7


class TestWorkerThreadPins:
    """Each worker's BLAS/OpenMP pool is sized to its share of the cores."""

    @pytest.mark.skipif(
        not os.path.exists(f"/proc/{os.getpid()}/environ"),
        reason="needs /proc/<pid>/environ",
    )
    def test_unset_vars_get_core_share_and_explicit_pins_win(
        self, monkeypatch
    ):
        workers = 2
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "7")
        before = dict(os.environ)
        with FleetRouter(_config(workers=workers)) as fleet:
            after = dict(os.environ)
            pid = fleet.status(snapshots=False)["workers"]["w0"]["pid"]
            with open(f"/proc/{pid}/environ", "rb") as handle:
                entries = handle.read().split(b"\0")
        child = dict(
            entry.decode().split("=", 1) for entry in entries if entry
        )
        share = str(max(1, os.cpu_count() // workers))
        assert child["OPENBLAS_NUM_THREADS"] == share
        assert child["OMP_NUM_THREADS"] == share
        assert child["MKL_NUM_THREADS"] == "7"
        # the swap is scoped to the spawn: the router's env is untouched
        assert after == before


# ----------------------------------------------------------------------
# Serving across worker processes
# ----------------------------------------------------------------------
class TestFleetServing:
    def test_blocks_serve_bitexact_across_workers(self, tmp_path):
        """Blocks spread over N processes == the single-plan oracle."""
        artifact = _save_artifact(tmp_path, seed=3)
        images = _images(64)
        with FleetRouter(_config(workers=2)) as fleet:
            fleet.register("prod", str(artifact))
            blocks = [
                fleet.submit("prod", images[index:index + 16])
                for index in range(0, 64, 16)
            ]
            status = fleet.status(snapshots=False)
        assert np.array_equal(
            np.concatenate(blocks), _oracle(artifact, images, batch=16)
        )
        assert status["counters"]["dispatched"] == 4
        assert status["counters"]["worker_deaths"] == 0

    def test_unknown_tenant_and_bad_shapes_rejected(self, tmp_path):
        artifact = _save_artifact(tmp_path, seed=3)
        with FleetRouter(_config(workers=1)) as fleet:
            fleet.register("prod", str(artifact))
            with pytest.raises(KeyError, match="ghost"):
                fleet.submit("ghost", _images(4))
            with pytest.raises(ValueError, match="image block"):
                fleet.submit("prod", np.zeros(3, dtype=np.float32))

    def test_store_fetch_counters_visible_in_status(self, tmp_path):
        """``fleet status`` reports per-worker lazy-shard fetch counters."""
        store = ArtifactStore(tmp_path / "store")
        save_compressed_model(_build_model(seed=3), f"{store.root}#prod")
        with FleetRouter(_config(workers=1)) as fleet:
            fleet.register("prod", f"{store.root}#prod")
            fleet.submit("prod", _images(16))
            status = fleet.status()
        worker = status["workers"]["w0"]
        tenant = worker["snapshot"]["registry"]["prod"]
        assert tenant["store"]["fetched_blobs"] >= 1
        assert tenant["store"]["bytes_read"] > 0
        # the whole surface stays JSON-serialisable end to end
        json.dumps(status)

    def test_register_pins_store_refs_against_external_flips(
        self, tmp_path
    ):
        """A concurrent ref flip cannot fork the fleet mid-deployment."""
        store = ArtifactStore(tmp_path / "store")
        save_compressed_model(_build_model(seed=3), f"{store.root}#prod")
        save_compressed_model(_build_model(seed=4), f"{store.root}#next")
        images = _images(16)
        with FleetRouter(_config(workers=2)) as fleet:
            pinned = fleet.register("prod", f"{store.root}#prod")
            assert store.resolve("prod") in pinned
            # the external deploy: someone flips the ref under the fleet
            store.set_ref("prod", store.resolve("next"))
            served = fleet.submit("prod", images)
            # still the OLD version — membership is pinned by hash
            assert np.array_equal(
                served, _oracle(f"{store.root}#{pinned.split('#')[1]}",
                                images, batch=16)
            )
            # the sanctioned path picks up the flipped ref atomically
            result = fleet.rollout("prod", f"{store.root}#prod")
            assert result.new_manifest == store.resolve("next")
            after = fleet.submit("prod", images)
        assert np.array_equal(
            after, _oracle(f"{store.root}#next", images, batch=16)
        )


# ----------------------------------------------------------------------
# Fault injection: kill -9 under load
# ----------------------------------------------------------------------
class TestFaultInjection:
    def test_kill9_mid_load_loses_zero_admitted_requests(self, tmp_path):
        """The ISSUE's acceptance gate: 4 workers, one SIGKILLed under
        load, every admitted block completes bit-identical to the float
        oracle — failed batches transparently retry on healthy peers."""
        artifact = _save_artifact(tmp_path, seed=5)
        block = 16
        blocks = 48
        images = _images(block * blocks)
        oracle = _oracle(artifact, images, batch=block)
        config = _config(
            workers=4,
            serve=ServeConfig(
                max_batch=block, max_wait_ms=1.0, queue_depth=4096
            ),
        )
        with FleetRouter(config) as fleet:
            fleet.register("prod", str(artifact))
            killed = threading.Event()

            def _submit(index: int) -> np.ndarray:
                lo = index * block
                while True:  # only backpressure is client-retried
                    try:
                        return fleet.submit("prod", images[lo:lo + block])
                    except QueueFullError:
                        time.sleep(0.001)

            def _kill_busiest() -> None:
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    status = fleet.status(snapshots=False)
                    busy = [
                        (sum(info["outstanding"].values()), name, info)
                        for name, info in status["workers"].items()
                        if info["healthy"]
                    ]
                    busy.sort(reverse=True)
                    # require a backlog (>= 2 blocks) so the SIGKILL
                    # provably orphans in-flight work to fail over
                    if busy and busy[0][0] >= 2 * block:
                        os.kill(busy[0][2]["pid"], signal.SIGKILL)
                        killed.set()
                        return
                    time.sleep(0.001)

            with ThreadPoolExecutor(max_workers=8) as pool:
                killer = pool.submit(_kill_busiest)
                futures = [
                    pool.submit(_submit, index) for index in range(blocks)
                ]
                results = [future.result() for future in futures]
                killer.result()
            assert killed.is_set(), "load finished before the kill landed"
            counters = fleet.status(snapshots=False)["counters"]
        # zero lost admitted requests, all bit-identical to the oracle
        assert np.array_equal(np.concatenate(results), oracle)
        assert counters["worker_deaths"] >= 1
        assert counters["failovers"] >= 1

    def test_dead_worker_restarts_and_reregisters(self, tmp_path):
        artifact = _save_artifact(tmp_path, seed=5)
        images = _images(16)
        with FleetRouter(_config(workers=2)) as fleet:
            fleet.register("prod", str(artifact))
            victim_pid = fleet.status(snapshots=False)["workers"]["w0"]["pid"]
            os.kill(victim_pid, signal.SIGKILL)
            deadline = time.monotonic() + 60
            while (  # death detected, then the restart re-probed
                len(fleet.healthy_workers()) < 2
                or fleet.status(snapshots=False)["workers"]["w0"]["pid"]
                == victim_pid
            ):
                assert time.monotonic() < deadline, "restart never completed"
                time.sleep(0.01)
            status = fleet.status(snapshots=False)
            # fresh process, same name, tenants re-registered from spec
            assert status["workers"]["w0"]["pid"] != victim_pid
            assert status["workers"]["w0"]["restarts"] == 1
            assert "prod" in status["workers"]["w0"]["tenants"]
            served = fleet.submit("prod", images)
        assert np.array_equal(served, _oracle(artifact, images, batch=16))


# ----------------------------------------------------------------------
# Backpressure propagation through the router
# ----------------------------------------------------------------------
class TestFleetBackpressure:
    def test_flood_rejects_with_worker_identity_and_spares_victim(
        self, tmp_path
    ):
        """Satellite contract: the flooded tenant's QueueFullError names
        the rejecting workers, the rejection was retried on the other
        worker first, and a victim tenant keeps being served."""
        artifact = _save_artifact(tmp_path, seed=5)
        # noisy blocks (3 < max_batch) pend until max_wait; victim
        # blocks (== max_batch) flush immediately
        config = _config(
            workers=2,
            serve=ServeConfig(
                max_batch=4, max_wait_ms=60_000, queue_depth=4
            ),
            max_inflight=1_000_000,  # expose worker-level backpressure
        )
        noisy = _images(9, seed=1)
        victim_images = _images(4, seed=2)
        with FleetRouter(config) as fleet:
            fleet.register("noisy", str(artifact))
            fleet.register("victim", str(artifact))
            with ThreadPoolExecutor(max_workers=2) as pool:
                pending = [
                    pool.submit(fleet.submit, "noisy", noisy[lo:lo + 3])
                    for lo in (0, 3)
                ]
                # wait until both workers hold a pending noisy block
                deadline = time.monotonic() + 30
                while True:
                    status = fleet.status(snapshots=False)
                    loads = [
                        info["outstanding"].get("noisy", 0)
                        for info in status["workers"].values()
                    ]
                    if sorted(loads) == [3, 3]:
                        break
                    assert time.monotonic() < deadline
                    time.sleep(0.002)
                # both lanes full (3+3 > queue_depth 4): the router
                # retries across every worker, then surfaces identity
                with pytest.raises(QueueFullError) as excinfo:
                    fleet.submit("noisy", noisy[6:9])
                assert set(excinfo.value.workers) == {"w0", "w1"}
                assert excinfo.value.worker in {"w0", "w1"}
                rebalanced = fleet.status(snapshots=False)["counters"][
                    "rebalanced"
                ]
                assert rebalanced >= 2  # one retry per rejecting worker
                # the victim tenant is not starved by the noisy flood
                served = fleet.submit("victim", victim_images)
                assert np.array_equal(
                    served, _oracle(artifact, victim_images, batch=4)
                )
                # drain flushes the pended noisy blocks; nothing is lost
                fleet.stop(drain=True)
                flushed = [future.result() for future in pending]
        assert np.array_equal(
            np.concatenate(flushed),
            _oracle(artifact, noisy[:6], batch=3),
        )

    def test_fleet_level_admission_bound(self, tmp_path):
        artifact = _save_artifact(tmp_path, seed=5)
        config = _config(
            workers=1,
            serve=ServeConfig(
                max_batch=64, max_wait_ms=60_000, queue_depth=4096
            ),
            max_inflight=8,
        )
        with FleetRouter(config) as fleet:
            fleet.register("prod", str(artifact))
            with ThreadPoolExecutor(max_workers=1) as pool:
                hold = pool.submit(fleet.submit, "prod", _images(8))
                deadline = time.monotonic() + 30
                while fleet.status(snapshots=False)["tenants"]["prod"][
                    "inflight"
                ] < 8:
                    assert time.monotonic() < deadline
                    time.sleep(0.002)
                with pytest.raises(QueueFullError, match="fleet admission"):
                    fleet.submit("prod", _images(1))
                assert (
                    fleet.status(snapshots=False)["counters"]["rejected"]
                    == 1
                )
                fleet.stop(drain=True)
                hold.result()


# ----------------------------------------------------------------------
# Rolling rollouts
# ----------------------------------------------------------------------
class TestRollout:
    def test_rollout_under_load_zero_failed_requests(self, tmp_path):
        """Traffic keeps flowing during the flip; every block is
        bit-identical to exactly one of the two versions (never mixed),
        and blocks after the flip serve the new version."""
        store = ArtifactStore(tmp_path / "store")
        old_ref = f"{store.root}#prod"
        new_ref = f"{store.root}#next"
        save_compressed_model(_build_model(seed=11), old_ref)
        save_compressed_model(_build_model(seed=12), new_ref)
        block = 8
        images = _images(block)
        oracle_old = _oracle(old_ref, images, batch=block)
        oracle_new = _oracle(new_ref, images, batch=block)
        assert not np.array_equal(oracle_old, oracle_new)

        config = _config(
            workers=2,
            serve=ServeConfig(
                max_batch=block, max_wait_ms=1.0, queue_depth=4096
            ),
        )
        with FleetRouter(config) as fleet:
            fleet.register("prod", old_ref)
            stop_load = threading.Event()
            outcomes = []

            def _load() -> None:
                while not stop_load.is_set():
                    try:
                        outcomes.append(fleet.submit("prod", images))
                    except QueueFullError:
                        time.sleep(0.001)

            threads = [
                threading.Thread(target=_load) for _ in range(3)
            ]
            for thread in threads:
                thread.start()
            try:
                time.sleep(0.05)  # load is flowing on the old version
                result = fleet.rollout("prod", new_ref)
            finally:
                stop_load.set()
                for thread in threads:
                    thread.join()
            post = fleet.submit("prod", images)
        assert result.flipped == ("w0", "w1")
        assert result.old_manifest != result.new_manifest
        assert store.pins()["manifests"] == []  # released after the flip
        assert len(outcomes) > 0  # zero failed requests, some served
        for served in outcomes:
            assert np.array_equal(served, oracle_old) or np.array_equal(
                served, oracle_new
            ), "a block mixed model versions"
        assert np.array_equal(post, oracle_new)

    def test_rollout_pins_both_manifests_while_flipping(self, tmp_path):
        """Mid-rollout, old and new manifests are both pinned (a
        concurrent gc can sweep neither); afterwards both are unpinned."""
        store = ArtifactStore(tmp_path / "store")
        old_ref = f"{store.root}#prod"
        new_ref = f"{store.root}#next"
        save_compressed_model(_build_model(seed=11), old_ref)
        save_compressed_model(_build_model(seed=12), new_ref)
        expected = {store.resolve("prod"), store.resolve("next")}
        config = _config(
            workers=1,
            serve=ServeConfig(
                max_batch=64, max_wait_ms=700.0, queue_depth=4096
            ),
            availability_floor=0.0,  # a 1-worker fleet must fully drain
        )
        with FleetRouter(config) as fleet:
            fleet.register("prod", old_ref)
            with ThreadPoolExecutor(max_workers=2) as pool:
                # a pended block keeps w0 busy, so the rollout's drain
                # phase holds the pins long enough to observe them
                hold = pool.submit(fleet.submit, "prod", _images(8))
                deadline = time.monotonic() + 30
                while not any(
                    sum(info["outstanding"].values())
                    for info in fleet.status(snapshots=False)[
                        "workers"
                    ].values()
                ):
                    assert time.monotonic() < deadline
                    time.sleep(0.002)
                flip = pool.submit(fleet.rollout, "prod", new_ref)
                seen = set()
                while not flip.done():
                    seen.update(store.pins()["manifests"])
                    time.sleep(0.005)
                result = flip.result()
                hold.result()
        assert expected <= seen, "both manifests pinned mid-rollout"
        assert store.pins()["manifests"] == []
        assert result.flipped == ("w0",)

    def test_probe_failure_rolls_back_every_flipped_worker(self, tmp_path):
        artifact = _save_artifact(tmp_path, seed=11)
        images = _images(16)
        with FleetRouter(_config(workers=2)) as fleet:
            fleet.register("prod", str(artifact))
            with pytest.raises(RolloutError, match="rolled back"):
                fleet.rollout("prod", str(tmp_path / "missing.npz"))
            status = fleet.status(snapshots=False)
            # every worker still serves the old artifact
            assert status["tenants"]["prod"]["artifact"] == str(artifact)
            for info in status["workers"].values():
                assert info["tenants"]["prod"] == str(artifact)
            served = fleet.submit("prod", images)
        assert np.array_equal(served, _oracle(artifact, images, batch=16))

    def test_rollout_refuses_to_breach_availability_floor(self, tmp_path):
        artifact = _save_artifact(tmp_path, seed=11)
        other = _save_artifact(tmp_path, seed=12, name="other.npz")
        config = _config(workers=1, availability_floor=1.0)
        with FleetRouter(config) as fleet:
            fleet.register("prod", str(artifact))
            with pytest.raises(RolloutError, match="availability floor"):
                fleet.rollout("prod", str(other))
            # nothing changed: the fleet still serves the old artifact
            served = fleet.submit("prod", _images(16))
        assert np.array_equal(
            served, _oracle(artifact, _images(16), batch=16)
        )

    def test_rollout_to_same_artifact_is_a_noop(self, tmp_path):
        artifact = _save_artifact(tmp_path, seed=11)
        with FleetRouter(_config(workers=1)) as fleet:
            fleet.register("prod", str(artifact))
            result = fleet.rollout("prod", str(artifact))
        assert result.flipped == ()
        assert result.old_artifact == result.new_artifact

    def test_rollout_unknown_tenant(self, tmp_path):
        with FleetRouter(_config(workers=1)) as fleet:
            with pytest.raises(KeyError, match="ghost"):
                fleet.rollout("ghost", str(tmp_path / "x.npz"))
