"""Serve a compressed BNN through the batched packed inference engine.

The daBNN-style execution model (Sec. IV-B), end to end: a trained model
is deployed as a compressed artifact, the artifact is lowered into an
:class:`~repro.infer.plan.InferencePlan` (compressed kernel streams
decoded on demand into prepacked channel words, sign activations fused
into the packed convolutions), and a batch of images is served through
xnor+popcount semantics — bit-identical to the float reference forward.

Run:  python examples/packed_inference.py
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from repro.bnn.reactnet import build_small_bnn
from repro.deploy import load_compressed_model, save_compressed_model
from repro.infer import InferencePlan

IMAGES = 256
BATCH = 64


def main() -> None:
    model = build_small_bnn(
        in_channels=1, num_classes=10, image_size=16, channels=(16, 32),
        seed=0,
    )
    model.eval()

    with tempfile.TemporaryDirectory() as tmp:
        artifact = Path(tmp) / "model.npz"
        save_compressed_model(model, artifact)
        print(f"deploy artifact: {artifact.stat().st_size} bytes")

        plan = InferencePlan.from_artifact(artifact)
        for kind, label in plan.describe():
            print(f"  {kind:12s} {label}")

        rng = np.random.default_rng(0)
        x = rng.standard_normal((IMAGES, 1, 16, 16)).astype(np.float32)

        plan.run_batch(x[:BATCH])  # decode + pack kernels outside timing
        t0 = time.perf_counter()
        logits = plan.run_batch(x, batch_size=BATCH)
        t_packed = time.perf_counter() - t0

        # the oracle for an artifact is the *reloaded* model: same decoded
        # kernels, same quantised 8-bit ends
        deployed = load_compressed_model(artifact)
        t0 = time.perf_counter()
        deployed.forward_batched(x, batch_size=1)
        t_reference = time.perf_counter() - t0

        oracle = deployed.forward_batched(x, batch_size=BATCH)
        assert np.array_equal(logits, oracle), (
            "packed plan diverged from the deployed reference forward"
        )
        pre_deploy = (logits.argmax(1) == model.forward(x).argmax(1)).mean()
        print(f"kernel cache: {plan.cache_stats()}")
        print(f"packed plan, batch {BATCH}: "
              f"{IMAGES / t_packed:.0f} images/sec")
        print(f"per-image float reference:  "
              f"{IMAGES / t_reference:.0f} images/sec")
        print(f"batched-serving speedup: {t_reference / t_packed:.1f}x")
        print("logits bit-identical to the deployed reference forward")
        print(f"top-1 agreement with the pre-deployment float model "
              f"(8-bit ends quantised): {pre_deploy:.3f}")


if __name__ == "__main__":
    main()
