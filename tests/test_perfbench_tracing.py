"""The benchmark's tracer against the current program.

``perfbench/tracing.py`` wraps names of ``src/`` by looking them up in
their owner's ``__dict__``, so renaming or deleting one breaks the
traced benchmark run (``perfbench/run.py --trace 1``).  These tests load
the tracer as it is, install it, drive a model plan and an artifact plan
through it, and check that uninstalling puts every original back.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.bnn import contraction, ops
from repro.bnn.reactnet import build_small_bnn
from repro.deploy import save_compressed_model
from repro.infer import plan as plan_module
from repro.infer.plan import (
    FloatStep,
    InferencePlan,
    PackedConvStep,
    PackedDenseStep,
)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

#: names the tracer must find where it looks for them
TRACED = [
    (plan_module, "threshold_pack_patches"),
    (plan_module, "contract_packed_patches"),
    (plan_module, "unpack_bits"),
    (ops, "contract_packed_patches"),
    (ops, "unpack_bits"),
    (contraction, "unpack_bits"),
    (InferencePlan, "from_model"),
    (InferencePlan, "from_artifact"),
    (FloatStep, "run"),
    (PackedConvStep, "run"),
    (PackedDenseStep, "run"),
]


def new_trace():
    """A ``Trace`` from the tracer file as it is, not yet installed."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.Trace()


@pytest.fixture()
def trace():
    trace = new_trace()
    trace.install()
    try:
        yield trace
    finally:
        trace.uninstall()


def test_traced_names_exist_in_their_owners():
    for owner, name in TRACED:
        assert name in vars(owner), (owner, name)
    for name in ("from_model", "from_artifact"):
        assert isinstance(vars(InferencePlan)[name], classmethod), name


def test_install_wraps_and_uninstall_restores():
    originals = {(owner, name): vars(owner)[name] for owner, name in TRACED}
    trace = new_trace()
    trace.install()
    try:
        for key, original in originals.items():
            assert vars(key[0])[key[1]] is not original, key
    finally:
        trace.uninstall()
    for key, original in originals.items():
        assert vars(key[0])[key[1]] is original, key


def test_traced_plans_record_every_layer(trace, tmp_path):
    model = build_small_bnn(
        in_channels=1, num_classes=4, image_size=8, channels=(8, 16), seed=1
    )
    model.eval()
    path = tmp_path / "model.npz"
    save_compressed_model(model, path)
    images = np.random.default_rng(0).standard_normal((4, 1, 8, 8))
    images = images.astype(np.float32)
    live = InferencePlan.from_model(model, strategy="popcount")
    stored = InferencePlan.from_artifact(path)
    assert np.array_equal(live.run_batch(images), live.run_batch(images))
    stored.run_batch(images)

    metrics = trace.metrics()
    for name in (
        "infer.compile_s",
        "infer.float_s",
        "infer.packed_conv_s",
        "bnn.threshold_pack_s",
        "bnn.contract_popcount_s",
        "bnn.contract_gemm_s",
        "bnn.unpack_s",
        "core.decode_s",
    ):
        assert metrics[name] > 0, name
    assert metrics["core.sequences_decoded"] > 0
    assert metrics["infer.cache_misses"] == stored.num_packed_steps
    assert metrics["bnn.contract_calls"] > 0
