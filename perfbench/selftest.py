"""Each correctness check of the benchmark rejects a corrupted output.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/selftest.py

Every test first shows the check accepting the program's real output
(at toy size, with no timed workload), then feeds it the same output
with one fault and expects :class:`checks.CheckFailed`.  The file name
keeps it out of the repository's default test collection.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.bnn.reactnet import build_small_bnn  # noqa: E402
from repro.core.pipeline import CompressionPipeline  # noqa: E402
from repro.infer import InferencePlan  # noqa: E402
from repro.sim.scenario import get_model, paper_pipeline  # noqa: E402
from repro.sim.simulator import Simulator  # noqa: E402
from repro.synth.weights import generate_reactnet_kernels  # noqa: E402

MAX_DISTANCE = paper_pipeline().clustering.max_distance


@pytest.fixture(scope="module")
def evaluation():
    """The small-bnn probe's compression and simulation outputs."""
    kernels = get_model("small-bnn").kernels(workloads.PROBE_SEED)
    result = CompressionPipeline(paper_pipeline()).compress_model(kernels)
    scenario = workloads._eval_scenario("small-bnn", workloads.PROBE_SEED)
    return kernels, result, scenario, Simulator().run(scenario)


@pytest.fixture(scope="module")
def block():
    """ReActNet block 1 (clustering replaces some of its sequences):
    original ids, decoded ids, replacements, code lengths, payload bits."""
    kernel = generate_reactnet_kernels(seed=0)[1]
    result = CompressionPipeline(paper_pipeline()).compress_model({1: kernel})
    block_result = result.blocks[1]
    assert block_result.clustering.replacements, "need a clustered block"
    return (
        checks.kernel_sequences(kernel),
        np.concatenate(block_result.decode_sequences()),
        dict(block_result.clustering.replacements),
        [block_result.codec.tree.code_length_of(s) for s in range(512)],
        block_result.compressed_bits,
    )


@pytest.fixture(scope="module")
def logits():
    """Toy-model plan logits and the float reference at the same batch."""
    model = build_small_bnn(
        in_channels=1, num_classes=10, channels=(16, 32), image_size=8, seed=0
    )
    model.eval()
    images = np.random.default_rng(0).standard_normal((16, 1, 8, 8)).astype(np.float32)
    plan = InferencePlan.from_model(model, strategy="popcount")
    return plan.run_batch(images, batch_size=16), model.forward(images)


def test_program_outputs_pass_every_check(evaluation):
    kernels, result, scenario, report = evaluation
    workloads._verify_compression(kernels, result, MAX_DISTANCE)
    workloads._verify_simulation(scenario, kernels, report)


def test_altered_decoded_sequence_is_rejected(block):
    original, decoded, replacements, _, _ = block
    checks.check_clustered_block(original, decoded, replacements, MAX_DISTANCE, 1)
    altered = decoded.copy()
    altered[len(altered) // 2] ^= 1
    with pytest.raises(checks.CheckFailed, match="differ from the clustered"):
        checks.check_clustered_block(original, altered, replacements, MAX_DISTANCE, 1)


def test_replacement_beyond_max_distance_is_rejected(block):
    original, decoded, replacements, _, _ = block
    source = next(iter(replacements))
    far = {**replacements, source: source ^ 0b11}
    with pytest.raises(checks.CheckFailed, match="moves 2 bits"):
        checks.check_clustered_block(original, decoded, far, MAX_DISTANCE, 1)


def test_payload_size_off_by_one_bit_is_rejected(block):
    original, decoded, replacements, lengths, bits = block
    clustered = checks.check_clustered_block(
        original, decoded, replacements, MAX_DISTANCE, 1
    )
    checks.check_payload_bits(clustered, lengths, bits, 1)
    with pytest.raises(checks.CheckFailed, match="histogram"):
        checks.check_payload_bits(clustered, lengths, bits - 1, 1)


def test_payload_below_shannon_bound_is_rejected(block):
    original, decoded, replacements, _, _ = block
    clustered = checks.check_clustered_block(
        original, decoded, replacements, MAX_DISTANCE, 1
    )
    one_bit_codes = [1] * 512
    with pytest.raises(checks.CheckFailed, match="Shannon"):
        checks.check_payload_bits(clustered, one_bit_codes, clustered.size, 1)


def test_rtl_decode_mismatch_is_rejected(block):
    original = block[0]
    checks.check_rtl_block(original.copy(), original, 1)
    altered = original.copy()
    altered[0] ^= 1 << 8
    with pytest.raises(checks.CheckFailed, match="RTL-decoded"):
        checks.check_rtl_block(altered, original, 1)


def test_replay_stats_off_the_fsm_are_rejected(evaluation):
    _, _, _, report = evaluation
    reported = report.sections["rtl"]["blocks"]["1"]
    checks.check_rtl_oracle(reported, dict(reported), 1)
    with pytest.raises(checks.CheckFailed, match="stall_cycles"):
        checks.check_rtl_oracle(
            reported, dict(reported, stall_cycles=reported["stall_cycles"] + 1), 1
        )


def test_dram_figure_under_the_bound_is_rejected():
    line = 64
    layer = {"name": "block1_conv3x3", "payload_bytes": 1000, "dram_bytes": 1024}
    checks.check_dram_bytes([layer], line, "hw_compressed")
    with pytest.raises(checks.CheckFailed, match="compulsory"):
        checks.check_dram_bytes([dict(layer, dram_bytes=1023)], line, "hw_compressed")


def test_simulated_dram_figure_under_the_bound_fails_the_workload_check(evaluation):
    kernels, _, scenario, report = evaluation
    timing = report.timings["hw_compressed"]
    layer = next(t for t in timing.layers if t.workload.kind == "conv3x3")
    kept = layer.dram_bytes
    layer.dram_bytes = 0
    try:
        with pytest.raises(checks.CheckFailed, match="compulsory"):
            workloads._verify_simulation(scenario, kernels, report)
    finally:
        layer.dram_bytes = kept


def test_flipped_kernel_bit_is_rejected(evaluation):
    kernel = evaluation[0][1]
    checks.check_lossless(kernel, kernel.copy(), 0)
    flipped = kernel.copy()
    flipped[0, 0, 1, 1] ^= 1
    with pytest.raises(checks.CheckFailed, match="decoded kernel bits"):
        checks.check_lossless(kernel, flipped, 0)


def test_one_flipped_logit_bit_is_rejected(logits):
    served, reference = logits
    checks.check_logits_exact(served, reference, "toy")
    flipped = served.copy()
    flipped.view(np.uint32)[3, 2] ^= 1
    with pytest.raises(checks.CheckFailed, match="bit-identical"):
        checks.check_logits_exact(flipped, reference, "toy")


def test_wrong_daemon_response_is_rejected(logits):
    served, reference = logits
    nudged = np.nextafter(served, np.inf, dtype=np.float32)
    checks.check_logits_close(nudged, reference, "daemon")
    wrong = served.copy()
    wrong[5, 1] += 0.01 * max(float(np.abs(reference).max()), 1.0)
    with pytest.raises(checks.CheckFailed, match="round-off"):
        checks.check_logits_close(wrong, reference, "daemon")


def test_dropped_response_is_rejected():
    checks.check_response_count(600, 600)
    with pytest.raises(checks.CheckFailed, match="received 599"):
        checks.check_response_count(599, 600)


def test_fetching_beyond_the_manifest_is_rejected():
    checks.check_fetched_blobs(46, 46)
    with pytest.raises(checks.CheckFailed, match="fetched 47"):
        checks.check_fetched_blobs(47, 46)


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
