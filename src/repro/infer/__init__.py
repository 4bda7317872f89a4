"""Batched compressed-artifact inference engine (Sec. IV-B).

This package is the serving half of the paper's story: Sec. IV-B's
execution model keeps binary kernels channel-packed in 64-bit words (the
daBNN layout of Fig. 5) and computes every binary convolution as
``bits - 2 * popcount(xor(w, x))`` over those words, with spatial
padding contributing -1 (a 0 bit).  The engine maps onto that model
piece by piece:

===========================  =========================================
paper / daBNN concept        engine counterpart
===========================  =========================================
channel-packed kernel words  prepacked ``(words, num_bits)`` operands,
(Fig. 5)                     built once per weight version by
                             ``BinaryConv2d.prepare()`` — never per
                             forward call
sign activation feeding the  fused threshold in
binary conv (Fig. 1 RSign)   :class:`~repro.infer.plan.PackedConvStep`:
                             floats go straight to {0, 1} bits
xnor+popcount inner loop     ``contract_packed_patches`` (popcount)
(Eq. 2 / Sec. IV-B)          over bit-domain im2col patches, tiled by
                             output channel, in cache-sized row blocks
decoding unit scratchpad     :class:`~repro.infer.cache.LruCache` of
holding decoded kernels      on-demand-decoded, prepacked kernels in
(Fig. 6 / Sec. IV-C)         artifact-backed plans
compressed deployment        :meth:`InferencePlan.from_artifact`:
(Sec. IV-A streams)          decode straight from the deploy artifact,
                             no intermediate model object
===========================  =========================================

The float reference path (:func:`repro.bnn.ops.binary_conv2d_reference`
and the layers' ``forward``) survives as the test oracle: every plan is
required to produce logits bit-identical to it.

Quickstart::

    from repro.infer import InferencePlan

    plan = InferencePlan.from_artifact("model.npz")   # lazy decode + LRU
    logits = plan.run_batch(images, batch_size=64)    # packed execution

    plan = InferencePlan.from_model(model)            # live model, same API
"""

from .cache import LruCache
from .plan import (
    FloatStep,
    InferencePlan,
    KernelEntry,
    PackedConvStep,
    PackedDenseStep,
    PlanStep,
)

__all__ = [
    "FloatStep",
    "InferencePlan",
    "KernelEntry",
    "LruCache",
    "PackedConvStep",
    "PackedDenseStep",
    "PlanStep",
]
