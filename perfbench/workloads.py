"""Seeded CLI workloads.

A workload is a fixed cycle of op kinds; each op is one fresh
``python -m diskbands ...`` process.  The seed draws only the argv the
program receives: ``--epsilon`` log-uniform in [1e-5, 1e-2], ``--m`` in
[0.05, 0.45], ``--error-constant`` either 0 or log-uniform in [0.1, 10], and,
where the kind does not pin it, the output format.  Every such draw exits 0.
"""

from __future__ import annotations

import math
import random

# kind name -> (fixed argv, format choice or None).  A pinned "--format" in
# the argv makes the workload alternate formats by kind instead of by seed.
KINDS: dict[str, tuple[tuple[str, ...], tuple[str, ...] | None]] = {
    "bands": (("bands", "--count", "10", "--grid", "129"), ("csv", "json")),
    "gaps": (("gaps", "--count", "10", "--grid", "128"), ("csv", "json")),
    "spectrum": (("spectrum", "--count", "1500"), ("csv", "json")),
    "zeros": (("zeros", "--n-max", "29", "--k-max", "20"), ("csv", "json")),
    "verify": (("verify",), None),
    "diagram-csv": (("diagram", "--count", "10", "--grid", "65", "--format", "csv"), None),
    "diagram-json": (("diagram", "--count", "10", "--grid", "65", "--format", "json"), None),
}

# Why each workload exists (one line each; mirrored in BENCHMARK.json).
WORKLOADS: dict[str, tuple[str, ...]] = {
    # Lambda1 sweep over a 129^2 / 128^2 eta grid: corrections -> bessel ->
    # kernel recompute eta-independent Bessel values; count 10 covers the
    # simple, cosine, sine and undetermined branches, the even grid the
    # candidate-sharpening path.
    "sweep": ("bands", "gaps"),
    # Zero finding only (scan, bisection, Newton over the kernel); no Floquet
    # work, so sweep changes must leave it flat.
    "spectrum": ("spectrum", "zeros"),
    # The only workload that loads the oracles: per-node boundary quadrature,
    # finite-volume Sturm bisection, correction-matrix panel doubling.
    "verify": ("verify",),
    # Every brillouin_sweep sample materialised and formatted (42,250 rows);
    # the only workload where cli formatting and json.dumps cost much.
    "diagram": ("diagram-csv", "diagram-json"),
}


def _draw(rng: random.Random, kind: str) -> list[str]:
    fixed, formats = KINDS[kind]
    argv = list(fixed)
    argv += ["--epsilon", "%.6g" % 10.0 ** rng.uniform(-5.0, -2.0)]
    argv += ["--m", "%.6g" % rng.uniform(0.05, 0.45)]
    if kind != "verify":
        c = 0.0 if rng.random() < 0.5 else math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        argv += ["--error-constant", "%.6g" % c]
    if formats is not None:
        argv += ["--format", rng.choice(formats)]
    return argv


def op_cycles(workload: str, seed: int):
    """Endless cycles of (kind, argv) pairs; the same seed gives the same
    sequence, and every cycle runs each kind of the workload once."""
    rng = random.Random("%s:%d" % (workload, seed))
    kinds = WORKLOADS[workload]
    while True:
        yield [(kind, _draw(rng, kind)) for kind in kinds]
