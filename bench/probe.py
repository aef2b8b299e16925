"""Speed probe: a fixed kernel that times the host, never relqprot.

The host's CPU speed drifts by 20 to 45% between runs of 20 s, in wall time
and in CPU time alike, which is wider than any bound that still catches a
regression.  A round therefore times the kernel before each change of op
family and after every ``PROBE_EVERY_S`` of work.  Each op's time is
divided by the speed of the two samples around it, where speed is their
mean time over ``NOMINAL_S``.  Times then read as times at the host's
nominal speed, and the drift cancels to the extent that the kernel and the
op slow down together.

The kernel imitates one protocol run and its serialization.  In a trial
over twelve 20 s windows it cut the spread of the state-machine ops' median
time from 16-19% to about 1%.  Two other kernels were tried, a numpy pass
over a 4 MiB vector and exact sums of binomial ratios; neither tracked the
ops better across the workloads, so one kernel serves every op.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from time import perf_counter

import numpy as np

PROBE_EVERY_S = 0.05


@dataclass(frozen=True)
class _Event:
    t: float
    actor: str
    kind: str
    payload: dict


def kernel() -> int:
    """Small frozen dataclasses, a keyed sort, JSON and a seeded generator,
    like one protocol run and its serialization."""
    rng = np.random.default_rng(12345)
    events = []
    for c in range(150):
        u = rng.random(2)
        payload = {"channel": c, "outcome": f"ch{c % 2}", "tau": float(u[1])}
        events.append(_Event(float(u[0]) * 10.0, "AB"[c % 2], "detect", payload))
    events.sort(key=lambda e: (e.t, e.kind, e.payload["channel"]))
    return sum(
        len(json.dumps(
            {"t": e.t, "actor": e.actor, "kind": e.kind, "payload": e.payload},
            sort_keys=True,
            separators=(",", ":"),
        ))
        for e in events
    )


# Median time of the kernel inside the workloads' rounds on an Intel Xeon
# (2 vCPUs, Python 3.11.7, numpy 2.4.6).  It fixes the unit of the
# normalized times only; no check depends on it.
NOMINAL_S = 2.5e-3


def sample() -> float:
    """Time the kernel once."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0
