"""Re-measure the reference figures quoted in ROADMAP.md, as medians of repeats.

    python3 bench/baselines.py

Prints a Markdown table: each figure's median over its repeats, beside the
earlier single-pass figure, both as measured and divided by the speed probe
of ``probe.py`` sampled around each repeat, as the benchmark's end-to-end
times are.  Takes about two minutes on one core.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import probe  # noqa: E402
from relqprot import experiment, protocol, wavepacket  # noqa: E402


def _median_times(fn, repeats: int) -> tuple[float, float]:
    """Median time as measured, and median time over the probe's speed."""
    times, normalized = [], []
    before = probe.sample()
    for i in range(repeats):
        t0 = perf_counter()
        fn(i)
        elapsed = perf_counter() - t0
        after = probe.sample()
        times.append(elapsed)
        normalized.append(elapsed * 2.0 * probe.NOMINAL_S / (before + after))
        before = after
    return statistics.median(times), statistics.median(normalized)


def _sweep(scenario, grid, trials):
    spec = experiment.ExperimentSpec(scenario, tuple((k, tuple(v)) for k, v in grid.items()), trials, 1)
    return lambda i: experiment.run_experiment(spec, jobs=1)


def main() -> int:
    cfg22 = protocol.ProtocolConfig(2, 2)
    cfg62 = protocol.ProtocolConfig(6, 2)
    cfg648 = protocol.ProtocolConfig(64, 8)
    compact = wavepacket.Waveform(1.0)
    gaussian = wavepacket.Waveform(1.0, tail_exponent=4.0)
    draws = np.random.default_rng(0).random(1_000_000)
    rows = [
        ("run_bit_commitment (2,2)", "238 µs", 1e6, "µs", 400,
         lambda i: protocol.run_bit_commitment(cfg22, seed=i)),
        ("run_coin_toss (2,2)", "547 µs", 1e6, "µs", 400,
         lambda i: protocol.run_coin_toss(cfg22, seed=i)),
        ("run_coin_toss SendBack (6,2)", "617 µs", 1e6, "µs", 400,
         lambda i: protocol.run_coin_toss(cfg62, strategy_b=protocol.SendBack(), seed=i)),
        ("run_bit_commitment (64,8)", "4.46 ms", 1e3, "ms", 100,
         lambda i: protocol.run_bit_commitment(cfg648, seed=i)),
        ("compact Waveform.ppf, 1e6 draws", "0.34 s", 1.0, "s", 9, lambda i: compact.ppf(draws)),
        ("Gaussian Waveform.ppf, 1e6 draws", "0.03 s", 1.0, "s", 9, lambda i: gaussian.ppf(draws)),
        ("bc_honest sweep (2,2), 10k trials", "3.1 s", 1.0, "s", 3,
         _sweep("bc_honest", {"n_blocks": [2], "block_len": [2]}, 10_000)),
        ("ct_sendback sweep (6,2), 20k trials", "15.5 s", 1.0, "s", 3,
         _sweep("ct_sendback", {"n_blocks": [6], "block_len": [2]}, 20_000)),
        ("parity_guess sweep, 6 cells of 100k", "0.19 s", 1.0, "s", 5,
         _sweep("parity_guess", {"n_blocks": [2, 4], "block_len": [1, 2, 4]}, 100_000)),
    ]
    print("| figure | single pass | median | median, probe-normalized | repeats |")
    print("|---|---|---|---|---|")
    for label, old, scale, unit, repeats, fn in rows:
        fn(0)  # warm the caches first, as every figure below is steady state
        raw, normalized = (t * scale for t in _median_times(fn, repeats))
        print(
            f"| {label} | {old} | {raw:.3g} {unit} | {normalized:.3g} {unit} | {repeats} |",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
