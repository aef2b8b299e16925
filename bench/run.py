"""relqprot benchmark: one workload, timed for a fixed wall-clock budget.

    python3 bench/run.py --workload protocol_sweep --seed 1 --seconds 30 --trace 0

Run from the repository root; relqprot is imported from ``src/``.  With
``--trace 0`` the last line of stdout is a JSON object holding every
end-to-end metric; with ``--trace 1`` it holds the per-layer metrics, taken
from traced rounds that alternate with untraced rounds over the same
inputs, plus the tracing overhead between the two.  The workloads are
defined in ``workloads.py`` and documented in ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the result and environment here")
    parser.add_argument("--first-calls", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def environment(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def _git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(workload: str) -> float:
    """Wall time of a fresh interpreter that imports relqprot and makes the
    first call of each of the workload's entries."""
    t0 = perf_counter()
    subprocess.run(
        [sys.executable, str(Path(__file__)), "--first-calls", "--workload", workload],
        check=True,
        timeout=120,
        stdout=subprocess.DEVNULL,
    )
    return perf_counter() - t0


def _round_figures(record, normalized: bool) -> dict:
    """Per-round sums: sweep trials and seconds (all and per scenario),
    reference-set seconds, and transcript latencies."""
    from workloads import RATED_SCENARIOS

    fig = {"trials": 0, "sweep_s": 0.0, "oracle_s": 0.0, "transcript_ms": []}
    fig.update({f"trials.{s}": 0 for s in RATED_SCENARIOS})
    fig.update({f"sweep_s.{s}": 0.0 for s in RATED_SCENARIOS})
    for op, seconds in record.scaled(normalized):
        if op.kind == "cell":
            trials = op.trials * op.n_cells
            fig["trials"] += trials
            fig["sweep_s"] += seconds
            if op.scenario in RATED_SCENARIOS:
                fig[f"trials.{op.scenario}"] += trials
                fig[f"sweep_s.{op.scenario}"] += seconds
        elif op.kind == "transcript":
            fig["transcript_ms"].append(seconds * 1e3)
        else:
            fig["oracle_s"] += seconds
    return fig


def end_to_end_metrics(rounds, tally, setup_s, peak_rss_mb, normalized=True) -> dict:
    """Every end-to-end metric; each op's time is divided by its round's
    probe speed unless ``normalized`` is false."""
    from workloads import RATED_SCENARIOS

    figs = [_round_figures(r, normalized) for r in rounds]

    def median(values):
        # ops that raised leave no timing; their failure is already counted
        values = list(values)
        return statistics.median(values) if values else 0.0

    def median_rate(count, seconds):
        return median(f[count] / f[seconds] for f in figs if f[seconds] > 0)

    # Each round holds the same mix of transcript sizes, so its own p50 and
    # p90 land in the same latency band every time; the median over rounds
    # then drops the rounds that a pause or a burst of drift distorted.
    p50, p90 = (
        median(float(np.percentile(f["transcript_ms"], q)) for f in figs if f["transcript_ms"])
        for q in (50, 90)
    )
    values = {
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "passed_frac": (1.0 - tally.failed / tally.attempted, "frac"),
        "trials_per_s": (median_rate("trials", "sweep_s"), "1/s"),
    }
    for scenario in RATED_SCENARIOS:
        values[f"trials_per_s.{scenario}"] = (
            median_rate(f"trials.{scenario}", f"sweep_s.{scenario}"),
            "1/s",
        )
    values["oracle_s"] = (median(f["oracle_s"] for f in figs), "s")
    values["run_ms_p50"] = (p50, "ms")
    values["run_ms_p90"] = (p90, "ms")
    values["transcripts_per_s"] = (
        median(len(f["transcript_ms"]) / sum(f["transcript_ms"]) * 1e3 for f in figs if f["transcript_ms"]),
        "1/s",
    )
    return values


def per_layer_metrics(tracer, traced, untraced) -> dict:
    n = len(traced)
    calls, self_s = tracer.layer_totals()
    counts = tracer.counts
    values = {}

    def per_round(name):
        values[f"{name}.calls"] = (calls[name] / n, "count/round")
        values[f"{name}.self_s"] = (self_s[name] / n, "s/round")

    for name in ("ppf_compact", "ppf_gaussian"):
        per_round(name)
        draws = counts[f"{name}.draws"]
        values[f"{name}.draws"] = (draws / n, "count/round")
        values[f"{name}.ns_per_draw"] = (self_s[name] / draws * 1e9 if draws else 0.0, "ns")
    per_round("delayed_overlap")
    per_round("sample_secret")
    per_round("exact_parity_guesser")
    hits = sum(r.posterior_hits for r in traced)
    misses = sum(r.posterior_misses for r in traced)
    values["parity_posterior.hits"] = (hits / n, "count/round")
    values["parity_posterior.misses"] = (misses / n, "count/round")
    values["parity_posterior.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "frac")
    per_round("count_block_strings_closed")
    per_round("run_bit_commitment")
    per_round("run_coin_toss")
    per_round("audit_transcript")
    per_round("transcript_to_jsonl")
    values["transcript_to_jsonl.bytes"] = (counts["transcript_to_jsonl.bytes"] / n, "B/round")
    runs = counts["runs"]
    values["events_per_run"] = (counts["events"] / runs if runs else 0.0, "count")
    values["accept_ratio"] = (counts["accepted"] / runs if runs else 0.0, "frac")
    per_round("mirror_guess_acceptance")
    per_round("run_experiment")
    protocol_trials = sum(r.protocol_trials for r in traced)
    values["protocol_calls_per_trial"] = (
        counts["sweep_protocol_calls"] / protocol_trials if protocol_trials else 0.0,
        "count",
    )
    values["cells"] = (sum(r.cells for r in traced) / n, "count/round")
    values["cells_out_of_band"] = (sum(r.cells_out_of_band for r in traced) / n, "count/round")
    values["tracing_overhead"] = (
        statistics.median(
            sum(s for _, s in t.scaled()) / sum(s for _, s in u.scaled())
            for t, u in zip(traced, untraced)
        )
        - 1.0,
        "frac",
    )
    return values


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "relqprot" / "__init__.py").is_file():
        print(f"error: relqprot sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.first_calls:
        workloads.first_calls(workload)
        return 0

    env = environment(args.seed)
    setup_s = [measure_setup(args.workload) for _ in range(SETUP_REPEATS)]
    tally = workloads.Tally()
    tracer = Tracer() if args.trace else None
    round_seeds = np.random.default_rng(args.seed)
    rounds, traced = [], []
    deadline = perf_counter() + args.seconds
    while not rounds or perf_counter() < deadline:
        round_seed = int(round_seeds.integers(2**62))
        rounds.append(workloads.run_round(workload, round_seed, tally))
        if tracer is not None:
            with tracer.patched():
                traced.append(workloads.run_round(workload, round_seed, tally))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tally.record(workloads.determinism_problems(args.seed))

    raw = {}
    if tracer is None:
        metrics = end_to_end_metrics(rounds, tally, setup_s, peak_rss_mb)
        raw = end_to_end_metrics(rounds, tally, setup_s, peak_rss_mb, normalized=False)
    else:
        metrics = per_layer_metrics(tracer, traced, rounds)
    speeds = [r.speed for r in rounds]

    print(
        f"# {args.workload} seed={args.seed} rounds={len(rounds)}"
        f"{' traced=' + str(len(traced)) if traced else ''} "
        f"attempted={tally.attempted} failed={tally.failed}",
        file=sys.stderr,
    )
    print(
        f"probe speed median {statistics.median(speeds):.3f}"
        f" range {min(speeds):.3f}..{max(speeds):.3f}",
        file=sys.stderr,
    )
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6g} {unit}", file=sys.stderr)
    for message in tally.messages:
        print(f"FAILED: {message}", file=sys.stderr)

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        record = {
            "workload": args.workload,
            "seconds": args.seconds,
            "trace": args.trace,
            "rounds": len(rounds),
            "probe_speed": speeds,
            "env": env,
            "result": result,
            "unnormalized": {name: value for name, (value, _) in raw.items()},
        }
        args.out.write_text(json.dumps(record, indent=2) + "\n")
    print("# env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
