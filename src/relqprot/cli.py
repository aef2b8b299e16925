"""Command-line front end: closed forms, exact counts, single runs, sweeps.

Exit codes: 0 success or accepted run, 2 usage error (including an
unwritable output path), 4 aborted run, 5 sweep with at least one failing cell.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .experiment import (
    ExperimentSpec,
    cells_to_csv,
    cells_to_json,
    run_experiment,
)
from .parity import (
    alpha,
    count_block_strings_closed,
    pc_parity_block_bound,
    pc_parity_plain,
)
from .protocol import (
    HONEST,
    DelayBlocks,
    EarlyGuess,
    ProtocolConfig,
    SendBack,
    _delay_pass_probability,
    run_bit_commitment,
    run_coin_toss,
    transcript_to_jsonl,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ABORTED = 4
EXIT_SWEEP_FAILED = 5

# receiver strategies by their --strategy-b name
_STRATEGIES_B = {"honest": HONEST, "earlyguess": EarlyGuess(), "sendback": SendBack()}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relqprot",
        description="Relativistic bit-commitment and coin-tossing simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analytic = sub.add_parser("analytic", help="print the closed-form rate table")
    analytic.add_argument("-N", "--blocks", type=_positive_int, required=True)
    analytic.add_argument("-k", "--block-len", type=_positive_int, required=True)
    analytic.add_argument("--xi", "--tail-exponent", dest="tail_exponent", type=float)
    analytic.set_defaults(func=_cmd_analytic)

    count = sub.add_parser("count", help="count valid block strings exactly")
    count.add_argument("-N", "--blocks", type=_positive_int, required=True)
    count.add_argument("-k", "--block-len", type=_positive_int, required=True)
    count.set_defaults(func=_cmd_count)

    run = sub.add_parser("run", help="execute one protocol run")
    run.add_argument("protocol", choices=("bc", "ct"))
    run.add_argument("--config", help="JSON file with protocol parameters")
    # each dest is the ProtocolConfig field that the flag overrides
    run.add_argument("-N", "--blocks", dest="n_blocks", type=_positive_int)
    run.add_argument("-k", "--block-len", dest="block_len", type=_positive_int)
    run.add_argument("--width", type=float)
    run.add_argument("--separation", type=float)
    run.add_argument("--channel-delay", type=float)
    run.add_argument("--xi", "--tail-exponent", dest="tail_exponent", type=float)
    run.add_argument("--disclosure-time", type=float)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--delay-blocks",
                     help="bit commitment only: comma-separated block indices the sender withholds")
    run.add_argument("--strategy-b", choices=tuple(_STRATEGIES_B), default="honest")
    run.add_argument("--no-half-disclosure", action="store_true",
                     help="coin toss only: disclose everything in one phase")
    run.add_argument("--out", default="transcript.jsonl",
                     help="transcript output path (line-delimited JSON)")
    run.add_argument("-v", "--verbose", action="store_true",
                     help="echo the resolved configuration to stderr")
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser("sweep", help="run a Monte Carlo campaign")
    sweep.add_argument("--config", required=True, help="JSON experiment spec")
    sweep.add_argument("--seed", type=int,
                       help="override the master seed from the experiment file")
    sweep.add_argument("--out", default="sweep.csv")
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.add_argument("--jobs", type=_positive_int, default=1)
    sweep.add_argument("-v", "--verbose", action="store_true",
                       help="echo the resolved experiment spec to stderr")
    sweep.set_defaults(func=_cmd_sweep)

    return parser


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _cmd_analytic(args) -> int:
    n, k = args.blocks, args.block_len
    config = ProtocolConfig(n, k, tail_exponent=args.tail_exponent)
    rows = [
        ("plain parity guess success (k=1 exact)", _fmt(pc_parity_plain(n))),
        ("block-coded guess reference bound", _fmt(pc_parity_block_bound(n, k))),
        ("valid-string entropy ratio (alpha)", _fmt(alpha(n, k))),
        ("single-block delay escape (p_pass^k)", _fmt(_delay_pass_probability(config.make_state()) ** k)),
    ]
    if args.tail_exponent is not None:
        rows.append(("tailed honest completion (p_in_windows^(N k))", _fmt(config.honest_completion)))
    print(f"closed-form rates for N={n} blocks of k={k}")
    width = max(len(label) for label, _ in rows)
    for label, value in rows:
        print(f"  {label:<{width}} : {value}")
    print(
        "note: the block-coded bound is a loose reference; at k=1 the exact\n"
        "success is smaller by half the exponential term, and at small k>1 the\n"
        "measured optimal guess can exceed it (see README)."
    )
    return EXIT_OK


def _cmd_count(args) -> int:
    n, k = args.blocks, args.block_len
    even, odd = count_block_strings_closed(n, k)
    print(f"S_even={even} S_odd={odd} total={even + odd} alpha={_fmt(alpha(n, k))}")
    return EXIT_OK


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return data


def _build_config(args) -> ProtocolConfig:
    names = {f.name for f in dataclasses.fields(ProtocolConfig)}
    values: dict = {}
    if args.config:
        data = _load_json(args.config)
        unknown = set(data) - names
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        values.update(data)
    values.update({n: getattr(args, n) for n in names if getattr(args, n) is not None})
    if "n_blocks" not in values or "block_len" not in values:
        raise ValueError("n_blocks and block_len are required (flags or config file)")
    return ProtocolConfig(**values)


def _delay_blocks(text: str) -> list[int]:
    try:
        blocks = [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise ValueError("--delay-blocks must be comma-separated integers") from None
    if not blocks:  # an empty list would run as an honest sender
        raise ValueError("--delay-blocks names no block")
    return blocks


def _cmd_run(args) -> int:
    config = _build_config(args)
    if args.verbose:
        print(f"config: {config} seed={args.seed}", file=sys.stderr)

    strategy_b = _STRATEGIES_B[args.strategy_b]
    if args.protocol == "bc":
        if args.strategy_b == "sendback":
            raise ValueError("the send-back strategy applies to the coin toss only")
        if args.no_half_disclosure:
            raise ValueError("--no-half-disclosure applies to the coin toss only")
        blocks = args.delay_blocks
        strategy_a = HONEST if blocks is None else DelayBlocks(_delay_blocks(blocks))
        result = run_bit_commitment(config, strategy_a, strategy_b, seed=args.seed)
    else:
        if args.delay_blocks is not None:
            raise ValueError("--delay-blocks applies to bit commitment only")
        result = run_coin_toss(
            config,
            strategy_b=strategy_b,
            enforce_half_disclosure=not args.no_half_disclosure,
            seed=args.seed,
        )

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(transcript_to_jsonl(result.transcript))
    print(result.verdict.code())
    early = result.early_guess
    if early is not None:
        outcome = "correct" if early.correct else "wrong"
        print(f"early_guess={early.guess} confidence={_fmt(early.confidence)} {outcome}")
    return EXIT_OK if result.verdict.accepted else EXIT_ABORTED


def _cmd_sweep(args) -> int:
    data = _load_json(args.config)
    if args.seed is not None:
        data["master_seed"] = args.seed
    spec = ExperimentSpec.from_dict(data)
    if args.verbose:
        print(f"spec: {spec}", file=sys.stderr)
    cells = run_experiment(spec, jobs=args.jobs)
    text = cells_to_csv(cells) if args.format == "csv" else cells_to_json(cells)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(text)
    for cell in cells:
        params = " ".join(f"{k}={v}" for k, v in cell.params)
        status = "pass" if cell.passed else "FAIL"
        print(
            f"{cell.scenario} {params} estimate={_fmt(cell.estimate)} "
            f"reference={_fmt(cell.reference)} z={_fmt(cell.z)} {status}"
        )
    return EXIT_OK if all(c.passed for c in cells) else EXIT_SWEEP_FAILED


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
