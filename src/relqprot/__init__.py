"""Relativistic bit-commitment and coin-tossing simulator.

A secret bit is committed as the parity of block-replicated bits carried by
two-hump wavepackets that cross the channel at light speed: while only the
front humps have arrived, the receiver's best parity guess is exponentially
close to a coin flip, while a sender who delays the choice is caught by the
orthogonal-outcome verification with probability exponentially close to one.
The package reproduces every closed-form rate of that analysis by Monte
Carlo and exact enumeration, and runs the full two-party protocols with
honest and cheating strategies.
"""

from .experiment import (
    SCENARIOS,
    ExperimentSpec,
    SummaryCell,
    cells_to_csv,
    cells_to_json,
    run_experiment,
    wilson_interval,
)
from .measurement import (
    PriorPair,
    composite_error,
    helstrom_error,
)
from .parity import (
    DEFAULT_ENUM_BOUND,
    InconsistentEvidenceError,
    ParityGuess,
    alpha,
    count_block_strings,
    count_block_strings_closed,
    exact_parity_guesser,
    parity_posterior,
    pc_parity_block_bound,
    pc_parity_optimal,
    pc_parity_plain,
)
from .protocol import (
    HONEST,
    AbortReason,
    AuditError,
    BitCommitmentResult,
    CoinTossResult,
    DelayBlocks,
    EarlyGuess,
    EarlyGuessReport,
    Event,
    Honest,
    ProtocolConfig,
    SendBack,
    Transcript,
    Verdict,
    audit_transcript,
    mirror_guess_acceptance,
    run_bit_commitment,
    run_coin_toss,
    sample_secret,
    transcript_to_jsonl,
)
from .wavepacket import (
    StretchedState,
    Waveform,
    delayed_overlap,
)

__version__ = "0.15.0"
