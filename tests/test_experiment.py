import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from relqprot import experiment, parity
from relqprot.experiment import (
    ExperimentSpec,
    cells_to_csv,
    cells_to_json,
    run_experiment,
    wilson_interval,
)
from relqprot.parity import InconsistentEvidenceError, exact_parity_guesser
from relqprot.protocol import ProtocolConfig


def spec(scenario="identification", grid=None, trials=2000, master_seed=7):
    return ExperimentSpec.from_dict(
        {
            "scenario": scenario,
            "grid": grid if grid is not None else {"tau_d": [5.0]},
            "trials": trials,
            "master_seed": master_seed,
        }
    )


def test_spec_validation():
    with pytest.raises(ValueError):
        spec(scenario="nonsense")
    with pytest.raises(ValueError):
        spec(grid={})
    with pytest.raises(ValueError):
        spec(grid={"tau_d": []})
    with pytest.raises(ValueError):
        spec(grid={"n_blocks": [2]})  # not a parameter of identification
    # an option is a parameter of its own scenario only
    for scenario, option, value in [("ct_honest", "half_disclosure", True), ("bc_honest", "delayed_blocks", 1),
                                    ("cheat_detection", "half_disclosure", True),
                                    ("ct_sendback", "delayed_blocks", 1)]:
        with pytest.raises(ValueError, match=f"parameter '{option}' not used by {scenario}"):
            spec(scenario, {"n_blocks": [2], option: [value]})
    with pytest.raises(ValueError):
        spec(trials=0)
    with pytest.raises(ValueError):
        spec(trials=2.5)
    with pytest.raises(ValueError):
        ExperimentSpec("bc_honest", (("n_blocks", (2,)),), 10, master_seed=1.5)
    with pytest.raises(ValueError):
        ExperimentSpec.from_dict({"scenario": "identification", "grid": {"tau_d": 5.0},
                                  "trials": 10, "bogus": 1})


def test_scalar_grid_values_coerced_and_cells_ordered():
    s = spec(
        scenario="parity_guess",
        grid={"n_blocks": [1, 2], "block_len": 1},
        trials=10,
    )
    assert s.cells() == [
        {"block_len": 1, "n_blocks": 1},
        {"block_len": 1, "n_blocks": 2},
    ]


def test_wilson_interval_sanity():
    lo, hi = wilson_interval(50, 100)
    assert lo == pytest.approx(0.4038, abs=2e-3)
    assert hi == pytest.approx(0.5962, abs=2e-3)
    assert wilson_interval(0, 10)[0] == 0.0
    assert wilson_interval(10, 10)[1] == 1.0
    with pytest.raises(ValueError):
        wilson_interval(0, 0)
    with pytest.raises(TypeError):  # the sweep grades at z = 1.96 only
        wilson_interval(50, 100, z=1.0)


@pytest.mark.parametrize("successes, trials, name", [
    (2.5, 10, "successes"), (True, 10, "successes"), (5, 3, "successes"),
    (-1, 10, "successes"), (3, True, "trials"), (3, 10.0, "trials"),
])
def test_wilson_interval_checks_its_counts(successes, trials, name):
    # counts are ints or numpy integers, with 0 <= successes <= trials
    with pytest.raises(ValueError, match=f"^{name} must"):
        wilson_interval(successes, trials)
    assert wilson_interval(np.int64(3), np.int64(10)) == wilson_interval(3, 10)


def test_compare_modes(monkeypatch):
    # every cell passes iff |z| <= 3; a reference of exactly 0 or 1 is
    # labelled exact and passes only on equality.  References are planted.
    def graded(scenario, grid, trials, reference):
        monkeypatch.setattr(experiment, "mirror_guess_acceptance", lambda n, k: reference)
        monkeypatch.setattr(experiment, "pc_parity_optimal", lambda n, k: reference)
        (cell,) = run_experiment(spec(scenario=scenario, grid=grid, trials=trials))
        return cell

    cell = graded("parity_guess", {"n_blocks": 2, "block_len": 1}, 4000, 0.625)
    assert (cell.mode, cell.passed) == ("two_sided", True) and abs(cell.z) <= 3.0
    cell = graded("parity_guess", {"n_blocks": 2, "block_len": 1}, 4000, 0.5)
    assert (cell.mode, cell.passed) == ("two_sided", False) and cell.z > 3.0
    cell = graded("parity_guess", {"n_blocks": 2, "block_len": 1}, 4000, 0.75)
    assert (cell.mode, cell.passed) == ("two_sided", False) and cell.z < -3.0
    # the staged mirror passes with probability 1/2 at (2, 1): an exact
    # reference of 1 is missed, an exact 0 is missed, and the unstaged
    # mirror's exact 1 is met
    sendback = {"n_blocks": 2, "block_len": 1}
    cell = graded("ct_sendback", sendback, 400, 1)
    assert (cell.mode, cell.passed, cell.z) == ("exact", False, math.inf)
    cell = graded("ct_sendback", sendback, 400, 0)
    assert (cell.mode, cell.passed, cell.z) == ("exact", False, math.inf)
    (cell,) = run_experiment(spec(scenario="ct_sendback",
                                  grid={**sendback, "half_disclosure": False}, trials=400))
    assert (cell.mode, cell.passed, cell.z, cell.estimate) == ("exact", True, 0.0, 1.0)


def test_identification_cell_matches_reference():
    cells = run_experiment(spec(trials=20_000))
    assert len(cells) == 1
    cell = cells[0]
    assert cell.reference == pytest.approx(0.75)
    assert cell.passed
    assert cell.ci_lo <= cell.estimate <= cell.ci_hi


def test_reproducible_and_worker_independent():
    s = spec(scenario="cheat_detection", grid={"block_len": [1, 2], "n_blocks": 2}, trials=5000)
    once = run_experiment(s)
    again = run_experiment(s)
    parallel = run_experiment(s, jobs=2)
    assert once == again == parallel


def test_pool_never_exceeds_the_cell_count(monkeypatch):
    # a process pool forks all its workers up front; record the request and
    # run the cells in this process instead
    requested = []

    class Recorder:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", Recorder)
    (cell,) = run_experiment(spec(trials=100), jobs=4096)
    assert requested == [1] and cell.trials == 100
    run_experiment(spec(scenario="cheat_detection",
                        grid={"block_len": [1, 2], "n_blocks": 2}, trials=100), jobs=4096)
    assert requested == [1, 2]


def test_common_random_numbers_share_prefix_draws():
    a = run_experiment(spec(scenario="parity_guess",
                            grid={"n_blocks": [3], "block_len": 1}, trials=400))
    b = run_experiment(spec(scenario="parity_guess",
                            grid={"n_blocks": [3, 5], "block_len": 1}, trials=400))
    assert a[0].successes == b[0].successes  # same cell, same draws, any grid


def test_guess_advantage_nonincreasing_in_block_count():
    # common random numbers across the N grid make the sampled advantage
    # itself monotone, not just its expectation
    cells = run_experiment(
        spec(scenario="parity_guess",
             grid={"n_blocks": [1, 2, 3, 4, 5, 6], "block_len": 1},
             trials=50_000, master_seed=0)
    )
    estimates = [c.estimate for c in cells]
    assert all(a >= b for a, b in zip(estimates, estimates[1:]))


def test_pass_rate_calibration_over_master_seeds():
    # a true-reference scenario should pass its three-sigma gate for almost
    # every master seed
    passes = 0
    for seed in range(60):
        (cell,) = run_experiment(spec(trials=4000, master_seed=seed))
        passes += cell.passed
    assert passes >= 58


def test_ct_sendback_cells():
    on = run_experiment(spec(scenario="ct_sendback",
                             grid={"n_blocks": 2, "block_len": 1}, trials=3000))
    assert on[0].reference == pytest.approx(0.5)
    assert on[0].mode == "two_sided"
    assert on[0].passed
    off = run_experiment(spec(scenario="ct_sendback",
                              grid={"n_blocks": 2, "block_len": 1,
                                    "half_disclosure": False}, trials=400))
    assert off[0].mode == "exact"
    assert off[0].estimate == 1.0
    assert off[0].passed


def test_bc_honest_exact_cell():
    cells = run_experiment(spec(scenario="bc_honest",
                                grid={"n_blocks": 2, "block_len": 2}, trials=300))
    assert cells[0].mode == "exact"
    assert cells[0].successes == 300
    assert cells[0].passed


def test_csv_and_json_serialization():
    s = spec(trials=500)
    cells = run_experiment(s)
    csv_text = cells_to_csv(cells)
    lines = csv_text.strip().splitlines()
    assert lines[0].startswith("# relqprot sweep schema")
    assert lines[1].split(",")[0] == "scenario"
    assert len(lines) == 2 + len(cells)
    payload = json.loads(cells_to_json(cells))
    assert payload["schema"] == 1
    assert payload["cells"][0]["scenario"] == "identification"

    exact = run_experiment(spec(scenario="bc_honest",
                                grid={"n_blocks": 2, "block_len": 1}, trials=50))
    again = json.loads(cells_to_json(exact))
    assert again["cells"][0]["z"] is None or math.isfinite(again["cells"][0]["z"])


def test_cheat_detection_rejects_bad_delayed_count():
    with pytest.raises(ValueError):
        run_experiment(spec(scenario="cheat_detection",
                            grid={"n_blocks": 2, "block_len": 1, "delayed_blocks": 3},
                            trials=10))


@pytest.mark.parametrize(
    "scenario, grid",
    [
        ("bc_honest", {"n_blocks": [2, 3], "block_len": 2}),
        ("ct_honest", {"n_blocks": [2, 3], "block_len": 2}),
        ("ct_sendback", {"n_blocks": [2, 4], "block_len": 1, "half_disclosure": [True, False]}),
        ("tailed_completion", {"n_blocks": 2, "block_len": 2, "tail_exponent": [2.0, 4.0]}),
        ("parity_guess", {"n_blocks": [2, 3], "block_len": [1, 4]}),
    ],
)
def test_protocol_sweeps_byte_identical_for_any_jobs(scenario, grid):
    s = spec(scenario=scenario, grid=grid, trials=300)
    serial = cells_to_json(run_experiment(s, jobs=1))
    assert serial == cells_to_json(run_experiment(s, jobs=2))
    assert all(cell["pass"] for cell in json.loads(serial)["cells"])


_PINNED_SWEEPS = [
    ("bc_honest", {"n_blocks": 2, "block_len": 2, "width": [1e-15, 1.0]}),
    ("bc_honest", {"n_blocks": 8, "block_len": 4, "width": [1e-15, 1.0]}),
    ("ct_honest", {"n_blocks": [2, 3], "block_len": 2}),
    ("ct_sendback", {"n_blocks": [2, 3], "block_len": 2, "half_disclosure": [True, False]}),
    ("tailed_completion", {"n_blocks": 2, "block_len": 2, "tail_exponent": [1.0, 4.0]}),
]


def test_engine_sweeps_keep_their_bytes():
    # one SHA-256 over the CSV of fixed-seed engine sweeps, so that a change
    # to the RNG stream or to how outcomes are classed shows; the width 1e-15
    # cells put some fires on a window edge by rounding, and accept every trial
    digest = hashlib.sha256()
    for scenario, grid in _PINNED_SWEEPS:
        digest.update(cells_to_csv(run_experiment(spec(scenario, grid, trials=3000))).encode())
    assert digest.hexdigest() == "5d7323063fd81c93ce63087e238089cff64b0e6c4a31522cca217e95adedc3a3"


def test_identification_sweeps_keep_their_bytes():
    # the default tau_d, width + separation / 2, lies in the hump gap but at
    # width 3, where it lies in the rear hump, as 7.5 does at widths 1 and 3;
    # 5.0 is the rear hump's lower edge at width 3, separation 8, and 3.25
    # the gap at width 3, separation 6.5
    digest = hashlib.sha256()
    for grid in [{"width": [1e-15, 1.0, 3.0], "separation": [6.5, 8.0]},
                 {"tau_d": [5.0, 7.5], "width": [1e-15, 1.0, 3.0], "separation": 8.0},
                 {"tau_d": 3.25, "width": 3.0, "separation": 6.5}]:
        digest.update(cells_to_csv(run_experiment(spec(grid=grid, trials=20_000))).encode())
    assert digest.hexdigest() == "a186439fb8c5d9786e072b6655cba7a3d8b649263e2cdfeafd36a30a8dfad236"


def test_parity_guess_sweeps_keep_their_bytes():
    # k >= 63 takes more than one draw word, and at (6, 64) and (6, 70) the
    # evidence keys ones * (N k + 1) + zeros no longer fit in int16
    digest = hashlib.sha256()
    for grid in [{"n_blocks": [2, 4], "block_len": [1, 2, 4]},
                 {"n_blocks": [6], "block_len": [64, 70]}]:
        digest.update(cells_to_csv(run_experiment(spec("parity_guess", grid, trials=3000))).encode())
    assert digest.hexdigest() == "f2aaf98f99ce406982445d92df80e99aa4e53a090469d8c0cb991d7c4f373c3b"


def test_cheat_detection_sweeps_keep_their_bytes():
    grid = {"n_blocks": [2, 4], "block_len": [1, 2], "delayed_blocks": [1, 2]}
    csv_text = cells_to_csv(run_experiment(spec("cheat_detection", grid, trials=3000)))
    digest = hashlib.sha256(csv_text.encode()).hexdigest()
    assert digest == "ced509ce69e1e5e67b5978a46d9258cdf291647115c63d58d285b5c7fc097fa0"


class _ExtremeDraws(np.random.Generator):
    """Hump coins that alternate, every U 0 and V in {0, 1/2}, so the sampler
    places each fire on an extreme of its hump; every bit is 1, so a success
    is a fire."""

    calls = 0

    def random(self, size=None):
        self.calls += 1
        return np.resize([[0.0, 0.5], [0.0], [0.0, 0.0, 0.5, 0.5]][self.calls - 1], size)

    def integers(self, low, high=None, size=None):
        return np.ones(size, np.int64)


@pytest.mark.parametrize("tau_d, fires", [
    (7.999999999999999, 6),  # the rear hump's lower extreme, a tie that fires
    (np.nextafter(7.999999999999999, 0.0), 4),
    (np.nextafter(1e-15, 1.0), 4),  # one ulp past the front hump's upper extreme
])
def test_identification_classes_extreme_fires_as_their_placement(tau_d, fires):
    cfg = ProtocolConfig(1, 1, width=1e-15, separation=8.0, disclosure_time=tau_d)
    state = cfg.make_state()
    assert state._fire_bounds() == (1e-15, 7.999999999999999)
    placed = state._place_fires(state._fire_draws(_ExtremeDraws(np.random.PCG64(0)), 8)) <= tau_d
    successes, _ = experiment._kernel_identification(cfg, {}, 8, _ExtremeDraws(np.random.PCG64(0)))
    assert successes == np.count_nonzero(placed) == fires


@pytest.mark.parametrize("tau_d", [None, 7.5], ids=["hump-gap", "rear-hump"])
def test_identification_kernel_peak_memory(tau_d):
    # the coins, U and V at most: no draw array is alive when the bits are drawn
    cfg = ProtocolConfig(1, 1, disclosure_time=tau_d)
    tracemalloc.start()
    try:
        experiment._kernel_identification(cfg, {}, 10**6, (0, 1, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 18e6


def test_engine_chunks_cover_every_trial(monkeypatch):
    monkeypatch.setattr(experiment, "_CHUNK_ELEMENTS", 12)  # 3 trials per chunk
    (cell,) = run_experiment(spec(scenario="bc_honest",
                                  grid={"n_blocks": 2, "block_len": 2}, trials=50))
    assert cell.successes == 50
    (cell,) = run_experiment(spec(scenario="ct_sendback",
                                  grid={"n_blocks": 2, "block_len": 2}, trials=2000))
    assert cell.passed and 0 < cell.successes < 2000


def test_kernel_guess_is_the_exact_guesser_at_every_pair():
    ties = 0
    for n in range(1, 7):
        for k in range(1, 5):
            nk = n * k
            pairs = [(a, b) for a in range(nk + 1) for b in range(nk + 1 - a)]
            ones, zeros = np.array(pairs).T
            guesses = parity._optimal_guesses(n, k, ones, zeros)
            for (a, b), guess in zip(pairs, guesses.tolist()):
                try:
                    expected = exact_parity_guesser({c: int(c < a) for c in range(a + b)}, n, k)
                except InconsistentEvidenceError:
                    continue
                assert guess == expected.guess, (n, k, a, b)
                ties += expected.confidence == 0.5
    assert ties > 0  # a tie goes to 0 in both


@pytest.mark.parametrize("k", [1, 4, 63, 64, 70])
def test_block_draw_follows_the_exact_per_block_law(k):
    # the value is a uniform bit and the fires Bin(k, 1/2) independent of it;
    # k >= 63 takes more than one word
    trials = 200_000
    value, fires = experiment._block_column(np.random.default_rng(k), k, trials, np.int16)
    assert value.dtype == bool and fires.dtype == np.int16
    assert 0 <= fires.min() and fires.max() <= k
    observed = np.stack([np.bincount(fires[value == v], minlength=k + 1) for v in (0, 1)])
    expected = np.outer([trials / 2] * 2, stats.binom.pmf(np.arange(k + 1), k, 0.5))
    # pool the fire counts into bins of at least 20 expected draws per value
    edges = [0]
    for i in range(1, k + 1):
        if expected[0, edges[-1]:i].sum() >= 20 and expected[0, i:].sum() >= 20:
            edges.append(i)
    observed, expected = (np.add.reduceat(a, edges, axis=1) for a in (observed, expected))
    chi2 = ((observed - expected) ** 2 / expected).sum()
    assert stats.chi2.sf(chi2, observed.size - 1) > 1e-4


def test_parity_guess_kernel_peak_memory():
    # per-trial accumulators only, no (N, trials) stacks
    tracemalloc.start()
    try:
        experiment._kernel_parity_guess(ProtocolConfig(6, 1), {}, 10**6, (0, 2, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24e6  # int16 counts; int64 ones, fired and fires read about 37 MB


def test_parity_guess_cells_beyond_one_word_graded_against_exact_optimum():
    cells = run_experiment(spec(scenario="parity_guess",
                                grid={"n_blocks": [6, 8], "block_len": [64, 70]},
                                trials=20_000))
    assert all(c.mode == "two_sided" and c.passed for c in cells)


def test_parity_guess_cells_graded_against_exact_optimum():
    cells = run_experiment(spec(scenario="parity_guess",
                                grid={"n_blocks": [2, 4], "block_len": [1, 2, 4]},
                                trials=20_000))
    assert all(c.mode == "two_sided" and c.passed for c in cells)
    reference = {(c.params_dict["n_blocks"], c.params_dict["block_len"]): c.reference
                 for c in cells}
    assert reference[(2, 1)] == 0.625
    assert reference[(2, 2)] == 25 / 32


# Each scenario's grid parameters, every one of which each cell reports.
_PARAMETERS = {
    "identification": {"tau_d", "width", "separation"},
    "parity_guess": {"n_blocks", "block_len"},
    "cheat_detection": {"n_blocks", "block_len", "delayed_blocks"},
    "bc_honest": {"n_blocks", "block_len", "width", "separation"},
    "ct_honest": {"n_blocks", "block_len"},
    "ct_sendback": {"n_blocks", "block_len", "half_disclosure"},
    "tailed_completion": {"n_blocks", "block_len", "tail_exponent"},
}


@pytest.mark.parametrize("scenario", experiment.SCENARIOS)
def test_every_cell_reports_every_parameter_in_its_column(scenario):
    grid = {"width": [1, 1.5]} if scenario == "identification" else {"n_blocks": [2, 3]}
    cells = run_experiment(spec(scenario=scenario, grid=grid, trials=20))
    header, *rows = cells_to_csv(cells).splitlines()[1:]
    for cell, row in zip(cells, rows):
        assert set(cell.params_dict) == _PARAMETERS[scenario]
        filled = {name for name, value in zip(header.split(","), row.split(",")) if value}
        assert _PARAMETERS[scenario] <= filled
    if scenario == "identification":  # an integer width is reported as a real
        assert repr(cells[0].params_dict["width"]) == "1.0"


def test_bc_honest_rows_tell_width_and_separation_apart():
    cells = run_experiment(spec(scenario="bc_honest",
                                grid={"width": [1.0, 1.5], "separation": [8.0, 9.5]}, trials=20))
    assert len(set(cells_to_csv(cells).splitlines()[2:])) == 4


@pytest.mark.parametrize(
    "scenario, grid",
    [
        ("identification", {"tau_d": [5.0, 20.0]}),  # out of range
        ("tailed_completion", {"tail_exponent": [2.0, None]}),
        ("cheat_detection", {"n_blocks": 2, "delayed_blocks": [1, True]}),
        ("ct_sendback", {"half_disclosure": [True, 1]}),
        ("bc_honest", {"width": [1.0, "1.5"]}),
        ("tailed_completion", {"tail_exponent": [4.0, 1e-300]}),  # exp(-xi) rounds to 1
        ("tailed_completion", {"tail_exponent": [4.0, 800.0]}),  # the Gaussian scale underflows
    ],
)
def test_a_bad_value_in_a_later_cell_fails_the_spec(scenario, grid):
    # every cell is resolved when the spec is built, before any trial runs
    with pytest.raises(ValueError):
        ExperimentSpec.from_dict({"scenario": scenario, "grid": grid, "trials": 10})
