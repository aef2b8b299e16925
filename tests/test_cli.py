import dataclasses
import hashlib
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from relqprot import experiment
from relqprot.cli import main
from relqprot.protocol import ProtocolConfig, _delay_pass_probability


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _row(out, label):
    return next(line for line in out.splitlines() if label in line).split(":")[-1].strip()


def test_analytic_single_state(capsys):
    code, out, _ = run_cli(["analytic", "-N", "1", "-k", "1"], capsys)
    assert code == 0
    assert "0.75" in out


def test_analytic_block_values(capsys):
    code, out, _ = run_cli(["analytic", "-N", "2", "-k", "2", "--xi", "4.0"], capsys)
    assert code == 0
    assert "alpha" in out and "0.75" in out
    assert "0.625" in out  # block-coded reference bound at (2, 2)
    assert _row(out, "delay escape") == "0.232181438975"  # p_pass^2, not 2^-2
    # the sweep grades tailed_completion against the same law
    spec = experiment.ExperimentSpec.from_dict({
        "scenario": "tailed_completion",
        "grid": {"n_blocks": 2, "block_len": 2, "tail_exponent": 4.0}, "trials": 1,
    })
    reference = experiment.run_experiment(spec)[0].reference
    assert reference == pytest.approx(0.928725, abs=1e-6)
    assert _row(out, "tailed honest completion") == f"{reference:.12g}"


@pytest.mark.parametrize("xi, escape", [(None, "0.25"), ("1", "0.0399179805108")])
def test_analytic_delay_escape_is_the_engine_pass_probability_per_block(xi, escape, capsys):
    # the engine passes each delayed channel with _delay_pass_probability, so a
    # block of k = 2 escapes with p_pass^2: 1/2 for the bump, less for a Gaussian
    code, out, _ = run_cli(["analytic", "-N", "2", "-k", "2"] + (["--xi", xi] if xi else []), capsys)
    assert code == 0
    assert _row(out, "delay escape (p_pass^k)") == escape
    state = ProtocolConfig(2, 2, tail_exponent=float(xi) if xi else None).make_state()
    assert escape == f"{_delay_pass_probability(state) ** 2:.12g}"


def test_analytic_plain_value_at_larger_n(capsys):
    code, out, _ = run_cli(["analytic", "-N", "10", "-k", "1"], capsys)
    assert code == 0
    assert "0.5004882" in out


def test_analytic_rejects_bad_parameters(capsys):
    code, out, err = run_cli(["analytic", "-N", "0", "-k", "1"], capsys)
    assert code == 2 and out == "" and "n_blocks must be at least 1" in err
    for xi in ("1e-300", "800"):  # exp(-xi) rounds to 1; the Gaussian scale underflows
        code, out, err = run_cli(["analytic", "-N", "2", "-k", "2", "--xi", xi], capsys)
        assert code == 2 and out == "" and "below 1" in err


def test_count_basic(capsys):
    code, out, _ = run_cli(["count", "-N", "2", "-k", "2"], capsys)
    assert code == 0
    assert "S_even=2 S_odd=6 total=8 alpha=0.75" in out
    code, out, _ = run_cli(["count", "-N", "1", "-k", "1"], capsys)
    assert code == 0
    assert "S_even=1 S_odd=1 total=2 alpha=1" in out


def test_count_prints_only_the_closed_form(capsys):
    code, out, _ = run_cli(["count", "-N", "10", "-k", "4"], capsys)
    assert code == 0
    even = sum(math.comb(40, 4 * level) for level in range(0, 11, 2))
    odd = sum(math.comb(40, 4 * level) for level in range(1, 11, 2))
    assert out.startswith(f"S_even={even} S_odd={odd} total={even + odd} ")
    assert len(out.splitlines()) == 1
    # the enumeration check is gone: an old --verify call is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["count", "-N", "10", "-k", "4", "--verify"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_count_rejects_the_enum_bound_option(capsys):
    # the enumerator keeps one fixed bound, so no option sets it
    for flags in (["--enum-bound", "64"], ["--verify", "--enum-bound", "21"]):
        with pytest.raises(SystemExit) as exc:
            main(["count", "-N", "3", "-k", "7", *flags])
        assert exc.value.code == 2
        _, err = capsys.readouterr()
        assert "unrecognized arguments" in err


def test_run_bc_honest(tmp_path, capsys):
    out_path = tmp_path / "t.jsonl"
    code, out, _ = run_cli(
        ["run", "bc", "-N", "2", "-k", "2", "--seed", "5", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    assert out.startswith("ACCEPTED:")
    lines = out_path.read_text().strip().splitlines()
    records = [json.loads(line) for line in lines]
    assert records[-1]["kind"] == "verdict"
    assert {"t", "actor", "kind", "payload"} == set(records[0])


def test_run_bc_byte_identical_for_same_seed(tmp_path, capsys):
    paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for path in paths:
        run_cli(
            ["run", "bc", "-N", "2", "-k", "1", "--seed", "9", "--out", str(path)],
            capsys,
        )
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_run_bc_delay_large_block(tmp_path, capsys):
    # with k = 8 the one-block delayer escapes with probability 2^-8
    code, out, _ = run_cli(
        [
            "run", "bc", "-N", "2", "-k", "8", "--seed", "3", "--delay-blocks", "0",
            "--out", str(tmp_path / "d.jsonl"),
        ],
        capsys,
    )
    assert code == 4
    assert out.startswith("ABORTED:")
    assert "PERP_OUTCOME" in out


def test_run_delay_blocks_is_the_delaying_sender(tmp_path, capsys):
    out_path = tmp_path / "t.jsonl"
    run_cli(["run", "bc", "-N", "2", "-k", "2", "--seed", "3", "--delay-blocks", "0",
             "--out", str(out_path)], capsys)
    assert '"delayed":true' in out_path.read_text()
    ct_path = tmp_path / "ct.jsonl"
    code, out, err = run_cli(
        ["run", "ct", "-N", "2", "-k", "2", "--delay-blocks", "1", "--out", str(ct_path)], capsys
    )
    assert code == 2 and out == "" and "--delay-blocks" in err
    assert not ct_path.exists()
    with pytest.raises(SystemExit) as exc:
        main(["run", "bc", "-N", "2", "-k", "2", "--strategy-a", "delay"])
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    assert "unrecognized arguments" in err


def test_run_delay_blocks_keep_their_bytes(tmp_path, capsys):
    # one SHA-256 over the JSONL and stdout of two delaying runs, taken when
    # the delaying sender was chosen by a separate strategy flag
    digest = hashlib.sha256()
    for blocks in ("0", "0,3"):
        out_path = tmp_path / "t.jsonl"
        code, out, _ = run_cli(["run", "bc", "-N", "4", "-k", "2", "--seed", "3",
                                "--strategy-b", "earlyguess", "--delay-blocks", blocks,
                                "--out", str(out_path)], capsys)
        assert code == 4
        digest.update(out_path.read_bytes())
        digest.update(out.encode())
    assert digest.hexdigest() == "86c90fe3c0e8acb4ae506c1d09634b2c99defc882a5cc4d7c62f09b55620f3d4"


@pytest.mark.parametrize("blocks", ["", ",", " , "])
def test_run_rejects_an_empty_delay_block_list(blocks, tmp_path, capsys):
    # an empty list would run as an honest sender
    out_path = tmp_path / "t.jsonl"
    code, out, err = run_cli(
        ["run", "bc", "-N", "2", "-k", "8", "--seed", "3",
         "--delay-blocks", blocks, "--out", str(out_path)],
        capsys,
    )
    assert code == 2 and out == "" and "--delay-blocks" in err
    assert not out_path.exists()


def test_run_bc_early_guess_line(tmp_path, capsys):
    code, out, _ = run_cli(
        [
            "run", "bc", "-N", "3", "-k", "1", "--seed", "2",
            "--strategy-b", "earlyguess", "--out", str(tmp_path / "g.jsonl"),
        ],
        capsys,
    )
    assert code == 0
    assert "early_guess=" in out


def test_run_ct_sendback_without_half_disclosure(tmp_path, capsys):
    code, out, _ = run_cli(
        [
            "run", "ct", "-N", "2", "-k", "2", "--seed", "1",
            "--strategy-b", "sendback", "--no-half-disclosure",
            "--out", str(tmp_path / "ct.jsonl"),
        ],
        capsys,
    )
    assert code == 0
    assert out.startswith("ACCEPTED:0")


def test_run_usage_errors(tmp_path, capsys, recwarn):
    code, _, err = run_cli(
        ["run", "bc", "-N", "2", "-k", "2", "--strategy-b", "sendback"], capsys
    )
    assert code == 2 and "send-back" in err
    code, _, err = run_cli(
        ["run", "ct", "-N", "2", "-k", "2", "--delay-blocks", "0"], capsys
    )
    assert code == 2 and "delay" in err
    code, _, err = run_cli(
        ["run", "bc", "-N", "2", "-k", "2", "--no-half-disclosure"], capsys
    )
    assert code == 2 and "half-disclosure" in err
    code, _, err = run_cli(["run", "bc", "-k", "2"], capsys)
    assert code == 2
    code, _, err = run_cli(
        ["run", "bc", "-N", "2", "-k", "2", "--delay-blocks", "zero"],
        capsys,
    )
    assert code == 2
    code, _, err = run_cli(
        ["run", "bc", "-N", "2", "-k", "2", "--xi", "1e-300", "--out", str(tmp_path / "t.jsonl")],
        capsys,
    )
    assert code == 2 and err.startswith("error:") and "below 1" in err
    code, _, err = run_cli(
        ["run", "bc", "-N", "2", "-k", "2", "--xi", "800",
         "--delay-blocks", "0", "--out", str(tmp_path / "t.jsonl")],
        capsys,
    )
    assert code == 2 and err.startswith("error:") and err.count("\n") == 1
    assert not recwarn.list  # the Gaussian scale is checked before any quadrature


def test_run_verbose_echoes_config(tmp_path, capsys):
    code, out, err = run_cli(
        ["run", "bc", "-N", "2", "-k", "1", "--seed", "5", "-v",
         "--out", str(tmp_path / "t.jsonl")],
        capsys,
    )
    assert code in (0, 4)
    assert "config:" in err and "n_blocks=2" in err and "seed=5" in err


def test_run_with_config_file(tmp_path, capsys):
    config = {"n_blocks": 2, "block_len": 1}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out_path = tmp_path / "t.jsonl"
    code, out, _ = run_cli(
        ["run", "bc", "--config", str(path), "--out", str(out_path)], capsys
    )
    assert code == 0
    # flag overrides beat file values
    code2, out2, _ = run_cli(
        ["run", "bc", "--config", str(path), "-k", "2", "--seed", "99", "--out", str(out_path)],
        capsys,
    )
    assert code2 == 0 and '"channel":1,' in out_path.read_text()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n_blocks": 2, "block_len": 1, "mystery": 3}))
    code3, _, err = run_cli(["run", "bc", "--config", str(bad)], capsys)
    assert code3 == 2 and "unknown config fields" in err
    # the seed is the run's, not the protocol's: a file cannot carry it
    seeded = tmp_path / "seeded.json"
    seeded.write_text(json.dumps({"n_blocks": 2, "block_len": 1, "master_seed": 4}))
    code4, out4, err = run_cli(["run", "bc", "--config", str(seeded), "--out", str(out_path)], capsys)
    assert code4 == 2 and out4 == "" and "unknown config fields: ['master_seed']" in err


def test_sweep_pass_and_outputs(tmp_path, capsys):
    spec = {
        "scenario": "identification",
        "grid": {"tau_d": [5.0]},
        "trials": 5000,
        "master_seed": 3,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out_csv = tmp_path / "out.csv"
    code, out, _ = run_cli(
        ["sweep", "--config", str(spec_path), "--out", str(out_csv)], capsys
    )
    assert code == 0
    assert "identification" in out and "pass" in out
    assert out_csv.read_text().startswith("# relqprot sweep schema 1")

    out_json = tmp_path / "out.json"
    code, _, _ = run_cli(
        ["sweep", "--config", str(spec_path), "--out", str(out_json),
         "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out_json.read_text())
    assert payload["schema"] == 1

    second = tmp_path / "again.csv"
    run_cli(["sweep", "--config", str(spec_path), "--out", str(second)], capsys)
    assert second.read_bytes() == out_csv.read_bytes()


def test_sweep_tailed_completion_cell(tmp_path, capsys):
    spec = {
        "scenario": "tailed_completion",
        "grid": {"n_blocks": 2, "block_len": 2, "tail_exponent": [3.0]},
        "trials": 1500,
        "master_seed": 5,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code, out, _ = run_cli(
        ["sweep", "--config", str(spec_path), "--out", str(tmp_path / "t.csv")],
        capsys,
    )
    assert code == 0
    assert "tailed_completion" in out and "pass" in out


def test_sweep_seed_override_changes_results(tmp_path, capsys):
    spec = {
        "scenario": "identification",
        "grid": {"tau_d": [5.0]},
        "trials": 2000,
        "master_seed": 3,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(["sweep", "--config", str(spec_path), "--out", str(a)], capsys)
    run_cli(["sweep", "--config", str(spec_path), "--seed", "4", "--out", str(b)],
            capsys)
    assert a.read_bytes() != b.read_bytes()


def test_sweep_usage_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scenario": "nope", "grid": {"tau_d": [5.0]},
                               "trials": 10}))
    code, _, err = run_cli(["sweep", "--config", str(bad), "--out",
                            str(tmp_path / "x.csv")], capsys)
    assert code == 2 and "unknown scenario" in err
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"scenario": "identification", "grid": {},
                                 "trials": 10}))
    code, _, err = run_cli(["sweep", "--config", str(empty), "--out",
                            str(tmp_path / "y.csv")], capsys)
    assert code == 2 and "grid" in err
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({"scenario": "cheat_detection",
                                   "grid": {"n_blocks": 2, "block_len": 1,
                                            "delayed_blocks": 5},
                                   "trials": 10}))
    code, _, err = run_cli(["sweep", "--config", str(invalid), "--out",
                            str(tmp_path / "z.csv")], capsys)
    assert code == 2 and "delayed_blocks" in err
    # exp(-xi) rounds to 1 at 1e-300; the Gaussian scale underflows at 800
    for xi in (1e-300, 800.0):
        bad_xi = tmp_path / "bad_xi.json"
        bad_xi.write_text(json.dumps({"scenario": "tailed_completion",
                                      "grid": {"tail_exponent": [4.0, xi]},
                                      "trials": 10}))
        code, out, err = run_cli(["sweep", "--config", str(bad_xi), "--out",
                                  str(tmp_path / "t.csv")], capsys)
        assert code == 2 and out == "" and "below 1" in err  # no cell ran


def test_sweep_failure_exit_code(tmp_path, capsys, monkeypatch):
    # every parity_guess cell is graded against its exact optimal success, so
    # a wrong reference is planted to grade this cell FAIL; the sweep exits 5
    monkeypatch.setattr(experiment, "pc_parity_optimal", lambda n, k: 0.5)
    spec = {
        "scenario": "parity_guess",
        "grid": {"n_blocks": [2], "block_len": [2]},
        "trials": 4000,
        "master_seed": 1,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code, out, _ = run_cli(
        ["sweep", "--config", str(spec_path), "--out", str(tmp_path / "f.csv")],
        capsys,
    )
    assert code == 5
    assert "FAIL" in out


def test_run_rejects_non_integer_block_count(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n_blocks": 2.5, "block_len": 1}))
    code, _, err = run_cli(
        ["run", "bc", "--config", str(path), "--out", str(tmp_path / "t.jsonl")], capsys
    )
    assert code == 2 and "n_blocks must be an integer" in err


def test_run_rejects_a_negative_seed(tmp_path, capsys):
    # numpy would reject it mid-run without naming the field
    code, out, err = run_cli(
        ["run", "bc", "-N", "2", "-k", "2", "--seed", "-3", "--out", str(tmp_path / "t.jsonl")], capsys
    )
    assert code == 2 and out == "" and "seed must be non-negative" in err and "master_seed" not in err


def test_sweep_rejects_zero_jobs_before_writing(tmp_path, capsys):
    # the library's jobs check, reported as a usage error
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"scenario": "bc_honest", "grid": {"n_blocks": [2]}, "trials": 10}))
    out_csv = tmp_path / "s.csv"
    code, out, err = run_cli(["sweep", "--config", str(spec_path), "--out", str(out_csv), "--jobs", "0"], capsys)
    assert code == 2 and out == "" and "jobs must be at least 1" in err
    assert not out_csv.exists()


def test_sweep_verbose_echoes_the_spec_only_to_stderr(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(
        {"scenario": "bc_honest", "grid": {"n_blocks": [2]}, "trials": 10, "master_seed": 4}))
    argv = ["sweep", "--config", str(spec_path), "--out", str(tmp_path / "s.csv")]
    code, quiet, err = run_cli(argv, capsys)
    assert code == 0 and err == ""
    code, out, err = run_cli(argv + ["-v"], capsys)
    assert code == 0 and out == quiet
    assert err.startswith("spec:") and "bc_honest" in err and "master_seed=4" in err


def test_sweep_rejects_a_negative_master_seed(tmp_path, capsys):
    # checked when the spec is built, not inside a worker
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(
        {"scenario": "bc_honest", "grid": {"n_blocks": [2, 3]}, "trials": 10, "master_seed": -1}))
    argv = ["sweep", "--config", str(spec_path), "--out", str(tmp_path / "s.csv"), "--jobs", "2"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == "" and "master_seed must be non-negative" in err


def _sweep_usage_error(tmp_path, capsys, spec, out=None):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "s.csv" if out is None else out
    code, _, err = run_cli(["sweep", "--config", str(spec_path), "--out", str(out)], capsys)
    assert code == 2
    return err


def test_sweep_rejects_string_half_disclosure(tmp_path, capsys):
    err = _sweep_usage_error(tmp_path, capsys, {
        "scenario": "ct_sendback",
        "grid": {"n_blocks": 2, "block_len": 1, "half_disclosure": ["false"]},
        "trials": 10,
    })
    assert "half_disclosure must be true or false" in err


def test_sweep_rejects_null_tail_exponent(tmp_path, capsys):
    err = _sweep_usage_error(tmp_path, capsys, {
        "scenario": "tailed_completion",
        "grid": {"tail_exponent": [None]},
        "trials": 10,
    })
    assert "tail_exponent must be a finite number" in err


def test_sweep_rejects_null_tau_d(tmp_path, capsys):
    err = _sweep_usage_error(tmp_path, capsys, {
        "scenario": "identification",
        "grid": {"tau_d": [None, 4.0]},
        "trials": 2000,
    })
    assert "tau_d must be a finite number" in err


def test_run_reports_unwritable_out_path(tmp_path, capsys):
    out = tmp_path / "missing" / "t.jsonl"
    code, stdout, err = run_cli(["run", "bc", "-N", "2", "-k", "2", "--out", str(out)], capsys)
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert stdout == ""


def test_run_rejects_an_empty_out_path(capsys):
    # an empty path is an unwritable one, not a run that writes nothing
    code, stdout, err = run_cli(["run", "bc", "-N", "2", "-k", "2", "--out", ""], capsys)
    assert code == 2 and stdout == ""
    assert err.startswith("error:") and "No such file" in err


def test_sweep_reports_unwritable_out_path(tmp_path, capsys):
    err = _sweep_usage_error(tmp_path, capsys, {
        "scenario": "identification",
        "grid": {"tau_d": [5.0]},
        "trials": 10,
    }, out=tmp_path / "missing" / "s.csv")
    assert err.startswith("error:") and "Traceback" not in err


def test_sweep_mirror_beyond_sixteen_guessed_channels(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "scenario": "ct_sendback",
        "grid": {"n_blocks": [34], "block_len": [1]},
        "trials": 200,
        "master_seed": 7,
    }))
    code, out, _ = run_cli(
        ["sweep", "--config", str(spec_path), "--out", str(tmp_path / "s.csv")], capsys
    )
    assert code == 0
    assert "reference=7.62939453125e-06" in out and "pass" in out


# ---------------------------------------------------------------------- fuzz
# Arbitrary JSON through the config files, in process: every input must end in
# a documented exit code, never an exception.  Half the inputs are a valid
# config with up to two fields overwritten by arbitrary JSON, so that the
# engine runs too; integers stay small, so a sweep cell runs at most 30 trials
# and N*k stays at most 144.

_SCALARS = (
    st.none() | st.booleans() | st.integers(-2, 12) | st.floats(0, 12) | st.floats()
    | st.text(max_size=4)
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _overwritten(valid, names):
    junk = st.dictionaries(st.sampled_from(names + ["bogus"]), _JSON, max_size=2)
    return st.builds(lambda base, extra: {**base, **extra}, valid, junk)


_GRID_VALUES = {
    "n_blocks": st.integers(1, 6),
    "block_len": st.integers(1, 4),
    "delayed_blocks": st.integers(1, 3),
    "half_disclosure": st.booleans(),
    "tau_d": st.floats(1, 9),
    "width": st.floats(0.5, 2),
    "separation": st.floats(2, 10),
    "tail_exponent": st.floats(0.5, 8),
}
_SPEC = st.sampled_from(experiment.SCENARIOS).flatmap(lambda scenario: _overwritten(
    st.fixed_dictionaries({
        "scenario": st.just(scenario),
        "grid": st.fixed_dictionaries({}, optional={
            name: st.lists(_GRID_VALUES[name], min_size=1, max_size=2)
            for name in sorted([*experiment._SCENARIOS[scenario].params,
                                *experiment._SCENARIOS[scenario].options])
        }),
        "trials": st.integers(1, 30),
    }),
    ["scenario", "grid", "trials", "master_seed"],
))
_CONFIG = _overwritten(
    st.fixed_dictionaries({"n_blocks": st.integers(1, 8), "block_len": st.integers(1, 4)}),
    [f.name for f in dataclasses.fields(ProtocolConfig)],
)
_FUZZ = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def _fuzz_cli(tmp_path, capsys, payload, argv):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(payload))
    code = main([*argv, "--config", str(path), "--out", str(tmp_path / "out")])
    capsys.readouterr()
    return code


@_FUZZ
@given(payload=_SPEC | _JSON)
def test_sweep_survives_arbitrary_specs(tmp_path, capsys, payload):
    assert _fuzz_cli(tmp_path, capsys, payload, ["sweep"]) in (0, 2, 5)


@_FUZZ
@given(
    payload=_CONFIG | _JSON,
    protocol=st.sampled_from(["bc", "ct"]),
    strategy=st.sampled_from(["honest", "earlyguess"]),
)
def test_run_survives_arbitrary_configs(tmp_path, capsys, payload, protocol, strategy):
    argv = ["run", protocol, "--strategy-b", strategy]
    assert _fuzz_cli(tmp_path, capsys, payload, argv) in (0, 2, 4)
