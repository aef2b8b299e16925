import os
import subprocess
import sys
from pathlib import Path

import pytest

import relqprot
from relqprot import protocol

ROOT = Path(__file__).resolve().parents[1]


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    assert project["version"] == relqprot.__version__


def test_removed_names_are_not_exported():
    for name in ("EnumerationBoundError", "accessible_horizon", "block_string_parity",
                 "p_fixed_block", "p_acc_fixed", "Window", "HelstromResult"):
        assert not hasattr(relqprot, name)
    for name in ("block_string_parity", "p_fixed_block", "p_acc_fixed"):
        assert not hasattr(relqprot.parity, name)
    assert not hasattr(relqprot.wavepacket, "Window") and not hasattr(relqprot.measurement, "HelstromResult")
    for owner, name in [(relqprot.Waveform, "amplitude"), (relqprot.Waveform, "translated"),
                        (relqprot.StretchedState, "translated"), (relqprot.StretchedState, "hump_windows"),
                        (relqprot.StretchedState, "translation"), (relqprot.Waveform, "sample"),
                        (relqprot.StretchedState, "sample_fire_time"),
                        (relqprot.StretchedState, "_class_bound")]:
        assert not hasattr(owner, name)
    with pytest.raises(TypeError, match="translation"):
        relqprot.StretchedState.create(1.0, 8.0, 0, translation=4.5)


def run_fresh(code):
    """Run ``code`` in a new interpreter that imports this relqprot."""
    src = str(Path(relqprot.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_import_leaves_scipy_integrate_unloaded():
    # the overlap is in closed form; scipy.integrate (with scipy.optimize and
    # scipy.sparse behind it) would add about a third to every cold start
    run_fresh("import relqprot, sys; assert 'scipy.integrate' not in sys.modules")


def test_common_paths_leave_scipy_special_unloaded():
    # the Gaussian scale and the real erf come from the stdlib and a compact
    # delayed copy from the sampler; scipy.special (with numpy.f2py,
    # numpy.testing and numpy.ma behind it) would take about half of a cold start
    run_fresh("""
import sys
from relqprot import (DelayBlocks, EarlyGuess, ExperimentSpec, ProtocolConfig, delayed_overlap,
                      run_bit_commitment, run_experiment)
cfg = ProtocolConfig(2, 2)
assert run_bit_commitment(cfg, seed=0).verdict.accepted
run_bit_commitment(cfg, DelayBlocks({0}), EarlyGuess(), seed=0)
run_experiment(ExperimentSpec("tailed_completion", (("tail_exponent", (4.0,)),), 100))
state = ProtocolConfig(2, 2, tail_exponent=4.0).make_state()
assert 0.0 < delayed_overlap(state.rear, state) <= 0.5
assert 'scipy.special' not in sys.modules
""")


def test_tracer_records_the_secret_sampler(monkeypatch):
    # the benchmark tracer wraps module-level bindings; a run must pass
    # through the one it installs for the engine's secret sampler
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import tracing

    tracer = tracing.Tracer()
    with tracer.patched():
        result = protocol.run_bit_commitment(protocol.ProtocolConfig(2, 2), seed=0)
    assert result.verdict.accepted
    calls, _ = tracer.layer_totals()
    assert calls["sample_secret"] == 1
    assert calls["run_bit_commitment"] == 1


def test_tracer_records_the_early_guess(monkeypatch):
    # the early guess of a run is the public guesser, called once on the fired outcomes
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import tracing

    tracer = tracing.Tracer()
    with tracer.patched():
        result = protocol.run_bit_commitment(protocol.ProtocolConfig(2, 2), protocol.DelayBlocks({0}),
                                             protocol.EarlyGuess())
    assert result.early_guess is not None
    calls, _ = tracer.layer_totals()
    assert calls["exact_parity_guesser"] == 1
