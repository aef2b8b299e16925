import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import relqprot
from relqprot import ExperimentSpec, protocol

ROOT = Path(__file__).resolve().parents[1]


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    assert project["version"] == relqprot.__version__


def test_removed_names_are_not_exported():
    for name in ("EnumerationBoundError", "accessible_horizon", "block_string_parity",
                 "p_fixed_block", "p_acc_fixed", "Window", "HelstromResult", "PriorPair"):
        assert not hasattr(relqprot, name)
    for name in ("block_string_parity", "p_fixed_block", "p_acc_fixed"):
        assert not hasattr(relqprot.parity, name)
    assert not hasattr(relqprot.wavepacket, "Window")
    for name in ("HelstromResult", "PriorPair"):
        assert not hasattr(relqprot.measurement, name)
    for owner, name in [(relqprot.Waveform, "amplitude"), (relqprot.Waveform, "translated"),
                        (relqprot.StretchedState, "translated"), (relqprot.StretchedState, "hump_windows"),
                        (relqprot.StretchedState, "translation"), (relqprot.Waveform, "sample"),
                        (relqprot.StretchedState, "sample_fire_time"),
                        (relqprot.StretchedState, "_class_bound")]:
        assert not hasattr(owner, name)
    with pytest.raises(TypeError, match="translation"):
        relqprot.StretchedState.create(1.0, 8.0, 0, translation=4.5)


MODULES = (relqprot.experiment, relqprot.measurement, relqprot.parity, relqprot.protocol, relqprot.wavepacket)


def test_package_exports_each_module_all():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))  # a repeated name would shadow silently in a star import
    for module in MODULES:
        for name in module.__all__:
            assert getattr(relqprot, name) is getattr(module, name), name
    submodules = {n for n, v in vars(relqprot).items() if isinstance(v, types.ModuleType)}
    public = {n for n in vars(relqprot) if not n.startswith("_")} - submodules
    assert public == set(names)
    assert relqprot.simulate is relqprot.protocol.simulate


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


def test_reproduced_claims_table_names_every_spec_and_each_builds():
    # the README table, one row a spec: claim | `specs/name.json` | cells | reference
    text = (ROOT / "README.md").read_text()
    section = text.split("## Reproduced claims", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| [^|]+ \| `(specs/[\w.]+)` \| (\d+) \|", section, re.MULTILINE)
    assert sorted(path for path, _ in rows) == sorted(f"specs/{p.name}" for p in (ROOT / "specs").glob("*.json"))
    for path, cells in rows:
        spec = ExperimentSpec.from_dict(json.loads((ROOT / path).read_text()))
        assert len(spec.cells()) == int(cells), path
