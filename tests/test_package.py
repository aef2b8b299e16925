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
    for name in ("EnumerationBoundError", "accessible_horizon"):
        assert not hasattr(relqprot, name)


def test_import_leaves_scipy_integrate_unloaded():
    # the overlap is in closed form; scipy.integrate (with scipy.optimize and
    # scipy.sparse behind it) would add about a third to every cold start
    src = str(Path(relqprot.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import relqprot, sys; assert 'scipy.integrate' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


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
