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
