"""Every layer timing and probe of `tools/layers.py`, run once in-process on
this tree, so a layer that calls or counts a library attribute that no
longer exists fails here rather than in a bench pair run."""

from pathlib import Path

import pytest

from ecdnorm import info, optim

ROOT = Path(__file__).resolve().parents[1]
# the cases each timing writes to BENCH_<label>.json
CASES = {
    "constructor_s": {"8", "16", "24"},
    "capped_proposal_s": {"pair8", "random-d4r2"},
    "capped_ascent_s": {"pair8", "pair8_dual_points", "random-d4r2", "random-d4r2_dual_points"},
    "uncapped_ascent_s": {
        "pair16", "pair16_apply_sign_calls", "pair16_complex_start", "pair16_complex_start_apply_sign_calls"
    },
    "projected_ascent_s": {"pair24", "pair24_value_and_grad_calls", "pair24_sign_value_calls"},
    "capacity_s": {"attenuator12", "attenuator12_value_calls"},
    "ea_s": {"levels16_E2"},
}
COUNTED = (optim._DualPoint, optim.TraceNormObjective, info._EnsembleAscent)


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import layers

    monkeypatch.setattr(layers, "RUNS", 1)
    return layers


def test_every_timing_is_listed(layers):
    assert set(layers.TIMINGS) == set(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_timing_runs_and_puts_back_what_it_counts(layers, name):
    before = [dict(vars(cls)) for cls in COUNTED]
    out = layers.TIMINGS[name]()
    assert set(out) == CASES[name]
    assert all(value > 0 for value in out.values()), out
    assert [dict(vars(cls)) for cls in COUNTED] == before


def test_counting_restores_an_instance_attribute(layers):
    obj = optim.TraceNormObjective.__new__(optim.TraceNormObjective)
    with layers.counting(obj, "sign_value") as calls:
        assert "sign_value" in vars(obj)
    assert "sign_value" not in vars(obj) and calls == []


def test_probes_cover_every_task(layers):
    import workloads

    brackets = layers.brackets()
    assert len(brackets) == sum(len(workloads.pool(w)) for w in ("capped-families", "lanczos-zoo"))
    assert all(0.0 <= lower <= upper + 1e-9 for lower, upper in brackets.values())
    outputs = layers.cli_outputs()
    assert len(outputs) == len(workloads.pool("bounds-cli"))
    assert all(code == 0 and text for code, text in outputs.values())
