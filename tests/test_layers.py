"""Every layer timing and probe of `tools/layers.py`, run once in-process on
this tree, so a layer that calls or counts a library attribute that no
longer exists fails here rather than in a bench pair run."""

import re
from pathlib import Path

import numpy as np
import pytest

from ecdnorm import info, optim

ROOT = Path(__file__).resolve().parents[1]
# the cases each timing writes to BENCH_<label>.json
CASES = {
    "constructor_s": {"8", "16", "24"},
    "capped_proposal_s": {"pair8", "random-d4r2"},
    "capped_ascent_s": {"pair8", "pair8_dual_points", "random-d4r2", "random-d4r2_dual_points"},
    "converged_ascent_s": {
        "random-d3r2", "random-d3r2_expansions", "random-d3r2_value_calls", "random-d3r2_dual_points"
    },
    "uncapped_ascent_s": {
        "pair16", "pair16_apply_sign_calls", "pair16_value_and_grad_calls",
        "pair16_complex_start", "pair16_complex_start_apply_sign_calls", "pair16_complex_start_value_and_grad_calls",
    },
    "projected_ascent_s": {"pair24", "pair24_value_and_grad_calls", "pair24_sign_value_calls"},
    "capacity_s": {
        f"{case}{key}" for case in ("attenuator12", "identity12")
        for key in ("", "_value_calls", "_grads_calls", "_eigensolves", "_eigensolve_n3")
    },
    "ea_s": {"levels16_E2"},
}
COUNTED = (optim._DualPoint, optim.TraceNormObjective, info._EnsembleAscent, np.linalg)


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


def test_a_row_counts_the_same_on_every_run(layers):
    """The calls a row counts are exact: two runs of converged_ascent_s, and
    two of capacity_s, give the same counts, whatever their timings."""
    for row, count_keys in ((layers.converged_ascent_s, 3), (layers.capacity_s, 8)):
        first, second = ({k: v for k, v in row().items() if isinstance(v, int)} for _ in range(2))
        assert len(first) == count_keys and first == second


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


def test_bench_pairs_reports_counts_exactly(layers):
    """A layer row's integer cases are listed as counts, parent and change
    side by side, and a case whose runs disagree is flagged with all its runs;
    the timing summary keeps only the timed cases."""
    import bench_pairs

    runs = {
        "parent": [{"t": 1.0, "n": 34, "m": 5}, {"t": 2.0, "n": 34, "m": 5}],
        "change": [{"t": 0.5, "n": 34, "m": 4}, {"t": 0.7, "n": 34, "m": 6}],
    }
    assert bench_pairs.count_deltas(runs) == {
        "n": {"parent": 34, "change": 34, "steady": True},
        "m": {"parent": 5, "change": [4, 6], "steady": False},
    }
    assert set(bench_pairs.timing_summary(runs["parent"])) == {"t"}


def test_ci_runs_every_timing(layers):
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    step = workflow.split("Layer timings from the command line")[1].split("- name:")[0]
    assert set(re.findall(r"\w+", step)) >= set(layers.TIMINGS)
