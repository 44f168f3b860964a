"""JSON schemas and the command-line interface."""

import contextlib
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from conftest import ginibre_density, random_channel
from ecdnorm import (
    BoundInputs,
    DensityOperator,
    Hamiltonian,
    OscillatorEntropyBound,
    HarmonicModes,
    attenuator,
    holevo_quantity_bound,
    max_entropy,
    optimize_t,
    oscillator_entropy_bound,
)
from ecdnorm.serialize import (
    channel_from_json,
    channel_to_json,
    density_from_json,
    density_to_json,
    dump_json,
    ensemble_from_json,
    hamiltonian_from_json,
    hamiltonian_to_json,
    matrix_from_json,
    matrix_to_json,
)
from ecdnorm import cli
from ecdnorm.cli import main


def run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "ecdnorm.cli", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def test_matrix_round_trip():
    rng = np.random.default_rng(100)
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    doc = matrix_to_json(m)
    json.dumps(doc)  # must be plain JSON data
    np.testing.assert_allclose(matrix_from_json(doc), m, atol=0.0)
    with pytest.raises(ValueError):
        matrix_from_json([[1.0, 2.0]])


def test_channel_round_trip_and_validation():
    rng = np.random.default_rng(101)
    ch = random_channel(rng, 3, 2, 2)
    doc = channel_to_json(ch)
    back = channel_from_json(doc)
    assert back.in_dim == 3 and back.out_dim == 2
    for a, b in zip(ch.kraus, back.kraus):
        np.testing.assert_allclose(a, b, atol=0.0)
    with pytest.raises(ValueError):
        channel_from_json({"in_dim": 3, "out_dim": 2})  # kraus missing
    bad = dict(doc)
    bad["in_dim"] = 4
    with pytest.raises(ValueError):
        channel_from_json(bad)


def test_hamiltonian_round_trip():
    h = Hamiltonian([0.0, 0.5, 2.0])
    doc = hamiltonian_to_json(h)
    assert "eigenbasis" not in doc  # identity basis stays implicit
    np.testing.assert_allclose(hamiltonian_from_json(doc).matrix, h.matrix, atol=0.0)

    rng = np.random.default_rng(102)
    m = rng.standard_normal((3, 3))
    m = m + m.T
    m = m - np.linalg.eigvalsh(m)[0] * np.eye(3)
    hr = Hamiltonian.from_matrix(m)
    doc = hamiltonian_to_json(hr)
    assert "eigenbasis" in doc
    np.testing.assert_allclose(hamiltonian_from_json(doc).matrix, hr.matrix, atol=1e-12)
    with pytest.raises(ValueError):
        hamiltonian_from_json({"dim": 3, "eigenvalues": [0.0, 1.0]})


def test_density_and_ensemble_round_trip():
    rng = np.random.default_rng(103)
    rho = ginibre_density(rng, 3)
    np.testing.assert_allclose(
        density_from_json(density_to_json(rho)).matrix, rho.matrix, atol=0.0
    )
    doc = {
        "probs": [0.25, 0.75],
        "states": [density_to_json(ginibre_density(rng, 2)) for _ in range(2)],
    }
    probs, states = ensemble_from_json(doc)
    assert probs == (0.25, 0.75)
    assert len(states) == 2
    with pytest.raises(ValueError):
        ensemble_from_json({"probs": [1.0]})


def test_dump_json_deterministic():
    doc = {"b": 1.0, "a": {"y": 2, "x": [1, 2]}}
    text = dump_json(doc)
    assert text == dump_json(doc)
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            dump_json({"x": bad})


@pytest.fixture
def workdir(tmp_path):
    rng = np.random.default_rng(104)
    phi = random_channel(rng, 3, 3, 2)
    psi = random_channel(rng, 3, 3, 2)
    (tmp_path / "phi.json").write_text(dump_json(channel_to_json(phi)))
    (tmp_path / "psi.json").write_text(dump_json(channel_to_json(psi)))
    (tmp_path / "h.json").write_text(
        dump_json(hamiltonian_to_json(Hamiltonian([0.0, 1.0, 2.0])))
    )
    (tmp_path / "broken.json").write_text("{not json")
    return tmp_path


def test_cli_ecd_norm_zero_map(workdir):
    res = run_cli(
        "ecd-norm",
        "--phi", str(workdir / "phi.json"),
        "--psi", str(workdir / "phi.json"),
        "--hamiltonian", str(workdir / "h.json"),
        "--energy", "1.0",
        "--restarts", "2",
        "--max-iter", "40",
    )
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["result"]["lower"] < 1e-12
    assert doc["result"]["upper"] < 1e-12
    assert doc["config"]["seed"] == 0


def test_cli_repeated_runs_byte_identical(workdir):
    argv = (
        "ecd-norm",
        "--phi", str(workdir / "phi.json"),
        "--psi", str(workdir / "psi.json"),
        "--hamiltonian", str(workdir / "h.json"),
        "--energy", "0.9",
        "--restarts", "3",
        "--max-iter", "60",
    )
    first = run_cli(*argv)
    second = run_cli(*argv)
    assert first.returncode == 0
    assert first.stdout == second.stdout


def test_cli_gibbs_infeasible_is_exit_3(workdir):
    (workdir / "hot.json").write_text(
        dump_json(hamiltonian_to_json(Hamiltonian([0.5, 1.0, 2.0])))
    )
    res = run_cli("gibbs", "--hamiltonian", str(workdir / "hot.json"), "--energy", "0.2")
    assert res.returncode == 3
    assert "error" in res.stderr


def test_cli_validation_is_exit_2(workdir):
    res = run_cli("bound", "chi", "--eps", "1.5", "--energy", "1.0", "--fhat", "osc:1")
    assert res.returncode == 2
    # ε = 0 reaches the t grid first; it is a validation error, not a crash
    for argv in (("optimize-t",), ("bound", "--sweep", "5")):
        res = run_cli(*argv[:1], "chi", "--eps", "0", "--energy", "1", "--fhat", "osc:1", *argv[1:])
        assert res.returncode == 2 and "epsilon" in res.stderr
    res = run_cli(
        "ecd-norm",
        "--phi", str(workdir / "broken.json"),
        "--hamiltonian", str(workdir / "h.json"),
        "--energy", "1.0",
    )
    assert res.returncode == 2
    res = run_cli("fbound", "--energy", "1.0")  # neither hamiltonian nor fhat
    assert res.returncode == 2
    res = run_cli("fbound", "--fhat", "osc:1")  # neither energy nor grid
    assert res.returncode == 2
    res = run_cli(
        "bound", "chi", "--eps", "0.1", "--energy", "1", "--t", "1", "--fhat", "osc:1",
        "--copies", "5",
    )
    assert res.returncode == 2 and "copies" in res.stderr
    # omitting --t optimizes it; there is no flag for that
    res = run_cli("bound", "chi", "--eps", "0.1", "--energy", "1", "--fhat", "osc:1", "--optimize-t")
    assert res.returncode == 2 and "--optimize-t" in res.stderr


@pytest.mark.parametrize(
    "command, value",
    [("ecd-norm", "nan"), ("ecd-norm", "inf"), ("bound", "inf"), ("gibbs", "nan")],
)
def test_cli_non_finite_energy_is_exit_2(workdir, command, value):
    argv = {
        "ecd-norm": ["ecd-norm", "--phi", str(workdir / "phi.json"), "--psi",
                     str(workdir / "psi.json"), "--hamiltonian", str(workdir / "h.json")],
        "bound": ["bound", "chi", "--eps", "0.1", "--fhat", "osc:1"],
        "gibbs": ["gibbs", "--hamiltonian", str(workdir / "h.json")],
    }[command]
    res = run_cli(*argv, "--energy", value)
    assert res.returncode == 2, res.stdout
    assert res.stdout == ""
    assert "finite" in res.stderr


def test_cli_zoo_emits_valid_documents(tmp_path):
    res = run_cli("zoo", "attenuator", "--levels", "6", "--eta", "0.7")
    assert res.returncode == 0
    ch = channel_from_json(json.loads(res.stdout))
    want = attenuator(6, 0.7)
    for a, b in zip(ch.kraus, want.kraus):
        np.testing.assert_allclose(a, b, atol=1e-15)
    res = run_cli("zoo", "oscillator-hamiltonian", "--levels", "5", "--hbar-omega", "0.5")
    h = hamiltonian_from_json(json.loads(res.stdout))
    np.testing.assert_allclose(h.eigenvalues, 0.5 * (np.arange(5) + 0.5), atol=1e-14)


def test_cli_optimize_t_matches_module(workdir):
    res = run_cli("optimize-t", "chi", "--eps", "0.05", "--energy", "2.0", "--fhat", "osc:1")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    t_star, bv = optimize_t("chi", 0.05, 2.0, OscillatorEntropyBound(HarmonicModes((1.0,))))
    assert doc["result"]["t_used"] == t_star
    assert doc["result"]["total"] == bv.total


def test_cli_bound_fixed_t_and_sweep(workdir):
    res = run_cli(
        "bound", "qmi",
        "--eps", "0.05", "--energy", "0.4", "--t", "2.0",
        "--fhat", "shifted:" + str(workdir / "h2.json"),
    )
    assert res.returncode == 2  # missing Hamiltonian file
    (workdir / "h2.json").write_text(dump_json(hamiltonian_to_json(Hamiltonian([0.0, 1.0]))))
    res = run_cli(
        "bound", "qmi",
        "--eps", "0.05", "--energy", "0.4", "--t", "2.0",
        "--fhat", "shifted:" + str(workdir / "h2.json"),
    )
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert abs(doc["result"]["total"] - 2.4540300801174215) < 1e-12

    res = run_cli(
        "bound", "chi", "--eps", "0.1", "--energy", "1.0",
        "--fhat", "osc:1", "--sweep", "12",
    )
    assert res.returncode == 0
    lines = res.stdout.strip().split("\n")
    header = [ln for ln in lines if ln.startswith("# ")]
    keys = [ln[2:].split("=", 1)[0] for ln in header]
    assert keys == sorted(keys)
    cols = lines[len(header)].split(",")
    assert cols == ["t", "total", "main", "g", "h2"]
    assert len(lines) == len(header) + 1 + 12
    # every row agrees with the scalar bound at its t
    osc = OscillatorEntropyBound(HarmonicModes((1.0,)))
    for line in lines[len(header) + 1 :]:
        t, total, main, g_term, h_term = (float(cell) for cell in line.split(","))
        val = holevo_quantity_bound(BoundInputs(0.1, 1.0, t, osc))
        pairs = ((total, val.total), (main, val.main_term), (g_term, val.g_term), (h_term, val.h2_term))
        for got, want in pairs:
            assert abs(got - want) <= 1e-13 * abs(want)


def test_cli_fbound_values(workdir):
    res = run_cli("fbound", "--fhat", "osc:1", "--energy", "1.0")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert abs(doc["result"]["entropy_bound"] - 1.4054651081081644) < 1e-12
    res = run_cli(
        "fbound", "--hamiltonian", str(workdir / "h.json"), "--energy", "1.0"
    )
    doc = json.loads(res.stdout)
    assert abs(doc["result"]["max_entropy"] - math.log(3.0)) < 1e-12
    res = run_cli(
        "fbound", "--hamiltonian", str(workdir / "h.json"), "--fhat", "osc:1",
        "--energy-grid", "0.1:2.5:9",
    )
    assert res.returncode == 0, res.stderr
    lines = [ln for ln in res.stdout.strip().split("\n") if not ln.startswith("# ")]
    assert lines[0] == "energy,max_entropy,entropy_bound"
    h = hamiltonian_from_json(json.loads((workdir / "h.json").read_text()))
    modes = HarmonicModes((1.0,))
    for line in lines[1:]:
        e, cap, bound = (float(cell) for cell in line.split(","))
        assert cap == max_entropy(h, e)
        assert abs(bound - oscillator_entropy_bound(modes, e)) <= 1e-13 * abs(bound)


def test_cli_qn_command(workdir):
    res = run_cli(
        "qn",
        "--phi", str(workdir / "phi.json"),
        "--psi", str(workdir / "psi.json"),
        "--hamiltonian", str(workdir / "h.json"),
        "--levels", "2",
        "--restarts", "3",
        "--max-iter", "80",
    )
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["result"]["seminorm"] >= 0.0


def test_cli_experiment_smoke(tmp_path):
    res = run_cli(
        "experiment", "strong-convergence",
        "--levels", "3", "--energy", "1.0", "--thetas", "0.5,0.1",
        "--restarts", "3", "--max-iter", "60",
        "--out", str(tmp_path / "sweep.csv"),
    )
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
    header = [ln for ln in lines if ln.startswith("# ")]
    data = lines[len(header) + 1 :]
    assert len(data) == 2
    first = float(data[0].split(",")[1])
    second = float(data[1].split(",")[1])
    assert first > second  # smaller rotation angle, smaller norm

    res = run_cli(
        "experiment", "tightness-ea", "--levels", "4", "--energy", "1.0"
    )
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["result"]["ea_depolarizer"] < 1e-9
    assert abs(doc["result"]["ea_identity"] - doc["result"]["twice_max_entropy"]) < 1e-6


def test_cli_main_reuses_one_parser(workdir, monkeypatch, capsys):
    """Calls of main in one process print what a fresh parser prints for each
    call, in order: no default or namespace carries over, and the parser is
    built once."""
    small = ("--levels", "3", "--energy", "1.0", "--restarts", "1", "--max-iter", "5")
    bound = ("cchi", "--eps", "0.05", "--energy", "2.0", "--fhat", "osc:1.0")
    calls = [
        ["cap-est", "--channel", str(workdir / "phi.json"),
         "--hamiltonian", str(workdir / "h.json"), "--energy", "1.0", *small[4:]],
        ["experiment", "strong-convergence", "--thetas", "0.5,0.1", *small],
        ["experiment", "strong-convergence", *small],
        ["experiment", "strong-convergence", "--thetas", "0.5,nan", *small],
        ["optimize-t", *bound, "--log-shift"],
        ["optimize-t", *bound],
    ]
    builds = 0
    build_parser = cli.build_parser

    def counted_build():
        nonlocal builds
        builds += 1
        return build_parser()

    def run_all():
        results = []
        for argv in calls:
            code = main(list(argv))
            results.append((code, *capsys.readouterr()))
        return results

    monkeypatch.setattr(cli, "build_parser", counted_build)
    cli._parser.cache_clear()
    reused = run_all()
    assert builds == 1
    with monkeypatch.context() as m:
        m.setattr(cli, "_parser", counted_build)
        fresh = run_all()
    assert builds == 1 + len(calls)
    assert [r[0] for r in reused] == [0, 0, 0, 2, 0, 0]
    assert reused == fresh
    assert reused[1][1] != reused[2][1] and reused[4][1] != reused[5][1]
    cli._parser.cache_clear()


FAST = ("--restarts", "1", "--max-iter", "5")
SEEDED = {"restarts": 1, "seed": 0, "max_iter": 5}
# subcommand or recipe -> (argv with {w} for the work directory, echoed config);
# a CSV header is pinned as its key=value strings
CONFIG_ECHO = {
    "ecd-norm": (
        ["ecd-norm", "--phi", "{w}/phi.json", "--psi", "{w}/psi.json",
         "--hamiltonian", "{w}/h.json", "--energy", "1.0", *FAST],
        {"phi": "{w}/phi.json", "psi": "{w}/psi.json", "hamiltonian": "{w}/h.json",
         "energy": 1.0, "r_dim": 3, **SEEDED},
    ),
    "diamond": (
        ["diamond", "--phi", "{w}/phi.json", *FAST],
        {"phi": "{w}/phi.json", "psi": None, "r_dim": 3, **SEEDED},
    ),
    "qn": (
        ["qn", "--phi", "{w}/phi.json", "--psi", "{w}/psi.json",
         "--hamiltonian", "{w}/h.json", "--levels", "2", *FAST],
        {"phi": "{w}/phi.json", "psi": "{w}/psi.json", "hamiltonian": "{w}/h.json",
         "levels": 2, **SEEDED},
    ),
    "gibbs": (
        ["gibbs", "--hamiltonian", "{w}/h.json", "--energy", "0.8"],
        {"hamiltonian": "{w}/h.json", "energy": 0.8},
    ),
    "fbound": (
        ["fbound", "--hamiltonian", "{w}/h.json", "--fhat", "shifted:{w}/h.json", "--energy", "0.8"],
        {"hamiltonian": "{w}/h.json", "fhat": "shifted:{w}/h.json",
         "fhat_saturation_energy": 1.0, "energy": 0.8},
    ),
    "fbound-grid": (
        ["fbound", "--fhat", "osc:1", "--energy-grid", "0.5:2:3"],
        {"fhat": "osc:1", "hamiltonian": "None", "energy_grid": "[0.5, 2.0, 3]"},
    ),
    "chi": (["chi", "--ensemble", "{w}/ens.json"], {"ensemble": "{w}/ens.json"}),
    "qmi": (
        ["qmi", "--state", "{w}/rho.json", "--dims", "2,2"],
        {"state": "{w}/rho.json", "dims": [2, 2]},
    ),
    "cap-est": (
        ["cap-est", "--channel", "{w}/phi.json", "--hamiltonian", "{w}/h.json",
         "--energy", "0.8", *FAST],
        {"channel": "{w}/phi.json", "hamiltonian": "{w}/h.json", "energy": 0.8,
         "ensemble_size": 3, **SEEDED},
    ),
    "energy-gain": (
        ["energy-gain", "--channel", "{w}/phi.json", "--h-in", "{w}/h.json",
         "--h-out", "{w}/h.json", "--energy", "0.8"],
        {"channel": "{w}/phi.json", "h_in": "{w}/h.json", "h_out": "{w}/h.json", "energy": 0.8},
    ),
    "bound-fixed-t": (
        ["bound", "qmi", "--eps", "0.1", "--energy", "1.0", "--fhat", "osc:1",
         "--t", "1.0", "--copies", "2"],
        {"kind": "qmi", "eps": 0.1, "energy": 1.0, "fhat": "osc:1", "copies": 2,
         "log_shift": False, "t": 1.0},
    ),
    "bound-optimized": (
        ["bound", "chi", "--eps", "0.1", "--energy", "1.0", "--fhat", "shifted:{w}/h.json"],
        {"kind": "chi", "eps": 0.1, "energy": 1.0, "fhat": "shifted:{w}/h.json",
         "fhat_saturation_energy": 1.0, "copies": 1, "log_shift": False, "t": "optimized"},
    ),
    "bound-sweep": (
        ["bound", "chi", "--eps", "0.1", "--energy", "1.0", "--fhat", "osc:1", "--sweep", "3"],
        {"copies": "1", "energy": "1.0", "eps": "0.1", "fhat": "osc:1", "kind": "chi",
         "log_shift": "False", "sweep": "3"},
    ),
    "optimize-t": (
        ["optimize-t", "ccap", "--eps", "0.1", "--energy", "1.0", "--fhat", "osc:1", "--log-shift"],
        {"kind": "ccap", "eps": 0.1, "energy": 1.0, "fhat": "osc:1", "copies": 1,
         "log_shift": True, "t": "optimized"},
    ),
    "strong-convergence": (
        ["experiment", "strong-convergence", "--levels", "3", "--thetas", "0.5,0.1", *FAST],
        {"experiment": "strong-convergence", "levels": "3", "energy": "2.0", "r_dim": "1",
         "restarts": "1", "seed": "0", "max_iter": "5", "thetas": "[0.5, 0.1]"},
    ),
    "attenuator-pair": (
        ["experiment", "attenuator-pair", "--dims", "2,3", *FAST],
        {"experiment": "attenuator-pair", "eta1": "0.7", "eta2": "0.69", "energy": "2.0",
         "restarts": "1", "seed": "0", "max_iter": "5", "dims": "[2, 3]"},
    ),
    "tightness-cchi": (
        ["experiment", "tightness-cchi", "--levels", "3", *FAST],
        {"experiment": "tightness-cchi", "levels": 3, "energy": 2.0, **SEEDED},
    ),
    "tightness-ea": (
        ["experiment", "tightness-ea", "--levels", "3"],
        {"experiment": "tightness-ea", "levels": 3, "energy": 2.0},
    ),
    "truncation-ladder": (
        ["experiment", "truncation-ladder", "--levels", "3", *FAST],
        {"experiment": "truncation-ladder", "levels": "3", "eta1": "0.7", "eta2": "0.69",
         "energy": "2.0", "restarts": "1", "seed": "0", "max_iter": "5"},
    ),
}


@pytest.mark.parametrize("case", sorted(CONFIG_ECHO))
def test_cli_config_echo(workdir, case):
    """Every subcommand and recipe echoes exactly the inputs that shape its result."""
    (workdir / "rho.json").write_text(dump_json(density_to_json(DensityOperator(np.eye(4) / 4))))
    qubits = [DensityOperator(np.diag(p)) for p in ([1.0, 0.0], [0.0, 1.0])]
    ens = {"probs": [0.5, 0.5], "states": [density_to_json(s) for s in qubits]}
    (workdir / "ens.json").write_text(dump_json(ens))
    argv, want = CONFIG_ECHO[case]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([a.replace("{w}", str(workdir)) for a in argv])
    assert code == 0
    text = out.getvalue().replace(str(workdir), "{w}")
    if text.startswith("#"):
        header = [ln[2:] for ln in text.splitlines() if ln.startswith("# ")]
        got = dict(ln.split("=", 1) for ln in header)
    else:
        got = json.loads(text)["config"]
    assert got == want


MAP_ARGS = ("--phi", "phi.json", "--hamiltonian", "h.json", "--energy", "1")
BOUND_ARGS = ("bound", "chi", "--eps", "0.1", "--energy", "1", "--fhat", "osc:1")


@pytest.mark.parametrize(
    "argv, option",
    [
        (("ecd-norm", *MAP_ARGS, "--restarts", "-3"), "--restarts"),
        (("ecd-norm", *MAP_ARGS, "--max-iter", "-1"), "--max-iter"),
        (("diamond", "--phi", "phi.json", "--r-dim", "0"), "--r-dim"),
        (("qn", *MAP_ARGS[:4], "--levels", "0"), "--levels"),
        (("cap-est", "--channel", "c.json", *MAP_ARGS[2:], "--ensemble-size", "0"), "--ensemble-size"),
        ((*BOUND_ARGS, "--copies", "0"), "--copies"),
        ((*BOUND_ARGS, "--sweep", "-1"), "--sweep"),
        (("qmi", "--state", "rho.json", "--dims", "2,0"), "--dims"),
        (("zoo", "identity", "--levels", "0"), "--levels"),
        (("experiment", "attenuator-pair", "--dims", "8,0"), "--dims"),
        (("experiment", "truncation-ladder", "--restarts", "0"), "--restarts"),
        (("fbound", "--fhat", "osc:1", "--energy-grid", "0.6:6:0"), "--energy-grid"),
        (("fbound", "--fhat", "osc:1", "--energy-grid", "0.6:6:-1"), "--energy-grid"),
    ],
)
def test_cli_counts_below_minimum_are_exit_2(capsys, argv, option):
    assert main(list(argv)) == 2
    err = capsys.readouterr().err
    assert f"argument {option}" in err and "below the minimum" in err
