"""Task pools of the three benchmark workloads.

A workload is a fixed pool of tasks. Each task is built from its pool index
alone, so every task has a result recorded in `reference.json` at the commit
that defined the benchmark. The run seed orders the pool: every pass over it
(a cycle) is a fresh seeded permutation inside each task group, and the groups
are interleaved in proportion to their size, so any prefix of a cycle keeps
the group mix. A 30 s run covers the pool 3-4 times on a 2-core machine, which
keeps the quality metrics the same from seed to seed.

A task is one `estimate_*` call or one `ecdnorm.cli.main` call. Inputs
(channels, Choi matrices, Hamiltonians, zoo JSON files) are built in set-up;
the timed part of a task is the library call only.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

WORKLOADS = ("capped-families", "lanczos-zoo", "bounds-cli")

# criterion 1 shapes: (input levels d, reference dimension r), psi.size <= 16
CAPPED_COMBOS = ((2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (2, 4), (4, 1), (4, 2))
RANDOM_PER_COMBO = 2
# the strong-convergence ladder of the `experiment` recipe
PHASE_THETAS = (0.5, 0.25, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002)
ATTENUATOR_PAIR = (0.70, 0.69)
PAIR8_ENERGIES = (1.0, 2.0, 3.0)
ZOO_LEVELS = (10, 12, 14, 16)
ZOO_KINDS = ("attenuator-pair", "phase-vs-identity", "attenuator-vs-depolarizer")

CAPPED_SALT = 7001
ZOO_SALT = 7002


@dataclass
class BracketTask:
    """One `estimate_ecd_norm` or `estimate_diamond_norm` call."""

    key: str
    group: str
    estimator: str  # "ecd" or "diamond"
    restarts: int
    max_iter: int
    seed: int
    build: Callable[[Any], tuple]  # lib -> (phi, psi, levels or None)
    energy: float | None = None
    r_dim: int | None = None
    # filled in by set-up
    phi: Any = None
    psi: Any = None
    levels: np.ndarray | None = None
    problem: Any = None

    kind = "bracket"

    def prepare(self, lib) -> None:
        self.phi, self.psi, self.levels = self.build(lib)
        the_map = lib.HermitianPreservingMap.difference(self.phi, self.psi)
        if self.estimator == "ecd":
            self.problem = lib.EcdProblem(
                the_map, lib.Hamiltonian(self.levels), self.energy, r_dim=self.r_dim
            )
        else:
            self.problem = the_map

    def run(self, lib):
        options = {"restarts": self.restarts, "seed": self.seed, "max_iter": self.max_iter}
        if self.estimator == "ecd":
            return lib.estimate_ecd_norm(self.problem, **options)
        return lib.estimate_diamond_norm(self.problem, r_dim=self.r_dim, **options)


@dataclass
class CliTask:
    """One in-process `ecdnorm.cli.main` call; `{work}` marks the zoo directory."""

    key: str
    group: str
    template: tuple[str, ...]
    argv: list[str] = field(default_factory=list)

    kind = "cli"

    def prepare(self, work: str) -> None:
        self.argv = [a.replace("{work}", work) for a in self.template]

    def run(self, lib) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = lib.cli.main(list(self.argv))
        return code, out.getvalue()

    @property
    def command(self) -> str:
        return self.template[0] if self.template[0] != "experiment" else self.template[1]


def random_kraus(rng: np.random.Generator, dim: int, n_kraus: int) -> list[np.ndarray]:
    """Kraus operators cut from a random isometry (QR of a Ginibre matrix)."""
    z = rng.standard_normal((n_kraus * dim, dim)) + 1j * rng.standard_normal((n_kraus * dim, dim))
    q, _ = np.linalg.qr(z)
    return [q[i * dim : (i + 1) * dim, :] for i in range(n_kraus)]


def oscillator_levels(n: int) -> np.ndarray:
    return np.arange(n, dtype=np.float64) + 0.5


def _capped_pool() -> list[BracketTask]:
    tasks = []
    for c, (d, r) in enumerate(CAPPED_COMBOS):
        for k in range(RANDOM_PER_COMBO):
            index = c * RANDOM_PER_COMBO + k
            rng = np.random.default_rng([CAPPED_SALT, index])
            ev = np.sort(rng.uniform(0.0, 3.0, size=d))
            ev[0] = rng.uniform(0.0, 0.3)
            budget = float(ev[0] + rng.uniform(0.2, 0.8) * (ev.mean() - ev[0]))

            def build(lib, index=index, d=d, ev=ev):
                rng = np.random.default_rng([CAPPED_SALT, index, 1])
                phi = lib.Channel(random_kraus(rng, d, 2))
                psi = lib.Channel(random_kraus(rng, d, 2))
                return phi, psi, ev

            tasks.append(
                BracketTask(f"random/d{d}r{r}/{k}", "random", "ecd", 2, 100, index, build, budget, r)
            )
    for theta in PHASE_THETAS:

        def build(lib, theta=theta):
            return lib.phase_rotation(16, theta), lib.identity_channel(16), oscillator_levels(16)

        tasks.append(BracketTask(f"phase16/{theta}", "phase", "ecd", 2, 30, 0, build, 2.0, 1))
    for energy in PAIR8_ENERGIES:

        def build(lib):
            eta1, eta2 = ATTENUATOR_PAIR
            return lib.attenuator(8, eta1), lib.attenuator(8, eta2), oscillator_levels(8)

        tasks.append(BracketTask(f"pair8/E{energy}", "pair8", "ecd", 1, 15, 0, build, energy, 8))
    return tasks


def _zoo_channels(lib, kind: str, d: int, rng: np.random.Generator):
    if kind == "attenuator-pair":
        eta1 = float(rng.uniform(0.5, 0.95))
        eta2 = eta1 - float(rng.uniform(0.01, 0.1))
        return lib.attenuator(d, eta1), lib.attenuator(d, eta2)
    if kind == "phase-vs-identity":
        return lib.phase_rotation(d, float(rng.uniform(0.02, 1.0))), lib.identity_channel(d)
    eta = float(rng.uniform(0.5, 0.95))
    p = float(rng.uniform(0.1, 0.9))
    return lib.attenuator(d, eta), lib.depolarize_to(lib.vacuum_state(d), p)


def _lanczos_pool() -> list[BracketTask]:
    tasks = []
    index = 0
    for d in ZOO_LEVELS:
        for kind in ZOO_KINDS:
            for estimator in ("diamond", "ecd"):
                rng = np.random.default_rng([ZOO_SALT, index])
                energy = float(rng.uniform(1.0, 3.0))

                def build(lib, kind=kind, d=d, index=index):
                    phi, psi = _zoo_channels(lib, kind, d, np.random.default_rng([ZOO_SALT, index, 1]))
                    return phi, psi, oscillator_levels(d)

                tasks.append(
                    BracketTask(
                        f"zoo/{kind}/d{d}/{estimator}", f"zoo-{estimator}", estimator,
                        1, 15, index, build, energy if estimator == "ecd" else None, d,
                    )
                )
                index += 1
    # the 0.70/0.69 attenuator pair; the unconstrained estimate at 24 levels
    # is left out because one such call costs about as much as a whole run
    for d, estimators in ((16, ("diamond", "ecd")), (24, ("ecd",))):
        for estimator in estimators:

            def build(lib, d=d):
                eta1, eta2 = ATTENUATOR_PAIR
                return lib.attenuator(d, eta1), lib.attenuator(d, eta2), oscillator_levels(d)

            tasks.append(
                BracketTask(
                    f"pair{d}/{estimator}", "pair", estimator, 1, 15, 0, build,
                    2.0 if estimator == "ecd" else None, d,
                )
            )
    return tasks


BOUND_KINDS = ("chi", "qmi", "cchi", "ccap", "eacap-in", "eacap-out")
BOUND_EPS = (0.01, 0.05, 0.2)
BOUND_ENERGIES = (0.5, 2.0, 8.0)
ENTROPY_CAPS = ("osc:1.0", "shifted:{work}/osc16.json")
CHANNEL_FILES = ("identity", "attenuator", "depolarizer")
CHANNEL_LEVELS = (6, 9, 12)
HAMILTONIAN_LEVELS = (6, 8, 9, 12, 16)
# cli `zoo` commands run in set-up: (file stem, argv tail)
ZOO_FILES = tuple(
    [(f"osc{n}", ("oscillator-hamiltonian", "--levels", str(n))) for n in HAMILTONIAN_LEVELS]
    + [(f"identity{n}", ("identity", "--levels", str(n))) for n in CHANNEL_LEVELS]
    + [(f"attenuator{n}", ("attenuator", "--levels", str(n), "--eta", "0.7")) for n in CHANNEL_LEVELS]
    + [(f"depolarizer{n}", ("depolarize-to-vacuum", "--levels", str(n), "--p", "0.6")) for n in CHANNEL_LEVELS]
)


def _cli_pool() -> list[CliTask]:
    def task(group, *argv):
        return CliTask(" ".join(argv), group, tuple(argv))

    tasks = []
    for kind in BOUND_KINDS:
        for cap in ENTROPY_CAPS:
            for eps in BOUND_EPS:
                for energy in BOUND_ENERGIES:
                    common = (kind, "--eps", repr(eps), "--energy", repr(energy), "--fhat", cap)
                    tasks.append(task("bound", "bound", *common, "--t", repr(0.2 / eps)))
                    tasks.append(task("optimize-t", "optimize-t", *common))
                    if cap.startswith("osc"):
                        tasks.append(task("optimize-t", "optimize-t", *common, "--log-shift"))
        tasks.append(
            task("sweep", "bound", kind, "--eps", "0.05", "--energy", "2.0", "--fhat", "osc:1.0", "--sweep", "40")
        )
    for cap in ENTROPY_CAPS:
        tasks.append(
            task("sweep", "fbound", "--hamiltonian", "{work}/osc16.json", "--fhat", cap, "--energy-grid", "0.6:6:30")
        )
    # single-energy fbound documents hold the entropy bracket [max_entropy, cap]
    for n in (8, 16):
        for energy in (0.8, 1.5, 3.0):
            tasks.append(
                task("fbound", "fbound", "--hamiltonian", f"{{work}}/osc{n}.json", "--fhat", "osc:1.0",
                     "--energy", repr(energy))
            )
    for n in (6, 9, 12, 16):
        for energy in (0.8, 1.5, 2.5):
            tasks.append(task("gibbs", "gibbs", "--hamiltonian", f"{{work}}/osc{n}.json", "--energy", repr(energy)))
    for n in CHANNEL_LEVELS:
        for channel in CHANNEL_FILES:
            tasks.append(
                task("energy-gain", "energy-gain", "--channel", f"{{work}}/{channel}{n}.json",
                     "--h-in", f"{{work}}/osc{n}.json", "--h-out", f"{{work}}/osc{n}.json", "--energy", "1.5")
            )
            tasks.append(
                task("cap-est", "cap-est", "--channel", f"{{work}}/{channel}{n}.json",
                     "--hamiltonian", f"{{work}}/osc{n}.json", "--energy", "1.5",
                     "--restarts", "2", "--max-iter", "25")
            )
    for n in (8, 12, 16):
        for energy in (1.0, 2.0):
            tasks.append(task("experiment", "experiment", "tightness-ea", "--levels", str(n), "--energy", repr(energy)))
    for n in (6, 8):
        tasks.append(
            task("experiment", "experiment", "tightness-cchi", "--levels", str(n), "--energy", "1.5",
                 "--restarts", "2", "--max-iter", "25")
        )
    return tasks


def pool(workload: str) -> list:
    """The task pool of a workload, without its inputs."""
    if workload == "capped-families":
        return _capped_pool()
    if workload == "lanczos-zoo":
        return _lanczos_pool()
    if workload == "bounds-cli":
        return _cli_pool()
    raise ValueError(f"unknown workload {workload!r}")


def write_zoo_files(lib, work: str) -> None:
    """Write the JSON operator files of the bounds-cli workload via `ecdnorm zoo`."""
    os.makedirs(work, exist_ok=True)
    for stem, argv in ZOO_FILES:
        code = lib.cli.main(["zoo", *argv, "--out", os.path.join(work, f"{stem}.json")])
        if code != 0:
            raise RuntimeError(f"zoo {' '.join(argv)} exited {code}")


def prepare(tasks: list, lib, work: str) -> None:
    """Build every input of the pool: channels, Choi matrices, Hamiltonians, zoo files."""
    if tasks and tasks[0].kind == "cli":
        write_zoo_files(lib, work)
        for t in tasks:
            t.prepare(work)
    else:
        for t in tasks:
            t.prepare(lib)


def _interleave(groups: list[list]) -> list:
    """Merge groups so that every prefix holds each group in proportion to its size."""
    order = []
    taken = [0] * len(groups)
    total = sum(len(g) for g in groups)
    for _ in range(total):
        i = min(
            (j for j in range(len(groups)) if taken[j] < len(groups[j])),
            key=lambda j: ((taken[j] + 0.5) / len(groups[j]), j),
        )
        order.append(groups[i][taken[i]])
        taken[i] += 1
    return order


def cycle_order(tasks: list, seed: int, cycle: int) -> list:
    """The pool in the order of one cycle of a run with the given seed."""
    rng = np.random.default_rng([int(seed), cycle])
    names = sorted({t.group for t in tasks})
    groups = []
    for name in names:
        members = [t for t in tasks if t.group == name]
        groups.append([members[i] for i in rng.permutation(len(members))])
    return _interleave(groups)


def relative_gap(lower: float, upper: float) -> float:
    return (upper - lower) / upper if upper > 0.0 else 0.0
