#!/usr/bin/env python3
"""Layer timings and output probes of one checkout, one JSON object each.

    cd <checkout> && python3 <any checkout>/tools/layers.py capped_ascent_s

Run so, it imports `ecdnorm` from the working directory's `src` and the
bench's `workloads` from its `perfbench`, so one copy measures any checkout.
Importing it runs nothing. A timing is the median of RUNS runs (`timed`); a
count is the calls made over those runs (`counting`), or a sum over them,
divided by RUNS. Counts are exact: two runs of a row give the same ones.
"""

import argparse
import contextlib
import json
import math
import statistics
import sys
import tempfile
import time
import types
from pathlib import Path

import numpy as np

if __name__ == "__main__":
    sys.path[:0] = [str(Path.cwd() / "src"), str(Path.cwd() / "perfbench")]

import ecdnorm.cli  # noqa: E402
import workloads  # noqa: E402
from ecdnorm import Channel, EnergyCap, Hamiltonian, HermitianPreservingMap, TruncatedOscillator  # noqa: E402
from ecdnorm import attenuator, ecd, holevo_capacity_estimate, identity_channel, info, optim  # noqa: E402

RUNS = 9


def timed(run, setup=None, repeat=1) -> float:
    """Median over RUNS runs of the seconds per call of `run`, called `repeat`
    times a run. Given `setup`, each run first calls it, untimed, and passes
    its result to `run`."""
    times = []
    for _ in range(RUNS):
        args = () if setup is None else (setup(),)
        begin = time.perf_counter()
        for _ in range(repeat):
            run(*args)
        times.append((time.perf_counter() - begin) / repeat)
    return statistics.median(times)


@contextlib.contextmanager
def counting(owner, name, keep=lambda *args, **kwargs: None):
    """Count the calls of owner.name inside the block, one list entry a call:
    what `keep` returns for the call's arguments. owner.name (a class, an
    instance or a module attribute) is put back as it was on leaving."""
    own = vars(owner).get(name)
    wrapped = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(keep(*args, **kwargs))
        return wrapped(*args, **kwargs)

    setattr(owner, name, counted)
    try:
        yield calls
    finally:
        if own is None:
            delattr(owner, name)
        else:
            setattr(owner, name, own)


def _pair(d):
    """The difference of the 0.70 and the 0.69 attenuator at d levels."""
    return HermitianPreservingMap.difference(attenuator(d, 0.70), attenuator(d, 0.69))


def _oscillator_cap(d, r, energy):
    return EnergyCap(Hamiltonian(np.arange(d) + 0.5), r, energy)


def _random_difference(seed, d):
    """The difference of two random channels at d levels, two Kraus operators each."""
    rng = np.random.default_rng(seed)

    def random_channel():
        z = rng.standard_normal((2 * d, d)) + 1j * rng.standard_normal((2 * d, d))
        q = np.linalg.qr(z)[0]
        return Channel([q[:d], q[d:]])

    return HermitianPreservingMap.difference(random_channel(), random_channel())


def _capped_problems():
    """name: (map, r, energy budget on the levels 0.5, 1.5, ...)."""
    return {"pair8": (_pair(8), 8, 2.0), "random-d4r2": (_random_difference(15, 4), 2, 1.0)}


def constructor_s():
    """Time to build the trace-norm objective of the pair at 8, 16 and 24 levels (r = d)."""
    out = {}
    for d in (8, 16, 24):
        m = _pair(d)
        out[str(d)] = timed(lambda: ecd._objective(m, d))
    return out


def capped_proposal_s():
    """Time per call of `optim._capped_proposal` on each `_capped_problems`, 20
    calls a run, after a first call that builds what the objective keeps."""
    out = {}
    for name, (m, r, energy) in _capped_problems().items():
        d = m.in_dim
        obj = ecd._objective(m, r)
        cap = _oscillator_cap(d, r, energy)
        obj.value_and_grad(cap(optim.start_vectors(d, r, 2, 0)[1]))
        optim._capped_proposal(obj, cap, 0.0)
        out[name] = timed(lambda: optim._capped_proposal(obj, cap, 0.0), repeat=20)
    return out


def capped_ascent_s():
    """Time of one capped ascent (`optim.ascend` from start 1, 15 iterations,
    the capped proposal) on each `_capped_problems`, with a fresh objective per
    run, and its `_DualPoint` evaluations, the eigensolves of the energy dual."""
    out = {}
    for name, (m, r, energy) in _capped_problems().items():
        cap = _oscillator_cap(m.in_dim, r, energy)
        start = optim.start_vectors(m.in_dim, r, 2, 0)[1]
        with counting(optim._DualPoint, "__init__") as points:
            out[name] = timed(lambda obj: optim.ascend(obj, start, cap, 15), lambda: ecd._objective(m, r))
        out[name + "_dual_points"] = len(points) // RUNS
    return out


def converged_ascent_s():
    """Time of one capped ascent that ends on its gap rule, a proposal that
    gains at most `optim.PROPOSAL_GAP` relative (`optim.ascend` from start 1,
    at most 100 steps, the capped proposal) on a random
    difference at d = 3, r = 2, E = 0.8, with a fresh objective per run, and
    its expansions (`value_and_grad` calls on a tree without `expand`), its
    `value` screens and its `_DualPoint` evaluations."""
    m = _random_difference(5, 3)
    cap = _oscillator_cap(3, 2, 0.8)
    start = optim.start_vectors(3, 2, 2, 0)[1]
    cls = optim.TraceNormObjective
    expand = "expand" if hasattr(cls, "expand") else "value_and_grad"
    with counting(cls, expand) as expansions, counting(cls, "value") as screens, \
            counting(optim._DualPoint, "__init__") as points:
        seconds = timed(lambda obj: optim.ascend(obj, start, cap, 100), lambda: ecd._objective(m, 2))
    counts = {"expansions": expansions, "value_calls": screens, "dual_points": points}
    return {"random-d3r2": seconds, **{f"random-d3r2_{k}": len(v) // RUNS for k, v in counts.items()}}


def uncapped_ascent_s():
    """Time of one uncapped ascent (`optim.ascend`, 15 iterations, the Lanczos
    proposal) on the pair at 16 levels (r = 16), and its `apply_sign` and
    `value_and_grad` calls: from the real start 0, and from start 1, a
    complex Gaussian, which takes the real factor against complex iterates."""
    obj = ecd._objective(_pair(16), 16)
    out = {}
    for name, start in zip(("pair16", "pair16_complex_start"), optim.start_vectors(16, 16, 2, 0)):
        with counting(obj, "apply_sign") as calls, counting(obj, "value_and_grad") as grads:
            out[name] = timed(lambda: optim.ascend(obj, start, None, 15))
        out[name + "_apply_sign_calls"] = len(calls) // RUNS
        out[name + "_value_and_grad_calls"] = len(grads) // RUNS
    return out


def projected_ascent_s():
    """Time of the ascent inside the bench task `pair24/ecd` (`optim.ascend` from
    start 0 on the pair at 24 levels, r = 24, E = 2, 15 iterations of projected
    gradient steps), with a fresh objective per run, and its `value_and_grad`
    and `sign_value` calls."""
    m = _pair(24)
    cap = _oscillator_cap(24, 24, 2.0)
    start = optim.start_vectors(24, 24, 1, 0)[0]
    cls = optim.TraceNormObjective
    with counting(cls, "value_and_grad") as grads, counting(cls, "sign_value") as signs:
        seconds = timed(lambda obj: optim.ascend(obj, start, cap, 15), lambda: ecd._objective(m, 24))
    calls = {"pair24_value_and_grad_calls": len(grads) // RUNS, "pair24_sign_value_calls": len(signs) // RUNS}
    return {"pair24": seconds, **calls}


def _shape(matrices, *args, **kwargs):
    return np.shape(matrices)


def capacity_s():
    """Time of one `holevo_capacity_estimate` at 12 levels (E = 1.5, 2 restarts
    of at most 25 steps: the bench's `cap-est` setting) of the 0.7 attenuator
    and of the identity, its `_EnsembleAscent.value` and `grads` calls, and its
    eigensolves: the matrices that `np.linalg.eigh` and `eigvalsh` decompose,
    a stack of K counting as K, and the sum of n³ over them."""
    h = TruncatedOscillator(12, 1.0).hamiltonian
    out = {}
    for name, channel in (("attenuator12", attenuator(12, 0.7)), ("identity12", identity_channel(12))):
        with counting(info._EnsembleAscent, "value") as calls, counting(info._EnsembleAscent, "grads") as grads, \
                counting(np.linalg, "eigh", _shape) as eighs, counting(np.linalg, "eigvalsh", _shape) as eigvals:
            out[name] = timed(lambda: holevo_capacity_estimate(channel, h, 1.5, restarts=2, max_iter=25))
        stacks = [(math.prod(shape[:-2]), shape[-1]) for shape in eighs + eigvals]
        out[name + "_value_calls"] = len(calls) // RUNS
        out[name + "_grads_calls"] = len(grads) // RUNS
        out[name + "_eigensolves"] = sum(k for k, _ in stacks) // RUNS
        out[name + "_eigensolve_n3"] = sum(k * n**3 for k, n in stacks) // RUNS
    return out


def ea_s():
    """Time of the `experiment tightness-ea` body at 16 levels, E = 2, after a warm-up call."""
    args = types.SimpleNamespace(levels=16, energy=2.0)
    ecdnorm.cli._exp_tightness_ea(args)
    return {"levels16_E2": timed(lambda: ecdnorm.cli._exp_tightness_ea(args))}


def brackets():
    """[lower, upper] of every bracket task of capped-families and
    lanczos-zoo, keyed "workload/task"."""
    out = {}
    for workload in ("capped-families", "lanczos-zoo"):
        for task in workloads.pool(workload):
            task.prepare(ecdnorm)
            res = task.run(ecdnorm)
            out[f"{workload}/{task.key}"] = [res.lower, res.upper]
    return out


def cli_outputs():
    """[exit code, stdout] of every bounds-cli task, with the work directory
    of its input files replaced by `{work}`."""
    tasks = workloads.pool("bounds-cli")
    out = {}
    with tempfile.TemporaryDirectory() as work:
        workloads.prepare(tasks, ecdnorm, work)
        for task in tasks:
            code, text = task.run(ecdnorm)
            out[task.key] = [code, text.replace(work, "{work}")]
    return out


TIMINGS = {f.__name__: f for f in (constructor_s, capped_proposal_s, capped_ascent_s, converged_ascent_s,
                                   uncapped_ascent_s, projected_ascent_s, capacity_s, ea_s)}
PROBES = {f.__name__: f for f in (brackets, cli_outputs)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("name", choices=[*TIMINGS, *PROBES])
    print(json.dumps({**TIMINGS, **PROBES}[parser.parse_args(argv).name]()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
