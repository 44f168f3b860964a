"""Span tracer that times the ecdnorm layers from outside the library.

`Tracer.install` replaces functions and methods at the names their callers
look up: module globals, the names other modules (the package, `ecdnorm.cli`)
imported, class attributes, and `numpy.linalg.eigvalsh`/`eigh`, which are
only counted. `uninstall` puts every original back; no library file changes.

Each span records its name, start, end and parent span, plus its self time
and the eigensolves made while it was open. Spans stay in memory until the
run ends. A name's inclusive time counts only spans with no open ancestor of
the same name, so recursion and nested wrappers are not counted twice.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
import types
from collections import Counter, defaultdict

import numpy as np

import kernels

# span name -> functions, as (module, attribute), wrapped wherever they are looked up
FUNCTION_SPANS = {
    "optim.capped": [("optim", "_capped_proposal")],
    "optim.linearized": [("optim", "_linearized_proposal")],
    "optim.lanczos": [("optim", "_lanczos_top")],
    "optim.golden": [("optim", "golden_section_min")],
    "optim.ascend": [("optim", "ascend")],
    "ecd.ascent": [("optim", "multistart_ascend")],
    "optim.energy_constrained_sup": [("optim", "energy_constrained_sup")],
    "ecd.estimate": [("ecd", "estimate_ecd_norm"), ("ecd", "estimate_diamond_norm")],
    "ecd.cert.diamond": [("ecd", "diamond_upper_bound")],
    "ecd.cert.stinespring": [("ecd", "_aligned_stinespring_bound")],
    "ecd.cert.ladder": [("ecd", "_truncation_ladder_bound")],
    "thermo.solve_gibbs": [("thermo", "solve_gibbs")],
    "thermo.max_entropy": [("thermo", "max_entropy")],
    "bounds.optimize_t": [("bounds", "optimize_t")],
    "bounds.assemble": [("bounds", "_assemble")],
    "info.capacity": [("info", "holevo_capacity_estimate")],
    "info.mutual_information": [
        ("info", "mutual_information"),
        ("info", "channel_mutual_information"),
    ],
    "info.energy_gain": [("info", "energy_gain")],
    "serialize.load": [
        ("serialize", n)
        for n in ("load_json", "channel_from_json", "hamiltonian_from_json",
                  "density_from_json", "ensemble_from_json")
    ],
    "serialize.dump": [
        ("serialize", n) for n in ("dump_json", "channel_to_json", "hamiltonian_to_json", "matrix_to_json")
    ],
    "cli.main": [("cli", "main")],
    "zoo": [
        ("zoo", n)
        for n in ("identity_channel", "phase_rotation", "attenuator", "depolarize_to", "vacuum_state")
    ],
    "operators": [("operators", "choi_of")],
}
# span name -> class attributes, as (module, class, attribute)
METHOD_SPANS = {
    "optim.objective.init": [("optim", "TraceNormObjective", "__init__")],
    "optim.objective.value": [("optim", "TraceNormObjective", "value")],
    "optim.value_and_grad": [("optim", "TraceNormObjective", "value_and_grad")],
    "optim.apply_sign": [("optim", "TraceNormObjective", "apply_sign")],
    "optim.sign_value": [("optim", "TraceNormObjective", "sign_value")],
    "optim.energy_cap.init": [("optim", "EnergyCap", "__init__")],
    "optim.energy_cap": [("optim", "EnergyCap", "__call__")],
    "optim.energy_cap.energy": [("optim", "EnergyCap", "energy")],
    "optim.energy_cap.kron": [("optim", "EnergyCap", "kron_matrix")],
    "info.capacity.project": [("info", "_EnsembleAscent", "_project")],
    "operators": [
        ("operators", c, "__init__")
        for c in ("Channel", "HermitianPreservingMap", "Hamiltonian", "DensityOperator")
    ],
}
EIGENSOLVERS = ("eigvalsh", "eigh")


def _library_modules() -> list[types.ModuleType]:
    return [m for name, m in list(sys.modules.items()) if name == "ecdnorm" or name.startswith("ecdnorm.")]


class Tracer:
    """Spans, counts and the certificate ledger of one traced phase."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent, self_s, outermost, eigensolves)
        self._stack: list = []
        self._open: Counter = Counter()
        self._certs: list[dict] = []
        self._patches: list = []
        self.eigensolves = 0
        self.bytes_out = 0
        self.task = None
        self.ledger: list[dict] = []
        # (kernel, shape) -> [calls, seconds, flops, bytes]
        self.kernels: dict = defaultdict(lambda: [0, 0.0, 0.0, 0.0])

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> None:
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1][0] if self._stack else -1
        outermost = self._open[name] == 0
        self._open[name] += 1
        self._stack.append([sid, name, parent, outermost, self.eigensolves, 0.0, time.perf_counter()])

    def _exit(self) -> float:
        end = time.perf_counter()
        sid, name, parent, outermost, eig0, child_s, start = self._stack.pop()
        seconds = end - start
        self._open[name] -= 1
        if self._stack:
            self._stack[-1][5] += seconds
        self.spans[sid] = (name, start, end, parent, seconds - child_s, outermost, self.eigensolves - eig0)
        return seconds

    def _wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._enter(name(tracer) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = tracer._exit()
            if after is not None:
                after(args, kwargs, result, seconds)
            return result

        return traced

    # -- hooks ---------------------------------------------------------------

    def _estimate(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            certs: dict = {}
            tracer._certs.append(certs)
            tracer._enter("ecd.estimate")
            try:
                est = fn(*args, **kwargs)
            finally:
                tracer._exit()
                tracer._certs.pop()
            the_map = getattr(args[0], "map", args[0])
            tracer.ledger.append(_ledger_entry(tracer.task, the_map.kraus_pair is not None, certs, est))
            return est

        return traced

    def _record_cert(self, key):
        def after(args, kwargs, value, seconds):
            if not self._certs:
                return
            certs = self._certs[-1]
            if key == "ladder":
                best_before = args[2] if len(args) > 2 else kwargs["best_so_far"]
                certs["ladder"] = (float(value), float(best_before))
            elif key == "diamond" and self._open["ecd.cert.ladder"]:
                pass  # compressed-map bounds inside the ladder
            else:
                certs.setdefault(key, float(value))

        return after

    def _kernel(self, kernel):
        def after(args, kwargs, result, seconds):
            obj = args[0]
            i, o, r = obj.in_dim, obj.out_dim, obj.r_dim
            factored = bool(getattr(obj, "_use_factor", False))
            rank = int(getattr(obj, "_rank", 0))
            if kernel == "apply_sign":
                flops, moved = kernels.apply_sign(i, o, r, factored)
            elif kernel == "value_and_grad":
                flops, moved = kernels.value_and_grad(i, o, r, rank, factored)
            else:  # the dense surrogate built by the capped proposal
                flops, moved = kernels.g_build(i, o, r, factored)
            entry = self.kernels[(kernel, i, o, r, rank, factored)]
            entry[0] += 1
            entry[1] += seconds
            entry[2] += flops
            entry[3] += moved

        return after

    def _count_bytes(self, args, kwargs, text, seconds):
        if isinstance(text, str):
            self.bytes_out += len(text.encode("utf-8"))

    def _after(self, name):
        if name == "ecd.cert.diamond":
            return self._record_cert("diamond")
        if name == "ecd.cert.stinespring":
            return self._record_cert("stinespring")
        if name == "ecd.cert.ladder":
            return self._record_cert("ladder")
        if name == "optim.apply_sign":
            return self._kernel("apply_sign")
        if name == "optim.value_and_grad":
            return self._kernel("value_and_grad")
        if name == "optim.capped":
            return self._kernel("g_build")
        return None

    # -- install -------------------------------------------------------------

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper, modules) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def install(self, lib) -> None:
        """Wrap the traced names of the imported ecdnorm modules."""
        modules = _library_modules()
        wrapped = set()
        for name, targets in FUNCTION_SPANS.items():
            for mod_name, attr in targets:
                original = getattr(getattr(lib, mod_name, None), attr, None)
                if original is None:
                    continue  # module not imported in this run
                if name == "ecd.estimate":
                    wrapper = self._estimate(original)
                elif name == "ecd.cert.diamond":
                    wrapper = self._wrap(_diamond_span, original, self._after(name))
                elif attr == "dump_json":
                    wrapper = self._wrap(name, original, self._count_bytes)
                else:
                    wrapper = self._wrap(name, original, self._after(name))
                self._replace_everywhere(original, wrapper, modules)
                wrapped.update((id(original), id(wrapper)))
        cli = getattr(lib, "cli", None)
        if cli is not None:
            # the remaining library functions imported into the CLI
            for attr, value in list(vars(cli).items()):
                if (
                    isinstance(value, types.FunctionType)
                    and value.__module__.startswith("ecdnorm.")
                    and value.__module__ != "ecdnorm.cli"
                    and id(value) not in wrapped
                ):
                    name = f"{value.__module__.split('.')[1]}.{value.__name__}"
                    wrapper = self._wrap(name, value)
                    self._replace_everywhere(value, wrapper, modules)
                    wrapped.update((id(value), id(wrapper)))
        for name, targets in METHOD_SPANS.items():
            for mod_name, cls_name, attr in targets:
                cls = getattr(getattr(lib, mod_name), cls_name)
                self._patch(cls, attr, self._wrap(name, vars(cls)[attr], self._after(name)))
        for attr in EIGENSOLVERS:
            self._patch(np.linalg, attr, self._counted(getattr(np.linalg, attr)))

    def _counted(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.eigensolves += 1
            return fn(*args, **kwargs)

        return counted

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def totals(self) -> dict:
        """Per span name: calls, inclusive and self seconds, eigensolves."""
        out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "eigensolves": 0})
        for name, start, end, parent, self_s, outermost, eig in self.spans:
            t = out[name]
            t["calls"] += 1
            t["self_s"] += self_s
            if outermost:
                t["s"] += end - start
                t["eigensolves"] += eig
        return out

    def child_counts(self, parent_name: str) -> list[Counter]:
        """For each span of parent_name, the names of its direct children."""
        ids = {i: Counter() for i, s in enumerate(self.spans) if s[0] == parent_name}
        for name, _, _, parent, *_ in self.spans:
            if parent in ids:
                ids[parent][name] += 1
        return list(ids.values())

    def write(self, path: str) -> None:
        """Write every span as [name, start, end, parent] to a gzip'd JSON file."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "names": names,
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans": [[index[s[0]], round(s[1], 7), round(s[2], 7), s[3]] for s in self.spans],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _diamond_span(tracer: Tracer) -> str:
    return "ecd.cert.ladder.diamond" if tracer._open["ecd.cert.ladder"] else "ecd.cert.diamond"


def _ledger_entry(task, kraus_pair: bool, certs: dict, est) -> dict:
    """Replay the certificate minimum of `ecd.py` and name the winner.

    `clamp` is true when the lowest certificate lies below `lower`, i.e. the
    `upper = max(upper, lower)` clamp fired; `consistent` checks the replay
    against the returned `upper`.
    """
    entry = {"task": task, "lower": est.lower, "upper": est.upper, "certificates": dict(certs)}
    if "diamond" not in certs:
        entry.update(winner=None, clamp=False, consistent=True)
        return entry
    best, winner = certs["diamond"], "diamond"
    if kraus_pair and best > 2.0:
        best, winner = 2.0, "trivial2"
    if certs.get("stinespring", np.inf) < best:
        best, winner = certs["stinespring"], "stinespring"
    if "ladder" in certs and certs["ladder"][0] < certs["ladder"][1]:
        best, winner = certs["ladder"][0], "ladder"
    entry.update(
        winner=winner,
        lowest_certificate=best,
        clamp=bool(best < est.lower),
        consistent=bool(max(best, est.lower) == est.upper),
    )
    return entry
