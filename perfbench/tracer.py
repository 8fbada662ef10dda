"""Spans around the program's layers, recorded from outside the program.

``Tracer.install`` replaces each listed function or method with a timing
wrapper in every ``asymsqueeze`` module namespace that holds a reference to
it (``cli`` imports ``covariance``, ``log_negativity`` and the fidelity
functions by name, so wrapping only their home module would miss the sweep
loops).  Spans (name, start, end, parent, raised) are kept in flat arrays in
memory; at the end of the run the spans of its last pass are written out.
Self time is a span's duration minus the durations of its direct children.

With ``memory`` on, the wrappers of the names in ``MEMORY_SPANS`` run their
call under ``tracemalloc`` and keep the highest traced peak; passes timed for
the metrics run with it off.
"""

import functools
import json
import sys
import time
import tracemalloc
from array import array

import numpy as np

# (module, attribute, span name); the span name's prefix up to the last
# component is the layer group used by the metrics.
TARGETS = (
    ("asymsqueeze.cli", "build_parser", "cli.parse"),
    ("asymsqueeze.cli", "_Parser.parse_args", "cli.parse"),
    ("asymsqueeze.cli", "_parse_axis", "cli.parse"),
    ("asymsqueeze.cli", "_cmd_negativity", "cli.loop"),
    ("asymsqueeze.cli", "_cmd_bell", "cli.loop"),
    ("asymsqueeze.cli", "_cmd_fidelity", "cli.loop"),
    ("asymsqueeze.cli", "_cmd_verify", "cli.loop"),
    ("asymsqueeze.cli", "_write_output", "cli.write"),
    ("asymsqueeze._kernels", "bell_values", "kernels.bell_values"),
    ("asymsqueeze._kernels", "teleport_integrand", "kernels.teleport_integrand"),
    ("asymsqueeze._kernels", "fock_series_table", "kernels.fock_series_table"),
    ("asymsqueeze.state", "coefficients", "state.coefficients"),
    ("asymsqueeze.state", "covariance", "state.covariance"),
    ("asymsqueeze.state", "fock_amplitudes", "state.fock_amplitudes"),
    ("asymsqueeze.gaussian", "CovarianceMatrix.__post_init__", "gaussian.validate"),
    ("asymsqueeze.gaussian", "log_negativity", "gaussian.log_negativity"),
    ("asymsqueeze.teleport", "fidelity_coherent_closed", "teleport.closed"),
    ("asymsqueeze.teleport", "fidelity_squeezed_closed", "teleport.closed"),
    ("asymsqueeze.teleport", "fidelity_difference", "teleport.closed"),
    ("asymsqueeze.teleport", "fidelity_quadrature", "teleport.quadrature"),
    ("asymsqueeze.bell", "maximize_bell", "bell.maximize"),
    ("asymsqueeze.fock", "build_state_exponential", "fock.build"),
    ("asymsqueeze.fock", "log_negativity_numeric", "fock.log_negativity"),
    ("asymsqueeze.fock", "wigner_numeric", "fock.phase_space"),
    ("asymsqueeze.fock", "cf_numeric", "fock.phase_space"),
    ("asymsqueeze.fock", "covariance_numeric", "fock.covariance"),
)

# fock.build spans carry the cutoff: fock.build.c30, fock.build.c40.
_SUFFIX = {"fock.build": lambda params, cutoff: f".c{int(cutoff)}"}

MEMORY_SPANS = ("cli.write", "fock.build.c40")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.pass_start = [0]
        self._stack = []
        self.memory = False
        self.peaks = {}

    def _name_index(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, span):
        suffix = _SUFFIX.get(span)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = span + suffix(*args, **kwargs) if suffix else span
            idx = len(tracer.start)
            tracer.name_id.append(tracer._name_index(name))
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.raised.append(1)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            measure = tracer.memory and name in MEMORY_SPANS
            if measure:
                tracemalloc.start()
            tracer.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
                tracer.raised[idx] = 0
                return result
            finally:
                tracer.end[idx] = time.perf_counter()
                tracer._stack.pop()
                if measure:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.peaks[name] = max(tracer.peaks.get(name, 0), peak)

        return traced

    def install(self):
        """Wrap every target wherever an ``asymsqueeze`` module refers to it."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "asymsqueeze"]
        for module_name, attr, span in TARGETS:
            owner = sys.modules[module_name]
            *outer, leaf = attr.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapped = self.wrap(original, span)
            setattr(owner, leaf, wrapped)
            if outer:
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def end_pass(self):
        self.pass_start.append(len(self.start))

    def pass_summary(self, k):
        """Self seconds, span count and raised count per span name for pass ``k``."""
        lo, hi = self.pass_start[k], self.pass_start[k + 1]
        names = np.frombuffer(self.name_id, dtype=np.int32)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi] - lo
        dur = np.frombuffer(self.end)[lo:hi] - np.frombuffer(self.start)[lo:hi]
        child = np.zeros(dur.size)
        inner = parent >= 0
        np.add.at(child, parent[inner], dur[inner])
        n = len(self.names)
        self_s = np.bincount(names, weights=dur - child, minlength=n)
        count = np.bincount(names, minlength=n)
        raised = np.bincount(names, weights=np.frombuffer(self.raised, dtype=np.int8)[lo:hi], minlength=n)
        return {
            name: (float(self_s[i]), int(count[i]), int(raised[i])) for i, name in enumerate(self.names)
        }

    def write(self, path, k):
        """Spans of pass ``k`` as JSON columns, times in ns from the pass start,
        parents as indices into the columns (-1: called by the benchmark)."""
        lo, hi = self.pass_start[k], self.pass_start[k + 1]
        t0 = self.start[lo] if hi > lo else 0.0
        ns = lambda ts: [round(1e9 * (t - t0)) for t in ts[lo:hi]]  # noqa: E731
        doc = {
            "names": self.names,
            "name": self.name_id[lo:hi].tolist(),
            "parent": [p - lo if p >= 0 else -1 for p in self.parent[lo:hi]],
            "start_ns": ns(self.start),
            "end_ns": ns(self.end),
            "raised": self.raised[lo:hi].tolist(),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))
