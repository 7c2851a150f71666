"""Spans taken from outside the program.

``Recorder.install`` replaces every public function of the traced
``srmchannel`` modules with a wrapper that records a span
``[name, start, end, parent, run]`` in memory.  Callers inside the package
look these functions up as module attributes, so nested calls are traced
too.  Probes read counts and health values from arguments and return values
after the span has closed.  ``metrics`` turns the spans into the per-layer
metrics; ``write_jsonl`` writes the spans out at the end of the pass.
"""

import importlib
import inspect
import json
import time
from collections import defaultdict

import numpy as np

import workloads

MODULES = ("binary_channel", "codebook", "sqrm", "sweep", "synthesis", "cavityqed", "cli")

# binary_channel.{calls,s} cover these three; s counts only their outermost spans.
BINARY_CHANNEL = ("binary_channel.capacity_c1", "binary_channel.crossover_probability",
                  "binary_channel.holevo_limit")


def _fwht(rec, args, result):
    m = len(result)
    rec.values["sqrm.fwht.butterflies"] += m // 2 * (m.bit_length() - 1)


def _eigenvalues(rec, eigenvalues):
    rec.lowest("sqrm.min_eigenvalue", float(eigenvalues.min()))
    rec.values["sqrm.eig_clipped"] += int(np.count_nonzero(eigenvalues < 0.0))


def _xor_fast_path(rec, args, result):
    eigenvalues, first_row = result
    _eigenvalues(rec, eigenvalues)
    rec.highest("sqrm.norm_defect_max", abs(float(first_row @ first_row) - 1.0))


def _principal_sqrt(rec, args, result):
    _eigenvalues(rec, np.linalg.eigvalsh(np.asarray(args[0], dtype=float)))
    defect = np.max(np.abs((result**2).sum(axis=0) - 1.0))
    rec.highest("sqrm.norm_defect_max", float(defect))


def _decoder_network(rec, args, result):
    v, _, factors, gates = result
    rec.v = v
    rec.per_run[rec.run_id]["gates"] += len(gates)
    rec.per_run[rec.run_id]["factors"] += len(factors)


def _recompose(rec, args, result):
    rec.highest("synthesis.recompose_err", float(np.max(np.abs(result - rec.v))))


def _simulate_network(rec, args, result):
    gates, n = args[:2]
    rec.values["synthesis.simulate_network.flops"] += len(gates) * 2 * (2**n) ** 3
    rec.highest("synthesis.sim_err", float(np.max(np.abs(result - rec.v))))


def _solve_sequence_params(rec, args, result):
    rec.values["cavityqed.solves"] += 1
    rec.lowest("cavityqed.fidelity", result["fidelity"])
    rec.highest("cavityqed.invariant_distance_value", result["invariant_distance"])
    rec.highest("cavityqed.leakage", result["leakage"])


PROBES = {
    "sqrm.fwht": _fwht,
    "sqrm.xor_fast_path": _xor_fast_path,
    "sqrm.principal_sqrt": _principal_sqrt,
    "synthesis.decoder_network": _decoder_network,
    "synthesis.recompose": _recompose,
    "synthesis.simulate_network": _simulate_network,
    "cavityqed.solve_sequence_params": _solve_sequence_params,
}

# Health values a workload never reaches are reported as 0.
HEALTH_LOW = ("sqrm.min_eigenvalue", "cavityqed.fidelity")
HEALTH_HIGH = ("sqrm.norm_defect_max", "synthesis.recompose_err", "synthesis.sim_err",
               "cavityqed.invariant_distance_value", "cavityqed.leakage")


class Recorder:
    def __init__(self):
        self.spans = []
        self.run_id = -1
        self.values = defaultdict(int)
        self.per_run = defaultdict(lambda: defaultdict(int))
        self.v = None
        self._stack = []
        self._patched = []

    def lowest(self, key, value):
        self.values[key] = min(self.values.get(key, value), value)

    def highest(self, key, value):
        self.values[key] = max(self.values.get(key, value), value)

    def _wrap(self, name, fn):
        spans, stack, probe = self.spans, self._stack, PROBES.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if probe is not None:
                probe(self, args, result)
            return result

        return traced

    def install(self):
        """Wrap the public functions defined in each traced module."""
        for short in MODULES:
            module = importlib.import_module(f"srmchannel.{short}")
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                self._patched.append((module, attr, fn))
                setattr(module, attr, self._wrap(f"{short}.{attr}", fn))

    def uninstall(self):
        for module, attr, fn in self._patched:
            setattr(module, attr, fn)

    def metrics(self, labels):
        """Per-layer metrics of the pass; ``labels[run]`` names each run."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for module, attr, _ in self._patched:
            name = f"{module.__name__.split('.')[-1]}.{attr}"
            out.update({f"{name}.calls": 0, f"{name}.s": 0.0, f"{name}.self_s": 0.0})
        calls_by_run = defaultdict(lambda: defaultdict(int))
        bc_s = 0.0
        for i, (name, start, end, parent, run) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - child[i]
            calls_by_run[run][name] += 1
            if name in BINARY_CHANNEL and (parent < 0 or self.spans[parent][0] not in BINARY_CHANNEL):
                bc_s += end - start
        out["binary_channel.calls"] = sum(out[f"{name}.calls"] for name in BINARY_CHANNEL)
        out["binary_channel.s"] = bc_s
        for key in ("sqrm.fwht.butterflies", "sqrm.eig_clipped",
                    "synthesis.simulate_network.flops", *HEALTH_LOW, *HEALTH_HIGH):
            out[key] = self.values.get(key, 0.0)
        solves = self.values["cavityqed.solves"]
        evals = out["cavityqed.sw_gate_sequence.calls"]
        out["cavityqed.useful_ratio"] = solves / evals if evals else 0.0
        out["cavityqed.evals_per_solve"] = evals / solves if solves else 0.0
        run_of = {label: run for run, label in enumerate(labels)}
        for n in workloads.THRESHOLD_NS:
            run = run_of.get(f"threshold-n{n}")
            out[f"sweep.margin_evals.n{n}"] = calls_by_run[run]["sweep.superadditivity_margin"]
        for n, kappa in workloads.SYNTHESIZE:
            if kappa == "0.8":
                run = run_of.get(f"synthesize-n{n}")
                out[f"synthesis.gates.n{n}"] = self.per_run[run]["gates"]
                out[f"synthesis.factors.n{n}"] = self.per_run[run]["factors"]
        out["trace.spans"] = len(self.spans)
        return out

    def write_jsonl(self, path, labels):
        with open(path, "w") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run, "label": labels[run]}))
                fh.write("\n")
