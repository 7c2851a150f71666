"""srmchannel benchmark: the CLI workloads of workloads.py, each pass in a
fresh interpreter.

    python3 srmbench/run.py --workload {sweep,threshold,decoder} [--seed N]
                            [--seconds T] [--trace {0,1}]

Run it from anywhere inside a source checkout; it uses the ``src/`` next to
this directory and needs nothing installed beyond numpy.  A fresh process
per pass is part of the workload: CLI users pay for cold module caches
(``sweep._even_book``, ``sqrm._COORD_CACHE``) on every call.

``--trace 0`` repeats untraced passes for ``--seconds`` (at least three)
and reports the end-to-end metrics of ``BENCHMARK.json``.  ``--trace 1``
alternates untraced passes with passes whose spans are recorded from
outside the program (spans.py) and reports the per-layer metrics.  Every
output is checked (check.py).  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
result, failures and run facts go to ``.bench_out/<workload>-seed<N>-trace<T>/``.
Exit status: 0 with a result, 2 when there is no source to benchmark, 3
when a pass could not be completed.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
MIN_PASSES = 3
MIN_SETUPS = 15
TIME_LIMIT = 170.0  # seconds for the whole run, which must end within 180
# One BLAS thread keeps the timings steady; every matrix here is at most 64 x 64.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """A pass could not be run to the end; the run reports no result."""


def facts():
    """Machine and source facts recorded with every result."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    digest, lines = hashlib.sha256(), 0
    for directory, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(directory, name), "rb") as fh:
                    data = fh.read()
                digest.update(os.path.relpath(os.path.join(directory, name), SRC).encode())
                digest.update(data)
                lines += data.count(b"\n")
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": BLAS_ENV,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def _outputs_of(label, pass_dir):
    """Output files of one invocation, relative path -> bytes."""
    out = {}
    for directory, _, files in os.walk(pass_dir):
        for name in files:
            path = os.path.join(directory, name)
            rel = os.path.relpath(path, pass_dir).replace(os.sep, "/")
            if rel == f"{label}.csv" or rel.startswith(f"{label}/"):
                with open(path, "rb") as fh:
                    out[rel] = fh.read()
    return out


class Run:
    def __init__(self, workload, seed, trace):
        import check  # imports srmchannel, so only once src/ is on the path

        self.check = check
        self.workload, self.seed = workload, seed
        self.invocations = workloads.invocations(workload, seed)
        self.reference = check.Reference(os.path.join(HERE, "reference"))
        self.dir = os.path.join(ROOT, ".bench_out", f"{workload}-seed{seed}-trace{trace}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.start = time.monotonic()
        self.passes = 0
        self.attempted = self.failed = self.passed = 0
        self.failures = {}   # label -> {"outcome", "count", "known"}
        self.problems = {}   # label -> problem messages
        self.verdicts = {}   # output digests -> Verdict
        self.reference_counts = None  # (compared, identical) in the first pass

    def spawn(self, mode):
        """Run one worker pass in a fresh interpreter and check its outputs."""
        pass_dir = os.path.join(self.dir, f"pass{self.passes}")
        self.passes += 1
        os.makedirs(pass_dir)
        env = dict(os.environ, **BLAS_ENV)
        t_spawn = time.monotonic()
        with open(os.path.join(pass_dir, "worker.log"), "w") as log, subprocess.Popen(
                [sys.executable, WORKER, ROOT, pass_dir, repr(t_spawn), self.workload,
                 str(self.seed), mode],
                stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT) as proc:
            try:
                code = proc.wait(timeout=max(1.0, self.start + TIME_LIMIT - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise BenchError(f"{mode} pass ran past the {TIME_LIMIT:g} s limit") from None
        if code != 0:
            with open(os.path.join(pass_dir, "worker.log")) as log:
                raise BenchError(f"{mode} worker exited {code}:\n{log.read()[-2000:]}")
        with open(os.path.join(pass_dir, "pass.json")) as fh:
            result = json.load(fh)
        if mode != "setup":
            self.evaluate(result, pass_dir)
        spans = os.path.join(pass_dir, "spans.jsonl")
        if os.path.exists(spans) and not os.path.exists(os.path.join(self.dir, "spans.jsonl")):
            os.replace(spans, os.path.join(self.dir, "spans.jsonl"))
        shutil.rmtree(pass_dir)
        return result

    def evaluate(self, result, pass_dir):
        compared = identical = 0
        result["outputs"] = {}
        for inv, record in zip(self.invocations, result["invocations"]):
            label = inv["label"]
            files = _outputs_of(label, pass_dir)
            key = (label, record["exit"], record["exception"],
                   self.check.sha256(record["stdout"].encode()),
                   tuple(sorted((name, self.check.sha256(data)) for name, data in files.items())))
            result["outputs"][label] = key
            self.attempted += 1
            if record["exception"] is not None or record["exit"] != 0:
                self.failed += 1
                outcome = record["exception"] or f"exit {record['exit']}"
                entry = self.failures.setdefault(label, {
                    "argv": inv["argv"], "outcome": outcome, "count": 0,
                    "known": workloads.KNOWN_FAILURES.get(label) == outcome,
                    "detail": (record["traceback"] or record["stderr"]).strip()[-600:]})
                entry["count"] += 1
                continue
            if key not in self.verdicts:
                self.verdicts[key] = self.check.check(inv, record, files, self.reference)
            verdict = self.verdicts[key]
            compared += verdict.compared
            identical += verdict.identical
            if verdict.problems:
                self.problems[label] = verdict.problems
            else:
                self.passed += 1
        if self.reference_counts is None:
            self.reference_counts = (compared, identical)

    def running(self, seconds):
        return time.monotonic() - self.start < seconds

    def end_to_end(self, seconds):
        # Set-up-only starts go between passes, so that set-up is sampled
        # across the whole run like the passes are.
        passes, setups = [], []
        while len(passes) < MIN_PASSES or self.running(seconds):
            passes.append(self.spawn("run"))
            setups.append(passes[-1]["setup"]["setup_s"])
            if len(setups) < MIN_SETUPS:
                setups.append(self.spawn("setup")["setup"]["setup_s"])
        while len(setups) < MIN_SETUPS:
            setups.append(self.spawn("setup")["setup"]["setup_s"])
        flags = []
        if any(p["outputs"] != passes[0]["outputs"] for p in passes):
            flags.append("outputs differ between passes of the same inputs")
        values = {
            "job_s": statistics.median(p["job_s"] for p in passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "outputs_ok": self.passed / self.attempted,
            "exit_ok_frac": (self.attempted - self.failed) / self.attempted,
        }
        raw = {"job_s": [p["job_s"] for p in passes], "setup_s": setups,
               "peak_rss_mb": [p["peak_rss_mb"] for p in passes]}
        return values, flags, raw

    def per_layer(self, seconds, spec):
        untraced, traced = [], []
        while len(traced) < 2 or self.running(seconds):
            if len(untraced) <= len(traced):
                untraced.append(self.spawn("run"))
            else:
                traced.append(self.spawn("trace"))
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        flags = []
        layers = {}
        repeat = True
        for name, unit in units.items():
            if name not in traced[0]["layers"]:
                continue
            seen = [p["layers"][name] for p in traced]
            if unit == "s":
                layers[name] = statistics.median(seen)
            else:
                layers[name] = seen[0]
                if len(set(seen)) > 1:
                    repeat = False
                    flags.append(f"{name} differs between traced passes: {seen}")
        for name, want in workloads.SEED_COUNTS.items():
            got = layers.get(name, 0)
            if got and got != want:
                flags.append(f"{name} = {got}, seed commit gave {want}")
        everyone = untraced + traced
        for key in untraced[0]["setup"]:
            if key.startswith("setup."):
                layers[key] = statistics.median(p["setup"][key] for p in everyone)
        baseline = untraced[0]["outputs"]
        same = sum(all(p["outputs"][label] == key for p in traced)
                   for label, key in baseline.items())
        if same != len(baseline):
            flags.append("outputs differ with tracing on and off")
        layers["trace.outputs_identical"] = same / len(baseline)
        layers["trace.counts_repeat"] = int(repeat)
        layers["trace.overhead_s"] = (statistics.median(p["job_s"] for p in traced)
                                      - statistics.median(p["job_s"] for p in untraced))
        layers["check.identical_to_reference"] = self.reference_counts[1]
        raw = {"traced_job_s": [p["job_s"] for p in traced],
               "untraced_job_s": [p["job_s"] for p in untraced]}
        return layers, flags, raw


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "srmchannel", "cli.py")) or not os.path.isfile(spec_path):
        print(f"error: {ROOT} lacks src/srmchannel or BENCHMARK.json; nothing to benchmark",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(spec_path) as fh:
        spec = json.load(fh)

    run = Run(args.workload, args.seed, args.trace)
    try:
        if args.trace:
            values, flags, raw = run.per_layer(args.seconds, spec)
            wanted = spec["per_layer"]
        else:
            values, flags, raw = run.end_to_end(args.seconds)
            wanted = spec["end_to_end"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 3
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": not run.problems, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    compared, identical = run.reference_counts
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "facts": facts(), **result,
        "failures": run.failures, "problems": run.problems, "flags": flags,
        "reference_outputs": {"compared": compared, "identical": identical},
        "raw": raw,
    }
    with open(os.path.join(run.dir, "result.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}")
    print(f"{'failed_frac':40s} {run.failed / run.attempted:.6g} ratio")
    print(f"reference outputs byte-identical: {identical} of {compared} in the first pass")
    for entry in run.failures.values():
        known = "known failure" if entry["known"] else "UNEXPECTED failure"
        print(f"{known}: {' '.join(entry['argv'])}: {entry['outcome']} ({entry['count']}x)")
    for label, problems in run.problems.items():
        for problem in problems:
            print(f"WRONG OUTPUT {label}: {problem}")
    for flag in flags:
        print(f"flag: {flag}")
    print(f"facts: {json.dumps(record['facts'])}")
    print(f"details: {os.path.relpath(run.dir, ROOT)}/result.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
