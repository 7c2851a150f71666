"""The CLI invocations that make up each benchmark workload.

Each workload is a list of invocations of ``srmchannel.cli.main(argv)``.
``{out}`` in an argument stands for the pass's output directory.

- ``sweep``: the two figure tables, thousands of small problems (M <= 4096),
  so per-point overhead in ``sweep``, ``binary_channel`` and CSV output
  dominates.  The seed scales each grid's last point down by up to one step;
  the number of points and every block length stay fixed, and seed 0 gives
  the paper's grids exactly.
- ``threshold``: three threshold searches, a few large problems (205 margin
  evaluations at n = 16 on 2**15-long vectors) dominated by the FWHT fast
  path.  Independent of the seed: the search has no free input.
- ``decoder``: decoder synthesis at n = 3..6 and the pulse-sequence solve,
  where ``synthesis`` and ``cavityqed`` do nearly all the work.  Independent
  of the seed, because the gate count at n = 6 changes with kappa and so
  would the problem size.  ``synthesize --n 4 --kappa 0.99`` is a known
  failure of the program and stays in the workload.
"""

import random

WORKLOADS = ("sweep", "threshold", "decoder")

# label, block lengths, first point, last point, step, the paper's grid spec
SWEEP_TABLES = (
    ("sweep-n3", "3", 0.0, 1.0, 0.001, "0:1:0.001"),
    ("sweep-n5-13", "5,7,9,11,13", 0.5, 0.99, 0.005, "0.5:0.99:0.005"),
)
THRESHOLD_NS = (3, 13, 16)
SYNTHESIZE = ((3, "0.8"), (4, "0.8"), (5, "0.8"), (6, "0.8"), (4, "0.99"))
GATECHECKS = (
    ("gatecheck-default", []),
    ("gatecheck-g2", ["--g", "2", "--delta", "8", "--nu", "5"]),
)

# Invocations that fail at the seed commit, with the exception they raise.
# Classical Gram-Schmidt loses orthogonality near kappa -> 1 and
# build_decoding_unitary raises.  They are counted as failures, not skipped.
KNOWN_FAILURES = {"synthesize-n4-k0.99": "ConsistencyError"}

# Exact counts at the seed commit; a differing count is flagged, not failed.
SEED_COUNTS = {
    "sweep.margin_evals.n16": 205,
    "cavityqed.evals_per_solve": 2002,
    "synthesis.gates.n3": 90,
    "synthesis.gates.n5": 4407,
}


def grid(start, end, step, spec, seed):
    """Grid spec and its points for ``seed``; seed 0 keeps ``spec`` itself."""
    count = int(round((end - start) / step)) + 1
    if seed == 0:
        return spec, [start + k * step for k in range(count)]
    last = end - random.Random(seed).random() * step
    step = (last - start) / (count - 1)
    return f"{start!r}:{last!r}:{step!r}", [start + k * step for k in range(count)]


def invocations(workload, seed):
    """List of dicts with ``label``, ``kind``, ``argv`` and kind-specific inputs."""
    if workload == "sweep":
        out = []
        for label, ns, start, end, step, spec in SWEEP_TABLES:
            spec, points = grid(start, end, step, spec, seed)
            out.append({
                "label": label, "kind": "sweep",
                "argv": ["sweep", "--n", ns, "--grid", spec, "--out", f"{{out}}/{label}.csv"],
                "n": [int(n) for n in ns.split(",")], "kappa": points,
            })
        return out
    if workload == "threshold":
        return [
            {"label": f"threshold-n{n}", "kind": "threshold", "n": n,
             "argv": ["threshold", "--n", str(n), "--tol", "1e-4"]}
            for n in THRESHOLD_NS
        ]
    if workload == "decoder":
        out = []
        for n, kappa in SYNTHESIZE:
            label = f"synthesize-n{n}" + ("" if kappa == "0.8" else f"-k{kappa}")
            out.append({
                "label": label, "kind": "synthesize", "n": n, "kappa": float(kappa),
                "argv": ["synthesize", "--n", str(n), "--kappa", kappa,
                         "--out", f"{{out}}/{label}"],
            })
        for label, extra in GATECHECKS:
            out.append({"label": label, "kind": "gatecheck", "argv": ["gatecheck", *extra]})
        return out
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
