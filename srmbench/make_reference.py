"""Write the reference outputs in ``reference/`` from the current source.

    python3 srmbench/make_reference.py

Run it at the commit whose outputs are the reference (the references in the
repository were made at the seed commit).  It runs every workload's seed-0
invocations in this process and stores, per invocation, the arguments, exit
code or exception, stdout and the SHA-256 of each output file; the sweep
CSVs are stored whole, and each threshold also records its bracket width
from ``--json``.
"""

import json
import os
import shutil
import sys

from run import HERE, ROOT, SRC, facts

sys.path.insert(0, SRC)

import check  # noqa: E402
import workloads  # noqa: E402
from srmchannel import cli  # noqa: E402
from worker import invoke  # noqa: E402


def main():
    target = os.path.join(HERE, "reference")
    scratch = os.path.join(ROOT, ".bench_out", "make-reference")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    os.makedirs(target, exist_ok=True)
    entries = {}
    for workload in workloads.WORKLOADS:
        for inv in workloads.invocations(workload, 0):
            label = inv["label"]
            record = invoke(cli, [a.replace("{out}", scratch) for a in inv["argv"]])
            entry = {"argv": inv["argv"], "exit": record["exit"],
                     "exception": record["exception"], "stdout": record["stdout"], "files": {}}
            for directory, _, files in os.walk(scratch):
                for name in sorted(files):
                    path = os.path.join(directory, name)
                    rel = os.path.relpath(path, scratch).replace(os.sep, "/")
                    if rel == f"{label}.csv" or rel.startswith(f"{label}/"):
                        with open(path, "rb") as fh:
                            entry["files"][rel] = check.sha256(fh.read())
            if inv["kind"] == "sweep":
                shutil.copyfile(os.path.join(scratch, f"{label}.csv"),
                                os.path.join(target, f"{label}.csv"))
            if inv["kind"] == "threshold":
                found = json.loads(invoke(cli, inv["argv"] + ["--json"])["stdout"])
                entry["kappa_star"] = found["kappa_star"]
                entry["bracket_width"] = found["bracket_width"]
            entries[label] = entry
            print(f"{label}: exit {record['exit']} {record['exception'] or ''}", file=sys.stderr)
    source = {k: v for k, v in facts().items() if k in ("git_commit", "src_sha256", "src_lines")}
    with open(os.path.join(target, "outputs.json"), "w") as fh:
        json.dump({"source": source, "invocations": entries}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    shutil.rmtree(scratch)


if __name__ == "__main__":
    main()
