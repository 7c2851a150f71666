"""One workload pass in a fresh interpreter; run.py starts one per pass.

    python3 worker.py ROOT PASS_DIR T_SPAWN WORKLOAD SEED MODE

MODE is ``setup`` (import and build the parser, then stop), ``run`` (also
run the workload) or ``trace`` (run it with spans recorded).  ``T_SPAWN`` is
the parent's ``time.monotonic()`` just before it started this process, so
set-up time counts the interpreter's own start.  The pass is written to
``PASS_DIR/pass.json``.
"""

import time

T_START = time.monotonic()

import os  # noqa: E402
import sys  # noqa: E402


def invoke(cli, argv):
    """Run ``cli.main(argv)`` with output captured; never raises."""
    import contextlib
    import io
    import traceback

    out, err = io.StringIO(), io.StringIO()
    exit_code, exception, tb = None, None, None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            exit_code = cli.main(argv)
    except Exception as exc:  # the harness records every failure and carries on
        exception = type(exc).__name__
        tb = traceback.format_exc(limit=-3)
    return {"exit": exit_code, "exception": exception, "traceback": tb,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def main():
    root, pass_dir, t_spawn, workload, seed, mode = sys.argv[1:7]
    import numpy  # noqa: F401  (timed on its own: most of set-up)

    t_numpy = time.monotonic()
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    from srmchannel import cli

    t_import = time.monotonic()
    cli.build_parser()
    t_ready = time.monotonic()
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.exit(f"srmchannel was imported from {cli.__file__}, not from {src}")

    import json
    import resource

    import workloads

    result = {"setup": {
        "setup_s": t_ready - float(t_spawn),
        "setup.interpreter_s": T_START - float(t_spawn),
        "setup.numpy_import_s": t_numpy - T_START,
        "setup.srmchannel_import_s": t_import - t_numpy,
        "setup.parser_s": t_ready - t_import,
    }}
    if mode != "setup":
        recorder = None
        if mode == "trace":
            import spans

            recorder = spans.Recorder()
            recorder.install()
        records = []
        t0 = time.perf_counter()
        for run_id, inv in enumerate(workloads.invocations(workload, int(seed))):
            if recorder is not None:
                recorder.run_id = run_id
            t = time.perf_counter()
            record = invoke(cli, [a.replace("{out}", pass_dir) for a in inv["argv"]])
            record["wall_s"] = time.perf_counter() - t
            record["label"] = inv["label"]
            records.append(record)
        result["job_s"] = time.perf_counter() - t0
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        result["invocations"] = records
        if recorder is not None:
            recorder.uninstall()
            recorder.write_jsonl(os.path.join(pass_dir, "spans.jsonl"),
                                 [r["label"] for r in records])
            result["layers"] = recorder.metrics([r["label"] for r in records])
    with open(os.path.join(pass_dir, "pass.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
