"""Command-line workbench.

Subcommands: ``c1`` (single-use quantities), ``sweep`` (figure-reproduction
tables), ``threshold`` (superadditivity onset), ``synthesize`` (decoder
unitary, factors, and gate network), ``gatecheck`` (pulse-sequence solve).

Exit status: 0 success, 2 usage, domain or output-path error, 3 verification
or search failure, 4 resource limit.

Each subcommand imports only the layers it uses: ``synthesis`` is loaded by
``synthesize``, ``cavityqed`` by ``gatecheck`` and ``json`` by ``--json``, so
the capacity commands start without them.
"""

import argparse
import functools
import math
import os
import sys
import tempfile

import numpy as np

from . import binary_channel, codebook as cb_mod, sqrm, sweep
from .exceptions import (
    DomainError,
    ResourceError,
    SearchFailureError,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3
EXIT_RESOURCE = 4

# Most points a --grid may hold; the paper's figure grids hold 1001.
MAX_GRID_POINTS = 1_000_000

# One row of the c1 table, 9 significant digits like the sweep CSV.
_C1_ROW = ",".join(["%.9g"] * 4) + "\n"


def _atomic_write(path, text):
    """Write through a temporary file beside ``path``; an ``OSError`` names ``path``."""
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".tmp-")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise type(exc)(exc.errno, exc.strerror, path) from exc
        raise


def _parse_grid(spec):
    try:
        start, end, step = (float(tok) for tok in spec.split(":"))
    except ValueError as exc:
        raise DomainError(f"bad grid spec {spec!r}, expected start:end:step") from exc
    if not (math.isfinite(start) and math.isfinite(end) and 0 < step < math.inf) or end < start:
        raise DomainError(f"bad grid spec {spec!r}")
    count = (end - start) / step
    if count + 1 > MAX_GRID_POINTS:
        raise ResourceError(f"grid {spec!r} has more than {MAX_GRID_POINTS} points")
    count = int(round(count))
    grid = [start + k * step for k in range(count + 1)]
    if grid[-1] > end + 1e-12:
        grid.pop()
    grid[-1] = min(grid[-1], end)
    return grid


def _emit(text, out):
    if out is None:
        sys.stdout.write(text)
    else:
        _atomic_write(out, text)


def _cmd_c1(args):
    kappa = binary_channel._check_kappa(
        [args.kappa] if args.kappa is not None else _parse_grid(args.grid)
    )
    columns = (
        kappa,
        binary_channel.crossover_probability(kappa),
        binary_channel.capacity_c1(kappa),
        binary_channel.holevo_limit(kappa),
    )
    rows = list(zip(*(c.tolist() for c in columns)))
    if args.json:
        import json

        lines = [
            json.dumps({"kappa": k, "p": p, "c1": c, "holevo": h})
            for k, p, c, h in rows
        ]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit("kappa,p,c1,holevo\n" + "".join(_C1_ROW % row for row in rows), args.out)
    return EXIT_OK


def _cmd_sweep(args):
    try:
        n_list = [int(tok) for tok in args.n.split(",")]
    except ValueError as exc:
        raise DomainError(f"bad --n {args.n!r}, expected comma-separated integers") from exc
    grid = _parse_grid(args.grid)
    rows = sweep.sweep_table(n_list, grid, codebook_choice=args.codebook)
    if args.json:
        import json

        _emit("\n".join(json.dumps(r._asdict()) for r in rows) + "\n", args.out)
    else:
        _emit(sweep.rows_to_csv(rows), args.out)
    return EXIT_OK


def _cmd_threshold(args):
    result = sweep.threshold_kappa(args.n, args.tol)
    if args.json:
        import json

        print(json.dumps(result._asdict()))
    else:
        print("none" if result.kappa_star is None else sweep._fmt(result.kappa_star))
    return EXIT_OK


def _cmd_synthesize(args):
    from . import synthesis

    if not 0.0 < args.kappa < 1.0:
        raise DomainError("synthesis requires 0 < kappa < 1")
    if args.n > synthesis.MAX_WIRES:
        raise ResourceError(
            f"the decoder's gate list grows as 4**n n, so synthesis is limited to"
            f" {synthesis.MAX_WIRES} wires; got n = {args.n}"
        )
    book = cb_mod.even_weight_codebook(args.n)
    v, d, factors, gates = synthesis.decoder_network(book, args.kappa)
    recomposed = synthesis.recompose(d, factors)
    if np.max(np.abs(recomposed - v)) > 1e-10:
        print("verification failed: two-level recomposition mismatch", file=sys.stderr)
        return EXIT_VERIFY
    simulated = synthesis.simulate_network(gates, args.n)
    if np.max(np.abs(simulated - v)) > 1e-9:
        print("verification failed: gate network does not match V", file=sys.stderr)
        return EXIT_VERIFY
    os.makedirs(args.out, exist_ok=True)
    row = " ".join(["%.17g"] * len(v)) + "\n"
    _atomic_write(os.path.join(args.out, "v.txt"), "".join(row % tuple(r) for r in v.tolist()))
    _atomic_write(
        os.path.join(args.out, "factors.txt"),
        "\n".join(f"{f.i} {f.j} {f.gamma:.17g}" for f in factors) + "\n",
    )
    _atomic_write(os.path.join(args.out, "network.txt"), synthesis.network_to_text(gates))
    # the even-weight channel is symmetric: every P(w|w) is 1 - P_e
    _, pe = sqrm.even_weight_summary(args.n, args.kappa)
    hit = sweep._fmt(1.0 - pe)
    print(f"P_e {sweep._fmt(pe)}")
    for w in book.words:
        print(f"P({w}|{w}) {hit}")
    return EXIT_OK


def _cmd_gatecheck(args):
    from . import cavityqed

    try:
        result = cavityqed.solve_sequence_params(args.g, args.delta, args.nu)
    except SearchFailureError as exc:
        best = exc.best
        print(f"search failure: {exc}", file=sys.stderr)
        if best is not None:
            print(best["params"].to_text(), end="")
            print(f"fidelity {best['fidelity']:.9g}")
            print(f"invariant_distance {best['invariant_distance']:.3e}")
        return EXIT_VERIFY
    print(result["params"].to_text(), end="")
    print(f"fidelity {result['fidelity']:.9g}")
    print(f"invariant_distance {result['invariant_distance']:.3e}")
    print(f"leakage {result['leakage']:.3e}")
    ok = (
        result["fidelity"] >= 0.999
        and result["invariant_distance"] < 1e-6
        and result["leakage"] < 1e-8
    )
    return EXIT_OK if ok else EXIT_VERIFY


@functools.lru_cache(maxsize=1)
def build_parser():
    parser = argparse.ArgumentParser(
        prog="srmchannel",
        description="Binary pure-state channel capacities, square-root-measurement "
        "decoding, and decoder synthesis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("c1", help="single-use channel quantities")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--kappa", type=float)
    group.add_argument("--grid", help="start:end:step")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_c1)

    p = sub.add_parser("sweep", help="figure-reproduction tables")
    p.add_argument("--n", required=True, help="comma-separated block lengths")
    p.add_argument("--grid", required=True, help="start:end:step")
    p.add_argument("--codebook", choices=("even", "alt"), default="even")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("threshold", help="superadditivity onset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("synthesize", help="decoder unitary and gate network")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("gatecheck", help="solve and verify the pulse sequence")
    p.add_argument("--g", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=5.0)
    p.add_argument("--nu", type=float, default=7.0)
    p.set_defaults(func=_cmd_gatecheck)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except SearchFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
