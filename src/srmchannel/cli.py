"""Command-line workbench.

Subcommands: ``c1`` (single-use quantities), ``sweep`` (figure-reproduction
tables), ``threshold`` (superadditivity onset), ``synthesize`` (the
Gram-Schmidt decoding unitary ``v.txt`` and the structured Fourier gate
network ``network.txt``, checked against the SRM vectors), ``gatecheck``
(pulse-sequence solve).

Exit status: 0 success, 2 usage, domain or output-path error, 3 verification
failure (``synthesize`` and ``gatecheck`` check their own results and write
one ``verification failed:`` line), 4 resource limit.

Each subcommand imports only the layers it uses: ``synthesis`` is loaded by
``synthesize``, ``cavityqed`` by ``gatecheck`` and ``json`` by ``--json``, so
the capacity commands start without them.
"""

import argparse
import errno
import functools
import itertools
import math
import os
import stat
import sys

import numpy as np

from . import binary_channel, codebook as cb_mod, sqrm, sweep
from .exceptions import DomainError, ResourceError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3
EXIT_RESOURCE = 4

# Most rows a --grid may give (points x block lengths); figure grids hold 1001 points.
MAX_GRID_POINTS = 1_000_000

# The c1 table's columns (CSV header and --json keys); a row in the sweep's field format.
_C1_COLUMNS = ("kappa", "p", "c1", "holevo")
_C1_ROW = ",".join([sweep._FIELD] * len(_C1_COLUMNS)) + "\n"
# Most rows c1 and sweep compute and render at once.  sweep --n 20 at the row cap peaks
# at 49 MB (2048 rows: 46 MB; 65536: 113 MB and about 25 % slower), and each figure
# table fits in one chunk.
_CHUNK_ROWS = 8192


def _atomic_write(path, pieces):
    """Write the text ``pieces`` to a temporary file renamed onto ``path`` once complete.
    As ``open(path, "w")`` does, write through a symlink, refuse a directory or a path with
    no file name (before any piece is taken), let the kernel apply the umask to a new file
    and keep a replaced file's mode.  An ``OSError`` names ``path``."""
    try:
        target = os.path.realpath(path) if os.path.islink(path) else path
        if not os.path.basename(target) or os.path.isdir(target):
            code = errno.EISDIR if target else errno.ENOENT
            raise OSError(code, os.strerror(code))
        tmp = os.path.join(os.path.dirname(target), ".tmp-" + os.urandom(8).hex())
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w") as fh:
                try:
                    os.fchmod(fd, stat.S_IMODE(os.stat(target).st_mode))
                except FileNotFoundError:
                    pass
                fh.writelines(pieces)
            os.replace(tmp, target)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        if exc.errno is not None:
            raise type(exc)(exc.errno, exc.strerror, path) from exc
        raise


def _parse_grid(spec, blocks=1):
    try:
        start, end, step = (float(tok) for tok in spec.split(":"))
    except ValueError as exc:
        raise DomainError(f"bad grid spec {spec!r}, expected start:end:step") from exc
    if not (math.isfinite(start) and math.isfinite(end) and 0 < step < math.inf) or end < start:
        raise DomainError(f"bad grid spec {spec!r}")
    count = (end - start) / step
    if (count + 1) * blocks > MAX_GRID_POINTS:
        what = "points" if blocks == 1 else f"rows at {blocks} block lengths"
        raise ResourceError(f"grid {spec!r} has more than {MAX_GRID_POINTS} {what}")
    grid = start + np.arange(int(round(count)) + 1) * step
    if grid[-1] > end + 1e-12:
        grid = grid[:-1]
    grid[-1] = min(grid[-1], end)
    return grid


def _write_table(args, columns, render, chunks):
    """Write each list of rows in ``chunks`` as it comes: ``render(rows)`` under one
    CSV header, or one ``--json`` object per row keyed by ``columns``."""
    if args.json:
        import json

        pieces = (
            "".join(json.dumps(dict(zip(columns, r))) + "\n" for r in rows) for rows in chunks
        )
    else:
        pieces = itertools.chain([",".join(columns) + "\n"], map(render, chunks))
    if args.out is None:
        sys.stdout.writelines(pieces)
    else:
        _atomic_write(args.out, pieces)


def _cmd_c1(args):
    bc = binary_channel
    kappa = bc._check_kappa(_parse_grid(args.grid) if args.kappa is None else [args.kappa])
    quantities = (bc.crossover_probability, bc.capacity_c1, bc.holevo_limit)
    split = (kappa[i : i + _CHUNK_ROWS] for i in range(0, len(kappa), _CHUNK_ROWS))
    chunks = (list(zip(k.tolist(), *(f(k).tolist() for f in quantities))) for k in split)
    _write_table(args, _C1_COLUMNS, lambda rows: "".join(_C1_ROW % r for r in rows), chunks)
    return EXIT_OK


def _cmd_sweep(args):
    try:
        n_list = [int(tok) for tok in args.n.split(",")]
    except ValueError as exc:
        raise DomainError(f"bad --n {args.n!r}, expected comma-separated integers") from exc
    grid = _parse_grid(args.grid, len(n_list))
    for n in n_list:  # sweep_table's checks, in its order, of every n and the whole grid
        sweep._check_block(n, args.codebook)
    binary_channel._check_kappa(grid)
    per_call = max(1, _CHUNK_ROWS // len(grid))  # block lengths whose rows share one chunk
    groups = [n_list[i : i + per_call] for i in range(0, len(n_list), per_call)]
    split = [grid[j : j + _CHUNK_ROWS] for j in range(0, len(grid), _CHUNK_ROWS)]
    chunks = (sweep.sweep_table(ns, k, args.codebook) for ns in groups for k in split)
    _write_table(args, sweep.SweepRow._fields, sweep.rows_to_csv, chunks)
    return EXIT_OK


def _cmd_threshold(args):
    result = sweep.threshold_kappa(args.n, args.tol)
    if args.json:
        import json

        print(json.dumps(result._asdict()))
    else:
        print("none" if result.kappa_star is None else sweep._FIELD % result.kappa_star)
    return EXIT_OK


def _cmd_synthesize(args):
    from . import synthesis

    if not 0.0 < args.kappa < 1.0:
        raise DomainError("synthesis requires 0 < kappa < 1")
    # first, so its width and block-length checks come before any other work
    gates = synthesis.fourier_network(args.n, args.kappa)
    # then the refusal os.makedirs gives an --out that exists and is no directory
    if os.path.lexists(args.out.rstrip(os.sep)) and not os.path.isdir(args.out):
        raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), args.out)
    book = cb_mod.even_weight_codebook(args.n)
    mu = synthesis.srm_vectors(book, args.kappa)
    v = synthesis.gram_schmidt_completion(mu, book, args.kappa).T
    # the network must carry each SRM vector mu_j onto +-|j>
    readout = synthesis.apply_network(gates, mu)[: len(book)]
    if np.max(np.abs(np.abs(readout) - np.eye(len(book)))) > 1e-9:
        print("verification failed: gate network does not reproduce the SRM", file=sys.stderr)
        return EXIT_VERIFY
    os.makedirs(args.out, exist_ok=True)
    row = " ".join(["%.17g"] * len(v)) + "\n"
    _atomic_write(os.path.join(args.out, "v.txt"), ["".join(row % tuple(r) for r in v.tolist())])
    _atomic_write(os.path.join(args.out, "network.txt"), [synthesis.network_to_text(gates)])
    # the even-weight channel is symmetric: every P(w|w) is 1 - P_e
    _, pe = sqrm.even_weight_summary(args.n, args.kappa)
    hit = sweep._FIELD % (1.0 - pe)
    print(f"P_e {sweep._FIELD % pe}")
    for w in book.words:
        print(f"P({w}|{w}) {hit}")
    return EXIT_OK


def _cmd_gatecheck(args):
    from . import cavityqed

    result = cavityqed.solve_sequence_params(args.g, args.delta, args.nu)
    print(result["params"].to_text(), end="")
    print(f"fidelity {sweep._FIELD % result['fidelity']}")
    print(f"invariant_distance {result['invariant_distance']:.3e}")
    print(f"leakage {result['leakage']:.3e}")
    checks = (
        ("fidelity below 0.999", result["fidelity"] >= 0.999),
        ("invariant distance not below 1e-6", result["invariant_distance"] < 1e-6),
        ("leakage not below 1e-8", result["leakage"] < 1e-8),
    )
    failed = [bound for bound, ok in checks if not ok]
    if failed:
        print(f"verification failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


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
    p.add_argument("--codebook", choices=sweep._CODEBOOKS, default="even")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("threshold", help="superadditivity onset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("synthesize", help="decoder basis and structured gate network")
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


if __name__ == "__main__":
    sys.exit(main())
