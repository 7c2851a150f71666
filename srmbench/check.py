"""Output checks for every benchmark invocation.

Each output is checked two ways where it can be:

- against the reference outputs in ``reference/``, made by
  ``make_reference.py`` at the seed commit (numbers within 1e-9 relative or
  1e-12 absolute; a threshold within its reference bracket width), when the
  invocation's arguments equal the reference's;
- against routes that do not use the program's own: closed forms for the
  single-letter quantities, the even-weight code's weight-class spectrum for
  the block SRM, ``sqrm.i3_closed_form`` for n = 3, and the gate network
  applied to the codeword states by this module.

A 9-significant-digit field carries up to 5e-9 relative rounding, so the
independent routes allow 1e-8 relative or 1e-11 absolute.  Byte identity
with the reference is counted, not required.
"""

import functools
import hashlib
import json
import math
import os

import numpy as np

from srmchannel import sqrm

REF_REL, REF_ABS = 1e-9, 1e-12
IND_REL, IND_ABS = 1e-8, 1e-11
PROB_ABS = 1e-8  # conditional probabilities from V or from the gate network
CSV_HEADER = "n,kappa,c1,per_letter_info,margin,pe_block,p_single,holevo"
MAX_PROBLEMS = 5


def close(value, expected, rel, abs_):
    return abs(value - expected) <= max(rel * abs(expected), abs_)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


# ---- independent routes -------------------------------------------------

def binary_entropy(p):
    return 0.0 if p in (0.0, 1.0) else -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def single_letter(kappa):
    """(c1, crossover p, Holevo limit) from their closed forms."""
    p = 0.5 * (1.0 - math.sqrt(max(0.0, 1.0 - kappa * kappa)))
    return 1.0 - binary_entropy(p), p, binary_entropy(0.5 * (1.0 + kappa))


@functools.lru_cache(maxsize=None)
def _krawtchouk(n):
    return [[sum((-1) ** j * math.comb(w, j) * math.comb(n - w, k - j)
                 for j in range(min(w, k) + 1)) for w in range(n + 1)]
            for k in range(n + 1)]


def even_weight_srm(n, kappa):
    """SRM decoding of the length-n even-weight code, without the program.

    The Gram spectrum depends only on the weight k of the character,
    ``lambda_k = ((1+kappa)^(n-k) (1-kappa)^k + (1-kappa)^(n-k) (1+kappa)^k) / 2``,
    so the principal root's row through the zero word is a Krawtchouk sum.
    Returns ``(q, info)``: ``q[w]`` is P(j|i) for codewords at (even)
    distance w, and ``info`` the mutual information in bits.
    """
    table = _krawtchouk(n)
    a, b = 1.0 + kappa, 1.0 - kappa
    roots = [math.sqrt(0.5 * (a ** (n - k) * b ** k + b ** (n - k) * a ** k))
             for k in range(n + 1)]
    q, info = {}, n - 1.0
    for w in range(0, n + 1, 2):
        x = sum(roots[k] * table[k][w] for k in range(n + 1)) / 2**n
        q[w] = x * x
        if q[w] > 0.0:
            info += math.comb(n, w) * q[w] * math.log2(q[w])
    return q, info


def margin(n, kappa):
    c1 = single_letter(kappa)[0]
    return even_weight_srm(n, kappa)[1] / n - c1


def even_words(n):
    return [format(v, f"0{n}b") for v in range(2**n) if bin(v).count("1") % 2 == 0]


def codeword_states(words, kappa):
    """Tensor-product codeword vectors as columns (wire 0 most significant)."""
    letters = {"0": np.array([1.0, 0.0]),
               "1": np.array([kappa, math.sqrt(max(0.0, 1.0 - kappa * kappa))])}
    columns = []
    for word in words:
        vec = np.ones(1)
        for bit in word:
            vec = np.kron(vec, letters[bit])
        columns.append(vec)
    return np.column_stack(columns)


@functools.lru_cache(maxsize=None)
def _pair_rows(n, controls, target):
    idx = np.arange(2**n)
    mask = 1 << (n - 1 - target)
    for c in controls:
        mask |= 1 << (n - 1 - c)
    lo = idx[(idx & mask) == (mask ^ (1 << (n - 1 - target)))]
    return lo, lo | (1 << (n - 1 - target))


def apply_network(text, states, n):
    """Apply a network in the CLI's text format to the columns of ``states``."""
    a = np.array(states, dtype=float)
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        kind = parts[0]
        if kind in ("X", "RY"):
            controls, target = (), int(parts[1])
        elif kind == "CX":
            controls, target = tuple(int(c) for c in parts[1:-1]), int(parts[-1])
        elif kind == "CR":
            controls, target = tuple(int(c) for c in parts[1:-2]), int(parts[-2])
        else:
            raise ValueError(f"unknown gate line {line!r}")
        lo, hi = _pair_rows(n, controls, target)
        x, y = a[lo], a[hi]
        if kind in ("X", "CX"):
            a[lo], a[hi] = y, x
        else:
            c, s = math.cos(float(parts[-1]) / 2), math.sin(float(parts[-1]) / 2)
            a[lo], a[hi] = c * x - s * y, s * x + c * y
    return a


# ---- checks ---------------------------------------------------------------

class Reference:
    """Reference outputs made at the seed commit by make_reference.py."""

    def __init__(self, directory):
        self.directory = directory
        with open(os.path.join(directory, "outputs.json")) as fh:
            self.invocations = json.load(fh)["invocations"]

    def get(self, inv):
        """The reference for ``inv`` when its arguments match, else None."""
        ref = self.invocations.get(inv["label"])
        return ref if ref is not None and ref["argv"] == inv["argv"] else None

    def file(self, name):
        with open(os.path.join(self.directory, name), "rb") as fh:
            return fh.read()


class Verdict:
    def __init__(self):
        self.problems = []
        self.compared = 0   # outputs that have a reference
        self.identical = 0  # of those, byte-identical to it

    def fail(self, message):
        self.problems.append(message)

    def same(self, data, digest):
        self.compared += 1
        self.identical += sha256(data) == digest


def _numbers(verdict, what, values, expected, rel, abs_):
    for key, value in values.items():
        want = expected.get(key)
        if want is None or not close(value, want, rel, abs_):
            verdict.fail(f"{what}: {key} = {value!r}, expected {want!r}")


def check(inv, record, files, reference):
    """Check one invocation that exited 0; ``files`` maps output paths,
    relative to the pass directory, to their bytes."""
    verdict = Verdict()
    ref = reference.get(inv)
    if ref is not None:
        if ref["stdout"]:
            verdict.same(record["stdout"].encode(), sha256(ref["stdout"].encode()))
        for name, digest in ref["files"].items():
            if name in files:
                verdict.same(files[name], digest)
    try:
        CHECKS[inv["kind"]](inv, record, files, ref, reference, verdict)
    except (KeyError, ValueError, IndexError) as exc:
        verdict.fail(f"unreadable output: {type(exc).__name__}: {exc}")
    del verdict.problems[MAX_PROBLEMS:]
    return verdict


def _check_sweep(inv, record, files, ref, reference, verdict):
    lines = files[f"{inv['label']}.csv"].decode().splitlines()
    if lines[0] != CSV_HEADER:
        verdict.fail(f"CSV header {lines[0]!r}")
    expected = [(n, kappa) for n in inv["n"] for kappa in inv["kappa"]]
    if len(lines) - 1 != len(expected):
        verdict.fail(f"{len(lines) - 1} rows, expected {len(expected)}")
        return
    ref_lines = reference.file(f"{inv['label']}.csv").decode().splitlines() if ref else None
    for i, ((n, kappa), line) in enumerate(zip(expected, lines[1:]), start=1):
        fields = line.split(",")
        got = dict(zip(CSV_HEADER.split(","), map(float, fields)))
        if int(fields[0]) != n or not close(got["kappa"], kappa, IND_REL, IND_ABS):
            verdict.fail(f"row {i}: (n, kappa) = ({fields[0]}, {fields[1]}), expected ({n}, {kappa!r})")
            continue
        if ref_lines is not None:
            want = dict(zip(CSV_HEADER.split(","), map(float, ref_lines[i].split(","))))
            _numbers(verdict, f"row {i} vs reference", got, want, REF_REL, REF_ABS)
        c1, p, holevo = single_letter(kappa)
        q, info = even_weight_srm(n, kappa)
        independent = {
            "n": n, "kappa": kappa, "c1": c1, "per_letter_info": info / n,
            "margin": info / n - c1, "pe_block": 1.0 - q[0],
            "p_single": p, "holevo": holevo,
        }
        _numbers(verdict, f"row {i} vs weight-class route", got, independent, IND_REL, IND_ABS)
        if n == 3 and not close(got["per_letter_info"], sqrm.i3_closed_form(kappa) / 3,
                                IND_REL, IND_ABS):
            verdict.fail(f"row {i}: per_letter_info {got['per_letter_info']!r} "
                         f"!= i3_closed_form/3 at kappa {kappa!r}")


def _check_threshold(inv, record, files, ref, reference, verdict):
    kappa = float(record["stdout"].strip())
    n, width = inv["n"], float(inv["argv"][inv["argv"].index("--tol") + 1])
    if ref is not None and abs(kappa - ref["kappa_star"]) > ref["bracket_width"]:
        verdict.fail(f"kappa_star {kappa!r} outside reference {ref['kappa_star']!r} "
                     f"+- {ref['bracket_width']!r}")
    if not margin(n, kappa - width) <= 0.0 < margin(n, kappa + width):
        verdict.fail(f"margin does not change sign across {kappa!r} +- {width}")
    above = np.arange(kappa + width, 0.999, 0.005)
    if any(margin(n, k) <= 0.0 for k in above):
        verdict.fail(f"margin is not positive everywhere above {kappa!r}")


def _key_values(stdout):
    """``key value`` and ``key=value`` lines as a dict of floats."""
    out = {}
    for line in stdout.splitlines():
        key, value = line.replace("=", " ", 1).split()
        out[key] = float(value)
    return out


def _check_synthesize(inv, record, files, ref, reference, verdict):
    n, kappa, label = inv["n"], inv["kappa"], inv["label"]
    words = even_words(n)
    got = _key_values(record["stdout"])
    if set(got) != {"P_e", *(f"P({w}|{w})" for w in words)}:
        verdict.fail(f"stdout lines {sorted(got)[:4]}... do not match the codebook")
        return
    if ref is not None:
        _numbers(verdict, "vs reference", got, _key_values(ref["stdout"]),
                 REF_REL, REF_ABS)
    q = even_weight_srm(n, kappa)[0]
    independent = {"P_e": 1.0 - q[0], **{f"P({w}|{w})": q[0] for w in words}}
    _numbers(verdict, "vs weight-class route", got, independent, IND_REL, IND_ABS)

    states = codeword_states(words, kappa)
    ints = np.array([int(w, 2) for w in words])
    distance = np.array([[bin(a ^ b).count("1") for b in ints] for a in ints])
    expected = np.vectorize(q.get)(distance)
    v = np.array([[float(x) for x in line.split()]
                  for line in files[f"{label}/v.txt"].decode().splitlines()])
    if np.max(np.abs(v @ v.T - np.eye(2**n))) > 1e-9:
        verdict.fail("v.txt is not orthogonal")
    for source, amplitudes in (
        ("v.txt", v @ states),
        ("network.txt", apply_network(files[f"{label}/network.txt"].decode(), states, n)),
    ):
        p = amplitudes[: len(words)] ** 2
        if np.max(np.abs(p - expected)) > PROB_ABS:
            verdict.fail(f"{source}: P(j|i) on the codewords differs from the "
                         f"weight-class route by {np.max(np.abs(p - expected)):.3g}")


def _check_gatecheck(inv, record, files, ref, reference, verdict):
    if ref is None:
        verdict.fail("no reference for this gatecheck")
        return
    got, want = _key_values(record["stdout"]), _key_values(ref["stdout"])
    if set(got) != set(want):
        verdict.fail(f"stdout keys {sorted(got)}, expected {sorted(want)}")
    _numbers(verdict, "vs reference", got, want, REF_REL, REF_ABS)


CHECKS = {
    "sweep": _check_sweep,
    "threshold": _check_threshold,
    "synthesize": _check_synthesize,
    "gatecheck": _check_gatecheck,
}
