"""Print a digest line per CLI invocation of the standing byte-identity sets.

Each line is: group, argv, exit code, sha256 of stdout, sha256 of stderr and
sha256 of the --out file the same invocation writes ("-" when it writes
none). Stdout and stderr are hashed as they are written, so no document is
held in memory. The invocations run in-process, with one BLAS thread, against the
cohrank package in SRC (default: this checkout's src), so comparing two
checkouts is one command:

    diff <(python3 tests/byte_identity.py OTHER/src) <(python3 tests/byte_identity.py)

The sets:
- "decompose": omega-power n = 1..7 at alpha 0.05, half the boundary, the
  boundary repr, boundary + 0.01 and 1; rho-d d = 1..17; the largest
  admitted document, n = 8 at alpha 0.05 and at the boundary repr (about
  250 MB each); the output-cap refusal at n = 9 and its infeasible twin.
- "cost-nonadd": the nonadd sweeps (default, 0..1 x 5 up to n = 3, the small
  golden grid, the grid on ||rho||_l1 = 1e-9, 0.2..0.3 x 11 up to n = 6,
  alpha 0.0717734625363 up to n = 10, alpha 1 up to n = 3, 0.01..0.99 x 25
  up to n = 8), cost at interior, boundary, infeasible and invalid points,
  and decompose at a few points.
- "dio": flag mixtures d = 4, 7 and omega(0.3), omega(0.35)^(x)2 at --d 2, 3
  and 5 (state files written by plain json), then boundary and error cases.
- "cost-sweep": cost over n = 1..24 at 0.5x, 0.9x, 1x (the repr of
  2**(1/n) - 1), 1.1x and 3x the boundary.
- "changed": invocations whose bytes are meant to differ between the
  amplitude-budget and the copy-limit versions: cost at n = 25, 64 and
  1023 (exit 3 under the budget, certified now) and decompose with a
  non-finite alpha (exit 2 with a non-JSON document before, exit 3 now).
"""

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

SRC = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, str(SRC.resolve()))

import numpy as np  # noqa: E402

from cohrank.cli import main  # noqa: E402


def boundary(n):
    return 2 ** (1 / n) - 1


def omega(alpha, n=1):
    one = np.array([[0.5, alpha / 2], [alpha / 2, 0.5]])
    out = one
    for _ in range(n - 1):
        out = np.kron(out, one)
    return out


def flag_mixture(d):
    out = np.zeros((2 * d, 2 * d), dtype=complex)
    for k in range(d):
        psi = np.zeros(2 * d, dtype=complex)
        psi[k] = 1.0
        psi[d:] = np.exp(-2j * np.pi * np.arange(d) * k / d)
        psi /= math.sqrt(d + 1)
        out += np.outer(psi, psi.conj())
    return out / d


def write_state(name, rho):
    """A state file in the matrix schema, written by plain json from the entries."""
    rho = np.asarray(rho, dtype=complex)
    entries = np.stack([rho.real, rho.imag], axis=-1).reshape(-1).tolist()
    Path(name).write_text(json.dumps({"dim": rho.shape[0], "entries": entries}), encoding="utf-8")
    return name


def omega_decompose(alpha, n):
    return ["decompose", "--family", "omega-power", "--alpha", repr(alpha), "--n", str(n)]


def cost(alpha, n=None):
    return ["cost", "--alpha", repr(alpha) if isinstance(alpha, float) else alpha] + (
        [] if n is None else ["--n", str(n)]
    )


def nonadd(lo, hi, steps, n_max):
    return ["nonadd", "--alpha-min", lo, "--alpha-max", hi, "--steps", str(steps), "--n-max", str(n_max)]


def invocations():
    for n in range(1, 8):
        for alpha in (0.05, boundary(n) / 2, boundary(n), boundary(n) + 0.01, 1.0):
            yield "decompose", omega_decompose(alpha, n)
    for d in range(1, 18):
        yield "decompose", ["decompose", "--family", "rho-d", "--d", str(d)]
    yield "decompose", omega_decompose(0.05, 8)
    yield "decompose", omega_decompose(boundary(8), 8)
    yield "decompose", omega_decompose(0.01, 9)
    yield "decompose", omega_decompose(0.5, 9)

    yield "cost-nonadd", ["nonadd"]
    for sweep in (("0", "1", 5, 3), ("0", repr(math.sqrt(2) - 1), 3, 3), ("1e-9", "1.1e-9", 201, 1),
                  ("0.2", "0.3", 11, 6), ("0.0717734625363", "0.0717734625363", 1, 10),
                  ("1", "1", 1, 3), ("0.01", "0.99", 25, 8)):
        yield "cost-nonadd", nonadd(*sweep)
    for args in (("0",), ("0", 3), ("0.26", 3), ("0.5", 6), ("0.1", 7), ("0.0905", 8), ("1",),
                 ("1", 2), ("1", 3), ("0.3", 9), ("0.3", 10), ("0.3", 11), ("0.05", 11),
                 ("0.99", 5), ("1e-300",), ("1e-12", 4), ("0.3", 0), ("0.04", 16), ("1.5",)):
        yield "cost-nonadd", cost(*args)
    for alpha, n in ((0.2, 3), (0.5, 3), (0.1, 5), (boundary(6), 6)):
        yield "cost-nonadd", omega_decompose(alpha, n)
    yield "cost-nonadd", ["decompose", "--family", "rho-d", "--d", "3"]

    targets = {
        "flag4.json": flag_mixture(4),
        "flag7.json": flag_mixture(7),
        "omega03.json": omega(0.3),
        "omega035x2.json": omega(0.35, 2),
    }
    for name, rho in targets.items():
        write_state(name, rho)
        for d in (2, 3, 5):
            yield "dio", ["dio", "--state", name, "--d", str(d)]
    phi4 = np.full((4, 4), 0.25)
    nan_state = omega(0.3)
    nan_state[0, 1] = math.nan
    for name, rho, d in (("omega-m2-n2.json", omega(boundary(2), 2), 2),
                         ("omega-m3-n2.json", omega(math.sqrt(3) - 1, 2), 3),
                         ("omega-m3-n2.json", omega(math.sqrt(3) - 1, 2), 2),
                         ("phi4.json", phi4, 3), ("phi4.json", phi4, 4),
                         ("omega03.json", omega(0.3), 1), ("nan.json", nan_state, 2)):
        yield "dio", ["dio", "--state", write_state(name, rho), "--d", str(d)]

    for n in range(1, 25):
        edge = boundary(n)
        for alpha in (0.5 * edge, 0.9 * edge, edge, 1.1 * edge, 3 * edge):
            yield "cost-sweep", cost(alpha, n)

    for n in (25, 64, 1023):
        yield "changed", cost(0.9 * boundary(n), n)
    for alpha in ("nan", "inf"):
        yield "changed", ["decompose", "--family", "omega-power", "--alpha", alpha, "--n", "3"]


class Sink(io.TextIOBase):
    """A text stream that keeps only the sha256 of the UTF-8 text written to it."""

    def __init__(self):
        self.hash = hashlib.sha256()

    def write(self, text):
        self.hash.update(text.encode())
        return len(text)


def run(argv):
    out, err = Sink(), Sink()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.hash.hexdigest(), err.hash.hexdigest()


def file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def report():
    for group, argv in invocations():
        code, out, err = run(argv)
        target = Path("out.doc")
        with contextlib.suppress(FileNotFoundError):
            target.unlink()
        run(argv + ["--out", str(target)])
        written = file_digest(target) if target.exists() else "-"
        print("\t".join([group, " ".join(argv), str(code), out, err, written]))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)  # state files and --out documents go here, named relatively
        report()
