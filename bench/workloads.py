"""The three workloads, the seeded hostile-input generator and the output checks.

Every task is one command a user could type: an `xicube` CLI call, or, for
the exact ties, one public `RealContext.decide` call.  The expected outcome
of each task is owned here: recorded digests, dimension formulas computed
independently of `xicube.ring.tau`, and exit classes fixed by construction.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("paper_xi", "ring", "hostile_xi")

EXIT_OK, EXIT_USAGE, EXIT_PRECISION = 0, 2, 3
TIE_MAX_BITS = 8192

# The three acceptance numbers, each at the smallest round bound that reaches
# its full bound-1e5 sequence (last points of norm 15084, 11348 and 24743):
# the answers are those of the acceptance configuration, while a task stays
# short enough for several repetitions per run.
PI60 = "dec:3.141592653589793238462643383279502884197169399375105820974944"
PAPER_XI = {
    # name: (spec, bound, points, pairs)
    "root2": ("alg:x^4-2 in [1,2]", 16_000, 13, 7),
    "quartic": ("alg:x^4-x-1 in [1.2,1.3]", 12_000, 9, 3),
    "pi60": (PI60, 25_000, 4, 1),
}
# SHA-256 of pairs.csv and summary.json, recorded at the commit that added
# the benchmark; the ROADMAP requires these outputs to stay byte-identical.
PAPER_DIGESTS = {
    "root2": ("3560d7b44846245a5a2667f85dad92e633705bbd64c72446640573b76d39074c",
              "b52c57140c90c376ee3ef66fb631ad2a96080b71c703ad4b4de3f04610247064"),
    "quartic": ("4723372121acd41b0141b2499824773753249ee9b079d9779d5e240aeed55ecd",
                "9c4311260843be1f5390f77886f4a0f1e915cf52e0009ed4f28d6cdeee590951"),
    "pi60": ("7c3d4496ab6c56d2ec0011108e673d11271bef4ae31ee472a2ce2baff7f97552",
             "7aed4b3d3ef64b6616a1245806da6de9a06bb13528c4be3c3b5d3144b1a240d8"),
}

# Ring tables trimmed to fit a run; ell = 4 stays as the heaviest family.
R_LMAX, S_LMAX = 14, 9
FAMILY_ELLS = (1, 2, 3, 4)
# SHA-256 of the serialized family element
FAMILY_DIGESTS = {
    1: "1c5b4f870ad60d9b224b59f33e9c56dc4321009e49b050859fb4f5b44d01d216",
    2: "e98597eb849795af2b7511865f2afa8f78cfe9850a26903113d74e2fbadae811",
    3: "e8ee3fd7dd74b10d3d27c941d3cb2bc191d49c4954eabbeab5c66de24d5009b5",
    4: "9657c1c4779bd77ae3a1c783a428e980fb8019d258aba83e7b0279515381144c",
}
RELATIONS = {
    # name: (degree, support, k_max, integer-normalized element)
    "D2": (6, "3,0;0,2", 2, "deg=6; (0,2):27/1; (3,0):1/1"),
    "D3": (6, "3,0;1,1;0,2", 3, "deg=6; (0,2):135/1; (1,1):18/1; (3,0):-1/1"),
    "D6": (9, "4,0;3,1;2,1;1,2;0,2;0,3", 6,
           "deg=9; (0,2):1/1; (0,3):675/1; (1,2):180/1; (2,1):11/1; (3,1):-10/1; (4,0):-1/1"),
}
IDENTITY_SAMPLES = 200
IDENTITY_COUNT = 18


@dataclass(frozen=True)
class Task:
    kind: str                    # unique in its workload; figures are taken per kind
    check: str                   # name of the output check in CHECKS
    argv: tuple[str, ...] = ()   # CLI arguments; empty for a tie
    expect_exit: int = EXIT_OK
    expect: dict = field(default_factory=dict, compare=False)
    outputs: tuple[str, ...] = ()
    tie: str | None = None       # xi spec of an exact-tie task

    def describe(self) -> dict:
        out = {"kind": self.kind, "expect_exit": self.expect_exit}
        if self.tie:
            out["tie"] = self.tie
            out["max_bits"] = TIE_MAX_BITS
        else:
            out["argv"] = list(self.argv)
        return out


def _run_argv(spec: str, bound: int, outputs=True) -> tuple[str, ...]:
    argv = ("run", "--xi", spec, "--bound", str(bound))
    if outputs:
        argv += ("--csv", "pairs.csv", "--json", "summary.json")
    return argv


def paper_tasks() -> list[Task]:
    return [
        Task(name, "paper", _run_argv(spec, bound),
             expect={"points": pts, "pairs": prs, "digests": PAPER_DIGESTS[name]},
             outputs=("pairs.csv", "summary.json"))
        for name, (spec, bound, pts, prs) in PAPER_XI.items()
    ]


def ring_tasks(seed: int) -> list[Task]:
    tasks = [
        Task("r_table", "dims", ("ring-dims", "--lmax", str(R_LMAX), "--s-lmax", "0"),
             expect={"R": R_LMAX, "S": 0}),
        Task("s_table", "dims", ("ring-dims", "--lmax", "0", "--s-lmax", str(S_LMAX)),
             expect={"R": 0, "S": S_LMAX}),
    ]
    for ell in FAMILY_ELLS:
        tasks.append(Task(f"family_ell{ell}", "family",
                          ("special-family", "--ell", str(ell), "--json", "family.json"),
                          expect={"ell": ell, "digest": FAMILY_DIGESTS[ell]},
                          outputs=("family.json",)))
    for name, (degree, support, k, elem) in RELATIONS.items():
        tasks.append(Task(f"relation_{name}", "relation",
                          ("find-relation", "--degree", str(degree), "--support", support),
                          expect={"k": k, "element": elem}))
    tasks.append(Task("identities", "identities",
                      ("verify-identities", "--samples", str(IDENTITY_SAMPLES),
                       "--seed", str(seed)),
                      expect={"seed": seed}))
    return tasks


# -- the hostile generator ---------------------------------------------------

def _poly_text(coeffs) -> str:
    """Descending integer coefficients as an `alg:` polynomial in x."""
    deg = len(coeffs) - 1
    terms = []
    for i, c in enumerate(coeffs):
        e = deg - i
        if c == 0:
            continue
        mono = "" if e == 0 else ("x" if e == 1 else f"x^{e}")
        mag = str(abs(c)) if (abs(c) != 1 or e == 0) else ""
        body = f"{mag}*{mono}" if mag and mono else (mag or mono)
        terms.append(("-" if c < 0 else "+") + body)
    text = "".join(terms)
    return text[1:] if text.startswith("+") else text


ROOT_WIDTH = Fraction(1, 10**9)  # width of the isolating intervals put in the specs


def _roots(coeffs):
    """Isolating intervals (lo, hi) of the real roots; None if reducible."""
    import sympy

    poly = sympy.Poly(list(coeffs), sympy.Symbol("x"))
    if not poly.is_irreducible:
        return None
    return [(Fraction(int(a.p), int(a.q)), Fraction(int(b.p), int(b.q)))
            for (a, b), _mult in poly.intervals(eps=ROOT_WIDTH)]


def _alg(coeffs, root) -> str:
    lo, hi = root
    return f"alg:{_poly_text(coeffs)} in [{lo},{hi}]"


def _draw(rng, make, accept):
    """Redraw `make(rng)` until it is irreducible with an accepted real root."""
    while True:
        coeffs = make(rng)
        roots = _roots(coeffs)
        for root in roots or ():
            if accept(root):
                return _alg(coeffs, root), (root[0] + root[1]) / 2


def _near_one(rng):
    # N*x^4 + b*x - M with M/N close to (1 + delta)^4, |delta| < 9e-4
    n = rng.randint(10**4, 10**5)
    delta = Fraction(rng.choice((-1, 1)) * rng.randint(100, 900), 10**6)
    return [n, 0, 0, rng.randint(-3, 3), -round(n * (1 + delta) ** 4)]


def _negative(rng):
    return [1] + [rng.randint(-9, 9) for _ in range(3)] + [rng.choice((-1, 1)) * rng.randint(1, 9)]


def _huge(rng):
    return [rng.choice((-1, 1)) * rng.randint(2**63, 2**64) for _ in range(7)]


def _large(rng):
    # x^5 - A*x^4 + small terms: one root close to A in [20, 40]
    return [1, -rng.randint(20, 40)] + [rng.randint(-9, 9) for _ in range(3)] \
        + [rng.choice((-1, 1)) * rng.randint(1, 9)]


def _quadratic(rng):
    return [1, 0, -rng.randint(2, 60)]


def _depressed_cubic(rng):
    return [1, 0, rng.randint(-9, 9), rng.choice((-1, 1)) * rng.randint(1, 9)]


def _short_decimal(rng, digits: int, sign: int) -> str:
    units = rng.randint(11 * 10 ** (digits - 1), 29 * 10 ** (digits - 1))
    text = f"{units // 10**digits}.{units % 10**digits:0{digits}d}"
    return ("-" if sign < 0 else "") + text


HOSTILE_BOUND = 2000
DEC_BOUND_FACTOR = 27  # |xi| < 3, so x0 reaches 10^digits below 27 * 10^digits


def hostile_tasks(seed: int) -> list[Task]:
    """Seeded draw of ROADMAP aim-3 inputs with their exit classes.

    Degrees are fixed per slot (4, 4, 6 and 5 for the runs that must pass)
    and only coefficients are drawn, so the cost of a slot, dominated by the
    two deep ties on degree-4 xi, is steady from seed to seed.
    """
    rng = random.Random(seed)
    near_one, _ = _draw(rng, _near_one, lambda r: abs((r[0] + r[1]) / 2 - 1) < Fraction(1, 1000))
    negative, _ = _draw(rng, _negative, lambda r: Fraction(-3) < r[0] and r[1] < Fraction(-6, 5))
    huge, _ = _draw(rng, _huge, lambda r: Fraction(1, 10) < abs((r[0] + r[1]) / 2) < 10)
    large, xi = _draw(rng, _large, lambda r: r[0] > 15)
    quad, _ = _draw(rng, _quadratic, lambda r: r[0] > 0)
    cubic, _ = _draw(rng, _depressed_cubic, lambda r: True)
    dec2 = "dec:" + _short_decimal(rng, 2, 1)
    dec3 = "dec:" + _short_decimal(rng, 3, -1)
    large_bound = 40 * (int(xi) + 1) ** 3  # a few dozen candidates

    def run(kind, spec, bound, expect_exit, check):
        outputs = expect_exit == EXIT_OK
        return Task(kind, check, _run_argv(spec, bound, outputs), expect_exit,
                    outputs=("pairs.csv", "summary.json") if outputs else ())

    return [
        run("near_one", near_one, HOSTILE_BOUND, EXIT_OK, "suites"),
        run("negative", negative, HOSTILE_BOUND, EXIT_OK, "suites"),
        run("huge_coeff", huge, HOSTILE_BOUND, EXIT_OK, "suites"),
        run("large", large, large_bound, EXIT_OK, "suites"),
        run("dep_quadratic", quad, HOSTILE_BOUND, EXIT_USAGE, "dependent"),
        run("dep_cubic", cubic, HOSTILE_BOUND, EXIT_USAGE, "dependent"),
        run("short_dec2", dec2, DEC_BOUND_FACTOR * 10**2, EXIT_PRECISION, "ceiling"),
        run("short_dec3", dec3, DEC_BOUND_FACTOR * 10**3, EXIT_PRECISION, "ceiling"),
        Task("tie_near_one", "tie", expect_exit=EXIT_PRECISION, tie=near_one),
        Task("tie_negative", "tie", expect_exit=EXIT_PRECISION, tie=negative),
    ]


def tasks_for(workload: str, seed: int) -> list[Task]:
    if workload == "paper_xi":
        tasks = paper_tasks()
    elif workload == "ring":
        tasks = ring_tasks(seed)
    elif workload == "hostile_xi":
        tasks = hostile_tasks(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    # the seed also fixes the order of a pass, so no kind always runs first
    random.Random(seed).shuffle(tasks)
    return tasks


# -- output checks -------------------------------------------------------------

def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def tau(ell: int) -> int:
    """#{(m, n) in N^2 : 2m + 3n <= ell}, counted directly."""
    if ell < 0:
        return 0
    return sum(1 for m in range(ell // 2 + 1) for n in range(ell // 3 + 1)
               if 2 * m + 3 * n <= ell)


def _suites_ok(out) -> str | None:
    for line in ("suite divisibility: PASS", "suite heights: PASS", "suite prop8: DONE"):
        if line not in out.stdout:
            return f"missing {line!r}"
    summary = json.loads(out.files["summary.json"])
    if summary["suites"] != {"divisibility": "PASS", "heights": "PASS", "prop8": "DONE"}:
        return f"suites {summary['suites']}"
    bad = [(p["i"], p["j"]) for p in summary["pairs"] if not all(p["checks"].values())]
    if bad:
        return f"pair checks false on {bad}"
    counts = summary["counts"]
    if f"{counts['sequence']} points, {counts['pairs']} pairs" not in out.stdout:
        return "printed counts differ from the JSON summary"
    return None


def _check_paper(task, out):
    err = _suites_ok(out)
    if err:
        return err
    want = f"{task.expect['points']} points, {task.expect['pairs']} pairs"
    if want not in out.stdout:
        return f"expected {want!r}"
    got = (sha256(out.files["pairs.csv"]), sha256(out.files["summary.json"]))
    if got != tuple(task.expect["digests"]):
        return f"output digest {got} differs from the recorded one"
    return None


_ROW = re.compile(r"^([RS])_(\d+): dims k=0\.\.(\d+): \[([-\d, ]*)\]", re.M)


def _check_dims(task, out):
    rows = {}
    for table, deg, kmax, cells in _ROW.findall(out.stdout):
        ell = int(deg) if table == "R" else int(deg) // 2
        rows[(table, ell)] = (int(kmax), [int(c) for c in cells.split(",") if c.strip()])
    want = {("R", ell) for ell in range(task.expect["R"] + 1)}
    want |= {("S", ell) for ell in range(task.expect["S"] + 1)}
    if set(rows) != want:
        return f"rows {sorted(set(rows) ^ want)} missing or unexpected"
    for (table, ell), (kmax, cells) in sorted(rows.items()):
        expected = [max(0, tau(ell) - tau(k - 1)) for k in range(ell + 3)]
        if kmax != ell + 2 or cells != expected:
            return f"{table}_{ell}: {cells} != {expected}"
    if "all dimension cells PASS" not in out.stdout:
        return "no final PASS line"
    return None


def _check_family(task, out):
    payload = json.loads(out.files["family.json"])
    ell = task.expect["ell"]
    if payload["ell"] != ell:
        return f"ell {payload['ell']}"
    if "0" in (payload["anchors"]["F_power"], payload["anchors"]["G_T2"]):
        return f"vanishing anchor {payload['anchors']}"
    if not all(payload["checks"].values()) or "parity certificate: PASS" not in out.stdout:
        return "parity certificate failed"
    if sha256(payload["element"]) != task.expect["digest"]:
        return "family element digest differs from the recorded one"
    return None


def _check_relation(task, out):
    head = f"maximal valuation k = {task.expect['k']}, dimension 1\n"
    if head not in out.stdout:
        return f"expected {head.strip()!r}"
    if out.stdout.splitlines()[-1].strip() != task.expect["element"]:
        return "element differs from the displayed one"
    return None


def _check_identities(task, out):
    lines = out.stdout.splitlines()
    if any(line.startswith("FAIL") for line in lines):
        return "an identity failed"
    want = (f"{IDENTITY_COUNT}/{IDENTITY_COUNT} identities hold "
            f"({IDENTITY_SAMPLES} samples, seed {task.expect['seed']})")
    return None if lines and lines[-1] == want else f"expected {want!r}"


def _check_dependent(task, out):
    return None if "linearly dependent" in out.stderr else "no dependence message"


def _check_ceiling(task, out):
    return None if "precision ceiling" in out.stderr else "no precision-ceiling message"


def _check_tie(task, out):
    want = f"at {TIE_MAX_BITS} bits"
    if "PrecisionError" not in out.stdout or want not in out.stdout:
        return f"expected a PrecisionError {want}"
    return None


CHECKS = {
    "paper": _check_paper,
    "dims": _check_dims,
    "family": _check_family,
    "relation": _check_relation,
    "identities": _check_identities,
    "suites": lambda task, out: _suites_ok(out),
    "dependent": _check_dependent,
    "ceiling": _check_ceiling,
    "tie": _check_tie,
}


def check(task: Task, out) -> str | None:
    """None when the outcome is the expected one, else why it is not."""
    if out.timed_out:
        return f"timed out after {out.wall_s:.1f} s"
    if out.exit is None:
        return f"crashed (process exit {out.returncode}): {out.stderr.strip()[-300:]}"
    if out.exit != task.expect_exit:
        return f"exit {out.exit}, expected {task.expect_exit}"
    missing = [name for name in task.outputs if name not in out.files]
    if missing:
        return f"missing outputs {missing}"
    try:
        return CHECKS[task.check](task, out)
    except (KeyError, ValueError, IndexError) as exc:
        return f"malformed output: {exc!r}"
