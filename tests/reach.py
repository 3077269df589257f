"""Reachability guard: every function in src/xicube is entered by a subcommand.

Run it as a script, ``python tests/reach.py``; it needs only the standard
library.  In its own interpreter it runs the fixed list `RUNS` of
`xicube.cli.main` calls under `sys.setprofile`: every subcommand, each exit
class 0 to 3, ``--config FILE`` and ``--help``, a two-root interval and an
unwritable ``--csv``.  It then lists every ``def`` in src/xicube by reading
the source with `ast`.  It exits 1, naming the functions, when a ``def`` is
entered by no run and has no entry in `ALLOW`, or when an entry of `ALLOW`
is stale: it names no ``def``, or a run enters it.  A function is the module
and the dotted path of the classes and functions around it, such as
``intervals.Interval.__eq__``.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "xicube"

ROOT2 = "alg:x^4-2 in [1,2]"
# a pair with q = 3, so the pair inequality is decided, not skipped
CONFIG = "xi = alg:x^4+2*x-8 in [1,4]\nbound = 3000\nepsilon = 1/10\n"

# (argv, exit code); each runs in one temporary directory holding run.cfg
RUNS = [
    (["--help"], 0),
    (["run", "--help"], 0),
    (["runs"], 2),
    (["minpoints", "--xi", ROOT2, "--bound", "2000", "--csv", "p.csv", "--json", "p.json"], 0),
    (["run", "--config", "run.cfg", "--csv", "pairs.csv", "--json", "summary.json"], 0),
    (["run", "--xi", "dec:2.5", "--bound", "2700"], 3),
    (["run", "--xi", "alg:x^2-2 in [1,2]", "--bound", "100"], 2),
    (["run", "--xi", "alg:x^2-2 in [-2,2]", "--bound", "100"], 2),
    (["run", "--xi", ROOT2, "--bound", "200", "--csv", "missing/p.csv"], 1),
    (["ring-dims", "--lmax", "12", "--s-lmax", "8"], 0),
    (["find-relation", "--degree", "12", "--support", "6,0;3,2;0,4", "--json", "r.json"], 0),
    (["special-family", "--ell", "2", "--json", "family.json"], 0),
    (["special-family", "--ell", "0"], 2),
    (["verify-identities", "--samples", "3"], 0),
]

# function -> why it stays although no run enters it
ALLOW: dict[str, str] = {
    # seams of the bench, which wraps or calls them by name
    "intervals.Interval.strictly_less": "bench/worker.py:68 `_tie` compares two errors with it",
    "minimal.candidate_for": "bench/spans.py:206 wraps it",
    "realctx.RealContext.nearest_to_multiple": "bench/spans.py:171 wraps it; "
                                               "candidate_for calls it",
    "realctx.RealContext._nearest_fixed": "nearest_to_multiple's probe (bench/spans.py:171)",
    "realctx.RealContext.power": "bench/spans.py:191 wraps it",
    "ring.j_subspace": "bench/spans.py:277 wraps it, imported into cli",
    "search.s_subspace_dim": "bench/spans.py:273 wraps it, imported into cli",
    # the equality, hash and repr of record types
    "intervals.Interval.__eq__": "MinimalPoint equality, as in CI's comparison of the "
                                 "search with the linear-scan oracle",
    "intervals.Interval.__hash__": "an Interval is hashable as it has __eq__",
    "intervals.Interval.__repr__": "the repr of a record",
    "ring.RingElem.__hash__": "a RingElem is hashable as it has __eq__",
    "ring.RingElem.__repr__": "the repr of a record",
    # an error that only a broken invariant raises
    "errors.InvariantViolation.__init__": "a sound program never raises it; tests/test_lab.py "
        "test_failure_dumps_reproducer, test_unwritten_reproducer_leaves_the_failure_its_own "
        "and test_height_failure_dumps_reproducer, tests/test_minimal.py "
        "test_imprimitive_point_reported, tests/test_dim_profile.py "
        "test_a_broken_premise_raises and tests/test_ring_oracle.py "
        "test_closed_form_refuses_a_wrong_substitution break one to trigger it",
}


def _names(path: Path) -> dict[tuple[int, str], str]:
    """(first line, name) of every def in a module -> its dotted name.

    A decorated def is keyed at both its first decorator and its def line,
    as `co_firstlineno` points at one or the other depending on the Python
    version.
    """
    out = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    for line in [child.lineno] + [d.lineno for d in child.decorator_list]:
                        out[(line, child.name)] = name
                visit(child, name)
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(), str(path)), path.stem)
    return out


def defined_functions() -> dict[tuple[str, int, str], str]:
    """(file, first line, name) -> dotted name, for every def in src/xicube."""
    return {(str(path), line, name): dotted
            for path in sorted(PACKAGE.glob("*.py"))
            for (line, name), dotted in _names(path).items()}


def problems(defined: set[str], entered: set[str], allow: dict[str, str]) -> list[str]:
    """What the guard fails on: unreached functions missing from `allow`, stale entries."""
    out = [f"no run enters {name}; delete it or add it to ALLOW with the reason it stays"
           for name in sorted(defined - entered - set(allow))]
    out += [f"stale ALLOW entry {name}: no such function"
            for name in sorted(set(allow) - defined)]
    out += [f"stale ALLOW entry {name}: a run enters it"
            for name in sorted(set(allow) & entered)]
    return out


def _run_all() -> tuple[set, list[str]]:
    """Code objects entered by `RUNS`, and the runs that exited otherwise than listed."""
    sys.path.insert(0, str(SRC))
    import xicube.cli

    if Path(xicube.cli.__file__).resolve().parent != PACKAGE:
        sys.exit(f"xicube imported from {xicube.cli.__file__}, not {PACKAGE}")
    codes: set = set()

    def profile(frame, event, _arg):
        if event == "call":
            codes.add(frame.f_code)

    wrong = []
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        Path("run.cfg").write_text(CONFIG)
        sys.setprofile(profile)  # the package starts no thread
        try:
            for argv, want in RUNS:
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                    try:
                        got = xicube.cli.main(argv)
                    except SystemExit as exc:
                        got = exc.code
                if got != want:
                    wrong.append(f"{argv} exited {got}, not {want}:\n{out.getvalue()}")
        finally:
            sys.setprofile(None)
            os.chdir(home)
    return codes, wrong


def main() -> int:
    start = time.perf_counter()
    codes, wrong = _run_all()
    names = defined_functions()
    entered = {names[key] for key in ((c.co_filename, c.co_firstlineno, c.co_name)
                                      for c in codes) if key in names}
    defined = set(names.values())
    found = wrong + problems(defined, entered, ALLOW)
    for line in found:
        print(line, file=sys.stderr)
    print(f"{len(RUNS)} runs entered {len(entered)} of {len(defined)} functions in src/xicube, "
          f"{len(ALLOW)} allowed unreached, {len(found)} problems, "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
