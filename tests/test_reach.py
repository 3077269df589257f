"""The reachability guard tests/reach.py: it passes on the package, and fails
on an unreached function or a stale allow-list entry."""

import subprocess
import sys
from pathlib import Path

import reach


def test_every_function_is_entered_by_a_subcommand_or_allowed():
    guard = Path(reach.__file__)
    done = subprocess.run([sys.executable, str(guard)], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert " 0 problems" in done.stdout


def test_guard_fails_on_an_unreached_function_and_on_stale_entries():
    defined = {"m.used", "m.seam", "m.unused", "m.now_used"}
    entered = {"m.used", "m.now_used"}
    allow = {"m.seam": "kept", "m.gone": "deleted since", "m.now_used": "entered since"}
    found = reach.problems(defined, entered, allow)
    assert len(found) == 3
    assert found[0].startswith("no run enters m.unused;")
    assert found[1] == "stale ALLOW entry m.gone: no such function"
    assert found[2] == "stale ALLOW entry m.now_used: a run enters it"
    assert reach.problems(defined, entered | {"m.unused"}, {"m.seam": "kept"}) == []


def test_every_def_is_named_once_a_decorated_one_at_both_lines():
    names = reach.defined_functions()
    keys = {(Path(file).name, line) for (file, line, _name), dotted in names.items()
            if dotted == "intervals.Interval.lo"}
    assert len(keys) == 2  # the @property line and the def line
    assert "search.prop8_decide.diff" in names.values()
    assert set(reach.ALLOW) <= set(names.values())
