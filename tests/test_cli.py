import hashlib
import json
import os
import stat
import subprocess
import sys
import threading
import warnings
from math import isqrt

import pytest

import xicube
from xicube import RealContext, minimal_sequence
from xicube.cli import _COMMANDS, _parse, main
from xicube.errors import InvariantViolation, Undecidable
from xicube.lab import ExperimentConfig
from xicube.realctx import _LongInts

ROOT2 = "alg:x^4-2 in [1,2]"


def test_minpoints(tmp_path, capsys):
    csv_path = tmp_path / "seq.csv"
    rc = main(["minpoints", "--xi", ROOT2, "--bound", "200", "--csv", str(csv_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "(1, 1, 2)" in out and "(4, 5, 7)" in out
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "index,x0,x1,x2,norm,err"
    assert len(lines) == 7  # 6 points at this bound


def test_minpoints_err_at_low_precision(capsys):
    assert main(["minpoints", "--xi", ROOT2, "--bound", "100000", "--precision", "8",
                 "--max-bits", "768"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "13 minimal points with norm <= 100000"
    assert lines[12].startswith("  13  ") and lines[12].endswith("L~0.0370635197299")


def test_minpoints_missing_flag(capsys):
    assert main(["minpoints", "--xi", ROOT2]) == 2
    assert "bound" in capsys.readouterr().err


def test_unknown_command():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_dependent_xi_is_usage_error(capsys):
    assert main(["minpoints", "--xi", "alg:x^3-2 in [1,2]", "--bound", "50"]) == 2
    assert "dependent" in capsys.readouterr().err


def test_precision_abort_exit_code(capsys):
    assert main(["minpoints", "--xi", "dec:0.5", "--bound", "50"]) == 3
    assert "precision" in capsys.readouterr().err.lower()


def test_ring_dims(capsys):
    assert main(["ring-dims", "--lmax", "5", "--s-lmax", "4"]) == 0
    out = capsys.readouterr().out
    assert "all dimension cells PASS" in out


def test_ring_dims_marks_only_the_wrong_row(monkeypatch, capsys):
    import xicube.cli as cli

    right = cli.j_subspace_dims

    def wrong_at_r2(ell):
        row = right(ell)
        if ell == 2:
            row[1] += 1
        return row

    monkeypatch.setattr(cli, "j_subspace_dims", wrong_at_r2)
    assert main(["ring-dims", "--lmax", "4", "--s-lmax", "1"]) == 1
    captured = capsys.readouterr()
    failing = [line for line in captured.out.splitlines() if line.endswith("[FAIL]")]
    assert failing == ["R_2: dims k=0..4: [2, 2, 1, 0, 0]  [FAIL]"]
    assert captured.out.count("[PASS]") == 6
    assert captured.err.startswith("1 cells disagree")


# sha256 of the find-relation --json bytes for the D2, D3, D6 supports,
# recorded before the k_max search read the dimensions from one elimination
RELATION_JSON = {
    "D2": (6, "3,0;0,2", {"0": 2, "1": 1, "2": 1, "3": 0, "7": 0},
           "06ebce1d4a4002a9a759dc2f001e518571854bd7a7ffd889cf935e754b4d9d8f"),
    "D3": (6, "3,0;1,1;0,2", {"0": 3, "3": 1, "4": 0, "5": 0, "7": 0},
           "ae758df66ea8adfd004865c5436b09710f55971bbb00d1ec76c5a34dae1783fc"),
    "D6": (9, "4,0;3,1;2,1;1,2;0,2;0,3", {"0": 6, "5": 2, "6": 1, "7": 0, "10": 0},
           "6f1f121ab8c9e812d345af2303c8ddf308ecdbf8304e9aa9b39d2366d9b1e81b"),
    # the full basis of degree 6: a two-dimensional top space, so the whole basis is written
    "full6": (6, "0,0;0,1;0,2;1,0;1,1;2,0;3,0", {"0": 7, "3": 5, "5": 3, "6": 2, "7": 0},
              "27164a4923c81762ba9d8dd0d256fb1e4bc5c576cc9b8acb64a67989fdddfab1"),
}


@pytest.mark.parametrize("name", sorted(RELATION_JSON))
def test_find_relation_json_bytes_are_pinned(tmp_path, name):
    degree, support, dims_probed, digest = RELATION_JSON[name]
    out_json = tmp_path / "rel.json"
    assert main(["find-relation", "--degree", str(degree), "--support", support,
                 "--json", str(out_json)]) == 0
    data = out_json.read_bytes()
    assert json.loads(data)["dims_probed"] == dims_probed
    assert hashlib.sha256(data).hexdigest() == digest


def test_find_relation(tmp_path, capsys):
    out_json = tmp_path / "rel.json"
    rc = main(["find-relation", "--degree", "6", "--support", "3,0;0,2",
               "--json", str(out_json)])
    assert rc == 0
    payload = json.loads(out_json.read_text())
    assert payload["k_max"] == 2 and payload["dimension"] == 1
    assert payload["basis"] == ["deg=6; (0,2):27/1; (3,0):1/1"]


def test_special_family(tmp_path):
    out_json = tmp_path / "p1.json"
    rc = main(["special-family", "--ell", "1", "--json", str(out_json)])
    assert rc == 0
    payload = json.loads(out_json.read_text())
    assert payload["checks"] and all(payload["checks"].values())
    assert payload["a"] % 2 == 1 and payload["b"] % 2 == 1


def test_verify_identities_deterministic(capsys):
    assert main(["verify-identities", "--samples", "20", "--seed", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["verify-identities", "--samples", "20", "--seed", "3"]) == 0
    assert capsys.readouterr().out == first
    assert "FAIL" not in first


def test_run_command(tmp_path, capsys):
    csv_path, json_path = tmp_path / "pairs.csv", tmp_path / "run.json"
    rc = main(["run", "--xi", ROOT2, "--bound", "2000", "--csv", str(csv_path),
               "--json", str(json_path), "--reproducer", str(tmp_path / "r.json")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "suite divisibility: PASS" in out
    assert json_path.exists() and csv_path.exists()


def test_config_file_merge(tmp_path, capsys):
    cfg = tmp_path / "xicube.cfg"
    cfg.write_text(f"xi = {ROOT2}\nbound = 100  # comment\n")
    rc = main(["minpoints", "--config", str(cfg)])
    assert rc == 0
    assert "norm <= 100" in capsys.readouterr().out
    # explicit flag wins over the config value
    rc = main(["minpoints", "--config", str(cfg), "--bound", "10"])
    assert rc == 0
    assert "norm <= 10" in capsys.readouterr().out


@pytest.mark.parametrize("text,needle", [
    (f"xi = {ROOT2}\nbound = ten\n", "bound"),
    (f"xi = {ROOT2}\nbound = 100\nthredas = 2\n", "thredas"),
    (f"xi = {ROOT2}\nbound = 100\nthreads = 2\n", "threads"),
    (f"xi = {ROOT2}\nbound = 100 # caf\xe9\n", "xicube.cfg: 'utf-8' codec can't decode"),
])
def test_config_file_errors_exit_2(tmp_path, capsys, text, needle):
    cfg = tmp_path / "xicube.cfg"
    cfg.write_bytes(text.encode("latin-1"))
    assert main(["minpoints", "--config", str(cfg)]) == 2
    assert needle in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "absent.cfg"
    assert main(["minpoints", "--config", str(missing)]) == 2
    assert str(missing) in capsys.readouterr().err


def _raise_undecidable(*args, **kwargs):
    raise Undecidable("pair inequality still ambiguous at 4096 bits")


@pytest.mark.parametrize("xi,rc,error", [
    ("dec:0.5", 3, "PrecisionError"),
    ("alg:x^3-2 in [1,2]", 2, "DependenceError"),
    (ROOT2, 1, "Undecidable"),
])
@pytest.mark.filterwarnings("ignore:decimal xi spec")  # keeps stderr to the one error line
def test_failed_run_writes_reproducer(tmp_path, monkeypatch, capsys, xi, rc, error):
    import xicube.lab as lab

    if error == "Undecidable":  # no input reaches it through the suites, which catch it
        monkeypatch.setattr(lab, "lambda_hat_trace", _raise_undecidable)
    repro = tmp_path / "repro.json"
    argv = ["run", "--xi", xi, "--bound", "50", "--precision", "64", "--max-bits", "512",
            "--reproducer", str(repro)]
    assert main(argv) == rc
    message = capsys.readouterr().err.strip().split(": ", 1)[1]
    assert json.loads(repro.read_text()) == {
        "xi": xi, "norm_bound": 50, "precision_bits": 64, "max_bits": 512,
        "error": error, "message": message,
    }


def _raise_value_error(*args, **kwargs):
    raise ValueError("an internal fault, not a usage error")


def test_unexpected_value_error_exits_1_with_reproducer(tmp_path, monkeypatch, capsys):
    import xicube.lab as lab

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(lab, "lambda_hat_trace", _raise_value_error)
    assert main(["run", "--xi", ROOT2, "--bound", "200"]) == 1
    assert "an internal fault" in capsys.readouterr().err
    payload = json.loads((tmp_path / "xicube_reproducer.json").read_text())
    assert payload["error"] == "ValueError" and payload["norm_bound"] == 200


@pytest.mark.parametrize("command", ["run", "minpoints"])
@pytest.mark.parametrize("flag", ["--csv", "--json"])
def test_unwritable_output_exits_1_on_one_line(tmp_path, monkeypatch, capsys, command, flag):
    monkeypatch.chdir(tmp_path)
    target = tmp_path / "missing" / "out"
    assert main([command, "--xi", ROOT2, "--bound", "200", flag, str(target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1
    written = sorted(path.name for path in tmp_path.iterdir())
    if command == "run":  # an output error is not a usage error: it leaves a reproducer
        assert written == ["xicube_reproducer.json"]
        payload = json.loads((tmp_path / "xicube_reproducer.json").read_text())
        assert payload["error"] == "OutputError" and payload["message"] == err[7:-1]
    else:
        assert written == []


@pytest.mark.filterwarnings("ignore:decimal xi spec")
def test_unwritable_reproducer_keeps_the_run_error(tmp_path, capsys):
    argv = ["run", "--xi", "dec:2.5", "--bound", "2700", "--reproducer"]
    assert main(argv + [str(tmp_path / "r.json")]) == 3
    own = capsys.readouterr().err
    assert own.startswith("precision ceiling: ") and own.count("\n") == 1
    target = tmp_path / "missing" / "r.json"
    assert main(argv + [str(target)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2 and lines[0] + "\n" == own
    assert lines[1].startswith(f"no reproducer: cannot write {target}: ")


D2_RELATION = ["find-relation", "--degree", "6", "--support", "3,0;0,2", "--json"]


def test_json_through_a_symlink_writes_its_target(tmp_path):
    real, link = tmp_path / "real.json", tmp_path / "link.json"
    real.write_text("old\n")
    link.symlink_to("real.json")
    assert main(D2_RELATION + [str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == "real.json"
    assert json.loads(real.read_text())["k_max"] == 2
    assert sorted(path.name for path in tmp_path.iterdir()) == ["link.json", "real.json"]


def test_json_to_a_fifo_is_written_in_place(tmp_path):
    fifo = tmp_path / "fifo.json"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert main(D2_RELATION + [str(fifo)]) == 0
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    assert got and json.loads(got[0])["k_max"] == 2
    assert [path.name for path in tmp_path.iterdir()] == ["fifo.json"]


@pytest.mark.parametrize("command", ["run", "minpoints"])
def test_warning_raised_as_error_exits_2(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--xi", "dec:3.14159265358979", "--bound", "300"]) == 2
    assert capsys.readouterr().err == ("error: decimal xi spec: linear independence of "
                                       "1, xi, xi^3 is assumed, not proved\n")
    assert list(tmp_path.iterdir()) == []  # no reproducer


def test_passing_run_writes_no_reproducer(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--xi", ROOT2, "--bound", "200"]) == 0
    assert list(tmp_path.iterdir()) == []


def test_minpoints_json_bytes_are_pinned(tmp_path):
    out_json = tmp_path / "seq.json"
    assert main(["minpoints", "--xi", ROOT2, "--bound", "200", "--json", str(out_json)]) == 0
    assert hashlib.sha256(out_json.read_bytes()).hexdigest() == (
        "afae74db6f17b2aa9a2bb5b22d81dc3a2861012681bd5e4b89ed2a91a938674d")


@pytest.mark.parametrize("argv,name", [
    (["run", "--xi", ROOT2, "--bound", "200", "--window", "0"], "window"),
    (["run", "--xi", ROOT2, "--bound", "200", "--window", "-3"], "window"),
    (["minpoints", "--xi", ROOT2, "--bound", "200", "--precision", "0"], "precision"),
    (["minpoints", "--xi", ROOT2, "--bound", "200", "--max-bits", "0"], "max_bits"),
    (["verify-identities", "--samples", "0"], "samples"),
    (["ring-dims", "--lmax", "-1"], "--lmax"),
    (["ring-dims", "--s-lmax", "-1"], "--s-lmax"),
    (["special-family", "--ell", "0"], "ell"),
    (["run", "--xi", "alg:x^4-2 in [2,3]", "--bound", "200"], "0 real roots"),
    (["run", "--xi", "alg:x^4-2 in [a,2]", "--bound", "200"], "endpoint"),
])
def test_value_out_of_range_is_usage_error(tmp_path, monkeypatch, capsys, argv, name):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert name in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("line,name", [
    ("window = 0", "window"),
    ("epsilon = -1/10", "epsilon"),
    ("epsilon = abc", "argument --epsilon: 'abc' is not a rational number"),
    ("config = other.cfg", "another config"),
    ("suites = divisibility", "unrecognized argument '--suites=divisibility' for run"),
])
def test_bad_config_value_exits_2(tmp_path, monkeypatch, capsys, line, name):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "xicube.cfg"
    cfg.write_text(f"xi = {ROOT2}\nbound = 200\n{line}\n")
    assert main(["run", "--config", str(cfg)]) == 2
    assert name in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


def test_explicit_epsilon_wins_over_config(tmp_path):
    cfg, json_path = tmp_path / "xicube.cfg", tmp_path / "run.json"
    cfg.write_text(f"xi = {ROOT2}\nbound = 200\nepsilon = 1/5\njson = {json_path}\n")
    assert main(["run", "--config", str(cfg), "--epsilon", "1/3"]) == 0
    config = json.loads(json_path.read_text())["config"]
    assert (config["epsilon"], config["norm_bound"]) == ("1/3", 200)


@pytest.mark.parametrize("support,chunk", [("3", "3"), ("3,0,1", "3,0,1"), ("3,0;a,b", "a,b")])
def test_malformed_support_pair_is_usage_error(tmp_path, capsys, support, chunk):
    with pytest.raises(SystemExit) as exc:
        main(["find-relation", "--degree", "6", "--support", support])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert repr(chunk) in err and "m,n" in err
    cfg = tmp_path / "xicube.cfg"
    cfg.write_text(f"degree = 6\nsupport = {support}\n")
    assert main(["find-relation", "--config", str(cfg)]) == 2
    assert repr(chunk) in capsys.readouterr().err


def test_failed_suite_exits_1_with_reproducer(tmp_path, monkeypatch, capsys):
    import xicube.lab as lab

    monkeypatch.setattr(lab, "pair_checks", lambda rec: {"q2_divides_a": False})
    repro = tmp_path / "repro.json"
    assert main(["run", "--xi", ROOT2, "--bound", "2000", "--reproducer", str(repro)]) == 1
    assert "invariant FAILED" in capsys.readouterr().err
    assert json.loads(repro.read_text())["failed_checks"] == ["q2_divides_a"]


def test_pair_record_violation_exits_1_with_reproducer(tmp_path, monkeypatch, capsys):
    import xicube.lab as lab

    message = "V of a pair must equal S of the next pair"

    def broken_records(seq, indep):
        # a data key that names a setting loses to the run's own setting
        raise InvariantViolation(message, {"pair": (1, 2), "next": (2, 3), "norm_bound": 1})

    monkeypatch.setattr(lab, "build_pair_records", broken_records)
    repro = tmp_path / "repro.json"
    assert main(["run", "--xi", ROOT2, "--bound", "2000", "--reproducer", str(repro)]) == 1
    assert capsys.readouterr().err == f"invariant FAILED: {message}\n"
    cfg = ExperimentConfig(xi=ROOT2)
    assert json.loads(repro.read_text()) == {
        "xi": ROOT2, "norm_bound": 2000, "precision_bits": cfg.precision_bits,
        "max_bits": cfg.max_bits, "error": "InvariantViolation", "message": message,
        "pair": [1, 2], "next": [2, 3],
    }


@pytest.mark.parametrize("flag,message", [
    ("--epsilon=abc", "'abc' is not a rational number"),
    ("--epsilon=1/0", "'1/0' is not a rational number"),
    ("--epsilon=0", "must be positive, got 0"),
    ("--epsilon=-1/10", "must be positive, got -1/10"),
])
def test_bad_epsilon_names_the_flag(tmp_path, monkeypatch, capsys, flag, message):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["run", "--xi", ROOT2, "--bound", "200", flag])
    assert exc.value.code == 2
    assert f"argument --epsilon: {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_epsilon_is_echoed_as_written(tmp_path):
    json_path = tmp_path / "run.json"
    assert main(["run", "--xi", ROOT2, "--bound", "200", "--epsilon", "2/20",
                 "--json", str(json_path)]) == 0
    assert json.loads(json_path.read_text())["config"]["epsilon"] == "2/20"


PI60 = "dec:3.141592653589793238462643383279502884197169399375105820974944"


# SHA-256 of pairs.csv and summary.json: the paper runs' copied from
# PAPER_DIGESTS in bench/workloads.py, where the benchmark's paper_xi workload
# checks them; root2 at 10**100 certifies its errors at up to 384 bits and
# their positive lower ends at up to 768, which the runs above never reach
@pytest.mark.parametrize("spec,bound,digests", [
    (ROOT2, 16_000,
     ("3560d7b44846245a5a2667f85dad92e633705bbd64c72446640573b76d39074c",
      "b52c57140c90c376ee3ef66fb631ad2a96080b71c703ad4b4de3f04610247064")),
    ("alg:x^4-x-1 in [1.2,1.3]", 12_000,
     ("4723372121acd41b0141b2499824773753249ee9b079d9779d5e240aeed55ecd",
      "9c4311260843be1f5390f77886f4a0f1e915cf52e0009ed4f28d6cdeee590951")),
    (PI60, 25_000,
     ("7c3d4496ab6c56d2ec0011108e673d11271bef4ae31ee472a2ce2baff7f97552",
      "7aed4b3d3ef64b6616a1245806da6de9a06bb13528c4be3c3b5d3144b1a240d8")),
    (ROOT2, 10**100,
     ("db584a81b0928398db82a05537edd2818816caebc818c856af9b5ea4fccd36d5",
      "5be625efca82ecd205924b4e80a4e562b67b85be55a4a24234ec7229d0672044")),
], ids=["root2", "quartic", "pi60", "root2-1e100"])
@pytest.mark.filterwarnings("ignore:decimal xi spec")
def test_paper_run_bytes_are_pinned(tmp_path, monkeypatch, spec, bound, digests):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--xi", spec, "--bound", str(bound),
                 "--csv", "pairs.csv", "--json", "summary.json"]) == 0
    got = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in ("pairs.csv", "summary.json"))
    assert got == digests


@pytest.mark.filterwarnings("ignore:decimal xi spec")
def test_literal_past_the_str_limit_runs(tmp_path, monkeypatch):
    # 5000 digits of 2^(1/4): more than the 4300 Python 3.11 turns into an int
    with _LongInts():
        digits = str(isqrt(isqrt(2 * 10 ** (4 * 4999))))
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--xi", f"dec:{digits[0]}.{digits[1:]}", "--bound", "100000",
                 "--csv", "pairs.csv", "--json", "summary.json"]) == 0
    got = [p["point"] for p in json.loads((tmp_path / "summary.json").read_text())["sequence"]]
    want = [list(p.point) for p in minimal_sequence(RealContext(ROOT2), 100_000)]
    assert got == want


def test_commands_do_not_import_mpmath(tmp_path):
    argvs = [
        ["ring-dims"],
        ["special-family", "--ell", "2"],
        ["find-relation", "--degree", "6", "--support", "3,0;0,2"],
        ["verify-identities", "--samples", "5"],
        ["run", "--xi", ROOT2, "--bound", "2000"],
        ["run", "--xi", PI60, "--bound", "2000"],
    ]
    # the parser, gettext and the source-line display of warnings stay unloaded
    unwanted = ["argparse", "gettext", "locale", "linecache", "tokenize"]
    code = ("import sys\nfrom xicube.cli import main\n"
            f"for argv in {argvs!r}:\n    assert main(argv) == 0, argv\n"
            f"print([m for m in {unwanted!r} if m in sys.modules])\n"
            "print('mpmath' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(xicube.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.splitlines()[-2] == "[]"
    assert out.stdout.splitlines()[-1] == "False"


def test_cli_import_loads_no_heavy_modules(tmp_path):
    heavy = ["dataclasses", "inspect", "ast", "dis", "tokenize", "mpmath", "sympy",
             "argparse", "gettext", "locale", "linecache"]
    code = f"import sys, xicube.cli\nprint([m for m in {heavy!r} if m in sys.modules])\n"
    src = os.path.dirname(os.path.dirname(xicube.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


def test_run_defaults_are_the_config_defaults(capsys):
    cfg = ExperimentConfig(xi=ROOT2)
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    shown = " ".join(capsys.readouterr().out.split())
    for value in (cfg.precision_bits, cfg.max_bits, cfg.epsilon, cfg.lambda_window,
                  cfg.reproducer_path):
        assert f"(default {value})" in shown
    args = _parse(["run"])
    assert (args.precision, args.max_bits, args.epsilon, args.window,
            args.reproducer) == (cfg.precision_bits, cfg.max_bits, cfg.epsilon,
                                 cfg.lambda_window, cfg.reproducer_path)


def test_flag_forms_and_prefixes_parse_alike():
    full = vars(_parse(["minpoints", "--xi", ROOT2, "--precision", "8", "--max-bits", "768"]))
    assert full["precision"] == 8 and full["max_bits"] == 768
    assert vars(_parse(["minpoints", f"--xi={ROOT2}", "--precision=8", "--max-bits=768"])) == full
    assert vars(_parse(["minpoints", "--xi", ROOT2, "--prec", "8", "--max=768"])) == full
    for _, _, flags in _COMMANDS.values():  # so a full name is never ambiguous
        assert not [(a, b) for a in flags for b in flags if a != b and b.startswith(a)]


def test_prefix_is_a_config_key(tmp_path, capsys):
    cfg = tmp_path / "xicube.cfg"
    cfg.write_text(f"xi = {ROOT2}\nbound = 200\nprec = 3\n")
    assert main(["minpoints", "--config", str(cfg)]) == 2
    from_config = capsys.readouterr().err
    assert main(["minpoints", "--xi", ROOT2, "--bound", "200", "--prec", "3"]) == 2
    assert capsys.readouterr().err == from_config
    assert "precision" in from_config


@pytest.mark.parametrize("argv,needle", [
    (["verify-identities", "--s", "5"], "ambiguous option '--s'"),
    (["run", "--xi", ROOT2, "--bogus", "1"], "'--bogus'"),
    (["run", "--xi", ROOT2, "--bogus=1"], "'--bogus=1'"),
    (["ring-dims", "--lmax"], "argument --lmax"),
    (["ring-dims", "--lmax", "--s-lmax", "2"], "argument --lmax"),
    (["ring-dims", "3"], "'3'"),
    (["run", "--xi", ROOT2, "--suites", "divisibility"], "unrecognized argument '--suites'"),
])
def test_bad_flags_exit_2_naming_the_token(capsys, argv, needle):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert needle in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["-h"]] + [[name, "--help"] for name in _COMMANDS])
def test_help_lists_every_flag_with_its_default(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in _COMMANDS if argv[0].startswith("-") else argv[:1]:
        section = out.split(f"xicube {name}: ")[1].split("\n\n")[0]
        lines = {line.split()[0]: line for line in section.splitlines()[1:]}
        flags = _COMMANDS[name][2]
        assert sorted(lines) == sorted(f"--{flag}" for flag in flags)
        for flag, (_, default, _) in flags.items():
            if default is not None:
                assert lines[f"--{flag}"].endswith(f"(default {default})")
