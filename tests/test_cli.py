import hashlib
import json

import pytest

from xicube.cli import main
from xicube.errors import Undecidable

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
])
def test_config_file_errors_exit_2(tmp_path, capsys, text, needle):
    cfg = tmp_path / "xicube.cfg"
    cfg.write_text(text)
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


def test_passing_run_writes_no_reproducer(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--xi", ROOT2, "--bound", "200"]) == 0
    assert list(tmp_path.iterdir()) == []
