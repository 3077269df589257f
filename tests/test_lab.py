import json
import sys
from fractions import Fraction

import pytest

from xicube import ExperimentConfig, Interval, SupportSet, run_experiment
from xicube.errors import InvariantViolation
from xicube.lab import (dump_json, height_checks, lambda_hat_trace, lambda_hat_window_min,
                        positive_errors, write_atomically)
from xicube.minimal import (MinimalPoint, PairRecord, build_pair_records,
                            independence_set, minimal_sequence)
from xicube.realctx import AlgebraicXi, DecimalXi
from xicube.rigor import lambda_hat
from xicube.search import prop8_decide

ROOT2 = "alg:x^4-2 in [1,2]"


def test_threshold_constants_match_mpmath():
    from mpmath import mp

    from xicube.constants import threshold_constants

    with mp.workdps(50):
        ref = {
            "mu": 2 * (9 + mp.sqrt(11)) / 35,
            "lambda0": (1 + 3 * mp.sqrt(5)) / 11,
            "threshold_sqrt13": (5 - mp.sqrt(13)) / 2,
            "threshold_sqrt3": mp.sqrt(3) - 1,
            "five_sevenths": mp.mpf(5) / 7,
            "beta0": (5 + 3 * mp.sqrt(5)) / 2,
            "nu": 2 + mp.sqrt(11),
        }
        assert threshold_constants() == {k: mp.nstr(v, 48) for k, v in sorted(ref.items())}


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(xi=ROOT2, norm_bound=0)
    with pytest.raises(ValueError):
        ExperimentConfig(xi=ROOT2, epsilon="0")
    with pytest.raises(ValueError):
        ExperimentConfig(xi=ROOT2, suites=("divisibility", "nosuch"))


@pytest.mark.parametrize("record,field", [
    (ExperimentConfig(xi=ROOT2), "norm_bound"),
    (SupportSet(6, ((3, 0), (0, 2))), "pairs"),
    (MinimalPoint(1, (1, 1, 1), 1, Interval(0), Interval(0)), "err"),
    (PairRecord(*range(21)), "height_sq"),
    (DecimalXi("1.5"), "digits"),
    (AlgebraicXi((-2, 0, 1), Fraction(1), Fraction(2)), "lo"),
], ids=["ExperimentConfig", "SupportSet", "MinimalPoint", "PairRecord", "DecimalXi",
        "AlgebraicXi"])
def test_records_are_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


def test_window_must_be_positive():
    with pytest.raises(ValueError, match="lambda_window"):
        ExperimentConfig(xi=ROOT2, lambda_window=0)


def test_estimate_on_synthetic_half_power():
    # L_i = X_{i+1}^(-1/2) exactly: the estimate must pin 1/2
    trace = []
    for k in (10, 20, 40, 80):
        enclosure, _mid = lambda_hat(Interval(Fraction(1, k)), k * k)
        trace.append({"lo": str(enclosure.lo), "hi": str(enclosure.hi)})
    est = lambda_hat_window_min(trace, 4)
    lo, hi = Fraction(est["lo"]), Fraction(est["hi"])
    assert lo <= Fraction(1, 2) <= hi
    assert hi - lo < Fraction(1, 10**12)
    assert est["window"] == 4


def test_dirichlet_floor(ctx_root2):
    seq = minimal_sequence(ctx_root2, 100_000)
    est = lambda_hat_window_min(lambda_hat_trace(seq, positive_errors(ctx_root2, seq)), 8)
    assert Fraction(est["lo"]) >= Fraction(1, 3) - Fraction(5, 100)


def test_lambda_trace_fields(ctx_root2):
    seq = minimal_sequence(ctx_root2, 5000)
    trace = lambda_hat_trace(seq, positive_errors(ctx_root2, seq))
    assert [e["i"] for e in trace] == list(range(1, len(seq)))
    for e in trace:
        assert Fraction(e["lo"]) <= Fraction(e["hi"])


def test_monitors_certify_each_error_once(monkeypatch):
    from xicube import lab

    certified = []
    approx_error = lab.approx_error

    def counting(point, ctx, bits=None):
        certified.append(point)
        return approx_error(point, ctx, bits)

    monkeypatch.setattr(lab, "approx_error", counting)
    report = run_experiment(ExperimentConfig(xi=ROOT2, norm_bound=16_000))
    # one call per point but the last, read by lambda_hat and the height
    # ratio alike; a second certification per pair would add len(records)
    assert len(report.records) == 7
    assert certified == [p.point for p in report.sequence[:-1]]


def test_height_checks(ctx_root2):
    seq = minimal_sequence(ctx_root2, 20_000)
    records = build_pair_records(seq, independence_set(seq))
    out = height_checks(seq, records, positive_errors(ctx_root2, seq))
    assert out["cross_primitive_all"] and out["cross_ratio_all"]
    assert float(out["ratio_min"]) > 0


def test_report_level_operations():
    cfg = ExperimentConfig(xi=ROOT2, norm_bound=5000)
    rep = run_experiment(cfg)
    est = rep.monitors["lambda_hat_window_min"]
    assert 0 < Fraction(est["lo"]) < Fraction(est["hi"]) < 2
    assert est["window"] == min(cfg.lambda_window, len(rep.sequence) - 1)
    assert len(rep.lambda_hat) == len(rep.sequence) - 1
    assert all(rep.monitors[f"heights_{k}"] for k in ("cross_primitive_all",
                                                       "cross_ratio_all"))


def test_run_experiment_and_determinism(tmp_path):
    csv_path, json_path = tmp_path / "a.csv", tmp_path / "a.json"
    cfg = ExperimentConfig(xi=ROOT2, norm_bound=2000, csv_path=str(csv_path),
                           json_path=str(json_path))
    rep = run_experiment(cfg)
    first = (csv_path.read_bytes(), json_path.read_bytes())
    run_experiment(cfg)
    assert (csv_path.read_bytes(), json_path.read_bytes()) == first
    assert rep.suites["divisibility"] == "PASS"
    assert rep.suites["heights"] == "PASS"
    payload = json.loads(json_path.read_text())
    assert payload["counts"]["sequence"] == len(rep.sequence)
    assert "mu" in payload["constants"] and "nu" in payload["constants"]
    assert payload["constants"]["mu"].startswith("0.70")


def test_csv_schema(tmp_path):
    cfg = ExperimentConfig(xi=ROOT2, norm_bound=2000,
                           csv_path=str(tmp_path / "pairs.csv"))
    run_experiment(cfg)
    header = (tmp_path / "pairs.csv").read_text().splitlines()[0].split(",")
    for col in ("i", "j", "X_i", "X_ip1", "X_j", "p", "q", "S", "T", "U", "V",
                "A", "B", "F", "D2", "D3", "D6", "lambda_hat", "rho"):
        assert col in header
    assert any(col.startswith("q2_divides") for col in header)


def test_writers_print_integers_past_the_str_limit(tmp_path):
    # deep runs hold pair integers of more than the 4300 digits Python 3.11
    # turns into text by default
    rep = run_experiment(ExperimentConfig(xi=ROOT2, norm_bound=2000))
    huge, digits = 10**5000 + 1, "1" + "0" * 4999 + "1"
    rep = rep._replace(records=[rep.records[0]._replace(d6=huge)] + rep.records[1:])
    limit = sys.get_int_max_str_digits()
    rep.write_csv(str(tmp_path / "pairs.csv"))
    rows = (tmp_path / "pairs.csv").read_text().splitlines()
    assert rows[1].split(",")[rows[0].split(",").index("D6")] == digits
    dump_json(str(tmp_path / "big.json"), {"D6": huge})
    assert json.loads((tmp_path / "big.json").read_text().replace(digits, "7")) == {"D6": 7}
    assert sys.get_int_max_str_digits() == limit


def test_prop8_decided_on_real_pair():
    # this number produces a pair with q = 5, so the inequality test
    # actually runs instead of being precondition-skipped
    cfg = ExperimentConfig(xi="alg:x^4-10*x-1 in [2,3]", norm_bound=100_000)
    rep = run_experiment(cfg)
    verdicts = {p["verdict"] for p in rep.prop8}
    assert verdicts & {"holds", "fails"}
    decided = [p for p in rep.prop8 if p["verdict"] in ("holds", "fails")]
    assert all(set(p["diagnostics"]) == {"f", "s", "t", "sigma"} for p in decided)


@pytest.mark.parametrize("prec", [30, 300])
def test_outputs_ignore_global_iv_precision(tmp_path, prec):
    # reports and pair-inequality diagnostics must not depend on mpmath's
    # process-wide interval precision, nor change it
    from mpmath import iv

    def outputs():
        out = []
        for xi, bound in (("alg:x^4-x-1 in [1.2,1.3]", 12_000),
                          ("alg:x^4-10*x-1 in [2,3]", 100_000)):
            cfg = ExperimentConfig(xi=xi, norm_bound=bound,
                                   csv_path=str(tmp_path / "pairs.csv"),
                                   json_path=str(tmp_path / "summary.json"))
            run_experiment(cfg)
            out.append((tmp_path / "pairs.csv").read_bytes())
            out.append((tmp_path / "summary.json").read_bytes())
        out.append(prop8_decide(1000, 1, 1, 5, Fraction(1, 10)))
        out.append(prop8_decide(10, 100, 1000, 11, 0))
        return out

    expected = outputs()
    old = iv.prec
    iv.prec = prec
    try:
        assert outputs() == expected
        assert iv.prec == prec
    finally:
        iv.prec = old


def test_suite_toggles():
    cfg = ExperimentConfig(xi=ROOT2, norm_bound=2000, suites=("divisibility",))
    rep = run_experiment(cfg)
    assert rep.suites == {"divisibility": "PASS", "heights": "SKIPPED",
                          "prop8": "SKIPPED"}


def test_failure_dumps_reproducer(tmp_path, monkeypatch):
    from xicube import lab

    def broken_checks(rec):
        return {"q2_divides_a": False}

    monkeypatch.setattr(lab, "pair_checks", broken_checks)
    repro = tmp_path / "repro.json"
    cfg = ExperimentConfig(xi=ROOT2, norm_bound=2000, reproducer_path=str(repro))
    with pytest.raises(InvariantViolation):
        lab.run_experiment(cfg)
    text = repro.read_text()
    assert text.endswith("}\n")  # written by lab.dump_json like every JSON output
    payload = json.loads(text)
    assert payload["failed_checks"] == ["q2_divides_a"]
    assert payload["xi"] == ROOT2 and "pair" in payload


def test_height_failure_dumps_reproducer(tmp_path, monkeypatch):
    from xicube import lab

    failing = {"cross_primitive_all": True, "cross_ratio_all": False,
               "ratio_min": "", "ratio_max": ""}
    monkeypatch.setattr(lab, "height_checks", lambda seq, records, errs: failing)
    repro = tmp_path / "repro.json"
    cfg = ExperimentConfig(xi=ROOT2, norm_bound=2000, reproducer_path=str(repro))
    with pytest.raises(InvariantViolation):
        lab.run_experiment(cfg)
    assert json.loads(repro.read_text())["heights"] == failing


def _half_then_fail(fh):
    fh.write("index,x0\n1,1\n")
    raise RuntimeError("writer failed halfway")


def test_failed_writer_leaves_no_file(tmp_path):
    target = tmp_path / "out.csv"
    with pytest.raises(RuntimeError):
        write_atomically(str(target), _half_then_fail, newline="")
    with pytest.raises(TypeError):  # json.dump stops at the object after writing "a"
        dump_json(str(tmp_path / "out.json"), {"a": 1, "b": object()})
    assert list(tmp_path.iterdir()) == []
    # a failed rewrite keeps the complete file that was there
    dump_json(str(target), [1, 2])
    with pytest.raises(RuntimeError):
        write_atomically(str(target), _half_then_fail)
    assert list(tmp_path.iterdir()) == [target]
    assert target.read_text() == "[\n  1,\n  2\n]\n"
