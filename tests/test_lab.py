import hashlib
import json
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xicube import ExperimentConfig, Interval, SupportSet, run_experiment
from xicube.errors import InvariantViolation, OutputError
from xicube.lab import (dump_json, height_checks, lambda_hat_trace, lambda_hat_window_min,
                        positive_errors, to_json, write_atomically)
from xicube.minimal import (MinimalPoint, PairRecord, build_pair_records,
                            independence_set, minimal_sequence, pair_checks)
from xicube.realctx import AlgebraicXi, DecimalXi, _LongInts
from xicube.rigor import Logs, lambda_hat
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
    trace = [(k, *lambda_hat(Interval(Fraction(1, k)), Logs()[k * k])) for k in (10, 20, 40, 80)]
    est = lambda_hat_window_min(trace, 4)
    lo, hi = Fraction(est["lo"]), Fraction(est["hi"])
    assert lo <= Fraction(1, 2) <= hi
    assert hi - lo < Fraction(1, 10**12)
    assert est["window"] == 4


def test_dirichlet_floor(ctx_root2):
    seq = minimal_sequence(ctx_root2, 100_000)
    est = lambda_hat_window_min(lambda_hat_trace(seq, positive_errors(ctx_root2, seq), Logs()), 8)
    assert Fraction(est["lo"]) >= Fraction(1, 3) - Fraction(5, 100)


def test_lambda_trace_fields(ctx_root2):
    seq = minimal_sequence(ctx_root2, 5000)
    trace = lambda_hat_trace(seq, positive_errors(ctx_root2, seq), Logs())
    assert [i for i, _, _ in trace] == list(range(1, len(seq)))
    for _, enclosure, mid in trace:
        assert enclosure.lo <= enclosure.hi
        assert abs(Fraction(mid) - enclosure.lo) < Fraction(1, 10**12)


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
    checks = [pair_checks(rec) for rec in records]
    out = height_checks(seq, records, checks, positive_errors(ctx_root2, seq))
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


def test_unwritten_reproducer_leaves_the_failure_its_own(tmp_path, monkeypatch):
    from xicube import lab

    monkeypatch.setattr(lab, "pair_checks", lambda rec: {"q2_divides_a": False})
    target = tmp_path / "missing" / "repro.json"
    cfg = ExperimentConfig(xi=ROOT2, norm_bound=2000, reproducer_path=str(target))
    with pytest.raises(InvariantViolation, match="exact invariant failed") as info:
        lab.run_experiment(cfg)
    assert info.value.reproducer["failed_checks"] == ["q2_divides_a"]
    (note,) = info.value.__notes__
    assert note.startswith(f"no reproducer: cannot write {target}: ")


def test_height_failure_dumps_reproducer(tmp_path, monkeypatch):
    from xicube import lab

    failing = {"cross_primitive_all": True, "cross_ratio_all": False,
               "ratio_min": "", "ratio_max": ""}
    monkeypatch.setattr(lab, "height_checks", lambda seq, records, checks, errs: failing)
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
    with pytest.raises(TypeError):  # raised while the text is built, before any file opens
        dump_json(str(tmp_path / "out.json"), {"a": 1, "b": object()})
    assert list(tmp_path.iterdir()) == []
    # a failed rewrite keeps the complete file that was there
    dump_json(str(target), [1, 2])
    with pytest.raises(RuntimeError):
        write_atomically(str(target), _half_then_fail)
    assert list(tmp_path.iterdir()) == [target]
    assert target.read_text() == "[\n  1,\n  2\n]\n"


def test_each_log_is_computed_once_per_run(tmp_path, monkeypatch):
    from xicube import rigor

    calls = []
    log_bounds = rigor._log_bounds

    def counting(man, exp, prec):
        calls.append((man, exp, prec))
        return log_bounds(man, exp, prec)

    monkeypatch.setattr(rigor, "_log_bounds", counting)
    monkeypatch.chdir(tmp_path)
    run_experiment(ExperimentConfig(xi=ROOT2, norm_bound=16_000, csv_path="pairs.csv",
                                    json_path="summary.json"))
    # the norms and |q| are logged once each, and every error end once
    assert calls and Counter(calls).most_common(1)[0][1] == 1
    # the root2 digests of PAPER_DIGESTS in bench/workloads.py
    got = [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in ("pairs.csv", "summary.json")]
    assert got == ["3560d7b44846245a5a2667f85dad92e633705bbd64c72446640573b76d39074c",
                   "b52c57140c90c376ee3ef66fb631ad2a96080b71c703ad4b4de3f04610247064"]


# strings of every code point, lone surrogates and control characters included
_text = st.text(st.characters(exclude_categories=()), max_size=8)
_scalars = (st.none() | st.booleans() | st.integers() | st.floats() | _text
            # integers past the 4300 digits Python turns into text by default
            | st.builds(lambda e, k: k * 10**e + 1, st.integers(4300, 4400), st.integers(-9, 9)))
_keys = st.one_of(_text, st.integers(), st.floats(), st.booleans(), st.none())
_payloads = st.recursive(_scalars, lambda kids: (
    st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(_text, kids, max_size=4) | st.dictionaries(_keys, kids, max_size=3)),
    max_leaves=20)


@settings(max_examples=300)
@given(_payloads)
@example({"": [], "\x00\x1f\x7f\"\\\u00e9\U0001f600\ud800": {}, "b": (), "a": [{}]})
@example({1: True, 2.5: None, -1: [1.5, float("nan"), float("inf"), -float("inf")]})
@example({True: 1, None: 2, False: 3.0})
def test_json_writer_matches_json_dumps(payload):
    with _LongInts():
        try:
            want = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        except TypeError:  # keys of types that do not sort
            with pytest.raises(TypeError):
                to_json(payload)
            return
    assert to_json(payload) == want


@pytest.mark.parametrize("payload", [object(), [Fraction(1, 2)], {"a": {1, 2}}, {"a": b"x"},
                                     {(1, 2): 3}, {1: 2, "a": 3}, {"x": [1, {"y": object()}]}],
                         ids=["object", "fraction", "set", "bytes", "tuple-key", "mixed-keys",
                              "nested"])
def test_json_writer_rejects_what_json_dumps_rejects(payload):
    with pytest.raises(TypeError):
        json.dumps(payload, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        to_json(payload)


def test_one_pass_writes_the_bytes_of_each_file_alone(tmp_path):
    rep = run_experiment(ExperimentConfig(xi=ROOT2, norm_bound=16_000,
                                          csv_path=str(tmp_path / "both.csv"),
                                          json_path=str(tmp_path / "both.json")))
    rep.write_csv(str(tmp_path / "alone.csv"))
    rep.write_json(str(tmp_path / "alone.json"))
    for ext in ("csv", "json"):
        assert (tmp_path / f"both.{ext}").read_bytes() == (tmp_path / f"alone.{ext}").read_bytes()


@pytest.mark.parametrize("missing", ["csv", "json"])
def test_one_pass_leaves_neither_file_when_one_cannot_be_written(tmp_path, missing):
    paths = {ext: tmp_path / ("missing" if ext == missing else ".") / f"out.{ext}"
             for ext in ("csv", "json")}
    cfg = ExperimentConfig(xi=ROOT2, norm_bound=2000, csv_path=str(paths["csv"]),
                           json_path=str(paths["json"]),
                           reproducer_path=str(tmp_path / "repro.json"))
    with pytest.raises(OutputError, match=f"cannot write {paths[missing]}"):
        run_experiment(cfg)
    assert [p.name for p in tmp_path.iterdir()] == ["repro.json"]
