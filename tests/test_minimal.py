import hashlib
import logging
from itertools import product

import pytest
from conftest import QUARTIC, ROOT2, pi_prefix_spec
from hypothesis import given
from hypothesis import strategies as st
from oracle import brute_force_minimal_points, linear_scan_minimal_points

from xicube import (DependenceError, Interval, MinimalPoint, NotInSpan,
                    PrecisionError, RealContext, build_pair_records, candidate_for, cross,
                    decompose_pair, independence_set, minimal_sequence,
                    pair_checks)
from xicube import minimal
from xicube.errors import InvariantViolation
from xicube.minimal import _box_points, _certified_err, _lll, _short_vectors, pair_record
from xicube.vectors import content, det3, dot


def _fake_seq(points):
    return [MinimalPoint(i + 1, p, max(abs(c) for c in p), Interval(0), Interval(0))
            for i, p in enumerate(points)]


def test_candidates(ctx_root2):
    assert candidate_for(1, ctx_root2) == (1, 1, 2)
    assert candidate_for(4, ctx_root2) == (4, 5, 7)
    assert candidate_for(1, RealContext("dec:0.500000001")) == (1, 1, 0)
    with pytest.raises(ValueError):
        candidate_for(0, ctx_root2)


def test_sequence_small_bound(ctx_root2):
    seq = minimal_sequence(ctx_root2, 10)
    assert [p.point for p in seq][:2] == [(1, 1, 2), (4, 5, 7)]
    assert minimal_sequence(ctx_root2, 1) == []


def test_sequence_matches_oracle_at_200(ctx_root2):
    seq = minimal_sequence(ctx_root2, 200)
    assert [p.point for p in seq] == brute_force_minimal_points(ctx_root2, 200)


def test_sequence_conditions(ctx_root2):
    seq = minimal_sequence(ctx_root2, 5000)
    norms = [p.norm for p in seq]
    assert norms == sorted(norms) and len(set(norms)) == len(norms)
    for a, b in zip(seq, seq[1:]):
        assert b.err.hi < a.err.lo  # strictly decreasing errors
    assert all(p.err.hi < 0.5 for p in seq)
    assert all(content(p.point) == 1 for p in seq)
    assert all(p.point[0] >= 1 for p in seq)
    # pairwise independence: nonzero cross products
    for i, a in enumerate(seq):
        for b in seq[i + 1:]:
            assert cross(a.point, b.point) != (0, 0, 0)


@pytest.mark.parametrize("spec", [ROOT2, QUARTIC, pi_prefix_spec(60)])
def test_lattice_search_matches_linear_scan(spec):
    # whole points, so err and delta must match too
    seq = minimal_sequence(RealContext(spec), 100_000)
    assert seq == linear_scan_minimal_points(RealContext(spec), 100_000)
    assert len(seq) == {ROOT2: 13, QUARTIC: 9}.get(spec, 4)


def _count_lattice_points(monkeypatch) -> list[int]:
    """Lattice points each enumeration meets, one count per box, in order."""
    counts = []
    real = minimal._short_vectors

    def counted(*args):
        counts.append(0)
        for c in real(*args):
            counts[-1] += 1
            yield c

    monkeypatch.setattr(minimal, "_short_vectors", counted)
    return counts


@pytest.mark.parametrize("spec,bound", [("dec:1.61", 2700), ("dec:-2.205", 27_000),
                                        ("dec:2.5", 10**9)])
def test_short_literal_aborts_on_little_work(spec, bound, monkeypatch):
    # a short literal must give up at the ceiling after a handful of lattice
    # points; dec:2.5 leaves every box too wide to enumerate at all
    counts = _count_lattice_points(monkeypatch)
    with pytest.raises(PrecisionError):
        minimal_sequence(RealContext(spec), bound)
    assert sum(counts) < 1000
    if spec == "dec:2.5":
        assert counts == []


@pytest.mark.parametrize("spec", ["dec:3.0000000000000000000000001",
                                  "dec:0.0000000000000000000000025"])
def test_box_around_nearly_rational_literal_is_capped(spec, monkeypatch):
    # x0*xi and x0*xi^3 stay within the literal's widths of integers for
    # every x0 of the box, so it holds about a point per x0 up to 10^9/27;
    # more bits would not shrink it, so the first capped box is the last
    counts = _count_lattice_points(monkeypatch)
    with pytest.raises(PrecisionError, match="search box .* lattice points"):
        minimal_sequence(RealContext(spec), 10**9)
    assert counts[-1] == minimal.BOX_CAP + 1 and sum(counts[:-1]) < 1000


def test_box_of_many_plainly_worse_points_is_decided():
    # about 4*10^4 triples (x0, 0, 0) fit the box after (1, 0, 0), all worse
    seq = minimal_sequence(RealContext("dec:0.0000000000000000000000025"), 10**6)
    assert [p.point for p in seq] == [(1, 0, 0)]


def test_search_logs_one_debug_line_per_record(ctx_root2, caplog, tmp_path):
    from xicube.cli import main

    caplog.set_level(logging.DEBUG, logger="xicube.minimal")
    seq = minimal_sequence(ctx_root2, 16_000)
    lines = [r.getMessage() for r in caplog.records if r.name == "xicube.minimal"]
    # one per record, and one for the search that finds no further record
    assert len(lines) == len(seq) + 1
    for line, p in zip(lines, seq):
        assert f"next x0 {p.point[0]};" in line and "bits" in line and "decided" in line
    assert "next x0 None;" in lines[-1]
    # the lines go to logging only: the report keeps its pinned bytes
    out_json = tmp_path / "seq.json"
    assert main(["minpoints", "--xi", ROOT2, "--bound", "200", "--json", str(out_json)]) == 0
    assert hashlib.sha256(out_json.read_bytes()).hexdigest() == (
        "afae74db6f17b2aa9a2bb5b22d81dc3a2861012681bd5e4b89ed2a91a938674d")


@given(rows=st.lists(st.lists(st.integers(-12, 12), min_size=3, max_size=3),
                     min_size=3, max_size=3).filter(lambda m: det3(*m) != 0),
       radius=st.integers(0, 12))
def test_reduction_and_enumeration_match_brute_force(rows, radius):
    b = [list(r) for r in rows]
    h = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    d, lam = _lll(b, h)
    # b = h * rows with h unimodular, and (d, lam) are b's Gram-Schmidt data
    assert [[dot(u, col) for col in zip(*rows)] for u in h] == b
    assert abs(det3(*h)) == 1
    assert d[1] == dot(b[0], b[0]) and d[3] == det3(*b) ** 2
    for k in (1, 2):  # size-reduced, and the Lovasz condition with delta = 3/4
        assert all(2 * abs(lam[k][j]) <= d[j + 1] for j in range(k))
        assert 4 * d[k + 1] * d[k - 1] >= 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2
    got = set()
    for c in _short_vectors(d, lam, radius * radius):
        v = tuple(sum(ci * row[i] for ci, row in zip(c, b)) for i in range(3))
        assert v not in got and tuple(-x for x in v) not in got
        got.add(v)
    # every lattice point of the ball, up to sign: v = c * rows for integer c,
    # by Cramer's rule on the matrix whose columns are the rows
    cols = [[row[i] for row in rows] for i in range(3)]
    want = set()
    for v in product(range(-radius, radius + 1), repeat=3):
        if 0 < dot(v, v) <= radius * radius and v > tuple(-x for x in v):
            dets = [det3(*[[v[i] if j == m else cols[i][j] for j in range(3)]
                           for i in range(3)]) for m in range(3)]
            if all(x % det3(*rows) == 0 for x in dets):
                want.add(v)
    assert {max(v, tuple(-x for x in v)) for v in got} == want


@pytest.mark.parametrize("spec", ["dec:1.234", "dec:-0.77", ROOT2, "alg:x^4-2 in [-2,-1]"])
def test_search_box_holds_every_triple_within_its_bounds(spec):
    # for a short literal the widths w_k make up most of the bounds
    ctx = RealContext(spec)
    bits = ctx.precision_bits
    e_hi, size, done = 1 << (bits - 3), 40, 3
    basis = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    got = _box_points(ctx, bits, e_hi, size, done, basis)
    assert got == sorted(set(got))
    want = []
    for x0 in range(done + 1, size + 1):
        coords = []
        for k in (1, 3):
            lo, hi = ctx.scaled(k, bits)
            bound = e_hi + size * (hi - lo)  # x_k with |x0*lo - 2^bits*x_k| <= bound
            coords.append(range(-((bound - x0 * lo) >> bits), ((x0 * lo + bound) >> bits) + 1))
        want += [(x0, x1, x2) for x1 in coords[0] for x2 in coords[1]]
    assert want and set(want) <= set(got)


def test_negative_xi_matches_oracle():
    ctx = RealContext("alg:x^4-2 in [-2,-1]")
    seq = minimal_sequence(ctx, 200)
    assert [p.point for p in seq] == brute_force_minimal_points(ctx, 200)
    assert seq[0].point == (1, -1, -2)


def test_dependent_xi_rejected():
    ctx = RealContext("alg:x^3-2 in [1,2]")
    with pytest.raises(DependenceError):
        minimal_sequence(ctx, 100)


def test_independence_set_examples():
    seq = _fake_seq([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert independence_set(seq) == [2]
    seq = _fake_seq([(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1)])
    assert independence_set(seq) == [3]  # i=2 coplanar, i=3 independent
    with pytest.raises(ValueError):
        independence_set(_fake_seq([(1, 0, 0), (0, 1, 0)]))


def test_decompose_examples():
    assert decompose_pair((1, 0, 0), (0, 1, 0), (3, 5, 0)) == (3, 5)
    assert decompose_pair((1, 1, 2), (4, 5, 7), (4, 5, 7)) == (0, 1)
    with pytest.raises(NotInSpan):
        decompose_pair((1, 0, 0), (0, 1, 0), (0, 0, 5))
    with pytest.raises(NotInSpan):
        decompose_pair((1, 0, 0), (2, 0, 0), (0, 1, 0))  # dependent basis
    with pytest.raises(NotInSpan):
        decompose_pair((2, 0, 0), (0, 2, 0), (1, 1, 0))  # rational, not integer


def test_synthetic_pair_record():
    rec = pair_record(1, 2, (1, 0, 0), (0, 1, 0), (2, 3, 0), 1, 1, 3)
    assert (rec.p, rec.q) == (2, 3)
    assert (rec.s, rec.t, rec.u, rec.v) == (0, 0, 0, -27)
    assert (rec.a, rec.b, rec.f) == (0, 0, 0)
    assert rec.height_sq == 1
    assert all(pair_checks(rec).values())


def test_real_data_invariants(ctx_root2):
    seq = minimal_sequence(ctx_root2, 100_000)
    indep = independence_set(seq)
    assert indep
    records = build_pair_records(seq, indep)
    assert records, "expected at least one pair at this bound"
    for rec in records:
        checks = pair_checks(rec)
        assert all(checks.values()), {k: v for k, v in checks.items() if not v}
        assert 4 * rec.a == rec.t**2 + 3 * rec.f
        assert 4 * rec.b == rec.t**3 - 9 * rec.t * rec.f - 108 * rec.s**2 * rec.v
    for rec, nxt in zip(records, records[1:]):
        assert rec.v == nxt.s


def test_record_fields_match_ring_evaluation(ctx_root2):
    # the direct integer formulas and the expanded-ring route must agree
    from xicube import evaluate, named_element

    seq = minimal_sequence(ctx_root2, 20_000)
    records = build_pair_records(seq, independence_set(seq))
    for rec in records:
        pair = (rec.x_i, rec.x_j)
        assert rec.t == evaluate(named_element("T"), *pair)
        assert rec.f == evaluate(named_element("F"), *pair)
        assert rec.a == evaluate(named_element("A"), *pair)
        assert rec.b == evaluate(named_element("B"), *pair)
        assert rec.d2 == evaluate(named_element("D2"), *pair)
        assert rec.d3 == evaluate(named_element("D3"), *pair)
        assert rec.d6 == evaluate(named_element("D6"), *pair)


def test_imprimitive_point_reported(ctx_root2):
    real = minimal.content
    minimal.content = lambda v: 2  # simulate a primitivity violation
    try:
        with pytest.raises(InvariantViolation):
            minimal.minimal_sequence(ctx_root2, 10)
    finally:
        minimal.content = real


@pytest.mark.parametrize("spec,count,bound", [
    pytest.param(ROOT2, 13, 30000, id=f"{ROOT2}-13"),
    pytest.param(QUARTIC, 9, 30000, id=f"{QUARTIC}-9"),
    pytest.param(ROOT2, 15, 10**6, id=f"{ROOT2}-15-1e6"),
    pytest.param(QUARTIC, 11, 10**6, id=f"{QUARTIC}-11-1e6")])
def test_certified_err_is_what_a_fresh_context_certifies(spec, count, bound):
    # at 8 bits most decisions and search boxes escalate; a point's err must
    # not depend on how deep those escalations took the enclosures of xi
    seq = minimal_sequence(RealContext(spec, 8, 768), bound)
    assert len(seq) == count
    for p in seq:
        fresh = RealContext(spec, 8, 768)
        assert p.err == fresh.decide(lambda b: _certified_err(fresh, p.point, b)), p.index
