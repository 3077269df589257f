import pytest
from conftest import QUARTIC, ROOT2
from oracle import brute_force_minimal_points

from xicube import (DependenceError, Interval, MinimalPoint, NotInSpan,
                    RealContext, build_pair_records, candidate_for, cross,
                    decompose_pair, independence_set, minimal_sequence,
                    pair_checks)
from xicube.errors import InvariantViolation
from xicube.minimal import _certified_err, pair_record
from xicube.vectors import content


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
    from xicube import minimal

    real = minimal.content
    minimal.content = lambda v: 2  # simulate a primitivity violation
    try:
        with pytest.raises(InvariantViolation):
            minimal.minimal_sequence(ctx_root2, 10)
    finally:
        minimal.content = real


@pytest.mark.parametrize("spec,count", [(ROOT2, 13), (QUARTIC, 9)])
def test_certified_err_is_what_a_fresh_context_certifies(spec, count):
    # at 8 bits most decisions escalate; a point's err must not depend on how
    # deep those escalations took the enclosures of xi
    seq = minimal_sequence(RealContext(spec, 8, 768), 30000)
    assert len(seq) == count
    for p in seq:
        fresh = RealContext(spec, 8, 768)
        assert p.err == fresh.decide(lambda b: _certified_err(fresh, p.point, b)), p.index
