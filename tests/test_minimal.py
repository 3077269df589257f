import hashlib
import logging
from itertools import permutations, product
from math import isqrt, prod

import pytest
from conftest import QUARTIC, ROOT2, pi_prefix_spec
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle import brute_force_minimal_points, linear_scan_minimal_points

from xicube import (DependenceError, Interval, MinimalPoint, NotInSpan,
                    PrecisionError, RealContext, build_pair_records, candidate_for, cross,
                    decompose_pair, independence_set, minimal_sequence,
                    pair_checks)
from xicube import minimal
from xicube.errors import InvariantViolation
from xicube.linalg import _lll
from xicube.minimal import _box_points, _box_size, _certified_err, _short_vectors, pair_record
from xicube.realctx import DEFAULT_MAX_BITS, DEFAULT_PRECISION_BITS
from xicube.vectors import content, det3, dot

# The short decimals of the hostile benchmark inputs, seeds 1 to 20
# (bench/workloads.py hostile_tasks), at its bounds: 27 * 10^digits.
SHORT_DECIMALS = list(dict.fromkeys(
    (f"dec:{d}", 27 * 10 ** len(d.partition(".")[2])) for d in """
    1.61 -2.205 1.27 -1.151 2.84 -1.158 1.92 -1.413 1.56 -2.088 1.42 -2.490 2.17 -1.437
    1.97 -1.550 2.06 -2.832 1.37 -2.772 1.63 -2.293 2.28 -2.224 1.61 -1.467 1.34 -1.894
    2.29 -2.585 1.46 -2.548 1.78 -1.231 1.96 -2.719 1.72 -1.287 2.13 -2.547""".split()))


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
    # points; dec:2.5 leaves every box too wide to enumerate at all.  The
    # question it gives up on is open on the literal's exact cell, so no
    # enclosure above the base precision is asked for
    counts = _count_lattice_points(monkeypatch)
    above_base = []
    real_rung = RealContext.rung

    def rung(ctx, bits=None):
        if bits is not None and bits > ctx.precision_bits:
            above_base.append(bits)
        return real_rung(ctx, bits)

    monkeypatch.setattr(RealContext, "rung", rung)
    with pytest.raises(PrecisionError, match="at 65536 bits"):
        minimal_sequence(RealContext(spec), bound)
    assert sum(counts) < 1000
    assert above_base == []
    if spec == "dec:2.5":
        assert counts == []


def _ladder_decide(ctx, probe, what="comparison"):
    """RealContext.decide without its literal stop: an open question climbs to max_bits."""
    bits = ctx.precision_bits
    while True:
        out = probe(bits)
        if out is not None:
            return out
        if bits >= ctx.max_bits:
            raise ctx.ceiling_error(what)
        bits = min(2 * bits, ctx.max_bits)


def _outcome(spec, bound, max_bits):
    """The points of minimal_sequence, or the text of its PrecisionError."""
    try:
        return [p.point for p in minimal_sequence(RealContext(spec, max_bits=max_bits), bound)]
    except PrecisionError as exc:
        return str(exc)


def _check_literal_stop(spec, bound, max_bits=DEFAULT_MAX_BITS):
    """Run spec to bound; the run must end as it does when decide's literal
    stop is disabled and every open question climbs the whole ladder.
    Returns that outcome and the highest bits of a rung the run asked for."""
    asked = [0]
    real_rung = RealContext.rung

    def rung(ctx, bits=None):
        asked[0] = max(asked[0], ctx.precision_bits if bits is None else bits)
        return real_rung(ctx, bits)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RealContext, "rung", rung)
        fast = _outcome(spec, bound, max_bits)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RealContext, "decide", _ladder_decide)
        assert fast == _outcome(spec, bound, max_bits)
    return fast, asked[0]


def _quartic_root_literal(digits: int) -> str:
    """The first `digits` digits of 2^(1/4) as a literal."""
    d = str(isqrt(isqrt(2 * 10 ** (4 * (digits - 1)))))
    return f"dec:{d[0]}.{d[1:]}"


@pytest.mark.parametrize("spec,bound", SHORT_DECIMALS + [("dec:2.5", 2700)])
def test_short_decimal_exits_early_only_where_every_rung_is_open(spec, bound):
    # every one of them ends on a search box or a record comparison that
    # its exact cell, already the base rung, leaves open, as the whole
    # ladder does; so no rung above the base is asked for
    out, top = _check_literal_stop(spec, bound)
    assert isinstance(out, str) and top == DEFAULT_PRECISION_BITS


@pytest.mark.parametrize("spec,bound,want", [
    # 19 decimals: the rung is the exact cell at the base precision
    ("dec:1.1892071150027210667", 10**22, 192),
    # 20 decimals: rounded at 192 bits, the exact cell from 384
    ("dec:1.18920711500272106671", 10**22, 384),
    # the exact cell from 3072 bits; a stop at the base rung would abort it
    (_quartic_root_literal(300), 10**60, 118),
], ids=["19 decimals", "20 decimals", "300 digits"])
def test_literal_stop_where_the_rounded_rung_gives_way(spec, bound, want):
    # the two short ones stop on the first rung that is their exact cell;
    # the long one returns its points
    out, top = _check_literal_stop(spec, bound)
    if isinstance(out, str):
        assert "the literal's last digit is the limit" in out and top == want
    else:
        assert len(out) == want


@st.composite
def short_literals(draw):
    """A literal of 2 or 3 decimals in (-3, 3) with its bound 27 * 10^digits."""
    digits = draw(st.integers(2, 3))
    units = draw(st.integers(1, 3 * 10**digits - 1))
    sign = draw(st.sampled_from(["", "-"]))
    return f"dec:{sign}{units // 10**digits}.{units % 10**digits:0{digits}d}", 27 * 10**digits


@settings(max_examples=60, deadline=None)
@given(literal=short_literals())
def test_literal_rule_matches_the_ladder(literal):
    # a ceiling of 1536 bits keeps the ladder cheap
    _check_literal_stop(*literal, max_bits=1536)


def test_box_of_at_most_24_expected_points_is_enumerated():
    # at scale 1: Y*b1*b3 = 1 * (1 + 1) * (1 + 2) = 6, i.e. 24 expected points
    assert _box_size(1, 0, 1, 1, 2, 1) == 1
    assert _box_size(1, 0, 1, 1, 3, 1) is None


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


def _det(m) -> int:
    """Leibniz's formula, for the few rows of these checks."""
    n = len(m)
    return sum((-1) ** sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
               * prod(m[i][p[i]] for i in range(n)) for p in permutations(range(n)))


def _gram_det(rows) -> int:
    return _det([[sum(x * y for x, y in zip(u, v)) for v in rows] for u in rows])


def _checked_reduction(rows):
    """_lll of rows with its transform, checked; returns (b, d, lam)."""
    n = len(rows)
    b = [list(r) for r in rows]
    h = [[int(i == j) for j in range(n)] for i in range(n)]
    d, lam = _lll(b, h)
    # b = h * rows with h unimodular, and (d, lam) are b's Gram-Schmidt data
    assert [[sum(x * y for x, y in zip(u, col)) for col in zip(*rows)] for u in h] == b
    assert abs(_det(h)) == 1
    assert d[1] == _gram_det(b[:1]) and d[n] == _gram_det(b) == _gram_det(rows)
    for k in range(1, n):  # size-reduced, and the Lovasz condition with delta = 3/4
        assert all(2 * abs(lam[k][j]) <= d[j + 1] for j in range(k))
        assert 4 * d[k + 1] * d[k - 1] >= 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2
    return b, d, lam


# the rows (e_j | 2^40 * 2^(j/3) rounded down) of an integer relation search
@example(rows=[[int(i == j) for i in range(4)] + [int(2 ** (40 + j / 3))] for j in range(4)])
@given(rows=st.lists(st.lists(st.integers(-12, 12), min_size=5, max_size=5),
                     min_size=4, max_size=4).filter(lambda m: _gram_det(m) != 0))
def test_reduction_of_four_rows(rows):
    _checked_reduction(rows)


@given(rows=st.lists(st.lists(st.integers(-12, 12), min_size=3, max_size=3),
                     min_size=3, max_size=3).filter(lambda m: det3(*m) != 0),
       radius=st.integers(0, 12))
def test_reduction_and_enumeration_match_brute_force(rows, radius):
    b, d, lam = _checked_reduction(rows)
    assert d[3] == det3(*b) ** 2
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


# (size, e_hi) of boxes on a short literal's rung, its exact cell of scale
# 2 * 10^(3d): a shift past the scale's zero low bits drops (8, 20, 135) and
# (8, 21, 135) from the first box, (107, 174, 458) from the second
LITERAL_BOXES = {"dec:2.58": (8, 1615904), "dec:1.6247": (178, 1487050248671),
                 "dec:-2.4936": (243, 836022225947)}


@pytest.mark.parametrize("spec", ["dec:1.234", "dec:-0.77", ROOT2, "alg:x^4-2 in [-2,-1]",
                                  *LITERAL_BOXES])
def test_search_box_holds_every_triple_within_its_bounds(spec):
    # for a short literal the widths w_k make up most of the bounds
    rung = RealContext(spec).rung()
    scale = rung[0]
    size, e_hi = LITERAL_BOXES.get(spec, (40, scale >> 3))
    done = 3
    basis = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    got = _box_points(rung, e_hi, size, done, basis)
    assert got == sorted(set(got))
    want = []
    for x0 in range(done + 1, size + 1):
        coords = []
        for k in (1, 3):
            lo, hi = rung[k]
            bound = e_hi + size * (hi - lo)  # x_k with |x0*lo - S*x_k| <= bound
            coords.append(range(-((bound - x0 * lo) // scale), (x0 * lo + bound) // scale + 1))
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
