import itertools
import random

import pytest

from gidsolve import generators, profiles
from gidsolve.errors import (
    IndexOutOfRange,
    ParseError,
    PreconditionViolated,
    QuotaConstraintViolated,
    RuleNotApplicable,
)
from gidsolve.instances import format_instance, parse_instance
from gidsolve.profiles import (
    SocialRule,
    eval,
    format_profile,
    make_profile,
    negate,
    parse_profile,
    qualification_graph,
)

from helpers import EX1_TEXT, ex1, names, random_binary


def test_example_consent_sets():
    p = ex1()
    assert names(p, eval(SocialRule.consent(1, 1), None, p)) == ["a1", "a3", "a4"]
    assert names(p, eval(SocialRule.consent(2, 1), None, p)) == ["a1", "a3"]
    assert names(p, eval(SocialRule.consent(1, 2), None, p)) == ["a1", "a2", "a3", "a4"]


def test_example_csr_with_trace():
    p = ex1()
    result, trace = eval(SocialRule.csr(), None, p, want_trace=True)
    assert names(p, result) == ["a2", "a3", "a5"]
    assert [names(p, r) for r in trace.rounds] == [["a3"], ["a2", "a3"], ["a2", "a3", "a5"]]


def test_example_lsr():
    p = ex1()
    result, trace = eval(SocialRule.lsr(), None, p, want_trace=True)
    assert names(p, result) == ["a1", "a2", "a3", "a4", "a5"]
    assert names(p, trace.rounds[0]) == ["a1", "a3", "a4"]


def test_empty_subset():
    p = ex1()
    assert eval(SocialRule.consent(1, 1), (), p) == frozenset()
    assert eval(SocialRule.csr(), (), p) == frozenset()


def test_subset_counting_is_local():
    # quotas count opinions from inside T only
    p = ex1()
    assert names(p, eval(SocialRule.consent(1, 2), (1, 4), p)) == ["a2", "a5"]
    assert eval(SocialRule.consent(1, 1), (1, 4), p) == frozenset()


def test_result_is_subset_of_t():
    p = ex1()
    for size in range(p.n + 1):
        for t in itertools.combinations(range(p.n), size):
            for rule in (SocialRule.consent(1, 1), SocialRule.csr(), SocialRule.lsr()):
                assert eval(rule, t, p) <= set(t)


def test_empty_profile():
    p = make_profile([])
    assert p.n == 0
    assert eval(SocialRule.consent(1, 1), None, p) == frozenset()
    assert eval(SocialRule.csr(), None, p) == frozenset()


def test_quota_bound_enforced():
    p = ex1()
    eval(SocialRule.consent(4, 3), None, p)
    with pytest.raises(QuotaConstraintViolated):
        eval(SocialRule.consent(5, 3), None, p)


def test_rule_kind_compatibility():
    ternary_p = make_profile([[0, 1], [1, 0]], kind="ternary")
    partial_p = make_profile([[0, 1], [1, 1]], kind="partial")
    with pytest.raises(RuleNotApplicable):
        eval(SocialRule.consent(1, 1), None, ternary_p)
    with pytest.raises(RuleNotApplicable):
        eval(SocialRule.csr(), None, partial_p)
    with pytest.raises(RuleNotApplicable):
        eval(SocialRule.ternary(1, 1, 1), None, partial_p)
    eval(SocialRule.ternary(1, 1, 1), None, ternary_p)


def test_subset_index_checked():
    p = ex1()
    with pytest.raises(IndexOutOfRange):
        eval(SocialRule.consent(1, 1), (0, 5), p)


def test_trace_only_for_sequential_rules():
    p = ex1()
    with pytest.raises(PreconditionViolated):
        eval(SocialRule.consent(1, 1), None, p, want_trace=True)


def test_ternary_star_diagonal_quota():
    rows = [[1 if a != b else 0 for b in range(5)] for a in range(5)]
    p = make_profile(rows, kind="ternary")
    assert eval(SocialRule.ternary(2, 3, 2), None, p) == frozenset(range(5))


def test_ternary_majority_shorthand():
    # n=5: majority quota is 3
    rule = SocialRule.ternary(1, None, 1)
    assert rule.effective_s_prime(5) == 3
    assert rule.effective_s_prime(4) == 3
    assert rule.effective_s_prime(1) == 1
    rows = [[0 if b == a else -1 for b in range(5)] for a in range(5)]
    rows[0][3] = rows[1][3] = rows[2][3] = 1  # three qualify a4
    rows[0][4] = rows[1][4] = 1  # two qualify a5
    p = make_profile(rows, kind="ternary")
    assert eval(rule, None, p) == frozenset({3})


def test_ternary_on_binary_matches_consent():
    for seed in range(20):
        p = random_binary(5, seed)
        for s, t in itertools.product(range(1, 4), repeat=2):
            want = eval(SocialRule.consent(s, t), None, p)
            for s_prime in (1, 3, None):
                assert eval(SocialRule.ternary(s, s_prime, t), None, p) == want


def test_negate_example_row():
    p = ex1()
    assert negate(p).row(2) == [1, -1, -1, 1, 1]
    assert negate(negate(p)) == p


def test_negate_rejects_non_binary():
    p = make_profile([[0, 1], [1, 0]], kind="ternary")
    with pytest.raises(RuleNotApplicable):
        negate(p)


def test_duality_on_example():
    p = ex1()
    lhs = eval(SocialRule.consent(1, 2), None, p)
    rhs = frozenset(range(5)) - eval(SocialRule.consent(2, 1), None, negate(p))
    assert lhs == rhs
    assert names(p, lhs) == ["a1", "a2", "a3", "a4"]


def test_duality_random_profiles():
    for seed in range(30):
        n = 1 + seed % 5
        p = random_binary(n, seed)
        full = frozenset(range(n))
        for s in range(1, n + 2):
            for t in range(1, n + 3 - s):
                lhs = eval(SocialRule.consent(s, t), None, p)
                rhs = full - eval(SocialRule.consent(t, s), None, negate(p))
                assert lhs == rhs


def test_consent_monotone_in_entries():
    # flipping phi(b,a) from -1 to +1 never kicks a out
    for seed in range(10):
        p = random_binary(4, seed)
        for s, t in itertools.product(range(1, 4), repeat=2):
            rule = SocialRule.consent(s, t)
            base = eval(rule, None, p)
            for b, a in itertools.product(range(4), repeat=2):
                if b == a or p.entry(b, a) == 1:
                    continue
                grid = p.rows()
                grid[b][a] = 1
                bumped = make_profile(grid)
                assert base - {a} <= eval(rule, None, bumped)


def test_sequential_rules_reach_fixed_point():
    for seed in range(20):
        p = random_binary(5, seed)
        for variant in (SocialRule.csr(), SocialRule.lsr()):
            result, trace = eval(variant, None, p, want_trace=True)
            rounds = trace.rounds
            assert rounds[-1] == result
            for earlier, later in zip(rounds, rounds[1:]):
                assert earlier < later
            # closure: nobody outside is qualified by a member
            for a in range(p.n):
                if a in result:
                    continue
                assert all(p.entry(m, a) != 1 for m in result) or variant.variant == "never"


def _sequential_reference(variant, t, p):
    """csr/lsr rounds straight from the definition, over the columns phi(., a)."""
    approvers = [{b for b in range(p.n) if p.entry(b, a) == 1} for a in range(p.n)]
    if variant == "csr":
        k = {a for a in t if t <= approvers[a]}
    else:
        k = {a for a in t if a in approvers[a]}
    rounds = [frozenset(k)]
    while True:
        grown = k | {a for a in t if approvers[a] & k}
        if grown == k:
            return rounds
        k = grown
        rounds.append(frozenset(k))


def _profile_from_bits(n, value):
    full = (1 << n) - 1
    rows = tuple((value >> (a * n)) & full for a in range(n))
    return profiles.Profile(n=n, kind="binary", names=profiles.default_names(n),
                            row_pos=rows, row_known=(full,) * n)


def _assert_rows_match_reference(p, t):
    for rule in (SocialRule.csr(), SocialRule.lsr()):
        want = _sequential_reference(rule.variant, set(range(p.n) if t is None else t), p)
        result, trace = eval(rule, t, p, want_trace=True)
        assert trace.rounds == tuple(want), (rule.variant, p.row_pos, t)
        assert result == want[-1]


def test_sequential_rules_match_column_reference_exhaustively():
    # every binary profile at n <= 3 (512 at n = 3), every subset T
    for n in range(4):
        for value in range(2 ** (n * n)):
            p = _profile_from_bits(n, value)
            for size in range(n + 1):
                for t in itertools.combinations(range(n), size):
                    _assert_rows_match_reference(p, t)


def test_sequential_rules_match_column_reference_random():
    rng = random.Random(2024)
    for _ in range(300):
        n = rng.randint(4, 12)
        p = _profile_from_bits(n, rng.getrandbits(n * n))
        t = None if rng.random() < 0.25 else [a for a in range(n) if rng.random() < 0.7]
        _assert_rows_match_reference(p, t)


def _quota_reference(rule, t, p):
    """consent/ternary straight from the definition, over the columns phi(., a)."""
    out = set()
    for a in t:
        column = [p.entry(b, a) for b in t]
        own = p.entry(a, a)
        if own == 1:
            ok = column.count(1) >= rule.s
        elif own == -1:
            ok = column.count(-1) < rule.t
        else:
            ok = column.count(1) >= rule.effective_s_prime(p.n)
        if ok:
            out.add(a)
    return frozenset(out)


def test_quota_rules_match_column_reference_exhaustively():
    # every binary profile at n <= 3, every subset T, every valid (s, t),
    # each as consent and as ternary with the majority shorthand; then the
    # star diagonals
    for n in range(4):
        rules = [make(s, t) for s in range(1, n + 2) for t in range(1, n + 3 - s)
                 for make in (SocialRule.consent, lambda s, t: SocialRule.ternary(s, None, t))]
        subsets = [frozenset(t) for size in range(n + 1) for t in itertools.combinations(range(n), size)]
        for value in range(2 ** (n * n)):
            p = _profile_from_bits(n, value)
            for rule in rules:
                for t in subsets:
                    assert eval(rule, t, p) == _quota_reference(rule, t, p), (rule, p.row_pos, t)
    # every ternary profile at n <= 2 (cells +1, -1 and star, so every
    # diagonal case), every T, every s, t and s', the majority shorthand too
    for n in range(3):
        quotas = range(1, n + 2)
        rules = [SocialRule.ternary(s, s_prime, t) for s in quotas for t in quotas
                 for s_prime in (None, *quotas)]
        subsets = [frozenset(t) for size in range(n + 1) for t in itertools.combinations(range(n), size)]
        for cells in itertools.product((1, -1, 0), repeat=n * n):
            p = make_profile([cells[a * n:(a + 1) * n] for a in range(n)], kind="ternary")
            for rule in rules:
                for t in subsets:
                    assert eval(rule, t, p) == _quota_reference(rule, t, p), (rule, cells, t)


def test_ternary_rule_matches_column_reference_random():
    rng = random.Random(2025)
    for _ in range(400):
        n = rng.randint(1, 8)
        cells = [[rng.choice((1, 1, -1, -1, 0)) for _ in range(n)] for _ in range(n)]
        p = make_profile(cells, kind="ternary")
        s_prime = rng.choice([None] + list(range(1, n + 2)))
        rule = SocialRule.ternary(rng.randint(1, n + 1), s_prime, rng.randint(1, n + 1))
        t = None if rng.random() < 0.25 else [a for a in range(n) if rng.random() < 0.7]
        want = _quota_reference(rule, frozenset(range(n)) if t is None else frozenset(t), p)
        assert eval(rule, t, p) == want, (rule, cells, t)


def test_lsr_contains_self_qualifiers():
    for seed in range(20):
        p = random_binary(5, seed)
        result = eval(SocialRule.lsr(), None, p)
        for a in range(p.n):
            if p.entry(a, a) == 1:
                assert a in result


def test_csr_empty_seed_gives_empty_result():
    rows = [[-1 if a == b else 1 for b in range(3)] for a in range(3)]
    rows[0][1] = -1
    rows[2][1] = -1
    rows[0][2] = -1
    rows[1][2] = -1
    rows[1][0] = -1
    rows[2][0] = -1
    p = make_profile(rows)
    result, trace = eval(SocialRule.csr(), None, p, want_trace=True)
    assert result == frozenset()
    assert trace.rounds == (frozenset(),)


def test_qualification_graph_example():
    g = qualification_graph(ex1())
    assert len(g.edges) == 14
    loops = {a for a, b in g.edges if a == b}
    assert loops == {0, 2, 3}


def test_qualification_graph_extremes():
    assert qualification_graph(make_profile([[-1] * 3 for _ in range(3)])).edges == ()
    assert len(qualification_graph(make_profile([[1] * 3 for _ in range(3)])).edges) == 9


def test_parse_roundtrip():
    p = parse_profile(EX1_TEXT)
    assert p == ex1()
    assert p.names == ("a1", "a2", "a3", "a4", "a5")
    assert format_profile(p) == EX1_TEXT


def test_parse_ternary_and_partial():
    text = "gid v1\nkind ternary\nn 2\nrow x * +\nrow y - *\n"
    p = parse_profile(text)
    assert p.kind == "ternary"
    assert p.entry(0, 0) == 0 and p.entry(1, 0) == -1
    assert format_profile(p) == text
    text2 = "gid v1\nkind partial\nn 2\nrow x ? +\nrow y - ?\n"
    q = parse_profile(text2)
    assert q.kind == "partial"
    assert format_profile(q) == text2


def test_parse_empty_profile():
    p = parse_profile("gid v1\nkind binary\nn 0\n")
    assert p.n == 0
    assert format_profile(p) == "gid v1\nkind binary\nn 0\n"


MALFORMED_PROFILES = [
    ("", "profile must start with 'gid v1'"),
    ("gid v2\nkind binary\nn 0\n", "profile must start with 'gid v1'"),
    ("gid v1\nkind binary\n", "profile is missing kind/n headers"),
    ("gid v1\nkinds binary\nn 0\n", "expected 'kind <value>' header, got: kinds binary"),
    ("gid v1\nkind\nn 0\n", "expected 'kind <value>' header, got: kind"),
    ("gid v1\nkind wat\nn 0\n", "unknown profile kind: wat"),
    ("gid v1\nkind binary\nsize 0\n", "expected 'n <value>' header, got: size 0"),
    ("gid v1\nkind binary\nn x\n", "bad integer: x"),
    ("gid v1\nkind binary\nn -1\n", "n must be non-negative"),
    ("gid v1\nkind binary\nn 1\n", "expected 1 row lines, got 0"),
    ("gid v1\nkind binary\nn 1\nrow a +\nrow b +\n", "expected 1 row lines, got 2"),
    ("gid v1\nkind binary\nn 1\nrow a + +\n", "bad row line: row a + +"),
    ("gid v1\nkind binary\nn 1\nraw a +\n", "bad row line: raw a +"),
    ("gid v1\nkind binary\nn 1\nrow a\n", "bad row line: row a"),
    ("gid v1\nkind binary\nn 1\nrow a x\n", "bad cell character: x"),
    ("gid v1\nkind binary\nn 1\nrow a ++\n", "bad cell character: ++"),
    ("gid v1\nkind binary\nn 1\nrow a 1\n", "bad cell character: 1"),
    ("gid v1\nkind binary\nn 1\nrow a *\n", "'*' cell is only valid in a ternary profile"),
    ("gid v1\nkind binary\nn 1\nrow a ?\n", "'?' cell is only valid in a partial profile"),
    ("gid v1\nkind ternary\nn 1\nrow a ?\n", "'?' cell is only valid in a partial profile"),
    ("gid v1\nkind partial\nn 1\nrow a *\n", "'*' cell is only valid in a ternary profile"),
    ("gid v1\nkind binary\nn 2\nrow a + +\nrow a - -\n", "duplicate individual names"),
    # faults are found header first, then line by line, cell by cell, then names
    ("gid v1\nkind wat\nn 1\nrow a x\n", "unknown profile kind: wat"),
    ("gid v1\nkind binary\nn 2\nrow a x x\n", "expected 2 row lines, got 1"),
    ("gid v1\nkind binary\nn 2\nrow a + x\nrow b +\n", "bad cell character: x"),
    ("gid v1\nkind binary\nn 2\nrow a + +\nrow b +\n", "bad row line: row b +"),
    ("gid v1\nkind binary\nn 2\nrow a x *\nrow b + +\n", "bad cell character: x"),
    ("gid v1\nkind binary\nn 2\nrow a * x\nrow b + +\n", "'*' cell is only valid in a ternary profile"),
    ("gid v1\nkind binary\nn 2\nrow a + +\nrow a x +\n", "bad cell character: x"),
]


def test_parse_rejects_malformed():
    for text, message in MALFORMED_PROFILES:
        with pytest.raises(ParseError) as err:
            parse_profile(text)
        assert str(err.value) == message, text


def _seeded_profiles():
    rng = random.Random(6)
    for n in (0, 1, 2, 5, 9, 16):
        yield generators.gen_random_profile(n, "binary", seed=rng.randrange(1 << 30))
        for kind in ("ternary", "partial"):
            for density in (0.0, 0.3, 1.0):
                yield generators.gen_random_profile(n, kind, density, seed=rng.randrange(1 << 30))
        for r in range(1, n + 1, 3):
            exact = generators.gen_random_r_profile(n, r, seed=rng.randrange(1 << 30))
            yield exact
            grid = exact.rows()
            for a, b in rng.sample([(a, b) for a in range(n) for b in range(n)], n):
                grid[a][b] = 0
            names = ["v%d_%d" % (rng.randrange(100), i) for i in range(n)]
            yield make_profile(grid, kind="partial", names=names)


def test_parse_format_roundtrip_keeps_every_view():
    checked = 0
    for p in _seeded_profiles():
        text = format_profile(p)
        q = parse_profile(text)
        assert q == p, text
        assert q.names == p.names
        assert (q.col_pos, q.col_known, q.diag_pos, q.diag_known) == (
            p.col_pos, p.col_known, p.diag_pos, p.diag_known), text
        assert format_profile(q) == text
        checked += 1
    assert checked == 68


def test_parse_skips_make_profile(monkeypatch):
    calls = []
    original = make_profile

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(profiles, "make_profile", counting)
    text = format_profile(generators.gen_random_profile(6, "partial", 0.4, seed=3))
    assert parse_profile(text).kind == "partial"
    inst = generators.rx3c_to_cgb(generators.gen_rx3c(2, seed=1))
    parsed = parse_instance(format_instance(inst, "p.gid"), lambda ref: format_profile(inst.profile))
    assert parsed.profile == inst.profile
    assert calls == []


def test_parse_rule_tokens():
    assert profiles.parse_rule_tokens(["consent", "2", "1"]) == SocialRule.consent(2, 1)
    assert profiles.parse_rule_tokens(["csr"]) == SocialRule.csr()
    assert profiles.parse_rule_tokens(["lsr"]) == SocialRule.lsr()
    assert profiles.parse_rule_tokens(["ternary", "2", "*", "2"]) == SocialRule.ternary(2, None, 2)
    assert profiles.parse_rule_tokens(["ternary", "2", "3", "2"]) == SocialRule.ternary(2, 3, 2)
    for tokens in (["consent", "2"], ["consent", "0", "1"], ["wat"], [], ["csr", "1"]):
        with pytest.raises(ParseError):
            profiles.parse_rule_tokens(tokens)


def test_rule_describe_roundtrip():
    for rule in (
        SocialRule.consent(2, 1),
        SocialRule.csr(),
        SocialRule.lsr(),
        SocialRule.ternary(2, None, 2),
        SocialRule.ternary(1, 3, 1),
    ):
        assert profiles.parse_rule_tokens(rule.describe().split()) == rule


def test_make_profile_reports_first_bad_cell():
    def patched(cells):
        grid = ex1().rows()
        for (a, b), v in cells.items():
            grid[a][b] = v
        return grid

    with pytest.raises(ParseError, match="^binary profile cannot hold a star/unset cell$"):
        make_profile(patched({(0, 0): 0}))
    # the first bad cell in row-major order is reported, whatever the patch order
    with pytest.raises(ParseError, match=r"^bad cell value 7 at \(1, 2\)$"):
        make_profile(patched({(3, 0): 9, (1, 4): 0, (1, 2): 7}))
    with pytest.raises(ParseError, match="^binary profile cannot hold a star/unset cell$"):
        make_profile(patched({(4, 4): 5, (0, 1): 0}))
    with pytest.raises(ParseError, match=r"^bad cell value 'x' at \(1, 1\)$"):
        make_profile(patched({(3, 4): 9, (1, 1): "x", (1, 4): 0}))
