"""Qualification queries on partial profiles, checked against enumeration."""

import collections
import itertools
import pathlib
import random
import re

import pytest

from gidsolve import partial
from gidsolve.errors import (
    GidError,
    IndexOutOfRange,
    InstanceTooLarge,
    InvalidR,
    NoRExtension,
    ParseError,
    PreconditionViolated,
    QuotaConstraintViolated,
    WrongKind,
)
from gidsolve.generators import gen_random_profile
from gidsolve.oracle import SearchBudget, pqi_nqi_brute
from gidsolve.partial import (
    NQI,
    PQI,
    FlowNetwork,
    PartialQuery,
    answer_query,
    max_flow,
    nqi,
    pqi,
    r_nqi,
    r_pqi_consent_flow,
    r_pqi_general,
    r_sequential,
)
from gidsolve.profiles import SocialRule, eval, make_profile

from helpers import optimistic_extension, pessimistic_extension


def consent(s, t):
    return SocialRule.consent(s, t)


def random_partial(rng, n, max_stars):
    rows = [[rng.choice((1, -1)) for _ in range(n)] for _ in range(n)]
    cells = [(a, b) for a in range(n) for b in range(n)]
    stars = rng.randrange(0, min(max_stars, n * n) + 1)
    for a, b in rng.sample(cells, stars):
        rows[a][b] = 0
    return make_profile(rows, kind="partial")


def random_r_partial(rng, n, r, max_stars):
    # built from a full exactly-r profile so an r-extension always exists
    rows = []
    for _ in range(n):
        plus = set(rng.sample(range(n), r))
        rows.append([1 if b in plus else -1 for b in range(n)])
    cells = [(a, b) for a in range(n) for b in range(n)]
    stars = rng.randrange(0, min(max_stars, n * n) + 1)
    for a, b in rng.sample(cells, stars):
        rows[a][b] = 0
    return make_profile(rows, kind="partial")


def random_consent(rng, n):
    s = rng.randrange(1, n + 2)
    t = rng.randrange(1, n + 2 - s + 1)
    return consent(s, t)


def random_subset(rng, n):
    size = rng.randrange(1, n + 1)
    return frozenset(rng.sample(range(n), size))


# ---------------------------------------------------------------- queries


def test_query_validation():
    q = PartialQuery([2, 0, 2], PQI)
    assert q.subset == frozenset({0, 2})
    assert q.r is None
    with pytest.raises(PreconditionViolated):
        PartialQuery([], PQI)
    with pytest.raises(ParseError):
        PartialQuery([0], "possible")
    with pytest.raises(InvalidR):
        PartialQuery([0], NQI, r=0)
    with pytest.raises(InvalidR):
        PartialQuery([0], NQI, r=-2)


def test_query_guards():
    profile = make_profile([[1, 0], [0, 1]], kind="partial")
    with pytest.raises(PreconditionViolated):
        pqi(profile, PartialQuery([0], NQI), consent(1, 1))
    with pytest.raises(PreconditionViolated):
        nqi(profile, PartialQuery([0], PQI), consent(1, 1))
    with pytest.raises(PreconditionViolated):
        pqi(profile, PartialQuery([0], PQI, r=1), consent(1, 1))
    with pytest.raises(IndexOutOfRange):
        pqi(profile, PartialQuery([5], PQI), consent(1, 1))
    with pytest.raises(QuotaConstraintViolated):
        pqi(profile, PartialQuery([0], PQI), consent(3, 2))
    ternary_profile = make_profile([[1, 0], [0, 1]], kind="ternary")
    with pytest.raises(WrongKind):
        pqi(ternary_profile, PartialQuery([0], PQI), SocialRule.ternary(1, 1, 1))


# ------------------------------------------------------------------- flow


def test_flow_network_validation():
    with pytest.raises(PreconditionViolated):
        FlowNetwork(2, 0, 1, ((1, 0, 3),))
    with pytest.raises(PreconditionViolated):
        FlowNetwork(3, 0, 2, ((2, 1, 3),))
    with pytest.raises(PreconditionViolated):
        FlowNetwork(2, 0, 1, ((0, 1, -1),))
    with pytest.raises(PreconditionViolated):
        FlowNetwork(2, 0, 0, ())
    with pytest.raises(IndexOutOfRange):
        FlowNetwork(2, 0, 1, ((0, 5, 1),))
    with pytest.raises(IndexOutOfRange):
        FlowNetwork(2, 0, 3, ())
    with pytest.raises(IndexOutOfRange, match="^source 2 out of range for 2 vertices$"):
        FlowNetwork(2, 2, 1, ())


def test_max_flow_goldens():
    assert max_flow(FlowNetwork(2, 0, 1, ((0, 1, 3),))) == (3, ((0, 1, 3),))
    value, cut = max_flow(
        FlowNetwork(4, 0, 3, ((0, 1, 3), (0, 2, 2), (1, 3, 2), (2, 3, 3)))
    )
    assert value == 4
    assert set(cut) == {(0, 2, 2), (1, 3, 2)}
    assert max_flow(FlowNetwork(2, 0, 1, ((0, 1, 0),))) == (0, ())
    # a self-loop carries no flow and crosses no cut
    arcs = ((0, 1, 3), (0, 2, 2), (1, 3, 2), (2, 3, 3))
    assert max_flow(FlowNetwork(4, 0, 3, arcs + ((1, 1, 5), (2, 2, 1)))) == max_flow(FlowNetwork(4, 0, 3, arcs))
    # parallel arcs merge
    value, cut = max_flow(FlowNetwork(2, 0, 1, ((0, 1, 2), (0, 1, 3))))
    assert value == 5
    assert sum(c for _, _, c in cut) == 5


def _reference_flow(net):
    # independent recomputation: depth-first augmenting paths on a matrix;
    # returns the flow value and the vertices the source reaches in the
    # final residual matrix
    matrix = [[0] * net.num_vertices for _ in range(net.num_vertices)]
    for u, v, c in net.arcs:
        if u != v:
            matrix[u][v] += c

    def augment(u, limit, seen):
        if u == net.sink:
            return limit
        seen.add(u)
        for v in range(net.num_vertices):
            if v not in seen and matrix[u][v] > 0:
                pushed = augment(v, min(limit, matrix[u][v]), seen)
                if pushed:
                    matrix[u][v] -= pushed
                    matrix[v][u] += pushed
                    return pushed
        return 0

    total = 0
    while True:
        reached = set()
        pushed = augment(net.source, 10**9, reached)
        if pushed == 0:
            return total, reached
        total += pushed


def test_max_flow_random_networks():
    rng = random.Random(430)
    for _ in range(40):
        arcs = []
        for _ in range(rng.randrange(8, 22)):
            u = rng.randrange(0, 9)
            v = rng.randrange(1, 10)
            if u == v:
                continue
            arcs.append((u, v, rng.randrange(0, 7)))
        net = FlowNetwork(10, 0, 9, tuple(arcs))
        value, cut = max_flow(net)
        ref_value, reached = _reference_flow(net)
        assert value == ref_value
        assert sum(c for _, _, c in cut) == value
        # the cut leaves the unique minimal source side, in input order
        assert cut == tuple((u, v, c) for u, v, c in net.arcs
                            if u in reached and v not in reached and c > 0)
        # the cut separates: dropping its arcs kills all flow
        cut_set = set(cut)
        remaining = tuple(a for a in net.arcs if a not in cut_set)
        assert max_flow(FlowNetwork(10, 0, 9, remaining))[0] == 0
        assert max_flow(net) == (value, cut)


# -------------------------------------------------------- pqi / nqi plain


def test_pqi_nqi_on_fully_known_profiles():
    rng = random.Random(431)
    for _ in range(20):
        n = rng.randrange(2, 5)
        profile = gen_random_profile(n, seed=rng.randrange(1 << 30))
        rule = rng.choice(
            [random_consent(rng, n), SocialRule.csr(), SocialRule.lsr()]
        )
        subset = random_subset(rng, n)
        member = subset <= eval(rule, None, profile)
        assert pqi(profile, PartialQuery(subset, PQI), rule) == member
        assert nqi(profile, PartialQuery(subset, NQI), rule) == member


def test_pqi_nqi_small_goldens():
    liberal = make_profile([[0, 1], [-1, 1]], kind="partial")
    assert pqi(liberal, PartialQuery([0], PQI), SocialRule.lsr())
    assert not nqi(liberal, PartialQuery([0], NQI), SocialRule.lsr())
    vetoed = make_profile([[-1, 0], [0, 0]], kind="partial")
    assert not pqi(vetoed, PartialQuery([0], PQI), consent(1, 1))
    open_diag = make_profile([[0, 0], [0, 0]], kind="partial")
    assert pqi(open_diag, PartialQuery([0, 1], PQI), consent(1, 1))
    assert not nqi(open_diag, PartialQuery([0], NQI), consent(1, 1))


def sweep_rules(rng, n):
    rules = [random_consent(rng, n), SocialRule.csr(), SocialRule.lsr()]
    s = rng.randrange(1, n + 2)
    t = rng.randrange(1, n + 2)
    s_prime = rng.choice([None, rng.randrange(1, n + 2)])
    rules.append(SocialRule.ternary(s, s_prime, t))
    return rules


@pytest.mark.parametrize("seed", [432, 433, 434])
def test_pqi_nqi_match_brute(seed):
    rng = random.Random(seed)
    for _ in range(60):
        n = rng.randrange(2, 6)
        profile = random_partial(rng, n, min(8, n * n))
        subset = random_subset(rng, n)
        for rule in sweep_rules(rng, n):
            possible, necessary = pqi_nqi_brute(profile, subset, rule)
            assert pqi(profile, PartialQuery(subset, PQI), rule) == possible
            assert nqi(profile, PartialQuery(subset, NQI), rule) == necessary
            if necessary:
                assert possible


def test_extensions_are_sound_completions():
    rng = random.Random(435)
    for _ in range(40):
        n = rng.randrange(2, 6)
        profile = random_partial(rng, n, min(8, n * n))
        subset = random_subset(rng, n)
        for rule in sweep_rules(rng, n):
            for builder, query_fn, mode in (
                (optimistic_extension, pqi, PQI),
                (pessimistic_extension, nqi, NQI),
            ):
                ext = builder(profile, subset, rule)
                assert ext.kind == "binary"
                for a in range(n):
                    for b in range(n):
                        known = profile.entry(a, b)
                        if known != 0:
                            assert ext.entry(a, b) == known
                        else:
                            assert ext.entry(a, b) in (1, -1)
                answer = query_fn(profile, PartialQuery(subset, mode), rule)
                assert (subset <= eval(rule, None, ext)) == answer


def test_pqi_monotone_under_supporting_resolutions():
    rng = random.Random(436)
    checked = 0
    while checked < 60:
        n = rng.randrange(2, 6)
        profile = random_partial(rng, n, min(8, n * n))
        subset = random_subset(rng, n)
        rule = random_consent(rng, n)
        stars = [(b, a) for (b, a) in profile.unknown_cells() if a in subset]
        if not stars:
            continue
        before = pqi(profile, PartialQuery(subset, PQI), rule)
        cell = rng.choice(stars)
        grid = profile.rows()
        grid[cell[0]][cell[1]] = 1
        resolved = make_profile(grid, kind="partial")
        after = pqi(resolved, PartialQuery(subset, PQI), rule)
        assert after or not before
        checked += 1


def test_plain_queries_build_no_completion(monkeypatch):
    # consent/ternary queries read the partial profile's column views, built
    # once for all four; csr/lsr NQI judges the profile itself
    rows = [[1, 0, -1], [0, 0, 1], [-1, 1, 0]]
    cases = [(PartialQuery({0, 1}, mode), rule)
             for rule in (consent(2, 2), SocialRule.ternary(4, None, 3)) for mode in (PQI, NQI)]
    cases += [(PartialQuery({1}, NQI), rule) for rule in (SocialRule.csr(), SocialRule.lsr())]
    reference = make_profile(rows, kind="partial")
    expected = [(pqi_nqi_brute(reference, query.subset, rule)[query.mode == NQI], query.mode.lower())
                for query, rule in cases]

    def no_completion(*args):
        raise AssertionError("a completion was built")

    built = []
    profile_class = partial.Profile
    original = profile_class._columns

    def counting(self):
        if self._col_views is None:
            built.append(self)
        return original(self)

    # csr/lsr PQI builds its all-+1 completion as a Profile inside partial
    monkeypatch.setattr(partial, "Profile", no_completion)
    monkeypatch.setattr(profile_class, "_columns", counting)
    profile = make_profile(rows, kind="partial")
    assert [answer_query(profile, query, rule) for query, rule in cases] == expected
    assert len(built) == 1 and built[0] is profile


# ---------------------------------------------------------- r-restricted


def test_row_needs_no_extension():
    too_many = make_profile([[1, 1, -1], [0, 0, 0], [0, 0, 0]], kind="partial")
    with pytest.raises(NoRExtension):
        r_pqi_consent_flow(too_many, [0], 1, consent(2, 1))
    too_few = make_profile([[-1, -1, -1], [0, 0, 0], [0, 0, 0]], kind="partial")
    with pytest.raises(NoRExtension):
        r_pqi_consent_flow(too_few, [0], 1, consent(2, 1))
    with pytest.raises(NoRExtension):
        r_nqi(too_few, [0], 1, consent(2, 1))


def test_r_pqi_flow_goldens():
    profile = make_profile(
        [[0, -1, -1], [0, 1, -1], [0, -1, -1]], kind="partial"
    )
    assert r_pqi_consent_flow(profile, [0], 1, consent(2, 1))
    blocked = make_profile(
        [[0, -1, -1], [0, 1, -1], [-1, 0, 0]], kind="partial"
    )
    assert not r_pqi_consent_flow(blocked, [0], 1, consent(2, 1))
    # a known -1 diagonal is hopeless under t = 1
    veto = make_profile([[-1, 0, 0], [0, 0, 0], [0, 0, 0]], kind="partial")
    assert not r_pqi_consent_flow(veto, [0], 1, consent(2, 1))
    # an unknown diagonal needs a spare +1 in its own row
    spent = make_profile([[0, 1, -1], [0, 0, 0], [0, 0, 0]], kind="partial")
    assert not r_pqi_consent_flow(spent, [0], 1, consent(2, 1))


def test_r_pqi_flow_preconditions():
    profile = make_profile([[0, 0], [0, 0]], kind="partial")
    with pytest.raises(PreconditionViolated):
        r_pqi_consent_flow(profile, [0], 1, consent(2, 2))
    with pytest.raises(PreconditionViolated):
        r_pqi_consent_flow(profile, [0], 1, consent(1, 1))
    with pytest.raises(PreconditionViolated):
        r_pqi_consent_flow(profile, [0], 1, SocialRule.lsr())
    with pytest.raises(InvalidR):
        r_pqi_consent_flow(profile, [0], 0, consent(2, 1))


@pytest.mark.parametrize("seed", [437, 438])
def test_r_pqi_flow_matches_brute(seed):
    rng = random.Random(seed)
    for _ in range(80):
        n = rng.randrange(2, 7)
        r = rng.randrange(1, min(3, n) + 1)
        profile = random_r_partial(rng, n, r, 8)
        s = rng.randrange(2, n + 2)
        rule = consent(s, 1)
        subset = random_subset(rng, n)
        possible, _ = pqi_nqi_brute(profile, subset, rule, r=r)
        assert r_pqi_consent_flow(profile, subset, r, rule) == possible


def test_r_pqi_general_matches_flow_when_t_is_one():
    rng = random.Random(439)
    for _ in range(60):
        n = rng.randrange(2, 6)
        r = rng.randrange(1, min(3, n) + 1)
        profile = random_r_partial(rng, n, r, 8)
        s = rng.randrange(2, n + 2)
        rule = consent(s, 1)
        subset = random_subset(rng, n)
        assert r_pqi_general(profile, subset, r, rule) == r_pqi_consent_flow(
            profile, subset, r, rule
        )


@pytest.mark.parametrize("seed", [440, 441])
def test_r_pqi_general_matches_brute(seed):
    rng = random.Random(seed)
    for _ in range(70):
        n = rng.randrange(2, 6)
        r = rng.randrange(1, min(3, n) + 1)
        profile = random_r_partial(rng, n, r, 7)
        rule = random_consent(rng, n)
        subset = random_subset(rng, n)
        possible, _ = pqi_nqi_brute(profile, subset, rule, r=r)
        assert r_pqi_general(profile, subset, r, rule) == possible


def test_r_pqi_general_guards(monkeypatch):
    profile = make_profile([[0, 0], [0, 0]], kind="partial")
    with pytest.raises(PreconditionViolated):
        r_pqi_general(profile, [0], 1, SocialRule.csr())
    monkeypatch.setattr(partial, "R_PQI_BRANCH_CAP", 1)
    # both diagonal values stay live for both members: 4 combinations
    with pytest.raises(InstanceTooLarge, match="^4 diagonal branches exceed cap 1$"):
        r_pqi_general(profile, [0, 1], 1, consent(2, 2))
    # under t = 1 a -1 diagonal is never live, so one combination is tried
    assert r_pqi_general(profile, [0, 1], 1, consent(1, 1)) is True


def test_diagonal_values_exhaustively():
    # every row pattern over {+1, -1, ?} at n <= 4, every diagonal position
    # and every r the row can reach, against the row's exactly-r completions
    for n in range(1, 5):
        for row in itertools.product((1, -1, 0), repeat=n):
            unknown = [b for b in range(n) if row[b] == 0]
            plus = row.count(1)
            for a in range(n):
                rows = [[0] * n for _ in range(n)]
                rows[a] = list(row)
                profile = make_profile(rows, kind="partial")
                for r in range(max(1, plus), plus + len(unknown) + 1):
                    needs = [0] * n
                    needs[a] = r - plus
                    values = {1 if row[a] == 1 or a in chosen else -1
                              for chosen in itertools.combinations(unknown, r - plus)}
                    assert partial._diagonal_values(profile, needs, a) == (1 in values, -1 in values), (row, a, r)


def test_r_nqi_goldens():
    self_made = make_profile([[1, 0], [0, 1]], kind="partial")
    assert r_sequential(self_made, [0], 1, SocialRule.lsr(), NQI)
    forced = make_profile([[0, -1], [0, 1]], kind="partial")
    assert r_sequential(forced, [0], 1, SocialRule.lsr(), NQI)
    slack = make_profile([[0, 0], [0, 1]], kind="partial")
    assert not r_sequential(slack, [0], 1, SocialRule.lsr(), NQI)
    unanimous = make_profile([[1, -1], [1, -1]], kind="partial")
    assert r_sequential(unanimous, [0], 1, SocialRule.csr(), NQI)
    assert not r_sequential(unanimous, [0, 1], 1, SocialRule.csr(), NQI)


def test_r_nqi_guards():
    profile = make_profile([[0, 0], [0, 0]], kind="partial")
    for r in (1, 2):
        for rule in (SocialRule.csr(), SocialRule.lsr()):
            with pytest.raises(PreconditionViolated):
                r_nqi(profile, [0], r, rule)
    assert r_nqi(profile, [0], 1, SocialRule.ternary(1, 1, 1)) is False


@pytest.mark.parametrize("seed", [442, 443])
def test_r_nqi_matches_brute(seed):
    rng = random.Random(seed)
    for _ in range(70):
        n = rng.randrange(2, 6)
        r = rng.randrange(1, min(3, n) + 1)
        profile = random_r_partial(rng, n, r, 7)
        rule = random_consent(rng, n)
        subset = random_subset(rng, n)
        _, necessary = pqi_nqi_brute(profile, subset, rule, r=r)
        assert r_nqi(profile, subset, r, rule) == necessary


def test_ternary_r_queries_drop_the_dead_minus_diagonal():
    # row a2 must turn both unknowns +1, so its diagonal cannot be -1, and
    # ternary(4, *, 4) has no quota bound to make that branch fail
    profile = make_profile([[1, 1], [0, 0]], kind="partial")
    rule = SocialRule.ternary(4, None, 4)
    assert pqi_nqi_brute(profile, {1}, rule, r=2) == (False, False)
    for mode, route in ((PQI, "r_pqi_general"), (NQI, "r_nqi")):
        assert answer_query(profile, PartialQuery({1}, mode, r=2), rule) == (False, route)


# ----------------------------------------------------------- answer_query


def test_answer_query_dispatch():
    profile = make_profile([[1, 0, 0], [0, 1, 0], [0, 0, 1]], kind="partial")
    cases = [
        (PartialQuery([0], PQI), consent(1, 1), "pqi"),
        (PartialQuery([0], NQI), SocialRule.lsr(), "nqi"),
        (PartialQuery([0], PQI, r=1), consent(2, 1), "r_pqi_consent_flow"),
        (PartialQuery([0], PQI, r=1), consent(1, 2), "r_pqi_general"),
        (PartialQuery([0], PQI, r=1), consent(1, 1), "r_pqi_general"),
        (PartialQuery([0], NQI, r=1), consent(2, 2), "r_nqi"),
        (PartialQuery([0], NQI, r=1), SocialRule.lsr(), "r_sequential"),
        (PartialQuery([0], NQI, r=1), SocialRule.csr(), "r_sequential"),
        (PartialQuery([0], NQI, r=2), SocialRule.csr(), "brute"),
        (PartialQuery([0], PQI, r=1), SocialRule.lsr(), "r_sequential"),
        (PartialQuery([0], PQI, r=2), SocialRule.lsr(), "r_sequential"),
        (PartialQuery([0], NQI, r=2), SocialRule.lsr(), "r_sequential"),
        (PartialQuery([0], PQI, r=1), SocialRule.ternary(1, 1, 1), "r_pqi_general"),
        (PartialQuery([0], NQI, r=1), SocialRule.ternary(1, 1, 1), "r_nqi"),
    ]
    for query, rule, expected in cases:
        _, method = answer_query(profile, query, rule)
        assert method == expected, (rule.variant, query.mode, query.r)


def test_answer_query_matches_brute():
    rng = random.Random(445)
    for _ in range(70):
        n = rng.randrange(2, 6)
        r = rng.choice([None, 1, 2])
        if r is None:
            profile = random_partial(rng, n, min(8, n * n))
        else:
            r = min(r, n)
            profile = random_r_partial(rng, n, r, 7)
        rule = rng.choice(
            [random_consent(rng, n), SocialRule.csr(), SocialRule.lsr()]
        )
        subset = random_subset(rng, n)
        mode = rng.choice([PQI, NQI])
        query = PartialQuery(subset, mode, r=r)
        answer, _ = answer_query(profile, query, rule)
        possible, necessary = pqi_nqi_brute(profile, subset, rule, r=r)
        assert answer == (possible if mode == PQI else necessary)


def error_text(run):
    try:
        return run()
    except GidError as error:
        return "%s: %s" % (type(error).__name__, error)


def test_r_sequential_matches_brute():
    # r = 1 closed forms and canonical-completion bounds against
    # enumeration, refusals included: rows that cannot reach r, indices out
    # of range, ternary profiles and, on the brute route, node limits
    rng = random.Random(446)
    routes = collections.Counter()
    for _ in range(600):
        n = rng.randrange(3, 7)
        r = rng.randrange(1, 4)
        if rng.random() < 0.8:
            profile = random_r_partial(rng, n, min(r, n), 9)
        else:
            profile = random_partial(rng, n, 9)
        if rng.random() < 0.05:
            profile = make_profile(profile.rows(), kind="ternary")
        subset = random_subset(rng, n)
        if rng.random() < 0.05:
            subset |= {n, -1}
        search = SearchBudget(rng.choice([None, None, None, 0, 4, 64]))
        rule = rng.choice([SocialRule.csr(), SocialRule.lsr()])
        limited = error_text(lambda: pqi_nqi_brute(profile, subset, rule, r=r, search=search))
        unbounded = error_text(lambda: pqi_nqi_brute(profile, subset, rule, r=r))
        for index, mode in enumerate((PQI, NQI)):
            answer = error_text(lambda: answer_query(profile, PartialQuery(subset, mode, r=r), rule, search))
            brute = limited
            if isinstance(answer, tuple):
                answer, route = answer
                routes[route] += 1
                if route == "r_sequential":
                    brute = unbounded  # it enumerates nothing, so the limit does not apply
                    routes["past the limit"] += isinstance(limited, str)
            expected = brute if isinstance(brute, str) else brute[index]
            assert answer == expected, (profile.rows(), sorted(subset), rule.variant, r, mode)
    assert routes["r_sequential"] > 100 and routes["brute"] > 10, routes
    assert routes["past the limit"] > 10, routes


def test_r_sequential_closed_form_edges():
    csr, lsr = SocialRule.csr(), SocialRule.lsr()
    # r = 1 csr qualifies one member at most, though every row could aim
    # its +1 at either member
    open2 = make_profile([[0, 0], [0, 0]], kind="partial")
    assert r_sequential(open2, {0, 1}, 1, csr, PQI) is False
    assert r_sequential(open2, {1}, 1, csr, PQI) is True
    # row a1's diagonal is unknown but its one +1 is spent on a2
    spent = make_profile([[0, 1, -1], [0, 0, 0], [1, -1, 0]], kind="partial")
    assert r_sequential(spent, {0}, 1, lsr, PQI) is False
    assert r_sequential(spent, {1}, 1, lsr, PQI) is True
    for profile, subset, rule in ((open2, {0, 1}, csr), (spent, {0}, lsr), (spent, {1}, lsr)):
        possible, _ = pqi_nqi_brute(profile, subset, rule, r=1)
        assert r_sequential(profile, subset, 1, rule, PQI) is possible
    # between the bounds the route leaves the query to enumeration
    diag = make_profile([[1, 0, 0], [0, 1, 0], [0, 0, 1]], kind="partial")
    assert r_sequential(diag, {0}, 2, csr, NQI) is None
    assert r_sequential(diag, {0}, 2, lsr, NQI) is True
    assert r_sequential(make_profile([[-1, 0], [0, -1]], kind="partial"), {0}, 1, lsr, NQI) is False


def test_r_sequential_refusals():
    lsr = SocialRule.lsr()
    with pytest.raises(PreconditionViolated):
        r_sequential(make_profile([[0, 0], [0, 0]], kind="partial"), {0}, 1, consent(1, 1), PQI)
    with pytest.raises(WrongKind):
        r_sequential(make_profile([[1, 0], [0, 1]], kind="ternary"), {5}, 9, lsr, PQI)
    with pytest.raises(IndexOutOfRange):
        r_sequential(make_profile([[1, 0], [0, 1]], kind="partial"), {5}, 9, lsr, PQI)
    with pytest.raises(NoRExtension):
        r_sequential(make_profile([[1, 0], [0, 1]], kind="partial"), {0}, 9, lsr, PQI)
    # only enumeration counts its r-extensions against the node limit,
    # after the rows' own refusals
    with pytest.raises(NoRExtension):
        pqi_nqi_brute(make_profile([[1, 0], [0, 1]], kind="partial"), {0}, lsr, r=9, search=SearchBudget(0))
    open2 = make_profile([[0, 0], [0, 0]], kind="partial")
    with pytest.raises(InstanceTooLarge, match="^4 r-extensions exceed node limit 3$"):
        pqi_nqi_brute(open2, {0}, lsr, r=1, search=SearchBudget(3))
    assert answer_query(open2, PartialQuery({0}, PQI, r=1), lsr, SearchBudget(3)) == (True, "r_sequential")


def test_every_route_names_the_same_out_of_range_index():
    # the index pqi_nqi_brute names, whichever order the set is written in
    profile = make_profile([[1, 0], [0, 1]], kind="partial")
    subset = {5, -1}
    routes = (
        lambda: pqi_nqi_brute(profile, subset, consent(1, 1), r=1),
        lambda: pqi(profile, PartialQuery(subset, PQI), consent(1, 1)),
        lambda: nqi(profile, PartialQuery(subset, NQI), consent(1, 1)),
        lambda: r_pqi_general(profile, subset, 1, consent(1, 1)),
        lambda: r_nqi(profile, subset, 1, consent(1, 1)),
        lambda: r_sequential(profile, subset, 1, SocialRule.lsr(), PQI),
    )
    for route in routes:
        with pytest.raises(IndexOutOfRange, match="^individual index 5 out of range for n=2$"):
            route()


# ------------------------------------------------- exhaustive small profiles


def query_rules(n):
    """csr, lsr, every consent pair within the quota bound, ternary (s, *, t) for s, t <= n + 2."""
    rules = [SocialRule.csr(), SocialRule.lsr()]
    rules += [consent(s, t) for s in range(1, n + 2) for t in range(1, n + 3 - s)]
    rules += [SocialRule.ternary(s, None, t) for s in range(1, n + 3) for t in range(1, n + 3)]
    return rules


def outcome(run):
    try:
        return run()
    except GidError as error:
        return type(error)


def check_query_routes(profile, subset, rule, r):
    """answer_query agrees with enumeration, error classes included, in both modes."""
    brute = outcome(lambda: pqi_nqi_brute(profile, subset, rule, r=r))
    for index, mode in enumerate((PQI, NQI)):
        answer = outcome(lambda: answer_query(profile, PartialQuery(subset, mode, r=r), rule)[0])
        expected = brute if isinstance(brute, type) else brute[index]
        assert answer == expected, (profile.rows(), sorted(subset), rule.describe(), r, mode)


def check_extensions(profile, subset, rule):
    """Both canonical extensions are binary completions that keep every known cell."""
    full = (1 << profile.n) - 1
    for builder in (optimistic_extension, pessimistic_extension):
        ext = builder(profile, subset, rule)
        assert ext.kind == "binary" and ext.row_known == (full,) * profile.n
        for pos, known, ext_pos in zip(profile.row_pos, profile.row_known, ext.row_pos):
            assert ext_pos & known == pos


def test_every_query_route_matches_brute_exhaustively_up_to_n2():
    queries = 0
    for n in (1, 2):
        subsets = [frozenset(s) for size in range(1, n + 1)
                   for s in itertools.combinations(range(n), size)]
        for cells in itertools.product((1, -1, 0), repeat=n * n):
            profile = make_profile([cells[a * n:(a + 1) * n] for a in range(n)], kind="partial")
            for subset in subsets:
                for rule in query_rules(n):
                    check_extensions(profile, subset, rule)
                    for r in [None, *range(1, n + 1)]:
                        check_query_routes(profile, subset, rule, r)
                        queries += 2
    assert queries == 35160


def test_every_query_route_matches_brute_on_n3_sample():
    rng = random.Random(1003)
    rules = query_rules(3)
    for _ in range(1000):
        profile = random_partial(rng, 3, 2)
        subset = random_subset(rng, 3)
        rule = rng.choice(rules)
        check_extensions(profile, subset, rule)
        check_query_routes(profile, subset, rule, rng.choice([None, 1, 2, 3]))


def test_readme_route_table_matches_the_routes():
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    table = readme.split("| route | domain |", 1)[1].split("\n\n", 1)[0]
    documented = set()
    for line in table.splitlines()[2:]:
        documented.update(re.findall(r"`(\w+)`", line.split("|")[1]))
    # every route answer_query names on a seeded sweep of valid queries
    rng = random.Random(23)
    answered = set()
    for _ in range(400):
        n = rng.randrange(2, 5)
        r = rng.choice([None, 1, 2])
        profile = random_partial(rng, n, 6) if r is None else random_r_partial(rng, n, min(r, n), 6)
        query = PartialQuery(random_subset(rng, n), rng.choice([PQI, NQI]), r)
        answered.add(answer_query(profile, query, rng.choice(query_rules(n)))[1])
    assert documented == answered
