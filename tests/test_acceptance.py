"""End-to-end acceptance checks for the whole package.

Each test covers one acceptance criterion and prints a single PASS line
with its headline numbers; a failure surfaces as an ordinary pytest
failure.  The checks deliberately lean on the brute-force oracles as
ground truth: every specialized solver, immunity entry, reduction, and
partial-profile algorithm is replayed against exhaustive search on
randomized inputs drawn with fixed seeds.
"""

import random
import time

from gidsolve import profiles
from gidsolve.generators import (
    augment_to_exact_partition,
    augment_to_general,
    gen_planted_cgcdi,
    gen_random_profile,
    gen_random_r_profile,
    gen_rx3c,
    gen_rx3c_no,
    has_exact_cover,
    rx3c_to_cgb,
    rx3c_to_cgcai_r,
)
from gidsolve.instances import (
    check_witness,
    diagnostics,
    format_instance,
    hard_violations,
    make_instance,
    validate,
)
from gidsolve.oracle import (
    pqi_nqi_brute,
    solve_bribery_brute,
    solve_control_brute,
    solve_microbribery_brute,
)
from gidsolve.partial import PartialQuery, answer_query
from gidsolve.profiles import SocialRule, format_profile, make_profile
from gidsolve.solvers import (
    IMMUNITY_TABLE,
    check_immunity,
    solve_auto,
    solve_bribery_sliced,
    solve_cgb_xp,
    solve_cgcai_r1,
    solve_dgb_xp,
    solve_fpt_ilp,
    solve_gcdi_22,
    solve_gcpi_sliced,
    solve_microbribery_consent,
    solve_microbribery_sliced,
)

from helpers import ex1


def _report(capsys, line):
    # a leading break keeps the line whole under pytest's live progress output
    with capsys.disabled():
        print("\n" + line)


# ---------------------------------------------------------------------------
# shared random draws


def _draw_profile(rng, n):
    return gen_random_profile(n, "binary", 0.0, rng.randrange(1 << 30))


def _draw_pool(rng, n):
    return frozenset(rng.sample(range(n), rng.randint(2, n - 1)))


def _consent_quotas(rng, n, cap=3):
    # s + t <= n + 2
    s = rng.randint(1, min(cap, n + 1))
    t = rng.randint(1, min(cap, n + 2 - s))
    return s, t


def _targets_from(rng, population, pending):
    """Nonempty subset of population with at least one pending member."""
    if not pending:
        return None
    picked = {rng.choice(sorted(pending))}
    for x in sorted(population):
        if x not in picked and rng.random() < 0.25:
            picked.add(x)
    return frozenset(picked)


def _split_targets(rng, members):
    cut = rng.randint(1, len(members) - 1)
    return frozenset(members[:cut]), frozenset(members[cut:])


def _draw_targets(rng, n, objective):
    if objective == "exact":
        aplus = frozenset(a for a in range(n) if rng.random() < 0.5)
        return aplus, frozenset(range(n)) - aplus
    members = rng.sample(range(n), rng.randint(1, min(3, n)))
    if objective == "constructive":
        return frozenset(members), frozenset()
    if objective == "destructive":
        return frozenset(), frozenset(members)
    if len(members) < 2:
        members = rng.sample(range(n), 2)
    return _split_targets(rng, members)


def _maybe_agent_prices(rng, n):
    if rng.random() < 0.7:
        return None
    return {a: rng.randint(1, 3) for a in range(n) if rng.random() < 0.4} or None


def _maybe_pair_prices(rng, n):
    if rng.random() < 0.7:
        return None
    out = {}
    for b in range(n):
        for a in range(n):
            if rng.random() < 0.3:
                out[(b, a)] = rng.randint(1, 3)
    return out or None


# ---------------------------------------------------------------------------
# criterion 1: the five-individual worked example, exactly and fast


def test_worked_example_rules(capsys):
    p = ex1()
    cases = [
        (SocialRule.consent(1, 1), {0, 2, 3}),
        (SocialRule.consent(1, 2), {0, 1, 2, 3}),
        (SocialRule.consent(2, 1), {0, 2}),
        (SocialRule.csr(), {1, 2, 4}),
        (SocialRule.lsr(), {0, 1, 2, 3, 4}),
    ]
    worst = 0.0
    for rule, expected in cases:
        assert profiles.eval(rule, None, p) == frozenset(expected)
        best = None
        for _ in range(3):
            t0 = time.perf_counter()
            profiles.eval(rule, None, p)
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        worst = max(worst, best)
    result, trace = profiles.eval(SocialRule.csr(), None, p, want_trace=True)
    assert result == frozenset({1, 2, 4})
    assert trace.rounds == (
        frozenset({2}),
        frozenset({1, 2}),
        frozenset({1, 2, 4}),
    )
    assert worst < 0.001
    _report(capsys, "acceptance 1 worked example: PASS "
                    "(5 rules exact, slowest eval %.3f ms)" % (worst * 1000))


# ---------------------------------------------------------------------------
# criterion 2: consent duality under profile negation


def test_consent_duality(capsys):
    t0 = time.perf_counter()
    rng = random.Random(20260822)
    checks = 0
    for _ in range(1000):
        n = rng.randint(1, 7)
        p = _draw_profile(rng, n)
        neg = profiles.negate(p)
        everyone = frozenset(range(n))
        for s in range(1, n + 2):
            for t in range(1, n + 3 - s):
                lhs = profiles.eval(SocialRule.consent(s, t), None, p)
                rhs = everyone - profiles.eval(SocialRule.consent(t, s), None, neg)
                assert lhs == rhs
                checks += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(capsys, "acceptance 2 consent duality: PASS "
                    "(%d identities over 1000 profiles, %.2f s)" % (checks, elapsed))


# ---------------------------------------------------------------------------
# criterion 3: every immunity entry blocks every nontrivial random instance
#
# Builders draw pattern-matching instances whose target sides are not
# already satisfied (the standing assumption behind the immunity
# arguments); draws that miss are rejected and redrawn.


def _b_add_cannot_qualify(rng):
    n = rng.randint(3, 6)
    p = _draw_profile(rng, n)
    rule = SocialRule.consent(1, rng.randint(1, 3))
    pool = _draw_pool(rng, n)
    qualified = profiles.eval(rule, pool, p)
    aplus = _targets_from(rng, pool, pool - qualified)
    if aplus is None:
        return None
    return make_instance(p, rule, "GCAI", "constructive", aplus=aplus,
                         pool=pool, budget=rng.randint(1, n))


def _b_add_cannot_disqualify(rng):
    n = rng.randint(3, 6)
    p = _draw_profile(rng, n)
    rule = SocialRule.consent(rng.randint(1, 3), 1)
    pool = _draw_pool(rng, n)
    qualified = profiles.eval(rule, pool, p)
    aminus = _targets_from(rng, pool, pool & qualified)
    if aminus is None:
        return None
    return make_instance(p, rule, "GCAI", "destructive", aminus=aminus,
                         pool=pool, budget=rng.randint(1, n))


def _b_removal_cannot_disqualify(rng):
    n = rng.randint(3, 6)
    p = _draw_profile(rng, n)
    rule = SocialRule.consent(1, rng.randint(1, 3))
    family = rng.choice(("GCDI", "GCPI"))
    qualified = profiles.eval(rule, None, p)
    aminus = _targets_from(rng, range(n), qualified)
    if aminus is None:
        return None
    budget = None if family == "GCPI" else rng.randint(1, n)
    return make_instance(p, rule, family, "destructive", aminus=aminus, budget=budget)


def _b_removal_cannot_qualify(rng):
    n = rng.randint(3, 6)
    p = _draw_profile(rng, n)
    rule = SocialRule.consent(rng.randint(1, 3), 1)
    family = rng.choice(("GCDI", "GCPI"))
    qualified = profiles.eval(rule, None, p)
    aplus = _targets_from(rng, range(n), frozenset(range(n)) - qualified)
    if aplus is None:
        return None
    budget = None if family == "GCPI" else rng.randint(1, n)
    return make_instance(p, rule, family, "constructive", aplus=aplus, budget=budget)


def _b_exact_all_qualify(rng):
    n = rng.randint(3, 6)
    p = _draw_profile(rng, n)
    # t >= 2 keeps this outside the t=1 removal entry, which sits earlier
    rule = SocialRule.consent(rng.randint(1, 2), rng.randint(2, 3))
    if profiles.eval(rule, None, p) == frozenset(range(n)):
        return None
    return make_instance(p, rule, "GCPI", "exact", aplus=range(n))


def _b_lsr_add(rng):
    n = rng.randint(3, 6)
    p = _draw_profile(rng, n)
    rule = SocialRule.lsr()
    pool = _draw_pool(rng, n)
    aminus = _targets_from(rng, pool, profiles.eval(rule, pool, p))
    if aminus is None:
        return None
    return make_instance(p, rule, "GCAI", "destructive", aminus=aminus,
                         pool=pool, budget=rng.randint(1, n))


def _b_lsr_removal(rng):
    n = rng.randint(3, 6)
    p = _draw_profile(rng, n)
    rule = SocialRule.lsr()
    family = rng.choice(("GCDI", "GCPI"))
    qualified = profiles.eval(rule, None, p)
    aplus = _targets_from(rng, range(n), frozenset(range(n)) - qualified)
    if aplus is None:
        return None
    budget = None if family == "GCPI" else rng.randint(1, n)
    return make_instance(p, rule, family, "constructive", aplus=aplus, budget=budget)


def _b_lsr_partition_empty(rng):
    n = rng.randint(3, 6)
    p = _draw_profile(rng, n)
    rule = SocialRule.lsr()
    if not profiles.eval(rule, None, p):
        return None
    return make_instance(p, rule, "GCPI", "exact", aminus=range(n))


def _b_csr_general(rng):
    n = rng.randint(3, 5)
    p = _draw_profile(rng, n)
    rule = SocialRule.csr()
    pool = _draw_pool(rng, n)
    qualified = profiles.eval(rule, pool, p)
    pending_plus = pool - qualified
    if not pending_plus or not qualified:
        return None
    aplus = {rng.choice(sorted(pending_plus))}
    aminus = {rng.choice(sorted(qualified))}
    for x in sorted(pool - aplus - aminus):
        roll = rng.random()
        if roll < 0.2:
            aplus.add(x)
        elif roll < 0.4:
            aminus.add(x)
    return make_instance(p, rule, "GCAI", "general", aplus=aplus, aminus=aminus,
                         pool=pool, budget=rng.randint(1, n))


def _b_csr_r1(rng):
    n = rng.randint(3, 6)
    p = gen_random_r_profile(n, 1, rng.randrange(1 << 30))
    rule = SocialRule.csr()
    pool = _draw_pool(rng, n)
    aplus = _targets_from(rng, pool, pool - profiles.eval(rule, pool, p))
    if aplus is None:
        return None
    return make_instance(p, rule, "GCAI", "constructive", aplus=aplus,
                         pool=pool, budget=rng.randint(1, n), r_restriction=1)


def _b_lsr_r1(rng):
    n = rng.randint(3, 6)
    p = gen_random_r_profile(n, 1, rng.randrange(1 << 30))
    rule = SocialRule.lsr()
    pool = _draw_pool(rng, n)
    aplus = _targets_from(rng, pool, pool - profiles.eval(rule, pool, p))
    if aplus is None:
        return None
    return make_instance(p, rule, "GCAI", "constructive", aplus=aplus,
                         pool=pool, budget=rng.randint(1, n), r_restriction=1)


_IMMUNITY_BUILDERS = (
    ("add-cannot-qualify-when-s=1", _b_add_cannot_qualify),
    ("add-cannot-disqualify-when-t=1", _b_add_cannot_disqualify),
    ("removal-cannot-disqualify-when-s=1", _b_removal_cannot_disqualify),
    ("removal-cannot-qualify-when-t=1", _b_removal_cannot_qualify),
    ("exact-partition-needs-disqualified-targets", _b_exact_all_qualify),
    ("lsr-add-cannot-disqualify", _b_lsr_add),
    ("lsr-removal-cannot-qualify", _b_lsr_removal),
    ("lsr-partition-all-disqualify-impossible", _b_lsr_partition_empty),
    ("csr-add-keeps-qualified-reachable", _b_csr_general),
    ("csr-single-winner-when-r=1", _b_csr_r1),
    ("lsr-liberal-when-r=1", _b_lsr_r1),
)


def test_immunity_relation(capsys):
    t0 = time.perf_counter()
    assert {tag for tag, _ in _IMMUNITY_BUILDERS} == {p.tag for p in IMMUNITY_TABLE}
    per_row = 300
    total = 0
    for row, (tag, builder) in enumerate(_IMMUNITY_BUILDERS):
        rng = random.Random(300 + row)
        made = 0
        attempts = 0
        while made < per_row:
            attempts += 1
            assert attempts < per_row * 80, "draws stalled for %s" % tag
            inst = builder(rng)
            if inst is None or validate(inst):
                continue
            made += 1
            total += 1
            verdict = check_immunity(inst)
            assert verdict.immune and verdict.theorem_tag == tag
            assert solve_control_brute(inst).answer == "NO"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(capsys, "acceptance 3 immunity relation: PASS "
                    "(%d rows x %d instances all brute NO, %.1f s)"
                    % (len(_IMMUNITY_BUILDERS), per_row, elapsed))


# ---------------------------------------------------------------------------
# criterion 4: specialized solvers agree with exhaustive search


def _i_cgb(rng):
    n = rng.randint(3, 7)
    p = _draw_profile(rng, n)
    rule = SocialRule.consent(rng.choice((2, 3)), 1)
    aplus = frozenset(rng.sample(range(n), rng.randint(1, 2)))
    return make_instance(p, rule, "GB", "constructive", aplus=aplus,
                         budget=rng.randint(0, 3),
                         agent_prices=_maybe_agent_prices(rng, n))


def _i_dgb(rng):
    n = rng.randint(3, 7)
    p = _draw_profile(rng, n)
    rule = SocialRule.consent(1, rng.randint(1, 4))
    aminus = frozenset(rng.sample(range(n), rng.randint(1, 2)))
    return make_instance(p, rule, "GB", "destructive", aminus=aminus,
                         budget=rng.randint(0, 3),
                         agent_prices=_maybe_agent_prices(rng, n))


def _i_gcdi22(rng):
    n = rng.randint(3, 7)
    p = _draw_profile(rng, n)
    objective = rng.choice(("constructive", "destructive", "general"))
    aplus, aminus = _draw_targets(rng, n, objective)
    return make_instance(p, SocialRule.consent(2, 2), "GCDI", objective,
                         aplus=aplus, aminus=aminus, budget=rng.randint(0, 3))


def _i_cgcai_r1(rng):
    n = rng.randint(3, 7)
    p = gen_random_r_profile(n, 1, rng.randrange(1 << 30))
    s = rng.randint(2, 3)
    rule = SocialRule.consent(s, rng.randint(1, min(4, n + 2 - s)))
    pool = frozenset(rng.sample(range(n), rng.randint(1, n - 1)))
    aplus = frozenset(rng.sample(sorted(pool), rng.randint(1, min(2, len(pool)))))
    return make_instance(p, rule, "GCAI", "constructive", aplus=aplus, pool=pool,
                         budget=rng.randint(0, 3), r_restriction=1)


def _i_gmb_binary(rng):
    n = rng.randint(3, 5)
    p = _draw_profile(rng, n)
    s, t = _consent_quotas(rng, n)
    objective = rng.choice(("constructive", "destructive", "general", "exact"))
    aplus, aminus = _draw_targets(rng, n, objective)
    return make_instance(p, SocialRule.consent(s, t), "GMB", objective,
                         aplus=aplus, aminus=aminus, budget=rng.randint(0, 3),
                         pair_prices=_maybe_pair_prices(rng, n))


def _i_gmb_ternary(rng):
    n = rng.randint(3, 4)
    p = gen_random_profile(n, "ternary", 0.3, rng.randrange(1 << 30))
    s_prime = None if rng.random() < 0.4 else rng.randint(1, 3)
    rule = SocialRule.ternary(rng.randint(1, 3), s_prime, rng.randint(1, 3))
    objective = rng.choice(("constructive", "destructive", "general", "exact"))
    aplus, aminus = _draw_targets(rng, n, objective)
    return make_instance(p, rule, "GMB", objective,
                         aplus=aplus, aminus=aminus, budget=rng.randint(0, 2),
                         pair_prices=_maybe_pair_prices(rng, n))


def _i_fpt(rng):
    n = rng.randint(3, 7)
    p = _draw_profile(rng, n)
    s, t = _consent_quotas(rng, n)
    rule = SocialRule.consent(s, t)
    if rng.random() < 0.5:
        objective = rng.choice(("constructive", "destructive", "general", "exact"))
        pool = _draw_pool(rng, n)
        if objective == "exact":
            aplus = frozenset(a for a in pool if rng.random() < 0.5)
            aminus = pool - aplus
        else:
            members = rng.sample(sorted(pool), rng.randint(1, min(3, len(pool))))
            if objective == "constructive":
                aplus, aminus = frozenset(members), frozenset()
            elif objective == "destructive":
                aplus, aminus = frozenset(), frozenset(members)
            else:
                if len(members) < 2:
                    members = rng.sample(sorted(pool), 2)
                aplus, aminus = _split_targets(rng, members)
        return make_instance(p, rule, "GCAI", objective, aplus=aplus, aminus=aminus,
                             pool=pool, budget=rng.randint(0, 3))
    objective = rng.choice(("constructive", "destructive", "general"))
    aplus, aminus = _draw_targets(rng, n, objective)
    return make_instance(p, rule, "GCDI", objective, aplus=aplus, aminus=aminus,
                         budget=rng.randint(0, 3))


def _i_gcpi(rng):
    n = rng.randint(3, 7)
    family = rng.choice(("consent", "csr", "lsr", "ternary"))
    if family == "ternary":
        p = gen_random_profile(n, "ternary", 0.3, rng.randrange(1 << 30))
    else:
        p = _draw_profile(rng, n)
    rule = _draw_query_rule(rng, family, n)
    objective = rng.choice(("constructive", "destructive", "general", "exact"))
    aplus, aminus = _draw_targets(rng, n, objective)
    return make_instance(p, rule, "GCPI", objective, aplus=aplus, aminus=aminus)


def _i_gb_sequential(rng):
    n = rng.randint(3, 7)
    p = _draw_profile(rng, n)
    rule = rng.choice((SocialRule.csr(), SocialRule.lsr()))
    objective = rng.choice(("constructive", "destructive", "general", "exact"))
    aplus, aminus = _draw_targets(rng, n, objective)
    prices = {a: rng.randint(1, 3) for a in range(n)} if rng.random() < 0.5 else None
    return make_instance(p, rule, "GB", objective, aplus=aplus, aminus=aminus,
                         budget=rng.randint(0, 3), agent_prices=prices)


def _i_gmb_sequential(rng):
    n = rng.randint(2, 5)
    p = _draw_profile(rng, n)
    rule = rng.choice((SocialRule.csr(), SocialRule.lsr()))
    objective = rng.choice(("constructive", "destructive", "general", "exact"))
    aplus, aminus = _draw_targets(rng, n, objective)
    prices = {(b, a): rng.randint(1, 3) for b in range(n) for a in range(n)} if rng.random() < 0.5 else None
    return make_instance(p, rule, "GMB", objective, aplus=aplus, aminus=aminus,
                         budget=rng.randint(0, 3), pair_prices=prices)


_ORACLE_SWEEPS = (
    ("cgb_xp", _i_cgb, solve_cgb_xp, solve_bribery_brute, 41),
    ("dgb_xp", _i_dgb, solve_dgb_xp, solve_bribery_brute, 42),
    ("gcdi_22", _i_gcdi22, solve_gcdi_22, solve_control_brute, 43),
    ("cgcai_r1", _i_cgcai_r1, solve_cgcai_r1, solve_control_brute, 44),
    ("microbribery/binary", _i_gmb_binary, solve_microbribery_consent,
     solve_microbribery_brute, 45),
    ("microbribery/ternary", _i_gmb_ternary, solve_microbribery_consent,
     solve_microbribery_brute, 46),
    ("fpt_ilp", _i_fpt, solve_fpt_ilp, solve_control_brute, 47),
    ("gcpi_sliced", _i_gcpi, solve_gcpi_sliced, solve_control_brute, 48),
    ("bribery_sliced", _i_gb_sequential, solve_bribery_sliced, solve_bribery_brute, 49),
    ("microbribery_sliced", _i_gmb_sequential, solve_microbribery_sliced, solve_microbribery_brute, 50),
)


def test_specialized_solvers_match_oracles(capsys):
    t0 = time.perf_counter()
    per_solver = 500
    lines = []
    for name, builder, specialized, brute, seed in _ORACLE_SWEEPS:
        rng = random.Random(seed)
        made = 0
        yes = 0
        attempts = 0
        while made < per_solver:
            attempts += 1
            assert attempts < per_solver * 40
            inst = builder(rng)
            if inst is None or hard_violations(validate(inst)):
                continue
            made += 1
            fast = specialized(inst)
            slow = brute(inst)
            fast_answer = "NO" if fast.answer == "IMMUNE" else fast.answer
            assert fast_answer == slow.answer, (name, inst)
            if fast.answer == "YES":
                assert check_witness(inst, fast.witness)
                yes += 1
            if slow.answer == "YES":
                assert check_witness(inst, slow.witness)
        assert yes > 0, "sweep for %s never produced a YES" % name
        lines.append("%s %d/%d yes" % (name, yes, per_solver))
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _report(capsys, "acceptance 4 oracle equivalence: PASS (%s; %.1f s)"
                    % (", ".join(lines), elapsed))


# ---------------------------------------------------------------------------
# criterion 5: hardness constructions produce the planted answers


def _partition_source(yes):
    if yes:
        rows = [
            [-1, 1, 1, -1],
            [-1, -1, -1, 1],
            [1, -1, -1, 1],
            [1, 1, 1, -1],
        ]
    else:
        rows = [
            [-1, 1, 1, 1],
            [-1, -1, 1, 1],
            [-1, 1, -1, 1],
            [-1, 1, 1, -1],
        ]
    return make_instance(make_profile(rows, kind="binary"), SocialRule.consent(2, 2),
                         "GCPI", "constructive", aplus=(0,))


def test_reduction_soundness(capsys):
    t0 = time.perf_counter()
    # bribery construction: planted covers say YES, the cover-free family NO
    for m, seed in ((1, 5), (2, 6)):
        rx = gen_rx3c(m, seed)
        assert has_exact_cover(rx)
        inst = rx3c_to_cgb(rx)
        assert not hard_violations(validate(inst))
        assert solve_bribery_brute(inst).answer == "YES"
        assert diagnostics(inst).s_star == 2
    no_rx = gen_rx3c_no(2)
    assert not has_exact_cover(no_rx)
    assert solve_bribery_brute(rx3c_to_cgb(no_rx)).answer == "NO"
    # adding-control construction on exact-row-count profiles, both variants
    rx1 = gen_rx3c(1, 7)
    for variant in ("consent", "lsr"):
        assert solve_control_brute(rx3c_to_cgcai_r(rx1, variant)).answer == "YES"
        scrubbed = rx3c_to_cgcai_r(rx1, variant, scrub_element=0)
        assert solve_control_brute(scrubbed).answer == "NO"
    # general-objective augmentation, both flavors
    gcai_yes = augment_to_general(rx3c_to_cgcai_r(rx1, "consent", t=2), "gcai")
    assert solve_control_brute(gcai_yes).answer == "YES"
    gcai_no = augment_to_general(
        rx3c_to_cgcai_r(rx1, "consent", t=2, scrub_element=0), "gcai")
    assert solve_control_brute(gcai_no).answer == "NO"
    gcdi_yes = augment_to_general(gen_planted_cgcdi(), "gcdi")
    assert solve_control_brute(gcdi_yes).answer == "YES"
    gcdi_no = augment_to_general(gen_planted_cgcdi(perturbed=True), "gcdi")
    assert solve_control_brute(gcdi_no).answer == "NO"
    # exact-partition augmentation over the hand-built source pair
    assert solve_control_brute(augment_to_exact_partition(_partition_source(True))).answer == "YES"
    assert solve_control_brute(augment_to_exact_partition(_partition_source(False))).answer == "NO"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(capsys, "acceptance 5 reduction soundness: PASS "
                    "(all planted answers confirmed by search, %.1f s)" % elapsed)


# ---------------------------------------------------------------------------
# criterion 6: qualification queries on partial profiles match enumeration


def _draw_partial(rng, n, unknowns):
    rows = [[rng.choice((1, -1)) for _ in range(n)] for _ in range(n)]
    cells = [(b, a) for b in range(n) for a in range(n)]
    for b, a in rng.sample(cells, unknowns):
        rows[b][a] = 0
    return make_profile(rows, kind="partial")


def _draw_query_rule(rng, family, n):
    if family == "consent":
        s, t = _consent_quotas(rng, n)
        return SocialRule.consent(s, t)
    if family == "csr":
        return SocialRule.csr()
    if family == "lsr":
        return SocialRule.lsr()
    s_prime = None if rng.random() < 0.4 else rng.randint(1, 3)
    return SocialRule.ternary(rng.randint(1, 3), s_prime, rng.randint(1, 3))


def test_partial_queries_match_enumeration(capsys):
    t0 = time.perf_counter()
    families = ("consent", "csr", "lsr", "ternary")
    per_family = 500
    for fam_index, family in enumerate(families):
        rng = random.Random(600 + fam_index)
        for _ in range(per_family):
            n = rng.randint(2, 5)
            p = _draw_partial(rng, n, rng.randint(0, min(8, n * n)))
            rule = _draw_query_rule(rng, family, n)
            subset = frozenset(rng.sample(range(n), rng.randint(1, n)))
            possible, necessary = pqi_nqi_brute(p, subset, rule)
            got_p, name_p = answer_query(p, PartialQuery(subset, "PQI"), rule)
            got_n, name_n = answer_query(p, PartialQuery(subset, "NQI"), rule)
            assert (name_p, name_n) == ("pqi", "nqi")
            assert got_p == possible and got_n == necessary
            assert possible or not necessary
    # row-quota queries against enumeration of exact-r completions
    rng = random.Random(660)
    for i in range(300):
        n = rng.randint(3, 6)
        r = rng.randint(1, 3)
        rows = [list(row) for row in gen_random_r_profile(n, r, rng.randrange(1 << 30)).rows()]
        cells = [(b, a) for b in range(n) for a in range(n)]
        for b, a in rng.sample(cells, rng.randint(0, 8)):
            rows[b][a] = 0
        p = make_profile(rows, kind="partial")
        subset = frozenset(rng.sample(range(n), rng.randint(1, n)))
        if i % 2 == 0:
            rule = SocialRule.consent(rng.randint(2, 3), 1)
            expect_name = "r_pqi_consent_flow"
        else:
            t = rng.randint(2, 3)
            rule = SocialRule.consent(rng.randint(1, min(3, n + 2 - t)), t)
            expect_name = "r_pqi_general"
        possible, necessary = pqi_nqi_brute(p, subset, rule, r=r)
        got_p, name_p = answer_query(p, PartialQuery(subset, "PQI", r), rule)
        got_n, name_n = answer_query(p, PartialQuery(subset, "NQI", r), rule)
        assert (name_p, name_n) == (expect_name, "r_nqi")
        assert got_p == possible and got_n == necessary
        assert possible or not necessary
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(capsys, "acceptance 6 partial queries: PASS "
                    "(4x%d plain + 300 row-quota sweeps, %.1f s)" % (per_family, elapsed))


# ---------------------------------------------------------------------------
# criterion 7: byte-level determinism of generators and solver sweeps
#
# There is no parallel code path in the package; the sweeps below are the
# sequential ones the other criteria use, replayed twice from the same
# seeds.


def _generator_blob():
    parts = []
    for seed in (0, 1, 2):
        parts.append(format_profile(gen_random_profile(6, "binary", 0.0, seed)))
        parts.append(format_profile(gen_random_profile(5, "ternary", 0.3, seed)))
        parts.append(format_profile(gen_random_profile(5, "partial", 0.4, seed)))
        parts.append(format_profile(gen_random_r_profile(6, 2, seed)))
    for m, seed in ((1, 5), (2, 6)):
        rx = gen_rx3c(m, seed)
        parts.append(repr(rx.triples))
        inst = rx3c_to_cgb(rx)
        parts.append(format_instance(inst, "p.gid"))
        parts.append(format_profile(inst.profile))
    parts.append(repr(gen_rx3c_no(2).triples))
    rx1 = gen_rx3c(1, 7)
    for variant in ("consent", "lsr"):
        inst = rx3c_to_cgcai_r(rx1, variant, t=2)
        parts.append(format_instance(inst, "p.gid"))
        parts.append(format_profile(inst.profile))
        if variant == "consent":
            aug = augment_to_general(inst, "gcai")
            parts.append(format_instance(aug, "p.gid"))
            parts.append(format_profile(aug.profile))
    for perturbed in (False, True):
        inst = gen_planted_cgcdi(perturbed)
        parts.append(format_instance(inst, "p.gid"))
        parts.append(format_profile(inst.profile))
        aug = augment_to_general(inst, "gcdi")
        parts.append(format_instance(aug, "p.gid"))
        parts.append(format_profile(aug.profile))
    aug = augment_to_exact_partition(_partition_source(True))
    parts.append(format_instance(aug, "p.gid"))
    parts.append(format_profile(aug.profile))
    return "\n".join(parts)


def _solver_stream():
    out = []
    for name, builder, specialized, brute, seed in _ORACLE_SWEEPS:
        rng = random.Random(seed + 7700)
        for _ in range(30):
            inst = builder(rng)
            if inst is None or hard_violations(validate(inst)):
                continue
            fast = specialized(inst)
            slow = brute(inst)
            auto_verdict, auto_name = solve_auto(inst)
            out.append((name, fast.answer, fast.witness, slow.answer, slow.witness,
                        auto_verdict.answer, auto_verdict.witness, auto_name))
    rng = random.Random(7800)
    for _ in range(30):
        n = rng.randint(2, 5)
        p = _draw_partial(rng, n, rng.randint(0, min(8, n * n)))
        rule = _draw_query_rule(rng, rng.choice(("consent", "csr", "lsr", "ternary")), n)
        subset = frozenset(rng.sample(range(n), rng.randint(1, n)))
        out.append(answer_query(p, PartialQuery(subset, "PQI"), rule))
        out.append(answer_query(p, PartialQuery(subset, "NQI"), rule))
    return out


def test_determinism(capsys):
    assert _generator_blob() == _generator_blob()
    assert _solver_stream() == _solver_stream()
    _report(capsys, "acceptance 7 determinism: PASS "
                    "(generator bytes and solver sweeps identical across reruns)")
