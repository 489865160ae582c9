"""Specialized solver tests: goldens, immunity rows, and oracle sweeps."""

import itertools
import math
import pathlib
import random
import re

import pytest

from gidsolve import profiles, solvers
from gidsolve.errors import InstanceTooLarge, PreconditionViolated
from gidsolve.generators import gen_rx3c_no, rx3c_to_cgb
from gidsolve.instances import (
    AttackInstance,
    Solution,
    check_witness,
    effective_targets,
    hard_violations,
    make_instance,
    validate,
)
from gidsolve.oracle import (
    SearchBudget,
    solve_bribery_brute,
    solve_control_brute,
    solve_microbribery_brute,
)
from gidsolve.solvers import (
    IMMUNITY_TABLE,
    ORACLES,
    SOLVERS,
    _columnwise_flip_cost,
    build_ilp_model,
    check_immunity,
    preflight,
    solve_auto,
    solve_cgb_xp,
    solve_cgcai_r1,
    solve_dgb_xp,
    solve_fpt_ilp,
    solve_gcdi_22,
    solve_ilp_model,
    solve_microbribery_consent,
)

from helpers import ex1


def consent(s, t):
    return profiles.SocialRule.consent(s, t)


def random_binary(rng, n):
    return profiles.make_profile(
        [[rng.choice((1, -1)) for _ in range(n)] for _ in range(n)]
    )


def random_ternary(rng, n):
    return profiles.make_profile(
        [[rng.choice((1, -1, 0)) for _ in range(n)] for _ in range(n)],
        kind="ternary",
    )


def random_single_choice(rng, n):
    rows = []
    for _ in range(n):
        row = [-1] * n
        row[rng.randrange(n)] = 1
        rows.append(row)
    return profiles.make_profile(rows)


def assert_matches_brute(instance, solver, brute):
    got = solver(instance)
    want = brute(instance)
    if got.answer == "YES":
        assert check_witness(instance, got.witness)
        assert want.answer == "YES"
    else:
        # IMMUNE means NO with a reference attached
        assert want.answer == "NO"


# immunity table, one crafted valid instance per row


def immunity_cases():
    cases = []

    p = profiles.make_profile([
        [-1, 1, 1, 1],
        [-1, 1, 1, 1],
        [1, 1, 1, 1],
        [1, 1, 1, 1],
    ])
    cases.append((
        "add-cannot-qualify-when-s=1",
        make_instance(p, consent(1, 2), "GCAI", "constructive",
                      aplus=(0,), pool=(0, 1), budget=2),
    ))

    p = profiles.make_profile([
        [1, 1, -1, -1],
        [-1, 1, -1, -1],
        [1, -1, 1, 1],
        [1, 1, -1, 1],
    ])
    cases.append((
        "add-cannot-disqualify-when-t=1",
        make_instance(p, consent(2, 1), "GCAI", "destructive",
                      aminus=(1,), pool=(0, 1), budget=2),
    ))

    p = profiles.make_profile([
        [1, -1, -1, -1],
        [-1, 1, -1, -1],
        [-1, -1, 1, -1],
        [-1, -1, -1, 1],
    ])
    cases.append((
        "removal-cannot-disqualify-when-s=1",
        make_instance(p, consent(1, 2), "GCDI", "destructive",
                      aminus=(0,), budget=2),
    ))
    cases.append((
        "removal-cannot-disqualify-when-s=1",
        make_instance(p, consent(1, 2), "GCPI", "destructive", aminus=(0,)),
    ))

    p = profiles.make_profile([
        [-1, 1, 1, 1],
        [1, 1, -1, 1],
        [1, -1, 1, -1],
        [1, 1, -1, 1],
    ])
    cases.append((
        "removal-cannot-qualify-when-t=1",
        make_instance(p, consent(2, 1), "GCDI", "constructive",
                      aplus=(0,), budget=2),
    ))
    cases.append((
        "removal-cannot-qualify-when-t=1",
        make_instance(p, consent(2, 1), "GCPI", "constructive", aplus=(0,)),
    ))

    p = profiles.make_profile([
        [-1, 1, 1],
        [-1, 1, 1],
        [1, 1, 1],
    ])
    cases.append((
        "exact-partition-needs-disqualified-targets",
        make_instance(p, consent(2, 2), "GCPI", "exact", aplus=(0, 1, 2)),
    ))

    p = profiles.make_profile([
        [1, -1, -1, -1],
        [-1, 1, -1, -1],
        [1, 1, -1, 1],
        [-1, 1, 1, -1],
    ])
    cases.append((
        "lsr-add-cannot-disqualify",
        make_instance(p, profiles.SocialRule.lsr(), "GCAI", "destructive",
                      aminus=(0,), pool=(0, 1), budget=2),
    ))

    p = profiles.make_profile([
        [-1, 1, -1, -1],
        [-1, 1, -1, -1],
        [-1, -1, 1, -1],
        [-1, -1, -1, 1],
    ])
    cases.append((
        "lsr-removal-cannot-qualify",
        make_instance(p, profiles.SocialRule.lsr(), "GCDI", "constructive",
                      aplus=(0,), budget=2),
    ))
    cases.append((
        "lsr-removal-cannot-qualify",
        make_instance(p, profiles.SocialRule.lsr(), "GCPI", "constructive", aplus=(0,)),
    ))

    p = profiles.make_profile([
        [1, -1, -1],
        [-1, -1, 1],
        [-1, 1, -1],
    ])
    cases.append((
        "lsr-partition-all-disqualify-impossible",
        make_instance(p, profiles.SocialRule.lsr(), "GCPI", "exact", aminus=(0, 1, 2)),
    ))

    p = profiles.make_profile([
        [-1, 1, -1, 1],
        [-1, 1, -1, -1],
        [-1, 1, 1, -1],
        [1, -1, -1, -1],
    ])
    cases.append((
        "csr-add-keeps-qualified-reachable",
        make_instance(p, profiles.SocialRule.csr(), "GCAI", "general",
                      aplus=(0,), aminus=(1,), pool=(0, 1, 2), budget=1),
    ))

    p = profiles.make_profile([
        [-1, 1, -1, -1],
        [-1, 1, -1, -1],
        [1, -1, -1, -1],
        [-1, -1, -1, 1],
    ])
    cases.append((
        "csr-single-winner-when-r=1",
        make_instance(p, profiles.SocialRule.csr(), "GCAI", "constructive",
                      aplus=(0,), pool=(0, 1), budget=2, r_restriction=1),
    ))
    cases.append((
        "lsr-liberal-when-r=1",
        make_instance(p, profiles.SocialRule.lsr(), "GCAI", "constructive",
                      aplus=(0,), pool=(0, 1), budget=2, r_restriction=1),
    ))

    return cases


def test_immunity_cases_are_valid_instances():
    for tag, instance in immunity_cases():
        assert validate(instance) == [], tag


def test_immunity_cases_match_expected_row():
    for tag, instance in immunity_cases():
        verdict = check_immunity(instance)
        assert verdict.immune, tag
        assert verdict.theorem_tag == tag
        assert verdict.reason


def test_immunity_cases_not_trivial():
    # a trivially satisfied instance would short-circuit to YES, not IMMUNE
    for tag, instance in immunity_cases():
        got, name = solve_auto(instance)
        assert got.answer == "IMMUNE", tag
        assert got.immunity_ref == tag
        assert name == "immunity"


def test_immunity_cases_agree_with_oracle():
    for tag, instance in immunity_cases():
        assert solve_control_brute(instance).answer == "NO", tag


def test_every_immunity_row_is_exercised():
    covered = {tag for tag, _instance in immunity_cases()}
    assert covered == {pattern.tag for pattern in IMMUNITY_TABLE}


def test_immunity_ignores_side_dropped_by_objective():
    # destructive instances carry no qualification duty for aplus, so the
    # s=1 row must not fire off the ignored side
    p = profiles.make_profile([
        [-1, 1, 1, 1],
        [-1, 1, 1, 1],
        [1, 1, 1, 1],
        [1, 1, 1, 1],
    ])
    instance = make_instance(p, consent(1, 2), "GCAI", "destructive",
                             aplus=(0,), aminus=(1,), pool=(0, 1), budget=2)
    assert not check_immunity(instance).immune


def test_trivially_satisfied_side_voids_immunity():
    # aminus is already disqualified, so the t=1 addition argument says
    # nothing; the instance is solvable on the aplus side alone
    p = profiles.make_profile([
        [1, -1, -1, -1],
        [-1, -1, 1, 1],
        [1, -1, 1, -1],
        [1, -1, -1, 1],
    ])
    instance = make_instance(p, consent(2, 1), "GCAI", "general",
                             aplus=(0,), aminus=(1,), pool=(0, 1), budget=2)
    warnings = validate(instance)
    assert "warning:AminusTriviallyDisqualified" in warnings
    got, name = solve_auto(instance)
    assert got.answer == "YES"
    assert name == "fpt_ilp"
    assert solve_control_brute(instance).answer == "YES"


def test_preflight_plain_instance_returns_none():
    p = ex1()
    instance = make_instance(p, consent(2, 2), "GCDI", "constructive",
                             aplus=(4,), budget=2)
    assert preflight(instance) is None


def test_preflight_rejects_hard_invalid():
    p = ex1()
    instance = make_instance(p, consent(2, 1), "GCDI", "constructive",
                             aplus=(0,), aminus=(0,), budget=1)
    with pytest.raises(PreconditionViolated):
        preflight(instance)


# constructive bribery with t=1


def test_cgb_golden_self_disqualifier():
    p = ex1()
    instance = make_instance(p, consent(2, 1), "GB", "constructive",
                             aplus=(1,), budget=1)
    got = solve_cgb_xp(instance)
    assert got.answer == "YES"
    assert got.witness.members == frozenset({1})
    assert got.witness.rows == ((1, (1, 1, 1, 1, 1)),)


def test_cgb_budget_too_small():
    p = ex1()
    instance = make_instance(p, consent(2, 1), "GB", "constructive",
                             aplus=(1,), budget=0)
    assert solve_cgb_xp(instance).answer == "NO"


def test_cgb_trivial_yes_is_empty():
    p = ex1()
    instance = make_instance(p, consent(2, 1), "GB", "constructive",
                             aplus=(0,), budget=0)
    got = solve_cgb_xp(instance)
    assert got.answer == "YES"
    assert got.witness.members == frozenset()


def test_cgb_precondition_errors():
    p = ex1()
    bad_family = make_instance(p, consent(2, 1), "GCDI", "constructive",
                               aplus=(1,), budget=1)
    with pytest.raises(PreconditionViolated):
        solve_cgb_xp(bad_family)
    bad_quota = make_instance(p, consent(2, 2), "GB", "constructive",
                              aplus=(1,), budget=1)
    with pytest.raises(PreconditionViolated):
        solve_cgb_xp(bad_quota)
    bad_objective = make_instance(p, consent(2, 1), "GB", "destructive",
                                  aminus=(0,), budget=1)
    with pytest.raises(PreconditionViolated):
        solve_cgb_xp(bad_objective)


def test_cgb_prices_only_affordable_subsets(monkeypatch):
    # planted NO: every subset of at most `budget` extras gets tried
    instance = rx3c_to_cgb(gen_rx3c_no(2, seed=1))
    calls = []
    cost = AttackInstance.cost_of_agents

    def counting(self, agents):
        calls.append(agents)
        return cost(self, agents)

    monkeypatch.setattr(AttackInstance, "cost_of_agents", counting)
    assert solve_cgb_xp(instance).answer == "NO"
    affordable = sum(math.comb(instance.profile.n, k) for k in range(instance.budget + 1))
    # each affordable subset is priced once and once more by its witness
    # check; add the forced set and preflight's empty witness
    assert len(calls) <= 2 * affordable + 2


def cgb_sweep_cases(count):
    rng = random.Random(420)
    cases = []
    while len(cases) < count:
        n = rng.randrange(3, 6)
        p = random_binary(rng, n)
        s = rng.randrange(1, n + 2)
        aplus = rng.sample(range(n), rng.randrange(1, n + 1))
        prices = None
        if rng.random() < 0.4:
            prices = {a: rng.randrange(1, 4) for a in range(n)}
        instance = make_instance(p, consent(s, 1), "GB", "constructive",
                                 aplus=aplus, budget=rng.randrange(0, n + 1),
                                 agent_prices=prices)
        cases.append(instance)
    return cases


def test_cgb_matches_oracle():
    for instance in cgb_sweep_cases(120):
        assert_matches_brute(instance, solve_cgb_xp, solve_bribery_brute)


def test_cgb_witness_size_bound():
    # beyond the forced self-disqualifiers at most s extra bribes are used
    identity = profiles.make_profile([
        [1, -1, -1, -1],
        [-1, 1, -1, -1],
        [-1, -1, 1, -1],
        [-1, -1, -1, 1],
    ])
    needs_extra = make_instance(identity, consent(2, 1), "GB", "constructive",
                                aplus=(0,), budget=1)
    seen_extra = False
    for instance in cgb_sweep_cases(120) + [needs_extra]:
        got = solve_cgb_xp(instance)
        if got.answer != "YES":
            continue
        p = instance.profile
        forced = {a for a in instance.aplus if p.entry(a, a) == -1}
        extra = got.witness.members - forced
        assert len(extra) <= instance.rule.s
        if extra:
            seen_extra = True
    assert seen_extra


# destructive bribery with s=1


def test_dgb_golden_bribes_target_itself():
    p = ex1()
    instance = make_instance(p, consent(1, 2), "GB", "destructive",
                             aminus=(0,), budget=1)
    got = solve_dgb_xp(instance)
    assert got.answer == "YES"
    assert got.witness.members == frozenset({0})
    assert got.witness.rows == ((0, (-1, -1, -1, -1, -1)),)
    # the search ticks the node counter once per candidate
    with pytest.raises(InstanceTooLarge):
        solve_dgb_xp(instance, SearchBudget(node_limit=0))


def test_dgb_precondition_errors():
    p = ex1()
    bad_quota = make_instance(p, consent(2, 2), "GB", "destructive",
                              aminus=(0,), budget=1)
    with pytest.raises(PreconditionViolated):
        solve_dgb_xp(bad_quota)
    bad_objective = make_instance(p, consent(1, 2), "GB", "constructive",
                                  aplus=(0,), budget=1)
    with pytest.raises(PreconditionViolated):
        solve_dgb_xp(bad_objective)


def test_dgb_matches_oracle():
    rng = random.Random(421)
    for _ in range(120):
        n = rng.randrange(3, 6)
        p = random_binary(rng, n)
        t = rng.randrange(1, n + 2)
        aminus = rng.sample(range(n), rng.randrange(1, n + 1))
        prices = None
        if rng.random() < 0.4:
            prices = {a: rng.randrange(1, 4) for a in range(n)}
        instance = make_instance(p, consent(1, t), "GB", "destructive",
                                 aminus=aminus, budget=rng.randrange(0, n + 1),
                                 agent_prices=prices)
        assert_matches_brute(instance, solve_dgb_xp, solve_bribery_brute)


def test_dgb_prices_repeated_key_like_the_oracle():
    # a price list naming a1 twice keeps the first price after sorting (1),
    # in dgb_xp as in check_witness and the oracle
    p = profiles.make_profile([[1, 1], [1, 1]])
    instance = make_instance(p, consent(1, 1), "GB", "destructive", aminus=(0,), budget=1,
                             agent_prices=[(0, 5), (0, 1)])
    want = solve_bribery_brute(instance)
    assert want.answer == "YES" and want.witness.members == frozenset({0})
    assert solve_dgb_xp(instance) == want
    assert solve_auto(instance) == (want, "dgb_xp")


def test_gb_consent_duality_past_the_oracle():
    # constructive consent(s,1) on phi with aplus A answers as destructive
    # consent(1,s) on -phi with aminus A: same members, negated rows
    rng = random.Random(1207)
    for _ in range(40):
        n = rng.randint(10, 16)
        p = random_binary(rng, n)
        s = rng.randint(1, 4)
        targets = rng.sample(range(n), rng.randint(1, 3))
        budget = rng.randint(0, 3)
        prices = {a: rng.randint(1, 3) for a in rng.sample(range(n), n // 2)} if rng.random() < 0.5 else None
        cgb = make_instance(p, consent(s, 1), "GB", "constructive", aplus=targets,
                            budget=budget, agent_prices=prices)
        dgb = make_instance(profiles.negate(p), consent(1, s), "GB", "destructive", aminus=targets,
                            budget=budget, agent_prices=prices)
        (got, name), (dual, dual_name) = solve_auto(cgb), solve_auto(dgb)
        assert (name, dual_name) in (("cgb_xp", "dgb_xp"), ("trivial", "trivial"))
        assert got.answer == dual.answer
        if got.answer == "YES":
            assert dual.witness.members == got.witness.members
            assert dual.witness.rows == tuple((a, tuple(-v for v in row)) for a, row in got.witness.rows)


# deletion control under consent(2,2)


def test_gcdi22_golden_forced_deletions():
    p = ex1()
    instance = make_instance(p, consent(2, 2), "GCDI", "constructive",
                             aplus=(4,), budget=2)
    got = solve_gcdi_22(instance)
    assert got.answer == "YES"
    assert got.witness.members == frozenset({2, 3})


def test_gcdi22_budget_short():
    p = ex1()
    instance = make_instance(p, consent(2, 2), "GCDI", "constructive",
                             aplus=(4,), budget=1)
    assert solve_gcdi_22(instance).answer == "NO"


def test_gcdi22_forced_deletion_hits_protected_target():
    p = ex1()
    instance = make_instance(p, consent(2, 2), "GCDI", "general",
                             aplus=(4,), aminus=(2,), budget=5)
    assert solve_gcdi_22(instance).answer == "NO"


def test_gcdi22_precondition_errors():
    p = ex1()
    bad_quota = make_instance(p, consent(3, 2), "GCDI", "constructive",
                              aplus=(4,), budget=2)
    with pytest.raises(PreconditionViolated):
        solve_gcdi_22(bad_quota)
    bad_objective = make_instance(p, consent(2, 2), "GCDI", "exact",
                                  aplus=tuple(range(5)), budget=2)
    with pytest.raises(PreconditionViolated):
        solve_gcdi_22(bad_objective)


def test_gcdi22_matches_oracle():
    rng = random.Random(422)
    for _ in range(150):
        n = rng.randrange(4, 7)
        p = random_binary(rng, n)
        objective = rng.choice(("constructive", "destructive", "general"))
        members = rng.sample(range(n), rng.randrange(1, 4))
        split = rng.randrange(0, len(members) + 1)
        aplus = members[:split]
        aminus = members[split:]
        if objective == "constructive":
            aplus, aminus = members, ()
        elif objective == "destructive":
            aplus, aminus = (), members
        instance = make_instance(p, consent(2, 2), "GCDI", objective,
                                 aplus=aplus, aminus=aminus,
                                 budget=rng.randrange(0, 4))
        assert_matches_brute(instance, solve_gcdi_22, solve_control_brute)


# constructive adding control on single-choice profiles


def single_choice_golden_profile():
    # rows 0..2 spend their one approval on individual 0, row 3 on itself
    return profiles.make_profile([
        [1, -1, -1, -1],
        [1, -1, -1, -1],
        [1, -1, -1, -1],
        [-1, -1, -1, 1],
    ])


def test_cgcai_r1_golden():
    p = single_choice_golden_profile()
    instance = make_instance(p, consent(3, 1), "GCAI", "constructive",
                             aplus=(0,), pool=(0, 1), budget=1, r_restriction=1)
    got = solve_cgcai_r1(instance)
    assert got.answer == "YES"
    assert got.witness.members == frozenset({2})


def test_cgcai_r1_budget_short():
    p = single_choice_golden_profile()
    instance = make_instance(p, consent(3, 1), "GCAI", "constructive",
                             aplus=(0,), pool=(0, 1), budget=0, r_restriction=1)
    assert solve_cgcai_r1(instance).answer == "NO"


def test_cgcai_r1_precondition_errors():
    p = random_single_choice(random.Random(1), 4)
    no_r = make_instance(p, consent(2, 1), "GCAI", "constructive",
                         aplus=(0,), pool=(0,), budget=1)
    with pytest.raises(PreconditionViolated):
        solve_cgcai_r1(no_r)
    small_s = make_instance(p, consent(1, 2), "GCAI", "constructive",
                            aplus=(0,), pool=(0,), budget=1, r_restriction=1)
    with pytest.raises(PreconditionViolated):
        solve_cgcai_r1(small_s)


def test_cgcai_r1_matches_oracle():
    rng = random.Random(423)
    for _ in range(150):
        n = rng.randrange(4, 7)
        p = random_single_choice(rng, n)
        pool = rng.sample(range(n), rng.randrange(1, n))
        aplus = rng.sample(pool, rng.randrange(1, len(pool) + 1))
        s = rng.randrange(2, n + 1)
        t = rng.randrange(1, n + 3 - s)
        instance = make_instance(p, consent(s, t), "GCAI", "constructive",
                                 aplus=aplus, pool=pool,
                                 budget=rng.randrange(0, n + 1), r_restriction=1)
        assert_matches_brute(instance, solve_cgcai_r1, solve_control_brute)


# columnwise microbribery


def test_microbribery_golden_flips_diagonal():
    p = ex1()
    instance = make_instance(p, consent(2, 1), "GMB", "constructive",
                             aplus=(4,), budget=1)
    got = solve_microbribery_consent(instance)
    assert got.answer == "YES"
    assert got.witness.flips == ((4, 4, 1),)


def test_microbribery_respects_prices():
    p = ex1()
    pricey = make_instance(p, consent(2, 1), "GMB", "constructive",
                           aplus=(4,), budget=1,
                           pair_prices={(4, 4): 2})
    assert solve_microbribery_consent(pricey).answer == "NO"
    afford = make_instance(p, consent(2, 1), "GMB", "constructive",
                           aplus=(4,), budget=2,
                           pair_prices={(4, 4): 2})
    assert solve_microbribery_consent(afford).answer == "YES"


def test_microbribery_precondition_errors():
    p = ex1()
    wrong_rule = make_instance(p, profiles.SocialRule.csr(), "GMB", "constructive",
                               aplus=(0,), budget=1)
    with pytest.raises(PreconditionViolated):
        solve_microbribery_consent(wrong_rule)
    wrong_family = make_instance(p, consent(2, 1), "GB", "constructive",
                                 aplus=(0,), budget=1)
    with pytest.raises(PreconditionViolated):
        solve_microbribery_consent(wrong_family)


def microbribery_sweep_cases(count):
    rng = random.Random(424)
    cases = []
    while len(cases) < count:
        ternary = rng.random() < 0.4
        n = rng.randrange(3, 5 if not ternary else 4)
        if ternary:
            p = random_ternary(rng, n)
            rule = profiles.SocialRule.ternary(
                rng.randrange(1, n + 1),
                rng.choice((None, rng.randrange(1, n + 1))),
                rng.randrange(1, n + 1),
            )
        else:
            p = random_binary(rng, n)
            s = rng.randrange(1, n + 2)
            t = rng.randrange(1, n + 3 - s)
            rule = consent(s, t)
        objective = rng.choice(("constructive", "destructive", "general", "exact"))
        if objective == "exact":
            members = list(range(n))
            rng.shuffle(members)
            split = rng.randrange(0, n + 1)
            aplus, aminus = members[:split], members[split:]
        else:
            members = rng.sample(range(n), rng.randrange(1, n + 1))
            split = rng.randrange(0, len(members) + 1)
            aplus, aminus = members[:split], members[split:]
            if objective == "constructive":
                aplus, aminus = members, ()
            elif objective == "destructive":
                aplus, aminus = (), members
        prices = None
        if rng.random() < 0.4:
            prices = {(a, b): rng.randrange(1, 3)
                      for a in range(n) for b in range(n) if rng.random() < 0.5}
        budget = rng.randrange(0, n + 1)
        cases.append(make_instance(p, rule, "GMB", objective,
                                   aplus=aplus, aminus=aminus, budget=budget,
                                   pair_prices=prices))
    return cases


def test_microbribery_matches_oracle():
    for instance in microbribery_sweep_cases(120):
        assert_matches_brute(instance, solve_microbribery_consent,
                             solve_microbribery_brute)


def test_microbribery_decomposes_per_column():
    # flips stay inside target columns and the cost splits columnwise
    from gidsolve.solvers import effective_targets
    for instance in microbribery_sweep_cases(120):
        got = solve_microbribery_consent(instance)
        if got.answer != "YES" or not got.witness.flips:
            continue
        eff_plus, eff_minus = effective_targets(instance)
        by_column = {}
        for a, b, v in got.witness.flips:
            assert b in eff_plus | eff_minus
            by_column.setdefault(b, []).append((a, b, v))
        total = 0
        for b, flips in by_column.items():
            best = _columnwise_flip_cost(instance, b, b in eff_plus)
            assert best is not None
            total += best[0]
        assert total == instance.cost_of_pairs(got.witness.flip_pairs())
        assert total <= instance.budget


# grouped-counting solver for adding and deleting control


def test_ilp_model_matches_witness_check_exactly():
    # every candidate addition set satisfies the grouped constraints if
    # and only if it passes the ground-truth witness check
    p = random_binary(random.Random(7), 6)
    instance = make_instance(p, consent(3, 2), "GCAI", "general",
                             aplus=(0,), aminus=(1,), pool=(0, 1, 2), budget=2)
    model = build_ilp_model(instance)
    group_of = {}
    for j, members in enumerate(model.members):
        for b in members:
            group_of[b] = j
    outside = sorted(set(range(6)) - instance.pool)
    for size in range(0, len(outside) + 1):
        for added in itertools.combinations(outside, size):
            counts = [0] * len(model.betas)
            for b in added:
                counts[group_of[b]] += 1
            fits = sum(counts) <= model.budget
            for idx, rhs in model.lower_rows:
                fits = fits and sum(counts[j] for j in idx) >= rhs
            for idx, rhs in model.upper_rows:
                fits = fits and sum(counts[j] for j in idx) <= rhs
            assert fits == check_witness(instance, Solution.added(added))


def _ilp_rows_by_case(instance, betas):
    """The quota rows of build_ilp_model, written out one case at a time.

    Cases: adding or deleting, times target wants qualified or not, times
    self-approving or not.
    """
    p = instance.profile
    rule = instance.rule
    eff_plus, eff_minus = effective_targets(instance)
    if instance.family == "GCAI":
        base = profiles.mask_of(instance.pool)
    else:
        base = profiles.full_mask(p.n)
    lower, upper = [], []
    for i, a in enumerate(sorted(eff_plus) + sorted(eff_minus)):
        quals = (p.col_pos[a] & base).bit_count()
        disq = (p.col_known[a] & ~p.col_pos[a] & base).bit_count()
        plus_idx = tuple(j for j, beta in enumerate(betas) if beta[i] == 1)
        minus_idx = tuple(j for j, beta in enumerate(betas) if beta[i] == -1)
        wants = a in eff_plus
        self_plus = p.entry(a, a) == 1
        if instance.family == "GCAI":
            if wants and self_plus:
                lower.append((plus_idx, rule.s - quals))
            elif wants:
                upper.append((minus_idx, (rule.t - 1) - disq))
            elif self_plus:
                upper.append((plus_idx, (rule.s - 1) - quals))
            else:
                lower.append((minus_idx, rule.t - disq))
        else:
            if wants and self_plus:
                upper.append((plus_idx, quals - rule.s))
            elif wants:
                lower.append((minus_idx, disq - (rule.t - 1)))
            elif self_plus:
                lower.append((plus_idx, quals - (rule.s - 1)))
            else:
                upper.append((minus_idx, disq - rule.t))
    return tuple(lower), tuple(upper)


def test_ilp_rows_match_case_table():
    # every row, its group indices and its right-hand side, in emission order
    rng = random.Random(909)
    cases = set()
    for _ in range(400):
        n = rng.randrange(2, 8)
        p = random_binary(rng, n)
        s = rng.randrange(1, n + 2)
        t = rng.randrange(1, n + 3 - s)
        family = rng.choice(("GCAI", "GCDI"))
        people = rng.sample(range(n), min(n, rng.randrange(1, 4)))
        cut = rng.randrange(len(people) + 1)
        aplus, aminus = people[:cut], people[cut:]
        objective = rng.choice(("constructive", "destructive", "general"))
        pool = None
        if family == "GCAI":
            pool = sorted(set(people) | {b for b in range(n) if rng.random() < 0.3})
        instance = make_instance(p, consent(s, t), family, objective, aplus=aplus,
                                 aminus=aminus, pool=pool, budget=rng.randrange(0, 4))
        model = build_ilp_model(instance)
        assert (model.lower_rows, model.upper_rows) == _ilp_rows_by_case(instance, model.betas)
        eff_plus, eff_minus = effective_targets(instance)
        cases.update((family, a in eff_plus, p.entry(a, a)) for a in eff_plus | eff_minus)
    assert len(cases) == 8  # every row case came up


# (rows, rule (s, t), family, objective, aplus, aminus, pool, budget, nodes, assignment)
ILP_NODE_CASES = [
    ([[1, -1, -1, 1, 1, 1, -1, -1], [1, 1, 1, 1, 1, 1, -1, -1], [-1, 1, 1, 1, -1, -1, 1, 1],
      [1, 1, 1, -1, 1, -1, -1, 1], [-1, -1, 1, -1, 1, 1, -1, 1], [-1, 1, -1, 1, 1, 1, 1, 1],
      [1, -1, 1, -1, -1, 1, 1, -1], [-1, 1, -1, -1, 1, -1, 1, -1]],
     (4, 5), "GCAI", "general", (4,), (2,), (2, 4), 4, 10, [0, 2, 1]),
    ([[1, -1, 1, -1, 1, -1, 1, -1], [-1, -1, -1, -1, 1, -1, 1, 1], [1, 1, 1, 1, -1, -1, -1, 1],
      [-1, -1, -1, -1, -1, 1, 1, -1], [-1, 1, 1, 1, -1, 1, -1, 1], [1, 1, 1, 1, 1, 1, 1, -1],
      [-1, 1, -1, 1, -1, 1, -1, -1], [-1, -1, 1, -1, -1, 1, -1, -1]],
     (3, 4), "GCDI", "constructive", (0, 7), (), None, 4, 16, [2, 0, 0, 0]),
    ([[1, -1, 1, -1, -1, -1, 1, -1], [-1, 1, -1, -1, -1, -1, 1, 1], [-1, 1, 1, -1, -1, 1, 1, -1],
      [1, -1, -1, 1, 1, 1, -1, -1], [-1, 1, -1, 1, -1, -1, 1, 1], [-1, 1, 1, 1, 1, -1, -1, -1],
      [-1, -1, 1, -1, 1, 1, 1, -1], [1, 1, -1, 1, 1, 1, -1, -1]],
     (4, 5), "GCDI", "general", (2,), (1, 6), None, 4, 23, None),
]


def test_ilp_search_node_counts_pinned():
    # the rows' order fixes the search order, so node counts pin it
    for rows, (s, t), family, objective, aplus, aminus, pool, budget, nodes, want in ILP_NODE_CASES:
        instance = make_instance(profiles.make_profile(rows), consent(s, t), family, objective,
                                 aplus=aplus, aminus=aminus, pool=pool, budget=budget)
        model = build_ilp_model(instance)
        assert solve_ilp_model(model, node_limit=nodes) == want
        with pytest.raises(InstanceTooLarge):
            solve_ilp_model(model, node_limit=nodes - 1)


def test_fpt_ilp_matches_oracle_gcai():
    rng = random.Random(425)
    for _ in range(150):
        n = rng.randrange(4, 7)
        p = random_binary(rng, n)
        s = rng.randrange(1, n + 2)
        t = rng.randrange(1, n + 3 - s)
        pool = rng.sample(range(n), rng.randrange(1, n))
        objective = rng.choice(("constructive", "destructive", "general", "exact"))
        if objective == "exact":
            members = list(pool)
            rng.shuffle(members)
            split = rng.randrange(0, len(members) + 1)
            aplus, aminus = members[:split], members[split:]
        else:
            members = rng.sample(pool, rng.randrange(1, len(pool) + 1))
            split = rng.randrange(0, len(members) + 1)
            aplus, aminus = members[:split], members[split:]
            if objective == "constructive":
                aplus, aminus = members, ()
            elif objective == "destructive":
                aplus, aminus = (), members
        instance = make_instance(p, consent(s, t), "GCAI", objective,
                                 aplus=aplus, aminus=aminus, pool=pool,
                                 budget=rng.randrange(0, n))
        assert_matches_brute(instance, solve_fpt_ilp, solve_control_brute)


def test_fpt_ilp_matches_oracle_gcdi():
    rng = random.Random(426)
    for _ in range(150):
        n = rng.randrange(4, 7)
        p = random_binary(rng, n)
        s = rng.randrange(1, n + 2)
        t = rng.randrange(1, n + 3 - s)
        objective = rng.choice(("constructive", "destructive", "general"))
        members = rng.sample(range(n), rng.randrange(1, 4))
        split = rng.randrange(0, len(members) + 1)
        aplus, aminus = members[:split], members[split:]
        if objective == "constructive":
            aplus, aminus = members, ()
        elif objective == "destructive":
            aplus, aminus = (), members
        instance = make_instance(p, consent(s, t), "GCDI", objective,
                                 aplus=aplus, aminus=aminus,
                                 budget=rng.randrange(0, 4))
        assert_matches_brute(instance, solve_fpt_ilp, solve_control_brute)


def test_fpt_ilp_precondition_errors():
    p = ex1()
    wrong_rule = make_instance(p, profiles.SocialRule.csr(), "GCAI", "constructive",
                               aplus=(0,), pool=(0,), budget=1)
    with pytest.raises(PreconditionViolated):
        solve_fpt_ilp(wrong_rule)
    wrong_family = make_instance(p, consent(2, 1), "GB", "constructive",
                                 aplus=(0,), budget=1)
    with pytest.raises(PreconditionViolated):
        solve_fpt_ilp(wrong_family)


def test_fpt_ilp_beta_cap(monkeypatch):
    p = ex1()
    instance = make_instance(p, consent(2, 2), "GCDI", "constructive",
                             aplus=(4,), budget=2)
    monkeypatch.setattr(solvers, "FPT_BETA_CAP", 1)
    with pytest.raises(InstanceTooLarge):
        solve_fpt_ilp(instance)


def test_fpt_ilp_node_limit():
    p = ex1()
    instance = make_instance(p, consent(2, 2), "GCDI", "constructive",
                             aplus=(4,), budget=2)
    with pytest.raises(InstanceTooLarge):
        solve_fpt_ilp(instance, search=SearchBudget(node_limit=0))


# dispatch


def test_auto_dispatch_names():
    p = ex1()
    expectations = [
        (make_instance(p, consent(2, 1), "GB", "constructive",
                       aplus=(1,), budget=1), "cgb_xp"),
        (make_instance(p, consent(1, 2), "GB", "destructive",
                       aminus=(0,), budget=1), "dgb_xp"),
        (make_instance(p, consent(2, 2), "GCDI", "constructive",
                       aplus=(4,), budget=2), "gcdi_22"),
        (make_instance(p, consent(2, 3), "GCDI", "constructive",
                       aplus=(4,), budget=2), "fpt_ilp"),
        (make_instance(p, consent(2, 1), "GMB", "constructive",
                       aplus=(4,), budget=1), "microbribery_consent"),
        (make_instance(p, profiles.SocialRule.csr(), "GMB", "constructive",
                       aplus=(0,), budget=3), "microbribery_brute"),
        (make_instance(p, profiles.SocialRule.csr(), "GB", "constructive",
                       aplus=(0,), budget=2), "bribery_brute"),
        (make_instance(p, consent(2, 2), "GCPI", "destructive",
                       aminus=(2,)), "control_brute"),
    ]
    for instance, want in expectations:
        _got, name = solve_auto(instance)
        assert name == want, want


def test_auto_dispatch_r1_specialization():
    p = single_choice_golden_profile()
    with_r = make_instance(p, consent(3, 1), "GCAI", "constructive",
                           aplus=(0,), pool=(0, 1), budget=1, r_restriction=1)
    got, name = solve_auto(with_r)
    assert name == "cgcai_r1"
    assert got.answer == "YES"
    without_r = make_instance(p, consent(3, 1), "GCAI", "constructive",
                              aplus=(0,), pool=(0, 1), budget=1)
    got, name = solve_auto(without_r)
    assert name == "fpt_ilp"
    assert got.answer == "YES"


def test_preflight_runs_once_per_solve(monkeypatch):
    p = ex1()
    calls = []
    original = solvers.preflight

    def counting(instance):
        calls.append(instance)
        return original(instance)

    monkeypatch.setattr(solvers, "preflight", counting)
    expectations = [
        (make_instance(p, consent(1, 2), "GB", "destructive",
                       aminus=(0,), budget=1), "dgb_xp"),
        (make_instance(p, consent(2, 3), "GCDI", "constructive",
                       aplus=(4,), budget=2), "fpt_ilp"),
        (make_instance(p, profiles.SocialRule.csr(), "GB", "constructive",
                       aplus=(0,), budget=2), "bribery_brute"),
    ]
    for instance, want in expectations:
        calls.clear()
        _got, name = solve_auto(instance)
        assert name == want
        assert len(calls) == 1, want
    calls.clear()
    solve_dgb_xp(expectations[0][0])
    assert len(calls) == 1


def test_refusal_comes_before_preflight(monkeypatch):
    # an invalid instance outside the domain is refused, not rejected
    p = ex1()
    instance = make_instance(p, consent(2, 2), "GB", "constructive",
                             aplus=(1,), pool=(0, 1), budget=1)
    assert hard_violations(validate(instance))
    monkeypatch.setattr(solvers, "preflight", pytest.fail)
    with pytest.raises(PreconditionViolated, match="consent rule with t=1"):
        solve_cgb_xp(instance)


def test_readme_solver_table_matches_registry():
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    table = readme.split("| solver | domain |", 1)[1].split("\n\n", 1)[0]
    documented = set()
    for line in table.splitlines()[2:]:
        documented.update(re.findall(r"`(\w+)`", line.split("|")[1]))
    assert documented == {spec.name for spec in SOLVERS} | set(ORACLES)


def test_auto_trivial_name():
    p = ex1()
    instance = make_instance(p, consent(2, 1), "GB", "constructive",
                             aplus=(0,), budget=0)
    got, name = solve_auto(instance)
    assert got.answer == "YES"
    assert name == "trivial"
    assert got.witness.members == frozenset()


def test_auto_propagates_instance_too_large():
    # consent(2,3) dispatches to the grouped-counting solver, which must
    # not be silently swapped for brute force when it gives up
    p = ex1()
    instance = make_instance(p, consent(2, 3), "GCDI", "constructive",
                             aplus=(4,), budget=2)
    with pytest.raises(InstanceTooLarge):
        solve_auto(instance, search=SearchBudget(node_limit=0))


def test_auto_agrees_with_oracle_on_mixed_sweep():
    rng = random.Random(427)
    for _ in range(120):
        n = rng.randrange(3, 6)
        p = random_binary(rng, n)
        family = rng.choice(("GCAI", "GCDI", "GCPI", "GB", "GMB"))
        variant = rng.choice(("consent", "csr", "lsr"))
        if variant == "consent":
            s = rng.randrange(1, n + 2)
            t = rng.randrange(1, n + 3 - s)
            rule = consent(s, t)
        elif variant == "csr":
            rule = profiles.SocialRule.csr()
        else:
            rule = profiles.SocialRule.lsr()
        objective = rng.choice(("constructive", "destructive", "general"))
        members = rng.sample(range(n), rng.randrange(1, n + 1))
        split = rng.randrange(0, len(members) + 1)
        aplus, aminus = members[:split], members[split:]
        if objective == "constructive":
            aplus, aminus = members, ()
        elif objective == "destructive":
            aplus, aminus = (), members
        pool = None
        if family == "GCAI":
            pool = sorted(set(members) | set(rng.sample(range(n), rng.randrange(0, n + 1))))
        budget = None if family == "GCPI" else rng.randrange(0, n + 1)
        instance = make_instance(p, rule, family, objective,
                                 aplus=aplus, aminus=aminus, pool=pool, budget=budget)
        if family == "GCAI":
            brute = solve_control_brute
        elif family in ("GCDI", "GCPI"):
            brute = solve_control_brute
        elif family == "GB":
            brute = solve_bribery_brute
        else:
            brute = solve_microbribery_brute
        got, _name = solve_auto(instance)
        want = brute(instance)
        if got.answer == "YES":
            assert check_witness(instance, got.witness)
            assert want.answer == "YES"
        else:
            assert want.answer == "NO"
