"""Specialized solver tests: goldens, immunity rows, and oracle sweeps."""

import dataclasses
import itertools
import math
import pathlib
import random
import re

import pytest

from gidsolve import oracle, profiles, solvers
from gidsolve.errors import InstanceTooLarge, PreconditionViolated
from gidsolve.generators import (
    gen_random_profile,
    gen_random_r_profile,
    gen_rx3c_no,
    random_instance,
    rx3c_to_cgb,
)
from gidsolve.instances import (
    FAMILIES,
    FAMILY_KIND,
    NO_VERDICT,
    OBJECTIVES,
    AttackInstance,
    Solution,
    Verdict,
    _judge,
    check_witness,
    effective_targets,
    hard_violations,
    make_instance,
    validate,
)
from gidsolve.oracle import (
    SearchBudget,
    _partition_candidates,
    _subsets,
    solve_bribery_brute,
    solve_control_brute,
    solve_microbribery_brute,
)
from gidsolve.solvers import (
    IMMUNITY_TABLE,
    ORACLE_FOR_FAMILY,
    ORACLES,
    SOLVERS,
    _columnwise_flip_cost,
    auto_solver,
    build_ilp_model,
    check_immunity,
    preflight,
    solve_auto,
    solve_bribery_sliced,
    solve_cgb_xp,
    solve_cgcai_r1,
    solve_dgb_xp,
    solve_fpt_ilp,
    solve_gcdi_22,
    solve_gcpi_sliced,
    solve_ilp_model,
    solve_microbribery_consent,
    solve_microbribery_sliced,
)

from helpers import ex1, valid_rules


def consent(s, t):
    return profiles.SocialRule.consent(s, t)


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


def _empty_witness_options(n):
    """Per family, every (objective, aplus, aminus, pool, budget) of a valid
    instance on n individuals: every target shape (empty sides included),
    every GCAI pool that holds the targets, budgets 0 and 1, and for the
    exact objective only the shapes that cover the pool or N."""
    everyone = frozenset(range(n))
    options = {family: [] for family in FAMILIES}
    for labels in itertools.product((0, 1, -1), repeat=n):
        aplus = frozenset(a for a in range(n) if labels[a] == 1)
        aminus = frozenset(a for a in range(n) if labels[a] == -1)
        targets = aplus | aminus
        rest = sorted(everyone - targets)
        pools = [targets | frozenset(extra) for size in range(len(rest) + 1)
                 for extra in itertools.combinations(rest, size)]
        for family in FAMILIES:
            for objective in OBJECTIVES:
                for pool in pools if family == "GCAI" else (None,):
                    if objective == "exact" and targets != (everyone if pool is None else pool):
                        continue
                    for budget in (None,) if family == "GCPI" else (0, 1):
                        options[family].append((objective, aplus, aminus, pool, budget))
    return options


def test_preflight_answers_the_empty_witness_as_check_witness_does():
    # every binary profile up to n = 3 under every valid rule and every
    # family; up to n = 2 every objective, target shape, pool and budget,
    # at n = 3 one of them per family, cycling through them by (profile,
    # rule) pair
    checked = trivial = 0
    for n in range(4):
        options = _empty_witness_options(n)
        pair = 0
        for cells in itertools.product((1, -1), repeat=n * n):
            p = profiles.make_profile([cells[a * n:(a + 1) * n] for a in range(n)])
            for rule in valid_rules(n, "binary"):
                for family, cases in options.items():
                    empty = Solution(FAMILY_KIND[family])
                    for objective, aplus, aminus, pool, budget in cases if n < 3 else [cases[pair % len(cases)]]:
                        instance = make_instance(p, rule, family, objective, aplus, aminus, pool, budget)
                        verdict = preflight(instance)
                        holds = check_witness(instance, empty)
                        assert (verdict is not None and verdict.witness == empty) == holds, instance
                        checked += 1
                        trivial += holds
                pair += 1
    assert (checked, trivial) == (82372, 46439)


def test_preflight_checks_the_empty_witness_for_gcpi_only(monkeypatch):
    # the other families read validate's warnings; an empty partition
    # evaluates f(f(N)), which validate does not see
    calls = []
    original = solvers.check_witness

    def counting(instance, solution):
        calls.append(solution)
        return original(instance, solution)

    monkeypatch.setattr(solvers, "check_witness", counting)
    p = ex1()
    seen = set()
    for family in FAMILIES:
        for objective, aplus, aminus in (("constructive", (4,), ()), ("destructive", (), (2,)),
                                         ("general", (0,), (2,)), ("general", (), ())):
            instance = make_instance(p, consent(1, 2), family, objective, aplus, aminus,
                                     pool=range(5) if family == "GCAI" else None,
                                     budget=None if family == "GCPI" else 1)
            calls.clear()
            verdict = preflight(instance)
            seen.add(verdict and verdict.answer)
            assert calls == ([Solution.partition(())] if family == "GCPI" else []), (family, objective)
    assert seen == {None, "YES", "IMMUNE"}


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
        p = gen_random_profile(n, seed=rng.randrange(1 << 30))
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
        p = gen_random_profile(n, seed=rng.randrange(1 << 30))
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
        p = gen_random_profile(n, seed=rng.randrange(1 << 30))
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
        p = gen_random_profile(n, seed=rng.randrange(1 << 30))
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
    p = gen_random_r_profile(4, 1, seed=1)
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
        p = gen_random_r_profile(n, 1, rng.randrange(1 << 30))
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
            p = gen_random_profile(n, "ternary", 1 / 3, rng.randrange(1 << 30))
            rule = profiles.SocialRule.ternary(
                rng.randrange(1, n + 1),
                rng.choice((None, rng.randrange(1, n + 1))),
                rng.randrange(1, n + 1),
            )
        else:
            p = gen_random_profile(n, seed=rng.randrange(1 << 30))
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
    p = gen_random_profile(6, seed=7)
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
        p = gen_random_profile(n, seed=rng.randrange(1 << 30))
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
        assert solve_ilp_model(model, SearchBudget(nodes)) == want
        with pytest.raises(InstanceTooLarge):
            solve_ilp_model(model, SearchBudget(nodes - 1))


def test_fpt_ilp_matches_oracle_gcai():
    rng = random.Random(425)
    for _ in range(150):
        n = rng.randrange(4, 7)
        p = gen_random_profile(n, seed=rng.randrange(1 << 30))
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
        p = gen_random_profile(n, seed=rng.randrange(1 << 30))
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
                       aplus=(0,), budget=3), "microbribery_sliced"),
        (make_instance(p, profiles.SocialRule.lsr(), "GMB", "destructive",
                       aminus=(0, 2), budget=1), "microbribery_sliced"),
        (make_instance(p, profiles.SocialRule.csr(), "GMB", "constructive",
                       aplus=(0,), budget=4), "microbribery_sliced"),
        (make_instance(p, profiles.SocialRule.csr(), "GB", "constructive",
                       aplus=(0,), budget=2), "bribery_sliced"),
        (make_instance(p, consent(2, 2), "GCPI", "destructive",
                       aminus=(2,)), "gcpi_sliced"),
        (make_instance(gen_random_profile(8, seed=1), profiles.SocialRule.lsr(), "GB", "destructive",
                       aminus=(0, 1), budget=2), "bribery_sliced"),
        (make_instance(gen_random_profile(8, seed=1), profiles.SocialRule.csr(), "GB", "constructive",
                       aplus=(0,), budget=1), "bribery_sliced"),
    ]
    for instance, want in expectations:
        _got, name = solve_auto(instance)
        assert name == want, want
    # past 16 individuals partition control goes to the oracle
    big = make_instance(gen_random_profile(17, seed=3), consent(2, 2), "GCPI", "destructive",
                        aminus=(0,))
    assert auto_solver(big)[0] == "control_brute"
    with pytest.raises(PreconditionViolated, match="at most 16 individuals"):
        solve_gcpi_sliced(big)
    # csr/lsr bribery and microbribery have no size cap: n = 17, and n = 16
    # at budget 3 (about 2.8 million flip sets)
    bigs = [
        (make_instance(gen_random_profile(17, seed=3), profiles.SocialRule.csr(), "GB", "constructive",
                       aplus=(0,), budget=4), "bribery_sliced"),
        (make_instance(gen_random_profile(16, seed=3), profiles.SocialRule.csr(), "GMB", "constructive",
                       aplus=(0,), budget=3), "microbribery_sliced"),
        (make_instance(gen_random_profile(17, seed=3), profiles.SocialRule.lsr(), "GMB", "destructive",
                       aminus=(0,), budget=1), "microbribery_sliced"),
    ]
    search = SearchBudget(node_limit=4000)
    outcomes = []
    for instance, want in bigs:
        assert auto_solver(instance)[0] == want, want
        outcomes.append(_outcome(solvers.BY_NAME[want].run, instance, search))
        assert outcomes[-1] == _outcome(ORACLES[ORACLE_FOR_FAMILY[instance.family]], instance, search), want
    assert outcomes == [("NO", None), ("refused", "candidate count exceeded node limit 4000"), ("NO", None)]


def _outcome(solve, instance, search):
    try:
        verdict = solve(instance, search)
    except InstanceTooLarge as e:
        return "refused", str(e)
    return verdict.answer, verdict.witness


def test_gcpi_sliced_matches_control_brute():
    # same answer, same first witness, same refusal under every node limit,
    # on the instances solve_auto hands it (those preflight leaves open)
    rng = random.Random(1813)
    rules = [profiles.SocialRule.csr(), profiles.SocialRule.lsr(),
             profiles.SocialRule.ternary(2, None, 2), profiles.SocialRule.ternary(1, 3, 3)]
    rules += [consent(s, t) for s, t in ((1, 1), (2, 2), (3, 2), (2, 4))]
    searched = yes = 0
    for n in range(1, 9):
        for rule in rules:
            if rule.variant == "consent" and rule.s + rule.t > n + 2:
                continue
            for objective in ("constructive", "destructive", "general", "exact"):
                if objective == "general" and n < 2:
                    continue
                for _ in range(3):
                    instance = random_instance(rng, "GCPI", objective, rule, n)
                    if preflight(instance) is not None:
                        continue
                    assert auto_solver(instance)[0] == "gcpi_sliced"
                    searched += 1
                    for limit in (None, 0, 1, 3, 5, 40):
                        search = SearchBudget(node_limit=limit)
                        got = _outcome(solve_gcpi_sliced.run, instance, search)
                        assert got == _outcome(solve_control_brute, instance, search), (instance, limit)
                    answer, witness = _outcome(solve_gcpi_sliced.run, instance, oracle.DEFAULT_SEARCH)
                    if answer != "YES":
                        continue
                    yes += 1
                    # the witness is the rank-th candidate: both count it
                    # and refuse one node short, across size levels too
                    rank = list(_partition_candidates(n)).index(profiles.mask_of(witness.members)) + 1
                    for limit, want in ((rank, ("YES", witness)),
                                        (rank - 1, ("refused", "candidate count exceeded node limit %d" % (rank - 1)))):
                        search = SearchBudget(node_limit=limit)
                        assert _outcome(solve_gcpi_sliced.run, instance, search) == want, (instance, limit)
                        assert _outcome(solve_control_brute, instance, search) == want, (instance, limit)
    assert searched > 300 and 0 < yes < searched, (searched, yes)
    # wider slices: 2^12 positions mirror across many bytes
    wide = 0
    for rule in rules[:3] + [consent(2, 2)]:
        instance = random_instance(rng, "GCPI", "general", rule, 12)
        if preflight(instance) is None:
            assert _outcome(solve_gcpi_sliced.run, instance, oracle.DEFAULT_SEARCH) == _outcome(
                solve_control_brute, instance, oracle.DEFAULT_SEARCH)
            wide += 1
    assert wide == 4


def test_sliced_sizes_lay_the_partitions_out_in_control_brute_order():
    # _sliced_sizes(n)[k] holds the positions with k members; the levels
    # upward, each level's positions holding individual 0 downward in the
    # reversed basis, are _partition_candidates(n) with individual a on bit
    # n - 1 - a
    for n in range(8):
        levels = profiles._sliced_sizes(n)
        assert levels == tuple(profiles.mask_of(u for u in range(1 << n) if u.bit_count() == k)
                               for k in range(n + 1))
        every, xs = profiles.slice_basis(n)
        pinned = xs[-1] if n else every
        walk = [u for level in levels for u in reversed(list(profiles.bits(level & pinned)))]
        assert [profiles.mask_of(n - 1 - b for b in profiles.bits(u)) for u in walk] == list(
            _partition_candidates(n)), n


def test_gcpi_sliced_ranks_a_deep_witness_at_n16():
    # the witness ranks 23,650th of 32,768 candidates (the bodies of sizes 0
    # to 8 are 22,819 of them): gcpi_sliced refuses one node short of it,
    # as control_brute does
    full = (1 << 16) - 1
    rows = (50672, 27491, 59980, 37280, 47707, 50678, 9670, 42940,
            63447, 8448, 65534, 63756, 50435, 60716, 46032, 39911)
    p = profiles.Profile(n=16, kind="binary", names=profiles.default_names(16),
                         row_pos=rows, row_known=(full,) * 16)
    instance = make_instance(p, profiles.SocialRule.csr(), "GCPI", "general", aplus=(4,),
                             aminus=(0, 1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 13, 14))
    assert preflight(instance) is None
    assert auto_solver(instance)[0] == "gcpi_sliced"
    rank = 23650
    witness = Solution.partition((0, 1, 2, 3, 6, 9, 11, 12, 13, 15))
    for limit, want in ((None, ("YES", witness)), (rank, ("YES", witness)),
                        (rank - 1, ("refused", "candidate count exceeded node limit 23649"))):
        search = SearchBudget(node_limit=limit)
        assert _outcome(solve_gcpi_sliced.run, instance, search) == want, limit
    for limit in (rank, rank - 1):
        search = SearchBudget(node_limit=limit)
        assert _outcome(solve_control_brute, instance, search) == _outcome(solve_gcpi_sliced.run, instance, search)


def _gb_target_shapes(n):
    """Per objective, every (aplus, aminus) pair a GB instance at n can take."""
    sets = [frozenset(members) for members in _subsets(range(n), n)]
    return {
        "constructive": [(a, ()) for a in sets if a],
        "destructive": [((), a) for a in sets if a],
        "general": [(a, b) for a in sets for b in sets if a and b and not a & b],
        "exact": [(a, frozenset(range(n)) - a) for a in sets],
    }


def _assert_sliced_matches(instance, sliced=solve_bribery_sliced, brute=solve_bribery_brute):
    """Same answer, witness and refusal as the oracle under every node
    limit, with the default windows and with windows of 1 to 3 positions,
    whose borders fall next to nearly every candidate; returns the answer
    without a limit."""
    searches = [SearchBudget(node_limit=limit) for limit in (0, 1, 3, 10, 40, None)]
    want = [_outcome(brute, instance, search) for search in searches]
    default = solvers.SLICED_WINDOWS
    try:
        for windows in (default, (1, 3)):
            solvers.SLICED_WINDOWS = windows
            assert [_outcome(sliced.run, instance, search) for search in searches] == want, (instance, windows)
    finally:
        solvers.SLICED_WINDOWS = default
    return want[-1][0]


def test_bribery_sliced_matches_bribery_brute_exhaustively():
    # every binary profile up to n = 3 under csr and lsr and every
    # objective; up to n = 2 every target shape, budget 0-3 and pricing,
    # at n = 3 one of them per (profile, rule, objective), cycling
    rules = (profiles.SocialRule.csr(), profiles.SocialRule.lsr())
    searched = yes = 0
    for n in range(1, 4):
        shapes = _gb_target_shapes(n)
        turn = 0
        for rows in itertools.product(range(1 << n), repeat=n):
            p = profiles.Profile(n=n, kind="binary", names=profiles.default_names(n), row_pos=rows,
                                 row_known=((1 << n) - 1,) * n)
            for rule in rules:
                for objective, targets in shapes.items():
                    cases = list(itertools.product(targets, range(4), (None, {a: 1 + a % 3 for a in range(n)})))
                    for (aplus, aminus), budget, prices in cases if n < 3 else [cases[turn % len(cases)]]:
                        instance = make_instance(p, rule, "GB", objective, aplus, aminus, budget=budget,
                                                 agent_prices=prices)
                        if preflight(instance) is not None:
                            continue
                        searched += 1
                        yes += _assert_sliced_matches(instance) == "YES"
                    turn += 1
    assert (searched, yes) == (4993, 2628)


def test_bribery_sliced_matches_bribery_brute_on_seeded_instances():
    rng = random.Random(2400)
    rules = (profiles.SocialRule.csr(), profiles.SocialRule.lsr())
    searched = yes = 0
    for n in range(4, 9):
        for rule in rules:
            for objective in OBJECTIVES:
                for _ in range(6):
                    instance = random_instance(rng, "GB", objective, rule, n)
                    if preflight(instance) is None:
                        searched += 1
                        yes += _assert_sliced_matches(instance) == "YES"
    assert searched > 100 and 0 < yes < searched, (searched, yes)
    # wider slices: 2^12 positions, without a node limit
    answers = []
    for rule in rules:
        for objective in OBJECTIVES:
            picked = rng.sample(range(12), 12 if objective == "exact" else 2)
            aplus = picked[:1] if objective == "general" else picked[:6] if objective == "exact" else picked
            aplus, aminus = ((), aplus) if objective == "destructive" else (aplus, picked[len(aplus):])
            prices = {a: rng.randint(1, 2) for a in range(12)} if rng.random() < 0.5 else None
            instance = make_instance(gen_random_profile(12, seed=rng.randrange(1 << 30)), rule, "GB", objective,
                                     aplus, aminus, budget=3, agent_prices=prices)
            if preflight(instance) is None:
                got = _outcome(solve_bribery_sliced.run, instance, oracle.DEFAULT_SEARCH)
                assert got == _outcome(solve_bribery_brute, instance, oracle.DEFAULT_SEARCH), instance
                answers.append(got[0])
    assert len(answers) > 4 and {"YES", "NO"} <= set(answers), answers


def test_microbribery_sliced_matches_microbribery_brute_exhaustively():
    # every binary profile up to n = 2 under csr and lsr, every target
    # shape of every objective, budgets 0-3, unpriced and priced
    rules = (profiles.SocialRule.csr(), profiles.SocialRule.lsr())
    searched = yes = 0
    for n in (1, 2):
        pricings = (None, {(a, b): 1 + (a + 2 * b) % 3 for a in range(n) for b in range(n)})
        for rows in itertools.product(range(1 << n), repeat=n):
            p = profiles.Profile(n=n, kind="binary", names=profiles.default_names(n), row_pos=rows,
                                 row_known=((1 << n) - 1,) * n)
            for rule in rules:
                for objective, targets in _gb_target_shapes(n).items():
                    for (aplus, aminus), budget, prices in itertools.product(targets, range(4), pricings):
                        instance = make_instance(p, rule, "GMB", objective, aplus, aminus, budget=budget,
                                                 pair_prices=prices)
                        if preflight(instance) is not None:
                            continue
                        searched += 1
                        answer = _assert_sliced_matches(instance, solve_microbribery_sliced, solve_microbribery_brute)
                        yes += answer == "YES"
    assert (searched, yes) == (2112, 1172)


def test_microbribery_sliced_matches_microbribery_brute_on_seeded_instances():
    rng = random.Random(2500)
    rules = (profiles.SocialRule.csr(), profiles.SocialRule.lsr())
    searched = yes = 0
    for n in range(3, 7):
        for rule in rules:
            for objective in OBJECTIVES:
                for _ in range(5):
                    drawn = random_instance(rng, "GMB", objective, rule, n)
                    prices = {(a, b): rng.randint(1, 3) for a in range(n) for b in range(n)} \
                        if rng.random() < 0.5 else None
                    # budgets past 3 at n = 6 make millions of flip sets
                    instance = make_instance(drawn.profile, rule, "GMB", objective, drawn.aplus, drawn.aminus,
                                             budget=rng.randint(0, 3 if n < 6 else 2), pair_prices=prices)
                    if preflight(instance) is None:
                        searched += 1
                        answer = _assert_sliced_matches(instance, solve_microbribery_sliced, solve_microbribery_brute)
                        yes += answer == "YES"
    assert searched > 100 and 0 < yes < searched, (searched, yes)
    # 2,081 flip sets at n = 8, budget 2, without a node limit
    instance = make_instance(gen_random_profile(8, seed=16), profiles.SocialRule.lsr(), "GMB", "general",
                             aplus=(0,), aminus=(1,), budget=2)
    assert preflight(instance) is None
    got = _outcome(solve_microbribery_sliced.run, instance, oracle.DEFAULT_SEARCH)
    assert got == _outcome(solve_microbribery_brute, instance, oracle.DEFAULT_SEARCH)
    assert got == ("YES", Solution.flipped({(5, 1): -1, (7, 1): -1}))
    # n = 4 at budget 16 affords all 2^16 flip sets; the witness flips five
    # pairs and ranks 2,585th, past five window borders (named calls)
    instance = make_instance(gen_random_profile(4, seed=0), profiles.SocialRule.lsr(), "GMB", "general",
                             aplus=(0, 1), aminus=(2, 3), budget=16)
    assert preflight(instance) is None
    witness = Solution.flipped({(0, 0): 1, (0, 1): 1, (0, 2): -1, (2, 2): -1, (3, 3): -1})
    for limit, want in ((2585, ("YES", witness)), (2584, ("refused", "candidate count exceeded node limit 2584"))):
        search = SearchBudget(node_limit=limit)
        assert _outcome(solve_microbribery_sliced, instance, search) == want, limit
        assert _outcome(solve_microbribery_brute, instance, search) == want, limit


def _reference_bribed_rows(instance, solver):
    """The candidates of bribery_brute under a column-local rule, or of the
    cgb_xp/dgb_xp search, as replaced rows, in the order they are searched."""
    p = instance.profile
    full = (1 << p.n) - 1
    if solver == "bribery_brute":
        plus, minus = effective_targets(instance)
        template = profiles.mask_of(plus)
        for members in oracle._affordable([instance.agent_price(a) for a in range(p.n)], instance.budget):
            branch = [a for a in members if a in plus or a in minus]
            choices = [((1, -1) if a in plus else (-1, 1)) + ((0,) if p.kind == "ternary" else ()) for a in branch]
            for picks in itertools.product(*choices):
                diag = dict(zip(branch, picks))
                rows = {}
                for a in members:
                    bit = 1 << a
                    pick = diag.get(a, -1)
                    rows[a] = ((template & ~bit) | (bit if pick == 1 else 0), full & ~bit if pick == 0 else full)
                yield rows
        return
    sign = 1 if solver == "cgb_xp" else -1
    targets, quota = (instance.aplus, instance.rule.s) if sign == 1 else (instance.aminus, instance.rule.t)
    forced = sorted(a for a in targets if p.entry(a, a) == -sign)
    remaining = instance.budget - instance.cost_of_agents(forced)
    if remaining < 0:
        return
    pool = [b for b in range(p.n) if b not in forced]
    for extra in _subsets(pool, min(quota, len(pool), remaining)):
        if instance.cost_of_agents(extra) <= remaining:
            yield dict.fromkeys(forced + list(extra), (full if sign == 1 else 0, full))


def _reference_bribery(solver):
    """A solve(instance, search) that judges every candidate of
    _reference_bribed_rows on the whole profile Profile._derive makes."""
    def solve(instance, search):
        p = instance.profile
        judge = None
        for count, rows in enumerate(_reference_bribed_rows(instance, solver), 1):
            if search.node_limit is not None and count > search.node_limit:
                raise InstanceTooLarge("candidate count exceeded node limit %d" % search.node_limit)
            if judge is None:
                judge = _judge(instance)
            derived = p._derive(rows)
            if judge((1 << p.n) - 1, derived):
                witness = Solution.bribed({a: derived.row(a) for a in rows})
                assert check_witness(instance, witness)
                return Verdict("YES", witness=witness)
        return NO_VERDICT
    return solve


_COLUMN_LOCAL_BRIBERY = {
    "bribery_brute": solve_bribery_brute,
    "cgb_xp": lambda instance, search: solvers._gb_xp(instance, search, 1),
    "dgb_xp": lambda instance, search: solvers._gb_xp(instance, search, -1),
}


def _assert_bribery_matches_reference(instance):
    """bribery_brute, and cgb_xp/dgb_xp where their quota is 1, against the
    derived-profile reference: the same verdict and refusal under node
    limits none, 0, 1 and 3.  Returns the oracle's answer without a limit."""
    rule = instance.rule
    consent = rule.variant == "consent"
    names = ["bribery_brute"] + ["cgb_xp"] * (consent and rule.t == 1) + ["dgb_xp"] * (consent and rule.s == 1)
    answers = []
    for name in names:
        for limit in (None, 0, 1, 3):
            search = SearchBudget(node_limit=limit)
            got = _outcome(_COLUMN_LOCAL_BRIBERY[name], instance, search)
            assert got == _outcome(_reference_bribery(name), instance, search), (name, instance, limit)
            answers.append(got[0])
    return answers[0]


def test_column_local_bribery_matches_the_derived_profile_reference_exhaustively():
    # every binary profile up to n = 3, every consent (s, t) within the
    # bound and ternary(2, -, 1), every objective and target shape, budgets
    # 0..n, unpriced and priced; at n = 2 every rule and target shape with
    # the budget and pricing cycling, at n = 3 one of each per (profile,
    # objective), cycling
    searched = yes = 0
    for n in range(1, 4):
        rules = [rule for rule in valid_rules(n, "binary") if rule.column_local]
        settings = list(itertools.product(range(n + 1), (None, {a: 1 + a % 3 for a in range(n)})))
        turn = 0
        for rows in itertools.product(range(1 << n), repeat=n):
            p = profiles.Profile(n=n, kind="binary", names=profiles.default_names(n), row_pos=rows,
                                 row_known=((1 << n) - 1,) * n)
            for objective, targets in _gb_target_shapes(n).items():
                cases = list(itertools.product(rules, targets, settings if n == 1 else [None]))
                for rule, (aplus, aminus), setting in cases if n < 3 else [cases[turn % len(cases)]]:
                    budget, prices = setting or settings[turn % len(settings)]
                    instance = make_instance(p, rule, "GB", objective, aplus, aminus, budget=budget,
                                             agent_prices=prices)
                    searched += 1
                    yes += _assert_bribery_matches_reference(instance) == "YES"
                    turn += 1
    assert (searched, yes) == (3520, 1968)


def test_column_local_bribery_matches_the_derived_profile_reference_on_seeded_instances():
    # n 4-8: binary profiles under consent, ternary profiles with stars
    # under ternary rules, every objective, about a third priced
    rng = random.Random(2700)
    searched = yes = 0
    for n in range(4, 9):
        rules = [profiles.SocialRule.consent(s, t) for s in range(1, 4) for t in range(1, 4)]
        rules += [profiles.SocialRule.ternary(s, sp, t) for s in (1, 2) for sp in (None, 1, 3) for t in (1, 2)]
        for objective in OBJECTIVES:
            for _ in range(12):
                instance = random_instance(rng, "GB", objective, rng.choice(rules), n)
                if n > 6:
                    instance = dataclasses.replace(instance, budget=min(instance.budget, 2))
                searched += 1
                yes += _assert_bribery_matches_reference(instance) == "YES"
    assert (searched, yes) == (240, 139)


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
                       aplus=(0,), budget=2), "bribery_sliced"),
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


def test_rejected_own_witness_is_an_internal_fault(monkeypatch):
    # check_witness rejecting a solver's own witness is a bug, not a solver
    # precondition: PreconditionViolated would make solve and xval exit 3
    gmb = make_instance(ex1(), consent(2, 1), "GMB", "constructive", aplus=(4,), budget=1)
    gcdi = make_instance(ex1(), consent(2, 3), "GCDI", "constructive", aplus=(4,), budget=2)
    cases = ((solve_microbribery_consent, gmb), (solve_fpt_ilp, gcdi), (solve_control_brute, gcdi))
    for solver, instance in cases:
        assert solver(instance).answer == "YES"
    monkeypatch.setattr(oracle, "check_witness", lambda instance, witness: False)
    for solver, instance in cases:
        with pytest.raises(RuntimeError, match="check_witness rejects"):
            solver(instance)


def test_auto_agrees_with_oracle_on_mixed_sweep():
    rng = random.Random(427)
    for _ in range(120):
        n = rng.randrange(3, 6)
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
        instance = random_instance(rng, family, objective, rule, n)
        got, _name = solve_auto(instance)
        want = ORACLES[ORACLE_FOR_FAMILY[family]](instance)
        if got.answer == "YES":
            assert check_witness(instance, got.witness)
            assert want.answer == "YES"
        else:
            assert want.answer == "NO"
