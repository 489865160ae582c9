import dataclasses
import itertools
import random
import sys

import pytest

from gidsolve import oracle, partial, profiles, solvers
from gidsolve.errors import (
    InstanceTooLarge,
    InvalidR,
    NoRExtension,
    PreconditionViolated,
    QuotaConstraintViolated,
    RuleNotApplicable,
    WrongKind,
)
from gidsolve.generators import gen_random_profile, gen_rx3c, gen_rx3c_no, rx3c_to_cgb
from gidsolve.instances import (
    NO_VERDICT,
    OBJECTIVES,
    Solution,
    check_witness,
    make_instance,
    validate,
)
from gidsolve.oracle import (
    DEFAULT_SEARCH,
    SearchBudget,
    pqi_nqi_brute,
    row_needs,
    solve_bribery_brute,
    solve_control_brute,
    solve_microbribery_brute,
)
from gidsolve.profiles import Profile, SocialRule, full_mask, make_profile, negate
from gidsolve.solvers import ORACLE_FOR_FAMILY, ORACLES, solve_cgb_xp

from helpers import ex1, optimistic_extension, pessimistic_extension, valid_rules


def test_control_gcdi_witness_order():
    # a5 needs two of its three disqualifiers gone; {a3,a4} is first in order
    inst = make_instance(ex1(), SocialRule.consent(1, 2), "GCDI", "constructive",
                         aplus=(4,), budget=2)
    verdict = solve_control_brute(inst)
    assert verdict.answer == "YES"
    assert verdict.witness.members == frozenset((2, 3))
    assert check_witness(inst, verdict.witness)


def test_control_budget_zero():
    inst = make_instance(ex1(), SocialRule.consent(2, 1), "GCAI", "constructive",
                         aplus=(4,), pool=range(5), budget=0)
    assert solve_control_brute(inst).answer == "NO"


def test_control_gcpi_immune_case_says_no():
    # with t=1 a partition can never qualify a new individual
    inst = make_instance(ex1(), SocialRule.consent(1, 1), "GCPI", "constructive",
                         aplus=(1,))
    assert validate(inst) == []
    assert solve_control_brute(inst).answer == "NO"


def test_control_gcpi_matches_uncanonicalized_enumeration():
    for seed in range(25):
        n = 3 + seed % 3
        p = gen_random_profile(n, seed=seed)
        rng = random.Random(1000 + seed)
        rule = SocialRule.consent(rng.randint(1, 2), rng.randint(1, 2))
        targets = rng.sample(range(n), 2)
        inst = make_instance(p, rule, "GCPI", "general",
                             aplus=targets[:1], aminus=targets[1:])
        naive = "NO"
        for size in range(n + 1):
            if naive == "YES":
                break
            for members in itertools.combinations(range(n), size):
                if check_witness(inst, Solution.partition(members)):
                    naive = "YES"
                    break
        assert solve_control_brute(inst).answer == naive


def test_control_budget_monotone():
    for seed in range(30):
        n = 4 + seed % 2
        p = gen_random_profile(n, seed=seed)
        rng = random.Random(2000 + seed)
        family = rng.choice(("GCAI", "GCDI"))
        rule = SocialRule.consent(rng.randint(1, 3), rng.randint(1, 2))
        a_plus = (rng.randrange(n),)
        kw = dict(aplus=a_plus, budget=1)
        if family == "GCAI":
            pool = set(a_plus) | {i for i in range(n) if rng.random() < 0.5}
            kw["pool"] = pool
        low = make_instance(p, rule, family, "constructive", **kw)
        kw["budget"] = 2
        high = make_instance(p, rule, family, "constructive", **kw)
        if solve_control_brute(low).answer == "YES":
            assert solve_control_brute(high).answer == "YES"


def full_bribery_answer(inst):
    """Reference bribery solver enumerating every possible replacement row."""
    n = inst.profile.n
    cells = (1, -1, 0) if inst.profile.kind == "ternary" else (1, -1)
    all_rows = list(itertools.product(cells, repeat=n))
    for size in range(min(inst.budget, n) + 1):
        for members in itertools.combinations(range(n), size):
            if inst.cost_of_agents(members) > inst.budget:
                continue
            for picked in itertools.product(all_rows, repeat=size):
                if check_witness(inst, Solution.bribed(dict(zip(members, picked)))):
                    return "YES"
    return "NO"


def bribery_cases():
    cases = []
    for seed in range(16):
        n = 3 if seed % 2 else 4
        p = gen_random_profile(n, seed=seed)
        rng = random.Random(3000 + seed)
        picks = rng.sample(range(n), 2)
        rules = [
            SocialRule.consent(rng.randint(1, 2), rng.randint(1, 2)),
            SocialRule.csr(),
            SocialRule.lsr(),
            SocialRule.ternary(rng.randint(1, n), rng.randint(1, n), rng.randint(1, n)),
        ]
        rule = rules[seed % 4]
        objective = ("constructive", "destructive", "general")[seed % 3]
        aplus = picks[:1] if objective != "destructive" else ()
        aminus = picks[1:] if objective != "constructive" else ()
        cases.append((p, rule, objective, aplus, aminus, 1 + seed % 2))
    # exact objective needs full coverage of N
    for seed in range(4):
        n = 3
        p = gen_random_profile(n, seed=100 + seed)
        rule = (SocialRule.consent(2, 1), SocialRule.lsr(),
                SocialRule.consent(1, 2), SocialRule.csr())[seed]
        cases.append((p, rule, "exact", (0,), (1, 2), 2))
    # ternary profiles with star diagonals
    for seed in range(4):
        p = gen_random_profile(3, "ternary", 0.2, 200 + seed)
        rule = SocialRule.ternary(2, 1 + seed % 3, 2)
        cases.append((p, rule, ("constructive", "general")[seed % 2], (0,), (2,) if seed % 2 else (), 1))
    return cases


def test_bribery_matches_full_row_enumeration():
    for p, rule, objective, aplus, aminus, budget in bribery_cases():
        inst = make_instance(p, rule, "GB", objective,
                             aplus=aplus, aminus=aminus, budget=budget)
        got = solve_bribery_brute(inst)
        assert got.answer == full_bribery_answer(inst), (rule, objective, p.rows())
        if got.answer == "YES":
            assert check_witness(inst, got.witness)


def test_bribery_empty_targets_trivial_yes():
    inst = make_instance(gen_random_profile(4, seed=7), SocialRule.consent(2, 2), "GB",
                         "general", budget=0)
    verdict = solve_bribery_brute(inst)
    assert verdict.answer == "YES"
    assert verdict.witness.members == frozenset()


def test_bribery_full_budget_constructive_yes():
    for seed in range(5):
        n = 4
        p = gen_random_profile(n, seed=400 + seed)
        inst = make_instance(p, SocialRule.consent(2, 2), "GB", "constructive",
                             aplus=(0, 1), budget=n)
        assert solve_bribery_brute(inst).answer == "YES"


def test_bribery_prices_respected():
    # the only helpful briber costs more than the budget
    rows = [
        [1, -1, -1],
        [-1, 1, -1],
        [-1, -1, 1],
    ]
    p = make_profile(rows)
    base = dict(aplus=(0,), budget=1)
    cheap = make_instance(p, SocialRule.consent(2, 1), "GB", "constructive", **base)
    assert solve_bribery_brute(cheap).answer == "YES"
    priced = make_instance(p, SocialRule.consent(2, 1), "GB", "constructive",
                           agent_prices={1: 2, 2: 2}, **base)
    assert solve_bribery_brute(priced).answer == "NO"


def test_bribery_duality_transport():
    for seed in range(20):
        n = 3 + seed % 3
        p = gen_random_profile(n, seed=500 + seed)
        rng = random.Random(600 + seed)
        s = rng.randint(1, 3)
        t = rng.randint(1, n + 2 - s)
        target = (rng.randrange(n),)
        budget = rng.randint(0, 2)
        cgb = make_instance(p, SocialRule.consent(s, t), "GB", "constructive",
                            aplus=target, budget=budget)
        dgb = make_instance(negate(p), SocialRule.consent(t, s), "GB", "destructive",
                            aminus=target, budget=budget)
        assert solve_bribery_brute(cgb).answer == solve_bribery_brute(dgb).answer


def full_microbribery_answer(inst):
    """Reference microbribery solver over every entry of the matrix."""
    n = inst.profile.n
    domain = [(a, b) for a in range(n) for b in range(n)]
    for size in range(min(inst.budget, len(domain)) + 1):
        for pairs in itertools.combinations(domain, size):
            if inst.cost_of_pairs(pairs) > inst.budget:
                continue
            options = [tuple(v for v in (1, -1) if v != inst.profile.entry(a, b))
                       for a, b in pairs]
            for values in itertools.product(*options):
                if check_witness(inst, Solution.flipped(dict(zip(pairs, values)))):
                    return "YES"
    return "NO"


def test_affordable_equals_filtered_subsets():
    # the old candidate filter: _subsets capped at the budget, then the price
    # total; prices below 1 included, since the oracles skip validate
    def filtered(prices, budget):
        return [c for c in oracle._subsets(range(len(prices)), min(budget, len(prices)))
                if sum(prices[i] for i in c) <= budget]

    assignments = [list(prices) for size in range(5) for prices in itertools.product(range(-1, 4), repeat=size)]
    rng = random.Random(2501)
    assignments += [[rng.randint(-1, 3) for _ in range(rng.randint(5, 8))] for _ in range(200)]
    for prices in assignments:
        for budget in range(-1, 6):
            assert list(oracle._affordable(prices, budget)) == filtered(prices, budget), (prices, budget)


def test_microbribery_matches_full_entry_enumeration():
    for seed in range(14):
        n = 3
        kind_ternary = seed % 2 == 0
        p = (gen_random_profile(n, "ternary", 0.2, 700 + seed) if kind_ternary
             else gen_random_profile(n, seed=700 + seed))
        rng = random.Random(800 + seed)
        if kind_ternary:
            rule = SocialRule.ternary(rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3))
        else:
            rule = SocialRule.consent(rng.randint(1, 2), rng.randint(1, 2))
        picks = rng.sample(range(n), 2)
        objective = ("constructive", "destructive", "general")[seed % 3]
        aplus = picks[:1] if objective != "destructive" else ()
        aminus = picks[1:] if objective != "constructive" else ()
        inst = make_instance(p, rule, "GMB", objective,
                             aplus=aplus, aminus=aminus, budget=1 + seed % 2)
        assert solve_microbribery_brute(inst).answer == full_microbribery_answer(inst)


def test_microbribery_self_flip_unlocks_quota():
    # flipping a5's self-opinion both removes the veto and adds a qualifier
    inst = make_instance(ex1(), SocialRule.consent(2, 1), "GMB", "constructive",
                         aplus=(4,), budget=1)
    verdict = solve_microbribery_brute(inst)
    assert verdict.answer == "YES"
    assert verdict.witness.flips == ((4, 4, 1),)


def test_microbribery_single_flip_disqualifies():
    # target self-qualifies, so one flip of the diagonal pushes it to t=2
    rows = [
        [1, -1, -1, -1],
        [-1, 1, -1, -1],
        [-1, -1, 1, -1],
        [-1, -1, -1, 1],
    ]
    p = make_profile(rows)
    inst = make_instance(p, SocialRule.consent(1, 2), "GMB", "destructive",
                         aminus=(0,), budget=1)
    verdict = solve_microbribery_brute(inst)
    assert verdict.answer == "YES"
    assert verdict.witness.flips == ((0, 0, -1),)


def test_microbribery_trivial_budget_zero():
    # already satisfied instance: the empty flip set wins at budget 0
    p = gen_random_profile(4, seed=901)
    qualified = sorted(profiles.eval(SocialRule.consent(1, 1), None, p))
    inst = make_instance(p, SocialRule.consent(1, 1), "GMB", "constructive",
                         aplus=qualified[:1], budget=0)
    verdict = solve_microbribery_brute(inst)
    assert verdict.answer == "YES"
    assert verdict.witness.flips == ()


def test_node_limit_enforced():
    inst = make_instance(gen_random_profile(5, seed=77), SocialRule.consent(2, 2), "GCDI",
                         "constructive", aplus=(0,), budget=3)
    with pytest.raises(InstanceTooLarge):
        solve_control_brute(inst, SearchBudget(node_limit=0))
    assert solve_control_brute(inst, SearchBudget(node_limit=10 ** 6)).answer in ("YES", "NO")
    # Fixed NO instances and the exact number of candidates each search
    # checks: a limit of C answers NO, a limit of C - 1 refuses.
    consent22 = SocialRule.consent(2, 2)
    table = [
        (solve_control_brute, make_instance(gen_random_profile(6, seed=77), consent22, "GCAI", "constructive",
                                            aplus=(0,), pool=(0, 1, 2), budget=2), 7),
        (solve_control_brute, make_instance(gen_random_profile(5, seed=87), consent22, "GCDI", "constructive",
                                            aplus=(0,), budget=3), 15),
        (solve_control_brute, make_instance(gen_random_profile(5, seed=78), consent22, "GCPI", "general",
                                            aplus=(0,), aminus=(1,)), 16),
        (solve_bribery_brute, make_instance(gen_random_profile(5, seed=81), consent22, "GB", "general",
                                            aplus=(0,), aminus=(1,), budget=1), 8),
        (solve_bribery_brute, make_instance(gen_random_profile(5, seed=82), SocialRule.csr(), "GB", "general",
                                            aplus=(0,), aminus=(1,), budget=2), 16),
        (solve_microbribery_brute, make_instance(gen_random_profile(4, seed=96), consent22, "GMB", "constructive",
                                                 aplus=(0, 1), budget=2), 37),
        (solve_cgb_xp, rx3c_to_cgb(gen_rx3c_no(2, seed=1)), 79),
    ]
    for solve, instance, candidates in table:
        assert solve(instance, SearchBudget(node_limit=candidates)).answer == "NO"
        refusal = "candidate count exceeded node limit %d" % (candidates - 1)
        with pytest.raises(InstanceTooLarge, match=refusal):
            solve(instance, SearchBudget(node_limit=candidates - 1))


def test_search_budget_charges_past_the_limit():
    SearchBudget(None).charge(10 ** 9)
    limit = 5
    search = SearchBudget(limit)
    search.charge(limit)
    with pytest.raises(InstanceTooLarge, match="^candidate count exceeded node limit 5$"):
        search.charge(limit + 1)
    with pytest.raises(InstanceTooLarge, match="^ilp search exceeded node limit 5$"):
        search.charge(limit + 1, "ilp search exceeded")
    # a list, not an iterator, on a NO instance of test_node_limit_enforced:
    # the candidate past the limit is still charged
    inst = make_instance(gen_random_profile(5, seed=87), SocialRule.consent(2, 2), "GCDI",
                         "constructive", aplus=(0,), budget=3)
    assert oracle._first_witness(inst, [full_mask(5)] * limit, search) == NO_VERDICT
    with pytest.raises(InstanceTooLarge, match="^candidate count exceeded node limit 5$"):
        oracle._first_witness(inst, [full_mask(5)] * (limit + 1), search)
    # the limit refuses before the judge's applicability check runs
    partial_inst = make_instance(make_profile([[1, 0], [0, 1]], kind="partial"), SocialRule.consent(1, 1),
                                 "GCDI", "constructive", aplus=(0,), budget=1)
    with pytest.raises(InstanceTooLarge):
        solve_control_brute(partial_inst, SearchBudget(0))
    with pytest.raises(RuleNotApplicable):
        solve_control_brute(partial_inst)


def test_family_preconditions():
    p = gen_random_profile(3, seed=5)
    gb = make_instance(p, SocialRule.consent(1, 1), "GB", "constructive",
                       aplus=(0,), budget=1)
    with pytest.raises(PreconditionViolated):
        solve_control_brute(gb)
    control = make_instance(p, SocialRule.consent(1, 1), "GCDI", "constructive",
                            aplus=(0,), budget=1)
    with pytest.raises(PreconditionViolated):
        solve_bribery_brute(control)
    with pytest.raises(PreconditionViolated):
        solve_microbribery_brute(control)
    # the oracles called by name refuse an instance missing its budget or pool
    rule = SocialRule.consent(1, 1)
    cases = [
        (solve_control_brute, make_instance(p, rule, "GCDI", "constructive", aplus=(0,)),
         "GCDI instance needs a budget"),
        (solve_control_brute, make_instance(p, rule, "GCAI", "constructive", aplus=(0,), pool=(1,)),
         "GCAI instance needs a budget"),
        (solve_control_brute, make_instance(p, rule, "GCAI", "constructive", aplus=(0,), budget=1),
         "GCAI instance needs a pool"),
        (solve_bribery_brute, make_instance(p, rule, "GB", "constructive", aplus=(0,)),
         "GB instance needs a budget"),
        (solve_microbribery_brute, make_instance(p, rule, "GMB", "constructive", aplus=(0,)),
         "GMB instance needs a budget"),
    ]
    for solve, instance, message in cases:
        with pytest.raises(PreconditionViolated) as err:
            solve(instance)
        assert str(err.value) == message, message


def test_pqi_nqi_no_unknowns_is_direct_eval():
    p = ex1()
    binary_as_partial = make_profile(p.rows(), kind="partial")
    rule = SocialRule.consent(1, 1)
    want = profiles.eval(rule, None, p)
    for subset in ((0,), (0, 2), (1,), ()):
        expected = frozenset(subset) <= want
        assert pqi_nqi_brute(binary_as_partial, subset, rule) == (expected, expected)


def test_pqi_nqi_single_unknown():
    # a1 self-qualifies with one known qualifier; the unknown decides quota 2
    rows = [
        [1, -1, -1],
        [0, 1, -1],
        [-1, -1, -1],
    ]
    p = make_profile(rows, kind="partial")
    assert pqi_nqi_brute(p, (0,), SocialRule.consent(2, 1)) == (True, False)


def test_pqi_nqi_r_extension_filter():
    # a3 spends its single +1 on itself, so f stays {a3} in every r-extension
    rows = [
        [-1, 0, -1],
        [0, -1, 0],
        [-1, 0, 1],
    ]
    p = make_profile(rows, kind="partial")
    possible, necessary = pqi_nqi_brute(p, (0,), SocialRule.lsr(), r=1)
    assert possible is False and necessary is False


def test_pqi_nqi_r_extension_missing():
    rows = [
        [1, 1, -1],
        [0, -1, -1],
        [-1, 0, 1],
    ]
    p = make_profile(rows, kind="partial")
    with pytest.raises(NoRExtension):
        pqi_nqi_brute(p, (0,), SocialRule.consent(1, 1), r=1)


def test_row_needs_reads_row_pos_and_known(monkeypatch):
    calls = []
    original = profiles.Profile.entry

    def counting(self, a, b):
        calls.append((a, b))
        return original(self, a, b)

    monkeypatch.setattr(profiles.Profile, "entry", counting)
    p = make_profile([[1, 0, -1], [0, 0, -1], [-1, 0, 1]], kind="partial")
    assert row_needs(p, 2) == [1, 2, 1]
    assert pqi_nqi_brute(p, (2,), SocialRule.lsr(), r=2) == (True, True)
    assert calls == []
    with pytest.raises(NoRExtension) as err:
        row_needs(p, 3)
    assert str(err.value) == "row a1 has 1 fixed qualifications and 1 unknowns, cannot reach r=3"
    with pytest.raises(InvalidR):
        row_needs(p, 0)


def test_pqi_nqi_rejects_ternary():
    p = make_profile([[0, 1], [1, 0]], kind="ternary")
    with pytest.raises(WrongKind):
        pqi_nqi_brute(p, (0,), SocialRule.consent(1, 1))


def test_pqi_nqi_node_limit():
    rows = [[0] * 4 for _ in range(4)]
    p = make_profile(rows, kind="partial")
    with pytest.raises(InstanceTooLarge):
        pqi_nqi_brute(p, (0,), SocialRule.consent(1, 1),
                      search=SearchBudget(node_limit=100))


def test_pqi_nqi_refusals_precede_the_quota_bound():
    # consent(3, 2) breaks s + t <= n + 2 at n = 2, yet an infeasible r and
    # then a too-small node limit are reported first
    p = make_profile([[1, 0], [0, -1]], kind="partial")
    rule = SocialRule.consent(3, 2)
    cases = [
        (dict(r=3, search=SearchBudget(node_limit=0)), NoRExtension,
         "row a1 has 1 fixed qualifications and 1 unknowns, cannot reach r=3"),
        (dict(r=1, search=SearchBudget(node_limit=0)), InstanceTooLarge,
         "1 r-extensions exceed node limit 0"),
        (dict(search=SearchBudget(node_limit=3)), InstanceTooLarge,
         "2^2 extensions exceed node limit 3"),
        (dict(r=1), QuotaConstraintViolated,
         "consent quotas s=3 t=2 violate s + t <= n + 2 for n=2"),
        (dict(search=SearchBudget(node_limit=4)), QuotaConstraintViolated,
         "consent quotas s=3 t=2 violate s + t <= n + 2 for n=2"),
    ]
    for kwargs, error, text in cases:
        with pytest.raises(error) as err:
            pqi_nqi_brute(p, (0,), rule, **kwargs)
        assert str(err.value) == text, kwargs


def test_derived_profiles_skip_make_profile(monkeypatch):
    # witness checks, completions and extensions build profiles from row masks
    calls = []
    original = make_profile

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # patch the imported binding in partial too, so a direct import is counted
    for module in (profiles, partial):
        monkeypatch.setattr(module, "make_profile", counting, raising=False)
    p = ex1()
    unknowns = make_profile([[1, 0, -1], [0, 0, 1], [-1, 1, 0]], kind="partial")
    one_each = make_profile([[0, 0, -1], [-1, 0, 0], [0, -1, 0]], kind="partial")
    rule = SocialRule.ternary(2, None, 2)
    runs = {
        "bribery": lambda: solve_bribery_brute(make_instance(
            p, SocialRule.consent(3, 1), "GB", "constructive", aplus=(3,), budget=1)),
        "microbribery": lambda: solve_microbribery_brute(make_instance(
            p, SocialRule.consent(3, 1), "GMB", "constructive", aplus=(3,), budget=1)),
        "completions": lambda: pqi_nqi_brute(unknowns, (0, 1), SocialRule.consent(1, 1)),
        "r-completions": lambda: pqi_nqi_brute(one_each, (0,), SocialRule.lsr(), r=1),
        "optimistic": lambda: optimistic_extension(unknowns, (0, 2), rule),
        "pessimistic": lambda: pessimistic_extension(unknowns, (0, 2), rule),
    }
    for name, run in runs.items():
        result = run()
        assert calls == [], name
        if name in ("bribery", "microbribery"):
            assert result.answer == "NO", name


def test_column_views_built_only_where_read(monkeypatch):
    # csr/lsr read rows only; consent builds each profile's columns once
    built = []
    original = profiles.Profile._columns

    def counting(self):
        if self._col_views is None:
            built.append(self)
        return original(self)

    monkeypatch.setattr(profiles.Profile, "_columns", counting)
    partial_p = make_profile([[1, 0, -1], [0, 0, 1], [-1, 1, 0]], kind="partial")
    one_each = make_profile([[0, 0, -1], [-1, 0, 0], [0, -1, 0]], kind="partial")
    for rule in (SocialRule.csr(), SocialRule.lsr()):
        runs = {
            "bribery": lambda: solve_bribery_brute(make_instance(
                gen_random_profile(5, seed=82), rule, "GB", "general", aplus=(0,), aminus=(1,), budget=2)),
            "microbribery": lambda: solve_microbribery_brute(make_instance(
                gen_random_profile(5, seed=81), rule, "GMB", "general", aplus=(0,), aminus=(1,), budget=1)),
            "completions": lambda: pqi_nqi_brute(partial_p, (0, 1), rule),
            "r-completions": lambda: pqi_nqi_brute(one_each, (0,), rule, r=1),
            "eval": lambda: profiles.eval(rule, (0, 1, 3), gen_random_profile(5, seed=3), want_trace=True),
        }
        for name, run in runs.items():
            result = run()
            assert built == [], (rule.variant, name)
            if name in ("bribery", "microbribery"):
                assert result.answer == "NO", (rule.variant, name)
    p = gen_random_profile(5, seed=3)
    first = profiles.eval(SocialRule.consent(2, 1), None, p)
    second = profiles.eval(SocialRule.consent(2, 1), None, p)
    assert first == second
    assert built == [p] and p.col_pos == original(p)[0]


def test_oracles_skip_public_eval(monkeypatch):
    # check_witness, pqi_nqi_brute and every answer_query route evaluate on
    # masks, after one applicability check, so the public frozenset wrapper
    # is never called
    calls = []
    original = profiles.eval

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # patch the imported binding in partial too, so a direct import is counted
    for module in (profiles, partial):
        monkeypatch.setattr(module, "eval", counting, raising=False)
    consent22 = SocialRule.consent(2, 2)
    partial_p = make_profile([[1, 0, -1], [0, 0, 1], [-1, 1, 0]], kind="partial")
    one_each = make_profile([[0, 0, -1], [-1, 0, 0], [0, -1, 0]], kind="partial")
    no_runs = {
        "GCAI": lambda: solve_control_brute(make_instance(
            gen_random_profile(6, seed=77), consent22, "GCAI", "constructive", aplus=(0,), pool=(0, 1, 2), budget=2)),
        "GCDI": lambda: solve_control_brute(make_instance(
            gen_random_profile(5, seed=87), consent22, "GCDI", "constructive", aplus=(0,), budget=3)),
        "GCPI": lambda: solve_control_brute(make_instance(
            gen_random_profile(5, seed=78), consent22, "GCPI", "general", aplus=(0,), aminus=(1,))),
        "bribery": lambda: solve_bribery_brute(make_instance(
            gen_random_profile(5, seed=81), consent22, "GB", "general", aplus=(0,), aminus=(1,), budget=1)),
        "bribery-csr": lambda: solve_bribery_brute(make_instance(
            gen_random_profile(5, seed=82), SocialRule.csr(), "GB", "general", aplus=(0,), aminus=(1,), budget=2)),
        "microbribery": lambda: solve_microbribery_brute(make_instance(
            gen_random_profile(4, seed=96), consent22, "GMB", "constructive", aplus=(0, 1), budget=2)),
    }
    for name, run in no_runs.items():
        assert run().answer == "NO", name
        assert calls == [], name
    for rule in (SocialRule.consent(1, 1), SocialRule.lsr(), SocialRule.ternary(2, None, 1)):
        assert pqi_nqi_brute(partial_p, (0, 1), rule) == (True, False), rule
        pqi_nqi_brute(one_each, (0,), rule, r=1)
        assert calls == [], rule
    diagonal = make_profile([[1, 0, 0], [0, 1, 0], [0, 0, 1]], kind="partial")
    routes = [
        (partial.PQI, None, SocialRule.consent(1, 1), "pqi"),
        (partial.NQI, None, consent22, "nqi"),
        (partial.PQI, 1, SocialRule.consent(2, 1), "r_pqi_consent_flow"),
        (partial.PQI, 1, SocialRule.consent(1, 2), "r_pqi_general"),
        (partial.NQI, 1, consent22, "r_nqi"),
        (partial.NQI, 2, SocialRule.lsr(), "r_sequential"),
        (partial.NQI, 2, SocialRule.csr(), "brute"),
    ]
    for mode, r, rule, expected in routes:
        _, route = partial.answer_query(diagonal, partial.PartialQuery((0,), mode, r), rule)
        assert route == expected
        assert calls == [], expected



def test_every_column_local_judge_calls_the_one_quota_test(monkeypatch):
    # profiles._column_qualifies wrapped with a counter in every module that
    # binds it: each scalar column-local judge must reach it once per column
    # it decides, so no judge keeps a private copy of the quota test
    original = profiles._column_qualifies
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    binders = [m for name, m in sorted(sys.modules.items())
               if name.startswith("gidsolve.") and getattr(m, "_column_qualifies", None) is original]
    assert {m.__name__ for m in binders} >= {"gidsolve.profiles", "gidsolve.oracle", "gidsolve.partial"}
    for module in binders:
        monkeypatch.setattr(module, "_column_qualifies", counting)

    def count(run):
        calls.clear()
        run()
        return len(calls)

    consent21 = SocialRule.consent(2, 1)
    binary = make_profile([[1, 1, -1], [1, -1, 1], [-1, 1, 1]])
    star = make_profile([[0, 1, -1], [1, 0, 1], [-1, 1, 0]], kind="ternary")
    assert count(lambda: profiles.eval_mask(consent21, 0b111, binary)) == 3
    assert count(lambda: profiles.eval_mask(SocialRule.ternary(1, None, 1), 0b111, star)) == 3
    # a2 disapproves of itself, which t = 1 disqualifies: budget 0 judges the
    # empty bribe alone, on the one target column, and check_witness never runs
    gb = make_instance(binary, consent21, "GB", "constructive", aplus=(1,), budget=0)
    assert count(lambda: solve_bribery_brute(gb)) == 1
    assert solve_bribery_brute(gb).answer == "NO"
    # a1's diagonal is known and judged once, a2's is unknown and judged as
    # either value by pqi and nqi; r_nqi judges a2 as -1 alone, as its row
    # has no +1 left to place
    unset = make_profile([[1, 0, 0], [0, 0, 1], [0, 1, -1]], kind="partial")
    consent12 = SocialRule.consent(1, 2)
    for mode, judge in ((partial.PQI, partial.pqi), (partial.NQI, partial.nqi)):
        assert count(lambda: judge(unset, partial.PartialQuery((0, 1), mode), consent12)) == 3, mode
    assert count(lambda: partial.r_nqi(unset, (0, 1), 1, consent12)) == 2


def _search_candidates(instance):
    """Every candidate the family's oracle, and the cgb_xp/dgb_xp search where
    its quota condition holds, hands the search loop, in order."""
    seen = []

    def record(inst, candidates, search):
        seen.extend(candidates)
        return NO_VERDICT

    with pytest.MonkeyPatch.context() as m:
        m.setattr(oracle, "_first_witness", record)
        m.setattr(solvers, "_first_witness", record)
        ORACLES[ORACLE_FOR_FAMILY[instance.family]](instance)
        rule = instance.rule
        if instance.family == "GB" and rule.variant == "consent":
            if rule.t == 1:
                solvers._gb_xp(instance, DEFAULT_SEARCH, 1)
            if rule.s == 1:
                solvers._gb_xp(instance, DEFAULT_SEARCH, -1)
    return seen


def _assert_judge_agrees(instance):
    # the mask judge, through the real search loop on one candidate, against
    # check_witness on the Solution that candidate converts to; check_witness
    # gets a copy of the profile without column views, so its derived
    # profiles transpose from scratch, while the search patches the
    # instance's views or, for column-local bribery, reads its target columns
    p = instance.profile
    p._columns()
    count = 0
    for candidate in _search_candidates(instance):
        verdict = oracle._first_witness(instance, iter([candidate]), DEFAULT_SEARCH)
        solution = oracle._solution_of(instance, candidate)
        copy = Profile(n=p.n, kind=p.kind, names=p.names, row_pos=p.row_pos, row_known=p.row_known)
        expected = check_witness(dataclasses.replace(instance, profile=copy), solution)
        assert (verdict.answer == "YES") is expected, (instance, candidate)
        if expected:
            assert verdict.witness == solution
        count += 1
    return count


def _agreement_instance(rng, p, rule, family, objective, priced):
    n = p.n
    some = lambda domain: [x for x in domain if rng.random() < 0.5]
    aplus = some(range(n))
    aminus = some(x for x in range(n) if x not in aplus)
    if objective == "exact":
        aminus = [x for x in range(n) if x not in aplus]
    pool = sorted(set(aplus + aminus + some(range(n)))) if family == "GCAI" else None
    budget = None if family == "GCPI" else rng.randint(0, n)
    agent_prices = {a: rng.randint(1, 3) for a in some(range(n))} if priced and family == "GB" else None
    pair_prices = ({(a, b): rng.randint(1, 3) for a in range(n) for b in range(n) if rng.random() < 0.4}
                   if priced and family == "GMB" else None)
    return make_instance(p, rule, family, objective, aplus=aplus, aminus=aminus, pool=pool, budget=budget,
                         agent_prices=agent_prices, pair_prices=pair_prices)


FAMILIES = ("GCAI", "GCDI", "GCPI", "GB", "GMB")


def test_mask_judge_matches_check_witness_exhaustively():
    # every binary profile at n <= 3; per profile each family once, the
    # objective and the rule (every valid consent (s, t), csr, lsr and
    # ternary) cycling, a seeded budget in 0..n, a third of them priced
    rng = random.Random(1313)
    step = 0
    judged = 0
    for n in range(4):
        rules = valid_rules(n, "binary")
        full = (1 << n) - 1
        for value in range(2 ** (n * n)):
            p = Profile(n=n, kind="binary", names=profiles.default_names(n),
                        row_pos=tuple((value >> (a * n)) & full for a in range(n)), row_known=(full,) * n)
            for family in FAMILIES:
                inst = _agreement_instance(rng, p, rules[step % len(rules)], family, OBJECTIVES[step % 4],
                                           step % 3 == 0)
                step += 1
                judged += _assert_judge_agrees(inst)
    assert judged > 20_000
    # then ternary profiles under valid_rules' ternary quotas, so star
    # diagonals reach the target-column judge: every profile at n <= 2 with
    # each family once, and GB on every seventh profile at n = 3
    judged = {}
    for n in range(4):
        rules = valid_rules(n, "ternary")
        families = FAMILIES if n <= 2 else ("GB",)
        judged[n] = 0
        for value in range(0, 3 ** (n * n), 1 if n <= 2 else 7):
            # cell digit 0 is +1, 1 is -1 and 2 is star
            digits = [value // 3 ** c % 3 for c in range(n * n)]
            p = make_profile([[(1, -1, 0)[d] for d in digits[a * n:(a + 1) * n]] for a in range(n)], kind="ternary")
            for family in families:
                inst = _agreement_instance(rng, p, rules[step % len(rules)], family, OBJECTIVES[step % 4],
                                           step % 3 == 0)
                step += 1
                judged[n] += _assert_judge_agrees(inst)
    assert (sum(judged[n] for n in range(3)), judged[3]) == (1332, 43987)


def test_mask_judge_matches_check_witness_random():
    # n 4-6, binary and ternary profiles, half of them priced
    rng = random.Random(1314)
    for _ in range(150):
        n = rng.randint(4, 6)
        kind = rng.choice(("binary", "ternary"))
        cells = (1, -1, 0) if kind == "ternary" else (1, -1)
        p = make_profile([[rng.choice(cells) for _ in range(n)] for _ in range(n)], kind=kind)
        family = rng.choice(FAMILIES)
        inst = _agreement_instance(rng, p, rng.choice(valid_rules(n, kind)), family,
                                   rng.choice(OBJECTIVES), rng.random() < 0.5)
        if family == "GMB":
            inst = dataclasses.replace(inst, budget=min(inst.budget, 2))
        _assert_judge_agrees(inst)


def _pinned_searches():
    # (name, run, answer): the NO instances of test_node_limit_enforced and
    # YES instances of each search
    consent22 = SocialRule.consent(2, 2)
    gb_csr = make_instance(gen_random_profile(5, seed=82), SocialRule.csr(), "GB", "general", aplus=(0,), aminus=(1,),
                           budget=2)
    cgb_no = rx3c_to_cgb(gen_rx3c_no(2, seed=1))
    cgb_yes = rx3c_to_cgb(gen_rx3c(2, seed=1))
    return [
        ("GCAI", lambda: solve_control_brute(make_instance(
            gen_random_profile(6, seed=77), consent22, "GCAI", "constructive", aplus=(0,), pool=(0, 1, 2), budget=2)), "NO"),
        ("GCDI", lambda: solve_control_brute(make_instance(
            gen_random_profile(5, seed=87), consent22, "GCDI", "constructive", aplus=(0,), budget=3)), "NO"),
        ("GCPI", lambda: solve_control_brute(make_instance(
            gen_random_profile(5, seed=78), consent22, "GCPI", "general", aplus=(0,), aminus=(1,))), "NO"),
        ("GB", lambda: solve_bribery_brute(make_instance(
            gen_random_profile(5, seed=81), consent22, "GB", "general", aplus=(0,), aminus=(1,), budget=1)), "NO"),
        ("GB csr", lambda: solve_bribery_brute(gb_csr), "NO"),
        ("GMB", lambda: solve_microbribery_brute(make_instance(
            gen_random_profile(4, seed=96), consent22, "GMB", "constructive", aplus=(0, 1), budget=2)), "NO"),
        ("cgb_xp", lambda: solvers._gb_xp(cgb_no, DEFAULT_SEARCH, 1), "NO"),
        ("GCDI yes", lambda: solve_control_brute(make_instance(
            ex1(), SocialRule.consent(1, 3), "GCDI", "constructive", aplus=(4,), budget=1)), "YES"),
        ("GCPI yes", lambda: solve_control_brute(make_instance(
            ex1(), SocialRule.csr(), "GCPI", "destructive", aminus=(1,))), "YES"),
        ("GB yes", lambda: solve_bribery_brute(make_instance(
            ex1(), SocialRule.consent(3, 1), "GB", "constructive", aplus=(3,), budget=2)), "YES"),
        ("GB csr yes", lambda: solve_bribery_brute(dataclasses.replace(gb_csr, budget=5)), "YES"),
        ("GMB yes", lambda: solve_microbribery_brute(make_instance(
            ex1(), SocialRule.consent(3, 1), "GMB", "constructive", aplus=(0,), budget=1)), "YES"),
        ("cgb_xp yes", lambda: solvers._gb_xp(cgb_yes, DEFAULT_SEARCH, 1), "YES"),
        ("dgb_xp yes", lambda: solvers._gb_xp(make_instance(
            profiles.make_profile([[1, 1], [1, 1]]), SocialRule.consent(1, 1), "GB", "destructive",
            aminus=(0,), budget=1), DEFAULT_SEARCH, -1), "YES"),
    ]


def test_search_builds_and_checks_only_the_witness(monkeypatch):
    # check_witness runs once per YES and never per NO; no Solution is built
    # for a rejected candidate
    checked = []
    built = []
    original_check = oracle.check_witness
    original_init = Solution.__init__

    def counting_check(instance, witness):
        checked.append(witness)
        return original_check(instance, witness)

    def counting_init(self, *args, **kwargs):
        built.append(args)
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(oracle, "check_witness", counting_check)
    monkeypatch.setattr(Solution, "__init__", counting_init)
    for name, run, answer in _pinned_searches():
        checked.clear()
        built.clear()
        verdict = run()
        assert verdict.answer == answer, name
        if answer == "YES":
            assert checked == [verdict.witness] and checked[0] is verdict.witness, name
            assert len(built) == 1, name
        else:
            assert checked == [] and built == [], name


def test_consent_bribery_derives_no_profile_for_rejected_candidates(monkeypatch):
    # column-local bribery judges its candidates on the instance's target
    # columns: the instance's profile transposes once, a rejected candidate
    # derives no profile, and a YES derives one, in check_witness, whose
    # patched column views equal the ones a from-scratch profile builds
    no = make_instance(gen_random_profile(5, seed=81), SocialRule.consent(2, 2), "GB", "general",
                       aplus=(0,), aminus=(1,), budget=1)
    yes = make_instance(ex1(), SocialRule.consent(3, 1), "GB", "constructive", aplus=(3,), budget=2)
    built = []
    derived = []
    original_columns = profiles.Profile._columns
    original_derive = profiles.Profile._derive

    def counting(self):
        if self._col_views is None:
            built.append(self)
        return original_columns(self)

    def deriving(self, changed):
        result = original_derive(self, changed)
        derived.append((result, result._col_views))
        return result

    monkeypatch.setattr(profiles.Profile, "_columns", counting)
    monkeypatch.setattr(profiles.Profile, "_derive", deriving)
    assert solve_bribery_brute(no).answer == "NO"
    assert built == [no.profile] and derived == []
    # the 8 candidates of the node-count table
    with pytest.raises(InstanceTooLarge):
        solve_bribery_brute(no, SearchBudget(node_limit=7))
    assert solve_bribery_brute(no, SearchBudget(node_limit=8)).answer == "NO"
    assert built == [no.profile] and derived == []
    assert solve_bribery_brute(yes).answer == "YES"
    assert built == [no.profile, yes.profile] and len(derived) == 1
    profile, views = derived[0]
    fresh = Profile(n=profile.n, kind=profile.kind, names=profile.names, row_pos=profile.row_pos,
                    row_known=profile.row_known)
    assert views is not None and views == original_columns(fresh)
