import dataclasses
import itertools
import random

import pytest

from gidsolve.errors import (
    IndexOutOfRange,
    KindMismatch,
    ParseError,
    PreconditionViolated,
    QuotaConstraintViolated,
    RuleNotApplicable,
    WitnessOutOfDomain,
)
from gidsolve.generators import gen_random_profile
from gidsolve.instances import (
    OBJECTIVES,
    Solution,
    Verdict,
    check_witness,
    diagnostics,
    format_instance,
    hard_violations,
    make_instance,
    parse_instance,
    validate,
)
from gidsolve.profiles import Profile, SocialRule, default_names, format_profile, make_profile, negate

from helpers import EX1_TEXT, ex1, reference_rounds, valid_rules


def gcai(profile, rule, aplus=(), aminus=(), pool=None, budget=0, **kw):
    if pool is None:
        pool = range(profile.n)
    return make_instance(profile, rule, "GCAI", kw.pop("objective", "constructive"),
                         aplus=aplus, aminus=aminus, pool=pool, budget=budget, **kw)


def test_validate_clean_instance():
    # a5 is outside f^(2,1) = {a1, a3}, so the constructive goal is nontrivial
    inst = gcai(ex1(), SocialRule.consent(2, 1), aplus=(4,), budget=1)
    assert validate(inst) == []


def test_validate_disjointness():
    inst = gcai(ex1(), SocialRule.consent(2, 1), aplus=(0, 4), aminus=(0,), budget=1,
                objective="general")
    assert "DisjointnessViolated" in validate(inst)


def test_validate_exact_coverage():
    p = ex1()
    inst = make_instance(p, SocialRule.consent(2, 2), "GCPI", "exact",
                         aplus=(0,), aminus=(1, 2))
    assert "ExactCoverageViolated" in validate(inst)
    full = make_instance(p, SocialRule.consent(2, 2), "GCPI", "exact",
                         aplus=(0, 3), aminus=(1, 2, 4))
    assert "ExactCoverageViolated" not in validate(full)


def test_validate_structure():
    p = ex1()
    rule = SocialRule.consent(2, 1)
    no_pool = make_instance(p, rule, "GCAI", "constructive", aplus=(4,), budget=1)
    assert "MissingPool" in validate(no_pool)
    stray_pool = make_instance(p, rule, "GCDI", "constructive", aplus=(4,),
                               pool=range(5), budget=1)
    assert "PoolNotAllowed" in validate(stray_pool)
    no_budget = make_instance(p, rule, "GB", "constructive", aplus=(4,))
    assert "MissingBudget" in validate(no_budget)
    gcpi_budget = make_instance(p, rule, "GCPI", "constructive", aplus=(4,), budget=1)
    assert "BudgetNotAllowed" in validate(gcpi_budget)
    outside = gcai(p, rule, aplus=(4,), pool=(0, 1), budget=1)
    assert "TargetOutsidePool" in validate(outside)
    negative = make_instance(p, rule, "GB", "constructive", aplus=(4,), budget=-1)
    assert "NegativeBudget" in validate(negative)
    priced_control = gcai(p, rule, aplus=(4,), budget=1, agent_prices={0: 2})
    assert "AgentPricesNotAllowed" in validate(priced_control)
    bad_price = make_instance(p, rule, "GB", "constructive", aplus=(4,), budget=1,
                              agent_prices={0: 0})
    assert "PriceNotPositive" in validate(bad_price)
    bad_quota = gcai(p, SocialRule.consent(5, 3), aplus=(4,), budget=1)
    assert "QuotaConstraintViolated" in validate(bad_quota)


def test_validate_rule_kind():
    stars = make_profile([[0, 1], [1, 0]], kind="ternary")
    inst = make_instance(stars, SocialRule.consent(1, 1), "GB", "constructive",
                         aplus=(0,), budget=1)
    assert "RuleNotApplicable" in validate(inst)
    ok = make_instance(stars, SocialRule.ternary(1, 1, 1), "GB", "constructive",
                       aplus=(0,), budget=1)
    assert hard_violations(validate(ok)) == []


def test_validate_r_restriction():
    rows = [[1, 1, -1], [1, -1, 1], [-1, 1, 1]]
    p = make_profile(rows)
    good = make_instance(p, SocialRule.consent(2, 1), "GCDI", "constructive",
                         aplus=(0,), budget=1, r_restriction=2)
    assert "RRestrictionViolated" not in validate(good)
    bad = make_instance(p, SocialRule.consent(2, 1), "GCDI", "constructive",
                        aplus=(0,), budget=1, r_restriction=3)
    assert "RRestrictionViolated" in validate(bad)


def test_validate_nontriviality_warnings():
    p = ex1()
    trivial_plus = gcai(p, SocialRule.consent(1, 1), aplus=(0,), budget=1)
    assert validate(trivial_plus) == ["warning:AplusTriviallyQualified"]
    trivial_minus = make_instance(p, SocialRule.consent(1, 1), "GCDI", "destructive",
                                  aminus=(1,), budget=1)
    assert validate(trivial_minus) == ["warning:AminusTriviallyDisqualified"]
    assert hard_violations(validate(trivial_plus)) == []


def test_validate_names_each_violation():
    p = ex1()
    ternary = make_profile([[1, 0], [-1, 1]], kind="ternary")
    rule = SocialRule.consent(2, 1)
    cases = [
        (make_instance(p, rule, "WAT", "constructive", aplus=(4,), budget=1), "UnknownFamily"),
        (make_instance(p, rule, "GB", "wat", aplus=(4,), budget=1), "UnknownObjective"),
        (make_instance(p, rule, "GB", "constructive", aplus=(4,), budget=1, pair_prices={(0, 1): 2}),
         "PairPricesNotAllowed"),
        (make_instance(ternary, SocialRule.ternary(1, None, 1), "GB", "constructive", aplus=(0,),
                       budget=1, r_restriction=1), "RRestrictionViolated"),
        (make_instance(p, rule, "GB", "constructive", aplus=(4,), budget=1, r_restriction=0),
         "RRestrictionViolated"),
    ]
    for inst, name in cases:
        assert name in validate(inst), name


def test_make_instance_checks_ranges():
    with pytest.raises(IndexOutOfRange):
        gcai(ex1(), SocialRule.consent(2, 1), aplus=(7,), budget=1)


def test_verdict_shape_enforced():
    with pytest.raises(PreconditionViolated):
        Verdict("YES")
    with pytest.raises(PreconditionViolated):
        Verdict("NO", witness=Solution.added(()))
    with pytest.raises(PreconditionViolated):
        Verdict("IMMUNE")
    Verdict("IMMUNE", immunity_ref="tag")


def test_check_witness_gcdi_recomputes():
    # deleting a3 leaves a5 with two disqualifiers, so t=2 still rejects a5
    inst = make_instance(ex1(), SocialRule.consent(1, 2), "GCDI", "constructive",
                         aplus=(4,), budget=1)
    assert check_witness(inst, Solution.deleted((2,))) is False


def test_check_witness_gcdi_yes():
    # a5 starts with disqualifiers {a3,a4,a5}; deleting a4 drops below t=3
    inst = make_instance(ex1(), SocialRule.consent(1, 3), "GCDI", "constructive",
                         aplus=(4,), budget=1)
    assert check_witness(inst, Solution.deleted((3,))) is True


def test_check_witness_empty_solution_on_nontrivial_instance():
    inst = gcai(ex1(), SocialRule.consent(2, 1), aplus=(4,), budget=1)
    assert validate(inst) == []
    assert check_witness(inst, Solution.added(())) is False


def test_check_witness_budget():
    p = ex1()
    inst = make_instance(p, SocialRule.consent(1, 2), "GCDI", "constructive",
                         aplus=(4,), budget=0)
    assert check_witness(inst, Solution.deleted((3,))) is False


def test_check_witness_kind_mismatch():
    inst = gcai(ex1(), SocialRule.consent(2, 1), aplus=(4,), budget=1)
    with pytest.raises(KindMismatch):
        check_witness(inst, Solution.deleted(()))


def test_check_witness_domains(monkeypatch):
    # each domain error with its message; none of them builds a derived profile
    built = []
    monkeypatch.setattr(Profile, "_derive", lambda self, changed: built.append(changed))
    p = ex1()
    ternary = make_profile([[1, 0, -1], [0, 1, 1], [-1, -1, 0]], kind="ternary")
    gcdi = make_instance(p, SocialRule.consent(1, 2), "GCDI", "constructive",
                         aplus=(4,), budget=2)
    adding = gcai(p, SocialRule.consent(2, 1), aplus=(4,), pool=(0, 1, 4), budget=2)
    gmb = make_instance(p, SocialRule.consent(2, 1), "GMB", "constructive",
                        aplus=(4,), budget=2)
    gb = make_instance(p, SocialRule.consent(2, 1), "GB", "constructive",
                       aplus=(4,), budget=2)
    gb_ternary = make_instance(ternary, SocialRule.ternary(1, None, 1), "GB", "constructive",
                               aplus=(0,), budget=3)
    free = make_instance(p, SocialRule.consent(3, 1), "GB", "constructive", aplus=(0,), budget=0)
    good = (1, -1, 1, -1, 1)
    cases = [
        (gcdi, Solution.deleted((4,)), "deleted individuals must avoid the target sets"),
        (adding, Solution.added((0,)), "added individuals must come from outside the pool"),
        (gmb, Solution.flipped({(1, 0): 1, (0, 0): 1}), "flip does not change entry (a1, a1)"),
        (gmb, Solution.flipped({(0, 3): 0}), "flips must set +1 or -1, got 0"),
        (gmb, Solution("flipped", flips=((0, 3, 1), (0, 3, 1))), "duplicate flip for pair (a1, a4)"),
        (gb, Solution.bribed({0: [1, 1]}), "replacement row for a1 has 2 cells, want 5"),
        (gb, Solution.bribed({0: good, 2: [1, -1, 0, -1, 1]}), "bad replacement cell value 0"),
        (gb_ternary, Solution.bribed({1: [1, 0, 2]}), "bad replacement cell value 2"),
        # hand-built rows whose key lies outside 0..n-1 and outside members
        (gb, Solution("bribed", members=frozenset(), rows=((-1, good),)),
         "individual index -1 out of range for n=5"),
        (gb, Solution("bribed", members=frozenset({0}), rows=((0, good), (5, (1, 1)))),
         "individual index 5 out of range for n=5"),
        # rows for a2 and a3 but no members: they would be bribed for free
        (free, Solution("bribed", members=frozenset(), rows=((1, (1,) * 5), (2, (1,) * 5))),
         "bribed members must be the individuals given replacement rows"),
    ]
    for inst, sol, message in cases:
        with pytest.raises(WitnessOutOfDomain) as err:
            check_witness(inst, sol)
        assert str(err.value) == message, sol
    assert built == []


def test_check_witness_bribery_costs():
    p = ex1()
    row = [1, -1, -1, -1, 1]
    inst = make_instance(p, SocialRule.consent(1, 2), "GB", "destructive",
                         aminus=(2,), budget=2, agent_prices={0: 3})
    assert check_witness(inst, Solution.bribed({0: row})) is False  # price 3 > 2
    cheap = make_instance(p, SocialRule.consent(1, 2), "GB", "destructive",
                          aminus=(2,), budget=3, agent_prices={0: 3})
    # a3 self-qualifies; bribery of others cannot touch that under s=1
    assert check_witness(cheap, Solution.bribed({0: row})) is False


def test_check_witness_microbribery_flip():
    # flipping phi(a2,a1) to +1 gives a1 two qualifiers under consent(2,1)
    p = ex1()
    inst = make_instance(p, SocialRule.consent(3, 1), "GMB", "constructive",
                         aplus=(0,), budget=1)
    assert check_witness(inst, Solution.flipped({(1, 0): 1})) is True
    priced = make_instance(p, SocialRule.consent(3, 1), "GMB", "constructive",
                           aplus=(0,), budget=1, pair_prices={(1, 0): 5})
    assert check_witness(priced, Solution.flipped({(1, 0): 1})) is False


def test_check_witness_gcai_add():
    # consent(2,1) on pool {a1,a3}: adding a4 gives a1 qualifiers a1,a4
    p = ex1()
    inst = gcai(p, SocialRule.consent(2, 1), aplus=(0,), pool=(0, 2), budget=1)
    assert check_witness(inst, Solution.added((3,))) is True
    assert check_witness(inst, Solution.added(())) is False


def test_check_witness_gcpi_two_stage():
    # partition evaluation feeds V = f(U) | f(N - U) into a final round
    p = ex1()
    inst = make_instance(p, SocialRule.consent(2, 1), "GCPI", "destructive",
                         aminus=(0,))
    from gidsolve import profiles as pr
    u = frozenset((0, 1))
    v = pr.eval(inst.rule, u, p) | pr.eval(inst.rule, frozenset(range(5)) - u, p)
    want = 0 not in pr.eval(inst.rule, v, p)
    assert check_witness(inst, Solution.partition(u)) is want


def test_objectives_differ():
    p = ex1()
    base = dict(aplus=(4,), aminus=(2,), budget=1)
    empty = Solution.deleted(())
    destructive = make_instance(p, SocialRule.consent(1, 3), "GCDI", "destructive", **base)
    constructive = make_instance(p, SocialRule.consent(1, 3), "GCDI", "constructive", **base)
    # a3 self-qualifies under s=1 and a5 starts disqualified, so both fail at U = {}
    assert check_witness(destructive, empty) is False
    assert check_witness(constructive, empty) is False
    # deleting a4 fixes a5 but a3 stays qualified
    assert check_witness(constructive, Solution.deleted((3,))) is True
    assert check_witness(destructive, Solution.deleted((3,))) is False
    general = make_instance(p, SocialRule.consent(1, 3), "GCDI", "general", **base)
    assert check_witness(general, Solution.deleted((3,))) is False


def test_diagnostics_cgb_shape():
    # n=4, s=3, target qualified only by itself: missing 2 of 3, three choices
    rows = [
        [1, -1, -1, -1],
        [-1, 1, -1, -1],
        [-1, -1, 1, -1],
        [-1, -1, -1, 1],
    ]
    p = make_profile(rows)
    inst = make_instance(p, SocialRule.consent(3, 1), "GB", "constructive",
                         aplus=(0,), budget=2)
    diag = diagnostics(inst)
    assert diag.s_star == 1
    assert diag.t_star is None
    assert diag.per_individual == ((0, 2, 3),)


def test_diagnostics_t_side():
    rows = [
        [-1, 1, 1],
        [1, -1, 1],
        [1, 1, -1],
    ]
    p = make_profile(rows)
    inst = make_instance(p, SocialRule.consent(1, 3), "GB", "destructive",
                         aminus=(0,), budget=1)
    diag = diagnostics(inst)
    # a1 has one disqualifier (itself), needs two more, two qualifiers to flip
    assert diag.t_star == 0
    assert diag.s_star is None
    assert diag.per_individual == ((0, 2, 2),)


def test_diagnostics_t_side_is_dual_s_side():
    # consent duality: the t* side under consent(s, t) is the s* side of the
    # negated profile under consent(t, s), aplus the original aminus
    rng = random.Random(4242)
    compared = 0
    for _ in range(400):
        n = rng.randint(1, 7)
        p = make_profile([[rng.choice((1, -1, -1)) for _ in range(n)] for _ in range(n)])
        s = 1 if rng.random() < 0.7 else rng.randint(1, n + 1)
        t = rng.randint(1, n + 2 - s)
        disapprovers = [a for a in range(n) if p.entry(a, a) == -1]
        pick = disapprovers if rng.random() < 0.8 else list(range(n))
        aminus = rng.sample(pick, rng.randint(0, min(3, len(pick))))
        aplus = [a for a in range(n) if a not in aminus and rng.random() < 0.3]
        inst = make_instance(p, SocialRule.consent(s, t), "GB", "general",
                             aplus=aplus, aminus=aminus, budget=1)
        dual = make_instance(negate(p), SocialRule.consent(t, s), "GB", "general",
                             aplus=aminus, budget=1)
        got = diagnostics(inst)
        want = diagnostics(dual)
        assert got.t_star == want.s_star
        assert tuple(x for x in got.per_individual if x[0] in inst.aminus) == want.per_individual
        compared += got.t_star is not None
    assert compared > 100


def test_diagnostics_preconditions():
    p = ex1()
    with pytest.raises(PreconditionViolated):
        diagnostics(make_instance(p, SocialRule.csr(), "GB", "constructive",
                                  aplus=(0,), budget=1))
    # t=2 blocks the s-side, s=2 blocks the t-side
    inst = make_instance(p, SocialRule.consent(2, 2), "GB", "general",
                         aplus=(0,), aminus=(1,), budget=1)
    diag = diagnostics(inst)
    assert diag.s_star is None and diag.t_star is None


def test_parse_format_roundtrip(tmp_path):
    text = (
        "gidinst v1\n"
        "problem GCAI\n"
        "objective constructive\n"
        "rule consent 2 1\n"
        "profile ex1.gid\n"
        "pool a1 a2 a3 a4\n"
        "aplus a1\n"
        "aminus\n"
        "budget 2\n"
    )
    inst = parse_instance(text, lambda ref: EX1_TEXT)
    assert inst.family == "GCAI"
    assert inst.rule == SocialRule.consent(2, 1)
    assert inst.pool == frozenset((0, 1, 2, 3))
    assert inst.aplus == frozenset((0,))
    assert inst.aminus == frozenset()
    assert inst.budget == 2
    assert format_instance(inst, "ex1.gid") == text


def test_parse_prices_and_r():
    text = (
        "gidinst v1\n"
        "problem GMB\n"
        "objective general\n"
        "rule consent 2 1\n"
        "profile p.gid\n"
        "aplus a1\n"
        "aminus a2\n"
        "budget 4\n"
        "pairprice a1 a2 3\n"
        "pairprice a2 a1 2\n"
    )
    inst = parse_instance(text, lambda ref: EX1_TEXT)
    assert inst.pair_price(0, 1) == 3
    assert inst.pair_price(1, 0) == 2
    assert inst.pair_price(2, 2) == 1
    assert format_instance(inst, "p.gid") == text
    r_text = (
        "gidinst v1\n"
        "problem GB\n"
        "objective constructive\n"
        "rule consent 2 1\n"
        "profile p.gid\n"
        "aplus a1\n"
        "aminus\n"
        "budget 1\n"
        "agentprice a3 2\n"
        "r 3\n"
    )
    inst2 = parse_instance(r_text, lambda ref: EX1_TEXT)
    assert inst2.r_restriction == 3
    assert inst2.agent_price(2) == 2
    assert format_instance(inst2, "p.gid") == r_text


def test_repeated_price_keys_round_trip():
    # a key listed twice keeps the first price after sorting, written once
    p = make_profile([[1, 1], [1, 1]])
    gb = make_instance(p, SocialRule.consent(1, 1), "GB", "destructive", aminus=(0,), budget=1,
                       agent_prices=[(0, 5), (1, 2), (0, 1)])
    gmb = make_instance(p, SocialRule.consent(1, 1), "GMB", "destructive", aminus=(0,), budget=1,
                        pair_prices=[((0, 1), 4), ((1, 0), 2), ((0, 1), 3)])
    assert gb.agent_prices == ((0, 1), (1, 2))
    assert gmb.pair_prices == (((0, 1), 3), ((1, 0), 2))
    text = format_profile(p)
    for inst in (gb, gmb):
        again = parse_instance(format_instance(inst, "p.gid"), lambda ref: text)
        assert again == inst
        assert [again.agent_price(a) for a in range(2)] == [inst.agent_price(a) for a in range(2)]
        assert [again.pair_price(a, b) for a in range(2) for b in range(2)] == [
            inst.pair_price(a, b) for a in range(2) for b in range(2)]
    assert gb.agent_price(0) == 1 and gmb.pair_price(0, 1) == 3


def test_parse_gcpi_has_no_budget():
    text = (
        "gidinst v1\n"
        "problem GCPI\n"
        "objective exact\n"
        "rule consent 2 2\n"
        "profile p.gid\n"
        "aplus a1 a2\n"
        "aminus a3 a4 a5\n"
    )
    inst = parse_instance(text, lambda ref: EX1_TEXT)
    assert inst.budget is None
    assert format_instance(inst, "p.gid") == text


def test_parse_rejects_malformed():
    good_resolver = lambda ref: EX1_TEXT
    bad = [
        "gidinst v2\nproblem GCAI\n",
        "gidinst v1\nproblem WAT\nobjective constructive\nrule csr\nprofile p\naplus\naminus\nbudget 1\n",
        "gidinst v1\nobjective constructive\nrule csr\nprofile p\naplus\naminus\nbudget 1\n",
        "gidinst v1\nproblem GB\nobjective constructive\nrule csr\nprofile p\naplus zz\naminus\nbudget 1\n",
        "gidinst v1\nproblem GB\nobjective constructive\nrule csr\nprofile p\naplus\naminus\nbudget 1\nwat 3\n",
        "gidinst v1\nproblem GB\nobjective constructive\nrule csr\nprofile p\naplus\naminus\nbudget x\n",
        "gidinst v1\nproblem GB\nobjective constructive\nrule csr\nprofile p\nprofile p\naplus\naminus\nbudget 1\n",
        "gidinst v1\nproblem GB\nobjective constructive\nrule csr\nprofile p\naplus\naminus\nbudget 1\nagentprice a1 2\nagentprice a1 3\n",
    ]
    for text in bad:
        with pytest.raises(ParseError):
            parse_instance(text, good_resolver)


def test_parse_reports_bad_lines():
    head = "gidinst v1\nproblem GB\nobjective constructive\nrule csr\n"
    cases = [
        (head + "profile\naplus\naminus\nbudget 1\n", "bad profile line"),
        (head + "profile p q\naplus\naminus\nbudget 1\n", "bad profile line"),
        (head + "profile p\naplus\naminus\nbudget 1 2\n", "bad budget line"),
        (head + "profile p\naplus\naminus\nbudget 1\nr 1 2\n", "bad r line"),
        (head + "profile p\naplus\naminus\nbudget 1\nagentprice a1\n", "bad agentprice line"),
        (head + "profile p\naplus\naminus\nbudget 1\npairprice a1 a2\n", "bad pairprice line"),
    ]
    for text, message in cases:
        with pytest.raises(ParseError) as err:
            parse_instance(text, lambda ref: EX1_TEXT)
        assert str(err.value) == message, text


# -- check_witness against a frozenset reference ----------------------------

def _reference_check(inst, sol):
    """The attack definitions on frozensets and a cell grid (in-domain witnesses)."""
    p = inst.profile
    everyone = frozenset(range(p.n))
    grid = p.rows()
    agent_price = dict(inst.agent_prices)
    pair_price = dict(inst.pair_prices)
    rule = inst.rule
    if sol.kind == "added":
        if len(sol.members) > inst.budget:
            return False
        final = reference_rounds(rule, inst.pool | sol.members, grid)[-1]
    elif sol.kind == "deleted":
        if len(sol.members) > inst.budget:
            return False
        final = reference_rounds(rule, everyone - sol.members, grid)[-1]
    elif sol.kind == "partition":
        winners = (reference_rounds(rule, sol.members, grid)[-1]
                   | reference_rounds(rule, everyone - sol.members, grid)[-1])
        final = reference_rounds(rule, winners, grid)[-1]
    elif sol.kind == "bribed":
        if sum(agent_price.get(a, 1) for a in sol.members) > inst.budget:
            return False
        for a, cells in sol.rows:
            grid[a] = list(cells)
        final = reference_rounds(rule, everyone, grid)[-1]
    else:
        if sum(pair_price.get((a, b), 1) for a, b, _v in sol.flips) > inst.budget:
            return False
        for a, b, v in sol.flips:
            grid[a][b] = v
        final = reference_rounds(rule, everyone, grid)[-1]
    constructive_ok = inst.aplus <= final
    destructive_ok = not (inst.aminus & final)
    if inst.objective == "constructive":
        return constructive_ok
    if inst.objective == "destructive":
        return destructive_ok
    return constructive_ok and destructive_ok


def _random_case(rng, p, rule, family, objective):
    """A random instance of the shape and one in-domain witness for it; the
    budget may be too small for the witness."""
    n = p.n
    some = lambda domain: frozenset(x for x in domain if rng.random() < 0.5)
    aplus = some(range(n))
    aminus = some(x for x in range(n) if x not in aplus)
    pool = some(range(n)) if family == "GCAI" else None
    budget = None if family == "GCPI" else rng.randint(0, n + 1)
    cells = (1, -1, 0) if p.kind == "ternary" else (1, -1)
    agent_prices = {a: rng.randint(1, 3) for a in some(range(n))} if family == "GB" else None
    pair_prices = ({(a, b): rng.randint(1, 3) for a in range(n) for b in range(n) if rng.random() < 0.3}
                   if family == "GMB" else None)
    inst = make_instance(p, rule, family, objective, aplus=aplus, aminus=aminus, pool=pool,
                         budget=budget, agent_prices=agent_prices, pair_prices=pair_prices)
    if family == "GCAI":
        sol = Solution.added(some(x for x in range(n) if x not in pool))
    elif family == "GCDI":
        sol = Solution.deleted(some(x for x in range(n) if x not in aplus | aminus))
    elif family == "GCPI":
        sol = Solution.partition(some(range(n)))
    elif family == "GB":
        sol = Solution.bribed({a: [rng.choice(cells) for _ in range(n)] for a in some(range(n))})
    else:
        flips = {}
        for a, b in itertools.product(range(n), repeat=2):
            if rng.random() < 0.25:
                flips[(a, b)] = rng.choice([v for v in (1, -1) if v != p.entry(a, b)])
        sol = Solution.flipped(flips)
    return inst, sol


FAMILY_ORDER = ("GCAI", "GCDI", "GCPI", "GB", "GMB")


def test_check_witness_matches_reference_exhaustively():
    # every binary profile at n <= 3; each family x objective once per
    # profile, the rule cycling through every valid consent (s, t), csr, lsr
    # and ternary, with seeded targets and witness
    rng = random.Random(8)
    step = 0
    for n in range(4):
        rules = valid_rules(n, "binary")
        full = (1 << n) - 1
        for value in range(2 ** (n * n)):
            p = Profile(n=n, kind="binary", names=default_names(n),
                        row_pos=tuple((value >> (a * n)) & full for a in range(n)),
                        row_known=(full,) * n)
            for family, objective in itertools.product(FAMILY_ORDER, OBJECTIVES):
                rule = rules[step % len(rules)]
                step += 1
                inst, sol = _random_case(rng, p, rule, family, objective)
                assert check_witness(inst, sol) is _reference_check(inst, sol), (inst, sol)


def test_check_witness_matches_reference_random():
    rng = random.Random(88)
    for _ in range(600):
        n = rng.randint(1, 8)
        kind = rng.choice(("binary", "binary", "ternary"))
        cells = (1, -1, 0) if kind == "ternary" else (1, -1)
        p = make_profile([[rng.choice(cells) for _ in range(n)] for _ in range(n)], kind=kind)
        rule = rng.choice(valid_rules(n, kind))
        inst, sol = _random_case(rng, p, rule, rng.choice(FAMILY_ORDER), rng.choice(OBJECTIVES))
        assert check_witness(inst, sol) is _reference_check(inst, sol), (inst, sol)


def test_check_witness_error_order():
    # KindMismatch, then the witness domain, then the budget, and only then
    # rule applicability: an over-budget witness is False on any rule
    binary = ex1()
    ternary = make_profile([[1, 0, -1], [0, 1, 1], [-1, -1, 0]], kind="ternary")
    too_big = SocialRule.consent(5, 3)  # s + t > n + 2 on ex1
    on_ternary = SocialRule.consent(1, 1)
    cases = [
        (make_instance(binary, too_big, "GCDI", "constructive", aplus=(4,), budget=0),
         Solution.deleted((0,)), False),
        (make_instance(binary, too_big, "GCDI", "constructive", aplus=(4,), budget=1),
         Solution.deleted((0,)), QuotaConstraintViolated),
        (make_instance(binary, too_big, "GCDI", "constructive", aplus=(4,), budget=0),
         Solution.deleted((4,)), WitnessOutOfDomain),
        (make_instance(binary, too_big, "GCDI", "constructive", aplus=(4,), budget=0),
         Solution.added((7,)), KindMismatch),
        (make_instance(ternary, on_ternary, "GCAI", "constructive", aplus=(0,), pool=(0,), budget=0),
         Solution.added((1,)), False),
        (make_instance(ternary, on_ternary, "GCAI", "constructive", aplus=(0,), pool=(0,), budget=1),
         Solution.added((1,)), RuleNotApplicable),
        (make_instance(ternary, on_ternary, "GCAI", "constructive", aplus=(0,), pool=(0,), budget=0),
         Solution.added((0,)), WitnessOutOfDomain),
        (make_instance(ternary, on_ternary, "GCPI", "constructive", aplus=(0,)),
         Solution.partition((0,)), RuleNotApplicable),
        (make_instance(ternary, on_ternary, "GCPI", "constructive", aplus=(0,)),
         Solution.partition((3,)), WitnessOutOfDomain),
        (make_instance(binary, too_big, "GCPI", "constructive", aplus=(0,)),
         Solution.partition((0, 1)), QuotaConstraintViolated),
        (make_instance(ternary, on_ternary, "GB", "constructive", aplus=(0,), budget=2,
                       agent_prices={1: 3}), Solution.bribed({1: [1, 0, 1]}), False),
        (make_instance(ternary, on_ternary, "GB", "constructive", aplus=(0,), budget=3,
                       agent_prices={1: 3}), Solution.bribed({1: [1, 0, 1]}), RuleNotApplicable),
        (make_instance(ternary, on_ternary, "GB", "constructive", aplus=(0,), budget=0),
         Solution.bribed({1: [1, 1]}), WitnessOutOfDomain),
        (make_instance(ternary, on_ternary, "GB", "constructive", aplus=(0,), budget=0),
         Solution.deleted((1,)), KindMismatch),
        (make_instance(ternary, on_ternary, "GMB", "constructive", aplus=(0,), budget=0),
         Solution.flipped({(0, 1): 1}), False),
        (make_instance(ternary, on_ternary, "GMB", "constructive", aplus=(0,), budget=1),
         Solution.flipped({(0, 1): 1}), RuleNotApplicable),
        (make_instance(ternary, on_ternary, "GMB", "constructive", aplus=(0,), budget=0),
         Solution.flipped({(0, 0): 1}), WitnessOutOfDomain),
        (make_instance(binary, too_big, "GMB", "constructive", aplus=(0,), budget=1,
                       pair_prices={(1, 0): 2}), Solution.flipped({(1, 0): 1}), False),
    ]
    for inst, sol, want in cases:
        if isinstance(want, bool):
            assert check_witness(inst, sol) is want, (inst.family, sol)
        else:
            with pytest.raises(want):
                check_witness(inst, sol)


# -- price lookups -----------------------------------------------------------

def _scan_price(prices, key):
    for k, price in prices:
        if k == key:
            return price
    return 1


def test_costs_match_linear_scan():
    rng = random.Random(12)
    for _ in range(100):
        n = rng.randint(1, 6)
        p = gen_random_profile(n, seed=rng.randrange(1 << 30))
        agents = {a: rng.randint(1, 5) for a in range(n) if rng.random() < 0.6}
        pairs = {(a, b): rng.randint(1, 5) for a in range(n) for b in range(n) if rng.random() < 0.4}
        gb = make_instance(p, SocialRule.csr(), "GB", "constructive", aplus=(0,), budget=2,
                           agent_prices=agents)
        gmb = make_instance(p, SocialRule.csr(), "GMB", "constructive", aplus=(0,), budget=2,
                            pair_prices=pairs)
        repriced = dataclasses.replace(gb, agent_prices=tuple((a, 7) for a in range(n) if rng.random() < 0.5))
        for inst in (gb, gmb, repriced, dataclasses.replace(gmb, pair_prices=()),
                     dataclasses.replace(gb, budget=5)):
            for size in range(n + 1):
                some = rng.sample(range(n), size)
                assert inst.cost_of_agents(some) == sum(_scan_price(inst.agent_prices, a) for a in some)
                some_pairs = rng.sample([(a, b) for a in range(n) for b in range(n)], size)
                assert inst.cost_of_pairs(some_pairs) == sum(
                    _scan_price(inst.pair_prices, pair) for pair in some_pairs)
                for a, b in some_pairs:
                    assert inst.agent_price(a) == _scan_price(inst.agent_prices, a)
                    assert inst.pair_price(a, b) == _scan_price(inst.pair_prices, (a, b))
    # a key listed twice keeps its first price, as the scan does
    twice = make_instance(ex1(), SocialRule.csr(), "GB", "constructive", aplus=(0,), budget=2,
                          agent_prices=[(1, 3), (1, 2)])
    assert twice.agent_price(1) == 2 == _scan_price(twice.agent_prices, 1)
    assert twice.cost_of_agents((0, 1)) == 3
