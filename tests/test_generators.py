"""Generators: random profiles, cover families, and planted reductions."""

import dataclasses
import hashlib
import random

import pytest

from gidsolve.errors import InvalidR, PreconditionViolated
from gidsolve.generators import (
    Rx3cInstance,
    augment_to_exact_partition,
    augment_to_general,
    gen_planted_cgcdi,
    gen_random_profile,
    gen_random_r_profile,
    gen_rx3c,
    gen_rx3c_no,
    has_exact_cover,
    random_instance,
    rx3c_to_cgb,
    rx3c_to_cgcai_r,
)
from gidsolve.instances import (
    FAMILIES,
    OBJECTIVES,
    diagnostics,
    format_instance,
    hard_violations,
    make_instance,
    validate,
)
from gidsolve.oracle import solve_bribery_brute, solve_control_brute
from gidsolve.profiles import SocialRule, default_names, eval, format_profile, make_profile


# -------------------------------------------------------- random profiles


def test_random_profile_deterministic():
    a = gen_random_profile(5, "binary", 0, seed=1)
    b = gen_random_profile(5, "binary", 0, seed=1)
    assert format_profile(a) == format_profile(b)
    assert format_profile(a) != format_profile(gen_random_profile(5, "binary", 0, seed=2))


def test_random_profile_kinds_and_edges():
    assert gen_random_profile(0, "binary", 0, seed=3).n == 0
    partial = gen_random_profile(6, "partial", 0.5, seed=4)
    assert partial.kind == "partial"
    ternary = gen_random_profile(6, "ternary", 0.5, seed=4)
    assert ternary.kind == "ternary"
    with pytest.raises(PreconditionViolated):
        gen_random_profile(-1, "binary", 0, seed=0)
    with pytest.raises(PreconditionViolated):
        gen_random_profile(3, "binary", 0.5, seed=0)
    with pytest.raises(PreconditionViolated):
        gen_random_profile(3, "partial", 1.5, seed=0)


def test_random_profile_star_density():
    # mean unknown count over many seeds tracks the binomial mean
    total = 0
    runs = 1000
    for seed in range(runs):
        profile = gen_random_profile(6, "partial", 0.2, seed=seed)
        total += len(profile.unknown_cells())
    mean = total / runs
    # Binomial(36, 0.2): mean 7.2, sd 2.4; allow 3 sigma of the run mean
    assert abs(mean - 7.2) < 3 * 2.4 / runs**0.5


def test_random_r_profile():
    profile = gen_random_r_profile(5, 2, seed=9)
    for a in range(5):
        assert sum(1 for v in profile.row(a) if v == 1) == 2
    allplus = gen_random_r_profile(4, 4, seed=0)
    assert all(v == 1 for row in allplus.rows() for v in row)
    one = gen_random_r_profile(5, 1, seed=2)
    assert sum(1 for row in one.rows() for v in row if v == 1) == 5
    assert format_profile(gen_random_r_profile(5, 2, seed=9)) == format_profile(profile)
    with pytest.raises(InvalidR):
        gen_random_r_profile(5, 0, seed=0)
    with pytest.raises(InvalidR):
        gen_random_r_profile(5, 6, seed=0)


def test_random_instance_draws_are_pinned():
    """Same seeds draw the same instances: xval's reports rest on these bytes."""
    rules = (SocialRule.consent(2, 1), SocialRule.csr(), SocialRule.lsr(), SocialRule.ternary(2, None, 2))
    rng = random.Random(17)
    digest = hashlib.sha256()
    priced = set()
    for family in FAMILIES:
        for objective in OBJECTIVES:
            for rule in rules:
                for n in (2, 5):
                    inst = random_instance(rng, family, objective, rule, n)
                    digest.update(format_profile(inst.profile).encode())
                    digest.update(format_instance(inst, "p.gid").encode())
                    if inst.agent_prices or inst.pair_prices:
                        priced.add(family)
    assert priced == {"GB", "GMB"}
    assert digest.hexdigest() == "fe8c3f8ce11433414c957ab2f2518b69d1a4c835a15ce154bbbb794468d0ed21"


# ---------------------------------------------------------- cover families


def test_rx3c_validation():
    triple = frozenset({0, 1, 2})
    good = Rx3cInstance(1, (triple, triple, triple), (0,))
    assert has_exact_cover(good)
    with pytest.raises(PreconditionViolated):
        Rx3cInstance(1, (triple, triple), (0,))
    with pytest.raises(PreconditionViolated):
        Rx3cInstance(1, (triple, triple, frozenset({0, 1, 3})), None)
    with pytest.raises(PreconditionViolated):
        Rx3cInstance(1, (triple, triple, triple), (0, 1))


def test_gen_rx3c_planted():
    for m in (1, 2, 3):
        inst = gen_rx3c(m, seed=7)
        assert len(inst.triples) == 3 * m
        assert inst.planted_cover is not None
        union = set()
        for idx in inst.planted_cover:
            assert not union & inst.triples[idx]
            union |= inst.triples[idx]
        assert union == set(inst.elements)
    a = gen_rx3c(2, seed=11)
    assert a == gen_rx3c(2, seed=11)
    assert a != gen_rx3c(2, seed=12)


def test_gen_rx3c_no():
    inst = gen_rx3c_no(2, seed=7)
    assert inst.planted_cover is None
    assert not has_exact_cover(inst)
    with pytest.raises(PreconditionViolated):
        gen_rx3c_no(1, seed=0)


# ------------------------------------------------------------ cgb reduction


def test_cgb_structure():
    inst = rx3c_to_cgb(gen_rx3c(1, seed=3))
    assert validate(inst) == []
    assert inst.rule.s == 4 and inst.rule.t == 1
    assert inst.budget == 1
    assert inst.aplus == frozenset(range(3))
    # each element column misses exactly one qualification
    for x in range(3):
        quals = sum(1 for b in range(6) if inst.profile.entry(b, x) == 1)
        assert quals == inst.rule.s - 1


def test_cgb_planted_answers():
    yes1 = solve_bribery_brute(rx3c_to_cgb(gen_rx3c(1, seed=3)))
    assert yes1.answer == "YES"
    assert len(yes1.witness.members) == 1
    assert solve_bribery_brute(rx3c_to_cgb(gen_rx3c(2, seed=3))).answer == "YES"
    assert solve_bribery_brute(rx3c_to_cgb(gen_rx3c_no(2, seed=3))).answer == "NO"


def test_cgb_diagnostics_and_override():
    assert diagnostics(rx3c_to_cgb(gen_rx3c(1, seed=5))).s_star == 2
    assert diagnostics(rx3c_to_cgb(gen_rx3c(2, seed=5))).s_star == 2
    clipped = dataclasses.replace(rx3c_to_cgb(gen_rx3c(1, seed=5)), rule=SocialRule.consent(2, 1))
    assert clipped.rule.s == 2
    # the clipped quota leaves the targets trivially qualified, a warning only
    assert hard_violations(validate(clipped)) == []


# -------------------------------------------------------- cgcai reductions


@pytest.mark.parametrize("variant,r", [("consent", 3), ("lsr", 4)])
def test_cgcai_r_structure(variant, r):
    inst = rx3c_to_cgcai_r(gen_rx3c(1, seed=5), variant)
    assert validate(inst) == []
    assert inst.r_restriction == r
    assert inst.budget == 1
    assert inst.pool == frozenset(range(3)) | frozenset(range(6, 6 + r))
    for row in inst.profile.rows():
        assert sum(1 for v in row if v == 1) == r


@pytest.mark.parametrize("variant", ["consent", "lsr"])
def test_cgcai_r_planted_answers(variant):
    src = gen_rx3c(1, seed=5)
    assert solve_control_brute(rx3c_to_cgcai_r(src, variant)).answer == "YES"
    scrubbed = rx3c_to_cgcai_r(src, variant, scrub_element=0)
    assert solve_control_brute(scrubbed).answer == "NO"
    for row in scrubbed.profile.rows():
        assert sum(1 for v in row if v == 1) == (3 if variant == "consent" else 4)


def test_cgcai_lsr_targets_start_disqualified():
    inst = rx3c_to_cgcai_r(gen_rx3c(1, seed=5), "lsr")
    before = eval(SocialRule.lsr(), inst.pool, inst.profile)
    assert not before & frozenset(range(3))


def test_cgcai_r_guards():
    src = gen_rx3c(1, seed=5)
    with pytest.raises(PreconditionViolated):
        rx3c_to_cgcai_r(src, "csr")
    with pytest.raises(PreconditionViolated):
        rx3c_to_cgcai_r(src, "consent", t=0)
    with pytest.raises(PreconditionViolated):
        rx3c_to_cgcai_r(src, "consent", scrub_element=99)


# ------------------------------------------------------------ cgcdi plant


def test_planted_cgcdi():
    inst = gen_planted_cgcdi()
    assert validate(inst) == []
    verdict = solve_control_brute(inst)
    assert verdict.answer == "YES"
    assert verdict.witness.members == frozenset({2, 3, 4})
    assert solve_control_brute(dataclasses.replace(inst, budget=2)).answer == "NO"
    assert solve_control_brute(gen_planted_cgcdi(perturbed=True)).answer == "NO"


# --------------------------------------------------------- augment gadgets


def test_augment_gcai():
    src = rx3c_to_cgcai_r(gen_rx3c(1, seed=5), "consent", t=2)
    assert solve_control_brute(src).answer == "YES"
    aug = augment_to_general(src, "gcai")
    assert validate(aug) == []
    assert aug.objective == "general"
    assert aug.budget == src.budget + 1
    assert aug.r_restriction is None
    # the disqualification target starts socially qualified
    n = src.profile.n
    start = eval(aug.rule, aug.pool, aug.profile)
    assert n in start and aug.aminus == frozenset({n})
    assert solve_control_brute(aug).answer == "YES"
    assert solve_control_brute(dataclasses.replace(aug, budget=src.budget)).answer == "NO"
    no_src = rx3c_to_cgcai_r(gen_rx3c(1, seed=5), "consent", t=2, scrub_element=0)
    assert solve_control_brute(augment_to_general(no_src, "gcai")).answer == "NO"


def test_augment_gcdi():
    src = gen_planted_cgcdi()
    aug = augment_to_general(src, "gcdi")
    assert validate(aug) == []
    assert aug.objective == "general"
    assert aug.budget == src.budget + 1
    n = src.profile.n
    start = eval(aug.rule, None, aug.profile)
    assert n in start and aug.aminus == frozenset({n})
    assert solve_control_brute(aug).answer == "YES"
    assert solve_control_brute(dataclasses.replace(aug, budget=src.budget)).answer == "NO"
    assert solve_control_brute(
        augment_to_general(gen_planted_cgcdi(perturbed=True), "gcdi")
    ).answer == "NO"
    # the lifted profile names everyone afresh, custom source names included
    named = dataclasses.replace(src, profile=make_profile(src.profile.rows(), names="vwxyz"))
    assert augment_to_general(named, "gcdi").profile == aug.profile
    assert aug.profile.names == default_names(n + 2)


def test_augment_guards():
    src_gcai = rx3c_to_cgcai_r(gen_rx3c(1, seed=5), "consent")
    with pytest.raises(PreconditionViolated):
        augment_to_general(src_gcai, "gcai")  # t=1
    with pytest.raises(PreconditionViolated):
        augment_to_general(src_gcai, "gcdi")  # family mismatch
    with pytest.raises(PreconditionViolated):
        augment_to_general(gen_planted_cgcdi(), "nope")
    lsr_src = rx3c_to_cgcai_r(gen_rx3c(1, seed=5), "lsr")
    with pytest.raises(PreconditionViolated):
        augment_to_general(lsr_src, "gcai")  # not a consent rule
    # make_instance accepts a consent rule on a partial or ternary profile;
    # the gadgets refuse it
    for kind in ("partial", "ternary"):
        profile = make_profile([[-1, 0], [1, -1]], kind=kind)
        for family, lift in (("GCDI", lambda inst: augment_to_general(inst, "gcdi")),
                             ("GCPI", augment_to_exact_partition)):
            src = make_instance(profile, SocialRule.consent(2, 1), family, "constructive",
                                aplus=(0,), budget=1)
            with pytest.raises(PreconditionViolated, match="the gadgets lift binary profiles, got a %s one" % kind):
                lift(src)


def test_augment_gcai_needs_a_pool():
    # make_instance accepts a GCAI source without a pool
    src = make_instance(make_profile([[1, -1], [1, 1]], kind="binary"), SocialRule.consent(2, 2), "GCAI",
                        "constructive", aplus=(0,), budget=1)
    assert src.pool is None
    with pytest.raises(PreconditionViolated, match="^GCAI instance needs a pool$"):
        augment_to_general(src, "gcai")
    lifted = augment_to_general(dataclasses.replace(src, pool=(0,)), "gcai")
    assert lifted.pool == frozenset({0, 2})


def _partition_source(yes: bool):
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
    return make_instance(
        make_profile(rows, kind="binary"),
        SocialRule.consent(2, 2),
        "GCPI",
        "constructive",
        aplus=(0,),
    )


def test_augment_exact_partition():
    for yes in (True, False):
        aug = augment_to_exact_partition(_partition_source(yes))
        assert validate(aug) == []
        assert aug.objective == "exact"
        assert aug.aplus | aug.aminus == frozenset(range(aug.profile.n))
        expected = "YES" if yes else "NO"
        assert solve_control_brute(aug).answer == expected


def test_augment_exact_partition_guards():
    with pytest.raises(PreconditionViolated):
        augment_to_exact_partition(gen_planted_cgcdi())
    rows = [[1, -1], [-1, -1]]
    bad = make_instance(
        make_profile(rows, kind="binary"),
        SocialRule.consent(2, 2),
        "GCPI",
        "constructive",
        aplus=(1,),
    )
    with pytest.raises(PreconditionViolated):
        augment_to_exact_partition(bad)  # a self-qualifying original


def test_generator_outputs_are_deterministic_bytes():
    a = rx3c_to_cgb(gen_rx3c(2, seed=21))
    b = rx3c_to_cgb(gen_rx3c(2, seed=21))
    assert format_instance(a, "p.gid") == format_instance(b, "p.gid")
    assert format_profile(a.profile) == format_profile(b.profile)
    c = rx3c_to_cgcai_r(gen_rx3c(1, seed=8), "lsr")
    d = rx3c_to_cgcai_r(gen_rx3c(1, seed=8), "lsr")
    assert format_instance(c, "p.gid") == format_instance(d, "p.gid")
    assert format_profile(c.profile) == format_profile(d.profile)


def _self_disqualifying_source(family: str, seed: int):
    """Random consent instance whose originals all disqualify themselves."""
    rng = random.Random(seed)
    n = rng.randrange(2, 7)
    rows = [[-1 if a == b else rng.choice((1, -1)) for b in range(n)] for a in range(n)]
    s = rng.randrange(2, n + 1)
    t = rng.randrange(1, n + 3 - s)
    aplus = rng.sample(range(n), rng.randrange(1, n + 1))
    budget = rng.randrange(0, n + 1) if family == "GCDI" else None
    return make_instance(make_profile(rows, kind="binary"), SocialRule.consent(s, t),
                         family, "constructive", aplus=aplus, budget=budget)


def test_gadget_lifts_pin_their_bytes():
    """The three dummy-gadget lifts keep their exact output over a seeded set."""
    lifts = []
    for m in (1, 2):
        for t in (2, 3):
            for scrub in (None, 0):
                for seed in (5, 17):
                    src = rx3c_to_cgcai_r(gen_rx3c(m, seed=seed), "consent", t=t,
                                          scrub_element=scrub)
                    lifts.append(augment_to_general(src, "gcai"))
    for perturbed in (False, True):
        lifts.append(augment_to_general(gen_planted_cgcdi(perturbed), "gcdi"))
    for seed in range(40):
        lifts.append(augment_to_exact_partition(_self_disqualifying_source("GCPI", seed)))
        lifts.append(augment_to_general(_self_disqualifying_source("GCDI", seed), "gcdi"))
    digest = hashlib.sha256()
    for lift in lifts:
        digest.update(format_instance(lift, "p.gid").encode())
        digest.update(format_profile(lift.profile).encode())
    assert len(lifts) == 98
    assert digest.hexdigest() == "874109b140a26de60061c1101d1fd489fb3040fefe60383c192cb8b7fb41ab35"
