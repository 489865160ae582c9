"""Attack instances, witness checking, validity checks, and quota diagnostics.

One instance record covers every problem family: group control by adding
(GCAI), deleting (GCDI), or partitioning (GCPI) individuals, group bribery
(GB), and group microbribery (GMB), each under a constructive, destructive,
exact, or general objective.  Prices default to 1 when no price map is given.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    KindMismatch,
    ParseError,
    PreconditionViolated,
    QuotaConstraintViolated,
    RuleNotApplicable,
    WitnessOutOfDomain,
)
from . import profiles
from .profiles import (
    Profile,
    SocialRule,
    _index_mask,
    _parse_int,
    ensure_applicable,
    eval_mask,
    full_mask,
    mask_of,
    parse_rule_tokens,
)

FAMILIES = ("GCAI", "GCDI", "GCPI", "GB", "GMB")
OBJECTIVES = ("constructive", "destructive", "exact", "general")

# solution kind expected per family
FAMILY_KIND = {
    "GCAI": "added",
    "GCDI": "deleted",
    "GCPI": "partition",
    "GB": "bribed",
    "GMB": "flipped",
}


@dataclass(frozen=True)
class AttackInstance:
    profile: Profile
    rule: SocialRule
    family: str
    objective: str
    aplus: frozenset
    aminus: frozenset
    pool: frozenset | None = None
    budget: int | None = None
    agent_prices: tuple = ()
    pair_prices: tuple = ()
    r_restriction: int | None = None
    # price lookups built from agent_prices/pair_prices by __post_init__
    # (dataclasses.replace rebuilds them); a key listed twice keeps its first
    # price, as a scan of the tuple would
    _agent_price_of: dict = field(init=False, compare=False, repr=False)
    _pair_price_of: dict = field(init=False, compare=False, repr=False)
    # effective_targets as (constructive, destructive) masks, built by
    # __post_init__ for the judge's target test
    _target_masks: tuple[int, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_agent_price_of", dict(reversed(self.agent_prices)))
        object.__setattr__(self, "_pair_price_of", dict(reversed(self.pair_prices)))
        plus, minus = effective_targets(self)
        object.__setattr__(self, "_target_masks", (mask_of(plus), mask_of(minus)))

    def agent_price(self, a: int) -> int:
        return self._agent_price_of.get(a, 1)

    def pair_price(self, a: int, b: int) -> int:
        return self._pair_price_of.get((a, b), 1)

    def cost_of_agents(self, agents) -> int:
        price_of = self._agent_price_of
        return sum(price_of.get(a, 1) for a in agents)

    def cost_of_pairs(self, pairs) -> int:
        price_of = self._pair_price_of
        return sum(price_of.get((a, b), 1) for a, b in pairs)

    def targets(self) -> frozenset:
        return self.aplus | self.aminus


def make_instance(
    profile: Profile,
    rule: SocialRule,
    family: str,
    objective: str,
    aplus=(),
    aminus=(),
    pool=None,
    budget: int | None = None,
    agent_prices=None,
    pair_prices=None,
    r_restriction: int | None = None,
) -> AttackInstance:
    """Normalize and range-check the pieces of an attack instance.

    Semantic invariants (disjointness, coverage, nontriviality, ...) are the
    business of validate(); only index ranges are hard errors here.
    """
    n = profile.n

    def check_set(indices):
        out = frozenset(indices)
        _index_mask(out, n)
        return out

    aplus = check_set(aplus)
    aminus = check_set(aminus)
    pool = None if pool is None else check_set(pool)
    # sorted, one entry per key: a key listed twice keeps the first price
    # after the sort, the one every lookup reads, so format_instance writes
    # each key once
    ap = {}
    if agent_prices:
        for a, price in sorted(agent_prices.items() if hasattr(agent_prices, "items") else agent_prices):
            check_set((a,))
            ap.setdefault(a, price)
    pp = {}
    if pair_prices:
        for (a, b), price in sorted(pair_prices.items() if hasattr(pair_prices, "items") else pair_prices):
            check_set((a, b))
            pp.setdefault((a, b), price)
    return AttackInstance(
        profile=profile,
        rule=rule,
        family=family,
        objective=objective,
        aplus=aplus,
        aminus=aminus,
        pool=pool,
        budget=budget,
        agent_prices=tuple(ap.items()),
        pair_prices=tuple(pp.items()),
        r_restriction=r_restriction,
    )


@dataclass(frozen=True)
class Solution:
    """Kind-tagged witness for an attack instance.

    members carries U for the set-valued kinds (added, deleted, partition,
    bribed); rows carries the full replacement rows for bribed individuals;
    flips carries (evaluator, evaluated, new value) triples for microbribery.
    """

    kind: str
    members: frozenset = frozenset()
    rows: tuple = ()
    flips: tuple = ()

    @staticmethod
    def added(members) -> "Solution":
        return Solution("added", members=frozenset(members))

    @staticmethod
    def deleted(members) -> "Solution":
        return Solution("deleted", members=frozenset(members))

    @staticmethod
    def partition(members) -> "Solution":
        return Solution("partition", members=frozenset(members))

    @staticmethod
    def bribed(row_map) -> "Solution":
        rows = tuple(sorted((a, tuple(cells)) for a, cells in row_map.items()))
        return Solution("bribed", members=frozenset(a for a, _ in rows), rows=rows)

    @staticmethod
    def flipped(flip_map) -> "Solution":
        flips = tuple(sorted((a, b, v) for (a, b), v in flip_map.items()))
        return Solution("flipped", flips=flips)

    def flip_pairs(self):
        return [(a, b) for a, b, _v in self.flips]


@dataclass(frozen=True)
class Verdict:
    answer: str  # YES | NO | IMMUNE
    witness: Solution | None = None
    immunity_ref: str | None = None

    def __post_init__(self):
        if (self.answer == "YES") != (self.witness is not None):
            raise PreconditionViolated("YES verdicts carry a witness, others do not")
        if self.answer == "IMMUNE" and self.immunity_ref is None:
            raise PreconditionViolated("IMMUNE verdicts carry an immunity reference")


NO = "NO"

NO_VERDICT = Verdict(NO)


def effective_targets(instance: AttackInstance) -> tuple[frozenset, frozenset]:
    """Target sets after dropping the side the objective ignores."""
    plus = instance.aplus if instance.objective != "destructive" else frozenset()
    minus = instance.aminus if instance.objective != "constructive" else frozenset()
    return plus, minus


def start_subset(instance: AttackInstance) -> frozenset:
    """The starting population: the pool for adding problems, N otherwise."""
    if instance.family == "GCAI":
        return instance.pool if instance.pool is not None else frozenset()
    return frozenset(range(instance.profile.n))


def control_domain(instance: AttackInstance) -> list[int]:
    """The individuals a GCAI/GCDI witness may name, ascending.

    Adding draws from outside the pool; deleting may not touch a target.
    """
    fixed = instance.pool if instance.family == "GCAI" else instance.targets()
    return sorted(frozenset(range(instance.profile.n)) - fixed)


def _flipped_rows(profile: Profile, flips) -> dict[int, tuple[int, int]]:
    """The new (pos, known) masks of the rows flips change; each flip
    (a, b, v) sets entry (a, b) to v, +1 or -1."""
    rows = {}
    for a, b, v in flips:
        bit = 1 << b
        pos, known = rows.get(a, (profile.row_pos[a], profile.row_known[a]))
        rows[a] = (pos | bit if v == 1 else pos & ~bit, known | bit)
    return rows


def _judge(instance: AttackInstance):
    """The judgement core: judge(population, profile) -> bool for this instance.

    check_witness and the oracles' search loop (oracle._first_witness) both
    decide through it, except that the loop judges column-local bribery
    candidates on the target columns (oracle._target_column_judge).
    Building the judge runs the one applicability check; every profile
    judged is the instance's or one derived from it with the same n and
    kind, so that check covers every evaluation eval_mask makes.
    For a partition the population is the left part U, and the winners of
    both parts, f(U) | f(N - U), go to a final round; both part rounds are
    evaluated in full, since every winner enters the final round.  The
    rule's result in the final round must hold every constructive target
    and no destructive one, so that round is evaluated on the target
    columns only (a column-local rule decides no other member).
    """
    rule = instance.rule
    ensure_applicable(rule, instance.profile)
    plus, minus = instance._target_masks
    targets = plus | minus
    partition = instance.family == "GCPI"
    full = full_mask(instance.profile.n) if partition else 0

    def judge(population: int, profile: Profile) -> bool:
        if partition:
            population = eval_mask(rule, population, profile) | eval_mask(rule, full & ~population, profile)
        final = eval_mask(rule, population, profile, targets)
        return not (plus & ~final) and not (minus & final)

    return judge


def check_witness(instance: AttackInstance, solution: Solution) -> bool:
    """Ground-truth witness check: domain, cost bound, and final evaluation.

    Each kind's branch checks the witness against its domain and the budget,
    and yields the population mask (and, for bribery and microbribery, the
    profile Profile._derive makes from the replacement rows' masks, read in
    the pass that validates the cells, or from the rows the flips change).
    An over-budget witness is False without an applicability check.  The
    rest is the judgement core _judge, the same one the oracles search with:
    the one applicability check, the rule on masks (eval_mask), and the
    targets tested against the final mask.
    """
    if FAMILY_KIND.get(instance.family) != solution.kind:
        raise KindMismatch(
            "family %s expects a %s solution, got %s"
            % (instance.family, FAMILY_KIND.get(instance.family), solution.kind)
        )
    p = instance.profile
    n = p.n
    full = full_mask(n)

    if solution.kind == "added":
        _index_mask(solution.members, n, WitnessOutOfDomain)
        if solution.members & (instance.pool or frozenset()):
            raise WitnessOutOfDomain("added individuals must come from outside the pool")
        if len(solution.members) > instance.budget:
            return False
        population = mask_of(start_subset(instance) | solution.members)
    elif solution.kind == "deleted":
        deleted = _index_mask(solution.members, n, WitnessOutOfDomain)
        if solution.members & instance.targets():
            raise WitnessOutOfDomain("deleted individuals must avoid the target sets")
        if len(solution.members) > instance.budget:
            return False
        population = full & ~deleted
    elif solution.kind == "partition":
        population = _index_mask(solution.members, n, WitnessOutOfDomain)  # the left part U
    elif solution.kind == "bribed":
        _index_mask(solution.members, n, WitnessOutOfDomain)
        changed = {}
        for a, cells in solution.rows:
            _index_mask((a,), n, WitnessOutOfDomain)
            if len(cells) != n:
                raise WitnessOutOfDomain("replacement row for %s has %d cells, want %d" % (p.names[a], len(cells), n))
            pos = known = 0
            bit = 1
            for v in cells:
                if v == 1:
                    pos |= bit
                    known |= bit
                elif v == -1:
                    known |= bit
                elif not (v == 0 and p.kind == "ternary"):
                    raise WitnessOutOfDomain("bad replacement cell value %r" % (v,))
                bit <<= 1
            changed[a] = (pos, known)
        if solution.members != changed.keys():
            raise WitnessOutOfDomain("bribed members must be the individuals given replacement rows")
        if instance.cost_of_agents(solution.members) > instance.budget:
            return False
        p = p._derive(changed)
        population = full
    elif solution.kind == "flipped":
        seen = set()
        for a, b, v in solution.flips:
            _index_mask((a, b), n, WitnessOutOfDomain)
            if (a, b) in seen:
                raise WitnessOutOfDomain("duplicate flip for pair (%s, %s)" % (p.names[a], p.names[b]))
            seen.add((a, b))
            if v not in (1, -1):
                raise WitnessOutOfDomain("flips must set +1 or -1, got %r" % (v,))
            if p.entry(a, b) == v:
                raise WitnessOutOfDomain("flip does not change entry (%s, %s)" % (p.names[a], p.names[b]))
        if instance.cost_of_pairs(solution.flip_pairs()) > instance.budget:
            return False
        p = p._derive(_flipped_rows(p, solution.flips))
        population = full
    else:
        raise KindMismatch("unknown solution kind: %s" % solution.kind)
    return _judge(instance)(population, p)


def validate(instance: AttackInstance) -> list[str]:
    """Return named violations; an empty list means the instance is clean.

    Entries prefixed "warning:" flag trivially satisfied target sides per the
    nontriviality remarks; solvers still run on such instances.  They come
    from one rule evaluation of the start population (the pool for adding,
    N otherwise) on masks, on the target columns only, and only once no
    hard violation is found: AplusTriviallyQualified when aplus is non-empty
    and all of it qualifies, AminusTriviallyDisqualified when aminus is
    non-empty and none of it does.
    """
    out = []
    p = instance.profile
    if instance.family not in FAMILIES:
        out.append("UnknownFamily")
    if instance.objective not in OBJECTIVES:
        out.append("UnknownObjective")
    if out:
        return out
    try:
        ensure_applicable(instance.rule, p)
    except RuleNotApplicable:
        out.append("RuleNotApplicable")
    except QuotaConstraintViolated:
        out.append("QuotaConstraintViolated")
    if instance.aplus & instance.aminus:
        out.append("DisjointnessViolated")
    if instance.family == "GCAI":
        if instance.pool is None:
            out.append("MissingPool")
        elif not instance.targets() <= instance.pool:
            out.append("TargetOutsidePool")
    elif instance.pool is not None:
        out.append("PoolNotAllowed")
    if instance.family == "GCPI":
        if instance.budget is not None:
            out.append("BudgetNotAllowed")
    elif instance.budget is None:
        out.append("MissingBudget")
    elif instance.budget < 0:
        out.append("NegativeBudget")
    if instance.agent_prices and instance.family != "GB":
        out.append("AgentPricesNotAllowed")
    if instance.pair_prices and instance.family != "GMB":
        out.append("PairPricesNotAllowed")
    for _key, price in list(instance.agent_prices) + list(instance.pair_prices):
        if not isinstance(price, int) or price < 1:
            out.append("PriceNotPositive")
            break
    if instance.objective == "exact":
        cover = instance.pool if instance.family == "GCAI" else frozenset(range(p.n))
        if cover is not None and instance.targets() != cover:
            out.append("ExactCoverageViolated")
    if instance.r_restriction is not None:
        r = instance.r_restriction
        if p.kind != "binary" or not isinstance(r, int) or r < 1:
            out.append("RRestrictionViolated")
        elif any(p.row_pos[a].bit_count() != r for a in range(p.n)):
            out.append("RRestrictionViolated")
    if out:
        return out
    aplus = mask_of(instance.aplus)
    aminus = mask_of(instance.aminus)
    # a pool index out of range raises IndexOutOfRange, as evaluating any subset does
    population = _index_mask(instance.pool, p.n) if instance.family == "GCAI" else full_mask(p.n)
    start = eval_mask(instance.rule, population, p, aplus | aminus)
    if aplus and not aplus & ~start:
        out.append("warning:AplusTriviallyQualified")
    if aminus and not aminus & start:
        out.append("warning:AminusTriviallyDisqualified")
    return out


def hard_violations(violations: list[str]) -> list[str]:
    return [v for v in violations if not v.startswith("warning:")]


@dataclass(frozen=True)
class InstanceDiagnostics:
    s_star: int | None
    t_star: int | None
    per_individual: tuple = ()


def diagnostics(instance: AttackInstance) -> InstanceDiagnostics:
    """Quota slack diagnostics s* and t* for consent instances.

    s* needs t=1 and every constructive target self-qualifying; t* needs s=1
    and every destructive target self-disqualifying.  A side whose
    precondition fails (or whose target set is empty) reports None.  The t*
    side is the s* side with the signs and the quotas swapped: by consent
    duality it is the s* of the negated profile under consent(t, s).
    """
    rule = instance.rule
    if rule.variant != "consent":
        raise PreconditionViolated("diagnostics are defined for consent rules only")
    p = instance.profile
    per = []

    def side(targets, sign, own_quota, other_quota):
        # agree: the column's entries of the target's own sign; against: the
        # known entries of the other sign
        if not (other_quota == 1 and targets and all(p.entry(a, a) == sign for a in targets)):
            return None
        best = None
        for a in sorted(targets):
            pos = p.col_pos[a].bit_count()
            neg = (p.col_known[a] & ~p.col_pos[a]).bit_count()
            agree, against = (pos, neg) if sign == 1 else (neg, pos)
            missing = max(0, own_quota - agree)
            per.append((a, missing, against))
            value = against - missing
            best = value if best is None else max(best, value)
        return best

    s_star = side(instance.aplus, 1, rule.s, rule.t)
    t_star = side(instance.aminus, -1, rule.t, rule.s)
    return InstanceDiagnostics(s_star=s_star, t_star=t_star, per_individual=tuple(per))


def parse_instance(text: str, resolve_profile) -> AttackInstance:
    """Parse the line-based v1 instance format.

    resolve_profile(path) must return the referenced profile text; callers
    decide how paths are resolved (the CLI uses the instance file directory).
    """
    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line]
    if not lines or lines[0] != "gidinst v1":
        raise ParseError("instance must start with 'gidinst v1'")
    single = {}
    agent_price_lines = []
    pair_price_lines = []
    for line in lines[1:]:
        parts = line.split()
        key = parts[0]
        if key == "agentprice":
            agent_price_lines.append(parts[1:])
            continue
        if key == "pairprice":
            pair_price_lines.append(parts[1:])
            continue
        if key in single:
            raise ParseError("duplicate key: %s" % key)
        single[key] = parts[1:]

    def take(key, required=True):
        if key not in single:
            if required:
                raise ParseError("missing key: %s" % key)
            return None
        return single.pop(key)

    family_tokens = take("problem")
    if len(family_tokens) != 1:
        raise ParseError("bad problem line")
    family = family_tokens[0]
    if family not in FAMILIES:
        raise ParseError("unknown problem family: %s" % family)
    objective_tokens = take("objective")
    if len(objective_tokens) != 1 or objective_tokens[0] not in OBJECTIVES:
        raise ParseError("bad objective line")
    objective = objective_tokens[0]
    rule = parse_rule_tokens(take("rule"))
    profile_tokens = take("profile")
    if len(profile_tokens) != 1:
        raise ParseError("bad profile line")
    profile = profiles.parse_profile(resolve_profile(profile_tokens[0]))

    def name_set(tokens):
        return [profile.index_of(name) for name in tokens]

    aplus = name_set(take("aplus"))
    aminus = name_set(take("aminus"))
    pool_tokens = take("pool", required=False)
    pool = None if pool_tokens is None else name_set(pool_tokens)
    budget_tokens = take("budget", required=False)
    budget = None
    if budget_tokens is not None:
        if len(budget_tokens) != 1:
            raise ParseError("bad budget line")
        budget = _parse_int(budget_tokens[0])
    r_tokens = take("r", required=False)
    r_restriction = None
    if r_tokens is not None:
        if len(r_tokens) != 1:
            raise ParseError("bad r line")
        r_restriction = _parse_int(r_tokens[0])
    if single:
        raise ParseError("unknown key: %s" % sorted(single)[0])
    agent_prices = {}
    for tokens in agent_price_lines:
        if len(tokens) != 2:
            raise ParseError("bad agentprice line")
        a = profile.index_of(tokens[0])
        if a in agent_prices:
            raise ParseError("duplicate agentprice for %s" % tokens[0])
        agent_prices[a] = _parse_int(tokens[1])
    pair_prices = {}
    for tokens in pair_price_lines:
        if len(tokens) != 3:
            raise ParseError("bad pairprice line")
        pair = (profile.index_of(tokens[0]), profile.index_of(tokens[1]))
        if pair in pair_prices:
            raise ParseError("duplicate pairprice for %s %s" % (tokens[0], tokens[1]))
        pair_prices[pair] = _parse_int(tokens[2])
    return make_instance(
        profile,
        rule,
        family,
        objective,
        aplus=aplus,
        aminus=aminus,
        pool=pool,
        budget=budget,
        agent_prices=agent_prices,
        pair_prices=pair_prices,
        r_restriction=r_restriction,
    )


def format_instance(instance: AttackInstance, profile_ref: str) -> str:
    p = instance.profile

    def names(indices):
        return " ".join(p.names[i] for i in sorted(indices))

    out = [
        "gidinst v1",
        "problem %s" % instance.family,
        "objective %s" % instance.objective,
        "rule %s" % instance.rule.describe(),
        "profile %s" % profile_ref,
    ]
    if instance.pool is not None:
        out.append(("pool %s" % names(instance.pool)).rstrip())
    out.append(("aplus %s" % names(instance.aplus)).rstrip())
    out.append(("aminus %s" % names(instance.aminus)).rstrip())
    if instance.budget is not None:
        out.append("budget %d" % instance.budget)
    for a, price in instance.agent_prices:
        out.append("agentprice %s %d" % (p.names[a], price))
    for (a, b), price in instance.pair_prices:
        out.append("pairprice %s %s %d" % (p.names[a], p.names[b], price))
    if instance.r_restriction is not None:
        out.append("r %d" % instance.r_restriction)
    return "\n".join(out) + "\n"
