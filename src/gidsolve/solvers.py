"""Specialized attack solvers, immunity short-circuits and dispatch.

Every solve runs one preflight: if the empty action already meets the
objective the answer is YES with an empty witness; otherwise, on instances
where neither target side is trivially satisfied, the immunity table is
consulted and a match short-circuits to IMMUNE.  Only then does the actual
algorithm run.  Immunity rows are data, kept auditable as one static
relation; so are the specialized solvers' domains, kept in SOLVERS, which
both automatic dispatch and named calls read.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from . import profiles
from .errors import InstanceTooLarge, PreconditionViolated
from .instances import (
    FAMILY_KIND,
    NO_VERDICT,
    AttackInstance,
    Solution,
    Verdict,
    check_witness,
    control_domain,
    effective_targets,
    hard_violations,
    make_instance,
    start_subset,
    validate,
)
from .oracle import (
    DEFAULT_SEARCH,
    SearchBudget,
    _first_witness,
    _subsets,
    solve_bribery_brute,
    solve_control_brute,
    solve_microbribery_brute,
)


@dataclass(frozen=True)
class ImmunityVerdict:
    immune: bool
    theorem_tag: str | None = None
    reason: str = ""


@dataclass(frozen=True)
class ImmunityPattern:
    """One immunity row: a pattern over rule, family, objective, targets."""

    tag: str
    reason: str
    families: tuple
    variant: str
    objectives: tuple | None = None
    s_is: int | None = None
    t_is: int | None = None
    plus_nonempty: bool | None = None
    minus_nonempty: bool | None = None
    r_is: int | None = None

    def matches(self, instance: AttackInstance, eff_plus: frozenset, eff_minus: frozenset) -> bool:
        if instance.family not in self.families:
            return False
        rule = instance.rule
        if rule.variant != self.variant:
            return False
        if self.s_is is not None and rule.s != self.s_is:
            return False
        if self.t_is is not None and rule.t != self.t_is:
            return False
        if self.objectives is not None and instance.objective not in self.objectives:
            return False
        if self.plus_nonempty is not None and bool(eff_plus) != self.plus_nonempty:
            return False
        if self.minus_nonempty is not None and bool(eff_minus) != self.minus_nonempty:
            return False
        if self.r_is is not None and instance.r_restriction != self.r_is:
            return False
        return True


IMMUNITY_TABLE = (
    ImmunityPattern(
        tag="add-cannot-qualify-when-s=1",
        reason="with s=1 an unqualified individual self-disqualifies past t, and added individuals only ever add disqualifications",
        families=("GCAI",), variant="consent", s_is=1, plus_nonempty=True,
    ),
    ImmunityPattern(
        tag="add-cannot-disqualify-when-t=1",
        reason="with t=1 a qualified individual self-qualifies past s, and added individuals only ever add qualifications to count",
        families=("GCAI",), variant="consent", t_is=1, minus_nonempty=True,
    ),
    ImmunityPattern(
        tag="removal-cannot-disqualify-when-s=1",
        reason="with s=1 a qualified individual stays qualified in every subpopulation containing it",
        families=("GCDI", "GCPI"), variant="consent", s_is=1, minus_nonempty=True,
    ),
    ImmunityPattern(
        tag="removal-cannot-qualify-when-t=1",
        reason="with t=1 an unqualified individual stays unqualified in every subpopulation containing it",
        families=("GCDI", "GCPI"), variant="consent", t_is=1, plus_nonempty=True,
    ),
    ImmunityPattern(
        tag="exact-partition-needs-disqualified-targets",
        reason="no partition can make every single individual socially qualified once someone starts unqualified",
        families=("GCPI",), variant="consent", objectives=("exact",), minus_nonempty=False,
    ),
    ImmunityPattern(
        tag="lsr-add-cannot-disqualify",
        reason="growing the population never removes anyone from a liberal-start result",
        families=("GCAI",), variant="lsr", minus_nonempty=True,
    ),
    ImmunityPattern(
        tag="lsr-removal-cannot-qualify",
        reason="shrinking or splitting the population never adds anyone to a liberal-start result",
        families=("GCDI", "GCPI"), variant="lsr", plus_nonempty=True,
    ),
    ImmunityPattern(
        tag="lsr-partition-all-disqualify-impossible",
        reason="a self-qualifier survives every partition round, so emptying the result is impossible",
        families=("GCPI",), variant="lsr", objectives=("exact",), plus_nonempty=False,
    ),
    ImmunityPattern(
        tag="csr-add-keeps-qualified-reachable",
        reason="when both target sides are populated, any addition that qualifies the one side keeps a qualification path into the other",
        families=("GCAI",), variant="csr", objectives=("general",),
        plus_nonempty=True, minus_nonempty=True,
    ),
    ImmunityPattern(
        tag="csr-single-winner-when-r=1",
        reason="on single-choice profiles a consensus result has at most one member, pinned by a unanimous column",
        families=("GCAI",), variant="csr", objectives=("constructive",),
        plus_nonempty=True, r_is=1,
    ),
    ImmunityPattern(
        tag="lsr-liberal-when-r=1",
        reason="on single-choice profiles additions spend their only qualification and cannot qualify a new non-self-qualifier",
        families=("GCAI",), variant="lsr", objectives=("constructive",),
        plus_nonempty=True, r_is=1,
    ),
)


def check_immunity(instance: AttackInstance) -> ImmunityVerdict:
    """Match the instance against the static immunity relation.

    Purely a pattern check: it does not look at the profile entries, so it
    is meaningful only on instances where no target side is trivially
    satisfied already (callers gate on that).
    """
    if instance.profile.kind != "binary":
        return ImmunityVerdict(False)
    eff_plus, eff_minus = effective_targets(instance)
    for pattern in IMMUNITY_TABLE:
        if pattern.matches(instance, eff_plus, eff_minus):
            return ImmunityVerdict(True, theorem_tag=pattern.tag, reason=pattern.reason)
    return ImmunityVerdict(False)


def preflight(instance: AttackInstance) -> Verdict | None:
    """Shared solver entry: trivial instances and immunity short-circuits."""
    violations = validate(instance)
    hard = hard_violations(violations)
    if hard:
        raise PreconditionViolated("invalid instance: %s" % ", ".join(hard))
    empty = Solution(FAMILY_KIND[instance.family])
    if check_witness(instance, empty):
        return Verdict("YES", witness=empty)
    if any(v.startswith("warning:") for v in violations):
        # a trivially satisfied target side voids the immunity arguments
        return None
    immunity = check_immunity(instance)
    if immunity.immune:
        return Verdict("IMMUNE", immunity_ref=immunity.theorem_tag)
    return None


def _cgb_xp(instance: AttackInstance, search: SearchBudget) -> Verdict:
    """Constructive consent bribery with t=1.

    Self-disqualifying targets must be bribed outright; beyond that it is
    never useful to bribe more than s further individuals, all of them to
    fully approving rows.  Prices are at least 1, so no extra set larger
    than the remaining budget is affordable.
    """
    rule = instance.rule
    p = instance.profile
    n = p.n
    forced = sorted(a for a in instance.aplus if p.entry(a, a) == -1)
    forced_set = set(forced)
    forced_cost = instance.cost_of_agents(forced)
    if forced_cost > instance.budget:
        return NO_VERDICT
    remaining = instance.budget - forced_cost
    pool = [b for b in range(n) if b not in forced_set]
    all_plus = [1] * n
    candidates = (
        Solution.bribed({a: all_plus for a in forced + list(extra)})
        for extra in _subsets(pool, min(rule.s, len(pool), remaining))
        if instance.cost_of_agents(extra) <= remaining
    )
    return _first_witness(instance, candidates, search)


def _dgb_xp(instance: AttackInstance, search: SearchBudget) -> Verdict:
    """Destructive consent bribery with s=1, by sign-flip transport.

    Disqualifying a set under consent(1,t) in a profile is the same task as
    qualifying it under consent(t,1) in the negated profile; the bribed set
    carries over and the replacement rows come back negated.  By the same
    duality the dual passes preflight whenever the original does.
    """
    rule = instance.rule
    dual = make_instance(
        profiles.negate(instance.profile),
        profiles.SocialRule.consent(rule.t, 1),
        "GB",
        "constructive",
        aplus=instance.aminus,
        budget=instance.budget,
        agent_prices=dict(instance.agent_prices),
    )
    dual_verdict = _cgb_xp(dual, search)
    if dual_verdict.answer != "YES":
        return NO_VERDICT
    rows = {a: [-v for v in cells] for a, cells in dual_verdict.witness.rows}
    witness = Solution.bribed(rows)
    if not check_witness(instance, witness):
        raise PreconditionViolated("transported bribery witness failed verification")
    return Verdict("YES", witness=witness)


def _gcdi_22(instance: AttackInstance, search: SearchBudget) -> Verdict:
    """Deletion control under consent(2,2) via forced deletions.

    A self-disqualifying constructive target tolerates no other
    disqualifier, and a self-qualifying destructive target tolerates no
    other qualifier; those deletions are forced, and any further deletion
    can only hurt the remaining conditions.
    """
    p = instance.profile
    eff_plus, eff_minus = effective_targets(instance)
    forced = set()
    for a in eff_plus:
        if p.entry(a, a) == -1:
            forced.update(b for b in profiles.bits(p.col_known[a] & ~p.col_pos[a]) if b != a)
    for a in eff_minus:
        if p.entry(a, a) == 1:
            forced.update(b for b in profiles.bits(p.col_pos[a]) if b != a)
    if forced & instance.targets():
        return NO_VERDICT
    if len(forced) > instance.budget:
        return NO_VERDICT
    witness = Solution.deleted(forced)
    if check_witness(instance, witness):
        return Verdict("YES", witness=witness)
    return NO_VERDICT


def _cgcai_r1(instance: AttackInstance, search: SearchBudget) -> Verdict:
    """Constructive adding control on single-choice profiles, s>=2.

    Every addition spends its one qualification on a chosen target and
    disqualifies everyone else; targets can therefore be served greedily,
    with a global cap keeping self-disqualifying targets under quota t.
    """
    rule = instance.rule
    p = instance.profile
    pool_mask = profiles.mask_of(instance.pool)
    chosen = []
    slack = None
    for a in sorted(instance.aplus):
        if p.entry(a, a) == -1:
            disq_in_pool = (p.col_known[a] & ~p.col_pos[a] & pool_mask).bit_count()
            if disq_in_pool >= rule.t:
                return NO_VERDICT
            room = rule.t - disq_in_pool - 1
            slack = room if slack is None else min(slack, room)
    if slack is None:
        slack = instance.budget
    for a in sorted(instance.aplus):
        if p.entry(a, a) == -1:
            continue
        have = (p.col_pos[a] & pool_mask).bit_count()
        need = max(0, rule.s - have)
        candidates = [b for b in profiles.bits(p.col_pos[a]) if not pool_mask & (1 << b)]
        if len(candidates) < need:
            return NO_VERDICT
        chosen.extend(candidates[:need])
    if len(chosen) > instance.budget or len(chosen) > slack:
        return NO_VERDICT
    witness = Solution.added(chosen)
    if check_witness(instance, witness):
        return Verdict("YES", witness=witness)
    return NO_VERDICT


def _columnwise_flip_cost(instance: AttackInstance, a: int, qualify: bool):
    """Cheapest entry changes in column a forcing a's status, per diagonal branch.

    Returns (cost, flips dict) or None when no branch works.
    """
    p = instance.profile
    rule = instance.rule
    diag = p.entry(a, a)
    plus_rows = [b for b in profiles.bits(p.col_pos[a]) if b != a]
    minus_rows = [b for b in profiles.bits(p.col_known[a] & ~p.col_pos[a]) if b != a]
    star_rows = [b for b in profiles.bits(profiles.full_mask(p.n) & ~p.col_known[a]) if b != a]

    def price(b):
        return instance.pair_price(b, a)

    def cheapest(rows, count):
        if count > len(rows):
            return None
        return sorted(rows, key=lambda b: (price(b), b))[:count]

    def branch(diag_value, need, candidates, new_value):
        # diag_value None means keep the current (star) diagonal
        picked = cheapest(candidates, need)
        if picked is None:
            return None
        flips = {}
        cost = 0
        if diag_value is not None and diag != diag_value:
            flips[(a, a)] = diag_value
            cost += price(a)
        for b in picked:
            flips[(b, a)] = new_value
            cost += price(b)
        return cost, flips

    # the wanted side: qualify wants +1 entries and quota s (t on the other
    # side); disqualifying is the mirror image, -1 entries and quota t
    if qualify:
        sign, agree, against, own, other = 1, plus_rows, minus_rows, rule.s, rule.t
    else:
        sign, agree, against, own, other = -1, minus_rows, plus_rows, rule.t, rule.s
    options = [
        # diagonal on the wanted side: reach its own quota counting the diagonal
        branch(sign, max(0, own - (len(agree) + 1)), against + star_rows, sign),
        # diagonal on the other side, which is stuck: push the rest under its quota
        branch(-sign, max(0, (len(against) + 1) - (other - 1)), against, sign),
    ]
    if diag == 0:
        # star diagonal (ternary): s' approvals qualify
        s_prime = rule.effective_s_prime(p.n)
        if qualify:
            options.append(branch(None, max(0, s_prime - len(plus_rows)), minus_rows + star_rows, 1))
        else:
            options.append(branch(None, max(0, len(plus_rows) - (s_prime - 1)), plus_rows, -1))

    options = [o for o in options if o is not None]
    if not options:
        return None
    return min(options, key=lambda o: o[0])


def _microbribery_consent(instance: AttackInstance, search: SearchBudget) -> Verdict:
    """Microbribery for column-local rules by per-target minimum cost.

    An individual's status under consent or ternary rules depends only on
    its own incoming column, so the cheapest flip sets for distinct targets
    are disjoint and their costs add up.
    """
    eff_plus, eff_minus = effective_targets(instance)
    total = 0
    flips = {}
    for a, qualify in sorted([(a, True) for a in eff_plus] + [(a, False) for a in eff_minus]):
        best = _columnwise_flip_cost(instance, a, qualify)
        if best is None:
            return NO_VERDICT
        cost, chosen = best
        total += cost
        flips.update(chosen)
    if total > instance.budget:
        return NO_VERDICT
    witness = Solution.flipped(flips)
    if not check_witness(instance, witness):
        raise PreconditionViolated("columnwise microbribery produced a bad witness")
    return Verdict("YES", witness=witness)


@dataclass(frozen=True)
class IlpModel:
    betas: tuple
    counts: tuple
    members: tuple
    lower_rows: tuple  # (indices into betas, rhs) meaning sum >= rhs
    upper_rows: tuple  # (indices into betas, rhs) meaning sum <= rhs
    budget: int


def build_ilp_model(instance: AttackInstance) -> IlpModel:
    """Group the add/delete pool by target-column signatures and emit quota rows."""
    p = instance.profile
    rule = instance.rule
    eff_plus, eff_minus = effective_targets(instance)
    ordered_targets = sorted(eff_plus) + sorted(eff_minus)
    pool = control_domain(instance)
    base_mask = profiles.mask_of(start_subset(instance))
    groups = {}
    for b in pool:
        beta = tuple(p.entry(b, a) for a in ordered_targets)
        groups.setdefault(beta, []).append(b)
    betas = tuple(sorted(groups))
    counts = tuple(len(groups[beta]) for beta in betas)
    members = tuple(tuple(groups[beta]) for beta in betas)
    lower_rows = []
    upper_rows = []
    subtractive = instance.family == "GCDI"
    for i, a in enumerate(ordered_targets):
        # the own side of a's diagonal: +1 entries and quota s for a
        # self-approver, -1 entries and quota t otherwise
        self_plus = p.entry(a, a) == 1
        if self_plus:
            own, quota, have = 1, rule.s, (p.col_pos[a] & base_mask).bit_count()
        else:
            own, quota, have = -1, rule.t, (p.col_known[a] & ~p.col_pos[a] & base_mask).bit_count()
        idx = tuple(j for j, beta in enumerate(betas) if beta[i] == own)
        # reach: the objective wants the own-side count at or past its quota
        # (qualify a self-approver, disqualify a self-disapprover)
        reach = (a in eff_plus) == self_plus
        if not subtractive:
            if reach:
                lower_rows.append((idx, quota - have))
            else:
                upper_rows.append((idx, (quota - 1) - have))
        else:
            # deletions subtract from current counts instead of adding
            if reach:
                upper_rows.append((idx, have - quota))
            else:
                lower_rows.append((idx, have - (quota - 1)))
    return IlpModel(
        betas=betas,
        counts=counts,
        members=members,
        lower_rows=tuple(lower_rows),
        upper_rows=tuple(upper_rows),
        budget=instance.budget,
    )


def solve_ilp_model(model: IlpModel, node_limit: int | None = None):
    """Depth-first search over group counts with simple capacity pruning."""
    k = len(model.betas)
    lower = list(model.lower_rows)
    upper = list(model.upper_rows)
    suffix_cap = [[0] * (k + 1) for _ in lower]
    for row, (idx, _rhs) in enumerate(lower):
        for j in range(k - 1, -1, -1):
            add = model.counts[j] if j in idx else 0
            suffix_cap[row][j] = suffix_cap[row][j + 1] + add
    assignment = [0] * k
    nodes = 0

    def feasible_so_far(j, spent):
        for row, (idx, rhs) in enumerate(lower):
            have = sum(assignment[i] for i in idx if i < j)
            headroom = min(suffix_cap[row][j], model.budget - spent)
            if have + headroom < rhs:
                return False
        for idx, rhs in upper:
            have = sum(assignment[i] for i in idx if i < j)
            if have > rhs:
                return False
        return True

    def dfs(j, spent):
        nonlocal nodes
        nodes += 1
        if node_limit is not None and nodes > node_limit:
            raise InstanceTooLarge("ilp search exceeded node limit %d" % node_limit)
        if not feasible_so_far(j, spent):
            return None
        if j == k:
            for idx, rhs in lower:
                if sum(assignment[i] for i in idx) < rhs:
                    return None
            return list(assignment)
        for value in range(0, min(model.counts[j], model.budget - spent) + 1):
            assignment[j] = value
            found = dfs(j + 1, spent + value)
            if found is not None:
                return found
            assignment[j] = 0
        return None

    return dfs(0, 0)


FPT_BETA_CAP = 4096  # opinion signatures fpt_ilp will group before refusing


def _fpt_ilp(instance: AttackInstance, search: SearchBudget) -> Verdict:
    """Adding/deleting control for consent rules via grouped counting.

    Individuals outside the targets are interchangeable within the same
    signature of opinions about the targets, so only group counts matter.
    """
    model = build_ilp_model(instance)
    if len(model.betas) > FPT_BETA_CAP:
        raise InstanceTooLarge("%d opinion signatures exceed cap %d" % (len(model.betas), FPT_BETA_CAP))
    assignment = solve_ilp_model(model, node_limit=search.node_limit)
    if assignment is None:
        return NO_VERDICT
    picked = []
    for j, value in enumerate(assignment):
        picked.extend(model.members[j][:value])
    witness = Solution.added(picked) if instance.family == "GCAI" else Solution.deleted(picked)
    if not check_witness(instance, witness):
        raise PreconditionViolated("ilp reconstruction produced a bad witness")
    return Verdict("YES", witness=witness)


@dataclass(frozen=True)
class SolverSpec:
    """A specialized algorithm and the domain its theorem covers.

    `requires` holds (predicate, refusal message) pairs, checked in order;
    `run(instance, search)` is the algorithm alone, for instances inside the
    domain that passed preflight.  Calling a spec is a named solve: refusal
    first, then preflight, then the algorithm.
    """

    name: str
    requires: tuple
    run: Callable[[AttackInstance, SearchBudget], Verdict]

    def refusal(self, instance: AttackInstance) -> str | None:
        return next((message for holds, message in self.requires if not holds(instance)), None)

    def __call__(self, instance: AttackInstance, search: SearchBudget = DEFAULT_SEARCH) -> Verdict:
        refusal = self.refusal(instance)
        if refusal is not None:
            raise PreconditionViolated(refusal)
        early = preflight(instance)
        if early is not None:
            return early
        return self.run(instance, search)


_NO_EXACT_DELETION = (lambda i: not (i.family == "GCDI" and i.objective == "exact"),
                      "deleting problems have no exact variant")

# In dispatch order: solve_auto runs the first spec whose domain holds.
SOLVERS = (
    SolverSpec("cgb_xp", (
        (lambda i: i.family == "GB" and i.objective == "constructive",
         "this algorithm handles constructive GB only"),
        (lambda i: i.rule.variant == "consent" and i.rule.t == 1,
         "this algorithm needs a consent rule with t=1"),
    ), _cgb_xp),
    SolverSpec("dgb_xp", (
        (lambda i: i.family == "GB" and i.objective == "destructive",
         "this algorithm handles destructive GB only"),
        (lambda i: i.rule.variant == "consent" and i.rule.s == 1,
         "this algorithm needs a consent rule with s=1"),
    ), _dgb_xp),
    SolverSpec("gcdi_22", (
        (lambda i: i.family == "GCDI", "this algorithm handles GCDI only"),
        _NO_EXACT_DELETION,
        (lambda i: i.rule.variant == "consent" and i.rule.s == 2 and i.rule.t == 2,
         "this algorithm needs the consent rule with s=t=2"),
    ), _gcdi_22),
    SolverSpec("cgcai_r1", (
        (lambda i: i.family == "GCAI" and i.objective == "constructive",
         "this algorithm handles constructive GCAI only"),
        (lambda i: i.rule.variant == "consent" and i.rule.s >= 2,
         "this algorithm needs a consent rule with s>=2"),
        (lambda i: i.r_restriction == 1, "this algorithm needs a single-choice (r=1) profile"),
    ), _cgcai_r1),
    SolverSpec("microbribery_consent", (
        (lambda i: i.family == "GMB", "this algorithm handles GMB only"),
        (lambda i: i.rule.variant in ("consent", "ternary"),
         "sequential rules are out of scope for columnwise microbribery"),
    ), _microbribery_consent),
    SolverSpec("fpt_ilp", (
        (lambda i: i.family in ("GCAI", "GCDI"), "this algorithm handles GCAI and GCDI only"),
        _NO_EXACT_DELETION,
        (lambda i: i.rule.variant == "consent", "this algorithm needs a consent rule"),
    ), _fpt_ilp),
)
(solve_cgb_xp, solve_dgb_xp, solve_gcdi_22, solve_cgcai_r1,
 solve_microbribery_consent, solve_fpt_ilp) = SOLVERS

# The oracles skip preflight, also when called by name.
ORACLES = {
    "control_brute": solve_control_brute,
    "bribery_brute": solve_bribery_brute,
    "microbribery_brute": solve_microbribery_brute,
}
ORACLE_FOR_FAMILY = {"GCAI": "control_brute", "GCDI": "control_brute", "GCPI": "control_brute",
                     "GB": "bribery_brute", "GMB": "microbribery_brute"}
BY_NAME = {spec.name: spec for spec in SOLVERS} | ORACLES


def auto_solver(instance: AttackInstance):
    """The (name, algorithm) solve_auto runs past preflight.

    That is the first spec whose domain holds, else the family's oracle.
    """
    for spec in SOLVERS:
        if spec.refusal(instance) is None:
            return spec.name, spec.run
    name = ORACLE_FOR_FAMILY[instance.family]
    return name, ORACLES[name]


def solve_auto(instance: AttackInstance, search: SearchBudget = DEFAULT_SEARCH):
    """Dispatch to the most specialized applicable solver.

    Returns (verdict, solver name).  A specialized solver that raises
    InstanceTooLarge is not silently replaced by brute force; the error
    propagates so the caller can decide.
    """
    early = preflight(instance)
    if early is not None:
        name = "trivial" if early.answer == "YES" else "immunity"
        return early, name
    name, run = auto_solver(instance)
    return run(instance, search), name
