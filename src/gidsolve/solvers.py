"""Specialized attack solvers, immunity short-circuits and dispatch.

Every solve runs one preflight: if the empty action already meets the
objective the answer is YES with an empty witness; otherwise, on instances
where neither target side is trivially satisfied, the immunity table is
consulted and a match short-circuits to IMMUNE.  Only then does the actual
algorithm run.  Immunity rows are data, kept auditable as one static
relation; so are the specialized solvers' domains, kept in SOLVERS, which
both automatic dispatch and named calls read.  Each algorithm runs on the
instance it is given; cgb_xp and dgb_xp are one body with a sign, and
consent duality is what makes the destructive sign correct.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

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


def _gb_xp(instance: AttackInstance, search: SearchBudget, sign: int) -> Verdict:
    """Consent bribery whose other quota is 1: constructive with t=1 (sign +1)
    or destructive with s=1 (sign -1).

    Sign +1: self-disqualifying targets in aplus must be bribed outright;
    beyond that it is never useful to bribe more than s further individuals,
    all of them to fully approving rows.  Prices are at least 1, so no extra
    set larger than the remaining budget is affordable.  Sign -1 is the same
    argument by consent duality, f^(s,t)(N, phi) = N - f^(t,s)(N, -phi):
    disqualifying aminus under consent(1,t) is qualifying it under
    consent(t,1) in -phi, so self-qualifying targets are forced, the quota is
    t and every row is all -1.  Candidates are checked on the given instance.
    """
    p = instance.profile
    targets, quota = (instance.aplus, instance.rule.s) if sign == 1 else (instance.aminus, instance.rule.t)
    forced = sorted(a for a in targets if p.entry(a, a) == -sign)
    remaining = instance.budget - instance.cost_of_agents(forced)
    if remaining < 0:
        return NO_VERDICT
    pool = [b for b in range(p.n) if b not in forced]
    row = [sign] * p.n
    candidates = (
        Solution.bribed({a: row for a in forced + list(extra)})
        for extra in _subsets(pool, min(quota, len(pool), remaining))
        if instance.cost_of_agents(extra) <= remaining
    )
    return _first_witness(instance, candidates, search)


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
    """Depth-first search over group counts with simple capacity pruning.

    The search carries each lower row's remaining need and each upper row's
    remaining room, and prunes a node when a need exceeds what the later
    groups and the budget left can still supply, or a room is below 0.  At
    j = k the later groups supply nothing, so a node past the prune there is
    a solution.
    """
    k = len(model.betas)
    counts = model.counts
    lower_idx = [idx for idx, _rhs in model.lower_rows]
    upper_idx = [idx for idx, _rhs in model.upper_rows]
    supply = []  # supply[row][j]: the most groups j..k-1 can add to a lower row
    for idx in lower_idx:
        supply.append([0] * (k + 1))
        for j in range(k - 1, -1, -1):
            supply[-1][j] = supply[-1][j + 1] + (counts[j] if j in idx else 0)
    assignment = [0] * k
    nodes = 0

    def dfs(j, left, need, room):
        nonlocal nodes
        nodes += 1
        if node_limit is not None and nodes > node_limit:
            raise InstanceTooLarge("ilp search exceeded node limit %d" % node_limit)
        if any(min(cap[j], left) < x for cap, x in zip(supply, need)) or any(x < 0 for x in room):
            return None
        if j == k:
            return list(assignment)
        for value in range(min(counts[j], left) + 1):
            assignment[j] = value
            found = dfs(j + 1, left - value,
                        [x - value if j in idx else x for x, idx in zip(need, lower_idx)],
                        [x - value if j in idx else x for x, idx in zip(room, upper_idx)])
            if found is not None:
                return found
        return None

    return dfs(0, model.budget, [rhs for _idx, rhs in model.lower_rows], [rhs for _idx, rhs in model.upper_rows])


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
    ), partial(_gb_xp, sign=1)),
    SolverSpec("dgb_xp", (
        (lambda i: i.family == "GB" and i.objective == "destructive",
         "this algorithm handles destructive GB only"),
        (lambda i: i.rule.variant == "consent" and i.rule.s == 1,
         "this algorithm needs a consent rule with s=1"),
    ), partial(_gb_xp, sign=-1)),
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
