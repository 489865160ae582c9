"""Qualification queries on profiles with unknown entries.

A partial profile fixes some opinions and leaves the rest open.  A set S
is possibly qualified when some completion of the unknown entries puts
every member of S into the socially qualified set, and necessarily
qualified when every completion does.  The r-restricted variants
quantify only over completions whose rows each hold exactly r positive
entries.

The unrestricted queries reduce to evaluating one canonical completion:

* Consent rules are column-local, so members never compete for a cell.
  Off-diagonal unknowns in an S-column are resolved to +1 (possible) or
  -1 (necessary) outright.  For an unknown diagonal the quota bound
  s + t <= n + 2 makes the same choice dominant: in the optimistic
  completion, if +1 leaves the approval count k+ + u + 1 below s, then
  the -1 option faces k- + 1 = n - k+ - u >= n + 2 - s >= t
  disqualifiers and fails as well.  The pessimistic direction is the
  mirror image.
* Ternary rules carry no quota bound, so neither diagonal choice
  dominates: an unknown diagonal qualifies possibly when some value
  does and necessarily when every value does, which column-locality
  keeps exact.
* The consensual and liberal sequential rules are monotone in the set
  of positive entries, so the all-+1 completion maximises and the
  all--1 completion minimises the outcome over all completions.

Only csr/lsr's all-+1 completion is built; the others are read off the
partial profile's masks.  Past its guards every route works on the checked
query mask and judges the query columns only; csr and lsr judge everyone.

`answer_query` splits exactly-r queries once, on column-locality.  For
consent and ternary rules, PQI runs one flow over the unknown cells of
S-columns per combination of the members' live diagonal values
(_diagonal_values), and NQI reads per-column forced and dodgeable masks.
Ternary rules ride these consent routes unchanged: r-extensions are
binary, so no star diagonal occurs and s' is never read, which leaves
consent(s, t) without its quota bound.  Neither route leans on that
bound: a -1 diagonal in a row that must spend every unknown on +1 is
dead, and _diagonal_values drops it, where under consent the bound alone
would make that branch fail.  For csr and lsr, r_sequential answers: at
r = 1 each row's single +1 gives closed forms in both modes, and
otherwise every r-extension lies between the two canonical completions,
which bound the query.  None of these enumerates, so none charges the
node limit; only the csr/lsr queries the bounds leave open fall back to
extension enumeration.
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass

from .errors import (
    IndexOutOfRange,
    InstanceTooLarge,
    InvalidR,
    ParseError,
    PreconditionViolated,
)
from .oracle import (
    DEFAULT_SEARCH,
    SearchBudget,
    _query_mask,
    pqi_nqi_brute,
    row_needs,
)
from .profiles import Profile, SocialRule, _column_qualifies, bits, eval_mask, full_mask, mask_of

PQI = "PQI"
NQI = "NQI"


@dataclass(frozen=True)
class PartialQuery:
    """A qualification query: member set, mode, optional row quota r."""

    subset: frozenset[int]
    mode: str
    r: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "subset", frozenset(self.subset))
        if not self.subset:
            raise PreconditionViolated("query set must be nonempty")
        if self.mode not in (PQI, NQI):
            raise ParseError("query mode must be PQI or NQI, got %r" % (self.mode,))
        if self.r is not None and (not isinstance(self.r, int) or self.r < 1):
            raise InvalidR("r must be a positive integer, got %r" % (self.r,))


@dataclass(frozen=True)
class FlowNetwork:
    """Directed network with integer capacities and designated endpoints."""

    num_vertices: int
    source: int
    sink: int
    arcs: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "arcs", tuple((u, v, c) for (u, v, c) in self.arcs))
        n = self.num_vertices
        if not 0 <= self.source < n:
            raise IndexOutOfRange("source %d out of range for %d vertices" % (self.source, n))
        if not 0 <= self.sink < n:
            raise IndexOutOfRange("sink %d out of range for %d vertices" % (self.sink, n))
        if self.source == self.sink:
            raise PreconditionViolated("source and sink must differ")
        for u, v, c in self.arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise IndexOutOfRange("arc (%d, %d) out of range for %d vertices" % (u, v, n))
            if c < 0:
                raise PreconditionViolated("arc capacity must be non-negative, got %d" % c)
            if v == self.source:
                raise PreconditionViolated("no arc may enter the source")
            if u == self.sink:
                raise PreconditionViolated("no arc may leave the sink")


def max_flow(net: FlowNetwork) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """Shortest-augmenting-path maximum flow with a matching minimum cut.

    Returns (value, cut) where cut lists the original arcs that cross
    from the residual-reachable side to the rest, in input order; their
    capacities sum to the flow value.  That side is read off the final,
    failed augmenting search, which visits exactly the vertices the
    source reaches in the residual network: the unique minimal source
    side of a minimum cut.  Arc order is fixed by the input, so repeated
    runs produce identical flows and cuts.
    """
    residual: dict[tuple[int, int], int] = {}
    adjacency: list[list[int]] = [[] for _ in range(net.num_vertices)]
    for u, v, c in net.arcs:
        if u == v:
            continue
        if (u, v) not in residual:
            residual[(u, v)] = 0
            adjacency[u].append(v)
        if (v, u) not in residual:
            residual[(v, u)] = 0
            adjacency[v].append(u)
        residual[(u, v)] += c
    value = 0
    while True:
        parent: dict[int, int | None] = {net.source: None}
        queue = collections.deque([net.source])
        while queue:
            u = queue.popleft()
            if u == net.sink:
                break
            for v in adjacency[u]:
                if v not in parent and residual[(u, v)] > 0:
                    parent[v] = u
                    queue.append(v)
        if net.sink not in parent:
            break
        path = []
        v = net.sink
        while parent[v] is not None:
            u = parent[v]
            path.append((u, v))
            v = u
        bottleneck = min(residual[arc] for arc in path)
        for arc in path:
            u, v = arc
            residual[arc] -= bottleneck
            residual[(v, u)] += bottleneck
        value += bottleneck
    cut = tuple(
        (u, v, c)
        for (u, v, c) in net.arcs
        if u in parent and v not in parent and c > 0
    )
    return value, cut


def _check_query(profile: Profile, subset, rule: SocialRule) -> int:
    """Shared guards: _query_mask's kind and index refusals, then the empty
    set and the quota bound; returns the checked mask the routes work on."""
    wanted = _query_mask(profile, subset)
    if not wanted:
        raise PreconditionViolated("query set must be nonempty")
    rule.ensure_quota_bound(profile.n)
    return wanted


def _plain_query_guards(profile: Profile, query: PartialQuery, mode: str):
    if query.mode != mode:
        raise PreconditionViolated("expected a %s query, got %s" % (mode, query.mode))
    if query.r is not None:
        raise PreconditionViolated("r-restricted queries use the r_* solvers")


def _completion_qualifies(profile: Profile, wanted: int, rule: SocialRule, sign: int) -> bool:
    """Whether all of wanted qualifies in the canonical completion that
    resolves every unknown to sign (for the members at +1, against them at
    -1).  Column-local rules complete each member's column from the column
    views.  csr/lsr read only the +1 cells of row_pos and diag_pos, so the
    profile itself is their all--1 completion and the all-+1 one turns each
    row to pos | ~known.  A member with an unknown diagonal qualifies at
    sign +1 when some value of it qualifies the member, and at sign -1 when
    every value does."""
    n = profile.n
    full = full_mask(n)
    if not rule.column_local:
        completion = profile if sign < 0 else Profile(
            n=n, kind="binary", names=profile.names, row_known=(full,) * n,
            row_pos=tuple(rp | (full & ~rk) for rp, rk in zip(profile.row_pos, profile.row_known)))
        return not wanted & ~eval_mask(rule, full, completion)
    col_pos, col_known = profile._columns()
    for a in bits(wanted):
        bit = 1 << a
        col = col_pos[a] | (full & ~col_known[a] if sign > 0 else 0)
        if profile.diag_known & bit:
            qualified = _column_qualifies(rule, n, bit, col, full)
        else:
            as_plus = _column_qualifies(rule, n, bit, col | bit, full)
            as_minus = _column_qualifies(rule, n, bit, col & ~bit, full)
            qualified = as_plus or as_minus if sign > 0 else as_plus and as_minus
        if not qualified:
            return False
    return True


def pqi(profile: Profile, query: PartialQuery, rule: SocialRule) -> bool:
    """Possible qualification: some completion qualifies all of S."""
    _plain_query_guards(profile, query, PQI)
    return _completion_qualifies(profile, _check_query(profile, query.subset, rule), rule, 1)


def nqi(profile: Profile, query: PartialQuery, rule: SocialRule) -> bool:
    """Necessary qualification: every completion qualifies all of S."""
    _plain_query_guards(profile, query, NQI)
    return _completion_qualifies(profile, _check_query(profile, query.subset, rule), rule, -1)


def _star_flow_value(profile: Profile, wanted: int, needs: list[int], demands: dict[int, int]) -> bool:
    """Feasibility of routing row surpluses onto unknown S-column cells.

    Rows supply at most their remaining need, each unknown off-diagonal
    cell in an S-column carries one unit, and each member's column must
    absorb its demand.  Member diagonals are resolved by the callers
    before the network is built, so only off-diagonal cells carry arcs.
    """
    total = sum(demands.values())
    if total == 0:
        return True
    n = profile.n
    source = 0
    row_base = 1
    col_index = {a: row_base + n + i for i, a in enumerate(bits(wanted))}
    sink = row_base + n + len(col_index)
    arcs = [(source, row_base + b, need) for b, need in enumerate(needs) if need > 0]
    for b, known in enumerate(profile.row_known):
        for a in bits(wanted & ~known & ~(1 << b)):
            arcs.append((row_base + b, col_index[a], 1))
    for a, col in col_index.items():
        arcs.append((col, sink, demands[a]))
    value, _cut = max_flow(FlowNetwork(sink + 1, source, sink, tuple(arcs)))
    return value == total


def r_pqi_consent_flow(profile: Profile, subset, r: int, rule: SocialRule) -> bool:
    """Possible qualification under exactly-r rows, consent or ternary with t = 1.

    With t = 1 a -1 diagonal is never live, so _r_pqi_branches runs one
    flow: each row's mandatory +1 count goes onto unknown cells of
    S-columns until every member's approval quota s is met.
    """
    if not rule.column_local or rule.t != 1 or rule.s < 2:
        raise PreconditionViolated("flow solver handles consent and ternary rules with t = 1 and s >= 2")
    return _r_pqi_branches(profile, subset, r, rule)


R_PQI_BRANCH_CAP = 4096  # live diagonal combinations _r_pqi_branches will try before refusing


def r_pqi_general(profile: Profile, subset, r: int, rule: SocialRule) -> bool:
    """Possible qualification under exactly-r rows, any consent or ternary
    rule: _r_pqi_branches over the members' live diagonal values."""
    if not rule.column_local:
        raise PreconditionViolated("the general r solver handles consent and ternary rules only")
    return _r_pqi_branches(profile, subset, r, rule)


def _diagonal_values(profile: Profile, needs: list[int], a: int) -> tuple[bool, bool]:
    """Whether member a's diagonal is, or can still turn, +1 and -1 in an
    r-extension whose rows have the given needs: an unknown diagonal can
    turn +1 only in a row with a need, and -1 only in a row that need not
    spend every unknown."""
    bit = 1 << a
    if profile.diag_known & bit:
        plus = bool(profile.diag_pos & bit)
        return plus, not plus
    return needs[a] > 0, needs[a] < profile.n - profile.row_known[a].bit_count()


def _r_pqi_branches(profile: Profile, subset, r: int, rule: SocialRule) -> bool:
    """One flow feasibility check per combination of the members' live
    diagonal values, until one succeeds.

    A member kept +1 demands s approvals and spends an unknown diagonal on
    its row's need; a member kept -1 demands enough +1 resolutions in its
    column to push the disqualifier count below t.  A value is live when
    _diagonal_values allows it and its demand fits the member's unknown
    off-diagonal cells; a member with no live value fails the query.
    Extra +1 units only ever help, so feasibility is exact.
    """
    wanted = _check_query(profile, subset, rule)
    needs = row_needs(profile, r)
    live = []  # per member, its (member, need spent on the diagonal, demand) values
    for a in bits(wanted):
        plus, minus = _diagonal_values(profile, needs, a)
        star = 0 if profile.diag_known >> a & 1 else 1  # the diagonal counts on its resolved side
        off_diag_stars = profile.n - profile.col_known[a].bit_count() - star
        disq = (profile.col_known[a] & ~profile.col_pos[a]).bit_count() + star
        demands = (max(0, rule.s - profile.col_pos[a].bit_count() - star),
                   max(0, disq + off_diag_stars - (rule.t - 1)))
        values = [(a, spent, demand) for takes, spent, demand in zip((plus, minus), (star, 0), demands)
                  if takes and demand <= off_diag_stars]
        if not values:
            return False
        live.append(values)
    branches = math.prod(map(len, live))
    if branches > R_PQI_BRANCH_CAP:
        raise InstanceTooLarge("%d diagonal branches exceed cap %d" % (branches, R_PQI_BRANCH_CAP))
    for choice in itertools.product(*live):
        branch_needs = list(needs)
        for a, spent, _demand in choice:
            branch_needs[a] -= spent
        if _star_flow_value(profile, wanted, branch_needs, {a: demand for a, _spent, demand in choice}):
            return True
    return False


def _spend_all_rows(profile: Profile, needs: list[int]) -> int:
    """Mask of the rows whose need equals their unknown count: they spend every unknown on +1."""
    return mask_of(b for b, (need, known) in enumerate(zip(needs, profile.row_known))
                   if need == profile.n - known.bit_count())


def r_nqi(profile: Profile, subset, r: int, rule: SocialRule) -> bool:
    """Necessary qualification under exactly-r rows, consent and ternary rules.

    A column's forced mask holds its known +1 rows and the spend-all rows
    (_spend_all_rows) where it is unknown; every other row is dodgeable, a
    known -1 or an unknown in a row with slack to make it -1.  Rows dodge
    independently, so the per-member worst case is exact.
    """
    if not rule.column_local:
        raise PreconditionViolated("the r solver handles consent and ternary rules")
    wanted = _check_query(profile, subset, rule)
    n = profile.n
    needs = row_needs(profile, r)
    spend_all = _spend_all_rows(profile, needs)
    full = full_mask(n)
    for a in bits(wanted):
        bit = 1 << a
        # the forced off-diagonal +1 cells; every other cell dodges to -1
        worst = (profile.col_pos[a] | (~profile.col_known[a] & spend_all)) & ~bit
        plus, minus = _diagonal_values(profile, needs, a)
        if (plus and not _column_qualifies(rule, n, bit, worst | bit, full)
                or minus and not _column_qualifies(rule, n, bit, worst, full)):
            return False
    return True


def _r1_sequential(profile: Profile, wanted: int, rule: SocialRule, plus_rows: int) -> bool:
    """csr/lsr at r = 1: whether the nonempty set wanted qualifies once
    every row in plus_rows aims its one +1 at an unknown cell of its choice.

    Each row's single +1 collapses the rules: lsr returns exactly the
    self-approvers and csr the lone column every row approves, or nothing.
    NQI passes the rows that must spend every unknown on +1, PQI the rows
    that still have a +1 to place.
    """
    if rule.variant == "lsr":
        return not wanted & ~(profile.diag_pos | (~profile.diag_known & plus_rows))
    if wanted & (wanted - 1):
        return False  # csr qualifies one member at most
    a = wanted.bit_length() - 1
    return profile.col_pos[a] | (~profile.col_known[a] & plus_rows) == full_mask(profile.n)


def r_sequential(profile: Profile, subset, r: int, rule: SocialRule, mode: str) -> bool | None:
    """Exactly-r csr/lsr queries decided without enumeration, or None.

    It refuses what pqi_nqi_brute refuses before its node limit, in the
    same order, and charges no nodes: it enumerates nothing.  At r = 1
    both modes are exact (_r1_sequential): S is possible iff the rows with
    a need can aim their +1 at it, and necessary iff the spend-all rows
    do.  Otherwise the canonical completions bound every r-extension, one
    of which exists: if the all--1 completion qualifies S, every one does,
    and if the all-+1 completion misses S, none does.  In between the
    answer is None and the query is left to enumeration.
    """
    if rule.column_local:
        raise PreconditionViolated("the sequential r route handles csr and lsr rules")
    wanted = _query_mask(profile, subset)
    needs = row_needs(profile, r)
    if not wanted:
        return True  # the empty set qualifies under every completion
    if r == 1:
        plus_rows = (mask_of(b for b, need in enumerate(needs) if need) if mode == PQI
                     else _spend_all_rows(profile, needs))
        return _r1_sequential(profile, wanted, rule, plus_rows)
    if _completion_qualifies(profile, wanted, rule, -1):
        return True
    if not _completion_qualifies(profile, wanted, rule, 1):
        return False
    return None


def answer_query(profile: Profile, query: PartialQuery, rule: SocialRule,
                 search: SearchBudget = DEFAULT_SEARCH) -> tuple[bool, str]:
    """Answer a qualification query, naming the solver that produced it."""
    if query.r is None:
        if query.mode == PQI:
            return pqi(profile, query, rule), "pqi"
        return nqi(profile, query, rule), "nqi"
    if rule.column_local:
        if query.mode == NQI:
            return r_nqi(profile, query.subset, query.r, rule), "r_nqi"
        if rule.t == 1 and rule.s >= 2:
            return r_pqi_consent_flow(profile, query.subset, query.r, rule), "r_pqi_consent_flow"
        return r_pqi_general(profile, query.subset, query.r, rule), "r_pqi_general"
    answer = r_sequential(profile, query.subset, query.r, rule, query.mode)
    if answer is not None:
        return answer, "r_sequential"
    possible, necessary = pqi_nqi_brute(profile, query.subset, rule, r=query.r, search=search)
    return (possible if query.mode == PQI else necessary), "brute"
