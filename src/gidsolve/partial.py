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
  dominates; the builder instead picks the winning (or spoiling)
  diagonal value per member, which column-locality keeps exact.
* The consensual and liberal sequential rules are monotone in the set
  of positive entries, so the all-+1 completion maximises and the
  all--1 completion minimises the outcome over all completions.

Both completions come from one builder over the row masks.  The
r-restricted solvers run on flow feasibility over the unknown cells of
S-columns (possible) and on per-column forced and dodgeable masks
(necessary); `answer_query` routes to the right specialised routine
and falls back to extension enumeration where none applies.
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass

from .errors import (
    IndexOutOfRange,
    InstanceTooLarge,
    InvalidR,
    ParseError,
    PreconditionViolated,
    WrongKind,
)
from .oracle import DEFAULT_SEARCH, SearchBudget, pqi_nqi_brute, row_needs
from .profiles import Profile, SocialRule, _index_mask, bits, eval, full_mask, mask_of

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
    capacities sum to the flow value.  Arc order is fixed by the input,
    so repeated runs produce identical flows and cuts.
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
    reachable = {net.source}
    queue = collections.deque([net.source])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if v not in reachable and residual[(u, v)] > 0:
                reachable.add(v)
                queue.append(v)
    cut = tuple(
        (u, v, c)
        for (u, v, c) in net.arcs
        if u in reachable and v not in reachable and c > 0
    )
    return value, cut


def _check_query(profile: Profile, subset, rule: SocialRule) -> list[int]:
    """Shared guards; returns the sorted member list."""
    if profile.kind == "ternary":
        raise WrongKind("qualification queries work on partial (or binary) profiles")
    members = sorted(set(subset))
    _index_mask(members, profile.n)
    if not members:
        raise PreconditionViolated("query set must be nonempty")
    rule.ensure_quota_bound(profile.n)
    return members


def _extension(profile: Profile, subset, rule: SocialRule, sign: int) -> Profile:
    """Binary completion resolving the unknowns to sign, for or against the set.

    For sign = +1 an unknown (b, a) turns +1 in every column under csr/lsr
    and in the members' columns otherwise, and -1 elsewhere; for sign = -1
    every unknown turns -1.
    """
    members = _check_query(profile, subset, rule)
    n = profile.n
    full = full_mask(n)
    if sign < 0:
        favoured = 0
    else:
        favoured = full if rule.variant in ("csr", "lsr") else mask_of(members)
    pos = [rp | (~rk & favoured) for rp, rk in zip(profile.row_pos, profile.row_known)]
    if rule.variant == "ternary":
        # no quota bound, so neither diagonal value dominates: where +1 misses
        # the s quota and -1 stays under the t quota, only -1 qualifies a, and
        # the unknown diagonal takes -sign
        for a in bits(mask_of(members) & ~profile.diag_known):
            quals_off = sum(pos[b] >> a & 1 for b in range(n) if b != a)
            if quals_off + 1 < rule.s and n - quals_off < rule.t:
                pos[a] ^= 1 << a
    return Profile(n=n, kind="binary", names=profile.names, row_pos=tuple(pos), row_known=(full,) * n)


def optimistic_extension(profile: Profile, subset, rule: SocialRule) -> Profile:
    """Completion resolving every unknown in favour of the queried set."""
    return _extension(profile, subset, rule, 1)


def pessimistic_extension(profile: Profile, subset, rule: SocialRule) -> Profile:
    """Completion resolving every unknown against the queried set."""
    return _extension(profile, subset, rule, -1)


def _plain_query_guards(profile: Profile, query: PartialQuery, mode: str):
    if query.mode != mode:
        raise PreconditionViolated("expected a %s query, got %s" % (mode, query.mode))
    if query.r is not None:
        raise PreconditionViolated("r-restricted queries use the r_* solvers")


def pqi(profile: Profile, query: PartialQuery, rule: SocialRule) -> bool:
    """Possible qualification: some completion qualifies all of S."""
    _plain_query_guards(profile, query, PQI)
    ext = optimistic_extension(profile, query.subset, rule)
    return query.subset <= eval(rule, None, ext)


def nqi(profile: Profile, query: PartialQuery, rule: SocialRule) -> bool:
    """Necessary qualification: every completion qualifies all of S."""
    _plain_query_guards(profile, query, NQI)
    ext = pessimistic_extension(profile, query.subset, rule)
    return query.subset <= eval(rule, None, ext)


def _star_flow_value(profile: Profile, members: list[int], needs: list[int],
                     demands: dict[int, int]) -> bool:
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
    col_index = {a: row_base + n + i for i, a in enumerate(members)}
    sink = row_base + n + len(members)
    arcs = [(source, row_base + b, need) for b, need in enumerate(needs) if need > 0]
    member_mask = mask_of(members)
    for b, known in enumerate(profile.row_known):
        for a in bits(member_mask & ~known & ~(1 << b)):
            arcs.append((row_base + b, col_index[a], 1))
    for a in members:
        arcs.append((col_index[a], sink, demands[a]))
    value, _cut = max_flow(FlowNetwork(sink + 1, source, sink, tuple(arcs)))
    return value == total


def r_pqi_consent_flow(profile: Profile, subset, r: int, rule: SocialRule) -> bool:
    """Possible qualification under exactly-r rows, consent with t = 1.

    This is r_pqi_general's all-+1 branch.  With t = 1 a negative
    diagonal is hopeless and surplus +1 entries never hurt, so the
    question is pure supply and demand: route each row's mandatory +1
    count onto unknown cells of S-columns until every member's approval
    quota s is met.  Unknown diagonals are forced to +1 and consume one
    unit of their own row's need up front.
    """
    if rule.variant != "consent" or rule.t != 1 or rule.s < 2:
        raise PreconditionViolated("flow solver handles consent rules with t = 1 and s >= 2")
    return _r_pqi_branches(profile, subset, r, rule, (1,))


R_PQI_BRANCH_CAP = 4096  # diagonal branches r_pqi_general will try before refusing


def r_pqi_general(profile: Profile, subset, r: int, rule: SocialRule) -> bool:
    """Possible qualification under exactly-r rows, any consent rule.

    Branches over the unknown diagonals of queried members; per branch a
    member kept positive demands s approvals while a member kept
    negative demands enough +1 resolutions in its column to push the
    disqualifier count below t.  Each branch is a flow feasibility
    check; extra +1 units only ever help, so feasibility is exact.
    """
    if rule.variant != "consent":
        raise PreconditionViolated("the general r solver handles consent rules only")
    return _r_pqi_branches(profile, subset, r, rule, (1, -1))


def _r_pqi_branches(profile: Profile, subset, r: int, rule: SocialRule, values) -> bool:
    """Try every resolution of the members' unknown diagonals to a value in values.

    A branch is infeasible outright when a member's demand exceeds the
    unknown off-diagonal cells of its column, or a forced +1 diagonal
    overdraws its row; otherwise it is one flow feasibility check.
    """
    members = _check_query(profile, subset, rule)
    base_needs = row_needs(profile, r)
    star_diags = list(bits(mask_of(members) & ~profile.diag_known))
    branches = len(values) ** len(star_diags)
    if branches > R_PQI_BRANCH_CAP:
        raise InstanceTooLarge("%d diagonal branches exceed cap %d" % (branches, R_PQI_BRANCH_CAP))
    for choice in itertools.product(values, repeat=len(star_diags)):
        resolved = dict(zip(star_diags, choice))
        needs = list(base_needs)
        demands = {}
        for a in members:
            star = 1 if a in resolved else 0  # the diagonal counts on its resolved side
            off_diag_stars = profile.n - profile.col_known[a].bit_count() - star
            if resolved.get(a) == 1 or profile.diag_pos >> a & 1:
                needs[a] -= star
                if needs[a] < 0:
                    break
                demands[a] = max(0, rule.s - (profile.col_pos[a].bit_count() + star))
            else:
                disq = (profile.col_known[a] & ~profile.col_pos[a]).bit_count() + star
                demands[a] = max(0, disq + off_diag_stars - (rule.t - 1))
            if demands[a] > off_diag_stars:
                break
        else:
            if _star_flow_value(profile, members, needs, demands):
                return True
    return False


def r_nqi(profile: Profile, subset, r: int, rule: SocialRule) -> bool:
    """Necessary qualification under exactly-r rows.

    Handles consent rules for any quotas, and the sequential rules for
    r = 1, where each row's single +1 collapses them: the liberal rule
    returns exactly the self-approvers and the consensual rule returns
    the lone unanimous column or nothing.  A row whose need equals its
    unknown count must spend them all, so a column's forced mask holds
    its known +1 rows and the spend-all rows where it is unknown; every
    other row is dodgeable, a known -1 or an unknown in a row with slack
    to make it -1.  Rows dodge independently, so the per-member worst
    case is exact.
    """
    if rule.variant == "ternary":
        raise PreconditionViolated("the r solver handles consent, csr and lsr rules")
    if rule.variant in ("csr", "lsr") and r != 1:
        raise PreconditionViolated("sequential rules are only solved directly for r = 1")
    members = _check_query(profile, subset, rule)
    n = profile.n
    needs = row_needs(profile, r)
    spend_all = mask_of(b for b, (need, known) in enumerate(zip(needs, profile.row_known))
                        if need == n - known.bit_count())
    if rule.variant == "lsr":
        return not mask_of(members) & ~(profile.diag_pos | (~profile.diag_known & spend_all))

    def forced(a: int) -> int:
        return profile.col_pos[a] | (~profile.col_known[a] & spend_all)

    if rule.variant == "csr":
        return len(members) == 1 and forced(members[0]) == full_mask(n)
    for a in members:
        bit = 1 << a
        quals_off = (forced(a) & ~bit).bit_count()
        loses_as_plus = 1 + quals_off < rule.s
        # the n - 1 - quals_off dodgeable cells plus a's own -1
        loses_as_minus = n - quals_off >= rule.t
        if profile.diag_pos & bit:
            if loses_as_plus:
                return False
        elif profile.diag_known & bit:
            if loses_as_minus:
                return False
        else:
            if not spend_all & bit and loses_as_minus:
                return False
            if needs[a] >= 1 and loses_as_plus:
                return False
    return True


def answer_query(profile: Profile, query: PartialQuery, rule: SocialRule,
                 search: SearchBudget = DEFAULT_SEARCH) -> tuple[bool, str]:
    """Answer a qualification query, naming the solver that produced it."""
    if query.r is None:
        if query.mode == PQI:
            return pqi(profile, query, rule), "pqi"
        return nqi(profile, query, rule), "nqi"
    if query.mode == PQI and rule.variant == "consent":
        if rule.t == 1 and rule.s >= 2:
            return r_pqi_consent_flow(profile, query.subset, query.r, rule), "r_pqi_consent_flow"
        return r_pqi_general(profile, query.subset, query.r, rule), "r_pqi_general"
    if query.mode == NQI and (rule.variant == "consent"
                              or (rule.variant in ("csr", "lsr") and query.r == 1)):
        return r_nqi(profile, query.subset, query.r, rule), "r_nqi"
    possible, necessary = pqi_nqi_brute(profile, query.subset, rule, r=query.r, search=search)
    return (possible if query.mode == PQI else necessary), "brute"
