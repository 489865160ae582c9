"""Exhaustive exact solvers: the ground truth every specialized algorithm
is validated against.

Deliberately the dumbest correct thing: enumerate candidate witnesses in
size-then-lexicographic order and let check_witness decide each one.  Each
oracle (and cgb_xp) only generates its candidates; _first_witness is the one
loop that counts them as nodes against the limit and checks them.  The
only cleverness allowed is cutting provably irrelevant degrees of freedom
(canonical bribery rewrites for column-local rules, a fixed pivot for the
symmetric partition question).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import profiles
from .errors import (
    InstanceTooLarge,
    InvalidR,
    NoRExtension,
    PreconditionViolated,
    WrongKind,
)
from .instances import (
    NO_VERDICT,
    AttackInstance,
    Solution,
    Verdict,
    check_witness,
    control_domain,
    effective_targets,
)
from .profiles import Profile, SocialRule


@dataclass(frozen=True)
class SearchBudget:
    node_limit: int | None = None


DEFAULT_SEARCH = SearchBudget()


def _subsets(domain, cap: int):
    """Subsets of domain with at most cap members, in size-then-lexicographic order."""
    return itertools.chain.from_iterable(itertools.combinations(domain, size) for size in range(cap + 1))


def _first_witness(instance: AttackInstance, candidates, search: SearchBudget) -> Verdict:
    """The one enumerate-and-check loop: each candidate counts one node against
    the limit, and the first one check_witness accepts is the witness."""
    for count, witness in enumerate(candidates, 1):
        if search.node_limit is not None and count > search.node_limit:
            raise InstanceTooLarge("candidate count exceeded node limit %d" % search.node_limit)
        if check_witness(instance, witness):
            return Verdict("YES", witness=witness)
    return NO_VERDICT


def solve_control_brute(instance: AttackInstance, search: SearchBudget = DEFAULT_SEARCH) -> Verdict:
    """Exact group-control solver by subset enumeration."""
    family = instance.family
    if family not in ("GCAI", "GCDI", "GCPI"):
        raise PreconditionViolated("control oracle handles GCAI/GCDI/GCPI, got %s" % family)
    n = instance.profile.n
    if family == "GCPI":
        # the partition question is symmetric in U vs N-U, so pin individual 0
        # (n = 0 has the one empty partition)
        pinned = (0,) if n else ()
        candidates = (Solution.partition(pinned + body) for body in _subsets(range(1, n), max(n - 1, 0)))
        return _first_witness(instance, candidates, search)
    if instance.budget is None:
        raise PreconditionViolated("%s instance needs a budget" % family)
    if family == "GCAI" and instance.pool is None:
        raise PreconditionViolated("GCAI instance needs a pool")
    domain = control_domain(instance)
    make = Solution.added if family == "GCAI" else Solution.deleted
    candidates = map(make, _subsets(domain, min(instance.budget, len(domain))))
    return _first_witness(instance, candidates, search)


def _closure_against(profile: Profile, seeds: frozenset, bribed: frozenset) -> int:
    """Grow seeds backwards along +1 rows of unbribed individuals.

    Any unbribed individual pointing a +1 edge at the grown set would drag
    it into a sequential-rule result the moment they qualify, so they must
    stay out as well.
    """
    bad = profiles.mask_of(seeds)
    while True:
        grown = bad
        for z in range(profile.n):
            if z in bribed or grown & (1 << z):
                continue
            if profile.row_pos[z] & bad:
                grown |= 1 << z
        if grown == bad:
            return bad
        bad = grown


def _sequential_rewrite(instance: AttackInstance, members) -> dict:
    """Best possible rewrite for csr/lsr bribery of the given set."""
    p = instance.profile
    _plus, minus = effective_targets(instance)
    bad = _closure_against(p, minus, frozenset(members))
    # every bribed member gets the same row: -1 exactly on the bad set
    row = [-1 if bad & (1 << b) else 1 for b in range(p.n)]
    return {a: row for a in members}


def _column_local_rewrites(instance: AttackInstance, members):
    """Candidate rewrites for consent/ternary bribery of the given set.

    Non-target columns cannot affect the objective, so only the target
    columns and each bribed target's own diagonal are degrees of freedom;
    the diagonal is branched exhaustively.
    """
    p = instance.profile
    targets_plus, targets_minus = effective_targets(instance)
    branch_members = [a for a in members if a in targets_plus or a in targets_minus]
    choices = []
    for a in branch_members:
        order = (1, -1) if a in targets_plus else (-1, 1)
        if p.kind == "ternary":
            order = order + (0,)
        choices.append(order)
    template = [1 if b in targets_plus else -1 for b in range(p.n)]
    for picks in itertools.product(*choices):
        diag = dict(zip(branch_members, picks))
        rows = {}
        for a in members:
            row = template.copy()
            row[a] = diag.get(a, -1)
            rows[a] = row
        yield rows


def solve_bribery_brute(instance: AttackInstance, search: SearchBudget = DEFAULT_SEARCH) -> Verdict:
    """Exact group-bribery solver: enumerate bribed sets, rewrite canonically."""
    if instance.family != "GB":
        raise PreconditionViolated("bribery oracle handles GB, got %s" % instance.family)
    if instance.budget is None:
        raise PreconditionViolated("GB instance needs a budget")
    n = instance.profile.n
    sequential = instance.rule.variant in ("csr", "lsr")

    def candidates():
        for members in _subsets(range(n), min(instance.budget, n)):
            if instance.cost_of_agents(members) > instance.budget:
                continue
            if sequential and members:
                yield Solution.bribed(_sequential_rewrite(instance, members))
            else:
                yield from map(Solution.bribed, _column_local_rewrites(instance, members))

    return _first_witness(instance, candidates(), search)


def _pair_domain(instance: AttackInstance) -> list:
    n = instance.profile.n
    if instance.rule.variant in ("csr", "lsr"):
        return [(a, b) for a in range(n) for b in range(n)]
    # column-local rules: only incoming entries of targets matter
    cols = sorted(instance.targets())
    return [(b, a) for b in range(n) for a in cols]


def solve_microbribery_brute(instance: AttackInstance, search: SearchBudget = DEFAULT_SEARCH) -> Verdict:
    """Exact microbribery solver: enumerate entry sets and their new values."""
    if instance.family != "GMB":
        raise PreconditionViolated("microbribery oracle handles GMB, got %s" % instance.family)
    if instance.budget is None:
        raise PreconditionViolated("GMB instance needs a budget")
    p = instance.profile
    domain = _pair_domain(instance)
    candidates = (
        Solution.flipped(dict(zip(pairs, values)))
        for pairs in _subsets(domain, min(instance.budget, len(domain)))
        if instance.cost_of_pairs(pairs) <= instance.budget
        for values in itertools.product(*[[v for v in (1, -1) if v != p.entry(a, b)] for a, b in pairs])
    )
    return _first_witness(instance, candidates, search)


def row_needs(profile: Profile, r: int) -> list[int]:
    """Per-row count of unknown cells that must turn +1 for exactly r +1 entries."""
    if not isinstance(r, int) or r < 1:
        raise InvalidR("r must be a positive integer, got %r" % (r,))
    needs = []
    for name, pos, known in zip(profile.names, profile.row_pos, profile.row_known):
        plus = pos.bit_count()
        unknown = profile.n - known.bit_count()
        need = r - plus
        if need < 0 or need > unknown:
            raise NoRExtension(
                "row %s has %d fixed qualifications and %d unknowns, cannot reach r=%d"
                % (name, plus, unknown, r)
            )
        needs.append(need)
    return needs


def pqi_nqi_brute(profile: Profile, subset, rule: SocialRule, r: int | None = None,
                  search: SearchBudget = DEFAULT_SEARCH) -> tuple[bool, bool]:
    """Possible/necessary qualification of a whole set by extension enumeration."""
    if profile.kind == "ternary":
        raise WrongKind("qualification queries work on partial (or binary) profiles")
    wanted = frozenset(subset)
    profiles._index_mask(wanted, profile.n)
    if r is not None:
        full = profiles.full_mask(profile.n)
        per_row = [(list(profiles.bits(full & ~known)), need)
                   for known, need in zip(profile.row_known, row_needs(profile, r))]
        total = math.prod(math.comb(len(unknown), need) for unknown, need in per_row)
        if search.node_limit is not None and total > search.node_limit:
            raise InstanceTooLarge("%d r-extensions exceed node limit %d" % (total, search.node_limit))
        row_options = [
            [profiles.mask_of(plus_cells) for plus_cells in itertools.combinations(unknown, need)]
            for unknown, need in per_row
        ]
        completions = itertools.product(*row_options)
    else:
        unknown_cells = profile.unknown_cells()
        if search.node_limit is not None and 2 ** len(unknown_cells) > search.node_limit:
            raise InstanceTooLarge(
                "2^%d extensions exceed node limit %d" % (len(unknown_cells), search.node_limit)
            )

        def plus_masks(choice):
            masks = [0] * profile.n
            for (a, b), v in zip(unknown_cells, choice):
                if v == 1:
                    masks[a] |= 1 << b
            return masks

        completions = map(plus_masks, itertools.product((1, -1), repeat=len(unknown_cells)))

    # each completion is one +1 mask per row, set on top of the known +1 bits
    possible = False
    necessary = True
    full = profiles.full_mask(profile.n)
    wanted_mask = profiles.mask_of(wanted)
    all_known = (full,) * profile.n
    for count, plus in enumerate(completions):
        row_pos = tuple(pos | extra for pos, extra in zip(profile.row_pos, plus))
        extension = Profile(n=profile.n, kind="binary", names=profile.names,
                            row_pos=row_pos, row_known=all_known)
        if not count:
            # every extension is binary on the same n, so one applicability
            # check covers them all; eval_mask relies on it
            profiles.ensure_applicable(rule, extension)
        ok = not wanted_mask & ~profiles.eval_mask(rule, full, extension)
        possible = possible or ok
        necessary = necessary and ok
        if possible and not necessary:
            break
    return possible, necessary
