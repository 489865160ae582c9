"""Exhaustive exact solvers: the ground truth every specialized algorithm
is validated against.

Deliberately the dumbest correct thing: enumerate candidate witnesses in
size-then-lexicographic order and judge each one.  Each oracle (and the
cgb_xp/dgb_xp search) only generates its candidates, as masks: the
population for adding and deleting, the left part U for a partition, and
the replaced rows' (pos, known) masks for bribery and microbribery.
_first_witness is the one loop that counts them as nodes against the limit
and decides each with the judgement core check_witness also uses
(instances._judge); only the accepted candidate becomes a Solution, and
that one witness is passed through check_witness before it is returned.
The only cleverness allowed is cutting provably irrelevant degrees of
freedom (canonical bribery rewrites for column-local rules, a fixed pivot
for the symmetric partition question).
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
    FAMILY_KIND,
    NO_VERDICT,
    AttackInstance,
    Solution,
    Verdict,
    _flipped_rows,
    _judge,
    check_witness,
    control_domain,
    effective_targets,
)
from .profiles import Profile, SocialRule, bits, full_mask, mask_of


@dataclass(frozen=True)
class SearchBudget:
    node_limit: int | None = None


DEFAULT_SEARCH = SearchBudget()


def _subsets(domain, cap: int):
    """Subsets of domain with at most cap members, in size-then-lexicographic order."""
    return itertools.chain.from_iterable(itertools.combinations(domain, size) for size in range(cap + 1))


def _first_witness(instance: AttackInstance, candidates, search: SearchBudget) -> Verdict:
    """The one enumerate-and-judge loop.

    Each candidate counts one node against the limit.  The judge is built,
    with its one applicability check, at the first candidate, so a search
    with no candidates raises nothing.  A population or partition mask is
    judged on the instance's profile, replaced rows on the profile
    Profile._derive makes from them.  The first accepted candidate is
    turned into its Solution, re-verified once by check_witness, and
    returned; a rejected candidate never becomes a Solution.
    """
    kind = FAMILY_KIND[instance.family]
    p = instance.profile
    full = full_mask(p.n)
    replaces_rows = kind in ("bribed", "flipped")
    judge = None
    for count, candidate in enumerate(candidates, 1):
        if search.node_limit is not None and count > search.node_limit:
            raise InstanceTooLarge("candidate count exceeded node limit %d" % search.node_limit)
        if judge is None:
            judge = _judge(instance)
        profile = p._derive(candidate) if replaces_rows else p
        if judge(full if replaces_rows else candidate, profile):
            witness = _solution_of(instance, kind, candidate, profile)
            if not check_witness(instance, witness):
                raise RuntimeError("check_witness rejects a witness the search accepted")
            return Verdict("YES", witness=witness)
    return NO_VERDICT


def _solution_of(instance: AttackInstance, kind: str, candidate, profile: Profile) -> Solution:
    """The public witness a mask candidate stands for: the members a
    population or partition mask names, the bribed rows' cells as the
    derived profile holds them, or the entries a microbribery changes."""
    p = instance.profile
    if kind == "added":
        return Solution.added(bits(candidate & ~mask_of(instance.pool)))
    if kind == "deleted":
        return Solution.deleted(bits(full_mask(p.n) & ~candidate))
    if kind == "partition":
        return Solution.partition(bits(candidate))
    if kind == "bribed":
        return Solution.bribed({a: profile.row(a) for a in candidate})
    # every flip changes its entry, so the flips are the cells whose sign or
    # known bit differs from the instance's profile
    return Solution.flipped({
        (a, b): 1 if pos >> b & 1 else -1
        for a, (pos, known) in candidate.items()
        for b in bits((pos ^ p.row_pos[a]) | (known ^ p.row_known[a]))
    })


def solve_control_brute(instance: AttackInstance, search: SearchBudget = DEFAULT_SEARCH) -> Verdict:
    """Exact group-control solver by subset enumeration."""
    family = instance.family
    if family not in ("GCAI", "GCDI", "GCPI"):
        raise PreconditionViolated("control oracle handles GCAI/GCDI/GCPI, got %s" % family)
    n = instance.profile.n
    if family == "GCPI":
        # the partition question is symmetric in U vs N-U, so pin individual 0
        # (n = 0 has the one empty partition)
        pinned = 1 if n else 0
        candidates = (pinned | mask_of(body) for body in _subsets(range(1, n), max(n - 1, 0)))
        return _first_witness(instance, candidates, search)
    if instance.budget is None:
        raise PreconditionViolated("%s instance needs a budget" % family)
    if family == "GCAI" and instance.pool is None:
        raise PreconditionViolated("GCAI instance needs a pool")
    domain = control_domain(instance)
    subsets = map(mask_of, _subsets(domain, min(instance.budget, len(domain))))
    if family == "GCAI":
        pool = mask_of(instance.pool)
        candidates = (pool | added for added in subsets)
    else:
        full = full_mask(n)
        candidates = (full & ~deleted for deleted in subsets)
    return _first_witness(instance, candidates, search)


def _closure_against(profile: Profile, bad: int, bribed: int) -> int:
    """Grow the bad mask backwards along +1 rows of unbribed individuals.

    Any unbribed individual pointing a +1 edge at the grown set would drag
    it into a sequential-rule result the moment they qualify, so they must
    stay out as well.
    """
    unbribed = full_mask(profile.n) & ~bribed
    while True:
        grown = bad
        for z in bits(unbribed & ~bad):
            if profile.row_pos[z] & bad:
                grown |= 1 << z
        if grown == bad:
            return bad
        bad = grown


def _sequential_rewrite(instance: AttackInstance, members) -> dict:
    """Best possible rewrite for csr/lsr bribery of the given set, as row masks."""
    p = instance.profile
    _plus, minus = effective_targets(instance)
    bad = _closure_against(p, mask_of(minus), mask_of(members))
    # every bribed member gets the same row: -1 exactly on the bad set
    full = full_mask(p.n)
    row = (full & ~bad, full)
    return dict.fromkeys(members, row)


def _column_local_rewrites(instance: AttackInstance, members):
    """Candidate rewrites for consent/ternary bribery of the given set, as row masks.

    Non-target columns cannot affect the objective, so only the target
    columns and each bribed target's own diagonal are degrees of freedom;
    the diagonal is branched exhaustively (+1, -1, and star on a ternary
    profile), and every other bribed diagonal is -1.
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
    full = full_mask(p.n)
    # the template row approves exactly the constructive targets
    template = mask_of(targets_plus)
    for picks in itertools.product(*choices):
        diag = dict(zip(branch_members, picks))
        rows = {}
        for a in members:
            bit = 1 << a
            pick = diag.get(a, -1)
            rows[a] = ((template & ~bit) | (bit if pick == 1 else 0), full & ~bit if pick == 0 else full)
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
                yield _sequential_rewrite(instance, members)
            else:
                yield from _column_local_rewrites(instance, members)

    return _first_witness(instance, candidates(), search)


def _pair_domain(instance: AttackInstance) -> list:
    n = instance.profile.n
    if instance.rule.variant in ("csr", "lsr"):
        return [(a, b) for a in range(n) for b in range(n)]
    # column-local rules: only incoming entries of targets matter
    cols = sorted(instance.targets())
    return [(b, a) for b in range(n) for a in cols]


def solve_microbribery_brute(instance: AttackInstance, search: SearchBudget = DEFAULT_SEARCH) -> Verdict:
    """Exact microbribery solver: enumerate entry sets and their new values.

    Each candidate is the flipped rows' (pos, known) masks.
    """
    if instance.family != "GMB":
        raise PreconditionViolated("microbribery oracle handles GMB, got %s" % instance.family)
    if instance.budget is None:
        raise PreconditionViolated("GMB instance needs a budget")
    p = instance.profile
    domain = _pair_domain(instance)
    # each entry's flips: to the other sign, or to either sign from star
    flips_of = {(a, b): [(a, b, v) for v in (1, -1) if v != p.entry(a, b)] for a, b in domain}
    candidates = (
        _flipped_rows(p, flips)
        for pairs in _subsets(domain, min(instance.budget, len(domain)))
        if instance.cost_of_pairs(pairs) <= instance.budget
        for flips in itertools.product(*[flips_of[pair] for pair in pairs])
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
        full = full_mask(profile.n)
        per_row = [(list(bits(full & ~known)), need)
                   for known, need in zip(profile.row_known, row_needs(profile, r))]
        total = math.prod(math.comb(len(unknown), need) for unknown, need in per_row)
        if search.node_limit is not None and total > search.node_limit:
            raise InstanceTooLarge("%d r-extensions exceed node limit %d" % (total, search.node_limit))
        row_options = [
            [mask_of(plus_cells) for plus_cells in itertools.combinations(unknown, need)]
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

    # every extension is binary on the same n, so this one check is the
    # applicability check of each of them, which eval_mask relies on
    rule.ensure_quota_bound(profile.n)
    # each completion is one +1 mask per row, set on top of the known +1 bits
    possible = False
    necessary = True
    full = full_mask(profile.n)
    wanted_mask = mask_of(wanted)
    all_known = (full,) * profile.n
    for plus in completions:
        row_pos = tuple(pos | extra for pos, extra in zip(profile.row_pos, plus))
        extension = Profile(n=profile.n, kind="binary", names=profile.names,
                            row_pos=row_pos, row_known=all_known)
        ok = not wanted_mask & ~profiles.eval_mask(rule, full, extension)
        possible = possible or ok
        necessary = necessary and ok
        if possible and not necessary:
            break
    return possible, necessary
