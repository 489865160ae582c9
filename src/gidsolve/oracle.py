"""Exhaustive exact solvers: the ground truth every specialized algorithm
is validated against.

Deliberately the dumbest correct thing: enumerate candidate witnesses in
size-then-lexicographic order and judge each one.  Each oracle (and the
cgb_xp/dgb_xp search) only generates its candidates, as masks: the
population for adding and deleting, the left part U for a partition, the
replaced rows' (pos, known) masks for microbribery and csr/lsr bribery,
and for column-local bribery (bribed, template, diag_pos, diag_known):
every bribed member gets the template row except on its own diagonal.
_first_witness is the one loop that counts them as nodes against the limit
and decides each, with the judgement core check_witness also uses
(instances._judge), or for column-local bribery with _target_column_judge,
which reads the target columns alone; only the accepted candidate becomes
a Solution, and that one witness is passed through check_witness before it
is returned.
The only cleverness allowed is cutting provably irrelevant degrees of
freedom (canonical bribery rewrites for column-local rules, a fixed pivot
for the symmetric partition question).  Both bribery oracles take their
bribed or flipped sets from _affordable.  The sliced solvers judge these
same candidates many at once, bit-sliced, and return the first witness
and the node count of an oracle: gcpi_sliced control_brute's, judging
every partition at once with individual a on bit n - 1 - a of the
position, so that within one size descending positions follow the
lexicographic order of the bodies; bribery_sliced bribery_brute's and
microbribery_sliced microbribery_brute's under csr and lsr, judging
_affordable's stream in windows of positions.
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
)
from .profiles import Profile, SocialRule, _column_qualifies, bits, ensure_applicable, full_mask, mask_of, row_cells


@dataclass(frozen=True)
class SearchBudget:
    """One search's node limit, None for unbounded; charge is the one refusal rule."""
    node_limit: int | None = None

    def charge(self, nodes: int, what: str = "candidate count exceeded") -> None:
        """Refuse nodes past the limit with InstanceTooLarge("<what> node limit N")."""
        if self.node_limit is not None and nodes > self.node_limit:
            raise InstanceTooLarge("%s node limit %d" % (what, self.node_limit))


DEFAULT_SEARCH = SearchBudget()


def _subsets(domain, cap: int):
    """Subsets of domain with at most cap members, in size-then-lexicographic order."""
    return itertools.chain.from_iterable(itertools.combinations(domain, size) for size in range(cap + 1))


def _affordable(prices, budget: int):
    """The index sets of _subsets(range(len(prices)), min(budget, len(prices)))
    whose price total is at most budget, in that order, for any int prices
    (the oracles skip validate).  Size s drops each item whose price plus s - 1
    smallest prices passes the budget, and sums no set once s largest fit."""
    if budget < 0:
        return
    yield ()
    cheapest = min(prices, default=0)
    for size in range(1, min(budget, len(prices)) + 1):
        floor = (size - 1) * cheapest
        items = [i for i, price in enumerate(prices) if price + floor <= budget]
        sets = itertools.combinations(items, size)
        if size * max([prices[i] for i in items], default=0) <= budget:
            yield from sets
        else:
            yield from (c for c in sets if sum(prices[i] for i in c) <= budget)


def _partition_candidates(n: int):
    """The left parts U of the partitions of n individuals, as masks, in the
    order GCPI searches judge them; the question is symmetric in U vs N-U, so
    individual 0 is pinned in U (n = 0 has the one empty partition)."""
    pinned = 1 if n else 0
    return (pinned | mask_of(body) for body in _subsets(range(1, n), max(n - 1, 0)))


def _first_witness(instance: AttackInstance, candidates, search: SearchBudget) -> Verdict:
    """The one enumerate-and-judge loop.

    Each candidate counts one node.  At most node_limit candidates are
    judged; a further one is charged as node_limit + 1, so limit 0 refuses
    before the judge is built.  The judge is built, with its one
    applicability check, at the first judged candidate, so a search with no
    candidates raises nothing.  A population or partition mask is judged on
    the instance's profile, replaced rows on the profile Profile._derive
    makes from them, and a column-local bribery candidate (bribed, template,
    diag_pos, diag_known) on the target columns alone (_target_column_judge),
    so no profile is derived for it.  The first accepted candidate is turned
    into its Solution, re-verified once by check_witness, and returned; a
    rejected candidate never becomes a Solution.
    """
    stream = iter(candidates)
    judge = None
    for candidate in itertools.islice(stream, search.node_limit):
        if judge is None:
            judge = _candidate_judge(instance)
        if judge(candidate):
            return _verified_yes(instance, _solution_of(instance, candidate))
    # no candidate is None, so None here means the stream has ended
    if search.node_limit is not None and next(stream, None) is not None:
        search.charge(search.node_limit + 1)
    return NO_VERDICT


def _candidate_judge(instance: AttackInstance):
    """judge(candidate) -> bool for the candidates of this instance's family."""
    kind = FAMILY_KIND[instance.family]
    if kind == "bribed" and instance.rule.column_local:
        return _target_column_judge(instance)
    judge = _judge(instance)
    p = instance.profile
    if kind in ("bribed", "flipped"):
        full = full_mask(p.n)
        return lambda rows: judge(full, p._derive(rows))
    return lambda population: judge(population, p)


def _target_column_judge(instance: AttackInstance):
    """judge(candidate) for column-local bribery, on the target columns only.

    A candidate (bribed, template, diag_pos, diag_known) gives every bribed
    member the template row, except on its own diagonal, whose bits are in
    diag_pos and diag_known.  In target column a, a bribed voter other than
    a casts the template's bit a, a's own cell is its diagonal pick when a
    is bribed, and every other cell is the instance's.  Building the judge
    runs _judge's applicability check: the bribed profile keeps n and kind.
    The targets are judged in ascending order, each by
    profiles._column_qualifies on its patched column over N, and the first
    target whose status misses the objective rejects the candidate.
    """
    rule = instance.rule
    p = instance.profile
    ensure_applicable(rule, p)
    plus, minus = instance._target_masks
    col_pos, col_known = p._columns()
    columns = [(1 << a, col_pos[a], col_known[a], bool(plus >> a & 1)) for a in bits(plus | minus)]
    n = p.n
    # bound once: the judge runs once per candidate
    qualifies = _column_qualifies

    def judge(candidate) -> bool:
        bribed, template, diag_pos, diag_known = candidate
        diag_pos |= p.diag_pos & ~bribed
        diag_known |= p.diag_known & ~bribed
        for bit, cpos, cknown, wanted in columns:
            others = bribed & ~bit
            pos = (cpos & ~bribed) | (others if template & bit else 0) | (diag_pos & bit)
            known = (cknown & ~bribed) | others | (diag_known & bit)
            if qualifies(rule, n, bit, pos, known) is not wanted:
                return False
        return True

    return judge


def _verified_yes(instance: AttackInstance, witness: Solution) -> Verdict:
    """YES with a solver's witness; check_witness rejecting it is an internal
    fault, so RuntimeError, never an error the CLI maps to an exit code."""
    if not check_witness(instance, witness):
        raise RuntimeError("check_witness rejects a witness the solver built")
    return Verdict("YES", witness=witness)


def _solution_of(instance: AttackInstance, candidate) -> Solution:
    """The public witness a mask candidate stands for: the members a
    population or partition mask names, the bribed rows' cells, or the
    entries a microbribery changes."""
    kind = FAMILY_KIND[instance.family]
    p = instance.profile
    if kind == "added":
        return Solution.added(bits(candidate & ~mask_of(instance.pool)))
    if kind == "deleted":
        return Solution.deleted(bits(full_mask(p.n) & ~candidate))
    if kind == "partition":
        return Solution.partition(bits(candidate))
    if kind == "bribed":
        if instance.rule.column_local:
            # every bribed row is the template but for its own diagonal cell
            bribed, template, diag_pos, diag_known = candidate
            full = full_mask(p.n)
            candidate = {a: ((template & ~(1 << a)) | (diag_pos & 1 << a), (full & ~(1 << a)) | (diag_known & 1 << a))
                         for a in bits(bribed)}
        return Solution.bribed({a: row_cells(pos, known, p.n) for a, (pos, known) in candidate.items()})
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
        return _first_witness(instance, _partition_candidates(n), search)
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
    bad = _closure_against(p, instance._target_masks[1], mask_of(members))
    # every bribed member gets the same row: -1 exactly on the bad set
    full = full_mask(p.n)
    row = (full & ~bad, full)
    return dict.fromkeys(members, row)


def _column_local_rewrites(instance: AttackInstance, members):
    """Candidate rewrites for consent/ternary bribery of the given set, as
    (bribed, template, diag_pos, diag_known) masks.

    Non-target columns cannot affect the objective, so only the target
    columns and each bribed target's own diagonal are degrees of freedom.
    Every bribed row is the template, which approves exactly the
    constructive targets, except on its own diagonal: a bribed target's is
    branched exhaustively (+1, -1, and star on a ternary profile), every
    other bribed diagonal is -1.
    """
    plus, minus = instance._target_masks
    bribed = mask_of(members)
    # each pick as its (pos, known) diagonal bits
    choices = []
    for a in bits(bribed & (plus | minus)):
        bit = 1 << a
        order = ((bit, bit), (0, bit)) if plus & bit else ((0, bit), (bit, bit))
        if instance.profile.kind == "ternary":
            order += ((0, 0),)
        choices.append(order)
    fixed = bribed & ~(plus | minus)
    for picks in itertools.product(*choices):
        diag_pos = 0
        diag_known = fixed
        for pos, known in picks:
            diag_pos |= pos
            diag_known |= known
        yield bribed, plus, diag_pos, diag_known


def solve_bribery_brute(instance: AttackInstance, search: SearchBudget = DEFAULT_SEARCH) -> Verdict:
    """Exact group-bribery solver: enumerate bribed sets, rewrite canonically."""
    if instance.family != "GB":
        raise PreconditionViolated("bribery oracle handles GB, got %s" % instance.family)
    if instance.budget is None:
        raise PreconditionViolated("GB instance needs a budget")
    n = instance.profile.n
    sequential = not instance.rule.column_local

    def candidates():
        for members in _affordable([instance.agent_price(a) for a in range(n)], instance.budget):
            if not sequential:
                yield from _column_local_rewrites(instance, members)
            else:
                yield _sequential_rewrite(instance, members) if members else {}

    return _first_witness(instance, candidates(), search)


def _pair_domain(instance: AttackInstance) -> list:
    n = instance.profile.n
    if not instance.rule.column_local:
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
        for chosen in _affordable([instance.pair_price(a, b) for a, b in domain], instance.budget)
        for flips in itertools.product(*[flips_of[domain[j]] for j in chosen])
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


def _query_mask(profile: Profile, subset) -> int:
    """Mask of a qualification query's set: ternary profiles are refused
    first, then the first index out of range in the set's own order."""
    if profile.kind == "ternary":
        raise WrongKind("qualification queries work on partial (or binary) profiles")
    return profiles._index_mask(frozenset(subset), profile.n)


def pqi_nqi_brute(profile: Profile, subset, rule: SocialRule, r: int | None = None,
                  search: SearchBudget = DEFAULT_SEARCH) -> tuple[bool, bool]:
    """Possible/necessary qualification of a whole set by extension enumeration.

    One enumerator serves both cases: each row's +1 options are exactly
    need of its unknown cells under r, or any subset of them without r,
    and one product over the rows' options yields every completion.
    After _query_mask's refusals come an invalid r or a row that cannot
    reach r (row_needs), then the extension count over the node limit.
    """
    wanted_mask = _query_mask(profile, subset)
    full = full_mask(profile.n)
    if r is not None:
        needs = row_needs(profile, r)
        total = math.prod(math.comb(profile.n - known.bit_count(), need)
                          for known, need in zip(profile.row_known, needs))
        search.charge(total, "%d r-extensions exceed" % total)
    else:
        unknown = sum(profile.n - known.bit_count() for known in profile.row_known)
        search.charge(2 ** unknown, "2^%d extensions exceed" % unknown)
        needs = (None,) * profile.n
    # every extension is binary on the same n, so this one check is the
    # applicability check of each of them, which eval_mask relies on
    rule.ensure_quota_bound(profile.n)
    row_options = []
    for known, need in zip(profile.row_known, needs):
        cells = list(bits(full & ~known))
        sizes = range(len(cells) + 1) if need is None else (need,)
        row_options.append([mask_of(plus) for size in sizes for plus in itertools.combinations(cells, size)])
    # each completion is one +1 mask per row, set on top of the known +1 bits
    possible = False
    necessary = True
    all_known = (full,) * profile.n
    for plus in itertools.product(*row_options):
        row_pos = tuple(pos | extra for pos, extra in zip(profile.row_pos, plus))
        extension = Profile(n=profile.n, kind="binary", names=profile.names,
                            row_pos=row_pos, row_known=all_known)
        ok = not wanted_mask & ~profiles.eval_mask(rule, full, extension, wanted_mask)
        possible = possible or ok
        necessary = necessary and ok
        if possible and not necessary:
            break
    return possible, necessary
