"""Instance generators: random profiles and planted-answer attacks.

Random profile generators cover the three profile kinds plus the
exactly-r row restriction; random_instance draws the random valid attack
instances that xval and the tests share.  The hard-instance generators
build attack instances whose answer is known at generation time: exact-cover
families are planted with a cover (or verified cover-free by exhaustive
search) and translated into bribery and control instances, and dummy
gadgets lift constructive instances to general or exact objectives
while forcing exactly one extra unit of budget onto the gadget.

Every generator is deterministic given its arguments; randomness only
enters through explicit seeds or a seeded rng.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .errors import InvalidR, PreconditionViolated
from .instances import AttackInstance, make_instance
from .profiles import Profile, SocialRule, default_names, full_mask, make_profile


def gen_random_profile(n: int, kind: str = "binary", star_density: float = 0.0,
                       seed: int = 0) -> Profile:
    """Random profile; star_density is the unknown/star rate per cell."""
    if n < 0:
        raise PreconditionViolated("profile size must be non-negative, got %d" % n)
    if not 0.0 <= star_density <= 1.0:
        raise PreconditionViolated("star density must lie in [0, 1], got %r" % (star_density,))
    if kind == "binary" and star_density > 0.0:
        raise PreconditionViolated("binary profiles cannot carry star entries")
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            if star_density > 0.0 and rng.random() < star_density:
                row.append(0)
            else:
                row.append(rng.choice((1, -1)))
        rows.append(row)
    return make_profile(rows, kind=kind)


def gen_random_r_profile(n: int, r: int, seed: int = 0) -> Profile:
    """Random binary profile whose rows hold exactly r positive entries."""
    if not 1 <= r <= n:
        raise InvalidR("r must satisfy 1 <= r <= n, got r=%d n=%d" % (r, n))
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        plus = set(rng.sample(range(n), r))
        rows.append([1 if b in plus else -1 for b in range(n)])
    return make_profile(rows, kind="binary")


def random_instance(rng: random.Random, family: str, objective: str, rule: SocialRule,
                    n: int) -> AttackInstance:
    """One random valid attack instance drawn from rng; the scheme is fixed, so
    seeds reproduce xval runs.  The caller refuses the shapes it cannot draw:
    n < 0, a rule not applicable at n, n < 1 for a constructive or destructive
    objective (one target at least), n < 2 for a general one or exact GCAI."""
    kind = "ternary" if rule.variant == "ternary" else "binary"
    density = 0.3 if kind == "ternary" else 0.0
    profile = gen_random_profile(n, kind, density, seed=rng.randrange(1 << 30))
    if family == "GCAI":
        low = 2 if objective in ("general", "exact") else 1
        pool = sorted(rng.sample(range(n), rng.randrange(low, n + 1)))
        domain = pool
    else:
        pool = None
        domain = list(range(n))
    aplus: list[int] = []
    aminus: list[int] = []
    if objective == "constructive":
        aplus = rng.sample(domain, rng.randrange(1, len(domain) + 1))
    elif objective == "destructive":
        aminus = rng.sample(domain, rng.randrange(1, len(domain) + 1))
    elif objective == "general":
        aplus = rng.sample(domain, rng.randrange(1, len(domain)))
        rest = [x for x in domain if x not in set(aplus)]
        aminus = rng.sample(rest, rng.randrange(1, len(rest) + 1))
    else:  # exact: targets partition the relevant cover
        aplus = rng.sample(domain, rng.randrange(0, len(domain) + 1))
        aminus = [x for x in domain if x not in set(aplus)]
    budget = None if family == "GCPI" else rng.randrange(0, n + 1)
    agent_prices = None
    pair_prices = None
    if family == "GB" and rng.random() < 0.3:
        agent_prices = {a: rng.randrange(1, 4) for a in range(n)}
    if family == "GMB" and rng.random() < 0.3:
        pair_prices = {(a, b): rng.randrange(1, 4) for a in range(n) for b in range(n)}
    return make_instance(profile, rule, family, objective, aplus=aplus, aminus=aminus, pool=pool,
                         budget=budget, agent_prices=agent_prices, pair_prices=pair_prices)


@dataclass(frozen=True)
class Rx3cInstance:
    """Exact-cover-by-3-sets instance with every element in 3 triples.

    The ground set is range(3 * m); triples is a family of 3 * m
    element triples (duplicates allowed); planted_cover optionally
    names m triple indices forming an exact cover.
    """

    m: int
    triples: tuple[frozenset[int], ...]
    planted_cover: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "triples", tuple(frozenset(t) for t in self.triples))
        if self.planted_cover is not None:
            object.__setattr__(self, "planted_cover", tuple(self.planted_cover))
        if self.m < 1:
            raise PreconditionViolated("cover size m must be positive, got %d" % self.m)
        ground = range(3 * self.m)
        if len(self.triples) != 3 * self.m:
            raise PreconditionViolated(
                "family must hold exactly %d triples, got %d" % (3 * self.m, len(self.triples))
            )
        counts = {x: 0 for x in ground}
        for triple in self.triples:
            if len(triple) != 3:
                raise PreconditionViolated("triples must have exactly three elements")
            for x in triple:
                if x not in counts:
                    raise PreconditionViolated("element %r outside the ground set" % (x,))
                counts[x] += 1
        bad = {x: c for x, c in counts.items() if c != 3}
        if bad:
            raise PreconditionViolated("element frequencies must all be 3, got %r" % (bad,))
        if self.planted_cover is not None:
            if len(self.planted_cover) != self.m:
                raise PreconditionViolated("a planted cover must name exactly m triples")
            seen: set[int] = set()
            for idx in self.planted_cover:
                if not 0 <= idx < len(self.triples):
                    raise PreconditionViolated("cover index %d out of range" % idx)
                if seen & self.triples[idx]:
                    raise PreconditionViolated("planted cover triples must be disjoint")
                seen |= self.triples[idx]
            if seen != set(ground):
                raise PreconditionViolated("planted cover must cover the ground set")

    @property
    def elements(self) -> range:
        return range(3 * self.m)


def has_exact_cover(rx3c: Rx3cInstance) -> bool:
    """Exhaustive search; only meant for desk-scale m."""
    ground = set(rx3c.elements)
    for combo in itertools.combinations(range(len(rx3c.triples)), rx3c.m):
        union: set[int] = set()
        ok = True
        for idx in combo:
            triple = rx3c.triples[idx]
            if union & triple:
                ok = False
                break
            union |= triple
        if ok and union == ground:
            return True
    return False


def gen_rx3c(m: int, seed: int = 0) -> Rx3cInstance:
    """Planted YES instance: three rotated partitions of a shuffled ground set."""
    if m < 1:
        raise PreconditionViolated("cover size m must be positive, got %d" % m)
    rng = random.Random(seed)
    labels = list(range(3 * m))
    rng.shuffle(labels)
    triples = []
    for shift in (0, 1, 2):
        for j in range(m):
            triples.append(
                frozenset(labels[(3 * j + shift + k) % (3 * m)] for k in range(3))
            )
    order = list(range(3 * m))
    rng.shuffle(order)
    cover = tuple(sorted(order.index(j) for j in range(m)))
    return Rx3cInstance(m, tuple(triples[i] for i in order), cover)


def gen_rx3c_no(m: int, seed: int = 0) -> Rx3cInstance:
    """Cover-free instance, verified by exhaustive search.

    Uses the rotation family {i, i+1, i+3} modulo 3m over a shuffled
    ground set.  Size m = 1 is rejected: with three elements every
    triple equals the whole ground set, so a cover always exists.
    """
    if m < 2:
        raise PreconditionViolated(
            "cover-free families need m >= 2; every m=1 family has a cover"
        )
    rng = random.Random(seed)
    labels = list(range(3 * m))
    rng.shuffle(labels)
    span = 3 * m
    triples = [
        frozenset(labels[j % span] for j in (i, i + 1, i + 3)) for i in range(span)
    ]
    order = list(range(span))
    rng.shuffle(order)
    out = Rx3cInstance(m, tuple(triples[i] for i in order), None)
    if has_exact_cover(out):
        raise PreconditionViolated("rotation family unexpectedly has a cover for m=%d" % m)
    return out


def rx3c_to_cgb(rx3c: Rx3cInstance) -> AttackInstance:
    """Constructive group bribery instance from an exact-cover family.

    Element individuals qualify each other (themselves included); each
    triple individual qualifies exactly the elements outside its
    triple, so every element column misses exactly one qualification
    against the quota s = 6m - 2.  Bribing the rows of a cover's
    triples to qualify everyone closes each gap exactly once, so the
    instance is YES precisely when the family has an exact cover.
    Remaining entries are fixed to -1 for reproducibility.
    """
    m = rx3c.m
    n = 6 * m
    rows = [[-1] * n for _ in range(n)]
    for x in range(3 * m):
        for y in range(3 * m):
            rows[x][y] = 1
    for j, triple in enumerate(rx3c.triples):
        for x in range(3 * m):
            rows[3 * m + j][x] = 1 if x not in triple else -1
    return make_instance(
        make_profile(rows, kind="binary"),
        SocialRule.consent(6 * m - 2, 1),
        "GB",
        "constructive",
        aplus=range(3 * m),
        budget=m,
    )


def rx3c_to_cgcai_r(rx3c: Rx3cInstance, variant: str = "consent", t: int = 1,
                    scrub_element: int | None = None) -> AttackInstance:
    """Control-by-adding instance on an exactly-r profile from a cover family.

    consent variant (r = 3, s = 2): element individuals qualify
    themselves plus two fixed dummies, triple individuals qualify their
    three elements, and each of three dummies qualifies all dummies.
    lsr variant (r = 4): element individuals qualify the four dummies,
    triple individuals qualify themselves plus their elements, dummies
    qualify all dummies; qualification then spreads only from added
    self-qualifying triple individuals.  Either way the addable pool is
    the triple individuals and the instance is YES exactly when a
    cover exists.

    scrub_element repoints every qualification of one element at dummy
    d1 instead, preserving the exactly-r rows while leaving the element
    with no reachable second qualification: a NO instance at any size.
    """
    if variant not in ("consent", "lsr"):
        raise PreconditionViolated("variant must be consent or lsr, got %r" % (variant,))
    if t < 1:
        raise PreconditionViolated("threshold t must be positive, got %d" % t)
    m = rx3c.m
    dummies = 3 if variant == "consent" else 4
    r = dummies
    n = 6 * m + dummies
    d_base = 6 * m
    if scrub_element is not None and not 0 <= scrub_element < 3 * m:
        raise PreconditionViolated("scrub element %d outside the ground set" % scrub_element)
    rows = [[-1] * n for _ in range(n)]
    for x in range(3 * m):
        if variant == "consent":
            rows[x][x] = 1
            rows[x][d_base] = 1
            rows[x][d_base + 1] = 1
        else:
            for k in range(dummies):
                rows[x][d_base + k] = 1
    for j, triple in enumerate(rx3c.triples):
        row = rows[3 * m + j]
        if variant == "lsr":
            row[3 * m + j] = 1
        for x in triple:
            if x == scrub_element:
                row[d_base] = 1
            else:
                row[x] = 1
    for k in range(dummies):
        for k2 in range(dummies):
            rows[d_base + k][d_base + k2] = 1
    rule = SocialRule.consent(2, t) if variant == "consent" else SocialRule.lsr()
    return make_instance(
        make_profile(rows, kind="binary"),
        rule,
        "GCAI",
        "constructive",
        aplus=range(3 * m),
        pool=list(range(3 * m)) + list(range(d_base, n)),
        budget=m,
        r_restriction=r,
    )


def gen_planted_cgcdi(perturbed: bool = False) -> AttackInstance:
    """Small control-by-deleting instance with a known answer.

    Two self-disqualifying targets; three filler individuals carry the
    removable disqualifications, so deleting all three is the unique
    minimal attack (YES at budget 3).  The perturbed variant makes the
    first target disqualify the second: the disqualification cannot be
    deleted, so the instance is NO at every budget.
    """
    rows = [[1] * 5 for _ in range(5)]
    rows[0][0] = -1
    rows[1][1] = -1
    rows[2][0] = -1
    rows[3][0] = -1
    rows[4][1] = -1
    if perturbed:
        rows[0][1] = -1
    return make_instance(
        make_profile(rows, kind="binary"),
        SocialRule.consent(2, 2),
        "GCDI",
        "constructive",
        aplus=(0, 1),
        budget=3,
    )


def _with_dummies(profile: Profile, k: int, sign: int) -> Profile:
    """The binary profile grown by k dummies n..n+k-1, under default names.

    Every original disqualifies the dummies, except that for sign +1 it
    qualifies the first dummy d1 = n; every dummy row is all -sign.
    """
    n = profile.n
    full = full_mask(n + k)
    d1 = 1 << n if sign > 0 else 0
    dummy_row = 0 if sign > 0 else full
    return Profile(n=n + k, kind="binary", names=default_names(n + k),
                   row_pos=tuple(pos | d1 for pos in profile.row_pos) + (dummy_row,) * k,
                   row_known=(full,) * (n + k))


def _ensure_binary(instance: AttackInstance):
    # make_instance does not tie the profile kind to the rule, so a consent
    # source may come on a partial or ternary profile
    if instance.profile.kind != "binary":
        raise PreconditionViolated("the gadgets lift binary profiles, got a %s one" % instance.profile.kind)


def augment_to_general(instance: AttackInstance, flavor: str) -> AttackInstance:
    """Lift a constructive consent control instance to the general objective.

    Both flavours add one signed gadget: sign +1 for gcai with k = t
    dummies, sign -1 for gcdi with k = s dummies.  Every original
    disqualifies the dummies, except that under +1 everyone original
    qualifies d1; every dummy row is all -sign.  d1 becomes the
    disqualification target and the budget grows by one.

    gcai (needs t >= 2, every target self-qualifying): d1..d(t-1) join the
    starting pool and dt is addable, so d1 starts with t - 1 disqualifiers
    and stays qualified until the lone addable disqualifier is brought in.
    gcdi (needs s >= 2, every target self-disqualifying): the s
    all-qualifying dummies are the only qualifiers of d1, so exactly one
    of d2..ds must be deleted.  Either gadget pins one unit of the
    incremented budget, leaving the rest of the problem equivalent to the
    source; targets insensitive to the dummies' uniform rows keep the
    source dynamics intact.  The exactly-r row restriction, if any, is
    dropped: gadget columns change the row sums.
    """
    if instance.rule.variant != "consent":
        raise PreconditionViolated("the general-objective gadgets are consent constructions")
    _ensure_binary(instance)
    if instance.objective != "constructive":
        raise PreconditionViolated("augmentation starts from a constructive instance")
    if not instance.aplus:
        raise PreconditionViolated("augmentation needs a nonempty qualification side")
    if instance.budget is None:
        raise PreconditionViolated("the gadget pins one unit of budget, so a budget is required")
    if flavor == "gcai":
        sign, family, gadget, quota, k = 1, "GCAI", "adding", "t", instance.rule.t
    elif flavor == "gcdi":
        sign, family, gadget, quota, k = -1, "GCDI", "deleting", "s", instance.rule.s
    else:
        raise PreconditionViolated("flavor must be gcai or gcdi, got %r" % (flavor,))
    if instance.family != family:
        raise PreconditionViolated("%s flavor expects a control-by-%s instance" % (flavor, gadget))
    if sign > 0 and instance.pool is None:
        raise PreconditionViolated("GCAI instance needs a pool")
    if k < 2:
        raise PreconditionViolated("the %s gadget needs %s >= 2" % (gadget, quota))
    profile = instance.profile
    for a in instance.aplus:
        if profile.entry(a, a) != sign:
            raise PreconditionViolated("the %s gadget needs self-%s targets"
                                       % (gadget, "qualifying" if sign > 0 else "disqualifying"))
    n = profile.n
    pool = set(instance.pool) | set(range(n, n + k - 1)) if sign > 0 else None
    return make_instance(
        _with_dummies(profile, k, sign),
        instance.rule,
        family,
        "general",
        aplus=instance.aplus,
        aminus=(n,),
        pool=pool,
        budget=instance.budget + 1,
    )


def augment_to_exact_partition(instance: AttackInstance) -> AttackInstance:
    """Lift a constructive consent partition instance to the exact objective.

    Adds s dummies who qualify everyone but are disqualified by every
    original individual.  Since all originals disqualify themselves,
    their statuses never depend on the dummies; the dummies themselves
    survive a partition stage only if all s share a side, so any
    successful attack splits them and they vanish.  The disqualified
    side becomes the dummies plus every original outside the target
    set, making target coverage exact.
    """
    if instance.family != "GCPI" or instance.rule.variant != "consent":
        raise PreconditionViolated("the exact gadget lifts consent partition instances")
    _ensure_binary(instance)
    if instance.objective != "constructive":
        raise PreconditionViolated("augmentation starts from a constructive instance")
    s = instance.rule.s
    if s < 2:
        raise PreconditionViolated("the exact gadget needs s >= 2")
    profile = instance.profile
    n = profile.n
    for a in range(n):
        if profile.entry(a, a) != -1:
            raise PreconditionViolated("the exact gadget needs all originals self-disqualifying")
    aminus = set(range(n, n + s)) | (set(range(n)) - set(instance.aplus))
    return make_instance(
        _with_dummies(profile, s, -1),
        instance.rule,
        "GCPI",
        "exact",
        aplus=instance.aplus,
        aminus=aminus,
    )
