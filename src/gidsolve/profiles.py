"""Qualification profiles, social rules, and rule evaluation.

A profile stores who considers whom qualified.  Rows are evaluators and
columns are evaluated individuals: entry(a, b) is the opinion of a about b.
Three profile kinds share one representation: binary (+1/-1 everywhere),
ternary (+1/-1/star on any entry), and partial (+1/-1/unset).  Each row is
kept as a pair of bitmasks (positive mask, known mask); star and unset are
both "known bit clear", told apart by the profile kind.

Cell grids come in only through make_profile and the generators.
parse_profile reads each row line of the text straight into its masks, and
format_profile writes the text from them.  Every derived profile (the
bribed and flipped profiles check_witness builds, negate, the canonical
extensions, completion enumeration) is built from new row masks.

The rows are the only eager state.  Profile.__post_init__ computes the
diagonal views in one pass; the column views col_pos/col_known are built by
Profile._columns the first time a consent/ternary evaluation or a solver
reads them, and kept.  csr and lsr read rows only: a member joins once an
already qualified member approves them, so each round is an OR of rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    IndexOutOfRange,
    ParseError,
    PreconditionViolated,
    QuotaConstraintViolated,
    RuleNotApplicable,
)

PLUS = 1
MINUS = -1
UNKNOWN = 0

KINDS = ("binary", "ternary", "partial")


def full_mask(n: int) -> int:
    return (1 << n) - 1


def mask_of(indices) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def bits(mask: int):
    """Yield set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _index_mask(indices, n: int, error=IndexOutOfRange) -> int:
    """Mask of indices; raises error at the first one, in iteration order, outside 0..n-1."""
    mask = 0
    for i in indices:
        if not 0 <= i < n:
            raise error("individual index %d out of range for n=%d" % (i, n))
        mask |= 1 << i
    return mask


def default_names(n: int) -> tuple[str, ...]:
    return tuple("a%d" % (i + 1) for i in range(n))


@dataclass(frozen=True)
class Profile:
    n: int
    kind: str
    names: tuple[str, ...]
    row_pos: tuple[int, ...]
    row_known: tuple[int, ...]
    # diagonal views, built eagerly by __post_init__ in one pass over the rows
    diag_pos: int = field(init=False, compare=False, repr=False)
    diag_known: int = field(init=False, compare=False, repr=False)
    # column views (col_pos, col_known), None until _columns first builds
    # them; csr/lsr never read them
    _col_views: tuple[tuple[int, ...], tuple[int, ...]] | None = field(
        init=False, compare=False, repr=False, default=None)

    def __post_init__(self):
        dpos = 0
        dknown = 0
        bit = 1
        for rp, rk in zip(self.row_pos, self.row_known):
            dpos |= rp & bit
            dknown |= rk & bit
            bit <<= 1
        object.__setattr__(self, "diag_pos", dpos)
        object.__setattr__(self, "diag_known", dknown)

    def _columns(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Return (col_pos, col_known), transposing the rows on the first call.

        The views are a pure function of the rows, so two racing first calls
        only build the same tuples twice.
        """
        views = self._col_views
        if views is None:
            n = self.n
            full = full_mask(n)
            cpos = [0] * n
            cknown = [full] * n
            bit = 1
            # bits() inlined: this transpose dominates a consent evaluation of
            # a fresh profile
            for rp, rk in zip(self.row_pos, self.row_known):
                while rp:
                    low = rp & -rp
                    cpos[low.bit_length() - 1] |= bit
                    rp ^= low
                # binary profiles have no unknown cells, so this loop is empty
                missing = full & ~rk
                while missing:
                    low = missing & -missing
                    cknown[low.bit_length() - 1] &= ~bit
                    missing ^= low
                bit <<= 1
            views = (tuple(cpos), tuple(cknown))
            object.__setattr__(self, "_col_views", views)
        return views

    @property
    def col_pos(self) -> tuple[int, ...]:
        """col_pos[b]: mask of the individuals a with phi(a, b) = +1."""
        return self._columns()[0]

    @property
    def col_known(self) -> tuple[int, ...]:
        """col_known[b]: mask of the individuals a whose entry phi(a, b) is known."""
        return self._columns()[1]

    def entry(self, a: int, b: int) -> int:
        """Return phi(a, b): +1, -1, or 0 for star/unset."""
        n = self.n
        if not (0 <= a < n and 0 <= b < n):
            _index_mask((a, b), n)  # raises, naming the first index out of range
        bit = 1 << b
        if not self.row_known[a] & bit:
            return UNKNOWN
        return PLUS if self.row_pos[a] & bit else MINUS

    def row(self, a: int) -> list[int]:
        _index_mask((a,), self.n)
        rp = self.row_pos[a]
        rk = self.row_known[a]
        out = []
        for b in range(self.n):
            bit = 1 << b
            if not rk & bit:
                out.append(UNKNOWN)
            else:
                out.append(PLUS if rp & bit else MINUS)
        return out

    def rows(self) -> list[list[int]]:
        return [self.row(a) for a in range(self.n)]

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ParseError("unknown individual name: %s" % name) from None

    def unknown_cells(self) -> list[tuple[int, int]]:
        """All (a, b) positions whose entry is star/unset, row-major order."""
        out = []
        for a in range(self.n):
            missing = full_mask(self.n) & ~self.row_known[a]
            for b in bits(missing):
                out.append((a, b))
        return out


def make_profile(rows, kind: str = "binary", names=None) -> Profile:
    """Build a Profile from a square grid of +1/-1/0 cell values."""
    if kind not in KINDS:
        raise ParseError("unknown profile kind: %s" % kind)
    rows = [list(r) for r in rows]
    n = len(rows)
    if names is None:
        names = default_names(n)
    names = tuple(names)
    if len(names) != n:
        raise ParseError("profile has %d rows but %d names" % (n, len(names)))
    if len(set(names)) != n:
        raise ParseError("duplicate individual names")
    row_pos = []
    row_known = []
    for a, r in enumerate(rows):
        if len(r) != n:
            raise ParseError("row %d has %d cells, want %d" % (a, len(r), n))
        rp = rk = 0
        for b, v in enumerate(r):
            if v == PLUS:
                rp |= 1 << b
                rk |= 1 << b
            elif v == MINUS:
                rk |= 1 << b
            elif v == UNKNOWN:
                if kind == "binary":
                    raise ParseError("binary profile cannot hold a star/unset cell")
            else:
                raise ParseError("bad cell value %r at (%d, %d)" % (v, a, b))
        row_pos.append(rp)
        row_known.append(rk)
    return Profile(n=n, kind=kind, names=names, row_pos=tuple(row_pos), row_known=tuple(row_known))


@dataclass(frozen=True)
class SocialRule:
    """Rule selector: consent(s,t), csr, lsr, or ternary(s,s',t).

    For the ternary variant s_prime=None selects the majority quota
    ceil((n+1)/2), resolved against the profile size at evaluation time.
    """

    variant: str
    s: int | None = None
    t: int | None = None
    s_prime: int | None = None

    @staticmethod
    def consent(s: int, t: int) -> "SocialRule":
        _check_quota("s", s)
        _check_quota("t", t)
        return SocialRule("consent", s=s, t=t)

    @staticmethod
    def csr() -> "SocialRule":
        return SocialRule("csr")

    @staticmethod
    def lsr() -> "SocialRule":
        return SocialRule("lsr")

    @staticmethod
    def ternary(s: int, s_prime: int | None, t: int) -> "SocialRule":
        _check_quota("s", s)
        _check_quota("t", t)
        if s_prime is not None:
            _check_quota("s'", s_prime)
        return SocialRule("ternary", s=s, t=t, s_prime=s_prime)

    def majority_quota(self, n: int) -> int:
        # ceil((n + 1) / 2)
        return (n + 2) // 2

    def effective_s_prime(self, n: int) -> int:
        if self.s_prime is None:
            return self.majority_quota(n)
        return self.s_prime

    def ensure_quota_bound(self, n: int):
        """Consent quotas on n individuals must satisfy s + t <= n + 2."""
        if self.variant == "consent" and self.s + self.t > n + 2:
            raise QuotaConstraintViolated(
                "consent quotas s=%d t=%d violate s + t <= n + 2 for n=%d" % (self.s, self.t, n)
            )

    def describe(self) -> str:
        if self.variant == "consent":
            return "consent %d %d" % (self.s, self.t)
        if self.variant == "ternary":
            mid = "*" if self.s_prime is None else str(self.s_prime)
            return "ternary %d %s %d" % (self.s, mid, self.t)
        return self.variant


def _check_quota(label: str, value):
    if not isinstance(value, int) or value < 1:
        raise ParseError("quota %s must be a positive integer, got %r" % (label, value))


def parse_rule_tokens(tokens: list[str]) -> SocialRule:
    """Parse a rule from tokens like ['consent','2','1'] or ['ternary','2','*','2']."""
    if not tokens:
        raise ParseError("empty rule")
    head = tokens[0]
    if head == "csr" or head == "lsr":
        if len(tokens) != 1:
            raise ParseError("rule %s takes no quotas" % head)
        return SocialRule.csr() if head == "csr" else SocialRule.lsr()
    if head == "consent":
        if len(tokens) != 3:
            raise ParseError("rule consent takes two quotas")
        return SocialRule.consent(_parse_int(tokens[1]), _parse_int(tokens[2]))
    if head == "ternary":
        if len(tokens) != 4:
            raise ParseError("rule ternary takes three quotas")
        mid = None if tokens[2] == "*" else _parse_int(tokens[2])
        return SocialRule.ternary(_parse_int(tokens[1]), mid, _parse_int(tokens[3]))
    raise ParseError("unknown rule: %s" % head)


def _parse_int(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError("bad integer: %s" % token) from None


@dataclass(frozen=True)
class EvalTrace:
    """CSR/LSR round sets K0, K1, ..., K_final; the fixed point is stored once."""

    rounds: tuple[frozenset[int], ...]


@dataclass(frozen=True)
class Digraph:
    n: int
    names: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]


def ensure_applicable(rule: SocialRule, profile: Profile):
    """Check rule/profile kind compatibility and the consent quota bound."""
    if rule.variant == "ternary":
        if profile.kind not in ("binary", "ternary"):
            raise RuleNotApplicable("ternary rule needs a binary or ternary profile, got %s" % profile.kind)
        return
    if profile.kind != "binary":
        raise RuleNotApplicable("%s rule needs a binary profile, got %s" % (rule.variant, profile.kind))
    rule.ensure_quota_bound(profile.n)


def subset_mask(subset, profile: Profile) -> int:
    """Convert an iterable of indices (or None meaning all of N) to a mask."""
    if subset is None:
        return full_mask(profile.n)
    return _index_mask(subset, profile.n)


def eval_mask(rule: SocialRule, t_mask: int, profile: Profile) -> int:
    """Mask-level evaluation core; assumes rule applicability was checked.

    Callers run ensure_applicable once and may then evaluate any number of
    masks and profiles of the same n and kind.
    """
    if rule.variant in ("consent", "ternary"):
        return _quota_mask(rule, t_mask, profile)
    return _sequential_rounds(rule.variant, t_mask, profile)[-1]


def _quota_mask(rule: SocialRule, t_mask: int, profile: Profile) -> int:
    """consent(s, t) and ternary(s, s', t) on T, column by column.

    A member of T stands by its own diagonal once that side's count in its
    column, over T, reaches a quota.  Three diagonal cases:

    * self-approver (+1): qualified with at least s approvals;
    * self-disapprover (-1): disqualified with at least t disapprovals;
    * indifferent (star, ternary profiles only): qualified with at least
      s' approvals.

    Consent is the star-free case: binary profiles know every diagonal, so
    s' is read only on ternary profiles.
    """
    col_pos, col_known = profile._columns()
    diag_pos = profile.diag_pos
    diag_known = profile.diag_known
    s = rule.s
    t = rule.t
    result = 0
    # bits() inlined here and in _sequential_rounds: they run once per
    # candidate witness in the oracles
    rest = t_mask
    while rest:
        bit = rest & -rest
        rest ^= bit
        a = bit.bit_length() - 1
        if diag_pos & bit:
            if (col_pos[a] & t_mask).bit_count() >= s:
                result |= bit
        elif diag_known & bit:
            if (col_known[a] & ~col_pos[a] & t_mask).bit_count() < t:
                result |= bit
        elif (col_pos[a] & t_mask).bit_count() >= rule.effective_s_prime(profile.n):
            result |= bit
    return result


def _sequential_rounds(variant: str, t_mask: int, profile: Profile) -> list[int]:
    """Synchronous csr/lsr rounds K0, K1, ... up to the fixed point, from rows only.

    A member of T joins once some qualified member approves them, so each
    round adds T & ~K & OR(row_pos[b] for b in K); only the rows of members
    that joined in the last round are OR-ed in.
    """
    row_pos = profile.row_pos
    if variant == "csr":
        # the members everyone in T approves: the AND of the rows of T
        k = t_mask
        rest = t_mask
        while rest:
            low = rest & -rest
            k &= row_pos[low.bit_length() - 1]
            rest ^= low
    else:
        k = t_mask & profile.diag_pos
    rounds = [k]
    joined = k
    approved = 0
    while True:
        while joined:
            low = joined & -joined
            approved |= row_pos[low.bit_length() - 1]
            joined ^= low
        joined = approved & t_mask & ~k
        if not joined:
            return rounds
        k |= joined
        rounds.append(k)


def eval(rule: SocialRule, subset, profile: Profile, want_trace: bool = False):
    """Evaluate a social rule on subset T of the profile.

    Returns the socially qualified set as a frozenset of indices; with
    want_trace=True (csr/lsr only) returns (set, EvalTrace).
    """
    # the applicability check eval_mask and _sequential_rounds rely on
    ensure_applicable(rule, profile)
    t_mask = subset_mask(subset, profile)
    if rule.variant in ("csr", "lsr"):
        rounds = _sequential_rounds(rule.variant, t_mask, profile)
        result = frozenset(bits(rounds[-1]))
        if want_trace:
            return result, EvalTrace(tuple(frozenset(bits(m)) for m in rounds))
        return result
    if want_trace:
        raise PreconditionViolated("only csr and lsr produce an evaluation trace")
    return frozenset(bits(eval_mask(rule, t_mask, profile)))


def negate(profile: Profile) -> Profile:
    """Flip every entry sign; defined for binary profiles only."""
    if profile.kind != "binary":
        raise RuleNotApplicable("negate is defined for binary profiles only")
    flipped = tuple(known & ~pos for pos, known in zip(profile.row_pos, profile.row_known))
    return Profile(
        n=profile.n, kind="binary", names=profile.names, row_pos=flipped, row_known=profile.row_known
    )


def qualification_graph(profile: Profile) -> Digraph:
    """Directed graph with an edge (a, b) for every +1 entry; loops allowed."""
    if profile.kind != "binary":
        raise RuleNotApplicable("qualification graph is defined for binary profiles only")
    edges = []
    for a in range(profile.n):
        for b in bits(profile.row_pos[a]):
            edges.append((a, b))
    return Digraph(n=profile.n, names=profile.names, edges=tuple(edges))


def parse_profile(text: str) -> Profile:
    """Parse the line-based v1 profile format.

    Cell characters: '+' and '-' everywhere, '*' for star (ternary only),
    '?' for an unset cell (partial only).  Each row line is read straight
    into its (positive, known) masks.
    """
    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line]
    if not lines or lines[0] != "gid v1":
        raise ParseError("profile must start with 'gid v1'")
    if len(lines) < 3:
        raise ParseError("profile is missing kind/n headers")
    kind = _header(lines[1], "kind")
    if kind not in KINDS:
        raise ParseError("unknown profile kind: %s" % kind)
    n = _parse_int(_header(lines[2], "n"))
    if n < 0:
        raise ParseError("n must be non-negative")
    row_lines = lines[3:]
    if len(row_lines) != n:
        raise ParseError("expected %d row lines, got %d" % (n, len(row_lines)))
    names = []
    row_pos = []
    row_known = []
    for line in row_lines:
        parts = line.split()
        if len(parts) != n + 2 or parts[0] != "row":
            raise ParseError("bad row line: %s" % line)
        names.append(parts[1])
        rp = 0
        rk = 0
        for b, ch in enumerate(parts[2:]):
            if ch == "+":
                rp |= 1 << b
                rk |= 1 << b
            elif ch == "-":
                rk |= 1 << b
            elif ch == "*":
                if kind != "ternary":
                    raise ParseError("'*' cell is only valid in a ternary profile")
            elif ch == "?":
                if kind != "partial":
                    raise ParseError("'?' cell is only valid in a partial profile")
            else:
                raise ParseError("bad cell character: %s" % ch)
        row_pos.append(rp)
        row_known.append(rk)
    if len(set(names)) != n:
        raise ParseError("duplicate individual names")
    return Profile(n=n, kind=kind, names=tuple(names), row_pos=tuple(row_pos), row_known=tuple(row_known))


def format_profile(profile: Profile) -> str:
    unknown_char = "*" if profile.kind == "ternary" else "?"
    column_bits = [1 << b for b in range(profile.n)]
    out = ["gid v1", "kind %s" % profile.kind, "n %d" % profile.n]
    for name, rp, rk in zip(profile.names, profile.row_pos, profile.row_known):
        cells = ["+" if rp & bit else "-" if rk & bit else unknown_char for bit in column_bits]
        out.append("row %s %s" % (name, " ".join(cells)))
    return "\n".join(out) + "\n"


def _header(line: str, key: str) -> str:
    parts = line.split(None, 1)
    if len(parts) != 2 or parts[0] != key:
        raise ParseError("expected '%s <value>' header, got: %s" % (key, line))
    return parts[1].strip()


def names_of(profile: Profile, indices) -> list[str]:
    return [profile.names[i] for i in sorted(indices)]


def format_individual_set(profile: Profile, indices) -> str:
    members = names_of(profile, indices)
    return "{%s}" % ",".join(members)
