"""Shared fixtures for the test suite."""

from gidsolve.partial import _check_query
from gidsolve.profiles import Profile, SocialRule, bits, full_mask, make_profile

EX1_ROWS = [
    [1, 1, 1, -1, 1],
    [-1, -1, 1, -1, 1],
    [-1, 1, 1, -1, -1],
    [1, 1, 1, 1, -1],
    [-1, 1, 1, -1, -1],
]

EX1_TEXT = """gid v1
kind binary
n 5
row a1 + + + - +
row a2 - - + - +
row a3 - + + - -
row a4 + + + + -
row a5 - + + - -
"""


def ex1():
    return make_profile(EX1_ROWS)


def names(profile, indices):
    return sorted(profile.names[i] for i in indices)


def valid_rules(n, kind):
    """Rules applicable to an n-individual profile of the kind: every valid
    consent (s, t), csr, lsr and a ternary rule on binary profiles; a spread
    of ternary quotas on ternary ones."""
    if kind == "ternary":
        return [SocialRule.ternary(s, sp, t) for s in (1, 2) for sp in (None, 1, 2) for t in (1, 2)]
    consent = [SocialRule.consent(s, t) for s in range(1, n + 2) for t in range(1, n + 3 - s)]
    return consent + [SocialRule.csr(), SocialRule.lsr(), SocialRule.ternary(2, None, 1)]


def reference_rounds(rule, t, grid):
    """The rule on T straight from its definitions, over a cell grid whose
    grid[b][a] is phi(b, a): the csr/lsr rounds, or the one round of a quota
    rule.  The last round is the socially qualified subset of T."""
    t = frozenset(t)
    if rule.variant in ("csr", "lsr"):
        if rule.variant == "csr":
            k = frozenset(a for a in t if all(grid[b][a] == 1 for b in t))
        else:
            k = frozenset(a for a in t if grid[a][a] == 1)
        rounds = [k]
        while True:
            k = k | {a for a in t if any(grid[b][a] == 1 for b in k)}
            if k == rounds[-1]:
                return rounds
            rounds.append(k)
    out = set()
    for a in t:
        column = [grid[b][a] for b in t]
        if grid[a][a] == 1:
            ok = column.count(1) >= rule.s
        elif grid[a][a] == -1:
            ok = column.count(-1) < rule.t
        else:
            ok = column.count(1) >= rule.effective_s_prime(len(grid))
        if ok:
            out.add(a)
    return [frozenset(out)]


def _flips_diagonal(rule, n, quals_off):
    """Whether a member's unknown diagonal takes -sign in _extension's canonical
    completion with quals_off off-diagonal +1 cells in its column: only -1
    qualifies where +1 misses s and -1 stays under t (never under consent's
    quota bound)."""
    return quals_off + 1 < rule.s and n - quals_off < rule.t


def _extension(profile, wanted, rule, sign):
    """Binary completion resolving the unknowns to sign, for or against the
    checked query mask wanted: the reference the canonical-completion
    queries are checked against.

    For sign = +1 an unknown (b, a) turns +1 in every column under csr/lsr
    and in the members' columns otherwise, and -1 elsewhere; for sign = -1
    every unknown turns -1, but a ternary member's unknown diagonal takes
    -sign where _flips_diagonal says so.
    """
    n = profile.n
    full = full_mask(n)
    favoured = 0 if sign < 0 else (wanted if rule.column_local else full)
    pos = [rp | (~rk & favoured) for rp, rk in zip(profile.row_pos, profile.row_known)]
    if rule.variant == "ternary":
        for a in bits(wanted & ~profile.diag_known):
            if _flips_diagonal(rule, n, sum(pos[b] >> a & 1 for b in range(n) if b != a)):
                pos[a] ^= 1 << a
    return Profile(n=n, kind="binary", names=profile.names, row_pos=tuple(pos), row_known=(full,) * n)


def optimistic_extension(profile, subset, rule):
    """Completion resolving every unknown in favour of the queried set."""
    return _extension(profile, _check_query(profile, subset, rule), rule, 1)


def pessimistic_extension(profile, subset, rule):
    """Completion resolving every unknown against the queried set."""
    return _extension(profile, _check_query(profile, subset, rule), rule, -1)
