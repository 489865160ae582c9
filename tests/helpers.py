"""Shared fixtures for the test suite."""

import random

from gidsolve.profiles import SocialRule, make_profile

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


def random_binary(n, seed):
    rng = random.Random(seed)
    return make_profile([[rng.choice((1, -1)) for _ in range(n)] for _ in range(n)])


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
