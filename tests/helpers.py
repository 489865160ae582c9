"""Shared fixtures for the test suite."""

import random

from gidsolve.profiles import make_profile

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
