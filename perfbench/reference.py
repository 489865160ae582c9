"""Reference checker written from the definitions, apart from gidsolve.

Profiles are plain lists of lists: phi[a][b] is the opinion of a about b,
+1, -1, or 0 for a star/unknown cell.  Rules are (variant, s, s_prime, t)
tuples.  Nothing here calls gidsolve; the decoders below only read the
fields of gidsolve's records.
"""

from __future__ import annotations

import itertools
import math


# -- reading gidsolve records ------------------------------------------------

def grid_of(profile):
    """Decode a gidsolve Profile's row bitmasks into a list-of-lists grid."""
    n = profile.n
    grid = []
    for a in range(n):
        pos, known = profile.row_pos[a], profile.row_known[a]
        grid.append([(1 if pos >> b & 1 else -1) if known >> b & 1 else 0 for b in range(n)])
    return grid


def rule_of(rule):
    return (rule.variant, rule.s, rule.s_prime, rule.t)


def parse_rule_spec(spec):
    """'consent:2,1', 'csr', 'lsr', 'ternary:2,*,2' -> rule tuple."""
    head, _, rest = spec.partition(":")
    if head in ("csr", "lsr"):
        return (head, None, None, None)
    parts = rest.split(",")
    if head == "consent":
        return ("consent", int(parts[0]), None, int(parts[1]))
    return ("ternary", int(parts[0]), None if parts[1] == "*" else int(parts[1]), int(parts[2]))


class Inst:
    """Plain copy of an attack instance."""

    def __init__(self, inst):
        self.phi = grid_of(inst.profile)
        self.n = inst.profile.n
        self.ternary = inst.profile.kind == "ternary"
        self.rule = rule_of(inst.rule)
        self.family = inst.family
        self.objective = inst.objective
        self.aplus = set(inst.aplus)
        self.aminus = set(inst.aminus)
        self.pool = None if inst.pool is None else set(inst.pool)
        self.budget = inst.budget
        self.agent_prices = dict(inst.agent_prices)
        self.pair_prices = dict(inst.pair_prices)


# -- rules -------------------------------------------------------------------

def evaluate(rule, phi, subset=None):
    """Socially qualified members of subset (default: everyone) under rule."""
    n = len(phi)
    t_set = set(range(n)) if subset is None else set(subset)
    variant, s, s_prime, t = rule
    if variant in ("consent", "ternary"):
        if s_prime is None:
            s_prime = (n + 2) // 2  # ceil((n + 1) / 2)
        out = set()
        for a in t_set:
            plus = sum(1 for b in t_set if phi[b][a] == 1)
            minus = sum(1 for b in t_set if phi[b][a] == -1)
            own = phi[a][a]
            if own == 1:
                ok = plus >= s
            elif own == -1:
                ok = minus < t
            else:
                ok = plus >= s_prime
            if ok:
                out.add(a)
        return out
    return sequential_rounds(rule, phi, t_set)[-1]


def sequential_rounds(rule, phi, subset=None):
    """Round sets K0, K1, ..., K_final of csr/lsr on subset (default: everyone)."""
    t_set = set(range(len(phi))) if subset is None else set(subset)
    if rule[0] == "csr":
        k = {a for a in t_set if all(phi[b][a] == 1 for b in t_set)}
    else:
        k = {a for a in t_set if phi[a][a] == 1}
    rounds = [k]
    while True:
        new = {a for a in t_set - k if any(phi[b][a] == 1 for b in k)}
        if not new:
            return rounds
        k = k | new
        rounds.append(k)


# -- witnesses ---------------------------------------------------------------

def objective_met(inst, final):
    if inst.objective == "constructive":
        return inst.aplus <= final
    if inst.objective == "destructive":
        return not (inst.aminus & final)
    return inst.aplus <= final and not (inst.aminus & final)


def apply_witness(inst, kind, members=(), rows=(), flips=()):
    """Apply a witness; return the final qualified set, or None when the
    witness leaves its domain or its budget."""
    n = inst.n
    everyone = set(range(n))
    members = set(members)
    if not members <= everyone:
        return None
    if kind == "added":
        pool = inst.pool or set()
        if members & pool or len(members) > inst.budget:
            return None
        return evaluate(inst.rule, inst.phi, pool | members)
    if kind == "deleted":
        if members & (inst.aplus | inst.aminus) or len(members) > inst.budget:
            return None
        return evaluate(inst.rule, inst.phi, everyone - members)
    if kind == "partition":
        left = evaluate(inst.rule, inst.phi, members)
        right = evaluate(inst.rule, inst.phi, everyone - members)
        return evaluate(inst.rule, inst.phi, left | right)
    if kind == "bribed":
        phi = [list(r) for r in inst.phi]
        cost = 0
        for a, cells in rows:
            allowed = (1, -1, 0) if inst.ternary else (1, -1)
            if not 0 <= a < n or len(cells) != n or any(v not in allowed for v in cells):
                return None
            phi[a] = list(cells)
            cost += inst.agent_prices.get(a, 1)
        if cost > inst.budget:
            return None
        return evaluate(inst.rule, phi, None)
    if kind == "flipped":
        phi = [list(r) for r in inst.phi]
        cost = 0
        seen = set()
        for a, b, v in flips:
            if not (0 <= a < n and 0 <= b < n) or (a, b) in seen:
                return None
            if v not in (1, -1) or inst.phi[a][b] == v:
                return None
            seen.add((a, b))
            phi[a][b] = v
            cost += inst.pair_prices.get((a, b), 1)
        if cost > inst.budget:
            return None
        return evaluate(inst.rule, phi, None)
    return None


def witness_ok(inst, solution):
    """True when a gidsolve Solution is in domain, in budget, and meets the objective."""
    expected = {"GCAI": "added", "GCDI": "deleted", "GCPI": "partition", "GB": "bribed",
                "GMB": "flipped"}[inst.family]
    if solution.kind != expected:
        return False
    final = apply_witness(inst, solution.kind, solution.members, solution.rows, solution.flips)
    return final is not None and objective_met(inst, final)


def start_set(inst):
    if inst.family == "GCAI":
        return evaluate(inst.rule, inst.phi, inst.pool or set())
    return evaluate(inst.rule, inst.phi, None)


def empty_witness_works(inst):
    kind = {"GCAI": "added", "GCDI": "deleted", "GCPI": "partition", "GB": "bribed",
            "GMB": "flipped"}[inst.family]
    return objective_met(inst, apply_witness(inst, kind))


def target_side_trivial(inst):
    """A nonempty target side the start population already satisfies."""
    start = start_set(inst)
    return bool(inst.aplus and inst.aplus <= start) or bool(inst.aminus and not inst.aminus & start)


def control_attack_exists(inst):
    """Exhaustive search over every control witness (small n only)."""
    n = inst.n
    if inst.family == "GCPI":
        rest = range(1, n)
        for size in range(n):
            for body in itertools.combinations(rest, size):
                final = apply_witness(inst, "partition", (0,) + body)
                if objective_met(inst, final):
                    return True
        return False
    if inst.family == "GCAI":
        domain, kind = sorted(set(range(n)) - (inst.pool or set())), "added"
    else:
        domain, kind = sorted(set(range(n)) - inst.aplus - inst.aminus), "deleted"
    for size in range(min(inst.budget, len(domain)) + 1):
        for members in itertools.combinations(domain, size):
            if objective_met(inst, apply_witness(inst, kind, members)):
                return True
    return False


# -- exact cover -------------------------------------------------------------

def has_exact_cover(triples, m):
    """Backtracking search for m disjoint triples covering range(3m)."""
    triples = [frozenset(t) for t in triples]
    ground = frozenset(range(3 * m))

    def search(covered):
        if covered == ground:
            return True
        x = min(ground - covered)
        return any(search(covered | t) for t in triples if x in t and not t & covered)

    return search(frozenset())


# -- partial profiles --------------------------------------------------------

def completions(phi, r=None):
    """Every completion of the unknown cells (exactly r positives per row if r)."""
    n = len(phi)
    if r is None:
        cells = [(a, b) for a in range(n) for b in range(n) if phi[a][b] == 0]
        for values in itertools.product((1, -1), repeat=len(cells)):
            grid = [list(row) for row in phi]
            for (a, b), v in zip(cells, values):
                grid[a][b] = v
            yield grid
        return
    options = []
    for row in phi:
        unknown = [b for b, v in enumerate(row) if v == 0]
        need = r - sum(1 for v in row if v == 1)
        if need < 0 or need > len(unknown):
            return
        options.append([(unknown, set(c)) for c in itertools.combinations(unknown, need)])
    for choice in itertools.product(*options):
        grid = [list(row) for row in phi]
        for a, (unknown, plus) in enumerate(choice):
            for b in unknown:
                grid[a][b] = 1 if b in plus else -1
        yield grid


def count_completions(phi, r=None):
    total = 1
    for row in phi:
        unknown = sum(1 for v in row if v == 0)
        if r is None:
            total *= 2 ** unknown
        else:
            need = r - sum(1 for v in row if v == 1)
            total *= 0 if need < 0 or need > unknown else math.comb(unknown, need)
    return total


def possible_necessary(phi, subset, rule, r=None):
    """(PQI, NQI) of subset by enumerating completions."""
    wanted = set(subset)
    possible, necessary = False, True
    for grid in completions(phi, r):
        ok = wanted <= evaluate(rule, grid, None)
        possible = possible or ok
        necessary = necessary and ok
    return possible, necessary


# -- text formats ------------------------------------------------------------

def parse_gid(text):
    """(kind, names, grid) from '.gid' text."""
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if lines[0] != "gid v1":
        raise ValueError("not a gid v1 file")
    kind = lines[1].split()[1]
    n = int(lines[2].split()[1])
    names, grid = [], []
    cell = {"+": 1, "-": -1, "*": 0, "?": 0}
    for line in lines[3:3 + n]:
        parts = line.split()
        names.append(parts[1])
        grid.append([cell[c] for c in parts[2:]])
    return kind, names, grid


def format_gid(kind, names, grid):
    unknown = "*" if kind == "ternary" else "?"
    chars = {1: "+", -1: "-", 0: unknown}
    out = ["gid v1", "kind %s" % kind, "n %d" % len(grid)]
    for name, row in zip(names, grid):
        out.append("row %s %s" % (name, " ".join(chars[v] for v in row)))
    return "\n".join(out) + "\n"


def slack_stars(phi, rule, aplus, aminus):
    """Quota slack s* and t* of a consent instance (None where undefined)."""
    _variant, s, _sp, t = rule
    n = len(phi)

    def counts(a):
        plus = sum(1 for b in range(n) if phi[b][a] == 1)
        return plus, sum(1 for b in range(n) if phi[b][a] == -1)

    s_star = t_star = None
    if t == 1 and aplus and all(phi[a][a] == 1 for a in aplus):
        s_star = max(counts(a)[1] - max(0, s - counts(a)[0]) for a in aplus)
    if s == 1 and aminus and all(phi[a][a] == -1 for a in aminus):
        t_star = max(counts(a)[0] - max(0, t - counts(a)[1]) for a in aminus)
    return s_star, t_star
