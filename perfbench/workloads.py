"""The four benchmark workloads: seeded inputs, operations, and answer checks.

Each workload's build() makes a fixed list of operations from a seeded RNG.
An operation is a zero-argument callable that reaches gidsolve through
module attributes at call time, so the tracer's patches take effect.  The
suite is run in whole rounds; check() validates the answers of one round
against the reference checker and against relations the method must
satisfy, never against stored output.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import json
import os
import re

import reference as ref

TIMING = re.compile(r"((?:auto|brute)_ms) [0-9.]+")


@dataclasses.dataclass
class Op:
    label: str
    call: object
    meta: dict = dataclasses.field(default_factory=dict)


def count(base, size):
    return max(1, round(base * size))


def seed_of(rng):
    return rng.randrange(1 << 30)


# -- attack instances --------------------------------------------------------

def pick_targets(rng, domain, objective):
    """Up to three targets a side; exact objectives split the whole domain."""
    if objective == "constructive":
        return rng.sample(domain, rng.randint(1, min(3, len(domain)))), []
    if objective == "destructive":
        return [], rng.sample(domain, rng.randint(1, min(3, len(domain))))
    if objective == "general":
        picked = rng.sample(domain, rng.randint(2, min(6, len(domain))))
        cut = rng.randint(1, len(picked) - 1)
        return picked[:cut], picked[cut:]
    plus = [x for x in domain if rng.random() < 0.5]
    return plus, [x for x in domain if x not in plus]


def random_attack(gs, rng, n, family, objective, rule, budget, *, kind="binary", r1=False,
                  priced=False, pool_size=None, targets=None):
    """One valid random attack instance of the given shape."""
    gen = gs.generators
    if r1:
        profile = gen.gen_random_r_profile(n, 1, seed=seed_of(rng))
    elif kind == "ternary":
        profile = gen.gen_random_profile(n, "ternary", 0.3, seed=seed_of(rng))
    else:
        profile = gen.gen_random_profile(n, "binary", 0.0, seed=seed_of(rng))
    pool = None
    domain = range(n)
    if family == "GCAI":
        low, high = pool_size or (2, n - 2)
        pool = sorted(rng.sample(range(n), rng.randint(low, high)))
        domain = pool
    aplus, aminus = (targets or pick_targets)(rng, list(domain), objective)
    agent_prices = pair_prices = None
    if priced and family == "GB":
        agent_prices = {a: rng.randint(1, 3) for a in range(n)}
    if priced and family == "GMB":
        pair_prices = {(a, b): rng.randint(1, 3) for a in range(n) for b in range(n)}
    return gs.instances.make_instance(
        profile, rule, family, objective, aplus=aplus, aminus=aminus, pool=pool,
        budget=None if family == "GCPI" else budget,
        agent_prices=agent_prices, pair_prices=pair_prices,
        r_restriction=1 if r1 else None,
    )


def solve_op(gs, label, inst, **meta):
    solvers = gs.solvers
    return Op(label, lambda: solvers.solve_auto(inst), dict(meta, inst=inst))


def always(inst):
    return True


def not_oracle_bound(inst):
    """Keep instances that end at the empty witness or at an immunity row:
    trivial, or no target side already satisfied (so the row applies)."""
    r = ref.Inst(inst)
    return ref.empty_witness_works(r) or not ref.target_side_trivial(r)


def needs_search(inst):
    return not ref.empty_witness_works(ref.Inst(inst))


@dataclasses.dataclass
class Shape:
    """A stratum of random instances.  Instance i takes the i-th entry of the
    cycled product rules x objectives x budgets, so every seed gets the same
    mix of shapes and only the profiles and target sets vary."""

    label: str
    count: int
    n: int
    family: str
    objectives: tuple
    rules: tuple
    budgets: tuple = (None,)
    options: dict = dataclasses.field(default_factory=dict)
    keep: object = always
    priced: bool = False

    def build(self, gs, rng, size):
        combos = list(itertools.product(self.rules, self.objectives, self.budgets))
        ops = []
        for i in range(count(self.count, size)):
            rule, objective, budget = combos[i % len(combos)]
            priced = self.priced and i % 2 == 1
            for _ in range(500):
                inst = random_attack(gs, rng, self.n, self.family, objective, rule, budget,
                                     priced=priced, **self.options)
                if self.keep(inst):
                    break
            else:
                raise RuntimeError("%s: no acceptable instance in 500 draws" % self.label)
            ops.append(solve_op(gs, self.label, inst))
        return ops


CON, DE, GEN, EX = "constructive", "destructive", "general", "exact"
EVERY = (CON, DE, GEN, EX)


def everyone(rng, domain, objective):
    return domain, []


def nobody(rng, domain, objective):
    return [], domain


def fast_shapes(gs, n):
    """attack-fast: mid-size instances for trivial, immunity and the six named solvers."""
    sr = gs.profiles.SocialRule
    csr, lsr = (sr.csr(),), (sr.lsr(),)

    def consent(*pairs):
        return tuple(sr.consent(s, t) for s, t in pairs)

    ternary = tuple(sr.ternary(s, sp, t) for s, sp, t in ((1, None, 2), (2, 3, 2), (3, None, 1), (2, 5, 3)))
    # Stratum sizes put the median inside the gcdi22 block of similar
    # latencies and the 90th percentile inside the bribery block, so a
    # seed's mix cannot tip either percentile across a gap between routes.
    return [
        Shape("cgb", 48, n, "GB", (CON,), consent((2, 1), (3, 1)), (1, 2, 3), priced=True, keep=needs_search),
        Shape("dgb", 48, n, "GB", (DE,), consent((1, 2), (1, 3)), (1, 2, 3), priced=True, keep=needs_search),
        Shape("gcdi22", 120, n, "GCDI", (CON, DE, GEN), consent((2, 2)), (0, 2, 4), keep=needs_search),
        Shape("cgcai_r1", 72, n, "GCAI", (CON,), consent((2, 1), (2, 3), (3, 2)), (1, 2, 4),
              options=dict(r1=True), keep=needs_search),
        Shape("gmb_consent", 40, n, "GMB", EVERY, consent((1, 1), (2, 3), (4, 2)), (1, 3, 5), priced=True,
              keep=needs_search),
        Shape("gmb_ternary", 24, n, "GMB", EVERY, ternary, (2, 4), priced=True, options=dict(kind="ternary"),
              keep=needs_search),
        Shape("gcai_ilp", 30, n, "GCAI", (CON, DE, GEN), consent((2, 2), (3, 2), (2, 4)), (1, 2, 4),
              keep=needs_search),
        Shape("gcai_ilp_exact", 15, n, "GCAI", (EX,), consent((2, 2), (3, 2), (2, 4)), (1, 2, 4),
              options=dict(pool_size=(3, 5)), keep=needs_search),
        Shape("gcdi_ilp", 30, n, "GCDI", (CON, DE, GEN), consent((2, 3), (3, 2), (4, 4)), (1, 2, 4),
              keep=needs_search),
        # shapes that match an immunity row; those whose fallback is an oracle
        # are kept only when the row is bound to apply (or the answer is trivial)
        Shape("imm_add_s1", 8, n, "GCAI", (CON,), consent((1, 2), (1, 4)), (1, 3)),
        Shape("imm_add_t1", 8, n, "GCAI", (DE,), consent((2, 1), (4, 1)), (1, 3)),
        Shape("imm_del_s1", 8, n, "GCDI", (DE,), consent((1, 2), (1, 4)), (1, 3)),
        Shape("imm_del_t1", 8, n, "GCDI", (CON,), consent((2, 1), (4, 1)), (1, 3)),
        Shape("imm_part_s1", 8, n, "GCPI", (DE,), consent((1, 2), (1, 4)), keep=not_oracle_bound),
        Shape("imm_part_t1", 8, n, "GCPI", (CON,), consent((2, 1), (4, 1)), keep=not_oracle_bound),
        Shape("imm_part_exact", 8, n, "GCPI", (EX,), consent((2, 2), (3, 3)), keep=not_oracle_bound,
              options=dict(targets=everyone)),
        Shape("imm_lsr_add", 8, n, "GCAI", (DE,), lsr, (1, 3), keep=not_oracle_bound),
        Shape("imm_lsr_del", 8, n, "GCDI", (CON,), lsr, (1, 3), keep=not_oracle_bound),
        Shape("imm_lsr_part", 8, n, "GCPI", (CON,), lsr, keep=not_oracle_bound),
        Shape("imm_lsr_part_exact", 8, n, "GCPI", (EX,), lsr, keep=not_oracle_bound,
              options=dict(targets=nobody)),
        Shape("imm_csr_add", 8, n, "GCAI", (GEN,), csr, (1, 3), keep=not_oracle_bound),
        Shape("imm_csr_r1", 8, n, "GCAI", (CON,), csr, (1, 3), keep=not_oracle_bound, options=dict(r1=True)),
        Shape("imm_lsr_r1", 8, n, "GCAI", (CON,), lsr, (1, 3), keep=not_oracle_bound, options=dict(r1=True)),
    ]


def search_shapes(gs):
    """attack-search: nontrivial instances that only an oracle answers."""
    sr = gs.profiles.SocialRule
    csr, lsr = (sr.csr(),), (sr.lsr(),)

    def consent(*pairs):
        return tuple(sr.consent(s, t) for s, t in pairs)

    return [
        # budget-1 bribery on n = 8 is a dense block of similar latencies
        # that the median falls in
        Shape("gb_csr_b1", 30, 8, "GB", (CON, GEN, EX), csr, (1,), keep=needs_search),
        Shape("gb_lsr_b1", 30, 8, "GB", (DE, GEN, EX), lsr, (1,), keep=needs_search),
        Shape("gb_csr", 12, 8, "GB", (CON, GEN, EX), csr, (2, 3), priced=True, keep=needs_search),
        Shape("gb_lsr", 12, 8, "GB", (DE, GEN, EX), lsr, (2, 3), priced=True, keep=needs_search),
        Shape("gb_consent_con", 12, 8, "GB", (CON,), consent((2, 2), (3, 2), (2, 3)), (1, 2), keep=needs_search),
        Shape("gb_consent_de", 12, 8, "GB", (DE,), consent((2, 2), (2, 3), (3, 2)), (1, 2), keep=needs_search),
        Shape("gb_consent_mixed", 8, 8, "GB", (GEN, EX), consent((1, 2), (2, 1), (3, 3)), (1, 2),
              keep=needs_search),
        Shape("gmb_csr", 8, 5, "GMB", (CON, GEN, EX), csr, (1, 2), priced=True, keep=needs_search),
        Shape("gmb_lsr", 8, 5, "GMB", (DE, GEN, EX), lsr, (1, 2), priced=True, keep=needs_search),
        Shape("gcpi_consent", 36, 8, "GCPI", (CON, DE, GEN), consent((2, 2), (2, 3), (3, 2), (3, 3)),
              keep=needs_search),
        Shape("gcpi_csr", 18, 8, "GCPI", (CON, GEN, EX), csr, keep=needs_search),
        Shape("gcpi_lsr", 9, 8, "GCPI", (DE,), lsr, keep=needs_search),
        Shape("gcai_csr", 12, 10, "GCAI", (CON, DE, EX), csr, (1, 2, 3), keep=needs_search),
        Shape("gcai_lsr", 6, 10, "GCAI", (CON,), lsr, (1, 2, 3), keep=needs_search),
        Shape("gcdi_csr", 12, 10, "GCDI", (CON, GEN), csr, (1, 2, 3), keep=needs_search),
        Shape("gcdi_lsr", 6, 10, "GCDI", (DE,), lsr, (1, 2, 3), keep=needs_search),
    ]


class AttackFast:
    name = "attack-fast"
    N = 10

    def build(self, gs, rng, workdir, size):
        return [op for shape in fast_shapes(gs, self.N) for op in shape.build(gs, rng, size)]

    def check(self, gs, ops, results, rng):
        return check_attacks(gs, ops, results, rng, sample=0.25)


class AttackSearch:
    name = "attack-search"

    def build(self, gs, rng, workdir, size):
        ops = [op for shape in search_shapes(gs) for op in shape.build(gs, rng, size)]
        # Planted exact-cover instances at m = 2 (n = 12).  The m = 3 pair is
        # left out of the round: its NO instance alone takes about 0.8 s, and
        # one such operation timed 15 times a run swamped the workload's
        # figures with machine noise.
        gen = gs.generators
        for i in range(count(3, size)):
            for answer, rx in (("yes", gen.gen_rx3c(2, seed=seed_of(rng))), ("no", gen.gen_rx3c_no(2, seed=seed_of(rng)))):
                ops.append(solve_op(gs, "cgb_planted_%s_m2" % answer, gen.rx3c_to_cgb(rx), triples=rx.triples, m=2))
        return ops

    def check(self, gs, ops, results, rng):
        return check_attacks(gs, ops, results, rng, sample=0.15)


def yes(verdict):
    return verdict.answer == "YES"


def check_attacks(gs, ops, results, rng, sample):
    errors = []
    solve = gs.solvers.solve_auto
    for op, result in zip(ops, results):
        if result is None:
            continue  # a failed operation is counted in `failed`
        verdict, _route = result
        inst = op.meta["inst"]
        r = ref.Inst(inst)
        where = "%s %s/%s" % (op.label, inst.family, inst.objective)
        if yes(verdict) and not ref.witness_ok(r, verdict.witness):
            errors.append("%s: YES witness rejected by the reference checker" % where)
        if "triples" in op.meta:
            if ref.has_exact_cover(op.meta["triples"], op.meta["m"]) != yes(verdict):
                errors.append("%s: verdict disagrees with the reference cover search" % where)
            continue
        if rng.random() >= sample:
            continue
        if not yes(verdict) and inst.family in ("GCAI", "GCDI", "GCPI") and inst.profile.n <= 10:
            if ref.control_attack_exists(r):
                errors.append("%s: %s answer, but the reference finds an attack" % (where, verdict.answer))
        if inst.budget is not None:
            if yes(verdict) and not yes(solve(dataclasses.replace(inst, budget=inst.budget + 1))[0]):
                errors.append("%s: YES at budget b but not at b + 1" % where)
            if not yes(verdict) and inst.budget > 0 and yes(
                    solve(dataclasses.replace(inst, budget=inst.budget - 1))[0]):
                errors.append("%s: NO at budget b but YES at b - 1" % where)
        rule = inst.rule
        if inst.family == "GB" and rule.variant == "consent" and inst.objective == "constructive":
            negated = gs.profiles.make_profile([[-v for v in row] for row in r.phi])
            dual = dataclasses.replace(inst, profile=negated, rule=gs.profiles.SocialRule.consent(rule.t, rule.s),
                                       objective="destructive", aplus=frozenset(), aminus=inst.aplus)
            if yes(solve(dual)[0]) != yes(verdict):
                errors.append("%s: consent duality broken" % where)
        if inst.objective == "general" and yes(verdict):
            for half in ("constructive", "destructive"):
                if not yes(solve(dataclasses.replace(inst, objective=half))[0]):
                    errors.append("%s: general YES but %s NO" % (where, half))
    return errors


# -- partial queries ---------------------------------------------------------

ENUMERATION_LIMIT = 1024


def blank_cells(rng, grid, k):
    n = len(grid)
    grid = [list(row) for row in grid]
    for cell in rng.sample(range(n * n), k):
        grid[cell // n][cell % n] = 0
    return grid


def blank_pairs(rng, grid, rows):
    """Blank one +1 and one -1 cell in each of `rows` rows of an exactly-r grid,
    so every grid has exactly 2**rows exactly-r completions."""
    grid = [list(row) for row in grid]
    for a in rng.sample(range(len(grid)), rows):
        for value in (1, -1):
            grid[a][rng.choice([b for b, v in enumerate(grid[a]) if v == value])] = 0
    return grid


class PartialQueries:
    name = "partial-queries"

    def build(self, gs, rng, workdir, size):
        sr = gs.profiles.SocialRule
        gen = gs.generators
        cases = []  # (label, grid, rule, r)
        plain = itertools.cycle((sr.consent(1, 1), sr.consent(2, 2), sr.consent(3, 1), sr.consent(2, 4), sr.csr(),
                                 sr.lsr(), sr.ternary(2, None, 2), sr.ternary(1, 3, 3)))
        for _ in range(count(40, size)):
            grid = ref.grid_of(gen.gen_random_profile(8, "binary", 0.0, seed=seed_of(rng)))
            cases.append(("plain", blank_cells(rng, grid, 9), next(plain), None))
        sequential = (sr.csr(), sr.lsr())
        for label, base, rules, rs in (
            ("r_flow", 20, [sr.consent(s, 1) for s in (2, 3, 4)], (2, 3)),
            ("r_general", 20, [sr.consent(s, t) for s, t in ((1, 2), (2, 2), (3, 3), (2, 4))], (2, 3)),
            ("r_seq_r1", 15, sequential, (1,)),
            ("r_seq_r2", 15, sequential, (2, 3)),
        ):
            for i in range(count(base, size)):
                rule, r = rules[i % len(rules)], rs[i // len(rules) % len(rs)]
                grid = ref.grid_of(gen.gen_random_r_profile(8, r, seed=seed_of(rng)))
                cases.append((label, blank_pairs(rng, grid, 5), rule, r))
        ops = []
        make_profile = gs.profiles.make_profile
        partial = gs.partial
        for label, grid, rule, r in cases:
            profile = make_profile(grid, kind="partial")
            members = rng.sample(range(8), rng.randint(2, 3))
            for subset in (members, members[:-1]):
                for mode in ("PQI", "NQI"):
                    query = partial.PartialQuery(frozenset(subset), mode, r)
                    ops.append(Op("%s_%s" % (label, mode.lower()),
                                  lambda p=profile, q=query, rl=rule: partial.answer_query(p, q, rl),
                                  dict(grid=grid, rule=rule, r=r, subset=frozenset(subset), mode=mode)))
        return ops

    def check(self, gs, ops, results, rng):
        errors = []
        for i in range(0, len(ops), 4):
            if None in results[i:i + 4]:
                continue  # a failed query is counted in `failed`
            (pq, _), (nq, _), (pq_small, _), (nq_small, _) = results[i:i + 4]
            meta, small = ops[i].meta, ops[i + 2].meta
            where = "%s r=%s %s" % (ops[i].label, meta["r"], meta["rule"].describe())
            if (nq and not pq) or (nq_small and not pq_small):
                errors.append("%s: NQI true but PQI false" % where)
            if pq and not pq_small:
                errors.append("%s: a smaller member set is no longer possible" % where)
            if nq and not nq_small:
                errors.append("%s: a smaller member set is no longer necessary" % where)
            rule = ref.rule_of(meta["rule"])
            if ref.count_completions(meta["grid"], meta["r"]) <= ENUMERATION_LIMIT:
                for m, got in ((meta, (pq, nq)), (small, (pq_small, nq_small))):
                    if ref.possible_necessary(m["grid"], m["subset"], rule, m["r"]) != got:
                        errors.append("%s: answer disagrees with completion enumeration" % where)
        return errors


# -- CLI session -------------------------------------------------------------

def run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    # timings differ from run to run; the rest of a report is the answer
    text = "".join(line for line in out.getvalue().splitlines(True) if "wall_ms" not in line)
    return code, TIMING.sub(r"\1", text), err.getvalue()


class CliSession:
    name = "cli-session"

    def build(self, gs, rng, workdir, size):
        gen, prof, inst_mod = gs.generators, gs.profiles, gs.instances
        os.makedirs(workdir, exist_ok=True)

        def write(name, text):
            path = os.path.join(workdir, name)
            with open(path, "w", encoding="ascii", newline="\n") as fh:
                fh.write(text)
            return path

        def write_profile(name, profile):
            return write(name, prof.format_profile(profile))

        def write_instance(name, inst):
            write_profile(name + ".gid", inst.profile)
            return write(name + ".gidinst", inst_mod.format_instance(inst, name + ".gid"))

        binaries = [write_profile("bin%d.gid" % i, gen.gen_random_profile(10, seed=seed_of(rng)))
                    for i in range(24)]
        ternaries = [write_profile("ter%d.gid" % i, gen.gen_random_profile(8, "ternary", 0.3, seed=seed_of(rng)))
                     for i in range(6)]
        partials = []
        for i in range(24):
            grid = ref.grid_of(gen.gen_random_r_profile(6, 2, seed=seed_of(rng)))
            partials.append(write_profile("part%d.gid" % i, prof.make_profile(blank_cells(rng, grid, 6), kind="partial")))
        planted = {
            "cgb_yes": gen.rx3c_to_cgb(gen.gen_rx3c(2, seed=seed_of(rng))),
            "cgb_no": gen.rx3c_to_cgb(gen.gen_rx3c_no(2, seed=seed_of(rng))),
            "cgcai_yes": gen.rx3c_to_cgcai_r(gen.gen_rx3c(2, seed=seed_of(rng))),
            "cgcai_no": gen.rx3c_to_cgcai_r(gen.gen_rx3c(2, seed=seed_of(rng)), scrub_element=0),
            "cgcdi_yes": gen.gen_planted_cgcdi(),
            "cgcdi_no": gen.gen_planted_cgcdi(perturbed=True),
        }
        inst_paths = {name: write_instance(name, inst) for name, inst in planted.items()}
        # a valid profile except for one non-ASCII byte in a name
        bad = os.path.join(workdir, "nonascii.gid")
        with open(bad, "w", encoding="latin-1", newline="\n") as fh:
            fh.write("gid v1\nkind binary\nn 2\nrow aé + -\nrow b - +\n")

        # Sizes keep the few slow commands (gen, solve, xval) under a tenth
        # of the suite, so the 90th percentile falls inside the dense block of
        # eval and partial commands rather than among the slow ones.
        cli = gs.cli
        ops = []

        def cli_op(label, argv, **meta):
            ops.append(Op(label, lambda: run_cli(cli, argv), dict(meta, argv=argv)))

        gen_dir = os.path.join(workdir, "gen")
        seed = seed_of(rng)
        for what, extra in (("profile", ["--n", "10", "--count", "2"]),
                            ("profile", ["--n", "8", "--kind", "ternary", "--star-density", "0.3"]),
                            ("r-profile", ["--n", "9", "--r", "2"]),
                            ("cgb", ["--m", "2"]), ("cgb", ["--m", "2", "--no"]),
                            ("cgcai-r", ["--m", "2", "--variant", "lsr"]), ("cgcdi", [])):
            cli_op("gen", ["gen", what, "--out", gen_dir, "--seed", str(seed)] + extra, gen_dir=gen_dir)
        quotas = itertools.cycle(((1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (2, 4)))
        sequential = itertools.cycle(("csr", "lsr"))
        for path in binaries:
            spec = "consent:%d,%d" % next(quotas)
            cli_op("eval", ["eval", path, "--rule", spec], path=path, rule=spec)
            spec = next(sequential)
            cli_op("eval", ["eval", path, "--rule", spec, "--trace"], path=path, rule=spec)
            spec = "consent:%d,%d" % next(quotas)
            subset = " ".join("a%d" % (i + 1) for i in sorted(rng.sample(range(10), 6)))
            cli_op("eval", ["eval", path, "--rule", spec, "--subset", subset], path=path, rule=spec, subset=subset)
        for path, spec in zip(ternaries, itertools.cycle(("ternary:2,*,2", "ternary:1,3,2", "ternary:3,*,1"))):
            cli_op("eval", ["eval", path, "--rule", spec], path=path, rule=spec)
        for (name, path), fmt in zip(inst_paths.items(), itertools.cycle(("tsv", "json-lines"))):
            cli_op("solve", ["solve", path, "--format", fmt], inst=planted[name], planted=name.endswith("_yes"))
        quotas = itertools.cycle(((2, 1), (3, 1), (2, 2), (3, 3)))
        for path in partials:
            members = sorted(rng.sample(range(6), 2))
            names = ",".join("a%d" % (i + 1) for i in members)
            spec = "consent:%d,%d" % next(quotas)
            for mode, r in (("pqi", None), ("nqi", None), ("pqi", 2), ("nqi", 2)):
                argv = ["partial", path, "--rule", spec, "--mode", mode, "--subset", names]
                if r is not None:
                    argv += ["--r", str(r)]
                cli_op("partial", argv, path=path, rule=spec, mode=mode, r=r, subset=members)
        for name in ("cgb_yes", "cgb_no", "cgcai_yes", "cgcdi_yes"):
            cli_op("diag", ["diag", inst_paths[name]], inst=planted[name])
        for family, spec in (("GB", "consent:2,1"), ("GCDI", "consent:2,2")):
            cli_op("xval", ["xval", "--family", family, "--rule", spec, "--objective", "constructive",
                            "--n", "5", "--count", "8", "--seed", str(seed_of(rng))])
        cli_op("eval_nonascii", ["eval", bad, "--rule", "csr"])
        return ops

    def check(self, gs, ops, results, rng):
        errors = []
        for op, result in zip(ops, results):
            if result is None:
                continue  # a failed operation is counted in `failed`
            code, out, err = result
            argv = op.meta["argv"]
            where = " ".join(argv[:2])
            lines = out.splitlines()
            if op.label == "gen":
                errors += check_gen(gs, op.meta["gen_dir"], code, lines, where)
            elif op.label == "eval":
                errors += check_eval(op.meta, code, lines, where)
            elif op.label == "solve":
                errors += check_solve(op.meta, code, out, argv, where)
            elif op.label == "partial":
                _, names, grid = ref.parse_gid(read(op.meta["path"]))
                rule = ref.parse_rule_spec(op.meta["rule"])
                possible, necessary = ref.possible_necessary(grid, op.meta["subset"], rule, op.meta["r"])
                want = possible if op.meta["mode"] == "pqi" else necessary
                if code != (0 if want else 1) or ("result\t%s" % str(want).lower()) not in lines:
                    errors.append("%s: exit %d, reference says %s" % (where, code, want))
            elif op.label == "diag":
                r = ref.Inst(op.meta["inst"])
                s_star, t_star = ref.slack_stars(r.phi, r.rule, r.aplus, r.aminus)
                show = lambda v: "none" if v is None else str(v)  # noqa: E731
                if code != 0 or "s_star\t" + show(s_star) not in lines or "t_star\t" + show(t_star) not in lines:
                    errors.append("%s: slack report disagrees with the reference" % where)
            elif op.label == "xval":
                if code != 0 or "agreement\ttrue" not in lines:
                    errors.append("%s: cross-validation exit %d" % (where, code))
            elif op.label == "eval_nonascii":
                if code != 2 or "Traceback" in err:
                    errors.append("%s: non-ASCII input gave exit %d, documented 2" % (where, code))
        return errors


def read(path):
    with open(path, encoding="ascii") as fh:
        return fh.read()


def check_gen(gs, gen_dir, code, lines, where):
    errors = []
    wrote = [line.split("\t", 1)[1] for line in lines if line.startswith("wrote\t")]
    if code != 0 or not wrote:
        return ["%s: exit %d, %d files" % (where, code, len(wrote))]
    for name in wrote:
        text = read(os.path.join(gen_dir, name))
        if name.endswith(".gid"):
            if ref.format_gid(*ref.parse_gid(text)) != text:
                errors.append("%s: %s does not parse back to the same text" % (where, name))
        else:
            inst = gs.instances.parse_instance(text, lambda p: read(os.path.join(gen_dir, p)))
            if gs.instances.format_instance(inst, text.split("profile ", 1)[1].split()[0]) != text:
                errors.append("%s: %s does not parse back to the same text" % (where, name))
    return errors


def check_eval(meta, code, lines, where):
    _, names, grid = ref.parse_gid(read(meta["path"]))
    rule = ref.parse_rule_spec(meta["rule"])
    subset = None
    if "subset" in meta:
        subset = {names.index(x) for x in meta["subset"].split()}
    want = " ".join(names[i] for i in sorted(ref.evaluate(rule, grid, subset)))
    if code != 0 or not lines or lines[-1] != want:
        return ["%s %s: got %r, reference %r" % (where, meta["rule"], lines[-1:], want)]
    if rule[0] in ("csr", "lsr"):
        rounds = ref.sequential_rounds(rule, grid)
        trace = " ".join("{%s}" % ",".join(names[i] for i in sorted(k)) for k in rounds)
        if lines[0] != trace:
            return ["%s %s: trace %r, reference %r" % (where, meta["rule"], lines[0], trace)]
    return []


def check_solve(meta, code, out, argv, where):
    inst = ref.Inst(meta["inst"])
    if "json-lines" in argv:
        pairs = [json.loads(line) for line in out.splitlines()]
        report = {p["key"]: p["value"] for p in pairs}
    else:
        report = dict(line.split("\t", 1) for line in out.splitlines())
    want = "YES" if meta["planted"] else "NO"
    if report.get("verdict") != want or code != (0 if meta["planted"] else 1):
        return ["%s: verdict %s exit %d, planted %s" % (where, report.get("verdict"), code, want)]
    if want == "NO":
        return []
    names = ["a%d" % (i + 1) for i in range(inst.n)]
    members = [names.index(x) for x in report["witness"].split()]
    kind = {"GCAI": "added", "GCDI": "deleted", "GB": "bribed"}[inst.family]
    rows = [(a, [1] * inst.n) for a in members] if kind == "bribed" else ()
    final = ref.apply_witness(inst, kind, members, rows)
    if final is None or not ref.objective_met(inst, final):
        return ["%s: witness %r rejected by the reference checker" % (where, report["witness"])]
    return []


WORKLOADS = {w.name: w for w in (AttackFast(), AttackSearch(), PartialQueries(), CliSession())}
