"""Command-line workbench: evaluate, solve, query, generate, cross-validate.

Commands:
  eval PROFILE --rule SPEC [--subset NAMES] [--trace]
  solve INSTANCE [--solver auto|brute|NAME] [--limit-nodes N]
  partial PROFILE --rule SPEC --mode pqi|nqi --subset NAMES [--r R] [--xval]
  gen WHAT --out DIR [generator flags]
  xval --family F --objective O --rule SPEC --n N --count C [--seed S]
  diag INSTANCE

The argument parser is built once per process, on the first main call.

Rule specs use colons and commas: consent:1,2  csr  lsr  ternary:2,*,2
(the star selects the majority quota).

Reports are one key<TAB>value line each; --format json-lines emits the
same pairs as {"key": ..., "value": ...} objects.  A YES witness is
re-verified through check_witness immediately before printing.  Instance
digests hash the canonical instance text with the profile reference
replaced by the profile content hash, so logs from different paths and
runs can be joined on the digest column.

Exit codes are a total function of the outcome:
  0 YES / true / files written
  1 NO / false
  2 parse or config error (bad file, bad flag, invalid instance)
  3 rule/profile mismatch (wrong kind, quota bound, unknown name,
    solver precondition, infeasible r-rows)
  4 IMMUNE
  5 instance too large for the selected solver
  6 cross-validation disagreement
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import random
import sys
import time

from .errors import (
    IndexOutOfRange,
    InstanceTooLarge,
    InvalidR,
    KindMismatch,
    NoRExtension,
    ParseError,
    PreconditionViolated,
    QuotaConstraintViolated,
    RuleNotApplicable,
    WrongKind,
)
from .generators import (
    gen_planted_cgcdi,
    gen_random_profile,
    gen_random_r_profile,
    gen_rx3c,
    gen_rx3c_no,
    rx3c_to_cgb,
    rx3c_to_cgcai_r,
)
from .instances import (
    check_witness,
    diagnostics,
    format_instance,
    hard_violations,
    make_instance,
    parse_instance,
    validate,
)
from .oracle import SearchBudget, pqi_nqi_brute
from .partial import PartialQuery, answer_query
from .profiles import (
    eval as eval_rule,
    ensure_applicable,
    format_individual_set,
    format_profile,
    names_of,
    parse_profile,
    parse_rule_tokens,
)
from .solvers import BY_NAME, ORACLE_FOR_FAMILY, ORACLES, auto_solver, solve_auto

EXIT_YES = 0
EXIT_NO = 1
EXIT_PARSE = 2
EXIT_MISMATCH = 3
EXIT_IMMUNE = 4
EXIT_TOO_LARGE = 5
EXIT_DISAGREE = 6

VERDICT_EXITS = {"YES": EXIT_YES, "NO": EXIT_NO, "IMMUNE": EXIT_IMMUNE}

MISMATCH_ERRORS = (
    RuleNotApplicable,
    QuotaConstraintViolated,
    IndexOutOfRange,
    KindMismatch,
    WrongKind,
    NoRExtension,
    InvalidR,
    PreconditionViolated,
)

FLIP_CHARS = {1: "+", -1: "-", 0: "*"}


class RunReport:
    """Ordered key/value pairs with the two wire formats."""

    def __init__(self, command: str):
        self.pairs: list[tuple[str, str]] = [("command", command)]

    def add(self, key: str, value):
        self.pairs.append((key, str(value)))

    def emit(self, fmt: str, out=None):
        out = sys.stdout if out is None else out
        for key, value in self.pairs:
            if fmt == "json-lines":
                out.write(json.dumps({"key": key, "value": value}) + "\n")
            else:
                out.write("%s\t%s\n" % (key, value))


def digest_profile(profile) -> str:
    return hashlib.sha256(format_profile(profile).encode("ascii")).hexdigest()[:16]


def digest_instance(instance) -> str:
    ref = "sha256:%s" % digest_profile(instance.profile)
    return hashlib.sha256(format_instance(instance, ref).encode("ascii")).hexdigest()[:16]


def parse_rule_spec(spec: str):
    head, sep, rest = spec.partition(":")
    tokens = [head.strip()]
    if sep:
        tokens.extend(part.strip() for part in rest.split(","))
    return parse_rule_tokens(tokens)


def parse_subset(spec, profile):
    """None means all of N; an empty spec means the empty set."""
    if spec is None:
        return None
    names = [tok for tok in spec.replace(",", " ").split() if tok]
    return frozenset(profile.index_of(name) for name in names)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError("%s: non-ASCII byte 0x%02x" % (path, exc.object[exc.start])) from None
    except ValueError as exc:
        # open() refuses a path with a NUL byte, which a profile reference can hold
        raise ParseError("%r: %s" % (path, exc)) from None


def _write(path: str, text: str):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)


def _load_valid_instance(path: str):
    """Load an instance file and validate it; (instance, violations).

    Profile references resolve against the instance file's directory.  On a
    hard violation the InvalidInstance error line is written and the
    instance comes back as None.
    """
    base = os.path.dirname(os.path.abspath(path))

    def resolve(ref):
        return _read(os.path.join(base, ref))

    instance = parse_instance(_read(path), resolve)
    violations = validate(instance)
    hard = hard_violations(violations)
    if hard:
        sys.stderr.write("error\tInvalidInstance\t%s\n" % " ".join(hard))
        return None, violations
    return instance, violations


def _echo(argv) -> str:
    return " ".join(["gidsolve"] + list(argv))


def _error(exc):
    sys.stderr.write("error\t%s\t%s\n" % (type(exc).__name__, exc))


def _int_at_least(low: int, what: str):
    """argparse type for a count: an int, and never below low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None
        if value < low:
            raise argparse.ArgumentTypeError("%s must be >= %d, got %d" % (what, low, value))
        return value

    return parse


_node_limit = _int_at_least(0, "node limit")
_count = _int_at_least(1, "count")


def _search(args) -> SearchBudget:
    limit = getattr(args, "limit_nodes", None)
    return SearchBudget(node_limit=limit)


def witness_text(instance, solution) -> str:
    p = instance.profile
    if solution.kind == "flipped":
        return " ".join(
            "%s:%s:%s" % (p.names[a], p.names[b], FLIP_CHARS[v])
            for a, b, v in solution.flips
        )
    return " ".join(names_of(p, solution.members))


def cmd_eval(args, argv) -> int:
    profile = parse_profile(_read(args.profile))
    rule = parse_rule_spec(args.rule)
    subset = parse_subset(args.subset, profile)
    if args.trace:
        result, trace = eval_rule(rule, subset, profile, want_trace=True)
        print(" ".join(format_individual_set(profile, r) for r in trace.rounds))
    else:
        result = eval_rule(rule, subset, profile)
    print(" ".join(names_of(profile, result)))
    return EXIT_YES


def cmd_solve(args, argv) -> int:
    instance, violations = _load_valid_instance(args.instance)
    if instance is None:
        return EXIT_PARSE
    report = RunReport(_echo(argv))
    report.add("digest", digest_instance(instance))
    for warning in violations:
        report.add("warning", warning)
    search = _search(args)
    solver_name = ORACLE_FOR_FAMILY[instance.family] if args.solver == "brute" else args.solver
    started = time.perf_counter()
    try:
        if solver_name == "auto":
            verdict, solver_name = solve_auto(instance, search)
        else:
            verdict = BY_NAME[solver_name](instance, search)
    except InstanceTooLarge as exc:
        # preflight never runs out of room, so auto names the solver it picked
        report.add("solver", auto_solver(instance)[0] if solver_name == "auto" else solver_name)
        report.add("refused", str(exc))
        report.emit(args.format)
        return EXIT_TOO_LARGE
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    report.add("verdict", verdict.answer)
    if verdict.answer == "IMMUNE":
        report.add("immunity", verdict.immunity_ref)
    if verdict.answer == "YES":
        if not check_witness(instance, verdict.witness):
            raise RuntimeError("witness failed re-verification at print time")
        report.add("witness", witness_text(instance, verdict.witness))
    report.add("wall_ms", "%.3f" % elapsed_ms)
    report.add("solver", solver_name)
    report.emit(args.format)
    return VERDICT_EXITS[verdict.answer]


def cmd_partial(args, argv) -> int:
    profile = parse_profile(_read(args.profile))
    rule = parse_rule_spec(args.rule)
    subset = parse_subset(args.subset, profile)
    query = PartialQuery(subset, args.mode.upper(), args.r)
    search = _search(args)
    report = RunReport(_echo(argv))
    report.add("digest", digest_profile(profile))
    started = time.perf_counter()
    answer, solver_name = answer_query(profile, query, rule, search)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    report.add("result", "true" if answer else "false")
    report.add("wall_ms", "%.3f" % elapsed_ms)
    report.add("solver", solver_name)
    exit_code = EXIT_YES if answer else EXIT_NO
    if args.xval:
        possible, necessary = pqi_nqi_brute(profile, subset, rule, r=args.r, search=search)
        expected = possible if query.mode == "PQI" else necessary
        agree = expected == answer
        report.add("agreement", "true" if agree else "false")
        if not agree:
            exit_code = EXIT_DISAGREE
    report.emit(args.format)
    return exit_code


def cmd_diag(args, argv) -> int:
    instance, _violations = _load_valid_instance(args.instance)
    if instance is None:
        return EXIT_PARSE
    report = RunReport(_echo(argv))
    report.add("digest", digest_instance(instance))
    diag = diagnostics(instance)
    report.add("s_star", "none" if diag.s_star is None else diag.s_star)
    report.add("t_star", "none" if diag.t_star is None else diag.t_star)
    p = instance.profile
    for a, missing, choices in diag.per_individual:
        report.add("slack", "%s missing %d choices %d" % (p.names[a], missing, choices))
    report.emit(args.format)
    return EXIT_YES


def _gen_pairs(args):
    """Yield (basename, profile, instance-or-None) for the gen command."""
    seeds = [args.seed + i for i in range(args.count)]
    if args.what == "profile":
        for seed in seeds:
            p = gen_random_profile(args.n, args.kind, args.star_density, seed=seed)
            yield "profile_%s_n%d_s%d" % (args.kind, args.n, seed), p, None
    elif args.what == "r-profile":
        for seed in seeds:
            p = gen_random_r_profile(args.n, args.r, seed=seed)
            yield "rprofile_n%d_r%d_s%d" % (args.n, args.r, seed), p, None
    elif args.what == "cgb":
        for seed in seeds:
            rx3c = gen_rx3c_no(args.m, seed=seed) if args.no else gen_rx3c(args.m, seed=seed)
            inst = rx3c_to_cgb(rx3c)
            tag = "_no" if args.no else ""
            yield "cgb%s_m%d_s%d" % (tag, args.m, seed), inst.profile, inst
    elif args.what == "cgcai-r":
        scrub = 0 if args.no else None
        for seed in seeds:
            rx3c = gen_rx3c(args.m, seed=seed)
            inst = rx3c_to_cgcai_r(rx3c, args.variant, t=args.t, scrub_element=scrub)
            tag = "_no" if args.no else ""
            yield "cgcai_%s%s_m%d_s%d" % (args.variant, tag, args.m, seed), inst.profile, inst
    else:  # cgcdi: a fixed plant, no seed dependence
        inst = gen_planted_cgcdi(perturbed=args.no)
        yield "cgcdi_no" if args.no else "cgcdi", inst.profile, inst


def cmd_gen(args, argv) -> int:
    os.makedirs(args.out, exist_ok=True)
    report = RunReport(_echo(argv))
    for base, profile, instance in _gen_pairs(args):
        profile_name = base + ".gid"
        _write(os.path.join(args.out, profile_name), format_profile(profile))
        report.add("wrote", profile_name)
        if instance is not None:
            instance_name = base + ".gidinst"
            _write(
                os.path.join(args.out, instance_name),
                format_instance(instance, profile_name),
            )
            report.add("wrote", instance_name)
    report.emit(args.format)
    return EXIT_YES


def _random_instance(rng, family, objective, rule, n):
    """One random valid instance; the scheme is fixed so seeds reproduce runs."""
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
        pair_prices = {
            (a, b): rng.randrange(1, 4) for a in range(n) for b in range(n)
        }
    return make_instance(
        profile,
        rule,
        family,
        objective,
        aplus=aplus,
        aminus=aminus,
        pool=pool,
        budget=budget,
        agent_prices=agent_prices,
        pair_prices=pair_prices,
    )


def cmd_xval(args, argv) -> int:
    rule = parse_rule_spec(args.rule)
    if args.objective == "general" and args.n < 2:
        raise ParseError("general objectives need n >= 2")
    sample = gen_random_profile(args.n, "ternary" if rule.variant == "ternary" else "binary",
                                0.3 if rule.variant == "ternary" else 0.0, seed=0)
    ensure_applicable(rule, sample)
    # n < 0 is refused above; the sampling scheme draws at least one target,
    # and a GCAI exact pool of two or more
    if args.n == 0 and args.objective in ("constructive", "destructive"):
        raise ParseError("%s objectives need n >= 1" % args.objective)
    if args.n < 2 and args.family == "GCAI" and args.objective == "exact":
        raise ParseError("exact GCAI objectives need n >= 2")
    search = _search(args)
    rng = random.Random(args.seed)
    report = RunReport(_echo(argv))
    report.add("rule", rule.describe())
    report.add("instances", args.count)
    rows: dict[str, list] = {}
    all_agree = True
    for _ in range(args.count):
        instance = _random_instance(rng, args.family, args.objective, rule, args.n)
        started = time.perf_counter()
        verdict, solver_name = solve_auto(instance, search)
        auto_ms = (time.perf_counter() - started) * 1000.0
        brute = ORACLES[ORACLE_FOR_FAMILY[instance.family]]
        started = time.perf_counter()
        ground = brute(instance, search)
        brute_ms = (time.perf_counter() - started) * 1000.0
        if verdict.answer == "YES" and not check_witness(instance, verdict.witness):
            raise RuntimeError("witness failed re-verification at print time")
        # IMMUNE is NO with a reference attached
        agree = (verdict.answer == "YES") == (ground.answer == "YES")
        all_agree = all_agree and agree
        row = rows.setdefault(solver_name, [0, 0, 0.0, 0.0])
        row[0] += 1 if agree else 0
        row[1] += 1
        row[2] += auto_ms
        row[3] += brute_ms
    for name in sorted(rows):
        agreed, total, auto_ms, brute_ms = rows[name]
        report.add(
            "xval:%s" % name,
            "agree %d/%d auto_ms %.3f brute_ms %.3f" % (agreed, total, auto_ms, brute_ms),
        )
    report.add("agreement", "true" if all_agree else "false")
    report.emit(args.format)
    return EXIT_YES if all_agree else EXIT_DISAGREE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gidsolve", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--format", choices=("tsv", "json-lines"), default="tsv")

    p = sub.add_parser("eval", help="evaluate a social rule on a profile")
    p.add_argument("profile")
    p.add_argument("--rule", required=True)
    p.add_argument("--subset", default=None)
    p.add_argument("--trace", action="store_true")
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("solve", help="decide an attack instance")
    p.add_argument("instance")
    p.add_argument("--solver", default="auto",
                   choices=("auto", "brute") + tuple(sorted(BY_NAME)))
    p.add_argument("--limit-nodes", type=_node_limit, default=None)
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("partial", help="possible/necessary qualification query")
    p.add_argument("profile")
    p.add_argument("--rule", required=True)
    p.add_argument("--mode", required=True, choices=("pqi", "nqi"))
    p.add_argument("--subset", required=True)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--xval", action="store_true")
    p.add_argument("--limit-nodes", type=_node_limit, default=None)
    common(p)
    p.set_defaults(func=cmd_partial)

    p = sub.add_parser("gen", help="write generated profile/instance files")
    p.add_argument("what", choices=("profile", "r-profile", "cgb", "cgcai-r", "cgcdi"))
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=_count, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--kind", choices=("binary", "ternary", "partial"), default="binary")
    p.add_argument("--star-density", type=float, default=0.0)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--variant", choices=("consent", "lsr"), default="consent")
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--no", action="store_true",
                   help="emit the planted-NO variant instead")
    common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("xval", help="sweep random instances, auto vs brute force")
    p.add_argument("--family", required=True,
                   choices=("GB", "GMB", "GCAI", "GCDI", "GCPI"))
    p.add_argument("--objective", default="constructive",
                   choices=("constructive", "destructive", "exact", "general"))
    p.add_argument("--rule", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=_count, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--limit-nodes", type=_node_limit, default=None)
    common(p)
    p.set_defaults(func=cmd_xval)

    p = sub.add_parser("diag", help="quota slack diagnostics s*/t*")
    p.add_argument("instance")
    common(p)
    p.set_defaults(func=cmd_diag)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_PARSE
    try:
        return args.func(args, argv)
    except (OSError, ParseError) as exc:
        _error(exc)
        return EXIT_PARSE
    except MISMATCH_ERRORS as exc:
        _error(exc)
        return EXIT_MISMATCH
    except InstanceTooLarge as exc:
        _error(exc)
        return EXIT_TOO_LARGE


if __name__ == "__main__":
    sys.exit(main())
