"""Per-layer spans recorded from outside gidsolve by patching its functions.

Every public function of each module is wrapped, and the wrapper is put in
place of every name that binds the original: the defining module, each
module that imported it by name (oracle, solvers and cli import
check_witness; partial imports eval), the package namespace, and
module-level tables such as the CLI's solver map.  Open spans form a
stack, so each span charges its duration to its parent: self time is a
span's duration minus that of its child spans.  A count of open oracle
spans attributes check_witness calls to an oracle.
"""

from __future__ import annotations

import collections
import functools
import inspect
import time

MODULES = ("profiles", "instances", "solvers", "oracle", "partial", "generators", "cli")

# Leaf helpers that cost less than a span: their time stays with the caller.
UNWRAPPED = {
    "profiles": {"bits", "full_mask", "mask_of", "default_names", "subset_mask", "eval_mask",
                 "ensure_applicable"},
}
# In the CLI only the entry point and the digests are spans, so cli.main's
# self time is the CLI's own parsing, file reading and report formatting.
CLI_SPANS = {"main", "digest_profile", "digest_instance"}
ORACLES = {"oracle.solve_control_brute", "oracle.solve_bribery_brute", "oracle.solve_microbribery_brute"}
ROUTED = {"solvers.solve_auto": "solvers", "partial.answer_query": "partial"}

SOLVE_ROUTES = ("trivial", "immunity", "cgb_xp", "dgb_xp", "gcdi_22", "cgcai_r1", "microbribery_consent",
                "fpt_ilp", "control_brute", "bribery_brute", "microbribery_brute")
QUERY_ROUTES = ("pqi", "nqi", "r_pqi_consent_flow", "r_pqi_general", "r_nqi", "brute")


class Tracer:
    def __init__(self, gs):
        self.stack = []
        self.stats = collections.defaultdict(lambda: [0, 0])  # key -> [calls, self ns]
        self.routes = collections.defaultdict(lambda: [0, 0])  # (layer, route) -> [ops, ns]
        self.oracle_depth = 0
        self.candidates = [0, 0]  # check_witness calls under an oracle, of them True
        self.patches = []
        wrappers = {}
        for name in MODULES:
            mod = getattr(gs, name)
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_")
                        and not inspect.isgeneratorfunction(obj) and attr not in UNWRAPPED.get(name, ())
                        and (name != "cli" or attr in CLI_SPANS)):
                    wrappers[obj] = self._wrap("%s.%s" % (name, attr), obj)
        cost = gs.instances.AttackInstance.cost_of_agents
        self.patches.append((gs.instances.AttackInstance, "cost_of_agents", cost,
                             self._wrap("instances.cost_of_agents", cost)))
        for mod in [gs.package] + [getattr(gs, name) for name in MODULES]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self.patches.append((mod, attr, obj, wrappers[obj]))
                elif isinstance(obj, dict):
                    for key, value in obj.items():
                        if inspect.isfunction(value) and value in wrappers:
                            self.patches.append((obj, key, value, wrappers[value]))

    def install(self):
        for target, attr, _orig, wrapper in self.patches:
            _set(target, attr, wrapper)

    def uninstall(self):
        for target, attr, orig, _wrapper in self.patches:
            _set(target, attr, orig)

    def reset(self):
        self.stats.clear()
        self.routes.clear()
        self.candidates = [0, 0]

    def snapshot(self):
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "routes": {k: list(v) for k, v in self.routes.items()},
            "candidates": list(self.candidates),
        }

    def _wrap(self, key, fn):
        tracer = self
        stack = self.stack
        stats = self.stats
        clock = time.perf_counter_ns
        is_oracle = key in ORACLES
        is_check = key == "instances.check_witness"
        layer = ROUTED.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0]  # time spent in child spans
            stack.append(frame)
            if is_oracle:
                tracer.oracle_depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if is_oracle:
                    tracer.oracle_depth -= 1
                entry = stats[key]
                entry[0] += 1
                entry[1] += elapsed - frame[0]
                if parent is not None:
                    parent[0] += elapsed
            if is_check and tracer.oracle_depth:
                tracer.candidates[0] += 1
                tracer.candidates[1] += bool(result)
            if layer is not None:
                route = tracer.routes[(layer, result[1])]
                route[0] += 1
                route[1] += elapsed
            return result

        return wrapper


def _set(target, attr, value):
    if isinstance(target, dict):
        target[attr] = value
    else:
        setattr(target, attr, value)


def per_layer_metrics(setup, rounds, n_rounds, overhead_pct):
    """Per-layer figures for one set-up plus one round (the mean of the traced rounds)."""

    def stat(key, i):
        return setup["stats"].get(key, [0, 0])[i] + rounds["stats"].get(key, [0, 0])[i] / n_rounds

    def calls(key):
        return stat(key, 0)

    def self_ms(*keys):
        return sum(stat(k, 1) for k in keys) / 1e6

    def prefixed_ms(prefix):
        keys = set(setup["stats"]) | set(rounds["stats"])
        return self_ms(*(k for k in keys if k.startswith(prefix)))

    def route(layer, name, i):
        value = setup["routes"].get((layer, name), [0, 0])[i] + rounds["routes"].get((layer, name), [0, 0])[i] / n_rounds
        return value if i == 0 else value / 1e6

    candidates = setup["candidates"][0] + rounds["candidates"][0] / n_rounds
    accepted = setup["candidates"][1] + rounds["candidates"][1] / n_rounds
    out = {
        "profiles.make_profile.calls": (calls("profiles.make_profile"), "count"),
        "profiles.make_profile.self_ms": (self_ms("profiles.make_profile"), "ms"),
        "profiles.eval.calls": (calls("profiles.eval"), "count"),
        "profiles.eval.self_ms": (self_ms("profiles.eval"), "ms"),
        "profiles.parse_profile.self_ms": (self_ms("profiles.parse_profile"), "ms"),
        "profiles.format_profile.self_ms": (self_ms("profiles.format_profile"), "ms"),
        "instances.check_witness.calls": (calls("instances.check_witness"), "count"),
        "instances.check_witness.self_ms": (self_ms("instances.check_witness"), "ms"),
        "instances.cost_of_agents.calls": (calls("instances.cost_of_agents"), "count"),
        "instances.validate.calls": (calls("instances.validate"), "count"),
        "instances.validate.self_ms": (self_ms("instances.validate"), "ms"),
        "instances.parse_instance.self_ms": (self_ms("instances.parse_instance"), "ms"),
        "solvers.preflight.calls": (calls("solvers.preflight"), "count"),
        "solvers.preflight.self_ms": (self_ms("solvers.preflight"), "ms"),
        "solvers.check_immunity.calls": (calls("solvers.check_immunity"), "count"),
    }
    for name in SOLVE_ROUTES:
        out["solvers.route.%s.ops" % name] = (route("solvers", name, 0), "count")
        out["solvers.route.%s.ms" % name] = (route("solvers", name, 1), "ms")
    out["oracle.candidates"] = (candidates, "count")
    out["oracle.yes_per_candidate"] = (accepted / candidates if candidates else 0.0, "ratio")
    out["oracle.pqi_nqi_brute.calls"] = (calls("oracle.pqi_nqi_brute"), "count")
    out["oracle.pqi_nqi_brute.self_ms"] = (self_ms("oracle.pqi_nqi_brute"), "ms")
    for name in QUERY_ROUTES:
        out["partial.route.%s.ops" % name] = (route("partial", name, 0), "count")
        out["partial.route.%s.ms" % name] = (route("partial", name, 1), "ms")
    out["partial.max_flow.calls"] = (calls("partial.max_flow"), "count")
    out["partial.max_flow.self_ms"] = (self_ms("partial.max_flow"), "ms")
    out["partial.extension.self_ms"] = (self_ms("partial.optimistic_extension", "partial.pessimistic_extension"), "ms")
    out["generators.self_ms"] = (prefixed_ms("generators."), "ms")
    out["cli.main.self_ms"] = (self_ms("cli.main"), "ms")
    out["cli.digest.self_ms"] = (self_ms("cli.digest_profile", "cli.digest_instance"), "ms")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    return out
