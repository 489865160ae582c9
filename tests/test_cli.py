"""Workbench commands: goldens, exit codes, and report formats."""

import json
import random
import re

import pytest

from gidsolve import solvers
from gidsolve.cli import (
    build_parser,
    digest_instance,
    main,
    parse_rule_spec,
    parse_subset,
)
from gidsolve.profiles import SocialRule, parse_profile

from helpers import EX1_TEXT

PARTIAL_TEXT = """gid v1
kind partial
n 4
row a1 + ? + -
row a2 ? - + ?
row a3 - + + ?
row a4 + ? + +
"""

IMMUNE_PROFILE = """gid v1
kind binary
n 4
row a1 - + + +
row a2 - + + +
row a3 + + + +
row a4 + + + +
"""

IMMUNE_INSTANCE = """gidinst v1
problem GCPI
objective constructive
rule consent 1 1
profile immune_p.gid
aplus a1
aminus
"""


@pytest.fixture
def ex1_path(tmp_path):
    path = tmp_path / "ex1.gid"
    path.write_text(EX1_TEXT)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ eval


def test_eval_goldens(capsys, ex1_path):
    cases = [
        ("consent:1,1", "a1 a3 a4"),
        ("consent:1,2", "a1 a2 a3 a4"),
        ("consent:2,1", "a1 a3"),
        ("csr", "a2 a3 a5"),
        ("lsr", "a1 a2 a3 a4 a5"),
    ]
    for spec, expected in cases:
        code, out, _ = run(capsys, ["eval", ex1_path, "--rule", spec])
        assert code == 0
        assert out == expected + "\n"


def test_eval_trace(capsys, ex1_path):
    code, out, _ = run(capsys, ["eval", ex1_path, "--rule", "csr", "--trace"])
    assert code == 0
    assert out.splitlines() == ["{a3} {a2,a3} {a2,a3,a5}", "a2 a3 a5"]


def test_eval_subsets(capsys, ex1_path):
    code, out, _ = run(capsys, ["eval", ex1_path, "--rule", "consent:2,1",
                                "--subset", ""])
    assert code == 0
    assert out == "\n"
    code, out, _ = run(capsys, ["eval", ex1_path, "--rule", "consent:1,1",
                                "--subset", "a1,a3"])
    assert code == 0
    assert out == "a1 a3\n"


def test_eval_error_exits(capsys, ex1_path):
    code, _, err = run(capsys, ["eval", ex1_path, "--rule", "consent:9,9"])
    assert code == 3 and "QuotaConstraintViolated" in err
    code, _, err = run(capsys, ["eval", ex1_path, "--rule", "consent:x"])
    assert code == 2 and "ParseError" in err
    code, _, err = run(capsys, ["eval", ex1_path, "--rule", "consent:1,1",
                                "--trace"])
    assert code == 3  # only csr/lsr trace
    code, _, err = run(capsys, ["eval", "/nonexistent.gid", "--rule", "csr"])
    assert code == 2
    code, _, err = run(capsys, ["eval", ex1_path, "--rule", "csr",
                                "--subset", "zz"])
    assert code == 2 and "unknown individual" in err


def test_non_ascii_profile_is_parse_error(capsys, tmp_path):
    path = tmp_path / "bad.gid"
    path.write_bytes(EX1_TEXT.replace("a1", "a\xe9", 1).encode("latin-1"))
    code, out, err = run(capsys, ["eval", str(path), "--rule", "csr"])
    assert code == 2 and out == ""
    assert err.startswith("error\tParseError\t") and "0xe9" in err


def test_non_ascii_instance_is_parse_error(capsys, tmp_path):
    (tmp_path / "immune_p.gid").write_text(IMMUNE_PROFILE)
    inst = tmp_path / "bad.gidinst"
    inst.write_bytes(IMMUNE_INSTANCE.replace("aminus", "aminus \xff").encode("latin-1"))
    code, out, err = run(capsys, ["solve", str(inst)])
    assert code == 2 and out == ""
    assert err.startswith("error\tParseError\t") and "0xff" in err


def test_rule_spec_parsing():
    assert parse_rule_spec("consent:2,1") == SocialRule.consent(2, 1)
    assert parse_rule_spec("ternary:2,*,2") == SocialRule.ternary(2, None, 2)
    assert parse_rule_spec("ternary:2,3,2") == SocialRule.ternary(2, 3, 2)
    assert parse_rule_spec("csr") == SocialRule.csr()
    p = parse_profile(EX1_TEXT)
    assert parse_subset(None, p) is None
    assert parse_subset("", p) == frozenset()
    assert parse_subset("a2, a4", p) == frozenset({1, 3})


# ----------------------------------------------------------------- solve


def report_pairs(out):
    pairs = []
    for line in out.splitlines():
        key, _, value = line.partition("\t")
        pairs.append((key, value))
    return pairs


def test_solve_generated_cgb(capsys, tmp_path):
    out_dir = str(tmp_path / "g")
    code, _, _ = run(capsys, ["gen", "cgb", "--out", out_dir, "--m", "1",
                              "--seed", "3"])
    assert code == 0
    inst = out_dir + "/cgb_m1_s3.gidinst"
    code, out, _ = run(capsys, ["solve", inst])
    pairs = dict(report_pairs(out))
    assert code == 0
    assert pairs["verdict"] == "YES"
    assert len(pairs["witness"].split()) == 1
    assert pairs["solver"] == "cgb_xp"
    # brute dispatch reaches the same verdict
    code, out, _ = run(capsys, ["solve", inst, "--solver", "brute"])
    brute_pairs = dict(report_pairs(out))
    assert code == 0
    assert brute_pairs["verdict"] == "YES"
    assert brute_pairs["solver"] == "bribery_brute"
    assert brute_pairs["digest"] == pairs["digest"]


def test_solve_immune(capsys, tmp_path):
    (tmp_path / "immune_p.gid").write_text(IMMUNE_PROFILE)
    inst = tmp_path / "immune.gidinst"
    inst.write_text(IMMUNE_INSTANCE)
    code, out, _ = run(capsys, ["solve", str(inst)])
    pairs = dict(report_pairs(out))
    assert code == 4
    assert pairs["verdict"] == "IMMUNE"
    assert pairs["immunity"] == "removal-cannot-qualify-when-t=1"
    assert pairs["solver"] == "immunity"


def test_solve_too_large_reports_refusal(capsys, tmp_path):
    out_dir = str(tmp_path / "g")
    run(capsys, ["gen", "cgb", "--out", out_dir, "--m", "2", "--seed", "4"])
    inst = out_dir + "/cgb_m2_s4.gidinst"
    code, out, _ = run(capsys, ["solve", inst, "--solver", "brute",
                                "--limit-nodes", "5"])
    pairs = dict(report_pairs(out))
    assert code == 5
    assert pairs["solver"] == "bribery_brute"
    assert "node limit" in pairs["refused"]


def test_cgb_xp_honours_node_limit(capsys, tmp_path):
    out_dir = str(tmp_path / "g")
    run(capsys, ["gen", "cgb", "--out", out_dir, "--m", "2", "--seed", "1", "--no"])
    code, out, _ = run(capsys, ["solve", out_dir + "/cgb_no_m2_s1.gidinst",
                                "--limit-nodes", "3"])
    pairs = dict(report_pairs(out))
    assert code == 5
    assert pairs["solver"] == "cgb_xp"
    assert "node limit" in pairs["refused"]


def test_negative_node_limit_is_config_error(capsys, tmp_path):
    out_dir = str(tmp_path / "g")
    run(capsys, ["gen", "cgb", "--out", out_dir, "--m", "2", "--seed", "1", "--no"])
    code, out, err = run(capsys, ["solve", out_dir + "/cgb_no_m2_s1.gidinst",
                                  "--limit-nodes", "-1"])
    assert code == 2
    assert out == ""
    assert "node limit must be >= 0" in err
    profile = tmp_path / "p.gid"
    profile.write_text(PARTIAL_TEXT)
    for argv in (["partial", str(profile), "--rule", "csr", "--mode", "pqi", "--subset", "a1"],
                 ["xval", "--family", "GB", "--rule", "csr", "--n", "3"]):
        assert run(capsys, argv + ["--limit-nodes", "-1"])[0] == 2


# two unknowns per row: 2^4 r-extensions at r=2, 2^8 extensions without r
OPEN_PAIRS_TEXT = ("gid v1\nkind partial\nn 4\nrow a1 + ? ? -\nrow a2 ? + - ?\n"
                   "row a3 - ? + ?\nrow a4 ? - ? +\n")

# every row reaches r = 2; tier1.yml runs the exactly-r routes on it
R2_PARTIAL_TEXT = ("gid v1\nkind partial\nn 5\nrow a1 + ? ? - -\nrow a2 ? ? - + -\n"
                   "row a3 - + ? ? -\nrow a4 ? - - + ?\nrow a5 - ? + - ?\n")


def refuse_partial(capsys, tmp_path, extra):
    profile = tmp_path / "p.gid"
    profile.write_text(OPEN_PAIRS_TEXT)
    code, out, err = run(capsys, ["partial", str(profile), "--mode", "pqi", "--subset", "a1"] + extra)
    assert code == 5
    assert out == ""
    return err


def test_partial_r_enumeration_refused(capsys, tmp_path):
    # the canonical completions leave lsr on a2,a3 open, so brute answers
    # it and counts its 32 r-extensions against the limit first
    profile = tmp_path / "r2.gid"
    profile.write_text(R2_PARTIAL_TEXT)
    code, out, err = run(capsys, ["partial", str(profile), "--rule", "lsr", "--mode", "pqi",
                                  "--subset", "a2,a3", "--r", "2", "--limit-nodes", "3"])
    assert (code, out) == (5, "")
    assert err == "error\tInstanceTooLarge\t32 r-extensions exceed node limit 3\n"
    # r_sequential enumerates nothing, so the limit leaves its answers alone
    profile = tmp_path / "p.gid"
    profile.write_text(OPEN_PAIRS_TEXT)
    code, out, _ = run(capsys, ["partial", str(profile), "--rule", "csr", "--mode", "pqi",
                                "--subset", "a1", "--r", "2", "--limit-nodes", "3"])
    assert code == 1
    assert ("solver", "r_sequential") in report_pairs(out)


def test_partial_ternary_r_query_ignores_node_limit(capsys, tmp_path):
    # a 6x6 profile of unknowns has 20^6 = 64,000,000 r-extensions at r = 3;
    # ternary queries go through the column-local routes, which enumerate
    # nothing, so a node limit of 3 leaves them alone
    profile = tmp_path / "open6.gid"
    profile.write_text("gid v1\nkind partial\nn 6\n" + "".join("row a%d%s\n" % (a, " ?" * 6) for a in range(1, 7)))
    for mode, route in (("nqi", "r_nqi"), ("pqi", "r_pqi_general")):
        code, out, _ = run(capsys, ["partial", str(profile), "--rule", "ternary:1,*,7", "--mode", mode,
                                    "--subset", "a1", "--r", "3", "--limit-nodes", "3"])
        pairs = dict(report_pairs(out))
        assert (code, pairs["result"], pairs["solver"]) == (0, "true", route)


def test_partial_xval_enumeration_refused(capsys, tmp_path):
    err = refuse_partial(capsys, tmp_path, ["--rule", "consent:2,1", "--xval", "--limit-nodes", "1"])
    assert err == "error\tInstanceTooLarge\t2^8 extensions exceed node limit 1\n"


def test_solve_invalid_instance(capsys, tmp_path):
    (tmp_path / "p.gid").write_text(EX1_TEXT)
    bad = tmp_path / "bad.gidinst"
    bad.write_text(
        "gidinst v1\nproblem GB\nobjective constructive\nrule consent 1 1\n"
        "profile p.gid\naplus a1\naminus\npool a1 a2\nbudget 1\n"
    )
    code, _, err = run(capsys, [" solve".strip(), str(bad)])
    assert code == 2
    assert "InvalidInstance" in err and "PoolNotAllowed" in err


def test_solve_prints_nontriviality_warnings(capsys, tmp_path):
    (tmp_path / "p.gid").write_text(EX1_TEXT)
    inst = tmp_path / "warn.gidinst"
    inst.write_text(
        "gidinst v1\nproblem GB\nobjective constructive\nrule consent 1 1\n"
        "profile p.gid\naplus a1\naminus\nbudget 1\n"
    )
    code, out, _ = run(capsys, ["solve", str(inst)])
    pairs = report_pairs(out)
    assert code == 0
    assert ("warning", "warning:AplusTriviallyQualified") in pairs
    assert ("solver", "trivial") in pairs


def test_solve_json_lines(capsys, tmp_path):
    out_dir = str(tmp_path / "g")
    run(capsys, ["gen", "cgcdi", "--out", out_dir])
    inst = out_dir + "/cgcdi.gidinst"
    code, out, _ = run(capsys, ["solve", inst, "--format", "json-lines"])
    assert code == 0
    keys = []
    for line in out.splitlines():
        obj = json.loads(line)
        assert set(obj) == {"key", "value"}
        keys.append(obj["key"])
    assert "verdict" in keys and "digest" in keys and "wall_ms" in keys


def test_named_solver_precondition_mismatch(capsys, tmp_path):
    out_dir = str(tmp_path / "g")
    run(capsys, ["gen", "cgcdi", "--out", out_dir])
    code, _, err = run(capsys, ["solve", out_dir + "/cgcdi.gidinst",
                                "--solver", "cgb_xp"])
    assert code == 3 and "PreconditionViolated" in err


def test_unknown_solver_is_config_error(capsys, tmp_path):
    out_dir = str(tmp_path / "g")
    run(capsys, ["gen", "cgcdi", "--out", out_dir])
    code, _, _ = run(capsys, ["solve", out_dir + "/cgcdi.gidinst",
                              "--solver", "nope"])
    assert code == 2


# --------------------------------------------------------------- partial


def test_partial_queries(capsys, tmp_path):
    path = tmp_path / "p.gid"
    path.write_text(PARTIAL_TEXT)
    code, out, _ = run(capsys, ["partial", str(path), "--rule", "consent:2,2",
                                "--mode", "pqi", "--subset", "a1,a3", "--xval"])
    pairs = dict(report_pairs(out))
    assert code == 0
    assert pairs["result"] == "true"
    assert pairs["agreement"] == "true"
    assert pairs["solver"] == "pqi"
    code, out, _ = run(capsys, ["partial", str(path), "--rule", "csr",
                                "--mode", "nqi", "--subset", "a1", "--xval"])
    pairs = dict(report_pairs(out))
    assert pairs["agreement"] == "true"
    assert code == (0 if pairs["result"] == "true" else 1)


def test_partial_fully_known_matches_direct_eval(capsys, tmp_path):
    text = PARTIAL_TEXT.replace("?", "-")
    path = tmp_path / "full.gid"
    path.write_text(text)
    profile = parse_profile(text)
    from gidsolve.profiles import eval as eval_rule, make_profile
    binary = make_profile(profile.rows(), kind="binary", names=profile.names)
    qualified = eval_rule(SocialRule.consent(2, 2), None, binary)
    member = profile.names[sorted(qualified)[0]]
    for mode in ("pqi", "nqi"):
        code, out, _ = run(capsys, ["partial", str(path), "--rule", "consent:2,2",
                                    "--mode", mode, "--subset", member, "--xval"])
        pairs = dict(report_pairs(out))
        assert code == 0
        assert pairs["result"] == "true"
        assert pairs["agreement"] == "true"


def test_partial_r_flag(capsys, tmp_path):
    path = tmp_path / "p.gid"
    path.write_text(PARTIAL_TEXT)
    # infeasible rows: a4 already has three fixed qualifications
    code, _, err = run(capsys, ["partial", str(path), "--rule", "consent:2,1",
                                "--mode", "pqi", "--subset", "a3", "--r", "2"])
    assert code == 3 and "NoRExtension" in err
    code, out, _ = run(capsys, ["partial", str(path), "--rule", "consent:2,1",
                                "--mode", "pqi", "--subset", "a3", "--r", "3",
                                "--xval"])
    pairs = dict(report_pairs(out))
    assert pairs["agreement"] == "true"
    assert pairs["solver"] == "r_pqi_consent_flow"
    assert code in (0, 1)


def test_partial_r_rows_share_one_message(capsys, tmp_path):
    # the flow, r_nqi and enumeration routes refuse an infeasible row alike
    path = tmp_path / "p.gid"
    path.write_text(PARTIAL_TEXT)
    expected = "error\tNoRExtension\trow a4 has 3 fixed qualifications and 1 unknowns, cannot reach r=2\n"
    for rule, mode in (("consent:2,1", "pqi"), ("consent:2,2", "pqi"), ("consent:2,1", "nqi"),
                       ("csr", "pqi"), ("lsr", "nqi")):
        code, out, err = run(capsys, ["partial", str(path), "--rule", rule, "--mode", mode,
                                      "--subset", "a3", "--r", "2"])
        assert (code, out, err) == (3, "", expected), (rule, mode)


# ------------------------------------------------------------- gen, diag


def test_gen_seeded_runs_are_byte_identical(capsys, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out_dir in (a, b):
        code, _, _ = run(capsys, ["gen", "cgcai-r", "--out", str(out_dir),
                                  "--m", "1", "--variant", "lsr", "--seed", "5",
                                  "--count", "2"])
        assert code == 0
    files_a = sorted(p.name for p in a.iterdir())
    files_b = sorted(p.name for p in b.iterdir())
    assert files_a == files_b and files_a
    for name in files_a:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_gen_profiles_roundtrip(capsys, tmp_path):
    out_dir = tmp_path / "g"
    code, out, _ = run(capsys, ["gen", "profile", "--out", str(out_dir),
                                "--n", "6", "--kind", "partial",
                                "--star-density", "0.2", "--seed", "17"])
    assert code == 0
    written = [v for k, v in report_pairs(out) if k == "wrote"]
    assert written == ["profile_partial_n6_s17.gid"]
    parsed = parse_profile((out_dir / written[0]).read_text())
    assert parsed.kind == "partial" and parsed.n == 6
    code, out, _ = run(capsys, ["gen", "r-profile", "--out", str(out_dir),
                                "--n", "5", "--r", "2", "--seed", "3"])
    assert code == 0
    parsed = parse_profile((out_dir / "rprofile_n5_r2_s3.gid").read_text())
    assert all(sum(1 for v in parsed.row(a) if v == 1) == 2 for a in range(5))


def test_gen_no_variants_solve_to_no(capsys, tmp_path):
    out_dir = str(tmp_path / "g")
    code, _, _ = run(capsys, ["gen", "cgb", "--out", out_dir, "--m", "2",
                              "--seed", "6", "--no"])
    assert code == 0
    code, out, _ = run(capsys, ["solve", out_dir + "/cgb_no_m2_s6.gidinst"])
    assert code == 1
    assert dict(report_pairs(out))["verdict"] == "NO"
    code, _, _ = run(capsys, ["gen", "cgcai-r", "--out", out_dir, "--m", "1",
                              "--seed", "6", "--no"])
    assert code == 0
    code, out, _ = run(capsys, ["solve", out_dir + "/cgcai_consent_no_m1_s6.gidinst"])
    assert code == 1


def test_diag_reports_quota_slack(capsys, tmp_path):
    out_dir = str(tmp_path / "g")
    run(capsys, ["gen", "cgb", "--out", out_dir, "--m", "1", "--seed", "3"])
    code, out, _ = run(capsys, ["diag", out_dir + "/cgb_m1_s3.gidinst"])
    pairs = report_pairs(out)
    as_dict = dict(pairs)
    assert code == 0
    assert as_dict["s_star"] == "2"
    assert as_dict["t_star"] == "none"
    assert sum(1 for k, _ in pairs if k == "slack") == 3


def test_diag_validates_like_solve(capsys, tmp_path):
    # an invalid instance ends diag the way it ends solve: the InvalidInstance
    # line and exit 2, no report
    (tmp_path / "t.gid").write_text(TERNARY_TEXT)
    path = tmp_path / "bad.gidinst"
    path.write_text("gidinst v1\nproblem GB\nobjective general\nrule consent 2 1\n"
                    "profile t.gid\naplus b1\naminus b1\nbudget 1\n")
    want = "error\tInvalidInstance\tRuleNotApplicable DisjointnessViolated\n"
    for command in ("solve", "diag"):
        assert run(capsys, [command, str(path)]) == (2, "", want)


def test_digest_is_path_independent(capsys, tmp_path):
    for sub in ("x", "y"):
        run(capsys, ["gen", "cgb", "--out", str(tmp_path / sub), "--m", "1",
                     "--seed", "3"])
    outs = []
    for sub in ("x", "y"):
        _, out, _ = run(capsys, ["solve", str(tmp_path / sub / "cgb_m1_s3.gidinst")])
        outs.append(dict(report_pairs(out))["digest"])
    assert outs[0] == outs[1]


# ------------------------------------------------------------------ xval


def test_xval_cgb_sweep_agrees(capsys):
    code, out, _ = run(capsys, ["xval", "--family", "GB", "--rule", "consent:2,1",
                                "--n", "5", "--count", "25", "--seed", "9"])
    pairs = dict(report_pairs(out))
    assert code == 0
    assert pairs["agreement"] == "true"
    assert any(k.startswith("xval:") for k, _ in report_pairs(out))


def test_xval_immunity_sweep(capsys):
    # destructive adding control under the liberal rule never succeeds
    code, out, _ = run(capsys, ["xval", "--family", "GCAI", "--objective",
                                "destructive", "--rule", "lsr", "--n", "5",
                                "--count", "25", "--seed", "9"])
    pairs = dict(report_pairs(out))
    assert code == 0
    assert pairs["agreement"] == "true"


def test_xval_more_families(capsys):
    sweeps = [
        ["xval", "--family", "GCDI", "--objective", "general", "--rule",
         "consent:2,2", "--n", "4", "--count", "15", "--seed", "11"],
        ["xval", "--family", "GCPI", "--objective", "exact", "--rule",
         "consent:2,2", "--n", "4", "--count", "10", "--seed", "12"],
        ["xval", "--family", "GMB", "--rule", "ternary:2,*,2", "--n", "4",
         "--count", "10", "--seed", "13"],
    ]
    for argv in sweeps:
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert dict(report_pairs(out))["agreement"] == "true"


def test_xval_runs_the_oracle_once(capsys, monkeypatch):
    # when solve_auto answered through the family's oracle, xval reuses that
    # verdict and its time instead of searching again
    calls = []
    oracle = solvers.ORACLES["control_brute"]
    monkeypatch.setitem(solvers.ORACLES, "control_brute",
                        lambda instance, search: calls.append(instance) or oracle(instance, search))
    code, out, _ = run(capsys, ["xval", "--family", "GCDI", "--objective", "general", "--rule", "csr",
                                "--n", "3", "--count", "12", "--seed", "5"])
    pairs = dict(report_pairs(out))
    assert code == 0 and pairs["agreement"] == "true"
    agree, auto_ms, brute_ms = re.fullmatch(r"agree (\d+)/\1 auto_ms (\S+) brute_ms (\S+)",
                                            pairs["xval:control_brute"]).groups()
    assert len(calls) == int(agree) > 0
    assert auto_ms == brute_ms


def test_xval_small_n_exits_cleanly(capsys):
    # every family, objective and rule at tiny n ends in a documented exit
    # code; the sampling scheme needs a target (and a GCAI exact pool of two)
    for family in ("GB", "GMB", "GCAI", "GCDI", "GCPI"):
        for objective in ("constructive", "destructive", "exact", "general"):
            for rule in ("consent:1,1", "csr", "lsr", "ternary:1,*,1"):
                for n in (0, 1, 2):
                    code, _, err = run(capsys, ["xval", "--family", family, "--objective", objective,
                                                "--rule", rule, "--n", str(n), "--count", "3"])
                    if objective == "general" or (family, objective) == ("GCAI", "exact"):
                        needs = 2
                    else:
                        needs = 0 if objective == "exact" else 1
                    if n < needs:
                        assert code == 2 and "ParseError" in err, (family, objective, rule, n)
                    else:
                        assert code == 0, (family, objective, rule, n)


def test_xval_count_below_one_is_config_error(capsys):
    for count in ("0", "-1"):
        code, out, err = run(capsys, ["xval", "--family", "GB", "--rule", "csr", "--n", "3",
                                      "--count", count])
        assert code == 2
        assert out == ""
        assert "count must be >= 1, got %s" % count in err
    code, _, err = run(capsys, ["xval", "--family", "GB", "--rule", "csr", "--n", "3", "--count", "x"])
    assert code == 2 and "invalid int value: 'x'" in err
    code, out, _ = run(capsys, ["xval", "--family", "GB", "--rule", "csr", "--n", "3", "--count", "1"])
    assert code == 0 and dict(report_pairs(out))["instances"] == "1"


def test_gen_count_below_one_is_config_error(capsys, tmp_path):
    out_dir = tmp_path / "g"
    for count in ("0", "-1"):
        code, out, err = run(capsys, ["gen", "profile", "--out", str(out_dir), "--count", count])
        assert code == 2
        assert out == ""
        assert "count must be >= 1, got %s" % count in err
    assert not out_dir.exists()
    code, _, err = run(capsys, ["gen", "profile", "--out", str(out_dir), "--count", "x"])
    assert code == 2 and "invalid int value: 'x'" in err
    code, out, _ = run(capsys, ["gen", "profile", "--out", str(out_dir), "--count", "2", "--seed", "5"])
    assert code == 0
    assert [v for k, v in report_pairs(out) if k == "wrote"] == [
        "profile_binary_n5_s5.gid", "profile_binary_n5_s6.gid"]


def test_refused_gen_leaves_no_directory(capsys, tmp_path):
    out_dir = tmp_path / "g"
    for args, text in (
        (["profile", "--n", "-1"], "profile size must be non-negative, got -1"),
        (["r-profile", "--r", "0"], "r must satisfy 1 <= r <= n, got r=0 n=5"),
        (["profile", "--star-density", "2"], "star density must lie in [0, 1], got 2.0"),
        (["cgb", "--no", "--m", "1"], "cover-free families need m >= 2"),
    ):
        code, out, err = run(capsys, ["gen", *args, "--out", str(out_dir)])
        assert code == 3
        assert out == ""
        assert text in err
        assert not out_dir.exists()


# ---------------------------------------------------------------- parser


def _drop_timing(out):
    return [line for line in out.splitlines() if not line.startswith("wall_ms")]


def test_cached_parser_keeps_no_state_between_calls(capsys, tmp_path, ex1_path):
    assert build_parser() is build_parser()
    out_dir = str(tmp_path / "g")
    run(capsys, ["gen", "cgb", "--out", out_dir, "--m", "2", "--seed", "4"])
    inst = out_dir + "/cgb_m2_s4.gidinst"
    partial = tmp_path / "p.gid"
    partial.write_text(PARTIAL_TEXT)
    plain = {
        "eval": ["eval", ex1_path, "--rule", "lsr"],
        "solve": ["solve", inst],
        "partial": ["partial", str(partial), "--rule", "consent:2,1", "--mode", "pqi", "--subset", "a3"],
    }
    flagged = {
        "eval": plain["eval"] + ["--trace"],
        "solve": plain["solve"] + ["--limit-nodes", "3", "--format", "json-lines"],
        "partial": plain["partial"] + ["--r", "3"],
    }
    first = {name: run(capsys, argv) for name, argv in plain.items()}
    for name, argv in flagged.items():
        assert run(capsys, argv) != first[name], name
    for name, argv in plain.items():
        code, out, err = run(capsys, argv)
        assert (code, err) == first[name][0::2], name
        assert _drop_timing(out) == _drop_timing(first[name][1]), name
    assert len(first["eval"][1].splitlines()) == 1
    assert not first["solve"][1].startswith("{")
    assert dict(report_pairs(first["partial"][1]))["solver"] == "pqi"
    parser = build_parser()
    assert parser.parse_args(plain["eval"]).trace is False
    args = parser.parse_args(plain["solve"])
    assert (args.limit_nodes, args.format, args.solver) == (None, "tsv", "auto")
    assert parser.parse_args(plain["partial"]).r is None
    # a bad flag between two good calls leaves the next call untouched
    assert run(capsys, plain["eval"])[0] == 0
    assert run(capsys, plain["eval"] + ["--bogus"])[0] == 2
    assert run(capsys, ["solve", inst, "--limit-nodes", "-1"])[0] == 2
    assert run(capsys, plain["eval"]) == first["eval"]


def test_digest_instance_independent_of_names(tmp_path, capsys):
    out_dir = str(tmp_path / "g")
    run(capsys, ["gen", "cgcdi", "--out", out_dir])
    from gidsolve.generators import gen_planted_cgcdi
    assert digest_instance(gen_planted_cgcdi()) != digest_instance(
        gen_planted_cgcdi(perturbed=True)
    )


# ------------------------------------------------------------ parser fuzz

TERNARY_TEXT = """gid v1
kind ternary
n 3
row b1 + * -
row b2 * - +
row b3 - + *
"""

R2_TEXT = """gid v1
kind binary
n 3
row c1 + + -
row c2 - + +
row c3 + - +
"""

# Each base instance ends with its problem line, so cutting the text
# anywhere before its last character leaves it without a valid family.
FUZZ_INSTANCES = [
    "gidinst v1\nobjective general\nrule consent 2 1\nprofile ex1.gid\naplus a1\naminus a2 a3\n"
    "budget 2\nagentprice a1 2\nagentprice a4 3\nproblem GB\n",
    "gidinst v1\nobjective constructive\nrule csr\nprofile ex1.gid\naplus a1 a5\naminus\nbudget 3\n"
    "pairprice a1 a2 2\npairprice a3 a1 1\nproblem GMB\n",
    "gidinst v1\nobjective exact\nrule lsr\nprofile ex1.gid\npool a1 a2 a3\naplus a1\naminus a2 a3\n"
    "budget 1\nproblem GCAI\n",
    "gidinst v1\nobjective destructive\nrule consent 1 2\nprofile r2.gid\naplus\naminus c2\n"
    "budget 1\nr 2\nproblem GCDI\n",
    "gidinst v1\nobjective general\nrule ternary 2 * 2\nprofile t.gid\naplus b1\naminus b2\nproblem GCPI\n",
]

# Not valid at any position of either format: not a key, kind, integer,
# cell, rule word or individual name.
FUZZ_GARBAGE = ("@", "#x", "+-", "1.5", "--", "0x1", "?!", "\x7f", "\x00", "a\x00b")


def _corruptions(text, kind):
    """Every token of the text replaced by every garbage token in turn (a row
    name by another row's name instead: any token is a valid name)."""
    lines = text.splitlines()
    names = [line.split(" ")[1] for line in lines if line.startswith("row ")]
    for i, line in enumerate(lines):
        tokens = line.split(" ")
        for j, token in enumerate(tokens):
            if kind == "gid" and tokens[0] == "row" and j == 1:
                choices = [name for name in names if name != token]
            else:
                choices = FUZZ_GARBAGE
            for garbage in choices:
                changed = tokens[:j] + [garbage] + tokens[j + 1:]
                yield "\n".join(lines[:i] + [" ".join(changed)] + lines[i + 1:]) + "\n"


def _duplicate_or_cut(rng, text):
    """A copy of one line put anywhere, or a cut before the last character."""
    if rng.random() < 0.5:
        return text[:rng.randint(0, len(text.rstrip()) - 1)]
    lines = text.splitlines()
    lines.insert(rng.randint(0, len(lines)), rng.choice(lines))
    return "\n".join(lines) + "\n"


def test_parser_fuzz_exits_cleanly(capsys, tmp_path):
    # Every broken .gid or .gidinst file ends in exit 2 or 3 with an error
    # line, never in a traceback.
    rng = random.Random(606)
    (tmp_path / "ex1.gid").write_text(EX1_TEXT)
    (tmp_path / "t.gid").write_text(TERNARY_TEXT)
    (tmp_path / "r2.gid").write_text(R2_TEXT)
    base_inst = tmp_path / "base.gidinst"
    for base in FUZZ_INSTANCES:
        base_inst.write_text(base)
        assert run(capsys, ["solve", str(base_inst)])[0] in (0, 1, 4)
    bad_gid = str(tmp_path / "bad.gid")
    bad_inst = str(tmp_path / "bad.gidinst")
    (tmp_path / "via.gidinst").write_text(FUZZ_INSTANCES[4].replace("t.gid", "bad.gid"))
    gid_commands = [
        ["eval", bad_gid, "--rule", "consent:1,1"],
        ["partial", bad_gid, "--rule", "consent:1,1", "--mode", "pqi", "--subset", "a1"],
        ["solve", str(tmp_path / "via.gidinst")],  # the profile read through an instance
    ]
    inst_commands = [["solve", bad_inst], ["diag", bad_inst]]
    cases = []
    for base in (EX1_TEXT, PARTIAL_TEXT, TERNARY_TEXT, R2_TEXT):
        cases += [(bad_gid, text, gid_commands[step % 3]) for step, text in enumerate(_corruptions(base, "gid"))]
        cases += [(bad_gid, _duplicate_or_cut(rng, base), command) for _ in range(25) for command in gid_commands]
    for base in FUZZ_INSTANCES:
        cases += [(bad_inst, text, inst_commands[step % 2]) for step, text in enumerate(_corruptions(base, "gidinst"))]
        cases += [(bad_inst, _duplicate_or_cut(rng, base), command) for _ in range(25) for command in inst_commands]
    for path, text, argv in cases:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
        code, _out, err = run(capsys, argv)
        assert code in (2, 3), (argv, text)
        assert err.startswith("error\t") and "Traceback" not in err, (argv, text, err)
