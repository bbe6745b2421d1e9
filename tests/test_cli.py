"""Command-line interface: golden outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys

from flagtutte import cli, invariants
from flagtutte.errors import NonCancellingPole
from flagtutte.genfun import EquivariantPolynomial
from flagtutte.invariants import VerifyReport, lv_tutte_equivariant

DATA = os.path.join(os.path.dirname(__file__), "data")
FLAG_PATH = os.path.join(DATA, "flag_u13_u23.json")
KT_GOLDEN = "x^2*y^2 + x^2*y + x*y^2 + x^2 + 2*x*y + y^2"


def run_cli(*args):
    """Run the CLI in a subprocess; returns (exit code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "flagtutte.cli", *args],
        capture_output=True, text=False)
    return proc.returncode, proc.stdout, proc.stderr


def run_main(*args, capsys=None):
    """Run the CLI in-process; returns (exit code, stdout text).

    Stderr from the call is available as run_main.err afterwards.
    """
    code = cli.main(list(args))
    if capsys:
        captured = capsys.readouterr()
        run_main.err = captured.err
        return code, captured.out
    run_main.err = ""
    return code, ""


# ---------------------------------------------------------------- goldens


def test_compute_kt_text(capsys):
    code, out = run_main("compute", "--invariant", "kt",
                         "--input", FLAG_PATH, capsys=capsys)
    assert code == 0
    assert out == KT_GOLDEN + "\n"


def test_compute_lvt_text(capsys):
    code, out = run_main("compute", "--invariant", "lvt",
                         "--input", FLAG_PATH, capsys=capsys)
    assert code == 0
    assert out == "x*z + y + 2*z + 2\n"


def test_compute_tutte_inline(capsys):
    code, out = run_main("compute", "--invariant", "tutte", "--input",
                         '{"type":"uniform","r":1,"n":2}', capsys=capsys)
    assert code == 0
    assert out == "x + y\n"


def test_compute_json_format(capsys):
    code, out = run_main("compute", "--invariant", "kt", "--input",
                         FLAG_PATH, "--format", "json", "--threads", "2",
                         capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "equivariant": False,
        "input": "f442ab6d6ba742da",
        "invariant": "kt",
        "threads": 2,
        "value": KT_GOLDEN,
    }
    # no timing field: output must be byte-reproducible
    assert "seconds" not in out


def test_compute_equivariant_json(capsys):
    code, out = run_main("compute", "--invariant", "lvt", "--input",
                         '{"type":"flag","constituents":'
                         '[{"type":"uniform","r":1,"n":1},'
                         '{"type":"uniform","r":1,"n":1}]}',
                         "--equivariant", "--format", "json",
                         "--threads", "1", capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["equivariant"] is True
    value = doc["value"]
    assert value["n"] == 1
    assert len(value["terms"]) == 2
    # the declared serialization schema round-trips
    from flagtutte import EquivariantPolynomial
    back = EquivariantPolynomial.from_json(value)
    from flagtutte import Matroid, lv_tutte_equivariant
    assert back == lv_tutte_equivariant(Matroid.uniform(1, 1),
                                        Matroid.uniform(1, 1))


def test_pseudobases_text(capsys):
    code, out = run_main("pseudobases", "--input", FLAG_PATH, capsys=capsys)
    assert code == 0
    assert out == ("size 1 (3): {1} {2} {3}\n"
                   "size 2 (3): {1,2} {1,3} {2,3}\n")


def test_pseudobases_json(capsys):
    code, out = run_main("pseudobases", "--input", FLAG_PATH,
                         "--format", "json", capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["sizes"] == {"1": 3, "2": 3}
    assert doc["pseudo_bases"] == [[1], [2], [3], [1, 2], [1, 3], [2, 3]]


def test_pseudobases_larger_flag(capsys):
    path = os.path.join(DATA, "flag_u14_u24.json")
    code, out = run_main("pseudobases", "--input", path, "--format", "json",
                         capsys=capsys)
    assert code == 0
    assert json.loads(out)["sizes"] == {"1": 4, "2": 6}


def test_verify_kt22_text(capsys):
    code, out = run_main("verify", "--identity", "kt22", capsys=capsys)
    assert code == 0
    assert out == (
        "  equivariant pseudo-basis identity: ok\n"
        "  one-variable pseudo-basis identity: ok\n"
        "  value at (2,2) equals 2^n times the pseudo-basis count: ok\n"
        "  kt_at_2_2 = 48\n"
        "  pseudo_bases = 6\n"
        "PASS\n")


def test_verify_brion_example(capsys):
    code, out = run_main("verify", "--identity", "brion-example",
                         capsys=capsys)
    assert code == 0
    assert out.endswith("PASS\n")


def test_verify_h_uv_reports_candidate(capsys):
    code, out = run_main("verify", "--identity", "h-uv", capsys=capsys)
    assert code == 0
    assert "candidate_in_uv = False" in out
    assert out.endswith("PASS\n")


def test_verify_with_input(capsys):
    code, out = run_main("verify", "--identity", "duality", "--input",
                         FLAG_PATH, capsys=capsys)
    assert code == 0
    assert out.endswith("PASS\n")


def test_verify_direct_sum_list_input(capsys):
    doc = json.dumps([
        {"type": "flag", "constituents": [{"type": "uniform", "r": 1,
                                          "n": 2}]},
        {"type": "flag", "constituents": [{"type": "uniform", "r": 2,
                                          "n": 3}]},
    ])
    code, out = run_main("verify", "--identity", "direct-sum", "--input",
                         doc, capsys=capsys)
    assert code == 0
    assert out.endswith("PASS\n")


def test_verify_on_the_empty_ground_set(capsys):
    # a flag on no elements has no blocks; its support is the unit
    empty = {"type": "uniform", "r": 0, "n": 0}
    runs = [(identity, json.dumps(empty))
            for identity in ("duality", "latticepoints", "h-uv")]
    runs.append(("kt22", json.dumps({"type": "flag",
                                     "constituents": [empty, empty]})))
    for identity, doc in runs:
        code, out = run_main("verify", "--identity", identity, "--input",
                             doc, capsys=capsys)
        assert code == 0, identity
        assert out.endswith("PASS\n"), identity


def test_verify_json_format(capsys):
    code, out = run_main("verify", "--identity", "latticepoints",
                         "--format", "json", "--threads", "1",
                         capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["identity"] == "latticepoints"


def test_corpus_verb(capsys):
    code, out = run_main("corpus", capsys=capsys)
    assert code == 0
    assert out.startswith("matroids: 280\n")
    assert "quotient pairs: 920" in out


# ----------------------------------------------------------- determinism


def test_byte_identical_reruns():
    for args in (
        ("compute", "--invariant", "kt", "--input", FLAG_PATH),
        ("compute", "--invariant", "kt", "--input", FLAG_PATH,
         "--format", "json", "--threads", "2"),
        ("verify", "--identity", "kt22", "--format", "json",
         "--threads", "2"),
        ("pseudobases", "--input", FLAG_PATH, "--format", "json"),
    ):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first == second
        assert first[0] == 0
        assert first[1] == second[1]  # bytes, not just text


# ------------------------------------------------------------- exit codes


def test_exit_2_missing_file(capsys):
    code, _ = run_main("compute", "--invariant", "kt", "--input",
                       "/no/such/file.json", capsys=capsys)
    assert code == 2
    assert "input error" in run_main.err


def test_exit_2_bad_inline_json(capsys):
    code, _ = run_main("compute", "--invariant", "kt", "--input",
                       '{"type": }', capsys=capsys)
    assert code == 2


def test_exit_2_unknown_invariant(capsys):
    code, _ = run_main("compute", "--invariant", "zeta", "--input",
                       FLAG_PATH, capsys=capsys)
    assert code == 2


def test_exit_2_unknown_identity(capsys):
    code, _ = run_main("verify", "--identity", "zeta", capsys=capsys)
    assert code == 2


def test_exit_2_beta_rank_gap_zero(capsys):
    code, _ = run_main("compute", "--invariant", "beta", "--input",
                       '{"type":"uniform","r":2,"n":3}', capsys=capsys)
    assert code == 2


def test_exit_2_equivariant_unsupported(capsys):
    code, _ = run_main("compute", "--invariant", "h", "--input",
                       FLAG_PATH, "--equivariant", capsys=capsys)
    assert code == 2


def test_exit_2_bad_threads(capsys, monkeypatch):
    code, _ = run_main("compute", "--invariant", "tutte", "--input",
                       '{"type":"uniform","r":1,"n":2}', "--threads", "0",
                       capsys=capsys)
    assert code == 2
    monkeypatch.setenv("FLAGTUTTE_THREADS", "lots")
    code, _ = run_main("compute", "--invariant", "tutte", "--input",
                       '{"type":"uniform","r":1,"n":2}', capsys=capsys)
    assert code == 2


def test_exit_2_pseudobases_needs_two_steps(capsys):
    code, _ = run_main("pseudobases", "--input",
                       '{"type":"uniform","r":1,"n":2}', capsys=capsys)
    assert code == 2


def test_exit_2_non_quotient_flag(capsys):
    code, _ = run_main("compute", "--invariant", "kt", "--input",
                       '{"type":"flag","constituents":'
                       '[{"type":"uniform","r":2,"n":3},'
                       '{"type":"uniform","r":1,"n":3}]}', capsys=capsys)
    assert code == 2


def test_exit_2_integer_fields_that_are_no_integers(capsys):
    # fractional elements and ranks, and negative vertex labels, exit 2
    # instead of computing on a truncated or aliased matroid
    for doc, message in [
            ('{"type":"bases","n":3,"bases":[[1.9,2]]}', "got 1.9"),
            ('{"type":"uniform","r":true,"n":3}', "got true"),
            ('{"type":"graphic","edges":[[-1,2],[2,3],[3,-1]]}',
             "vertex label -1 is negative")]:
        code, out = run_main("compute", "--invariant", "tutte", "--input",
                             doc, capsys=capsys)
        assert (code, out) == (2, "")
        assert run_main.err.startswith("input error: ") and message in \
            run_main.err


def test_exit_2_kchi_conjecture_on_the_empty_ground_set(capsys):
    code, out = run_main("verify", "--identity", "kchi-conjecture",
                         "--input", '{"type":"uniform","r":0,"n":0}',
                         capsys=capsys)
    assert code == 2 and out == ""
    assert "nonempty ground set (n >= 1" in run_main.err
    assert "r=1" not in run_main.err


def test_exit_3_internal_assertion(capsys, monkeypatch):
    def boom(fm):
        raise NonCancellingPole("pole fails to cancel")
    monkeypatch.setattr(invariants, "verify_kt22", boom)
    code, _ = run_main("verify", "--identity", "kt22", capsys=capsys)
    assert code == 3
    assert "internal assertion" in run_main.err


def test_exit_4_falsified_identity(capsys, monkeypatch):
    def failed(fm):
        report = VerifyReport("kt22")
        report.check("deliberately failing check", False)
        return report
    monkeypatch.setattr(invariants, "verify_kt22", failed)
    code, out = run_main("verify", "--identity", "kt22", capsys=capsys)
    assert code == 4
    assert "FAIL" in out


def test_kchi_conjecture_exits_zero_even_on_mismatch(capsys, monkeypatch):
    def observational(m):
        report = VerifyReport("kchi-conjecture")
        report.data["matches"] = False
        report.data["value"] = 0
        report.details.append(("k_char equals (q-1)^r", False))
        return report
    monkeypatch.setattr(invariants, "check_kchi_conjecture", observational)
    code, out = run_main("verify", "--identity", "kchi-conjecture",
                         "--input", '{"type":"uniform","r":1,"n":2}',
                         capsys=capsys)
    assert code == 0


def test_exit_4_one_step_equivariant_mismatch(capsys, monkeypatch):
    def shifted(m1, m2):
        phi = lv_tutte_equivariant(m1, m2)
        return EquivariantPolynomial(phi.n + 1, {
            w + (0,): c for w, c in phi.support.items()})
    monkeypatch.setattr(invariants, "lv_tutte_equivariant", shifted)
    code, out = run_main("verify", "--identity", "one-step-equivariant",
                         capsys=capsys)
    assert code == 4
    assert out.endswith("FAIL\n")


def test_exit_2_one_step_equivariant_rank_zero(capsys):
    code, out = run_main("verify", "--identity", "one-step-equivariant",
                         "--input", '{"type":"uniform","r":0,"n":2}',
                         capsys=capsys)
    assert code == 2 and out == ""
    assert "first constituent of rank >= 1" in run_main.err


def test_command_names_keep_their_order():
    assert cli.INVARIANTS == (
        "tutte", "characteristic", "lvt", "kt", "h", "h-lv", "beta",
        "beta-reduced", "beta-invariant", "poincare", "kchar")
    assert cli.IDENTITIES == (
        "delcont", "kt22", "lvt-special", "lvt-delcont", "duality",
        "direct-sum", "latticepoints", "h-uv", "beta-higgs",
        "kchi-conjecture", "brion-example", "one-step-equivariant")


def test_threads_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("FLAGTUTTE_THREADS", "3")
    code, out = run_main("compute", "--invariant", "tutte", "--input",
                         '{"type":"uniform","r":1,"n":2}', "--format",
                         "json", capsys=capsys)
    assert code == 0
    assert json.loads(out)["threads"] == 3
