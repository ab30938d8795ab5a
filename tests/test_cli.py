"""Command-line entry point: flags, report formats, exit codes, determinism."""

import json
import time

import pytest

from toruslie import cli, glmod, suites

from conftest import run_fresh


def run_main(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_json_report_shape_and_echo(capsys):
    code, out, err = run_main(
        ["--n", "2", "--lambda", "1/3,1/2", "--suite", "iso,lattice"], capsys)
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"config", "suites"}
    cfgd = report["config"]
    assert cfgd["n"] == 2
    assert cfgd["lambda"] == ["1/3", "1/2"]
    assert cfgd["suites"] == ["iso", "lattice"]
    assert cfgd["window"] == {"central": 2, "genBound": 2,
                              "depth": 3, "margin": 6}
    names = [s["name"] for s in report["suites"]]
    assert names == ["iso", "lattice"]
    for entry in report["suites"]:
        assert set(entry) <= {"name", "status", "counters", "timeMs",
                              "logDigest", "failures"}
        assert entry["status"] in ("pass", "evidence-pass")
        assert "failures" not in entry
        assert entry["timeMs"] == 0  # --timings not passed
        assert len(entry["logDigest"]) == 64


def test_evidence_suites_never_plain_pass(capsys):
    code, out, _ = run_main(
        ["--n", "2", "--lambda", "1/3,1/2", "--suite", "simplicity"], capsys)
    assert code == 0
    for entry in json.loads(out)["suites"]:
        assert entry["status"] == "evidence-pass"


def test_csv_has_one_row_per_suite(capsys):
    code, out, _ = run_main(
        ["--n", "2", "--suite", "iso,identities,axioms", "--format", "csv"],
        capsys)
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 4
    assert lines[0].startswith("name,status,")
    assert lines[1].split(",")[0] == "iso"


@pytest.mark.parametrize("lam", ["--lambda=5/4,1/2", "--lambda=-3/4,1/2",
                                 "--lambda=9/4,1/3,1/5"])
def test_iso_moves_a_twist_congruent_to_a_quarter(lam, capsys):
    # the moved-twist case must leave the lattice class of 1/4 mod Z
    n = str(lam.count(",") + 1)
    code, out, _ = run_main(["--n", n, lam, "--suite", "iso"], capsys)
    assert code == 0, out
    assert json.loads(out)["suites"][0]["status"] == "pass"


def test_negative_lambda_space_form_runs_like_the_equals_form(capsys):
    base = ["--n", "2", "--suite", "iso,lattice"]
    spaced = run_main(base + ["--lambda", "-1/2,1/3"], capsys)
    joined = run_main(base + ["--lambda=-1/2,1/3"], capsys)
    assert spaced == joined
    code, out, err = spaced
    assert code == 0, err
    assert json.loads(out)["config"]["lambda"] == ["-1/2", "1/3"]


def test_unknown_suite_is_usage_error(monkeypatch, capsys):
    ran = []
    monkeypatch.setitem(suites.SUITES, "iso", ran.append)
    for names in ("nope", "iso,nope"):
        code, out, err = run_main(["--n", "2", "--suite", names], capsys)
        assert code == 2
        assert not out
        assert "unknown suite" in err
    assert not ran  # names are checked before any suite runs


def test_margin_violation_is_usage_error(capsys):
    code, _, err = run_main(
        ["--n", "2", "--window", "2,2,3,1", "--suite", "iso"], capsys)
    assert code == 2
    assert "margin violation" in err


def test_bad_lambda_is_usage_error(capsys):
    for twist in ("1/3", "1/0,1", "1,2/0", ""):
        code, out, err = run_main(
            ["--n", "2", "--lambda", twist, "--suite", "iso"], capsys)
        assert code == 2
        assert not out
        assert err.startswith("error:") and len(err.splitlines()) == 1
        # the attached form reads the same value
        assert run_main(["--n", "2", "--lambda=" + twist, "--suite", "iso"],
                        capsys) == (code, out, err)


def test_suite_list_naming_no_suite_is_usage_error(monkeypatch, capsys):
    ran = []
    monkeypatch.setitem(suites.SUITES, "iso", ran.append)
    for names in (",,", "", " , "):
        code, out, err = run_main(["--n", "2", "--suite", names], capsys)
        assert code == 2, names
        assert not out
        assert err.startswith("error:") and len(err.splitlines()) == 1, err
        assert "names no suite" in err
    assert not ran


def test_non_rational_lambda_entry_is_named(capsys):
    for twist in ("0.5,0", "nan", "1e400", "1/2/3,1", "1/,0"):
        code, out, err = run_main(
            ["--n", "2", "--lambda", twist, "--suite", "iso"], capsys)
        assert code == 2, twist
        assert not out
        assert err.startswith("error:") and len(err.splitlines()) == 1, err
        assert repr(twist.split(",")[0]) in err and "p/q" in err, err


def test_malformed_module_and_window_name_the_flag(capsys):
    for argv, form in ((["--module", "sym:x"], "sym:m"),
                       (["--module", "spin:7"], "sym:m"),
                       (["--window", "a,b,c,d"], "B,R,L,M"),
                       (["--window", "1,2,1"], "B,R,L,M")):
        code, out, err = run_main(["--n", "2", "--suite", "iso"] + argv, capsys)
        assert code == 2, argv
        assert not out
        assert err.startswith("error: %s" % argv[0]) and len(err.splitlines()) == 1, err
        assert form in err and repr(argv[1]) in err, err


def test_module_is_validated_without_building_it(monkeypatch, capsys):
    builds = []
    init = glmod.FinModule.__init__

    def counted(self, *args):
        builds.append(args[0])
        init(self, *args)
    monkeypatch.setattr(glmod.FinModule, "__init__", counted)
    # n=5 has no preset window: the error comes before any module is built
    code, out, err = run_main(["--n", "5", "--module", "ext:2", "--suite", "iso"], capsys)
    assert code == 2 and not out
    assert err == "error: no default window for n=5\n"
    # a power out of range for n is named without a build either
    for name in ("ext:6", "sym:-1"):
        code, out, err = run_main(["--n", "5", "--module", name, "--suite", "iso"], capsys)
        assert code == 2 and not out
        assert err == "error: --module: module %r: power %s out of range\n" \
            % (name, name[4:]), err
    assert builds == []


def test_bad_n_is_reported_before_the_module(capsys):
    for argv in (["--n", "-3", "--module", "ext:0"], ["--n", "1", "--module", "sym:x"]):
        code, out, err = run_main(argv + ["--suite", "iso"], capsys)
        assert code == 2, argv
        assert not out
        assert err.startswith("error: --n %s:" % argv[1]) and len(err.splitlines()) == 1, err


def test_module_spellings_give_one_report(capsys):
    reports = {run_main(["--n", "2", "--module", name, "--suite", "axioms"], capsys)
               for name in ("SYM:2", " sym:2 ", "sym:2")}
    assert len(reports) == 1
    code, out, err = reports.pop()
    assert code == 0, err
    assert json.loads(out)["config"]["module"] == "sym:2"


def test_space_form_values_and_argparse_errors_are_one_line(capsys):
    for argv in (["--window", "-1,2,1,2"], ["--lamb", "-1/2,1/3,1/5"],
                 ["--format", "xml"], ["--bogus"], ["--n", "x"], ["--lambda"]):
        code, out, err = run_main(["--n", "2", "--suite", "iso"] + argv, capsys)
        assert code == 2, argv
        assert not out
        assert err.startswith("error:") and len(err.splitlines()) == 1, err
    spaced = run_main(["--n", "2", "--window", "-1,2,1,2"], capsys)
    joined = run_main(["--n", "2", "--window=-1,2,1,2"], capsys)
    assert spaced == joined
    assert "at least 1" in spaced[2]
    # an abbreviated flag takes a negative value in the space form too
    assert run_main(["--n", "2", "--lamb", "-1/2,1/3", "--suite", "iso"], capsys) \
        == run_main(["--n", "2", "--lambda=-1/2,1/3", "--suite", "iso"], capsys)


def test_explicit_window_runs_as_given_or_exits(capsys):
    code, out, err = run_main(
        ["--n", "2", "--window", "0,2,0,0", "--suite", "iso"], capsys)
    assert code == 2
    assert not out
    assert "at least 1" in err
    code, out, _ = run_main(
        ["--n", "2", "--window", "1,2,1,2", "--suite", "iso"], capsys)
    assert code == 0
    assert json.loads(out)["config"]["window"] == {
        "central": 1, "genBound": 2, "depth": 1, "margin": 2}
    # n=5 has no preset window: an explicit one runs, a missing one exits
    code, out, _ = run_main(
        ["--n", "5", "--window", "1,1,1,1", "--suite", "iso"], capsys)
    assert code == 0
    assert json.loads(out)["config"]["n"] == 5
    code, out, err = run_main(["--n", "5", "--suite", "iso"], capsys)
    assert code == 2
    assert not out
    assert "no default window for n=5" in err


def test_k_out_of_range_is_usage_error(monkeypatch, capsys):
    ran = []
    monkeypatch.setitem(suites.SUITES, "identities", ran.append)
    for names in ("iso", "identities,minuscule"):
        code, out, err = run_main(["--n", "2", "--k", "7", "--suite", names], capsys)
        assert code == 2
        assert not out
        assert "exterior level k=7" in err and len(err.splitlines()) == 1
    assert not ran  # k is checked before any suite runs


def test_simplicity_runs_at_the_top_exterior_power(capsys):
    # at k = n the kernel is the whole module, so maximality is skipped
    for argv in (["--n", "2", "--lambda", "1/3,1/2", "--k", "2",
                  "--suite", "iso,simplicity", "--window", "1,1,1,1"],
                 ["--n", "3", "--lambda", "1/2,1/3,1/5", "--k", "3",
                  "--suite", "simplicity"]):
        code, out, err = run_main(argv, capsys)
        assert code == 0, err
        entry = json.loads(out)["suites"][-1]
        assert entry["name"] == "simplicity"
        assert entry["status"] == "evidence-pass"


def test_integer_twist_off_the_window_passes_lattice(capsys):
    # (5,5) is congruent to (0,0); its fixed line lies outside the window
    code, out, err = run_main(
        ["--n", "2", "--lambda", "5,5", "--suite", "lattice"], capsys)
    assert code == 0, err
    entry = json.loads(out)["suites"][0]
    assert entry["status"] == "pass"
    assert entry["counters"]["max_rank"] == entry["counters"]["dim"] == 25


def test_out_file_written_and_stable(tmp_path, capsys):
    argv = ["--n", "2", "--lambda", "1/3,1/2", "--suite", "lattice,iso",
            "--seed", "11"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(argv + ["--out", str(a)]) == 0
    time.sleep(0.01)  # wall time must not leak into the default report
    assert cli.main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["config"]["seed"] == 11


def test_out_into_missing_directory_is_usage_error(tmp_path, capsys):
    path = tmp_path / "no" / "such" / "dir" / "r.json"
    code, out, err = run_main(
        ["--n", "2", "--suite", "iso", "--out", str(path)], capsys)
    assert code == 2
    assert not out
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert not path.exists()


def test_failing_suite_sets_exit_code(monkeypatch, capsys):
    def broken(cfg):
        res = suites.SuiteResult("iso")
        res.check("fingerprints_distinguish", False, "forced")
        return res

    monkeypatch.setitem(suites.SUITES, "iso", broken)
    code, out, err = run_main(["--n", "2", "--suite", "iso"], capsys)
    assert code == 1
    assert json.loads(out)["suites"][0]["status"] == "fail"
    assert "fingerprints_distinguish" in err


def test_timings_flag_reports_wall_time(capsys):
    code, out, _ = run_main(
        ["--n", "2", "--suite", "identities", "--timings"], capsys)
    assert code == 0
    entry = json.loads(out)["suites"][0]
    assert entry["timeMs"] >= 0


#: run in a fresh interpreter: the modules that importing the package and
#: one run add to those the interpreter started with
FOOTPRINT = """
import sys
before = set(sys.modules)
from toruslie import cli
code = cli.main(["--n", "2", "--suite", "lattice,iso", "--out", sys.argv[1]])
print(sorted({"hashlib", "_hashlib"} & (set(sys.modules) - before)))
sys.exit(code)
"""


def test_a_run_loads_no_openssl(tmp_path):
    proc = run_fresh(FOOTPRINT, str(tmp_path / "r.json"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
