"""Byte-exact report gate: the sha256 of the --out JSON of reference runs.

A change to any of these digests changes what the reports say; a change
that only makes the engine faster leaves them alone.
"""

import hashlib
import json

import pytest

from toruslie import cli

from conftest import run_fresh

REFERENCE = [
    pytest.param(["--n", "2", "--lambda", "1/2,1/3"],
                 "e40e57b4ec1938f71a70fb89240b579fa226e9ed9c53bc385019ca83a035ee1f",
                 id="n2-generic-natural"),
    # the CSV report: one log_digest column per suite
    pytest.param(["--n", "2", "--lambda", "1/2,1/3", "--format", "csv"],
                 "c9e7551e7d69801d2fa932cc04fb5ba26096dda919f8f156c8468c33a010288f",
                 id="n2-generic-natural-csv"),
    pytest.param(["--n", "2", "--lambda", "1/2,1/3", "--module", "sym:2"],
                 "482b373ce6443c9c98460d07784a9f6e8e61fca06e72b2c7d99aecb69d9e381b",
                 id="n2-generic-sym2"),
    pytest.param(["--n", "2", "--lambda", "0,0", "--module", "sym:2"],
                 "470269aef5254156551426d7d2b416517bf9567139944d967f38ae1fcb1d6d70",
                 id="n2-integer-sym2"),
    # n=3 is the least rank at which the minuscule suite evaluates image_probe
    pytest.param(["--n", "3", "--lambda", "1/2,1/3,1/5", "--suite", "minuscule",
                  "--window", "1,2,1,2"],
                 "e647a68159075eff4cf630ea434b25031a93cd8d0ce37d14209da768296b6c86",
                 id="n3-generic-minuscule"),
    pytest.param(["--n", "3", "--lambda", "0,0,0", "--suite", "minuscule",
                  "--window", "1,2,1,2"],
                 "e85ea315dc6a778ec01613f3affc8e346aff510fca704524731fd146507df437",
                 id="n3-integer-minuscule"),
    # n > 3 takes the sampled image_probe branch and a 5-node r_i^2 grid
    pytest.param(["--n", "4", "--lambda", "1/2,1/3,1/5,1/7", "--suite", "minuscule"],
                 "6b64ea11b0fc10e4b70b05a220f90cc8b161ec1bdf0eb7899e6e6358b0658cd9",
                 id="n4-generic-minuscule"),
    # the default twist 0 is integral: the invariance sweep meets tau = 0
    pytest.param(["--n", "4", "--suite", "minuscule"],
                 "9cdc927ccd62f40768c3dbcaecbb5ae1765b48cba07d9e735df7d20072f7377e",
                 id="n4-integer-minuscule"),
    # the least window at n=5: invariance is the lattice proof at every degree
    pytest.param(["--n", "5", "--window", "1,1,1,1", "--suite", "minuscule"],
                 "f794d663c84357bc93aca73b995d0a5eb7089d2dab615d8684fc3fc5ab58076b",
                 id="n5-integer-minuscule"),
    # the exact suites: act_direct, act_shifted_field and both de Rham maps
    pytest.param(["--n", "3", "--lambda", "1/2,1/3,1/5",
                  "--suite", "identities,axioms,derham"],
                 "173b4dd20a7b2978f79b9dd83145a3c3f1ea56119cf1662f85d0277ae76647d9",
                 id="n3-generic-exact"),
    pytest.param(["--n", "4", "--lambda", "1/2,1/3,1/5,1/7", "--suite", "axioms,derham"],
                 "c4b7fa64cd729cf28631cfe4b1c083b70b13ab4b597b2e8c9f76f7cbc02ed54d",
                 id="n4-generic-exact"),
    # twists whose denominators the integer field and operator paths clear
    pytest.param(["--n", "2", "--lambda", "-1/2,3/7", "--suite", "identities"],
                 "3b615c5089a8f33720759a70e31352bcce24009b699535db6411e8d55f3cb464",
                 id="n2-generic-identities"),
    pytest.param(["--n", "4", "--lambda", "1/2,1/3,1/5,1/7", "--suite", "identities,axioms"],
                 "2fd7b699a59f5627d644f0c76e056e12adec46b52cc807fcca0abdbda447886a",
                 id="n4-generic-identities-axioms"),
    pytest.param(["--n", "3", "--lambda", "0,0,0", "--suite", "axioms,derham"],
                 "ad4702f6db587a1be62477eece87d2c05c1f95eebbde97a7903df5d8587c323c",
                 id="n3-integer-exact"),
    # lattice: the scalar action read from act_direct on a principal
    # lattice, at generic, zero and nonzero integer twists
    pytest.param(["--n", "3", "--lambda", "1/2,1/3,1/5", "--suite", "lattice"],
                 "70563a5bf1ecce2d613d5ff0a50f7ab12847cc547b5394181f374784261fc69e",
                 id="n3-generic-lattice"),
    pytest.param(["--n", "3", "--lambda", "0,0,0", "--suite", "lattice"],
                 "f5f0da53e5a3f4028d9850ddb83d156679f23253d0042a1c6df72f271c677ac5",
                 id="n3-integer-lattice"),
    pytest.param(["--n", "4", "--suite", "lattice"],
                 "e44be4cfba09f0aebb7f7d83df9574d845cdf6a42a7aa7295b1e264918c87bd3",
                 id="n4-integer-lattice"),
    pytest.param(["--n", "2", "--lambda", "1,-2", "--suite", "lattice"],
                 "8eb7fe78cee8db0876bc56369f25bd29e671e94293160eabd73d6a3f69f2a23b",
                 id="n2-shifted-integer-lattice"),
    # the algebra certificates: nonminuscule's End(V) and simplicity's blocks
    # on N and on the quotient, recorded while their loops ran over every
    # r > 0 in {-1,0,1}^n, read through act_direct for simplicity
    pytest.param(["--n", "4", "--module", "adjoint", "--suite", "nonminuscule"],
                 "38303b32af0da2f6683082910a726afaba75ad50cf08b26a564a370f9d61619d",
                 id="n4-integer-adjoint-nonminuscule"),
    pytest.param(["--n", "4", "--module", "sym:3", "--lambda", "1/2,1/3,1/5,1/7",
                  "--suite", "nonminuscule"],
                 "b0e3dcdc5741380b475db5d987822cb5b10afd8a6745cec177ac0ab506aa0aa5",
                 id="n4-generic-sym3-nonminuscule"),
    pytest.param(["--n", "4", "--k", "1", "--lambda", "1/2,1/3,1/5,1/7", "--suite", "simplicity"],
                 "2881e37f4b1fe1e52f996e62acc4d0d3b68bfcc79bfc3b68cafd0f7042fb3126",
                 id="n4-generic-k1-simplicity"),
    pytest.param(["--n", "5", "--window", "1,1,1,1", "--suite", "nonminuscule,simplicity"],
                 "7bd5797f8a60444f7251f920203cc06f671f1eca287d9cfb83fdd68f0af3d1e1",
                 id="n5-integer-certificates"),
    # the three whole-CLI runs whose digests gate every perf change
    pytest.param(["--n", "2"],
                 "3283c1ecca00aac36c4d55f6c5ab933c8420594aa29f1e9d035c2cd771e94490",
                 id="gate-n2"),
    pytest.param(["--n", "3", "--lambda", "1/2,1/3,1/5"],
                 "b233eff256c8b50845959a61490686a5d8a7172056f4cfee7439241728deabba",
                 id="gate-n3-generic"),
    pytest.param(["--n", "4"],
                 "4433644ffea32048c353b37a99270bd4ef28205bd543306a90479e34f95b6422",
                 id="gate-n4"),
]


@pytest.mark.parametrize("argv, digest", REFERENCE)
def test_reference_report_digest(argv, digest, tmp_path):
    out = tmp_path / "report.json"
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


#: a fresh interpreter without the built-in SHA-256 modules, so that
#: probe.log_digest takes its last fallback
FALLBACK = """
import hashlib, json, sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
from toruslie import cli, probe
assert probe.sha256 is hashlib.sha256
print(json.dumps([probe.log_digest(log) for log in json.loads(sys.argv[1])]))
sys.exit(cli.main(["--n", "2", "--out", sys.argv[2]]))
"""


def test_fallback_hash_keeps_every_digest(tmp_path):
    logs = [[], ["ok d_squared"], ["ok d_squared", "FAIL x τ∧e_1"]]
    out = tmp_path / "report.json"
    proc = run_fresh(FALLBACK, json.dumps(logs), str(out))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        hashlib.sha256("\n".join(log).encode()).hexdigest() for log in logs]
    gate = next(p.values[1] for p in REFERENCE if p.id == "gate-n2")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == gate
