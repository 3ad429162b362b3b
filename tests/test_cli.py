import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import tvdp.dpsgd
from tvdp import (
    PrivacyBudget,
    SgdConfig,
    TradeoffCurve,
    curve_from_budget,
    sgd_compare,
    tv_feasibility_cap,
)
from tvdp.cli import build_parser, dispatch

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = dispatch(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestRegion:
    def test_json_vertices(self, capsys):
        code, out, err = run(capsys, "region", "--eps", "1", "--delta", "0", "--eta", "0.323482")
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert len(payload["vertices"]) == 4
        assert payload["vertices"][0] == [0.0, 1.0]

    def test_csv_vertices(self, capsys):
        code, out, _ = run(capsys, "region", "--eps", "1", "--delta", "0", "--eta", "0.323482", "--out", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "beta_I,beta_II"
        assert len(lines) == 5  # header + 4 vertices

    def test_csv_grid_adds_points(self, capsys):
        code, out, _ = run(
            capsys, "region", "--eps", "1", "--eta", "0.323482", "--out", "csv", "--grid", "11"
        )
        assert code == 0
        assert len(out.strip().splitlines()) >= 12

    def test_slopes_beyond_dbl_max_apart(self, capsys):
        # the DP lines' log slopes +-1e308 differ by more than DBL_MAX
        code, out, err = run(capsys, "region", "--eps=1e308", "--eta=1", "--out", "csv", "--grid", "2")
        assert code == 0 and err == ""
        assert out == "beta_I,beta_II\n0,1\n2.22507385851e-308,0\n1,0\n"

    def test_infeasible_budget_exit_2(self, capsys):
        code, out, err = run(capsys, "region", "--eps", "1", "--delta", "0", "--eta", "0.5")
        assert code == 2
        assert out == ""
        assert "eta exceeds delta + (1-delta)(e^eps-1)/(e^eps+1)" in err
        assert err.count("\n") == 1

    def test_pure_tv_region_uses_eps_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("TVDP_MAX_EPS", "30")
        code, out, _ = run(capsys, "region", "--eta", "0.3")
        assert code == 0
        payload = json.loads(out)
        # near-vertical initial drop from the capped-eps line
        assert payload["vertices"][0] == [0.0, 1.0]
        assert payload["vertices"][1][0] < 1e-10

    @pytest.mark.parametrize("cap", ["abc", "nan", "inf", "-1", "1e400"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["region", "--eta", "0.3"],
            ["compose", "--baseline", "kairouz", "-k", "3"],
            ["amplify", "--eta", "0.3", "-p", "0.5"],
        ],
    )
    def test_bad_eps_cap_exit_2_naming_the_variable(self, capsys, monkeypatch, argv, cap):
        monkeypatch.setenv("TVDP_MAX_EPS", cap)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: TVDP_MAX_EPS must be a finite number >= 0, got {cap!r}\n"
        # an explicit --eps ignores the variable
        code, out, err = run(capsys, *argv, "--eps", "1")
        monkeypatch.delenv("TVDP_MAX_EPS")
        assert (code, err) == (0, "")
        assert run(capsys, *argv, "--eps", "1") == (0, out, "")

    def test_unknown_flag_exit_2(self, capsys):
        code, _, _ = run(capsys, "region", "--nope", "1")
        assert code == 2

    def test_numeric_parse_failure_exit_2(self, capsys):
        code, _, _ = run(capsys, "region", "--eps", "abc")
        assert code == 2


class TestCompose:
    def test_k1_ledger(self, capsys):
        code, out, _ = run(capsys, "compose", "--eps", "1", "--delta", "0", "--eta", "0.323482", "-k", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["k"] == 1
        assert payload["entries"][0]["delta"] == pytest.approx(0.323482, abs=1e-12)
        assert payload["entries"][1]["delta"] == 0.0
        assert payload["eta"] == pytest.approx(0.323482, abs=1e-12)

    def test_modes_agree(self, capsys):
        _, exact_out, _ = run(capsys, "compose", "--eps", "1", "--eta", "0.3", "-k", "5", "--mode", "exact")
        _, types_out, _ = run(capsys, "compose", "--eps", "1", "--eta", "0.3", "-k", "5", "--mode", "types")
        a = json.loads(exact_out)
        b = json.loads(types_out)
        for x, y in zip(a["entries"], b["entries"]):
            assert x["delta"] == pytest.approx(y["delta"], rel=1e-6, abs=1e-12)

    def test_baseline_kairouz(self, capsys):
        code, out, _ = run(capsys, "compose", "--eps", "1", "--delta", "0", "-k", "5", "--baseline", "kairouz")
        assert code == 0
        payload = json.loads(out)
        assert [e["j"] for e in payload["entries"]] == [1, 3, 5]

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "compose", "--eps", "1", "--eta", "0.3", "-k", "2", "--out", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "j,eps,delta"
        assert len(lines) == 4

    def test_eta_below_delta_exit_2(self, capsys):
        code, _, err = run(capsys, "compose", "--eps", "1", "--delta", "0.2", "--eta", "0.1", "-k", "2")
        assert code == 2 and "eta" in err


class TestAmplify:
    def test_budget_json(self, capsys):
        code, out, _ = run(capsys, "amplify", "--eps", "1", "--delta", "0", "--eta", "0.323482", "-p", "0.1")
        assert code == 0
        payload = json.loads(out)
        assert payload["eps"] == pytest.approx(0.158565, abs=1e-5)
        assert payload["eta"] == pytest.approx(0.0323482, abs=1e-10)

    def test_bad_p_exit_2(self, capsys):
        code, _, err = run(capsys, "amplify", "--eps", "1", "--eta", "0.3", "-p", "1.5")
        assert code == 2 and "p must lie" in err


class TestClt:
    def test_mu_and_gap(self, capsys):
        eps = 0.1
        eta = math.tanh(eps / 2)
        code, out, _ = run(capsys, "clt", "--eps", str(eps), "--eta", str(eta), "-k", "100")
        assert code == 0
        payload = json.loads(out)
        assert payload["mu"] == pytest.approx(math.sqrt(2 * 100 * eps * eta), abs=1e-9)
        assert 0 < payload["gap"] < 0.02

    @pytest.mark.parametrize(
        "argv, constraint",
        [
            (["--eps", "0.1", "--eta", "0.04", "-k", "-5"], "k must be an integer >= 1"),
            (["--eps", "-1", "--eta", "0.04", "-k", "5"], "epsilon must be >= 0"),
        ],
    )
    def test_invalid_input_names_constraint(self, capsys, argv, constraint):
        code, out, err = run(capsys, "clt", *argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and constraint in err


class TestMech:
    def test_laplace_tv(self, capsys):
        code, out, _ = run(capsys, "mech", "tv", "--kind", "laplace", "--eps", "1")
        assert code == 0
        assert json.loads(out) == pytest.approx(0.393469, abs=1e-6)

    def test_gaussian_tv(self, capsys):
        code, out, _ = run(capsys, "mech", "tv", "--kind", "gaussian", "--mu", str(1 / 1.3))
        assert code == 0
        assert json.loads(out) == pytest.approx(0.2994, abs=1e-4)

    def test_staircase_tv(self, capsys):
        code, out, _ = run(capsys, "mech", "tv", "--kind", "staircase", "--gamma", "0.5", "--eps", "1")
        assert code == 0
        assert json.loads(out) == pytest.approx((math.e - 1) / (math.e + 1), abs=1e-9)

    def test_missing_param_exit_2(self, capsys):
        code, _, err = run(capsys, "mech", "tv", "--kind", "gaussian")
        assert code == 2 and "--mu" in err

    def test_pair_output(self, capsys):
        code, out, _ = run(capsys, "mech", "pair", "--eps", "1", "--delta", "0.1", "--eta", "0.4")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["p0"]) == 5 and len(payload["p1"]) == 5
        assert sum(payload["p0"]) == pytest.approx(1.0, abs=1e-9)
        assert payload["p0"][0] == pytest.approx(0.1, abs=1e-12)


class TestLdp:
    def test_qstar_roundtrip_through_check(self, capsys):
        code, out, _ = run(capsys, "ldp", "qstar", "--eps", "1", "--eta", "0.3")
        assert code == 0
        matrix = json.loads(out)
        code, out, _ = run(capsys, "ldp", "check", "--channel", json.dumps(matrix))
        assert code == 0
        payload = json.loads(out)
        assert payload["eps"] == pytest.approx(1.0, abs=1e-9)
        assert payload["tv"] == pytest.approx(0.3, abs=1e-9)

    def test_check_infinite_eps(self, capsys):
        code, out, _ = run(capsys, "ldp", "check", "--channel", '{"matrix": [[1.0, 0.0], [0.5, 0.5]]}')
        assert code == 0
        assert json.loads(out)["eps"] == "inf"

    def test_bemech(self, capsys):
        pair = {"p0": [0.7, 0.3], "p1": [0.2, 0.8]}
        code, out, _ = run(capsys, "ldp", "bemech", "--eps", "1", "--eta", "0.3", "--pair", json.dumps(pair))
        assert code == 0
        matrix = np.array(json.loads(out)["matrix"])
        assert matrix.shape == (2, 3)
        assert matrix[0][0] > matrix[1][0]  # first outcome favors p0

    def test_bounds_fields(self, capsys):
        code, out, _ = run(capsys, "ldp", "bounds", "--eps", "1", "--eta", "0.3")
        assert code == 0
        payload = json.loads(out)
        assert payload["max_kl"] == pytest.approx(0.3, abs=1e-9)
        assert payload["kl_contraction_bound"] == pytest.approx(0.138635, abs=1e-6)
        assert payload["opt_conversion_factor"] == pytest.approx(0.649186, abs=1e-6)
        assert payload["be_ratio_lower_bound"] == pytest.approx(0.063819, abs=1e-6)

    def test_check_requires_channel(self, capsys):
        code, _, err = run(capsys, "ldp", "check")
        assert code == 2 and "channel" in err

    @pytest.mark.parametrize("channel", ["[[1]]", "3", '{"rows": [[1]]}'])
    def test_check_rejects_non_object_channel(self, capsys, channel):
        code, out, err = run(capsys, "ldp", "check", "--channel", channel)
        assert code == 2 and out == ""
        assert err == 'error: channel must be a JSON object with a "matrix" key\n'

    @pytest.mark.parametrize("pair", ["[1]", "3"])
    def test_bemech_rejects_non_object_pair(self, capsys, pair):
        code, out, err = run(capsys, "ldp", "bemech", "--eps", "1", "--eta", "0.3", "--pair", pair)
        assert code == 2 and out == ""
        assert err.startswith("error: pair must be a JSON object") and err.count("\n") == 1


PAIR = '{"p0": [0.7, 0.3], "p1": [0.2, 0.8]}'

# Inputs that once printed NaN with exit 0 or ended in a traceback (overflow
# of e^eps above eps = 709.78, or a division by an e^eps - 1 or tanh(eps/2)
# that rounds to 0), each with the parameter its error must name, or None
# where it now exits 0 with finite output.
EDGE_ARGV = [
    (["ldp", "check", "--channel", '{"matrix": [[NaN, 1], [0.5, 0.5]]}'], "NaN"),
    (["ldp", "bemech", "--eps", "1", "--eta", "0.3", "--pair", '{"p0": [NaN, 1], "p1": [0.2, 0.8]}'], "p0 has NaN"),
    (["mech", "tv", "--kind", "staircase", "--gamma=nan", "--eps=1"], "gamma"),
    (["mech", "tv", "--kind", "laplace", "--eps=nan"], "epsilon"),
    (["ldp", "qstar", "--eps", "inf", "--eta", "0.3"], "epsilon"),
    (["ldp", "bemech", "--eps", "inf", "--eta", "0.3", "--pair", PAIR], "epsilon"),
    (["ldp", "bounds", "--eps", "inf", "--eta", "0.3"], "epsilon"),
    (["ldp", "qstar", "--eps=709.8", "--eta=5e-324"], "epsilon = 709.8"),
    (["ldp", "bounds", "--eps=800", "--eta=0.3"], "epsilon = 800"),
    (["ldp", "bemech", "--eps=800", "--eta=0.3", "--pair", PAIR], "epsilon = 800"),
    (["amplify", "--eps=800", "--eta=1", "-p", "1"], "epsilon = 800"),
    (["mech", "tv", "--kind", "staircase", "--gamma=1e308", "--eps=1e-20"], "gamma = 1e+308"),
    (["ldp", "bounds", "--eps=1e-20", "--eta=0"], None),
    (["ldp", "bounds", "--eps=5e-324", "--eta=0"], None),
    (["mech", "pair", "--eps=5e-324", "--delta=0", "--eta=1e-20"], None),
    (["compose", "--eps=5e-324", "--eta=1e-20", "-k", "12"], None),
    (["clt", "--eps=5e-324", "--eta=5e-324", "-k", "6"], None),
    (["compose", "--eps=1e308", "--eta=0", "-k", "3"], "epsilon = 1e+308"),
    (["compose", "--mode", "types", "--eps=1e308", "--eta=0", "-k", "3"], "epsilon = 1e+308"),
    (["compose", "--eps=1e308", "--delta=0", "-k", "3", "--baseline", "kairouz"], "epsilon = 1e+308"),
    (["clt", "--eps=1e308", "--eta=0", "-k", "3"], "epsilon = 1e+308"),
    (["compose", "--eps=1e307", "--eta=0.5", "-k", "30"], "epsilon = 1e+307"),
    (
        ["sgd", "--n", "100", "--batch", "10", "--epochs", "1", "--mu", "0.5",
         "--eps-from", "1e308", "--eps-to", "1e308", "--eps-step", "1"],
        "epsilon = 1e+308",
    ),
    (["region", "--eps", "1", "--eta", "0.3", "--out", "csv", "--grid", "-5"], "--grid"),
    (
        ["sgd", "--n", "1000", "--batch", "100", "--epochs", "2", "--mu", "0.5",
         "--eps-from", "0.5", "--eps-to", "1.5", "--eps-step", "0.5", "--out", "csv", "--grid", "-3"],
        "--grid",
    ),
    (
        ["sgd", "--out", "csv", "--n", "100", "--batch", "10", "--epochs", "1", "--mu", "0.5",
         "--eps-from", "1e308", "--eps-to", "1e308", "--eps-step", "1"],
        "epsilon = 1e+308",
    ),
    # the flags come first where the usual order would repeat the id of an
    # entry above
    (
        ["sgd", "--epochs", "inf", "--n", "1000", "--batch", "100", "--mu", "0.5",
         "--eps-from", "0.5", "--eps-to", "0.6", "--eps-step", "0.1"],
        "epochs",
    ),
    (
        ["sgd", "--epochs", "1e308", "--n", "1000", "--batch", "1", "--mu", "0.5",
         "--eps-from", "0.5", "--eps-to", "0.6", "--eps-step", "0.1"],
        "epochs",
    ),
    (["ldp", "check", "--channel", '{"matrix": {"a": 1}}'], "matrix"),
    (["ldp", "bemech", "--pair", '{"p0": {"a": 1}, "p1": [1]}', "--eps", "1", "--eta", "0.3"], "p0"),
    (["ldp", "bemech", "--pair", '{"p0": [0.5, 0.5]}', "--eps", "1", "--eta", "0.3"], '"p1" keys'),
]


@pytest.mark.parametrize("argv, names", EDGE_ARGV, ids=[" ".join(a[:4]) for a, _ in EDGE_ARGV])
def test_edge_input_exits_2_naming_it_or_0_with_finite_output(capsys, argv, names):
    code, out, err = run(capsys, *argv)
    if names is None:
        assert code == 0 and err == ""
        assert "nan" not in out and "inf" not in out
        json.loads(out)
    else:
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and names in err


class TestSgd:
    def test_small_run_json(self, capsys):
        code, out, _ = run(
            capsys, "sgd", "--n", "1000", "--batch", "100", "--epochs", "2",
            "--mu", str(1 / 1.3), "--eps-from", "0.5", "--eps-to", "2.0", "--eps-step", "0.5",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["steps"] == 20
        assert len(payload["per_epsilon"]) == 4
        assert payload["dominance"]["min_gap"] >= -1e-9

    def test_small_run_csv(self, capsys):
        code, out, _ = run(
            capsys, "sgd", "--n", "1000", "--batch", "100", "--epochs", "2",
            "--mu", str(1 / 1.3), "--eps-from", "1.0", "--eps-to", "1.0", "--eps-step", "0.1",
            "--out", "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == "beta_I,beta_II"


    @pytest.mark.parametrize(
        "bounds",
        [
            ("--eps-step", "0"),
            ("--eps-step", "-0.1"),
            ("--eps-step", "nan"),
            ("--eps-step", "inf"),
            ("--eps-to", "inf"),
            # (to - from) / step overflows a double
            ("--eps-step", "5e-324"),
            ("--eps-to", "1e300", "--eps-step", "1e-300"),
        ],
    )
    def test_bad_grid_exit_2(self, capsys, bounds):
        argv = {"--eps-from": "0.5", "--eps-to": "2.0", "--eps-step": "0.5"}
        argv.update(zip(bounds[::2], bounds[1::2]))
        code, out, err = run(
            capsys, "sgd", "--n", "1000", "--batch", "100", "--epochs", "2",
            "--mu", str(1 / 1.3), *(x for item in argv.items() for x in item),
        )
        assert code == 2 and out == ""
        assert err.startswith("error: --eps-") and err.count("\n") == 1

    def test_zero_tol_exit_2(self, capsys):
        code, out, err = run(
            capsys, "sgd", "--n", "6000", "--batch", "1000", "--epochs", "1", "--mu", "0.8",
            "--eps-from", "0.5", "--eps-to", "1", "--eps-step", "0.5", "--tol", "0",
        )
        assert code == 2 and out == ""
        assert err == "error: tol must be positive\n"


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("region", "--eps", "1", "--eta", "0.323482"),
            ("compose", "--eps", "1", "--eta", "0.3", "-k", "7"),
            ("ldp", "bounds", "--eps", "1", "--eta", "0.3"),
            ("mech", "tv", "--kind", "laplace", "--eps", "0.7"),
        ],
    )
    def test_byte_identical_output(self, capsys, argv):
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_twelve_significant_digits(self, capsys):
        _, out, _ = run(capsys, "mech", "tv", "--kind", "laplace", "--eps", "1")
        assert out.strip() == "0.393469340287"


def _fresh_python(*args):
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )


def test_import_leaves_scipy_optimize_unloaded():
    probe = "import sys, tvdp.cli; print('scipy.optimize' in sys.modules)"
    assert _fresh_python("-c", probe).stdout.strip() == "False"


# Every CLI example of the README with the sha256 of its stdout, which must
# stay byte-identical.
README_EXAMPLES = [
    ("region", ["region", "--eps", "1", "--delta", "0", "--eta", "0.323482"],
     "a7825bcb10f5187f60d964b5a664678add06f0a2f681f3ffd0aabac4230b3a16"),
    ("region-csv", ["region", "--eps", "1", "--eta", "0.323482", "--out", "csv", "--grid", "101"],
     "30863678f706da5df1ae6c13ef45f6a43bbb72566866dbd9d225124b7276a4d0"),
    ("compose", ["compose", "--eps", "1", "--delta", "0", "--eta", "0.323482", "-k", "8"],
     "980a338e42791080242464602581fe49a8e1308e77300958bb968a401dc1ac2c"),
    ("compose-types", ["compose", "--eps", "1", "--eta", "0.3", "-k", "2000", "--mode", "types"],
     "c843065afc438659ede8a967f799c3cbb9c9731dac24266be7d11b2e1c468efd"),
    ("compose-kairouz", ["compose", "--eps", "1", "--delta", "0", "-k", "8", "--baseline", "kairouz"],
     "e670d29e52f712db2333c9ec76f1f1d6bfa357ef605ee8308cce0d2442e4ebcc"),
    ("amplify", ["amplify", "--eps", "1", "--delta", "0", "--eta", "0.323482", "-p", "0.1"],
     "10ed24a428dd65324f41aedc33fb185b65100ce2be1b226a4b9b8373b9886888"),
    ("clt", ["clt", "--eps", "0.01", "--eta", "0.0049999", "-k", "10000"],
     "9fa806c5dac142dae79dfbf01e9d4ad6e9cd8c98954f70f4bd1dea7b36091107"),
    ("mech-tv-laplace", ["mech", "tv", "--kind", "laplace", "--eps", "1"],
     "56fc32bcbcd0d01942aa10cc17dbd9b8cc5f6fe7a2c120521256b6da2a7b5069"),
    ("mech-tv-gaussian", ["mech", "tv", "--kind", "gaussian", "--mu", "0.7692307692"],
     "24127a6c1ad599159d5145ae530eab50492a2c860d125e2d7aa8a7424c010bc2"),
    ("mech-tv-staircase", ["mech", "tv", "--kind", "staircase", "--gamma", "0.0139", "--eps", "1"],
     "3de5488f0c2610a136a63eeda5b47e03d5fcbe0fce409e214257401af30e8e54"),
    ("mech-pair", ["mech", "pair", "--eps", "1", "--delta", "0.1", "--eta", "0.4"],
     "36bf785d3072a09e02137b91c680bfd9bb687810550a8dc6bddca21165ecfc4f"),
    ("ldp-qstar", ["ldp", "qstar", "--eps", "1", "--eta", "0.3"],
     "f242b7e3a74e1987c0e40f0ebcabe3ae5a64e2de85135761a2c04257313cfce0"),
    ("ldp-check", ["ldp", "check", "--channel", '{"matrix": [[0.7, 0.3], [0.3, 0.7]]}'],
     "c17b18ba416345d9d7d58c1464fe8a5d44396a53d4effe5a783fc0e93431605f"),
    ("ldp-bemech", ["ldp", "bemech", "--eps", "1", "--eta", "0.3", "--pair", PAIR],
     "f242b7e3a74e1987c0e40f0ebcabe3ae5a64e2de85135761a2c04257313cfce0"),
    ("ldp-bounds", ["ldp", "bounds", "--eps", "1", "--eta", "0.3"],
     "c5463276a07351eb06e84e034d93b1f7209525002a8f5beee83139349864ccc5"),
    ("sgd-csv", ["sgd", "--n", "60000", "--batch", "256", "--epochs", "15", "--mu", "0.7692307692",
                 "--eps-from", "0.5", "--eps-to", "3.4", "--eps-step", "0.1", "--out", "csv"],
     "3d00ae49b807e5982471125c9899122185bad506568af6c99c340d2b04808485"),
]
# The README sgd run as JSON, plain and with the baseline curve, with the
# sha256 of its stdout.
SGD_JSON_EXAMPLES = [
    ("plain", [], "a16b04e79dabb2e8bca1ca8b7dd85a0bc949e3fbded5731ad05afedcbffe3fd9"),
    ("full-curves", ["--full-curves"],
     "b1473a6368170997042fe06a63b389f8844e67a476eee6cc4e9a7c2e2e633075"),
]
# The examples that need a special function (Phi for the Gaussian profile,
# Phi and its inverse for G_mu) and so load scipy.special.
SCIPY_EXAMPLES = {"clt", "mech-tv-gaussian", "sgd-csv"}


@pytest.mark.parametrize(
    "argv, digest", [e[1:] for e in README_EXAMPLES], ids=[e[0] for e in README_EXAMPLES]
)
def test_readme_example_stdout_is_byte_stable(capsys, argv, digest):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "extra, digest", [e[1:] for e in SGD_JSON_EXAMPLES], ids=[e[0] for e in SGD_JSON_EXAMPLES]
)
def test_sgd_json_stdout_is_byte_stable(capsys, extra, digest):
    argv = dict((name, argv) for name, argv, _ in README_EXAMPLES)["sgd-csv"][:-2]
    code, out, err = run(capsys, *argv, *extra)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_sgd_csv_composes_no_baseline(capsys, monkeypatch):
    # the CSV prints the refined region alone
    def refuse(*args):
        raise AssertionError("baseline composed")

    monkeypatch.setattr(tvdp.dpsgd, "_kairouz_region", refuse)
    name, argv, digest = README_EXAMPLES[-1]
    assert name == "sgd-csv"
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_import_and_closed_form_commands_leave_scipy_unloaded():
    scipy_free = [argv for name, argv, _ in README_EXAMPLES if name not in SCIPY_EXAMPLES]
    assert len(scipy_free) == 13
    probe = (
        "import contextlib, io, json, sys\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "import tvdp, tvdp.cli\n"
        "after_import = scipy_modules()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [tvdp.cli.dispatch(argv) for argv in json.loads(sys.argv[1])]\n"
        "after_commands = scipy_modules()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes.append(tvdp.cli.dispatch(\n"
        "        ['mech', 'tv', '--kind', 'gaussian', '--mu', '0.7692307692']))\n"
        "print(json.dumps([after_import, after_commands, codes, 'scipy.special' in sys.modules]))\n"
    )
    result = json.loads(_fresh_python("-c", probe, json.dumps(scipy_free)).stdout)
    assert result == [[], [], [0] * 14, True]


# Inputs at the edge of the double range, with their stdout: e^-eps overflows
# in the dominating pair's logistic weights, and the KL and chi-squared maxima
# are finite although f(e^eps) is not.
OVERFLOW_EDGE_OUTPUTS = [
    (["mech", "pair", "--eps=709.78", "--delta", "0", "--eta", "0.5"],
     '{"p0": [0.0, 0.5, 0.5, 2.78889805263e-309, 0.0], '
     '"p1": [0.0, 2.78889805263e-309, 0.5, 0.5, 0.0]}\n'),
    (["mech", "pair", "--eps=1e308", "--delta", "0", "--eta", "1"],
     '{"p0": [0.0, 1.0, 0.0, 0.0, 0.0], "p1": [0.0, 0.0, 0.0, 1.0, 0.0]}\n'),
    (["ldp", "bounds", "--eps=400", "--eta=0.3"],
     '{"max_kl": 120.0, "max_chi2": 1.56644090693e+173, "max_tv": 0.3, '
     '"kl_contraction_bound": 0.3, "chi2_output_coefficient": 6.26576362772e+173, '
     '"opt_conversion_factor": 0.3, "be_ratio_lower_bound": 2.87275439507e-175}\n'),
    (["ldp", "bounds", "--eps=705", "--eta=0.3"],
     '{"max_kl": 211.5, "max_chi2": 4.51576149919e+305, "max_tv": 0.3, '
     '"kl_contraction_bound": 0.3, "chi2_output_coefficient": 1.80630459968e+306, '
     '"opt_conversion_factor": 0.3, "be_ratio_lower_bound": 9.965096697e-308}\n'),
]


@pytest.mark.parametrize(
    "argv, expected", OVERFLOW_EDGE_OUTPUTS, ids=[" ".join(a[:3]) for a, _ in OVERFLOW_EDGE_OUTPUTS]
)
def test_overflow_edge_output_is_finite_and_warning_free(capsys, argv, expected):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, expected, "")


def _fresh_parser_run(capsys, argv):
    """Exit code and stderr of argv parsed by a parser built for this call."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    out, err = capsys.readouterr()
    assert out == ""
    return exc.value.code, err


_VALID = [
    ["region", "--eps", "1", "--eta", "0.323482"],
    ["mech", "tv", "--kind", "laplace", "--eps", "0.7"],
    ["compose", "--eps", "1", "--eta", "0.3", "-k", "3"],
    ["ldp", "qstar", "--eps", "1", "--eta", "0.3"],
]
_USAGE_ERRORS = [
    ["region", "--nope", "1"],
    ["region", "--eps", "abc"],
    [],
    ["mech"],
]


class TestCachedParser:
    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()

    def test_max_eps_is_read_per_dispatch(self, capsys, monkeypatch):
        outputs = []
        for cap in ("30", "40"):
            monkeypatch.setenv("TVDP_MAX_EPS", cap)
            code, out, err = run(capsys, "region", "--eta", "0.2")
            assert code == 0 and err == ""
            assert out == _fresh_python("-m", "tvdp.cli", "region", "--eta", "0.2").stdout
            outputs.append(out)
        assert outputs[0] != outputs[1]

    def test_usage_errors_interleaved_with_valid_argv(self, capsys):
        expected = {tuple(argv): _fresh_parser_run(capsys, argv) for argv in _USAGE_ERRORS}
        first = {}
        for _ in range(2):
            for valid, invalid in zip(_VALID, _USAGE_ERRORS):
                code, out, err = run(capsys, *valid)
                assert code == 0 and err == ""
                assert first.setdefault(tuple(valid), out) == out
                code, out, err = run(capsys, *invalid)
                assert out == ""
                assert (code, err) == expected[tuple(invalid)]
                assert code == 2 and err.startswith("usage: tvdp")

    def test_dispatch_builds_no_parser_after_the_first_call(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        dispatch(_VALID[0])
        built.clear()
        forms = _VALID + _USAGE_ERRORS + [["mech", "tv", "--kind", "gaussian"]]
        for i in range(50):
            assert dispatch(forms[i % len(forms)]) in (0, 2)
        capsys.readouterr()
        assert built == []
        build_parser()
        assert built  # the counter sees parser construction

    def test_import_builds_no_parser(self):
        probe = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting_init(self, *a, **kw):\n"
            "    built.append(1)\n"
            "    init(self, *a, **kw)\n"
            "argparse.ArgumentParser.__init__ = counting_init\n"
            "import tvdp.cli\n"
            "print(len(built))\n"
        )
        assert _fresh_python("-c", probe).stdout.strip() == "0"


def _reference_csv(curve, grid) -> str:
    """CSV of a curve evaluated one point at a time."""
    xs = curve.xs if grid is None else np.union1d(curve.xs, np.linspace(0.0, 1.0, grid))
    rows = [f"{float(x):.12g},{float(curve(x)):.12g}" for x in xs]
    return "\n".join(["beta_I,beta_II", *rows]) + "\n"


def _seeded_budgets(count=50, seed=14):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        eps = float(np.exp(rng.uniform(np.log(0.01), np.log(10.0))))
        delta = 0.0 if rng.random() < 0.5 else float(rng.uniform(0.0, 0.1))
        eta = float(rng.uniform(delta, tv_feasibility_cap(eps, delta)))
        out.append(PrivacyBudget(eps, delta, eta))
    return out


class TestCurveCsv:
    @pytest.mark.parametrize("grid", [None, 2, 11, 101, 1001])
    def test_region_csv_matches_pointwise_evaluation(self, capsys, grid):
        grid_flag = [] if grid is None else ["--grid", str(grid)]
        for budget in _seeded_budgets():
            code, out, err = run(
                capsys, "region", "--eps", repr(budget.epsilon), "--delta", repr(budget.delta),
                "--eta", repr(budget.eta), "--out", "csv", *grid_flag,
            )
            assert code == 0 and err == ""
            assert out == _reference_csv(curve_from_budget(budget), grid)

    @pytest.mark.parametrize("grid", [None, 11, 101])
    def test_sgd_csv_matches_pointwise_evaluation(self, capsys, grid):
        grid_flag = [] if grid is None else ["--grid", str(grid)]
        code, out, err = run(
            capsys, "sgd", "--n", "1000", "--batch", "100", "--epochs", "2", "--mu", "0.7692307692",
            "--eps-from", "0.5", "--eps-to", "1.5", "--eps-step", "0.5", "--out", "csv", *grid_flag,
        )
        assert code == 0 and err == ""
        config = SgdConfig(
            dataset_size=1000, batch_size=100, epochs=2.0, step_mu=0.7692307692,
            epsilon_grid=(0.5, 1.0, 1.5),
        )
        curve = TradeoffCurve.from_dict(sgd_compare(config)["curve"])
        assert out == _reference_csv(curve, grid)
