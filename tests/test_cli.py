import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import asymdynkin
from asymdynkin import _compiled, gameio
from asymdynkin.cli import main
from asymdynkin.gamegen import random_profile, random_scenario_game
from asymdynkin.oracle import NumericalFailure, solve_scenario
from asymdynkin.scenario import StrategyProfile, best_response_values, certify_mart
from asymdynkin.core import GeneratingProcess

from helpers import ref_surfaces_from_csv


@pytest.fixture
def game_file(tmp_path):
    game = random_scenario_game(3, seed=5, prior=0.5)
    path = tmp_path / "game.json"
    gameio.write_json(path, gameio.game_to_dict(game))
    return path, game


@pytest.fixture
def model_file(tmp_path):
    data = {
        "mu0": "-0.4", "mu1": "0.4", "sigma": "0.5",
        "x0": 0.0, "pi": 0.5, "T": 1.0, "domain": [-2.0, 2.0],
        "f": "0.6", "g": "-0.6", "h": "tanh(x)*0.5",
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    return path


def tree_digest(path):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(path).iterdir())
    }


def body_digest(path):
    """sha256 of an artifact without its run record: a CSV's `#` lines, a JSON's `config`."""
    text = Path(path).read_text()
    if Path(path).suffix == ".json":
        doc = json.loads(text)
        del doc["config"]
        text = json.dumps(doc, sort_keys=True, indent=1) + "\n"
    else:
        text = "".join(ln for ln in text.splitlines(keepends=True) if not ln.startswith("#"))
    return hashlib.sha256(text.encode()).hexdigest()


class TestOracleCommand:
    def test_oracle_then_verify_certifies(self, game_file, tmp_path):
        path, game = game_file
        assert main(["oracle", "--game", str(path), "--out", str(tmp_path / "eq")]) == 0
        eq = json.loads((tmp_path / "eq" / "equilibrium.json").read_text())
        assert eq["gap"] <= 1e-9
        rc = main([
            "verify", "--game", str(path),
            "--equilibrium", str(tmp_path / "eq" / "equilibrium.json"),
            "--out", str(tmp_path / "ver"),
        ])
        assert rc == 0
        certs = json.loads((tmp_path / "ver" / "certificates.json").read_text())
        assert certs["martingale"]["verdict"] == "certified"
        assert certs["stopping"]["verdict"] == "certified"
        assert abs(certs["martingale"]["value"] - eq["value"]) <= 1e-8
        assert (tmp_path / "ver" / "nodes.csv").exists()
        assert (tmp_path / "ver" / "ex_ante.json").exists()

    def test_truncated_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"grid": [0, 1')
        assert main(["oracle", "--game", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_depth_eight_oracle_certifies(self, tmp_path):
        game = random_scenario_game(8, seed=11, prior=0.35)
        path = tmp_path / "game.json"
        gameio.write_json(path, gameio.game_to_dict(game))
        assert main(["oracle", "--game", str(path), "--out", str(tmp_path / "eq")]) == 0
        eq = json.loads((tmp_path / "eq" / "equilibrium.json").read_text())
        assert eq["gap"] <= 1e-9
        profile, value = gameio.equilibrium_from_dict(eq, game)
        cert = certify_mart(game, profile, best_response_values(game, profile))
        assert cert.certified
        assert abs(cert.value - value) <= 1e-8

    def test_lp_counters_in_equilibrium(self, game_file, tmp_path):
        path, game = game_file
        assert main(["oracle", "--game", str(path), "--out", str(tmp_path / "eq")]) == 0
        lp = json.loads((tmp_path / "eq" / "equilibrium.json").read_text())["lp"]
        n, leaves = game.tree.n_nodes, game.tree.leaves.size
        assert set(lp) == {"rows", "cols", "nnz", "nit", "presolve", "objective"}
        assert (lp["rows"], lp["cols"]) == (n + 2 * leaves, 2 * n + leaves)
        assert lp["nnz"] > 0 and lp["nit"] > 0 and lp["presolve"] is True
        assert lp["objective"] == pytest.approx(solve_scenario(game).value, abs=1e-9)

    def test_one_best_response_pass_writes_the_surfaces(self, game_file, tmp_path, monkeypatch):
        calls = []

        def counted(game, profile):
            calls.append(1)
            return best_response_values(game, profile)

        monkeypatch.setattr("asymdynkin.oracle.best_response_values", counted)
        monkeypatch.setattr("asymdynkin.cli.best_response_values", counted)
        path, game = game_file
        assert main(["oracle", "--game", str(path), "--out", str(tmp_path / "eq")]) == 0
        assert len(calls) == 1
        eq = json.loads((tmp_path / "eq" / "equilibrium.json").read_text())
        surf = best_response_values(game, gameio.equilibrium_from_dict(eq, game)[0])
        written = eq["surfaces"]
        for key, ref in (("u0_hat", surf.u_hat[0]), ("u1_hat", surf.u_hat[1]), ("v_hat", surf.v_hat),
                         ("p", surf.p)):
            assert np.array(written[key]).tobytes() == ref.tobytes()

    def test_depth_ten_value_is_the_certified_value(self, tmp_path):
        game = random_scenario_game(10, seed=5010)
        path = tmp_path / "game.json"
        gameio.write_json(path, gameio.game_to_dict(game))
        assert main(["oracle", "--game", str(path), "--out", str(tmp_path / "eq")]) == 0
        assert main(["verify", "--game", str(path), "--equilibrium", str(tmp_path / "eq" / "equilibrium.json"),
                     "--out", str(tmp_path / "ver")]) == 0
        eq = json.loads((tmp_path / "eq" / "equilibrium.json").read_text())
        certs = json.loads((tmp_path / "ver" / "certificates.json").read_text())
        assert certs["martingale"]["verdict"] == certs["stopping"]["verdict"] == "certified"
        assert eq["value"] == certs["martingale"]["value"] == certs["declared_value"]

    def test_lp_numerical_failure_exits_5(self, game_file, tmp_path, capsys, monkeypatch):
        def failing_solve(game):
            raise NumericalFailure("duality gap 1e-3 above 1e-09")

        monkeypatch.setattr("asymdynkin.cli.solve_scenario", failing_solve)
        path, _ = game_file
        rc = main(["oracle", "--game", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 5
        assert err == "error: duality gap 1e-3 above 1e-09\n"

    def test_missing_field_names_it(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"grid": [0.0, 1.0]}))
        assert main(["oracle", "--game", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "tree" in capsys.readouterr().err


class TestVerifyCommand:
    def test_perturbed_equilibrium_rejected(self, game_file, tmp_path):
        path, game = game_file
        sol = solve_scenario(game)
        prof = sol.profile(game.tree)
        levels = prof.zeta.levels.copy()
        levels[0] = min(1.0, levels[0] + 0.4)
        for m in range(1, game.tree.n_nodes):
            levels[m] = max(levels[m], levels[game.tree.parent[m]])
        levels[game.tree.leaves] = 1.0
        bad = StrategyProfile(prof.xi, GeneratingProcess.from_levels(levels, game.tree))
        eq_path = tmp_path / "bad_eq.json"
        gameio.write_json(eq_path, gameio.equilibrium_to_dict(bad, sol.value))
        rc = main([
            "verify", "--game", str(path), "--equilibrium", str(eq_path),
            "--out", str(tmp_path / "ver"),
        ])
        assert rc == 1

    def test_depth_six_past_old_cap_certifies(self, tmp_path, capsys):
        # 2^32 + 1 pure rules at depth 6: the certificate enumerates none of them
        game = random_scenario_game(6, seed=11, prior=0.35)
        path = tmp_path / "game.json"
        gameio.write_json(path, gameio.game_to_dict(game))
        assert main(["oracle", "--game", str(path), "--out", str(tmp_path / "eq")]) == 0
        rc = main([
            "verify", "--game", str(path), "--equilibrium", str(tmp_path / "eq" / "equilibrium.json"),
            "--out", str(tmp_path / "ver"),
        ])
        assert rc == 0
        assert "martingale=certified stopping=certified" in capsys.readouterr().out

    def test_cap_option_is_gone(self, game_file, tmp_path):
        # neither command enumerates pure rules or draws a random number
        path, _ = game_file
        assert main(["oracle", "--game", str(path), "--out", str(tmp_path / "eq")]) == 0
        verify = ["verify", "--game", str(path), "--equilibrium", str(tmp_path / "eq" / "equilibrium.json")]
        for argv, extra in ((verify, ["--cap", "5"]), (verify, ["--seed", "1"]),
                            (["oracle", "--game", str(path)], ["--dump-matrix"]),
                            (["oracle", "--game", str(path)], ["--cap", "5"]),
                            (["oracle", "--game", str(path)], ["--seed", "1"])):
            assert main([*argv, *extra, "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("game, digest", [
        pytest.param(random_scenario_game(3, seed=5, prior=0.5),
                     "b55929d46f4c5d1cdb4e66c12348bfb53ac796019a48950a861117a26dea8317", id="prior 0.5"),
        # weights (0.65, 0.35) are not exact halves, so this case sees the order of every prior mix
        pytest.param(random_scenario_game(6, seed=11, prior=0.35),
                     "5ed262e4afa7ebcf1ece6c35f3f3b5709f00511a9b07c92403fff5ca6e1fe605", id="prior 0.35"),
    ])
    def test_nodes_csv_is_pinned(self, tmp_path, game, digest):
        # nodes.csv carries no run configuration, so its bytes only move with the numbers
        path = tmp_path / "game.json"
        gameio.write_json(path, gameio.game_to_dict(game))
        assert main(["oracle", "--game", str(path), "--out", str(tmp_path / "eq")]) == 0
        assert main([
            "verify", "--game", str(path), "--equilibrium", str(tmp_path / "eq" / "equilibrium.json"),
            "--out", str(tmp_path / "ver"),
        ]) == 0
        assert hashlib.sha256((tmp_path / "ver" / "nodes.csv").read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("depth, seed, prior, profile_seed, rc, digests", [
        pytest.param(3, 5, 0.5, None, 0, (
            "10678a6d923ba822b0a5fac9ac737f3e8bc6549a95210d5a7394f9fd10421224",
            "18a9ec7d656563848852331fa92819feca14791a14cd9cd01246fd300df25834",
            "465e23f84b0c6b366f41be4ab5b47579f48869bcc183ae69582cc7534884fafb",
            "fa4e6dfac5b29bf30b522754e09f638ac30fa0803ee62f705135fc38af19d5fa",
        ), id="prior 0.5"),
        pytest.param(6, 11, 0.35, None, 0, (
            "0a40ef9c5a40fa01894d2fd6e54e01db55abf95c81bd04f4e633d2e6ecb44f59",
            "103cd90a24f94e35e7c97fe53703470b316202ac14c914bfc7028ceb50d22380",
            "1845fc9563c84b450eaade15d4633fd34f6f9201e0a1d2d634752c937bf7a398",
            "9d553334fc962694302930479a8e0fcac3dbb3710db7c7f6dd4ee9df992d5d8d",
        ), id="prior 0.35"),
        # a random profile: both certificates reject it, so their violation lists are pinned too
        pytest.param(3, 5, 0.5, 9, 1, (
            "1dc6edf56e05616bf89a7c56c17b1b026e913e01d27af00073f9d9faa3c2221a",
            "3232df796000c900df69aecb3e1e628173bcafed5d6a7c45d782d7339e5db58b",
            "1f309579c2b73a4fa1f54fd3b398b2c052c9380eeb76d04d8f6cad80af5ebd36",
            "a6674b46b7966af3a7f32338b6e247ce8c79e28d2839fb0fce7cccd95f7bc9b9",
        ), id="rejected"),
    ])
    def test_verify_reports_are_pinned(self, tmp_path, depth, seed, prior, profile_seed, rc, digests):
        game = random_scenario_game(depth, seed=seed, prior=prior)
        path, eq_path = tmp_path / "game.json", tmp_path / "eq" / "equilibrium.json"
        gameio.write_json(path, gameio.game_to_dict(game))
        assert main(["oracle", "--game", str(path), "--out", str(tmp_path / "eq")]) == 0
        if profile_seed is not None:
            gameio.write_json(eq_path, gameio.equilibrium_to_dict(random_profile(game.tree, profile_seed), 0.0))
        argv = ["verify", "--game", str(path), "--equilibrium", str(eq_path), "--out", str(tmp_path / "ver")]
        assert main(argv) == rc
        names = ("martingale_report.json", "support_report.json", "ex_ante.json", "certificates.json")
        assert tuple(body_digest(tmp_path / "ver" / name) for name in names) == digests

    @pytest.mark.parametrize("mutation", ["nan_root", "zeta_leaf_half", "zeta_decreasing", "xi1_root_above_one",
                                          "xi1_short", "zeta_nested", "value_true", "value_string",
                                          "value_list", "zeta_string"])
    def test_invalid_equilibrium_exits_2(self, tmp_path, capsys, mutation):
        game = random_scenario_game(2, seed=321, prior=0.5)
        path = tmp_path / "game.json"
        gameio.write_json(path, gameio.game_to_dict(game))
        assert main(["oracle", "--game", str(path), "--out", str(tmp_path / "eq")]) == 0
        eq = json.loads((tmp_path / "eq" / "equilibrium.json").read_text())
        tree = game.tree
        if mutation == "nan_root":
            eq["xi0"][0] = float("nan")
        elif mutation == "zeta_leaf_half":
            eq["zeta"][int(tree.leaves[0])] = 0.5
        elif mutation == "zeta_decreasing":
            eq["zeta"][0] = 0.8
            for node in tree.levels[1]:
                eq["zeta"][int(node)] = 0.3
        elif mutation == "xi1_root_above_one":
            eq["xi1"][0] = 1.7
        elif mutation == "xi1_short":
            eq["xi1"].pop()
        elif mutation.startswith("value_"):
            eq["value"] = {"value_true": True, "value_string": "abc", "value_list": [0.5]}[mutation]
        elif mutation == "zeta_string":
            eq["zeta"][0] = str(eq["zeta"][0])
        else:
            eq["zeta"] = [[x] for x in eq["zeta"]]
        eq_path = tmp_path / "bad_eq.json"
        gameio.write_json(eq_path, eq)
        capsys.readouterr()
        rc = main(["verify", "--game", str(path), "--equilibrium", str(eq_path),
                   "--out", str(tmp_path / "ver")])
        assert rc == 2
        # the message names the key that is wrong
        key = "xi0" if mutation == "nan_root" else mutation.split("_")[0]
        assert capsys.readouterr().err.startswith(f"error: equilibrium: {key}:")

    def test_nan_tol_exits_2(self, game_file, tmp_path, capsys):
        # every comparison against a NaN tolerance is false, which used to certify
        path, _ = game_file
        assert main(["oracle", "--game", str(path), "--out", str(tmp_path / "eq")]) == 0
        capsys.readouterr()
        rc = main(["verify", "--game", str(path), "--equilibrium", str(tmp_path / "eq" / "equilibrium.json"),
                   "--tol", "nan", "--out", str(tmp_path / "ver")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: tol:")
        assert not (tmp_path / "ver").exists()

    def test_shape_mismatch_exits_2(self, game_file, tmp_path):
        path, game = game_file
        other = random_scenario_game(2, seed=5, prior=0.5)
        sol = solve_scenario(other)
        eq_path = tmp_path / "eq.json"
        gameio.write_json(eq_path, gameio.equilibrium_to_dict(sol.profile(other.tree), sol.value))
        rc = main([
            "verify", "--game", str(path), "--equilibrium", str(eq_path),
            "--out", str(tmp_path / "ver"),
        ])
        assert rc == 2

    def test_nan_transition_probability_exits_2(self, game_file, tmp_path, capsys):
        path, _ = game_file
        data = json.loads(path.read_text())
        data["tree"][1]["p"] = float("nan")
        path.write_text(json.dumps(data))
        rc = main(["oracle", "--game", str(path), "--out", str(tmp_path / "eq")])
        assert rc == 2
        assert capsys.readouterr().err == "error: game: non-finite transition probability nan at node 1\n"

    @pytest.mark.parametrize("patch, message", [
        ({"tree": []}, "parent/prob must be non-empty"),
        ({"tree": [{"id": 0, "parent": 2**63, "p": 1.0}]}, "int too large"),
        ({"grid": [0.0, float("nan"), 1.0]}, "grid times must be finite"),
        # a JSON number of the wrong kind, a boolean or a numeric string is refused by name
        ({"tree": [{"id": 0, "parent": -1, "p": 1.0}, {"id": 1, "parent": 0.5, "p": 1.0}]},
         "tree: parent: need JSON integers"),
        ({"tree": [{"id": 0, "parent": -1, "p": 1.0}, {"id": 1, "parent": 0.9, "p": 1.0}]},
         "tree: parent: need JSON integers"),
        ({"tree": [{"id": 0.0, "parent": -1, "p": 1.0}]}, "tree: id: need JSON integers"),
        ({"tree": [{"id": 0, "parent": -1, "p": "1"}]}, "tree: p: need JSON numbers"),
        ({"prior": True}, "prior: need JSON numbers"),
        ({"prior": "0.5"}, "prior: need JSON numbers"),
        ({"grid": [0.0, "0.5", 1.0]}, "grid: need JSON numbers"),
        ({"payoffs": {"f": [["0.9"]], "g": [[0.0]], "h": [[0.5]]}}, "payoffs: f: need JSON numbers"),
        ({"payoffs": {"f": [[0.9]], "g": [[0.0]], "h": [[False]]}}, "payoffs: h: need JSON numbers"),
    ], ids=["empty_tree", "huge_parent", "nan_grid", "half_parent", "fractional_parent", "float_id",
            "string_p", "true_prior", "string_prior", "string_grid", "string_f", "false_h"])
    def test_malformed_game_exits_2(self, game_file, tmp_path, capsys, patch, message):
        path, _ = game_file
        path.write_text(json.dumps({**json.loads(path.read_text()), **patch}))
        for argv in (["oracle"], ["verify", "--equilibrium", str(path)]):
            capsys.readouterr()
            assert main([*argv, "--game", str(path), "--out", str(tmp_path / "o")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: game: ") and message in err

    def test_one_regime_row_exits_2(self, game_file, tmp_path, capsys):
        path, _ = game_file
        data = json.loads(path.read_text())
        for key in ("f", "g", "h"):
            data["payoffs"][key] = data["payoffs"][key][:1]
        path.write_text(json.dumps(data))
        rc = main(["oracle", "--game", str(path), "--out", str(tmp_path / "eq")])
        assert rc == 2
        assert "two regime rows" in capsys.readouterr().err


# each dynamics action takes only the options it reads: --model, these and --out
ACTION_OPTIONS = {"simulate": {"--dt", "--paths", "--seed", "--conditional"}, "pde": {"--grid"},
                  "extract": {"--dt", "--paths", "--seed"},
                  "verify": {"--dt", "--paths", "--seed", "--vtol", "--alpha"}}
# a valid value of each option of the verify command or of some dynamics action
OPTION_VALUES = {"--grid": "5x3x9", "--dt": "0.5", "--paths": "3", "--seed": "1", "--tol": "1e-8",
                 "--vtol": "0.05", "--alpha": "0.05", "--conditional": None}


class TestDynamicsCommands:
    def test_simulate_w_zero_constant_psi(self, tmp_path):
        data = {
            "mu0": "0.2", "mu1": "0.2", "sigma": "0.5",
            "x0": 0.0, "pi": 0.35, "T": 0.5, "domain": [-3.0, 3.0],
        }
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps(data))
        rc = main([
            "dynamics", "simulate", "--model", str(mpath),
            "--dt", "0.01", "--paths", "20", "--seed", "4", "--out", str(tmp_path / "d"),
        ])
        assert rc == 0
        rows = [
            ln.split(",") for ln in (tmp_path / "d" / "paths.csv").read_text().splitlines()
            if ln and not ln.startswith("#") and not ln.startswith("path_id")
        ]
        psi = np.array([float(r[3]) for r in rows])
        np.testing.assert_allclose(psi, 0.35, atol=1e-12)

    def test_full_pipeline(self, model_file, tmp_path):
        out = tmp_path / "pipe"
        assert main([
            "dynamics", "pde", "--model", str(model_file),
            "--grid", "21x11x41", "--out", str(out),
        ]) == 0
        assert main([
            "dynamics", "extract", "--model", str(model_file),
            "--dt", "0.05", "--paths", "10", "--seed", "1", "--out", str(out),
        ]) == 0
        assert main([
            "dynamics", "verify", "--model", str(model_file),
            "--dt", "0.05", "--paths", "400", "--seed", "2", "--out", str(out),
        ]) == 0
        report = json.loads((out / "verify_report.json").read_text())["report"]
        conditions = [k for k in report if k.startswith("(")]
        assert len(conditions) == 7  # (i) x2, (ii), (iii) x2, (iv), (v)

    def test_pipeline_artifacts_pinned(self, model_file, tmp_path, monkeypatch):
        # sha256 of the test_full_pipeline artifacts, whole and without their run
        # record; relative paths keep the embedded record fixed.  The second digest
        # of each is the per-row CSV writers' output with the record left out, so
        # the numbers stay pinned whatever options the record holds
        monkeypatch.chdir(tmp_path)
        dyn = ["--model", model_file.name, "--out", "pipe"]
        assert main(["dynamics", "pde", *dyn, "--grid", "21x11x41"]) == 0
        assert main(["dynamics", "extract", *dyn, "--dt", "0.05", "--paths", "10", "--seed", "1"]) == 0
        assert main(["dynamics", "verify", *dyn, "--dt", "0.05", "--paths", "400", "--seed", "2"]) == 0
        digests = tree_digest(tmp_path / "pipe")
        assert digests["surfaces.npy"] == "60c306c5061556e7479e324b0a12a3959ab31a0ef692144ae03dfcf8d724ad0c"
        # the table written back as the surfaces.csv the pde action wrote before
        # surfaces.npy: every surface value and flag is the same to the last digit
        surf = gameio.surfaces_from_npy(tmp_path / "pipe" / "surfaces.npy")
        config = json.loads((tmp_path / "pipe" / "pde_meta.json").read_text())["config"]
        (tmp_path / "surfaces.csv").write_text(gameio.surfaces_csv(surf, config))
        assert body_digest(tmp_path / "surfaces.csv") == \
            "6d6497b472781b4c9d7ea52dd0f536443750b02a6f3807ef3247906aa370b6a8"
        for name, digest, body in (
            ("trajectories.csv", "a80146852a19e8cbecf40143f578b62b5c2e311b287d1833b5acffc7e7e29129",
             "784da659a6c34904f13ca74978007ac0f0e48bb6428f359960da7446c2df1859"),
            ("verify_report.json", "2e3c24f1b0e255951feb4c13f9a5c5bb9421bcb17ba0b21a95219bc63603d974",
             "e4c2e09d38eebb6c7803ac11505cefbbbebe45fefa4fa17ab7aef8c8ab1a77b2"),
        ):
            assert body_digest(tmp_path / "pipe" / name) == body, name
            assert digests[name] == digest, name

    def test_pde_before_extract_required(self, model_file, tmp_path, capsys):
        rc = main([
            "dynamics", "extract", "--model", str(model_file),
            "--out", str(tmp_path / "nowhere"),
        ])
        assert rc == 2
        assert "run 'dynamics pde' first" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", [
        "truncated", "uneven_x", "swapped_rows", "duplicated_row", "bad_flag", "header_only",
        "nan_value", "inf_value",
        # what np.load (allow_pickle=False) makes of a file that is not the float64 (cells, 9)
        # table: an EOFError, an NpzFile, a ValueError, or the wrong array
        "empty", "npz", "object", "csv_text", "float32", "one_dim", "eight_columns",
    ])
    def test_malformed_surfaces_exits_2(self, model_file, tmp_path, capsys, damage):
        out = tmp_path / "d"
        assert main(["dynamics", "pde", "--model", str(model_file), "--grid", "11x5x21",
                     "--out", str(out)]) == 0
        path = out / "surfaces.npy"
        table = np.load(path)
        # each of these three keeps the grid and the row count, so only a row-by-row check sees it
        if damage == "swapped_rows":
            table[[30, 31]] = table[[31, 30]]
        elif damage == "duplicated_row":
            table[31] = table[30]
        elif damage == "bad_flag":
            table[30, -1] = 0.5
        elif damage == "nan_value":
            table[:, 5] = np.nan  # every v
        elif damage == "inf_value":
            table[30, 3] = np.inf  # one u0 cell
        elif damage == "uneven_x":
            # move the second x node wherever it occurs: a consistent, non-uniform grid
            x = table[:, 2]
            x[x == x[1]] += 0.05
        if damage == "truncated":
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        elif damage == "empty":
            path.write_bytes(b"")
        elif damage == "npz":
            with open(path, "wb") as fh:
                np.savez(fh, table=table)
        elif damage == "object":
            np.save(path, table.astype(object), allow_pickle=True)
        elif damage == "csv_text":
            path.write_text("t,pi,x,u0,u1,v,in_S0,in_S1,in_S\n0.0,0.0,-2.0,0.6,0.6,0.6,0,0,0\n")
        else:
            np.save(path, {"header_only": table[:0], "float32": table.astype(np.float32),
                           "one_dim": table.ravel(), "eight_columns": table[:, :8]}.get(damage, table))
        capsys.readouterr()
        for action in ("extract", "verify"):
            rc = main(["dynamics", action, "--model", str(model_file), "--dt", "0.05",
                       "--paths", "5", "--seed", "1", "--out", str(out)])
            assert rc == 2, action
            assert capsys.readouterr().err.startswith("error: surfaces: "), action

    @pytest.mark.parametrize("action,extra,patch", [
        ("simulate", ["--dt", "0.03"], {}),
        ("extract", ["--dt", "0.03"], {}),
        ("verify", ["--dt", "0.03"], {}),
        ("simulate", ["--dt", "0"], {}),
        ("pde", ["--grid", "11x4x11"], {}),
        ("pde", [], {"f": "0.6 +"}),
        ("verify", [], {"h": "x / 2"}),
        ("simulate", [], {"domain": 5}),
        ("simulate", [], {"domain": [1.0]}),
        ("verify", ["--paths", "0"], {}),
        ("simulate", ["--paths", "-1"], {}),
        ("verify", ["--vtol", "inf"], {}),
        ("verify", ["--alpha", "-1"], {}),
        ("verify", ["--alpha", "1"], {}),
        ("simulate", [], {"T": float("inf")}),
        ("extract", [], {"T": float("inf")}),
        ("verify", [], {"T": float("inf")}),
        ("verify", [], {"x0": float("nan")}),
        ("simulate", [], {"x0": float("inf")}),
        ("pde", [], {"x0": float("nan")}),
        ("extract", [], {"x0": float("inf")}),
        ("simulate", [], {"domain": [-2.0, float("inf")]}),
        ("simulate", [], {"x0": 9}),
        ("extract", [], {"x0": 9}),
        ("extract", [], {"x0": 2**63}),
        ("simulate", [], {"domain": {}}),
        ("simulate", [], {"domain": [-2.0, 2.0, 3.0]}),
    ], ids=["simulate_dt", "extract_dt", "verify_dt", "zero_dt", "even_pi_grid", "bad_f",
            "bad_h", "scalar_domain", "short_domain", "no_paths", "negative_paths",
            "infinite_vtol", "negative_alpha", "unit_alpha",
            "simulate_infinite_T", "extract_infinite_T", "verify_infinite_T", "verify_nan_x0",
            "simulate_infinite_x0", "pde_nan_x0", "extract_infinite_x0", "simulate_infinite_domain",
            "simulate_x0_outside_domain", "extract_x0_outside_domain", "extract_huge_x0",
            "object_domain", "long_domain"])
    def test_bad_arguments_exit_2(self, model_file, tmp_path, capsys, action, extra, patch):
        # dt must divide T = 1, the pi count must be odd, expressions must parse,
        # x0 must lie in the domain, and a verification without paths, or at
        # alpha >= 1, would pass vacuously
        out = tmp_path / "d"
        assert main(["dynamics", "pde", "--model", str(model_file), "--grid", "5x3x9",
                     "--out", str(out)]) == 0
        model_file.write_text(json.dumps({**json.loads(model_file.read_text()), **patch}))
        capsys.readouterr()
        paths = [] if action == "pde" else ["--paths", "5"]
        rc = main(["dynamics", action, "--model", str(model_file), *paths, *extra,
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("action, option", [
        (action, option) for action, takes in ACTION_OPTIONS.items()
        for option in OPTION_VALUES if option not in takes
    ])
    def test_option_the_action_does_not_read_exits_2(self, model_file, tmp_path, capsys,
                                                     action, option):
        value = OPTION_VALUES[option]
        capsys.readouterr()
        rc = main(["dynamics", action, "--model", str(model_file), option,
                   *([] if value is None else [value]), "--out", str(tmp_path / "d")])
        assert rc == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_help_lists_the_options_read(self, capsys):
        for action, takes in ACTION_OPTIONS.items():
            assert main(["dynamics", action, "--help"]) == 0
            listed = set(re.findall(r"(--[a-z]+)", capsys.readouterr().out))
            assert listed == {"--help", "--model", "--out", *takes}, action

    @pytest.mark.parametrize("seed", ["-4", str(2**64)])
    def test_out_of_range_seed_exits_2(self, model_file, tmp_path, capsys, seed):
        rc = main(["dynamics", "simulate", "--model", str(model_file), "--dt", "0.5",
                   "--paths", "3", "--seed", seed, "--out", str(tmp_path / "d")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: seed: ") and "Traceback" not in err

    def test_largest_seed_runs(self, model_file, tmp_path):
        assert main(["dynamics", "simulate", "--model", str(model_file), "--dt", "0.5",
                     "--paths", "3", "--seed", str(2**64 - 1), "--out", str(tmp_path / "d")]) == 0

    @pytest.mark.parametrize("text", ["5", "[]"])
    def test_model_not_an_object_exits_2(self, tmp_path, capsys, text):
        mpath = tmp_path / "m.json"
        mpath.write_text(text)
        for action in ("simulate", "pde"):
            assert main(["dynamics", action, "--model", str(mpath), "--out", str(tmp_path / "d")]) == 2
            assert capsys.readouterr().err.startswith("error: model: ")

    def test_missing_payoffs_named(self, tmp_path, capsys):
        data = {"mu0": "0.1", "mu1": "0.2", "sigma": "0.5",
                "x0": 0.0, "pi": 0.5, "T": 1.0, "domain": [-2, 2]}
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps(data))
        rc = main(["dynamics", "pde", "--model", str(mpath), "--out", str(tmp_path / "d")])
        assert rc == 2
        assert "'f'" in capsys.readouterr().err


def _assert_input_error(capsys, argv, kind):
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {kind}: ") and "Traceback" not in err, err
    return err


class TestReadersExit2:
    """Input that got past the readers: nesting deeper than the recursion limit,
    non-finite drift, volatility or signal-to-noise ratio w, and payoffs that
    break the tree pipeline's payoff rule (finite, f >= h >= g) on the model's
    sample points."""

    def test_deeply_nested_game_json(self, game_file, tmp_path, capsys):
        path, _ = game_file
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "]" * 100000)
        _assert_input_error(capsys, ["oracle", "--game", str(deep), "--out", str(tmp_path / "o")],
                            "game")
        _assert_input_error(capsys, ["verify", "--game", str(path), "--equilibrium", str(deep),
                                     "--out", str(tmp_path / "o")], "equilibrium")

    @pytest.mark.parametrize("patch", [
        {"mu0": "-" * 3000 + "0.4"},
        {"mu0": "(" * 3000 + "0.4" + ")" * 3000},
        # parses in a loop, but its evaluation nests one call per term
        {"mu1": "0" + "+0" * 3000},
        {"f": "(" * 3000 + "0.6" + ")" * 3000},
        {"sigma": "1e400"},
        {"mu0": "1e400"},
        {"mu1": "1e400-1e400"},
        # finite drifts whose w = (mu1 - mu0) / sigma, or its square, overflows
        {"mu0": "-1e308", "mu1": "1e308"},
        {"mu1": "1e200*x"},
        # a finite volatility whose square, in the PDE's a_x = sigma**2 / 2, overflows
        {"sigma": "1e200"},
        # outside Python's grammar, the token check or the AST whitelist
        {"mu0": "0x10"}, {"mu0": "1_0"}, {"mu0": ".5"}, {"mu0": "x # c"}, {"mu0": "x/2"},
        {"mu0": "x**2"}, {"mu0": "tanh(x, 1)"}, {"mu0": "tanh(x=1)"},
        # CPython's parser raises MemoryError here, and allows 200 nested parentheses
        {"mu0": "-" * 100000 + "0.4"},
        {"mu0": "(" * 201 + "0.4" + ")" * 201},
        # a horizon with no time in it
        {"T": 0}, {"T": -1},
    ], ids=["minus_chain", "nested_parens", "plus_chain", "nested_payoff", "infinite_sigma",
            "infinite_mu0", "nan_mu1", "infinite_w", "infinite_w_squared", "infinite_sigma_squared",
            "hex", "underscore", "bare_fraction", "comment", "division", "power", "tanh_two_args",
            "tanh_keyword", "huge_minus_chain", "201_parentheses", "zero_horizon", "negative_horizon"])
    def test_model_exits_2(self, model_file, tmp_path, capsys, patch):
        model_file.write_text(json.dumps({**json.loads(model_file.read_text()), **patch}))
        out = str(tmp_path / "d")
        # the message starts with the field at fault, or names w's ingredients
        names_field = re.compile(rf"error: model: (payoff expression: )?({'|'.join(patch)})\b"
                                 r"|error: model: w = \(mu1 - mu0\) / sigma ")
        if "f" not in patch:
            err = _assert_input_error(capsys, ["dynamics", "simulate", "--model", str(model_file),
                                               "--dt", "0.5", "--paths", "3", "--out", out], "model")
            assert names_field.match(err), err
        err = _assert_input_error(capsys, ["dynamics", "pde", "--model", str(model_file),
                                           "--grid", "5x3x9", "--out", out], "model")
        assert names_field.match(err), err

    @pytest.mark.parametrize("patch, message", [
        ({"x0": True}, "x0: need JSON numbers of shape ()"),
        ({"pi": "0.5"}, "pi: need JSON numbers of shape ()"),
        ({"T": "1"}, "T: need JSON numbers of shape ()"),
        ({"domain": ["-2", "2"]}, "domain: need JSON numbers of shape (2,)"),
        ({"mu0": -0.4}, "mu0: need an expression string, got float"),
        ({"sigma": None}, "sigma: need an expression string, got NoneType"),
    ], ids=["true_x0", "string_pi", "string_T", "string_domain", "number_mu0", "null_sigma"])
    def test_model_field_types(self, model_file, tmp_path, capsys, patch, message):
        # a boolean or a numeric string is no JSON number, and a number no expression
        model_file.write_text(json.dumps({**json.loads(model_file.read_text()), **patch}))
        for action in (["simulate", "--dt", "0.5", "--paths", "3"], ["pde", "--grid", "5x3x9"]):
            err = _assert_input_error(capsys, ["dynamics", *action, "--model", str(model_file),
                                               "--out", str(tmp_path / "d")], "model")
            assert message in err

    @pytest.mark.parametrize("mu0", ["-0.4 ", "\t-0.4\n"], ids=["trailing_space", "tab_newline"])
    def test_whitespace_around_an_expression(self, model_file, tmp_path, mu0):
        # whitespace around an expression is no part of it
        out = {}
        for name, expr in (("plain", "-0.4"), ("spaced", mu0)):
            model_file.write_text(json.dumps({**json.loads(model_file.read_text()), "mu0": expr}))
            out[name] = tmp_path / name
            assert main(["dynamics", "simulate", "--model", str(model_file), "--dt", "0.1",
                         "--paths", "5", "--seed", "3", "--out", str(out[name])]) == 0
            assert main(["dynamics", "pde", "--model", str(model_file), "--grid", "5x3x9",
                         "--out", str(out[name])]) == 0
        assert body_digest(out["plain"] / "paths.csv") == body_digest(out["spaced"] / "paths.csv")
        assert (out["plain"] / "surfaces.npy").read_bytes() == (out["spaced"] / "surfaces.npy").read_bytes()

    @pytest.mark.parametrize("patch, message", [
        ({"h": "1e400-1e400"}, "payoff h contains non-finite values"),
        ({"f": "1e400"}, "payoff f contains non-finite values"),
        ({"f": "-1", "g": "1"}, "ordering f >= h >= g violated"),
        ({"h": "x"}, "ordering f >= h >= g violated"),  # |h| > 0.6 on part of [-2, 2]
        ({"f": 0.6}, "f: need an expression string, got float"),
    ], ids=["nan_h", "infinite_f", "f_below_g", "h_outside_the_band", "number_f"])
    def test_payoff_rule(self, model_file, tmp_path, capsys, patch, message):
        out = str(tmp_path / "d")
        assert main(["dynamics", "pde", "--model", str(model_file), "--grid", "5x3x9",
                     "--out", out]) == 0
        model_file.write_text(json.dumps({**json.loads(model_file.read_text()), **patch}))
        for action in (["pde", "--grid", "5x3x9"], ["verify", "--dt", "0.5", "--paths", "3"]):
            err = _assert_input_error(capsys, ["dynamics", action[0], "--model", str(model_file),
                                               *action[1:], "--out", out], "model")
            assert message in err

    def test_payoff_rule_slack(self, model_file, tmp_path):
        # the rule's 1e-12 slack: h above f by 1e-13 passes
        model_file.write_text(json.dumps({**json.loads(model_file.read_text()),
                                          "f": "0.5", "h": "0.5 + 1e-13", "g": "0"}))
        assert main(["dynamics", "pde", "--model", str(model_file), "--grid", "5x3x9",
                     "--out", str(tmp_path / "d")]) == 0

    def test_directory_as_input_file(self, tmp_path, capsys):
        _assert_input_error(capsys, ["oracle", "--game", str(tmp_path), "--out", str(tmp_path / "o")],
                            "game")


class TestDeterminism:
    def test_oracle_and_verify_byte_identical(self, game_file, tmp_path):
        path, _ = game_file
        argv = ["oracle", "--game", str(path), "--out", str(tmp_path / "eq")]
        main(argv)
        first = tree_digest(tmp_path / "eq")
        main(argv)
        assert tree_digest(tmp_path / "eq") == first

    def test_dynamics_byte_identical(self, model_file, tmp_path):
        out = tmp_path / "d"
        argv = [
            "dynamics", "simulate", "--model", str(model_file),
            "--dt", "0.02", "--paths", "15", "--seed", "9", "--out", str(out),
        ]
        main(argv)
        first = tree_digest(out)
        main(argv)
        assert tree_digest(out) == first

    # sha256 of paths.csv as the path-major Euler loops wrote it: reruns agreeing
    # with each other is not enough, a change must not move a digit against them
    # (the second digest is that of the rows without the `#` run record);
    # relative paths keep the embedded run record fixed
    @pytest.mark.parametrize("extra, digest, body", [
        ([], "df48f0980bb59d74d0705a9ba553028a82017735256bed0bb7ab67ba60011ee2",
         "24e0df6c981bf84ec4c75fe5bff66b2dacb7a52d402dbf3364f85903cd6dcc51"),
        (["--conditional"], "92d86aca72608e4da89f6de8d6770eb5771f0761e712be7e4a19b796a8107299",
         "4eb9993857b8461a7587e3e34cb60bc173ad4d8df5a353366659eeaf6222ad16"),
    ], ids=["filter", "conditional"])
    def test_simulate_paths_pinned(self, model_file, tmp_path, monkeypatch, extra, digest, body):
        monkeypatch.chdir(tmp_path)
        assert main([
            "dynamics", "simulate", "--model", model_file.name,
            "--dt", "0.02", "--paths", "15", "--seed", "9", "--out", "d", *extra,
        ]) == 0
        assert body_digest(tmp_path / "d" / "paths.csv") == body
        assert tree_digest(tmp_path / "d")["paths.csv"] == digest

    def test_surfaces_round_trip(self, model_file, tmp_path):
        # surfaces.npy -> CSV -> surfaces.npy: the same arrays and the same bytes
        out = tmp_path / "p"
        main(["dynamics", "pde", "--model", str(model_file), "--grid", "11x5x21",
              "--out", str(out)])
        surf = gameio.surfaces_from_npy(out / "surfaces.npy")
        again = gameio.surfaces_from_csv(gameio.surfaces_csv(surf, {"grid": "11x5x21"}))
        for name in ("t", "pi", "x"):
            assert np.array_equal(getattr(again.grid, name), getattr(surf.grid, name))
        for name in ("u", "v", "in_sk", "in_s"):
            assert np.array_equal(getattr(again, name), getattr(surf, name))
        gameio.write_surfaces_npy(tmp_path / "again.npy", again)
        assert (tmp_path / "again.npy").read_bytes() == (out / "surfaces.npy").read_bytes()

    def test_surfaces_reader_matches_reference(self, model_file, tmp_path):
        # the .npy reader against a per-cell float parse of the same table as CSV
        out = tmp_path / "p"
        assert main(["dynamics", "pde", "--model", str(model_file), "--grid", "21x11x41",
                     "--out", str(out)]) == 0
        got = gameio.surfaces_from_npy(out / "surfaces.npy")
        text = gameio.surfaces_csv(got, {"grid": "21x11x41"})
        for want in (ref_surfaces_from_csv(text), gameio.surfaces_from_csv(text)):
            for name in ("t", "pi", "x"):
                assert np.array_equal(getattr(got.grid, name), getattr(want.grid, name))
            for name in ("u", "v", "in_sk", "in_s"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
            assert got.identity_residual == want.identity_residual

    def test_pde_counters_deterministic(self, model_file, tmp_path):
        argv = ["dynamics", "pde", "--model", str(model_file), "--grid", "21x11x41",
                "--out", str(tmp_path / "d")]
        metas = []
        for _ in range(2):
            assert main(argv) == 0
            metas.append(json.loads((tmp_path / "d" / "pde_meta.json").read_text()))
        assert metas[0] == metas[1]
        # one implicit step per regime and slice, on one LU factor per regime
        assert metas[0]["solves"] == 2 * 20
        assert metas[0]["factorisations"] == 2


class TestImports:
    def test_commands_without_lp_or_pde_load_no_scipy(self, game_file, model_file, tmp_path):
        # the import graph is per process, so it is checked in a fresh interpreter:
        # oracle loads HiGHS's binding alone and pde SuperLU's, never the scipy
        # package around them, and no command loads numpy.ma; extract and
        # dynamics verify read the surfaces that a pde run here wrote
        path, _ = game_file
        eq, dyn = tmp_path / "eq", tmp_path / "dyn"
        assert main(["oracle", "--game", str(path), "--out", str(eq)]) == 0
        assert main(["dynamics", "pde", "--model", str(model_file), "--grid", "21x11x41",
                     "--out", str(dyn)]) == 0
        script = textwrap.dedent(f"""
            import sys
            import asymdynkin, asymdynkin.cli, asymdynkin.gameio, asymdynkin.dynamics
            from asymdynkin.cli import main

            def loaded():
                return [m for m in ("scipy", "scipy.optimize", "scipy.sparse", "numpy.ma")
                        if m in sys.modules]

            assert not loaded(), ("import", loaded())
            assert main(["dynamics", "simulate", "--model", {str(model_file)!r}, "--dt", "0.05",
                         "--paths", "5", "--out", {str(tmp_path / "sim")!r}]) == 0
            assert main(["verify", "--game", {str(path)!r},
                         "--equilibrium", {str(eq / "equilibrium.json")!r},
                         "--out", {str(tmp_path / "ver")!r}]) == 0
            assert not loaded(), ("simulate, verify", loaded())
            dyn = ["--model", {str(model_file)!r}, "--out", {str(dyn)!r}]
            assert main(["dynamics", "extract", *dyn, "--dt", "0.05", "--paths", "10"]) == 0
            assert not loaded(), ("extract", loaded())
            assert main(["dynamics", "verify", *dyn, "--dt", "0.05", "--paths", "400",
                         "--seed", "2"]) == 0
            assert not loaded(), ("dynamics verify", loaded())
            assert main(["oracle", "--game", {str(path)!r}, "--out", {str(tmp_path / "eq2")!r}]) == 0
            assert "scipy.optimize._highspy._core" in sys.modules
            assert not loaded(), ("oracle", loaded())
            assert main(["dynamics", "pde", "--model", {str(model_file)!r}, "--grid", "5x3x9",
                         "--out", {str(tmp_path / "pde")!r}]) == 0
            assert "scipy.sparse.linalg._dsolve._superlu" in sys.modules
            assert not loaded(), ("pde", loaded())
        """)
        src = str(Path(asymdynkin.__file__).parents[1])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_oracle_and_linprog_share_one_highs_binding(self):
        # whichever of solve_scenario and linprog loads scipy's HiGHS binding
        # first, both use the one module object and give the same numbers
        script = textwrap.dedent("""
            import sys
            from asymdynkin import oracle
            from asymdynkin.gamegen import random_scenario_game

            def solve():
                return oracle.solve_scenario(random_scenario_game(3, seed=5, prior=0.5))

            def lin():
                from scipy.optimize import linprog
                return linprog([-1.0, -2.0], A_ub=[[1.0, 1.0], [1.0, 3.0]], b_ub=[4.0, 6.0],
                               method="highs-ds")

            first, second = (solve, lin) if sys.argv[1] == "oracle" else (lin, solve)
            results = {f.__name__: f() for f in (first, second)}
            from scipy.optimize._highspy import _highs_wrapper
            core = sys.modules["scipy.optimize._highspy._core"]
            assert oracle._highs() is core and _highs_wrapper._h is core
            sol, lp = results["solve"], results["lin"]
            print(sol.value.hex(), sol.lp.nit, lp.nit, [x.hex() for x in lp.x])
        """)
        src = str(Path(asymdynkin.__file__).parents[1])
        outputs = []
        for first in ("oracle", "linprog"):
            proc = subprocess.run([sys.executable, "-c", script, first], capture_output=True,
                                  text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].split()[0] == solve_scenario(random_scenario_game(3, seed=5, prior=0.5)).value.hex()

    def test_pde_and_splu_share_one_superlu_binding(self):
        # whichever of pde_solve_system and splu loads scipy's SuperLU binding
        # first, both use the one module object and give the same numbers
        script = textwrap.dedent("""
            import hashlib, sys
            import numpy as np
            from asymdynkin._compiled import scipy_extension
            from asymdynkin.dynamics import PDEGrid, model_from_dict, pde_solve_system

            def solve():
                model = model_from_dict({"mu0": "-0.4", "mu1": "0.4", "sigma": "0.5", "x0": 0.0,
                                         "pi": 0.5, "T": 1.0, "domain": [-2.0, 2.0]})
                surf = pde_solve_system(model, lambda t, x: 0.6 + 0.0 * x, lambda t, x: -0.6 + 0.0 * x,
                                        lambda t, x: 0.5 * np.tanh(x) + 0.0 * t,
                                        PDEGrid.regular(1.0, model.domain, 11, 5, 21))
                return hashlib.sha256(b"".join(a.tobytes() for a in (*surf.u, surf.v))).hexdigest()

            def splu():
                import scipy.sparse
                import scipy.sparse.linalg
                lu = scipy.sparse.linalg.splu(scipy.sparse.csc_matrix([[2.0, 1.0], [0.5, 3.0]]))
                return type(lu), [x.hex() for x in lu.solve(np.array([1.0, 2.0]))]

            first, second = (solve, splu) if sys.argv[1] == "pde" else (splu, solve)
            results = {f.__name__: f() for f in (first, second)}
            from scipy.sparse.linalg._dsolve import linsolve
            core = sys.modules["scipy.sparse.linalg._dsolve._superlu"]
            assert scipy_extension("sparse.linalg._dsolve._superlu") is core
            assert linsolve._superlu is core and results["splu"][0] is core.SuperLU
            print(results["solve"], results["splu"][1])
        """)
        src = str(Path(asymdynkin.__file__).parents[1])
        outputs = []
        for first in ("pde", "splu"):
            proc = subprocess.run([sys.executable, "-c", script, first], capture_output=True,
                                  text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("scipy_found", [True, False], ids=["file_missing", "no_scipy"])
    def test_missing_compiled_module_raises_import_error(self, monkeypatch, tmp_path, scipy_found):
        # the loader names where it looked and the scipy version this needs
        name = "sparse.linalg._dsolve._superlu"
        monkeypatch.delitem(sys.modules, f"scipy.{name}", raising=False)
        spec = SimpleNamespace(submodule_search_locations=[str(tmp_path)]) if scipy_found else None
        monkeypatch.setattr(_compiled, "find_spec", lambda _: spec)
        where = str(tmp_path / "sparse" / "linalg" / "_dsolve" / "_superlu") if scipy_found else "not installed"
        with pytest.raises(ImportError, match=re.escape(where) + ".*scipy>=1\\.17"):
            _compiled.scipy_extension(name)


def _field_paths(doc, prefix=()):
    """Every key or index path into a JSON document, containers included."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return []
    paths = []
    for key, value in items:
        paths.append(prefix + (key,))
        paths += _field_paths(value, prefix + (key,))
    return paths


def _mutated(doc, path, value):
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


# type swaps, non-finite floats, an empty list and integers past int64 and float
FUZZ_VALUES = ["x", None, True, {}, [], float("nan"), float("inf"), -float("inf"),
               2**63, -(2**63) - 1, 10**400]
FUZZ_GAME = gameio.game_to_dict(random_scenario_game(1, seed=5, prior=0.5))
FUZZ_MODEL = {"mu0": "-0.4", "mu1": "0.4", "sigma": "0.5", "x0": 0.0, "pi": 0.5, "T": 1.0,
              "domain": [-2.0, 2.0], "f": "0.6", "g": "-0.6", "h": "tanh(x)*0.5"}
EXIT_CODES = {0, 1, 2, 4, 5}


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    """A valid equilibrium of FUZZ_GAME and a surfaces.npy of FUZZ_MODEL."""
    base = tmp_path_factory.mktemp("fuzz")
    (base / "game.json").write_text(json.dumps(FUZZ_GAME))
    (base / "model.json").write_text(json.dumps(FUZZ_MODEL))
    assert main(["oracle", "--game", str(base / "game.json"), "--out", str(base)]) == 0
    assert main(["dynamics", "pde", "--model", str(base / "model.json"), "--grid", "5x3x9",
                 "--out", str(base)]) == 0
    return base


class TestMalformedInputFuzz:
    """One field of a valid game.json, model.json or equilibrium.json mutated:
    every command ends with a documented exit code, never an exception."""

    @given(st.sampled_from(_field_paths(FUZZ_GAME)), st.sampled_from(FUZZ_VALUES))
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_game_field(self, fuzz_base, path, value):
        with tempfile.TemporaryDirectory(dir=fuzz_base) as tmp:
            game = Path(tmp) / "game.json"
            game.write_text(json.dumps(_mutated(FUZZ_GAME, path, value)))
            assert main(["oracle", "--game", str(game), "--out", tmp]) in EXIT_CODES
            assert main(["verify", "--game", str(game), "--equilibrium",
                         str(fuzz_base / "equilibrium.json"), "--out", tmp]) in EXIT_CODES

    @given(st.sampled_from(_field_paths(FUZZ_MODEL)), st.sampled_from(FUZZ_VALUES))
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_model_field(self, fuzz_base, path, value):
        with tempfile.TemporaryDirectory(dir=fuzz_base) as tmp:
            model = Path(tmp) / "model.json"
            model.write_text(json.dumps(_mutated(FUZZ_MODEL, path, value)))
            shutil.copy(fuzz_base / "surfaces.npy", tmp)
            dyn = ["--model", str(model), "--dt", "0.5", "--paths", "5", "--out", tmp]
            for action in ("simulate", "extract", "verify"):
                assert main(["dynamics", action, *dyn]) in EXIT_CODES
            assert main(["dynamics", "pde", "--model", str(model), "--grid", "5x3x9",
                         "--out", tmp]) in EXIT_CODES

    @given(st.data(), st.sampled_from(FUZZ_VALUES))
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_equilibrium_field(self, fuzz_base, data, value):
        doc = json.loads((fuzz_base / "equilibrium.json").read_text())
        path = data.draw(st.sampled_from(_field_paths(doc)))
        with tempfile.TemporaryDirectory(dir=fuzz_base) as tmp:
            eq = Path(tmp) / "equilibrium.json"
            eq.write_text(json.dumps(_mutated(doc, path, value)))
            assert main(["verify", "--game", str(fuzz_base / "game.json"), "--equilibrium",
                         str(eq), "--out", tmp]) in EXIT_CODES
