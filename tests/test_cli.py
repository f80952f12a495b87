import csv
import json
import warnings

import numpy as np
import pytest

from ara import cli, exact, jsonio, lp
from ara.cli import main, run_method
from ara.core import AraGame, AssignmentConstraint, MarginalStrategy, Target
from ara.generators import GenConfig, gen_fams, gen_tsg
from ara.jsonio import (
    fams_from_json,
    fams_to_json,
    game_from_json,
    game_to_json,
    load_instance,
    tsg_from_json,
    tsg_to_json,
)
from ara.fams import encode_fams
from ara.marginal import MarginalSolution, solve_marginal
from ara.reports import SolveReport


@pytest.fixture
def fams_file(tmp_path):
    inst = gen_fams(GenConfig(seed=2, family="fams", flights=4, schedules=4,
                              targets_per_schedule=2, resources=2))
    path = tmp_path / "fams.json"
    path.write_text(json.dumps(fams_to_json(inst)))
    return path


@pytest.fixture
def tsg_file(tmp_path, fig1c_tsg):
    path = tmp_path / "tsg.json"
    path.write_text(json.dumps(tsg_to_json(fig1c_tsg)))
    return path


class TestJsonRoundTrip:
    def test_fams(self):
        inst = gen_fams(GenConfig(seed=4, family="fams", flights=5, schedules=6,
                                  targets_per_schedule=2, resources=3))
        assert fams_from_json(fams_to_json(inst)) == inst

    def test_tsg(self, fig1c_tsg):
        assert tsg_from_json(tsg_to_json(fig1c_tsg)) == fig1c_tsg

    def test_game(self, fig1b_fams):
        game = encode_fams(fig1b_fams)
        again = game_from_json(game_to_json(game))
        assert again.k == game.k and again.n == game.n
        assert set(c.cells for c in again.constraints) == set(c.cells for c in game.constraints)

    def test_family_detection(self, tmp_path, fig1b_fams):
        path = tmp_path / "ara.json"
        path.write_text(json.dumps(game_to_json(encode_fams(fig1b_fams))))
        family, game = load_instance(str(path))
        assert family == "ara"
        assert game.k == 3


class TestSolveCommand:
    def test_exact_solve(self, fams_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["solve", "--instance", str(fams_file), "--method", "exact",
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["method"] == "exact"
        assert report["value"] <= report["upper_bound"] + 1e-6

    def test_rand_solve_dominated(self, tsg_file, tmp_path):
        out = tmp_path / "report.json"
        code = main(["solve", "--instance", str(tsg_file), "--method", "rand",
                     "--seed", "3", "--samples", "200", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["value"] <= report["upper_bound"] + 1e-6
        assert report["detection_ratio"] is not None
        assert report["c_measured"] == pytest.approx(1.0 / report["detection_ratio"])

    def test_same_seed_same_report(self, tsg_file, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            main(["solve", "--instance", str(tsg_file), "--method", "rand",
                  "--seed", "9", "--samples", "100", "--out", str(out)])
            data = json.loads(out.read_text())
            data.pop("wall_ms")
            outs.append(data)
        assert outs[0] == outs[1]

    def test_instance_file_is_read_once(self, tsg_file, tmp_path, monkeypatch):
        reads = []

        def counted(path):
            reads.append(path)
            return original(path)

        original = jsonio.read_json
        monkeypatch.setattr(jsonio, "read_json", counted)
        monkeypatch.setattr(cli, "read_json", counted)
        out = tmp_path / "report.json"
        assert main(["solve", "--instance", str(tsg_file), "--method", "marginal-bound",
                     "--out", str(out)]) == 0
        assert reads == [str(tsg_file)]
        digest = jsonio.instance_digest(json.loads(tsg_file.read_text()))
        assert json.loads(out.read_text())["instance_digest"] == digest

    def test_cg_on_tsg_is_a_method_mismatch(self, tsg_file):
        assert main(["solve", "--instance", str(tsg_file), "--method", "cg"]) == 3

    @staticmethod
    def _wide_game_file(tmp_path):
        # one level of search per cell: 1,500 cells once overflowed the stack
        cells = frozenset((0, j) for j in range(1500))
        game = AraGame(1, 1500, (AssignmentConstraint(cells, 0, 1, label="row"),),
                       (Target("t", cells, {c: 1.0 for c in cells}, -1.0, -5.0),))
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(game_to_json(game)))
        return path

    def test_exact_on_wide_game_is_a_solver_error(self, tmp_path, monkeypatch, capsys):
        path = self._wide_game_file(tmp_path)
        monkeypatch.setattr(exact, "ENUM_CAP", 10)
        assert main(["solve", "--instance", str(path), "--method", "exact"]) == 3
        assert "enumeration passed its cap of 10 pure strategies" in capsys.readouterr().err

    def test_exact_past_the_enumeration_budget_is_a_solver_error(self, tmp_path,
                                                                monkeypatch, capsys):
        # 1,501 strategies of 12,000 bytes each would pass a 1 MiB budget
        path = self._wide_game_file(tmp_path)
        monkeypatch.setattr(exact, "MAX_ENUM_BYTES", 1 << 20)
        assert main(["solve", "--instance", str(path), "--method", "exact"]) == 3
        assert "GiB enumeration limit" in capsys.readouterr().err

    def test_non_integral_fractional_mass_is_a_solver_error(self, tsg_file, monkeypatch,
                                                            capsys):
        def shifted(game):
            ms = solve_marginal(game)
            x = ms.x_m.values.copy()
            x[0, 0] += 0.3  # the first category's mass is no longer integral
            return MarginalSolution(MarginalStrategy(x), ms.upper_bound)

        monkeypatch.setattr(cli, "solve_marginal", shifted)
        assert main(["solve", "--instance", str(tsg_file), "--method", "rand",
                     "--samples", "10"]) == 3
        assert "not integral" in capsys.readouterr().err

    def test_oversized_lp_is_a_solver_error(self, fams_file, monkeypatch, capsys):
        monkeypatch.setattr(lp, "MAX_TABLEAU_BYTES", 64)
        assert main(["solve", "--instance", str(fams_file), "--method", "marginal-bound"]) == 3
        assert "GiB limit" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["marginal-bound", "exact"])
    @pytest.mark.parametrize("key, value", [("weights", float("nan")),
                                            ("u_undef", -float("inf")),
                                            ("u_def", float("inf"))])
    def test_non_finite_target_data_is_named(self, tmp_path, capsys, fig1b_fams,
                                             method, key, value):
        data = game_to_json(encode_fams(fig1b_fams))
        target = data["targets"][1]
        if key == "weights":
            target["weights"][0] = value
        else:
            target[key] = value
        path = tmp_path / "game.json"
        path.write_text(json.dumps(data))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["solve", "--instance", str(path), "--method", method]) == 3
        assert caught == []
        err = capsys.readouterr().err
        assert f"target {target['id']!r} has non-finite" in err

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", "--instance", str(bad), "--method", "exact"]) == 2

    def test_missing_keys_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"something": 1}))
        assert main(["solve", "--instance", str(bad), "--method", "exact"]) == 2


class TestGenerateCommand:
    def test_generate_fams(self, tmp_path):
        out = tmp_path / "inst.json"
        code = main(["generate", "--family", "fams", "--seed", "5", "--flights", "6",
                     "--schedules", "5", "--targets-per-schedule", "2", "--out", str(out)])
        assert code == 0
        family, inst = load_instance(str(out))
        assert family == "fams"
        assert len(inst.flights) == 6

    def test_generate_tsg(self, tmp_path):
        out = tmp_path / "inst.json"
        code = main(["generate", "--family", "tsg", "--seed", "5", "--flights", "2",
                     "--risk-levels", "2", "--resource-types", "2", "--team-types", "2",
                     "--out", str(out)])
        assert code == 0
        family, inst = load_instance(str(out))
        assert family == "tsg"


class TestCheckImpl:
    def test_fams_not_implementable(self, fams_file, capsys):
        # random fams instances with shared flights are typically crossing,
        # but assert only that the command runs and prints a verdict
        code = main(["check-impl", "--instance", str(fams_file)])
        assert code == 0
        assert "bi-hierarchical" in capsys.readouterr().out

    def test_fig1c_verdict(self, tsg_file, capsys):
        code = main(["check-impl", "--instance", str(tsg_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "bi-hierarchical: false" in out
        assert "odd crossing cycle" in out


class TestBenchCommand:
    def test_sweep_produces_csv(self, tmp_path):
        config = {"family": "tsg", "sizes": [1, 2], "repetitions": 2,
                  "methods": ["rand", "exact"], "samples": 60,
                  "base": {"risk_levels": 1, "resource_types": 2, "team_types": 2},
                  "seed": 10}
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "out.csv"
        assert main(["bench", "--config", str(cfg_path), "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        data_rows = [r for r in rows if r["status"] == "ok"]
        agg_rows = [r for r in rows if r["status"] == "aggregate"]
        assert len(data_rows) == 8
        assert len(agg_rows) == 4
        for r in data_rows:
            if r["method"] == "rand" and r["loss_pct"]:
                assert float(r["value"]) <= float(r["upper_bound"]) + 1e-6

    def test_bench_is_stable_across_runs(self, tmp_path):
        config = {"family": "fams", "sizes": [3], "repetitions": 2,
                  "methods": ["rand", "cg"], "samples": 40,
                  "base": {"schedules": 3, "targets_per_schedule": 2, "resources": 2},
                  "seed": 1}
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(json.dumps(config))
        outs = []
        for name in ("x.csv", "y.csv"):
            out = tmp_path / name
            main(["bench", "--config", str(cfg_path), "--out", str(out)])
            rows = list(csv.DictReader(out.read_text().splitlines()))
            for r in rows:
                r.pop("wall_ms")
            outs.append(rows)
        assert outs[0] == outs[1]

    def test_each_instance_is_generated_once(self, tmp_path, monkeypatch):
        # 2 sizes x 3 repetitions, shared by both methods
        calls = []

        def counted(cfg):
            calls.append((cfg.flights, cfg.seed))
            return gen_fams(cfg)

        monkeypatch.setattr(cli, "gen_fams", counted)
        config = {"family": "fams", "sizes": [3, 4], "repetitions": 3,
                  "methods": ["rand", "marginal-bound"], "samples": 10,
                  "base": {"schedules": 3, "targets_per_schedule": 2, "resources": 2}}
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["bench", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")]) == 0
        assert calls == [(size, seed) for size in (3, 4) for seed in range(3)]

    def test_empty_methods_is_usage_error(self, tmp_path):
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(json.dumps({"family": "fams", "sizes": [2],
                                        "methods": [], "repetitions": 1}))
        assert main(["bench", "--config", str(cfg_path), "--out",
                     str(tmp_path / "o.csv")]) == 2

    @pytest.mark.parametrize("text, message", [
        (None, "No such file"),
        ("{", "line 1"),
        (json.dumps({"sizes": [2], "methods": ["rand"]}), "KeyError('family')"),
        (json.dumps({"family": "fams", "sizes": 3, "methods": ["rand"]}), "not iterable"),
        (json.dumps({"family": "fams", "sizes": [2], "methods": ["rand"],
                     "base": {"planes": 2}}), "'planes'"),
        (json.dumps({"family": "planes", "sizes": [2], "methods": ["rand"]}),
         "unknown family 'planes'"),
        (json.dumps({"family": "fams", "sizes": [2], "methods": ["rand", "bogus"]}),
         "unknown method 'bogus'"),
        (json.dumps({"family": "fams", "sizes": [2], "methods": ["rand", "exact", "rand"]}),
         "method 'rand' is listed twice"),
    ], ids=["missing-file", "bad-json", "no-family", "scalar-sizes", "unknown-base-key",
            "unknown-family", "unknown-method", "repeated-method"])
    def test_config_errors_are_usage_errors(self, tmp_path, capsys, text, message):
        cfg_path = tmp_path / "bench.json"
        if text is not None:
            cfg_path.write_text(text)
        out = tmp_path / "o.csv"
        assert main(["bench", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg_path}: ")
        assert message in err
        assert not out.exists()


class TestReport:
    def test_value_bound_enforced_at_write(self, tmp_path):
        report = SolveReport("rand", value=1.0, upper_bound=0.0, wall_ms=1,
                             seed=0, instance_digest="x")
        with pytest.raises(ValueError, match="exceeds"):
            report.write(str(tmp_path / "r.json"))

    def test_run_method_marginal_bound(self, fig1b_fams):
        report = run_method("fams", fig1b_fams, "marginal-bound", seed=0)
        assert report.value == report.upper_bound
