import csv
import hashlib
import json
import warnings

import numpy as np
import pytest

from ara import cli, exact, fams, jsonio, lp, sampling
from ara.cli import main, run_method
from ara.core import AraGame, AssignmentConstraint, GameError, MarginalStrategy, Target
from ara.generators import GenConfig, gen_fams, gen_tsg
from ara.jsonio import (
    canonical_json,
    fams_from_json,
    fams_to_json,
    game_from_json,
    game_to_json,
    parse_instance,
    read_json,
    tsg_from_json,
    tsg_to_json,
)
from ara.fams import FamsInstance, FlightSpec, Schedule, encode_fams
from ara.marginal import MarginalSolution, solve_marginal
from ara.reports import SolveReport
from ara.tsg import encode_tsg
from conftest import random_raw_game


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
        data = game_to_json(encode_fams(fig1b_fams))
        assert game_to_json(game_from_json(data)) == data

    # sha256 of the canonical JSON of each game, recorded when constraints
    # and targets still held their cells as frozensets
    @pytest.mark.parametrize("family, digest", [
        ("fams", "9888e560ce018603e145e147cc0c692c16426561fed3d7e6b387a7aebcd1b53f"),
        ("tsg", "a1fdeddf88b7d2869e5446b691f7028b59562682e0390f6705b08e71400cba8d"),
    ])
    def test_game_format_is_pinned(self, fig1b_fams, fig1c_tsg, family, digest):
        game = encode_fams(fig1b_fams) if family == "fams" else encode_tsg(fig1c_tsg)
        data = game_to_json(game)
        assert game_to_json(game_from_json(data)) == data
        assert hashlib.sha256(canonical_json(data).encode()).hexdigest() == digest

    def test_random_games(self):
        # a reader refuses a random game whose weights admit coverage above
        # one; every other one must come back as it was written
        kept = with_coeffs = 0
        for seed in range(40):
            data = game_to_json(random_raw_game(np.random.default_rng(seed)))
            try:
                game = game_from_json(data)
            except GameError as exc:
                assert "coverage above one" in str(exc) or "unconstrained" in str(exc)
                continue
            assert game_to_json(game) == data
            kept += 1
            with_coeffs += any("coeffs" in c for c in data["constraints"])
        assert kept >= 10 and with_coeffs >= 5

    def test_family_detection(self, tmp_path, fig1b_fams):
        path = tmp_path / "ara.json"
        path.write_text(json.dumps(game_to_json(encode_fams(fig1b_fams))))
        family, game = parse_instance(read_json(str(path)))
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

    def test_int_payoff_past_int64_solves_as_its_float(self, tmp_path, fig1b_fams):
        # NumPy stores such an int next to floats as dtype=object, which the
        # column generation could not cast; a target holds its payoffs as floats
        values = []
        for name, u_def in (("int", 10 ** 20), ("float", 1e20)):
            path, out = tmp_path / f"{name}.json", tmp_path / f"{name}-report.json"
            path.write_text(json.dumps(_with_flight(fig1b_fams, u_def=u_def)))
            assert main(["solve", "--instance", str(path), "--method", "cg",
                         "--out", str(out)]) == 0
            values.append(json.loads(out.read_text())["value"])
        assert values[0] == values[1]

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

    def test_cg_encodes_the_instance_once(self, fig1b_fams, monkeypatch):
        encodes = []

        def counted(inst):
            encodes.append(inst)
            return encode_fams(inst)

        monkeypatch.setattr(cli, "encode_fams", counted)
        monkeypatch.setattr(fams, "encode_fams", counted)
        run_method("fams", fig1b_fams, "cg", seed=0)
        assert encodes == [fig1b_fams]

    @pytest.mark.parametrize("method", ["rand", "cg", "marginal-bound"])
    def test_a_fams_solve_builds_the_tables_once(self, fig1b_fams, method, monkeypatch):
        built, tables = [], fams.FamsTables

        def counted(inst):
            built.append(inst)
            return tables(inst)

        monkeypatch.setattr(fams, "FamsTables", counted)
        run_method("fams", fig1b_fams, method, seed=0, samples=5)
        assert built == [fig1b_fams]

    def test_one_instance_builds_its_tables_once_for_every_method(self, monkeypatch):
        # a fresh instance: ``fig1b_fams`` is shared by the other tests here
        inst = gen_fams(GenConfig(seed=5, family="fams", flights=5, schedules=6,
                                  targets_per_schedule=2, resources=3))
        built, tables = [], fams.FamsTables

        def counted(inst):
            built.append(inst)
            return tables(inst)

        monkeypatch.setattr(fams, "FamsTables", counted)
        for method in ("rand", "cg", "marginal-bound"):
            run_method("fams", inst, method, seed=0, samples=5)
        assert built == [inst]

    def test_samples_past_the_memory_limit_are_a_solver_error(self, tsg_file, capsys,
                                                              monkeypatch):
        def drawn(*args):
            raise AssertionError("a sample was drawn past the limit")

        monkeypatch.setattr(sampling, "_sample_with_stats", drawn)
        assert main(["solve", "--instance", str(tsg_file), "--method", "rand",
                     "--samples", "10000000000"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "GiB sample limit" in err[0]

    def test_cg_on_tsg_is_a_method_mismatch(self, tsg_file):
        assert main(["solve", "--instance", str(tsg_file), "--method", "cg"]) == 3

    def test_cg_past_its_cutoff_is_a_solver_error(self, fams_file, capsys):
        assert main(["solve", "--instance", str(fams_file), "--method", "cg",
                     "--cutoff-s", "-1"]) == 3
        assert "solve exceeded the -1.0s cutoff" in capsys.readouterr().err

    def test_rand_on_raw_game_is_a_solver_error(self, tmp_path, capsys, fig1b_fams):
        path = tmp_path / "game.json"
        path.write_text(json.dumps(game_to_json(encode_fams(fig1b_fams))))
        assert main(["solve", "--instance", str(path), "--method", "rand"]) == 3
        assert "needs a domain fixer" in capsys.readouterr().err

    def test_report_over_its_bound_is_a_solver_error(self, fams_file, tmp_path, capsys,
                                                     monkeypatch):
        def over(family, inst, method, seed, **kwargs):
            return SolveReport(method, 1.0, 0.0, 1, seed, "x")

        monkeypatch.setattr(cli, "run_method", over)
        out = tmp_path / "report.json"
        assert main(["solve", "--instance", str(fams_file), "--method", "exact",
                     "--out", str(out)]) == 3
        assert "report value 1.0 exceeds its upper bound 0.0" in capsys.readouterr().err
        assert not out.exists()

    def test_report_keys_are_pinned(self, tsg_file, tmp_path):
        out = tmp_path / "report.json"
        assert main(["solve", "--instance", str(tsg_file), "--method", "rand",
                     "--samples", "20", "--out", str(out)]) == 0
        assert set(json.loads(out.read_text())) == {
            "method", "value", "upper_bound", "wall_ms", "seed", "instance_digest",
            "sample_failures", "detection_ratio", "c_measured"}

    @staticmethod
    def _wide_game_file(tmp_path):
        # one level of search per cell: 1,500 cells once overflowed the stack
        cells = [(0, j) for j in range(1500)]
        game = AraGame(1, 1500, (AssignmentConstraint(cells, 0, 1, label="row"),),
                       (Target("t", cells, [1.0] * 1500, -1.0, -5.0),))
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

    @pytest.mark.parametrize("key, value, what", [("upper", float("inf"), "bounds"),
                                                  ("lower", -float("inf"), "bounds"),
                                                  ("upper", float("nan"), "bounds"),
                                                  ("coeffs", float("inf"), "coefficients")])
    def test_non_finite_constraint_data_is_named(self, tmp_path, capsys, key, value, what):
        inst = FamsInstance(1, (Schedule("s1", frozenset({"f1"})),),
                            (FlightSpec("f1", -1.0, -5.0),))
        data = game_to_json(encode_fams(inst))
        constraint = data["constraints"][0]
        constraint[key] = [[0, 0, value]] if key == "coeffs" else value
        path = tmp_path / "game.json"
        path.write_text(json.dumps(data))
        assert main(["solve", "--instance", str(path), "--method", "exact"]) == 3
        err = capsys.readouterr().err
        assert f"constraint {constraint['label']!r} has non-finite {what}" in err

    @pytest.mark.parametrize("part, cells, weights, code, message", [
        ("constraints", [[0, 3], [0, 1], [0, 2]], None, 3,
         "constraint 'marshal 0' references cell (0, 3) outside 3x3"),
        ("targets", [[3, 0], [0, 1]], [1.0, 1.0], 3,
         "target 'f1' references cell (3, 0) outside 3x3"),
        ("constraints", [[0, 0], [0, -1]], None, 3,
         "constraint 'marshal 0' references cell (0, -1) outside 3x3"),
        ("constraints", [[0, 0], [0]], None, 3,
         "constraint 'marshal 0' cells must be (row, col) integer pairs"),
        ("targets", [[0, 0, 0]], [1.0], 3,
         "target 'f1' cells must be (row, col) integer pairs"),
        ("constraints", [0, 1], None, 3,
         "constraint 'marshal 0' cells must be (row, col) integer pairs"),
        ("constraints", [[0, 0.5]], None, 3,
         "constraint 'marshal 0' cells must be (row, col) integer pairs"),
        ("constraints", [[0, 1], [0, 0], [0, 1]], None, 3,
         "constraint 'marshal 0' repeats cell (0, 1)"),
        ("targets", [[0, 0], [1, 1], [0, 0]], [1.0, 0.5, 0.25], 3,
         "target 'f1' repeats cell (0, 0)"),
        ("targets", [[0, 0], [0, 1]], [1.0], 3, "target 'f1' has 1 weights for 2 cells"),
        ("constraints", 5, None, 3,
         "constraint 'marshal 0' cells must be (row, col) integer pairs"),
    ], ids=["column-n", "row-k", "negative", "not-a-pair", "triple", "flat", "fraction",
            "repeated-in-constraint", "repeated-in-target", "short-weights", "scalar"])
    def test_bad_cells_are_named(self, tmp_path, capsys, fig1b_fams, part, cells, weights,
                                 code, message):
        data = game_to_json(encode_fams(fig1b_fams))
        entry = data[part][0]
        entry["cells"] = cells
        if weights is not None:
            entry["weights"] = weights
        path = tmp_path / "game.json"
        path.write_text(json.dumps(data))
        assert main(["solve", "--instance", str(path), "--method", "marginal-bound"]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("coeffs, message", [
        ([[1, 1, 2]], "constraint 'marshal 0' has coefficients outside its cells"),
        ([[0, 0]], "game: "),
    ], ids=["outside-cells", "not-a-triple"])
    def test_bad_coefficient_entries_are_parse_errors(self, tmp_path, capsys, fig1b_fams,
                                                      coeffs, message):
        data = game_to_json(encode_fams(fig1b_fams))
        data["constraints"][0]["coeffs"] = coeffs
        path = tmp_path / "game.json"
        path.write_text(json.dumps(data))
        assert main(["solve", "--instance", str(path), "--method", "marginal-bound"]) == 2
        assert message in capsys.readouterr().err

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", "--instance", str(bad), "--method", "exact"]) == 2

    def test_missing_keys_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"something": 1}))
        assert main(["solve", "--instance", str(bad), "--method", "exact"]) == 2


def _fams_data(fig1b_fams, **changes):
    return {**fams_to_json(fig1b_fams), **changes}


def _tsg_data(fig1c_tsg, passengers):
    data = tsg_to_json(fig1c_tsg)
    data["categories"][0]["n"] = passengers
    for resource in data["resources"]:
        resource["capacity"] = passengers
    return data


def _tsg_category(fig1c_tsg, n=None, capacity=None):
    """The screening toy with its first category's passenger count or its
    first resource's capacity replaced."""
    data = tsg_to_json(fig1c_tsg)
    if n is not None:
        data["categories"][0]["n"] = n
    if capacity is not None:
        data["resources"][0]["capacity"] = capacity
    return data


def _game_data(fig1b_fams, upper):
    data = game_to_json(encode_fams(fig1b_fams))
    data["constraints"][0]["upper"] = upper
    return data


def _with_flight(fig1b_fams, **changes):
    data = fams_to_json(fig1b_fams)
    data["flights"][0].update(changes)
    return data


def _tsg_id(fig1c_tsg, group, value):
    """The screening toy with the id of the first of its ``group`` replaced."""
    data = tsg_to_json(fig1c_tsg)
    data[group][0]["id"] = value
    return data


def _game_target_id(fig1b_fams, value):
    """The encoded air-marshal toy with its first target renamed, in its
    adversary type too."""
    data = game_to_json(encode_fams(fig1b_fams))
    old, data["targets"][0]["id"] = data["targets"][0]["id"], value
    for a in data["adversary_types"]:
        a["targets"] = [value if t == old else t for t in a["targets"]]
    return data


@pytest.mark.parametrize("make, code, message", [
    (lambda f, t: _fams_data(f, marshals=2.5), 3, "marshal count 2.5 is not an integer"),
    (lambda f, t: _fams_data(f, marshals=10 ** 12), 3, "exceed the 134217728 cell cap"),
    (lambda f, t: _tsg_data(t, 10 ** 20), 3, "past the int64 range"),
    (lambda f, t: _game_data(f, 10 ** 20), 3, "past the int64 range"),
    (lambda f, t: [1, 2], 2, "expected a JSON object, not list"),
    (lambda f, t: "hello", 2, "expected a JSON object, not str"),
    (lambda f, t: _with_flight(f, u_def=float("nan")), 3, "has non-finite payoffs"),
    (lambda f, t: _fams_data(f, marshals="3"), 3, "marshal count '3' is not an integer"),
    (lambda f, t: _fams_data(f, marshals=True), 3, "marshal count True is not an integer"),
    (lambda f, t: _fams_data(f, schedules=[{"id": "s9", "flights": ["f9"]}]), 3,
     "references unknown flight 'f9'"),
    (lambda f, t: {**game_to_json(encode_fams(f)), "k": True}, 3,
     "matrix dimension k = True is not an integer"),
    (lambda f, t: {**game_to_json(encode_fams(f)), "n": 2.5}, 3,
     "matrix dimension n = 2.5 is not an integer"),
    (lambda f, t: _tsg_category(t, n=True), 3,
     "category 'c_r1_f1' passenger count True is not an integer"),
    (lambda f, t: _tsg_category(t, capacity=True), 3,
     "resource 'xray' capacity must be a nonnegative integer"),
    (lambda f, t: _fams_data(f, flights=[*fams_to_json(f)["flights"],
                                         {"id": 0, "u_def": -1.0, "u_undef": -2.0}]), 3,
     "flight id 0 is not a string"),
    (lambda f, t: _tsg_id(t, "teams", 1), 3, "team id 1 is not a string"),
    (lambda f, t: _tsg_id(t, "categories", True), 3, "category id True is not a string"),
    (lambda f, t: _tsg_id(t, "teams", None), 3, "team id None is not a string"),
    (lambda f, t: _game_target_id(f, 0), 3, "target id 0 is not a string"),
    (lambda f, t: _with_flight(f, u_def=10 ** 400), 3, "has a payoff past the float range"),
    (lambda f, t: _tsg_category(t, capacity=float("inf")), 3,
     "resource 'xray' capacity must be a nonnegative integer"),
    (lambda f, t: {**_tsg_category(t), "resources": [*tsg_to_json(t)["resources"],
                                                      {"id": "spare", "capacity": 10 ** 20}]}, 3,
     "resource 'spare' capacity 100000000000000000000 is past the int64 range"),
    (lambda f, t: {**game_to_json(encode_fams(f)), "constraints": ["x"]}, 2,
     "constraint 'x' is not a JSON object"),
    (lambda f, t: {**game_to_json(encode_fams(f)), "constraints": [0]}, 2,
     "constraint 0 is not a JSON object"),
    (lambda f, t: _fams_data(f, forbidden=[[True, "s1"]]), 3,
     "forbidden pair (True, 's1') names a marshal that is not an integer"),
    (lambda f, t: _fams_data(f, forbidden=[[1.5, "s1"]]), 3,
     "forbidden pair (1.5, 's1') names a marshal that is not an integer"),
], ids=["fractional-marshals", "huge-marshals", "tsg-passengers-past-int64",
        "game-bound-past-int64", "list", "string", "nan-payoff", "string-marshals",
        "boolean-marshals", "unknown-flight", "boolean-game-k", "fractional-game-n",
        "boolean-passengers", "boolean-capacity", "number-flight-id", "number-team-id",
        "boolean-category-id", "null-team-id", "number-target-id", "payoff-past-float",
        "infinite-capacity", "unused-capacity-past-int64", "string-constraint",
        "number-constraint", "boolean-forbidden-marshal", "fractional-forbidden-marshal"])
def test_malformed_instance_is_one_error_line(tmp_path, capsys, fig1b_fams, fig1c_tsg,
                                              make, code, message):
    """Every malformed instance ends in exit code 2 (parse) or 3 (solver)
    with one ``error:`` line and no traceback."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(make(fig1b_fams, fig1c_tsg)))
    assert main(["solve", "--instance", str(path), "--method", "marginal-bound"]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]


class TestGenerateCommand:
    def test_generate_fams(self, tmp_path):
        out = tmp_path / "inst.json"
        code = main(["generate", "--family", "fams", "--seed", "5", "--flights", "6",
                     "--schedules", "5", "--targets-per-schedule", "2", "--out", str(out)])
        assert code == 0
        family, inst = parse_instance(read_json(str(out)))
        assert family == "fams"
        assert len(inst.flights) == 6

    def test_generate_tsg(self, tmp_path):
        out = tmp_path / "inst.json"
        code = main(["generate", "--family", "tsg", "--seed", "5", "--flights", "2",
                     "--risk-levels", "2", "--resource-types", "2", "--team-types", "2",
                     "--out", str(out)])
        assert code == 0
        family, inst = parse_instance(read_json(str(out)))
        assert family == "tsg"


class TestCheckImpl:
    def test_fams_not_implementable(self, fams_file, capsys):
        # random fams instances with shared flights are typically crossing,
        # but assert only that the command runs and prints a verdict
        code = main(["check-impl", "--instance", str(fams_file)])
        assert code == 0
        assert "bi-hierarchical" in capsys.readouterr().out

    def test_bi_hierarchical_verdict_names_both_families(self, tmp_path, capsys):
        # disjoint singleton schedules: marshal budgets and flights are laminar
        inst = FamsInstance(2, tuple(Schedule(f"s{j}", frozenset({f"f{j}"})) for j in range(3)),
                            tuple(FlightSpec(f"f{j}", -1.0, -5.0) for j in range(3)))
        path = tmp_path / "fams.json"
        path.write_text(json.dumps(fams_to_json(inst)))
        assert main(["check-impl", "--instance", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "bi-hierarchical: true",
            "  family 1: marshal 0, marshal 1",
            "  family 2: flight f0, flight f1, flight f2"]

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

    @pytest.mark.parametrize("family, base, cutoff_s, status", [
        ("fams", {"schedules": 3, "targets_per_schedule": 2, "resources": 2}, -1, "timeout"),
        ("tsg", {"risk_levels": 1, "resource_types": 2, "team_types": 2}, 600,
         "failed: column generation only applies to air-marshal instances"),
    ], ids=["timeout", "failed"])
    def test_unsolved_rows_carry_their_status(self, tmp_path, family, base, cutoff_s, status):
        config = {"family": family, "sizes": [2], "repetitions": 1, "methods": ["cg"],
                  "cutoff_s": cutoff_s, "base": base}
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "o.csv"
        assert main(["bench", "--config", str(cfg_path), "--out", str(out)]) == 0
        row, agg = csv.DictReader(out.read_text().splitlines())
        assert row["status"] == status and row["value"] == ""
        assert agg["status"] == "aggregate" and agg["wall_ms"] == ""

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
        with pytest.raises(GameError, match="exceeds"):
            report.write(str(tmp_path / "r.json"))
        assert not (tmp_path / "r.json").exists()

    def test_run_method_marginal_bound(self, fig1b_fams):
        report = run_method("fams", fig1b_fams, "marginal-bound", seed=0)
        assert report.value == report.upper_bound
