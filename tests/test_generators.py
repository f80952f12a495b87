import numpy as np
import pytest

from ara.core import GameError
from ara.generators import GenConfig, gen_fams, gen_tsg
from ara.jsonio import canonical_json, fams_to_json, tsg_to_json
from ara.lp import LinearProgram, solve_lp
from ara.marginal import solve_marginal
from ara.sampling import to_pe0, estimate_mixed
from ara.fams import FamsFixer, encode_fams
from ara.tsg import TsgFixer, encode_tsg


def test_fams_determinism():
    cfg = GenConfig(seed=7, family="fams", flights=5, schedules=4, targets_per_schedule=2)
    a = canonical_json(fams_to_json(gen_fams(cfg)))
    b = canonical_json(fams_to_json(gen_fams(cfg)))
    assert a == b


def test_fams_payoff_ranges():
    cfg = GenConfig(seed=3, family="fams", flights=40, schedules=10, targets_per_schedule=3)
    inst = gen_fams(cfg)
    for f in inst.flights:
        assert f.u_def == -1.0
        assert f.u_undef in {-float(v) for v in range(2, 11)}


def test_fams_rejects_oversized_schedules():
    cfg = GenConfig(seed=0, family="fams", flights=2, schedules=1, targets_per_schedule=3)
    with pytest.raises(GameError, match="at least"):
        gen_fams(cfg)


def test_fams_smoke_run_scaled_down():
    cfg = GenConfig(seed=1, family="fams", flights=50, schedules=100,
                    targets_per_schedule=5, resources=10)
    inst = gen_fams(cfg)
    game = encode_fams(inst)
    ms = solve_marginal(game)
    assert np.isfinite(ms.upper_bound)


def test_tsg_determinism():
    cfg = GenConfig(seed=11, family="tsg", flights=3, risk_levels=2,
                    resource_types=3, team_types=4)
    a = canonical_json(tsg_to_json(gen_tsg(cfg)))
    b = canonical_json(tsg_to_json(gen_tsg(cfg)))
    assert a == b


def test_tsg_different_seeds_differ():
    base = dict(family="tsg", flights=3, risk_levels=2, resource_types=3, team_types=4)
    a = canonical_json(tsg_to_json(gen_tsg(GenConfig(seed=1, **base))))
    b = canonical_json(tsg_to_json(gen_tsg(GenConfig(seed=2, **base))))
    assert a != b


def _deliverable_capacity(inst):
    """Max total screening units under the capacity constraints alone."""
    game = encode_tsg(inst)
    kn = game.k * game.n
    prog = LinearProgram(kn, objective=np.ones(kn))
    for con in game.constraints:
        if con.is_equality:
            continue
        coeffs = [1] * len(con.cells) if con.coeffs is None else con.coeffs.tolist()
        coeffs = {i * game.n + j: float(c) for (i, j), c in zip(con.cells.tolist(), coeffs)}
        prog.add_row(coeffs, "<=", con.upper)
    sol = solve_lp(prog)
    assert sol.status == "optimal"
    return sol.objective_value


@pytest.mark.parametrize("seed", range(5))
def test_tsg_capacity_slack_audit(seed):
    cfg = GenConfig(seed=seed, family="tsg", flights=2, risk_levels=2,
                    resource_types=3, team_types=3)
    inst = gen_tsg(cfg)
    total_n = sum(c.passengers for c in inst.categories)
    assert total_n <= 0.85 * _deliverable_capacity(inst)


def test_tsg_desk_scale_pipeline():
    cfg = GenConfig(seed=5, family="tsg", flights=6, risk_levels=6,
                    resource_types=8, team_types=20)
    inst = gen_tsg(cfg)
    game = encode_tsg(inst)
    pe0 = to_pe0(game)
    ms = solve_marginal(pe0.game)
    res = estimate_mixed(ms, pe0, TsgFixer(inst), np.random.default_rng(0), m=50)
    assert res.value <= ms.upper_bound + 1e-6


def test_fams_desk_scale_pipeline():
    cfg = GenConfig(seed=6, family="fams", flights=30, schedules=30,
                    targets_per_schedule=3, resources=5)
    inst = gen_fams(cfg)
    game = encode_fams(inst)
    pe0 = to_pe0(game)
    ms = solve_marginal(pe0.game)
    res = estimate_mixed(ms, pe0, FamsFixer(inst), np.random.default_rng(0), m=50)
    assert res.value <= ms.upper_bound + 1e-6


def test_risk_skew_gives_high_risk_fewer_passengers():
    cfg = GenConfig(seed=13, family="tsg", flights=40, risk_levels=3,
                    resource_types=3, team_types=3)
    inst = gen_tsg(cfg)
    by_risk = {}
    for c in inst.categories:
        by_risk.setdefault(c.risk, []).append(c.passengers)
    means = [np.mean(by_risk[f"risk{i}"]) for i in range(3)]
    assert means[0] < means[2]
