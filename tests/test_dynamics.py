import numpy as np
import pytest

from technet.acs import decompose
from technet.dynamics import (
    BlowupError,
    TimeGridError,
    estimate_growth_rate,
    simulate_linear,
    trajectory_to_text,
)

from drivers import net_from_edges
from oracles import taylor_expm


class TestSimulateLinear:
    def test_empty_network_any_start_is_equilibrium(self):
        net = net_from_edges(3, [])
        y0 = np.array([2.0, 0.5, 7.0])
        traj = simulate_linear(net, y0, t_end=4.0)
        assert np.allclose(traj.activities[-1], y0)

    def test_single_link_linear_growth(self):
        net = net_from_edges(3, [(0, 1)])
        traj = simulate_linear(net, np.array([2.0, 1.0, 5.0]), t_end=3.0)
        # receiver grows linearly: y1(t) = y1(0) + y0(0) t; others constant
        assert abs(traj.activities[-1][1] - (1.0 + 2.0 * 3.0)) < 1e-9
        assert traj.activities[-1][0] == 2.0
        assert traj.activities[-1][2] == 5.0

    def test_two_cycle_matches_cosh_sinh(self):
        net = net_from_edges(2, [(0, 1), (1, 0)])
        traj = simulate_linear(net, np.array([1.0, 0.0]), t_end=15.0)
        t = traj.times[-1]
        exact = np.array([np.cosh(t), np.sinh(t)])
        assert np.abs(traj.activities[-1] - exact).max() / exact.max() < 1e-6

    def test_matches_matrix_exponential_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            n = int(rng.integers(2, 7))
            adj = (rng.random((n, n)) < 0.3).astype(np.uint8)
            np.fill_diagonal(adj, 0)
            net = net_from_edges(n, zip(*np.nonzero(adj)))
            y0 = rng.random(n) + 0.1
            traj = simulate_linear(net, y0, t_end=5.0, dt=2e-3)
            exact = taylor_expm(adj.T, 5.0) @ y0
            rel = np.abs(traj.activities[-1] - exact).max() / max(1.0, np.abs(exact).max())
            assert rel < 1e-6

    def test_nonnegativity_preserved(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            adj = (rng.random((n, n)) < 0.4).astype(np.uint8)
            net = net_from_edges(n, zip(*np.nonzero(adj)))
            traj = simulate_linear(net, rng.random(n), t_end=3.0)
            assert traj.activities.min() >= -1e-12

    def test_blowup_reports_time(self):
        net = net_from_edges(2, [(0, 1), (1, 0)])
        with pytest.raises(BlowupError) as exc:
            simulate_linear(net, np.array([1e250, 1e250]), t_end=200.0)
        assert 0 < exc.value.blow_up_time < 200.0

    def test_input_validation(self):
        net = net_from_edges(2, [])
        with pytest.raises(ValueError):
            simulate_linear(net, np.array([1.0, 1.0]), t_end=1.0, dt=0.0)
        with pytest.raises(ValueError):
            simulate_linear(net, np.array([-1.0, 1.0]), t_end=1.0)
        with pytest.raises(ValueError):
            simulate_linear(net, np.array([1.0]), t_end=1.0)


class TestGrowthRate:
    def test_constant_trajectory_rate_zero(self):
        net = net_from_edges(2, [])
        traj = simulate_linear(net, np.array([1.0, 2.0]), t_end=5.0)
        rates = estimate_growth_rate(traj, window=2.0)
        assert np.allclose(rates.rates, 0.0)
        assert not rates.sub_exponential.any()

    def test_cycle_rate_approaches_lambda1(self):
        # 3-cycle with a periphery node: all ACS rates match the eigenvalue
        net = net_from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
        lam = decompose(net).lambda1
        traj = simulate_linear(net, np.ones(4), t_end=30.0, dt=5e-3)
        rates = estimate_growth_rate(traj, window=5.0)
        assert np.abs(rates.rates - lam).max() < 1e-3
        assert not rates.sub_exponential.any()

    def test_acyclic_chain_flagged_sub_exponential(self):
        # 0 -> 1 -> 2: field 1 grows linearly, field 2 quadratically
        net = net_from_edges(3, [(0, 1), (1, 2)])
        traj = simulate_linear(net, np.array([1.0, 1.0, 1.0]), t_end=30.0)
        rates = estimate_growth_rate(traj, window=6.0)
        assert not rates.sub_exponential[0]
        assert rates.sub_exponential[1]
        assert rates.sub_exponential[2]

    def test_below_floor_fields_marked(self):
        net = net_from_edges(2, [])
        traj = simulate_linear(net, np.array([0.0, 1.0]), t_end=5.0)
        rates = estimate_growth_rate(traj, window=2.0)
        assert rates.sub_exponential[0]
        assert rates.rates[0] == 0.0

    def test_degenerate_window_is_error(self):
        net = net_from_edges(2, [])
        traj = simulate_linear(net, np.array([1.0, 1.0]), t_end=1.0)
        with pytest.raises(TimeGridError):
            estimate_growth_rate(traj, window=0.0)
        with pytest.raises(TimeGridError):
            estimate_growth_rate(traj, window=0.015)

    def test_asymptotic_alignment_with_pf_vector(self):
        net = net_from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
        pf = decompose(net).pf_vector
        traj = simulate_linear(net, np.ones(4), t_end=40.0)
        y = traj.activities[-1]
        cos = y @ pf / (np.linalg.norm(y) * np.linalg.norm(pf))
        assert cos >= 1 - 1e-6


def test_trajectory_export_grid():
    net = net_from_edges(2, [(0, 1)])
    traj = simulate_linear(net, np.array([1.0, 0.0]), t_end=0.05, dt=0.01)
    lines = trajectory_to_text(traj).splitlines()
    assert len(lines) == 6 * 2
    t, field, y = lines[0].split(",")
    assert float(t) == 0.0 and field == "N00" and float(y) == 1.0
