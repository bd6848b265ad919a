import math

import numpy as np
import pytest

from oscpair import (
    PhasePoint,
    QuantumNumbers,
    RotatedPhasePoint,
    SystemParams,
    diagonalize,
    eigenfunction,
    lab_to_normal,
    normal_to_lab,
    wigner_lab,
    wigner_rotated,
)
from oscpair.oracle import gauss_hermite
from oscpair.specfun import hermite_function
from oscpair.wigner import eigenfunctions, laguerre

PARAMS = SystemParams(1.0, 0.8, 0.5)
MODES = diagonalize(PARAMS)


def lab_wigner_reference(params, nm, pt):
    """Explicit lab-frame formula (rotation by the angle of the parameters), as a cross-check."""
    theta = 0.5 * math.atan2(2 * params.epsilon, params.omega_x**2 - params.omega_y**2)
    c, s = math.cos(theta), math.sin(theta)
    modes = diagonalize(params)
    vx, vy = modes.vartheta_x, modes.vartheta_y
    ax = vx * (pt.x * c + pt.y * s) ** 2 + (pt.p * c + pt.q * s) ** 2 / vx
    ay = vy * (pt.x * s - pt.y * c) ** 2 + (pt.p * s - pt.q * c) ** 2 / vy
    return ((-1.0) ** (nm.n + nm.m) / math.pi**2 * math.exp(-ax - ay)
            * laguerre(nm.n, 2 * ax) * laguerre(nm.m, 2 * ay))


class TestEigenfunction:
    def test_ground_state_at_origin(self):
        want = (MODES.vartheta_x * MODES.vartheta_y / math.pi**2) ** 0.25
        assert eigenfunction(MODES, QuantumNumbers(0, 0), 0.0, 0.0) == pytest.approx(want)

    def test_odd_state_vanishes_on_nodal_line(self):
        for y in np.linspace(-3, 3, 7):
            assert eigenfunction(MODES, QuantumNumbers(1, 0), 0.0, float(y)) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("n", range(4))
    @pytest.mark.parametrize("m", range(4))
    def test_unit_norm_by_quadrature(self, n, m):
        # Gauss-Hermite in scaled coordinates integrates psi^2 exactly
        vx, vy = MODES.vartheta_x, MODES.vartheta_y
        rule = gauss_hermite(n + m + 6)
        t, w = rule.nodes, rule.weights
        rw = w * np.exp(t * t)
        big_x = t / math.sqrt(vx)
        big_y = t / math.sqrt(vy)
        psi = eigenfunction(MODES, QuantumNumbers(n, m), big_x[:, None], big_y[None, :])
        norm = np.einsum("i,j,ij->", rw, rw, psi**2) / math.sqrt(vx * vy)
        assert norm == pytest.approx(1.0, abs=1e-12)


    def test_table_is_the_stacked_single_states(self):
        # one recurrence per mode up to the largest n or m, the same bits as one state at
        # a time, and as the per-state product of hermite_function that it replaced
        vx, vy = MODES.vartheta_x, MODES.vartheta_y
        big_x, big_y = np.linspace(-5.0, 5.0, 23)[:, None], np.linspace(-4.0, 6.0, 19)[None, :]
        states = [QuantumNumbers(n, m) for n, m in ((0, 0), (3, 1), (1, 0), (0, 7), (8, 8), (2, 2))]
        table = eigenfunctions(MODES, states, big_x, big_y)
        assert table.shape == (len(states), 23, 19)
        for q, got in zip(states, table):
            single = eigenfunction(MODES, q, big_x, big_y)
            assert got.tobytes() == single.tobytes(), q
            product = (vx**0.25 * hermite_function(q.n, math.sqrt(vx) * big_x)
                       * (vy**0.25 * hermite_function(q.m, math.sqrt(vy) * big_y)))
            assert got.tobytes() == product.tobytes(), q
        point = eigenfunction(MODES, QuantumNumbers(2, 1), 0.3, -0.4)
        assert type(point) is float
        assert point == eigenfunctions(MODES, [QuantumNumbers(2, 1)], 0.3, -0.4)[0]


class TestRotation:
    def test_round_trip(self):
        pt = PhasePoint(0.3, -1.2, 0.7, 0.1)
        back = normal_to_lab(MODES, lab_to_normal(MODES, pt))
        for a, b in zip(pt, back):
            assert a == pytest.approx(b, abs=1e-15)

    def test_jacobian_is_symplectic(self):
        c, s = MODES.c, MODES.s
        jac = np.array([
            [c, 0, s, 0],
            [0, c, 0, s],
            [-s, 0, c, 0],
            [0, -s, 0, c],
        ])
        assert np.linalg.det(jac) == pytest.approx(1.0, abs=1e-14)
        omega = np.array([
            [0, 1, 0, 0],
            [-1, 0, 0, 0],
            [0, 0, 0, 1],
            [0, 0, -1, 0],
        ])
        np.testing.assert_allclose(jac.T @ omega @ jac, omega, atol=1e-14)


class TestWignerRotated:
    def test_ground_state_peak(self):
        origin = RotatedPhasePoint(0.0, 0.0, 0.0, 0.0)
        assert wigner_rotated(MODES, QuantumNumbers(0, 0), origin) == pytest.approx(1 / math.pi**2)

    def test_first_excited_is_negative_at_origin(self):
        origin = RotatedPhasePoint(0.0, 0.0, 0.0, 0.0)
        assert wigner_rotated(MODES, QuantumNumbers(1, 0), origin) == pytest.approx(-1 / math.pi**2)

    def test_negativity_survives_all_couplings(self):
        grid = np.linspace(-2, 2, 9)
        for eps in (0.0, 0.2, 0.5, 0.75):
            modes = diagonalize(SystemParams(1.0, 0.8, eps))
            vals = wigner_rotated(
                modes, QuantumNumbers(1, 0),
                RotatedPhasePoint(grid[:, None], grid[None, :], 0.0, 0.0),
            )
            assert vals.min() < 0.0


class TestWignerLab:
    def test_identity_rotation_matches_rotated_form(self):
        params = SystemParams(1.0, 0.8, 0.0)  # omega_x > omega_y, eps=0: theta=0
        modes = diagonalize(params)
        assert modes.s2 == 0.0
        pt = PhasePoint(0.4, -0.2, 1.1, 0.6)
        lab = wigner_lab(modes, QuantumNumbers(2, 1), pt)
        rot = wigner_rotated(modes, QuantumNumbers(2, 1), RotatedPhasePoint(*pt))
        assert lab == pytest.approx(rot, rel=1e-15)

    @pytest.mark.parametrize("nm", [(0, 0), (1, 0), (2, 1), (3, 3)])
    def test_agrees_with_explicit_lab_formula(self, nm):
        q = QuantumNumbers(*nm)
        rng = np.random.default_rng(42)
        for _ in range(25):
            pt = PhasePoint(*rng.uniform(-2, 2, size=4))
            assert wigner_lab(MODES, q, pt) == pytest.approx(
                lab_wigner_reference(PARAMS, q, pt), rel=1e-12, abs=1e-15
            )

    def test_parity_symmetry(self):
        q = QuantumNumbers(2, 1)
        rng = np.random.default_rng(7)
        for _ in range(20):
            x, p, y, qq = rng.uniform(-2, 2, size=4)
            a = wigner_lab(MODES, q, PhasePoint(x, p, y, qq))
            b = wigner_lab(MODES, q, PhasePoint(-x, -p, -y, -qq))
            assert a == pytest.approx(b, rel=1e-13, abs=1e-16)

    @pytest.mark.parametrize("nm", [(1, 0), (6, 6)])
    def test_sparse_grid_gives_the_dense_grid_bits(self, nm):
        # what `wigner-eval` evaluates: unequal axes, so a wrong broadcast shows as a shape
        axes = [np.linspace(-2, 2, k) for k in (3, 5, 4, 2)]
        q = QuantumNumbers(*nm)
        dense = wigner_lab(MODES, q, PhasePoint(*np.meshgrid(*axes, indexing="ij")))
        sparse = wigner_lab(MODES, q, PhasePoint(*np.meshgrid(*axes, indexing="ij", sparse=True)))
        assert sparse.shape == dense.shape == (3, 5, 4, 2)
        assert sparse.tobytes() == dense.tobytes()
