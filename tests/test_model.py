import contextlib
import dataclasses
import io
import itertools
import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oscpair import (PhasePoint, QuantumNumbers, SystemParams, cutoff_angle, diagonalize, energy,
                     purity_exact, second_and_fourth_moments, steering, wigner_lab)
from oscpair import model, run_verification
from oscpair.cli import main
from oscpair.model import FREQUENCY_RANGE


def test_decoupled_symmetric_uses_quarter_pi_convention():
    modes = diagonalize(SystemParams(1.0, 1.0, 0.0))
    assert modes.c2 == pytest.approx(0.5) and modes.s2 == pytest.approx(0.5)  # theta = pi/4
    assert modes.mu == pytest.approx(1.0)
    assert modes.vartheta_x == pytest.approx(1.0)
    assert modes.vartheta_y == pytest.approx(1.0)


def test_resonant_coupling_splits_frequencies():
    # direct evaluation, cross-checked by diagonalizing the potential matrix
    modes = diagonalize(SystemParams(1.0, 1.0, 0.5))
    assert modes.c2 == pytest.approx(0.5) and modes.s2 == pytest.approx(0.5)  # theta = pi/4
    assert modes.vartheta_x**2 == pytest.approx(1.5, abs=1e-14)
    assert modes.vartheta_y**2 == pytest.approx(0.5, abs=1e-14)
    eig = np.linalg.eigvalsh(np.array([[1.0, -0.5], [-0.5, 1.0]]))
    assert modes.vartheta_y**2 == pytest.approx(eig[0], abs=1e-14)
    assert modes.vartheta_x**2 == pytest.approx(eig[1], abs=1e-14)


@pytest.mark.parametrize("omega_x, omega_y, epsilon", [
    (1.0, 1.0, 1.0),      # boundary epsilon = omega_x*omega_y excluded
    (1.0, 1.0, 1.5),
    (1.0, 1.0, -0.1),     # negative couplings rejected
    (0.0, 1.0, 0.0),
    (1.0, -2.0, 0.0),
])
def test_invalid_parameters_rejected(omega_x, omega_y, epsilon):
    with pytest.raises(ValueError):
        SystemParams(omega_x, omega_y, epsilon)


def _check_frequency_domain(omega_x: float, omega_y: float, coupling) -> None:
    """SystemParams rejects exactly the frequencies outside FREQUENCY_RANGE; inside it,
    every public routine is finite (warnings are errors here, so an overflow or an
    invalid operation fails too), up to the last coupling below the bound."""
    bound = omega_x * omega_y
    epsilon = math.nextafter(bound, 0.0) if coupling == "last" else coupling * bound
    if not all(FREQUENCY_RANGE[0] <= w <= FREQUENCY_RANGE[1] for w in (omega_x, omega_y)):
        with pytest.raises(ValueError, match="must lie in"):
            SystemParams(omega_x, omega_y, epsilon)
        return
    params = SystemParams(omega_x, omega_y, epsilon)
    modes = diagonalize(params)
    values = [modes.c2, modes.s2, modes.sc, modes.vartheta_x, modes.vartheta_y]  # mu may be inf
    for nm in (QuantumNumbers(1, 1), QuantumNumbers(3, 2)):
        values += [energy(params, nm), purity_exact(params, nm).purity,
                   wigner_lab(modes, nm, PhasePoint(0.0, 0.0, 0.0, 0.0))]
        values += astuple(second_and_fourth_moments(params, nm)) + astuple(steering(params, nm))
    assert all(math.isfinite(v) for v in values)


COUPLINGS = [0.0, 0.5, 0.99, "last"]


@given(log_x=st.floats(-300.0, 300.0), log_y=st.floats(-300.0, 300.0),
       coupling=st.sampled_from(COUPLINGS))
@example(log_x=-50.01, log_y=0.0, coupling=0.5)
@example(log_x=0.0, log_y=50.01, coupling=0.5)
@settings(max_examples=300, deadline=None)
def test_frequency_domain_over_the_float_range(log_x, log_y, coupling):
    _check_frequency_domain(10.0**log_x, 10.0**log_y, coupling)


# the draws above land inside the domain about 3 % of the time: its corners and
# interior on a grid, both frequency orders and resonance included
@pytest.mark.parametrize("coupling", COUPLINGS)
def test_frequency_domain_grid(coupling):
    for log_x, log_y in itertools.product((-50, -49, -25, 0, 25, 49, 50), repeat=2):
        _check_frequency_domain(10.0**log_x, 10.0**log_y, coupling)


def test_quantum_numbers_must_be_non_negative():
    with pytest.raises(ValueError):
        QuantumNumbers(-1, 0)
    with pytest.raises(ValueError):
        QuantumNumbers(0, -3)


@given(
    omega_x=st.floats(0.2, 3.0),
    omega_y=st.floats(0.2, 3.0),
    frac=st.floats(0.0, 0.999),
)
@settings(max_examples=200, deadline=None)
def test_trace_and_determinant_identities(omega_x, omega_y, frac):
    params = SystemParams(omega_x, omega_y, frac * omega_x * omega_y)
    modes = diagonalize(params)
    vx2, vy2 = modes.vartheta_x**2, modes.vartheta_y**2
    scale = omega_x**2 + omega_y**2
    assert vx2 + vy2 == pytest.approx(scale, rel=1e-13)
    assert vx2 * vy2 == pytest.approx(
        omega_x**2 * omega_y**2 - params.epsilon**2, rel=1e-12, abs=1e-13 * scale**2
    )
    assert modes.vartheta_x >= modes.vartheta_y > 0.0


@given(
    omega_x=st.floats(0.2, 3.0),
    omega_y=st.floats(0.2, 3.0),
    frac=st.floats(1e-3, 0.999),
)
@settings(max_examples=200, deadline=None)
def test_frequency_shift_equals_coupling_times_mixing(omega_x, omega_y, frac):
    # near-degenerate frequencies and vanishing couplings amplify the
    # tan(theta) rounding by sec^2; the degenerate branch itself is
    # covered by the resonance tests
    assume(abs(omega_x - omega_y) > 0.05)
    params = SystemParams(omega_x, omega_y, frac * omega_x * omega_y)
    modes = diagonalize(params)
    shift = params.epsilon * modes.mu
    scale = 1e-10 * (omega_x**2 + omega_y**2)
    assert modes.vartheta_x**2 == pytest.approx(omega_x**2 + shift, rel=1e-9, abs=scale)
    assert modes.vartheta_y**2 == pytest.approx(omega_y**2 - shift, rel=1e-9, abs=scale)


def test_angle_vanishes_with_coupling_and_grows_monotonically():
    # fixed omega_x > omega_y: theta(eps -> 0) -> 0, monotone in eps; theta = atan2(s, c)
    modes = [diagonalize(SystemParams(1.0, 0.7, e)) for e in np.linspace(1e-6, 0.69, 40)]
    angles = [math.atan2(m.s, m.c) for m in modes]
    assert angles[0] == pytest.approx(0.0, abs=1e-5)
    assert all(b > a for a, b in zip(angles, angles[1:]))


def test_swapped_decoupled_corner():
    modes = diagonalize(SystemParams(0.7, 1.0, 0.0))
    assert modes.c2 == 0.0  # theta = pi/2
    assert math.isinf(modes.mu)
    assert modes.vartheta_x == pytest.approx(1.0)
    assert modes.vartheta_y == pytest.approx(0.7)


class TestCouplingRecord:
    """``diagonalize`` computes once per ``SystemParams`` object and keeps the result."""

    @pytest.fixture
    def computed(self, monkeypatch):
        """The parameters of each ``diagonalize`` computation made while the test runs."""
        seen, compute = [], model._normal_modes

        def counted(params):
            seen.append(params)
            return compute(params)

        monkeypatch.setattr(model, "_normal_modes", counted)
        return seen

    def test_one_computation_per_object(self, computed):
        params = SystemParams(1.0, 0.8, 0.5)
        first = diagonalize(params)
        assert diagonalize(params) is first
        energy(params, QuantumNumbers(2, 1))
        steering(params, QuantumNumbers(1, 0))
        assert computed == [params]
        # a new object, even an equal one, computes afresh
        assert diagonalize(SystemParams(1.0, 0.8, 0.5)) == first
        assert len(computed) == 2
        changed = dataclasses.replace(params, epsilon=0.25)
        assert diagonalize(changed) != first
        assert computed[-1] is changed and len(computed) == 3

    def test_equality_hash_and_repr_see_the_three_fields(self):
        params, fresh = SystemParams(1.0, 0.8, 0.5), SystemParams(1.0, 0.8, 0.5)
        diagonalize(params)
        assert params == fresh and hash(params) == hash(fresh)
        assert repr(params) == repr(fresh) == "SystemParams(omega_x=1.0, omega_y=0.8, epsilon=0.5)"
        assert astuple(params) == (1.0, 0.8, 0.5)
        assert [f.name for f in dataclasses.fields(params)] == ["omega_x", "omega_y", "epsilon"]

    def test_verify_computes_once_per_coupling(self, computed):
        # the four reference couplings, then the tail loops' 2, 3 and 2
        assert run_verification().passed
        assert len(computed) == 11
        assert len({id(params) for params in computed}) == 11

    def test_preset_sweep_computes_once_per_coupling(self, computed, monkeypatch):
        argv = ["steering-scan", "--preset", "0.8"]
        cached = io.StringIO()
        with contextlib.redirect_stdout(cached):
            assert main(argv) == 0
        assert len(computed) == 160
        assert cached.getvalue().count("\n") == 1 + 1920
        # every row recomputing its modes, as without the record, writes the same bytes
        monkeypatch.setattr(model, "diagonalize", lambda params: model._normal_modes(params))
        fresh = io.StringIO()
        with contextlib.redirect_stdout(fresh):
            assert main(argv) == 0
        assert len(computed) == 160 + 1920
        assert fresh.getvalue() == cached.getvalue()


class TestCutoffAngle:
    def test_resonant_limit_is_quarter_pi(self):
        assert cutoff_angle(1.0) == pytest.approx(math.pi / 4)

    def test_half_rate_value(self):
        assert cutoff_angle(0.5) == pytest.approx(0.5 * math.atan(4.0 / 3.0), abs=1e-15)
        assert cutoff_angle(0.5) == pytest.approx(0.46364760900080615, abs=1e-12)

    def test_sign_convention_kills_rates_above_one(self):
        for r in (1.0001, 1.5, 2.0, 10.0):
            assert cutoff_angle(r) == 0.0

    def test_rejects_non_positive_rates(self):
        for r in (0.0, -1.0):
            with pytest.raises(ValueError):
                cutoff_angle(r)

    def test_matches_strong_coupling_limit_of_rotation_angle(self):
        # theta(eps -> omega_x*omega_y) approaches theta_c from below
        r = 0.5
        params = SystemParams(1.0, r, (1.0 - 1e-12) * r)
        modes = diagonalize(params)
        assert math.atan2(modes.s, modes.c) == pytest.approx(cutoff_angle(r), abs=1e-6)

    def test_increases_toward_quarter_pi_near_resonance(self):
        rates = np.linspace(0.05, 0.999, 60)
        values = [cutoff_angle(float(r)) for r in rates]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] < math.pi / 4
        assert values[-1] == pytest.approx(math.pi / 4, abs=2e-3)


class TestEnergy:
    def test_decoupled_ground_state(self):
        assert energy(SystemParams(1.3, 0.4, 0.0), QuantumNumbers(0, 0)) == pytest.approx(
            (1.3 + 0.4) / 2
        )

    def test_resonant_excited_state(self):
        got = energy(SystemParams(1.0, 1.0, 0.5), QuantumNumbers(1, 0))
        assert got == pytest.approx(1.5 * math.sqrt(1.5) + 0.5 * math.sqrt(0.5), abs=1e-14)

    @given(
        omega_y=st.floats(0.3, 2.0),
        frac=st.floats(0.0, 0.99),
        n=st.integers(0, 5),
        m=st.integers(0, 5),
    )
    @settings(max_examples=100, deadline=None)
    def test_spectrum_is_linear_in_each_quantum_number(self, omega_y, frac, n, m):
        params = SystemParams(1.0, omega_y, frac * omega_y)
        modes = diagonalize(params)
        step = energy(params, QuantumNumbers(n + 1, m)) - energy(params, QuantumNumbers(n, m))
        assert step == pytest.approx(modes.vartheta_x, rel=1e-12)
