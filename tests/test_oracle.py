import dataclasses
import math
import re

import numpy as np
import pytest

from oscpair import (
    NormalModes,
    QuantumNumbers,
    SystemParams,
    diagonalize,
    gauss_hermite,
    global_purity_check,
    makarov_schmidt,
    moment_oracle,
    purity_ground_closed,
    run_verification,
    schmidt_oracle,
    wigner_rotated,
)
from oscpair import oracle, purity, wigner
from oscpair.wigner import laguerre

PARAMS = SystemParams(1.0, 0.8, 0.5)

MOMENT_EXPONENTS = {
    "xx": (2, 0, 0, 0), "yy": (0, 0, 2, 0), "pp": (0, 2, 0, 0), "qq": (0, 0, 0, 2),
    "xy": (1, 0, 1, 0), "pq": (0, 1, 0, 1),
    "xxyy": (2, 0, 2, 0), "ppqq": (0, 2, 0, 2), "xxqq": (2, 0, 0, 2), "yypp": (0, 2, 2, 0),
    "xq": (1, 0, 0, 1), "py": (0, 1, 1, 0),
}


def einsum_moment(params, nm, exponents):
    """Reference ``<x^a p^b y^c q^d>``: one rule per monomial, four-index einsum."""
    a, b, c_exp, d = exponents
    modes = diagonalize(params)
    vx, vy = modes.vartheta_x, modes.vartheta_y
    s, c = modes.s, modes.c
    t, w = np.polynomial.hermite.hermgauss((sum(exponents) + 2 * max(nm.n, nm.m)) // 2 + 2)
    big_x, big_p = t / math.sqrt(vx), t * math.sqrt(vx)
    big_y, big_q = t / math.sqrt(vy), t * math.sqrt(vy)
    x_ik = c * big_x[:, None] - s * big_y[None, :]
    y_ik = s * big_x[:, None] + c * big_y[None, :]
    p_jl = c * big_p[:, None] - s * big_q[None, :]
    q_jl = s * big_p[:, None] + c * big_q[None, :]
    t2 = t * t
    a_ij = w[:, None] * w[None, :] * laguerre(nm.n, 2.0 * (t2[:, None] + t2[None, :]))
    b_kl = w[:, None] * w[None, :] * laguerre(nm.m, 2.0 * (t2[:, None] + t2[None, :]))
    total = np.einsum("ij,kl,ik,jl->", a_ij, b_kl, x_ik**a * y_ik**c_exp, p_jl**b * q_jl**d,
                      optimize=True)
    return (-1.0) ** (nm.n + nm.m) / math.pi**2 * float(total)


def rotated_global_purity(params, nm):
    """Reference ``4 pi^2 int W^2``: ``wigner_rotated`` on a 4-D grid of one rule."""
    modes = diagonalize(params)
    vx, vy = modes.vartheta_x, modes.vartheta_y
    rule = gauss_hermite(2 * max(nm.n, nm.m) + 4)
    v, rw = rule.nodes, rule.flat_weights
    pt = wigner.RotatedPhasePoint(
        X=(v / math.sqrt(2.0 * vx))[:, None, None, None],
        P=(v * math.sqrt(0.5 * vx))[None, :, None, None],
        Y=(v / math.sqrt(2.0 * vy))[None, None, :, None],
        Q=(v * math.sqrt(0.5 * vy))[None, None, None, :],
    )
    w_vals = wigner_rotated(modes, nm, pt)
    # each product contracts the last remaining axis: l, k, j, then i
    return math.pi**2 * float((w_vals * w_vals) @ rw @ rw @ rw @ rw)


class TestQuadratureRule:
    def test_weights_positive_and_normalized(self):
        rule = gauss_hermite(24)
        assert np.all(rule.weights > 0.0)
        assert rule.weights.sum() == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_integrates_even_monomials_exactly(self):
        rule = gauss_hermite(8)
        # int x^2k e^{-x^2} = Gamma(k + 1/2)
        for k in range(8):  # degree 14 < 2*8 - 1
            want = math.gamma(k + 0.5)
            got = float(np.sum(rule.weights * rule.nodes ** (2 * k)))
            assert got == pytest.approx(want, rel=1e-13)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            gauss_hermite(0)


class TestMomentOracle:
    def test_normalization(self):
        assert moment_oracle(PARAMS, QuantumNumbers(2, 1), (0, 0, 0, 0)) == pytest.approx(
            1.0, abs=1e-13
        )

    def test_first_moments_vanish(self):
        for exps in [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]:
            assert moment_oracle(PARAMS, QuantumNumbers(1, 2), exps) == pytest.approx(
                0.0, abs=1e-13
            )

    def test_total_degree_cap(self):
        with pytest.raises(ValueError):
            moment_oracle(PARAMS, QuantumNumbers(0, 0), (4, 4, 4, 4))
        with pytest.raises(ValueError):
            moment_oracle(PARAMS, QuantumNumbers(0, 0), (-1, 0, 0, 0))

    def test_exactness_plateau(self, monkeypatch):
        # once the rule covers the polynomial degree, more nodes change nothing
        q = QuantumNumbers(3, 2)
        base = moment_oracle(PARAMS, q, (2, 0, 2, 0))  # on (4 + 2*3)//2 + 2 = 7 nodes
        rule, used = oracle.gauss_hermite, []
        for extra in (13, 21):
            def grown(order, extra=extra):
                used.append(order + extra)
                return rule(order + extra)

            monkeypatch.setattr(oracle, "gauss_hermite", grown)
            refined = moment_oracle(PARAMS, q, (2, 0, 2, 0))
            assert abs(refined - base) < 1e-13
        assert used == [20, 28]

    @pytest.mark.parametrize("nm", [(0, 0), (2, 1), (3, 3), (6, 6)])
    @pytest.mark.parametrize("eps", [0.0, 0.5, 0.79])
    def test_matches_einsum_reference(self, nm, eps):
        params, q = SystemParams(1.0, 0.8, eps), QuantumNumbers(*nm)
        got = oracle.moment_set_oracle(params, q)
        assert list(got) == list(MOMENT_EXPONENTS)
        for name, exps in MOMENT_EXPONENTS.items():
            want = einsum_moment(params, q, exps)
            for value in (got[name], moment_oracle(params, q, exps)):
                assert value == pytest.approx(want, rel=1e-12, abs=1e-12), (name, value, want)


class TestGlobalPurity:
    @pytest.mark.parametrize("nm", [(0, 0), (2, 1), (3, 3)])
    @pytest.mark.parametrize("eps", [0.0, 0.5, 0.7])
    def test_wigner_function_is_pure_state_normalized(self, nm, eps):
        params = SystemParams(1.0, 1.0, eps)
        assert global_purity_check(params, QuantumNumbers(*nm)) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("frac", [0.0, 0.5, 0.99, 0.9999])
    @pytest.mark.parametrize("wy", [0.8, 1.0])
    def test_matches_the_rotated_4d_integral(self, wy, frac):
        # the check integrates one mode at a time; the reference integrates W^2 on the 4-D grid
        params = SystemParams(1.0, wy, frac * wy)
        states = [QuantumNumbers(n, m) for n in range(7) for m in range(7)]
        batch = oracle._global_purities(states)
        for q, together in zip(states, batch):
            want = rotated_global_purity(params, q)
            assert abs(global_purity_check(params, q) - want) <= 1e-14, q
            assert abs(together - want) <= 1e-14, q

    def test_integrates_once_per_quantum_number(self, monkeypatch):
        # the integrand does not depend on the coupling: verify's six states take one 2-D
        # integral on the 8-node rule for each quantum number in {0, 1, 2}
        calls, true_fn = [], wigner.wigner_mode

        def recording(n, vartheta, X, P):
            out = true_fn(n, vartheta, X, P)
            calls.append((n, out.shape))
            return out

        monkeypatch.setattr(wigner, "wigner_mode", recording)
        states = [QuantumNumbers(n, m) for n, m in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (2, 2))]
        oracle._global_purities(states)
        assert sorted(calls) == [(0, (8, 8)), (1, (8, 8)), (2, (8, 8))]

    def test_negative_control_scaled_wigner(self, monkeypatch):
        # each mode's factor doubles, so W^2 reads 16 times its value
        true_fn = wigner.wigner_mode

        def doubled(n, vartheta, X, P):
            return 2.0 * true_fn(n, vartheta, X, P)

        monkeypatch.setattr(wigner, "wigner_mode", doubled)
        got = global_purity_check(PARAMS, QuantumNumbers(0, 0))
        assert got == pytest.approx(16.0, abs=1e-8)

    def test_negative_control_scaled_wigner_mode(self, monkeypatch):
        # the moment oracle integrates wigner_mode itself, so a scaled factor fails the table
        true_fn = wigner.wigner_mode

        def doubled(n, vartheta, X, P):
            return 2.0 * true_fn(n, vartheta, X, P)

        monkeypatch.setattr(wigner, "wigner_mode", doubled)
        failed = {c.name for c in run_verification().checks if not c.passed}
        assert "moment-table" in failed

    def test_negative_control_scaled_wigner_lab(self, monkeypatch):
        # the Wigner-route purity integrates wigner_lab squared: a doubled W reads 4x
        true_fn = wigner.wigner_lab

        def doubled(modes, nm, pt):
            return 2.0 * true_fn(modes, nm, pt)

        monkeypatch.setattr(wigner, "wigner_lab", doubled)
        q = QuantumNumbers(2, 1)
        got = oracle.marginal_purity_quadrature(PARAMS, q)
        assert got == pytest.approx(4.0 * purity.purity_exact(PARAMS, q).purity, rel=1e-12)


class TestSchmidtOracle:
    def test_decoupled_state_is_rank_one(self):
        for params in (SystemParams(1.0, 0.7, 0.0), SystemParams(0.8, 1.0, 0.0)):
            for n in range(4):
                for m in range(4):
                    res = schmidt_oracle(params, QuantumNumbers(n, m))
                    assert res.purity == 1.0
                    assert res.singular_values[0] == pytest.approx(1.0, abs=1e-15)
                    assert res.singular_values[1] < 1e-15
                    assert res.von_neumann == 0.0

    def test_resonant_usc_ground_state(self):
        params = SystemParams(1.0, 1.0, 0.9)
        res = schmidt_oracle(params, QuantumNumbers(0, 0))
        assert res.purity == pytest.approx(purity_ground_closed(params).purity, abs=1e-12)
        # nonzero von Neumann entropy: the coupled ground state is entangled
        assert res.von_neumann > 0.3

    def test_purity_invariant_under_axis_swap(self):
        a = schmidt_oracle(SystemParams(1.0, 0.8, 0.5), QuantumNumbers(2, 1)).purity
        b = schmidt_oracle(SystemParams(0.8, 1.0, 0.5), QuantumNumbers(1, 2)).purity
        assert a == pytest.approx(b, abs=1e-12)

    def test_norm_deficit_within_gate(self):
        for params in (SystemParams(1.0, 0.8, 0.3), SystemParams(1.0, 0.8, 0.79),
                       SystemParams(1.0, 1.0, 0.9)):
            for nm in [(0, 0), (1, 0), (3, 3), (8, 8)]:
                res = schmidt_oracle(params, QuantumNumbers(*nm))
                assert res.norm_deficit <= 1e-14
                assert math.fsum(res.singular_values**2) == pytest.approx(1.0, abs=1e-15)

    def test_unresolved_state_is_reported_not_accepted(self):
        # 0.99999 of the stability bound: the squeezed tail outgrows the largest grid
        params = SystemParams(1.0, 0.8, 0.99999 * 0.8)
        with pytest.raises(RuntimeError, match=r"\(6, 6\) unresolved at order 320: deficit"):
            schmidt_oracle(params, QuantumNumbers(6, 6))

    @pytest.mark.parametrize("k", [12, 16])
    def test_large_states_match_purity_exact(self, k):
        # the grid samples each state directly, so no error grows with n + m
        params, q = SystemParams(1.0, 0.8, 0.7), QuantumNumbers(k, k)
        gap = abs(schmidt_oracle(params, q).purity - purity.purity_exact(params, q).purity)
        assert gap <= 5e-15

    @pytest.mark.parametrize("frac, k, tol", [(0.995, 8, 1e-15), (0.9999, 6, 1e-13),
                                              (0.9999, 8, 1e-13)])
    def test_near_the_bound(self, frac, k, tol):
        # the squeezed tail needs 96 to 320 nodes per axis here
        params, q = SystemParams(1.0, 0.8, frac * 0.8), QuantumNumbers(k, k)
        res = schmidt_oracle(params, q)
        assert res.norm_deficit < 1e-14
        assert abs(res.purity - purity.purity_exact(params, q).purity) <= tol

    @pytest.mark.parametrize("eps_frac", [0.3, 0.9])
    def test_batch_matches_single_states(self, eps_frac):
        params = SystemParams(1.0, 0.8, eps_frac * 0.8)
        states = [QuantumNumbers(n, m) for n, m in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (2, 2))]
        for q, got in zip(states, oracle._schmidt(params, states)):
            single = schmidt_oracle(params, q)
            assert abs(got.purity - single.purity) <= 1e-14, q
            assert got.norm_deficit < 1e-14
        for q, got in zip(states, oracle._moment_sets([params], states)[0]):
            single = oracle.moment_set_oracle(params, q)
            assert list(got) == list(single)
            for name, value in single.items():
                assert abs(got[name] - value) <= 1e-13, (q, name)

    def test_unresolved_state_in_a_batch_is_named(self):
        params = SystemParams(1.0, 0.8, 0.99999 * 0.8)
        states = [QuantumNumbers(0, 0), QuantumNumbers(6, 6), QuantumNumbers(1, 0)]
        with pytest.raises(RuntimeError, match=r"^\(6, 6\) unresolved at order 320: deficit"):
            oracle._schmidt(params, states)

    @pytest.mark.parametrize("wy", [0.1, 0.8, 1.0])
    def test_gram_purity_matches_the_svd(self, wy):
        # ||A A^T||_F^2 / ||A||_F^4 is sum sigma^4 / (sum sigma^2)^2 of the same samples
        for frac in (0.0, 0.5, 0.99, 0.9999):
            params = SystemParams(1.0, wy, frac * wy)
            for n in range(9):
                states = [QuantumNumbers(n, m) for m in range(9)]
                gram = oracle._gram_purities(params, states)
                svd = [res.purity for res in oracle._schmidt(params, states)]
                for q, a, b in zip(states, gram, svd):
                    assert abs(a - b) <= 2e-15, (frac, q, a - b)

    @pytest.mark.parametrize("mu", [1e-3, 0.028, 0.3, 1.0, 2.0, 50.0])
    def test_equal_normal_frequencies_give_makarov_weights(self, mu):
        # equal normal frequencies leave only the beam splitter: Makarov's approximation
        modes = NormalModes(mu=mu, vartheta_x=1.0, vartheta_y=1.0,
                            c2=1.0 / (1.0 + mu * mu), s2=mu * mu / (1.0 + mu * mu),
                            sc=mu / (1.0 + mu * mu), gap_x=0.0, gap_y=0.0)
        for n in range(7):
            for m in range(7):
                (amp,), _ = oracle._lab_samples(modes, [QuantumNumbers(n, m)])
                got = np.sort(np.linalg.svd(amp, compute_uv=False) ** 2)
                want = np.zeros_like(got)
                want[-(n + m + 1):] = np.sort(makarov_schmidt(QuantumNumbers(n, m), mu).lambdas)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestCouplingBatch:
    """The quadrature oracles over a table of couplings agree with one call per coupling."""

    # verify's four couplings, the decoupled (1, 0.8, 0) and a subnormal coupling
    COUPLINGS = [SystemParams(1.0, wy, frac * wy) for wy in (0.8, 1.0) for frac in (0.3, 0.9)]
    COUPLINGS += [SystemParams(1.0, 0.8, 0.0), SystemParams(2.0, 1.0, 4.722627690175157e-162)]
    STATES = [QuantumNumbers(n, m) for n, m in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (2, 2))]

    def test_moment_sets(self):
        table = oracle._moment_sets(self.COUPLINGS, self.STATES)
        assert len(table) == len(self.COUPLINGS)
        for params, row in zip(self.COUPLINGS, table):
            for q, got, want in zip(self.STATES, row, oracle._moment_sets([params], self.STATES)[0]):
                assert list(got) == list(want)
                # <xq> and <py> vanish; Cauchy-Schwarz bounds them by sqrt(<x^2><q^2>) and
                # sqrt(<p^2><y^2>), which stand in for their size
                sizes = {name: abs(value) for name, value in want.items()}
                sizes["xq"] = math.sqrt(want["xx"] * want["qq"])
                sizes["py"] = math.sqrt(want["pp"] * want["yy"])
                for name, value in want.items():
                    assert abs(got[name] - value) <= 1e-14 * sizes[name], (params, q, name)


class TestVerification:
    CHECKS = [
        ("ground-purity-closed-form", 1e-10, "coefficient extraction vs ground-state closed form"),
        ("marginal-purity-svd", 1e-12, "coefficient extraction vs Schmidt-oracle purity"),
        ("global-purity", 1e-8, "4*pi^2 * integral of W^2 == 1"),
        ("moment-table", 1e-10, "closed-form moments vs quadrature; <xq>=<py>=0"),
        ("resonance-steering-null", 0.0, "steering vanishes at resonance, post clamp"),
        ("weak-coupling-steering", 1e-6, "full quantifier vs weak-coupling closed form"),
        ("schmidt-normalization", 1e-10, "approximate Schmidt weights sum to 1"),
        ("uncertainty-areas", 1e-12, "Heisenberg bound and resonance equality"),
        ("excitation-oracle", 1e-10, "ladder correlators vs quadrature moments"),
    ]

    def test_check_table_is_pinned(self):
        report = run_verification()
        assert [(c.name, c.tolerance, c.detail) for c in report.checks] == self.CHECKS

    def test_each_reference_point_is_computed_once(self, monkeypatch):
        # the exact purity and the moment oracle run once over the 4 x 6 table, the global
        # purity once over the six states; the Schmidt oracle's lab grid is sampled once per
        # coupling (its first argument is the coupling's NormalModes), over its six states;
        # Makarov's weights come from block products, with no one-state call
        calls = {"moments": [], "global": [], "purity": [], "samples": [], "makarov": [],
                 "schmidt": []}

        def counted(key, fn):
            def wrapped(*args):
                calls[key].append(args)
                return fn(*args)
            return wrapped

        monkeypatch.setattr(oracle, "_moment_sets", counted("moments", oracle._moment_sets))
        monkeypatch.setattr(oracle, "_global_purities",
                            counted("global", oracle._global_purities))
        monkeypatch.setattr(purity, "_purities", counted("purity", purity._purities))
        monkeypatch.setattr(oracle, "_lab_samples", counted("samples", oracle._lab_samples))
        monkeypatch.setattr(purity, "_makarov_weights",
                            counted("makarov", purity._makarov_weights))
        monkeypatch.setattr(purity, "makarov_schmidt", counted("schmidt", purity.makarov_schmidt))
        assert run_verification().passed
        # Makarov's weights: one product per n + m = 0 .. 6, over all four mixings
        assert [size for size, _, _ in calls["makarov"]] == list(range(1, 8))
        assert all(len(mus) == 4 for _, mus, _ in calls["makarov"])
        assert calls["schmidt"] == []
        for key in ("moments", "purity"):
            (couplings, states), = calls[key]
            assert len({(params, q) for params in couplings for q in states}) == 24, key
        (states,), = calls["global"]
        assert states == calls["purity"][0][1]
        samples = calls["samples"]
        assert len(samples) == 4 and len({modes for modes, _ in samples}) == 4
        assert all(states == calls["purity"][0][1] for _, states in samples)
        assert len(samples[0][1]) == 6

    def test_runs_no_svd(self, monkeypatch):
        # the Schmidt check reads Tr rho^2 from each state's Gram matrix
        calls, svd = [], np.linalg.svd

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        report = run_verification()
        assert report.passed
        assert calls == []
        schmidt = next(c for c in report.checks if c.name == "marginal-purity-svd")
        assert schmidt.max_deviation <= 2e-15

    def test_builds_one_rule_per_size(self, monkeypatch):
        # from a cold cache: the Schmidt grid (24), the moment rule (6) and the global rule (8)
        built, hermgauss = [], np.polynomial.hermite.hermgauss

        def recording(order):
            built.append(order)
            return hermgauss(order)

        monkeypatch.setattr(np.polynomial.hermite, "hermgauss", recording)
        oracle.gauss_hermite.cache_clear()
        assert run_verification().passed
        assert sorted(built) == [6, 8, 24]

    def test_reference_grid_passes(self):
        report = run_verification()
        assert report.passed
        names = {c.name for c in report.checks}
        assert "moment-table" in names
        assert "resonance-steering-null" in names

    def test_injected_moment_typo_is_caught_by_name(self, monkeypatch):
        from oscpair import moments as moments_module

        true_fn = moments_module.second_and_fourth_moments

        def corrupted(params, nm):
            ms = true_fn(params, nm)
            return type(ms)(xx=ms.xx * (1.0 + 1e-6), yy=ms.yy, pp=ms.pp, qq=ms.qq,
                            xy=ms.xy, pq=ms.pq, xxyy=ms.xxyy, ppqq=ms.ppqq,
                            xxqq=ms.xxqq, yypp=ms.yypp)

        monkeypatch.setattr(moments_module, "second_and_fourth_moments", corrupted)
        report = run_verification()
        assert not report.passed
        failed = {c.name for c in report.checks if not c.passed}
        assert "moment-table" in failed

    def test_worst_point_is_named(self):
        point = r"omega_x=\S+ omega_y=\S+ epsilon=\S+ n=\d+ m=\d+"
        for check in run_verification().checks:
            pattern = {"schmidt-normalization": r"n=\d+ m=\d+ mu=\S+",
                       "global-purity": r"n=\d+ m=\d+"}.get(check.name, point)
            assert re.fullmatch(pattern, check.worst), (check.name, check.worst)

    def test_injected_fault_is_reported_at_its_point(self, monkeypatch):
        from oscpair import moments as moments_module

        true_fn = moments_module.second_and_fourth_moments
        bad = (SystemParams(1.0, 0.8, 0.9 * 0.8), QuantumNumbers(2, 1))

        def corrupted(params, nm):
            ms = true_fn(params, nm)
            return dataclasses.replace(ms, xx=ms.xx * (1.0 + 1e-6)) if (params, nm) == bad else ms

        monkeypatch.setattr(moments_module, "second_and_fourth_moments", corrupted)
        check = {c.name: c for c in run_verification().checks}["moment-table"]
        assert not check.passed
        assert check.worst == f"omega_x=1.0 omega_y=0.8 epsilon={0.9 * 0.8} n=2 m=1"

    def test_nan_deviation_fails_its_check(self, monkeypatch):
        true_fn = oracle._global_purities
        bad = QuantumNumbers(1, 1)

        def broken(states):
            return [math.nan if q == bad else norm for q, norm in zip(states, true_fn(states))]

        monkeypatch.setattr(oracle, "_global_purities", broken)
        check = {c.name: c for c in run_verification().checks}["global-purity"]
        assert not check.passed
        assert math.isnan(check.max_deviation)
        assert check.worst == "n=1 m=1"

    def test_unresolved_schmidt_oracle_fails_its_check_by_name(self, monkeypatch, capsys):
        # eigenfunctions 0.1 % too large: no rule brings a norm deficit below 1e-14, so the
        # Schmidt oracle raises at every coupling; verify still writes its whole report
        from oscpair.cli import main

        true_fn = wigner.eigenfunctions
        monkeypatch.setattr(wigner, "eigenfunctions", lambda *args: 1.001 * true_fn(*args))
        with pytest.raises(RuntimeError, match=r"\(0, 0\) unresolved at order 320"):
            oracle._gram_purities(PARAMS, [QuantumNumbers(0, 0)])
        checks = {c.name: c for c in run_verification().checks}
        assert [name for name, c in checks.items() if not c.passed] == ["marginal-purity-svd"]
        check = checks["marginal-purity-svd"]
        assert math.isnan(check.max_deviation)
        assert check.worst == f"omega_x=1.0 omega_y=0.8 epsilon={0.3 * 0.8} n=0 m=0"
        assert main(["verify"]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines[:-1]] == [
            f"{'FAIL' if name == 'marginal-purity-svd' else 'PASS'} {name}"
            for name, *_ in self.CHECKS]
        assert lines[-1].startswith("VERIFICATION FAILED in ")
