from dataclasses import replace

import numpy as np
import pytest

from asrti.integrators import (
    IntegrationError,
    OdeModel,
    radau3_step,
    radau3_step_batch,
    simulate_plant,
)
from asrti.benchmark import pendulum_model


def constant_zero_model():
    return OdeModel(
        n_x=2,
        n_u=1,
        rhs=lambda x, u: np.zeros_like(x),
        jac_x=lambda x, u: np.zeros(x.shape[:-1] + (2, 2)),
        jac_u=lambda x, u: np.zeros(x.shape[:-1] + (2, 1)),
    )


def linear_model(lam):
    return OdeModel(
        n_x=1,
        n_u=1,
        rhs=lambda x, u: lam * x,
        jac_x=lambda x, u: np.full(x.shape[:-1] + (1, 1), lam),
        jac_u=lambda x, u: np.zeros(x.shape[:-1] + (1, 1)),
    )


def cubic_decay_model():
    # xdot = -x^3 + u, closed form for u = 0: x(t) = x0 / sqrt(1 + 2 x0^2 t)
    return OdeModel(
        n_x=1,
        n_u=1,
        rhs=lambda x, u: -x**3 + u,
        jac_x=lambda x, u: (-3.0 * x**2)[..., None, None]
        if x.ndim > 1
        else np.array([[-3.0 * x[0] ** 2]]),
        jac_u=lambda x, u: np.ones(x.shape[:-1] + (1, 1)),
    )


def stability_function(z):
    # exact amplification of the 2-stage Radau IIA scheme on xdot = lam x
    return (1.0 + z / 3.0) / (1.0 - 2.0 * z / 3.0 + z**2 / 6.0)


class TestRadauStep:
    def test_zero_rhs_is_identity_with_unit_sensitivity(self):
        model = constant_zero_model()
        res = radau3_step(model, np.array([1.5, -2.0]), np.array([3.0]), 0.1)
        assert np.allclose(res.x_next, [1.5, -2.0])
        assert np.allclose(res.S_x, np.eye(2))
        assert np.allclose(res.S_u, 0.0)

    @pytest.mark.parametrize("lam,h", [(-2.0, 0.1), (-0.5, 0.4), (1.3, 0.05), (-10.0, 0.2)])
    def test_linear_ode_matches_stability_function(self, lam, h):
        model = linear_model(lam)
        x0 = 0.7
        res = radau3_step(model, np.array([x0]), np.zeros(1), h)
        assert res.x_next[0] == pytest.approx(stability_function(lam * h) * x0, rel=1e-10)
        assert res.S_x[0, 0] == pytest.approx(stability_function(lam * h), rel=1e-10)

    def test_a_stability_on_very_stiff_decay(self):
        model = linear_model(-1e6)
        res = radau3_step(model, np.array([1.0]), np.zeros(1), 0.05)
        assert abs(res.x_next[0]) < 1.0

    def test_third_order_convergence_on_cubic_decay(self):
        model = cubic_decay_model()
        x0, T = np.array([1.0]), 1.0
        exact = x0[0] / np.sqrt(1.0 + 2.0 * x0[0] ** 2 * T)
        hs = np.array([1e-2, 10 ** -2.5, 1e-3, 10 ** -3.5, 1e-4])
        errs = []
        for h in hs:
            n = int(round(T / h))
            x = x0.copy()
            for _ in range(n):
                x = radau3_step(model, x, np.zeros(1), T / n, sensitivities=False).x_next
            errs.append(abs(x[0] - exact))
        errs = np.array(errs)
        keep = errs > 1e-12  # below this the Newton tolerance floor pollutes
        assert keep.sum() >= 3
        slope = np.polyfit(np.log(hs[keep]), np.log(errs[keep]), 1)[0]
        assert slope == pytest.approx(3.0, abs=0.3)

    def test_halving_step_reduces_error_eightfold(self):
        model = cubic_decay_model()
        exact = 1.0 / np.sqrt(3.0)
        errs = []
        for n in (50, 100):
            x = np.array([1.0])
            for _ in range(n):
                x = radau3_step(model, x, np.zeros(1), 1.0 / n, sensitivities=False).x_next
            errs.append(abs(x[0] - exact))
        assert errs[0] / errs[1] == pytest.approx(8.0, rel=0.25)

    def test_sensitivities_match_finite_differences_on_pendulum(self):
        model = pendulum_model()
        rng = np.random.default_rng(7)
        h = 0.05
        for _ in range(10):
            x = rng.uniform(-1.0, 1.0, size=4)
            u = rng.uniform(-20.0, 20.0, size=1)
            res = radau3_step(model, x, u, h)
            eps = 1e-6
            for j in range(4):
                dx = np.zeros(4)
                dx[j] = eps
                plus = radau3_step(model, x + dx, u, h).x_next
                minus = radau3_step(model, x - dx, u, h).x_next
                fd = (plus - minus) / (2 * eps)
                assert np.allclose(res.S_x[:, j], fd, rtol=1e-5, atol=1e-8)
            plus = radau3_step(model, x, u + eps, h).x_next
            minus = radau3_step(model, x, u - eps, h).x_next
            fd = (plus - minus) / (2 * eps)
            assert np.allclose(res.S_u[:, 0], fd, rtol=1e-5, atol=1e-8)

    @pytest.mark.parametrize("batch", [None, 6], ids=["radau3_step", "radau3_step_batch"])
    def test_skipping_sensitivities_leaves_step_bit_identical(self, batch):
        base = pendulum_model()
        calls = {"jac_x": 0, "jac_u": 0}

        def counted(name):
            fn = getattr(base, name)

            def wrapped(x, u):
                calls[name] += 1
                return fn(x, u)

            return wrapped

        model = replace(base, jac_x=counted("jac_x"), jac_u=counted("jac_u"))

        def step(x, u, h, sensitivities):
            if batch is None:
                res = radau3_step(model, x, u, h, sensitivities)
                return res.x_next, res.S_x, res.S_u, res.newton_iters
            return radau3_step_batch(model, x, u, h, sensitivities)

        rng = np.random.default_rng(11)
        shape = () if batch is None else (batch,)
        for _ in range(20):
            x = rng.uniform(-1.0, 1.0, size=shape + (4,))
            u = rng.uniform(-30.0, 30.0, size=shape + (1,))
            h = rng.uniform(0.01, 0.25, size=shape)
            full = step(x, u, h, True)
            calls.update(jac_x=0, jac_u=0)
            bare = step(x, u, h, False)
            assert bare[1] is None and bare[2] is None
            assert np.array_equal(bare[0], full[0])
            assert bare[3] == full[3]
            assert calls == {"jac_x": 2 * (bare[3] - 1), "jac_u": 0}

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            radau3_step(constant_zero_model(), np.zeros(2), np.zeros(1), 0.0)

    def test_newton_failure_raises(self):
        # Jacobian callback lies about the derivative, Newton cannot converge
        model = OdeModel(
            n_x=1,
            n_u=1,
            rhs=lambda x, u: np.exp(4 * x) - 3 * x,
            jac_x=lambda x, u: np.zeros((1, 1)),
            jac_u=lambda x, u: np.zeros((1, 1)),
        )
        with pytest.raises(IntegrationError):
            radau3_step(model, np.array([2.0]), np.zeros(1), 5.0)


class TestBatchedStep:
    def test_batch_agrees_with_scalar_loop(self):
        model = pendulum_model()
        rng = np.random.default_rng(3)
        xs = rng.uniform(-0.8, 0.8, size=(12, 4))
        us = rng.uniform(-30, 30, size=(12, 1))
        hs = rng.uniform(0.02, 0.2, size=12)
        xn, Sx, Su, _ = radau3_step_batch(model, xs, us, hs)
        for i in range(12):
            ref = radau3_step(model, xs[i], us[i], hs[i])
            assert np.allclose(xn[i], ref.x_next, rtol=1e-12, atol=1e-12)
            assert np.allclose(Sx[i], ref.S_x, rtol=1e-9, atol=1e-11)
            assert np.allclose(Su[i], ref.S_u, rtol=1e-9, atol=1e-11)


class TestSimulatePlant:
    def test_single_substep_equals_one_radau_step(self):
        model = pendulum_model()
        x = np.array([0.1, 0.2, -0.1, 0.4])
        u = np.array([5.0])
        ref = radau3_step(model, x, u, 0.05, sensitivities=False).x_next
        assert np.allclose(simulate_plant(model, x, u, 0.05, substeps=1), ref)

    def test_zero_rhs_invariant_under_substeps(self):
        model = constant_zero_model()
        x = np.array([0.3, -0.4])
        for substeps in (1, 3, 10):
            assert np.allclose(simulate_plant(model, x, np.zeros(1), 0.5, substeps), x)

    def test_substep_refinement_converges(self):
        model = pendulum_model()
        x = np.array([0.2, 0.3, 0.0, -0.5])
        u = np.array([10.0])
        coarse = simulate_plant(model, x, u, 0.05, substeps=10)
        fine = simulate_plant(model, x, u, 0.05, substeps=100)
        assert np.max(np.abs(coarse - fine)) < 1e-7

    def test_rejects_zero_substeps(self):
        with pytest.raises(ValueError):
            simulate_plant(constant_zero_model(), np.zeros(2), np.zeros(1), 0.1, substeps=0)
