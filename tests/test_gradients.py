"""Analytic Jacobians versus central finite differences.

Comparison is column-scaled: each parameter column is normalized by its
largest entry so that entries sitting at the finite-difference roundoff
floor do not dominate the relative error.
"""

import numpy as np
import pytest

from echofit.catalog import (
    CATALOG,
    _draw_inputs,
    finite_difference_jacobian,
    get_model,
    gradient_check,
)

MODEL_IDS = sorted(CATALOG)


def test_catalog_is_complete():
    assert MODEL_IDS == sorted(
        ["mims", "field", "temp", "sech2", "sd", "echo3", "echo3-free-t1"])


def test_unknown_model_rejected():
    with pytest.raises(ValueError):
        get_model("lorentzian")


def test_free_t1_at_fixed_value_matches_echo3_bit_for_bit():
    rng = np.random.default_rng(11)
    echo3, free = get_model("echo3"), get_model("echo3-free-t1")
    for _ in range(20):
        theta, x, fixed = _draw_inputs("echo3", rng)
        theta_free = np.append(theta, fixed["t1_ms"])
        fixed_free = {k: v for k, v in fixed.items() if k != "t1_ms"}
        terms_free, terms = free.prepare(x, fixed_free), echo3.prepare(x, fixed)
        np.testing.assert_array_equal(free.eval_fn(theta_free, terms_free),
                                      echo3.eval_fn(theta, terms))
        np.testing.assert_array_equal(free.jac_fn(theta_free, terms_free)[:, :6],
                                      echo3.jac_fn(theta, terms))


@pytest.mark.parametrize("model_id", MODEL_IDS)
def test_batched_kernels_match_per_row_calls(model_id):
    # a (B, p) theta with (B, n) x rows and (B, 1) fixed columns must give
    # each row exactly what the (p,) call with that row's values gives
    spec = get_model(model_id)
    rng = np.random.default_rng(21)
    draws = [_draw_inputs(model_id, rng) for _ in range(6)]
    if model_id.startswith("echo3"):
        # one row on the removable T_Z = T_1 singularity, the rest off it
        theta, x, fixed = draws[0]
        t1_ms = fixed["tz_s"] * 1e3
        if model_id == "echo3":
            fixed = dict(fixed, t1_ms=t1_ms)
        else:
            theta = np.append(theta[:-1], t1_ms)
        draws[0] = (theta, x, fixed)
    theta = np.stack([d[0] for d in draws])
    x = np.stack([d[1] for d in draws])
    fixed = {k: np.array([[d[2][k]] for d in draws]) for k in draws[0][2]}
    terms = spec.prepare(x, fixed)
    for fn in (spec.eval_fn, spec.jac_fn):
        batch = fn(theta, terms)
        for k, (theta_k, x_k, fixed_k) in enumerate(draws):
            np.testing.assert_array_equal(batch[k], fn(theta_k, spec.prepare(x_k, fixed_k)))


@pytest.mark.parametrize("model_id", MODEL_IDS)
def test_jacobian_matches_fd(model_id):
    worst = gradient_check(model_id, n_draws=100, seed=0)
    assert worst < 1e-5, f"{model_id}: worst column-scaled error {worst:.3e}"


@pytest.mark.parametrize("seed", [7, 123, 999])
def test_jacobian_seed_stability(seed):
    # the bound must hold for arbitrary seeds, not one lucky draw set
    for model_id in MODEL_IDS:
        assert gradient_check(model_id, n_draws=25, seed=seed) < 1e-5


def test_gradient_check_all_models_helper():
    worst = max(gradient_check(m, n_draws=10, seed=1) for m in MODEL_IDS)
    assert worst < 1e-5


def test_fd_jacobian_shape_and_step():
    spec = get_model("mims")
    x = np.linspace(0.25, 30.0, 11)
    theta = np.array([1.0, 40.0, 1.3])
    jf = finite_difference_jacobian(spec, theta, x, {})
    assert jf.shape == (11, 3)
    ja = spec.jac_fn(theta, spec.prepare(x, {}))
    assert ja.shape == jf.shape
    scale = np.maximum(np.abs(ja).max(axis=0), 1e-12)
    assert np.max(np.abs(ja - jf) / scale[None, :]) < 1e-7


def test_jacobian_detects_deliberate_corruption():
    # guards the test itself: a wrong analytic column must be flagged
    spec = get_model("mims")
    x = np.linspace(0.25, 30.0, 11)
    theta = np.array([1.0, 40.0, 1.3])
    jf = finite_difference_jacobian(spec, theta, x, {})
    ja = spec.jac_fn(theta, spec.prepare(x, {})).copy()
    ja[:, 1] *= 1.001
    scale = np.maximum(np.abs(ja).max(axis=0), 1e-12)
    assert np.max(np.abs(ja - jf) / scale[None, :]) > 1e-4


@pytest.mark.parametrize("model_id", MODEL_IDS)
def test_jacobian_columns_never_all_zero(model_id):
    # every free parameter must influence the model on the check grids,
    # otherwise the finite-difference comparison would be vacuous
    spec = get_model(model_id)
    rng = np.random.default_rng(11)
    from echofit.catalog import _draw_inputs

    theta, x, fixed = _draw_inputs(model_id, rng)
    ja = spec.jac_fn(theta, spec.prepare(x, fixed))
    assert np.all(np.abs(ja).max(axis=0) > 0.0)
