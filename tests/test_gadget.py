import math

import numpy as np
import pytest

from nlboson import (
    DimensionError,
    GadgetSpec,
    GadgetSynthesisError,
    apply_gadget,
    gadget_from_json,
    gadget_residuals,
    gadget_to_json,
    haar_unitary,
    heralded_factors,
    load_gadget,
    optimize_gadget,
    permanent,
    permanent_naive,
    reference_gadget,
    save_gadget,
    success_bound,
    success_probability,
    unitarity_deviation,
    verify_gadget,
)
from nlboson.gadget import (
    _expanded_permanents,
    _matrix_from_raw,
    _objective_of_matrix,
    _penalized_objective,
    _random_raw,
    _residual_vector,
)

from .oracles import expanded_gadget_matrix, permanent_exact


# ---------------------------------------------------------------------------
# expansion (the oracle behind the permanent routes below)
# ---------------------------------------------------------------------------

def test_expansion_once_is_the_matrix_itself():
    u = np.arange(9, dtype=complex).reshape(3, 3)
    assert np.array_equal(expanded_gadget_matrix(u, 1), u)


def test_expansion_zero_removes_first_row_and_column():
    u = np.arange(9, dtype=complex).reshape(3, 3)
    assert np.array_equal(expanded_gadget_matrix(u, 0), u[1:, 1:])


def test_expansion_repeats_first_row_and_column():
    u = np.arange(9, dtype=complex).reshape(3, 3)
    expanded = expanded_gadget_matrix(u, 2)
    idx = [0, 0, 1, 2]
    assert expanded.shape == (4, 4)
    assert np.array_equal(expanded, u[np.ix_(idx, idx)])


def test_expansion_range_check():
    with pytest.raises(DimensionError):
        expanded_gadget_matrix(np.eye(3), -1)
    with pytest.raises(DimensionError):
        expanded_gadget_matrix(np.eye(1), 0)


def test_expansion_beyond_the_ancilla_count():
    # more signal photons than ancillas (l > k) still expand row/column 0
    u = np.arange(9, dtype=complex).reshape(3, 3)
    for l in (3, 5):
        idx = [0] * l + [1, 2]
        assert np.array_equal(expanded_gadget_matrix(u, l), u[np.ix_(idx, idx)])


def test_heralded_factors_extend_apply_gadget(gadget_k2):
    u = gadget_k2.u_eff
    factors = heralded_factors(u, 4)
    assert np.allclose(factors[:3], apply_gadget(u, np.ones(3)), atol=1e-15)
    for l in (3, 4):
        assert factors[l] == pytest.approx(
            permanent_naive(expanded_gadget_matrix(u, l)) / math.factorial(l), abs=1e-12
        )


# ---------------------------------------------------------------------------
# the all-l kernel and the routes built on it
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_expanded_permanents_match_the_oracles(k):
    # the defining permutation sum up to 8 x 8; exact rational Ryser above,
    # where the permutation sum is refused (10 x 10) or its own rounding
    # approaches the tolerance
    u = haar_unitary(k + 1, np.random.default_rng(60 + k))
    pers = _expanded_permanents(u, k + 2)
    assert pers.shape == (k + 3,)
    for l in range(k + 3):
        mat = expanded_gadget_matrix(u, l)
        ref = permanent_naive(mat) if mat.shape[0] <= 8 else permanent_exact(mat)
        assert abs(pers[l] - ref) <= 1e-12 * max(1.0, abs(ref)), (k, l)


def _scalar_route(u, n):
    # per(u^{l,1..1}) one scalar Ryser evaluation per l
    return np.array([permanent(expanded_gadget_matrix(u, l)) for l in range(n + 1)])


def _gadget_matrices():
    rng = np.random.default_rng(61)
    mats = [haar_unitary(k + 1, rng) for k in (1, 2, 3, 4) for _ in range(2)]
    return mats + [reference_gadget(k).u_eff for k in (2, 3, 4)]


def test_kernel_routes_match_the_scalar_permanent_route():
    for u in _gadget_matrices():
        k = u.shape[0] - 1
        pers = _scalar_route(u, k + 2)
        scale = max(1.0, float(np.abs(pers).max()))
        phi = 0.37 * (k + 1)
        targets = np.array([math.factorial(l) * pers[0] * np.exp(-1j * l * l * phi)
                            for l in range(1, k + 1)])
        assert np.abs(gadget_residuals(u, phi) - (pers[1:k + 1] - targets)).max() <= 1e-12 * scale
        factors = pers / np.array([math.factorial(l) for l in range(k + 3)])
        assert np.abs(heralded_factors(u, k + 2) - factors).max() <= 1e-12 * scale
        assert success_probability(u) == pytest.approx(abs(pers[0]) ** 2, rel=1e-12)


def test_penalized_objective_is_the_residual_vector_norm():
    rng = np.random.default_rng(62)
    for m, p_th in ((3, 0.99), (3, 1e-9), (4, 0.5)):
        x = _random_raw(m, rng)
        for lam in (10.0, 1e4):
            parts = _residual_vector(x, m, 0.8, p_th, lam)
            assert parts.shape == (2 * (m - 1) + 1,)
            value = _penalized_objective(x, m, 0.8, p_th, lam)
            assert value == pytest.approx(float(np.sum(parts**2)), rel=1e-15, abs=0.0)
            # the objective plus the exterior penalty, as separately defined
            u = _matrix_from_raw(x, m)
            shortfall = max(0.0, p_th - success_probability(u))
            res = gadget_residuals(u, 0.8)
            assert value == pytest.approx(
                float(np.sum(np.abs(res) ** 2)) + lam * shortfall**2, rel=1e-12
            )


@pytest.mark.parametrize(
    "call",
    [
        lambda u: gadget_residuals(u, 0.5),
        success_probability,
        lambda u: heralded_factors(u, 2),
        lambda u: apply_gadget(u, np.ones(u.shape[0])),
        lambda u: expanded_gadget_matrix(u, 1),
    ],
)
def test_public_entries_check_their_matrix(call):
    with pytest.raises(DimensionError):
        call(np.ones((2, 3), dtype=complex))
    with pytest.raises(DimensionError):
        call(np.ones((1, 1), dtype=complex))
    bad = np.eye(3, dtype=complex)
    bad[1, 2] = np.nan
    with pytest.raises(ValueError):
        call(bad)
    bad[1, 2] = np.inf
    with pytest.raises(ValueError):
        call(bad)


def test_heralded_factors_reject_a_negative_photon_number():
    with pytest.raises(DimensionError):
        heralded_factors(np.eye(3), -1)


# ---------------------------------------------------------------------------
# bundled reference gadgets
# ---------------------------------------------------------------------------

def test_reference_success_probabilities():
    assert success_probability(reference_gadget(2).u_eff) == pytest.approx(0.209, abs=0.005)
    assert success_probability(reference_gadget(3).u_eff) == pytest.approx(0.04, abs=0.005)
    assert success_probability(reference_gadget(4).u_eff) == pytest.approx(0.008, abs=0.003)


def test_reference_k2_residuals_small():
    spec = reference_gadget(2)
    res = gadget_residuals(spec.u_eff, math.pi / 2)
    assert np.abs(res).max() <= 5e-3


def test_reference_k2_unitarity():
    assert unitarity_deviation(reference_gadget(2).u_eff) <= 2e-3


def test_reference_unsupported_k():
    with pytest.raises(ValueError):
        reference_gadget(5)


def test_residuals_agree_with_naive_permanents():
    spec = reference_gadget(2)
    res = gadget_residuals(spec.u_eff, spec.phi)
    per0 = permanent_naive(spec.u_eff[1:, 1:])
    for l in (1, 2):
        idx = [0] * l + [1, 2]
        per_l = permanent_naive(spec.u_eff[np.ix_(idx, idx)])
        target = math.factorial(l) * per0 * np.exp(-1j * l * l * spec.phi)
        assert abs(res[l - 1] - (per_l - target)) < 1e-10


# ---------------------------------------------------------------------------
# residuals and objective
# ---------------------------------------------------------------------------

def test_identity_is_a_zero_phase_gadget():
    res = gadget_residuals(np.eye(2), 0.0)
    assert abs(res[0]) == 0.0


def test_objective_matches_residual_norm_and_is_nonnegative():
    rng = np.random.default_rng(50)
    for _ in range(5):
        u = _matrix_from_raw(_random_raw(3, rng), 3)
        d = _objective_of_matrix(u, 0.7)
        res = gadget_residuals(u, 0.7)
        assert d >= 0.0
        assert d == pytest.approx(float(np.sum(np.abs(res) ** 2)), abs=1e-12)


def test_success_bound_values():
    assert success_bound(math.pi / 2) == pytest.approx(0.25)
    assert success_bound(0.0) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------

def test_single_ancilla_gadget_is_analytic():
    for phi in (0.3, math.pi / 2, 2.5):
        spec = optimize_gadget(1, phi)
        assert spec.success_prob == pytest.approx(1.0)
        assert spec.residual < 1e-28
        assert spec.u_eff[0, 0] == pytest.approx(np.exp(-1j * phi))


def test_synthesized_k2_converges(gadget_k2):
    assert gadget_k2.residual <= 1e-8
    assert gadget_k2.success_prob >= 0.15
    assert unitarity_deviation(gadget_k2.u_eff) < 1e-12
    assert np.abs(gadget_residuals(gadget_k2.u_eff, gadget_k2.phi)).max() <= 1e-6


def test_synthesized_k2_respects_success_bound(gadget_k2, gadget_k2_pi4):
    for spec in (gadget_k2, gadget_k2_pi4):
        assert spec.success_prob <= success_bound(spec.phi) + 1e-9


def test_synthesis_is_deterministic():
    a = optimize_gadget(2, math.pi / 2, 0.15, starts=6, rng=np.random.default_rng(51), budget=800)
    b = optimize_gadget(2, math.pi / 2, 0.15, starts=6, rng=np.random.default_rng(51), budget=800)
    assert np.array_equal(a.u_eff, b.u_eff)
    assert a.residual == b.residual and a.success_prob == b.success_prob


def test_synthesis_reports_infeasible_threshold():
    # no k=2 gadget can exceed the 0.25 ceiling at phi = pi/2
    with pytest.raises(GadgetSynthesisError) as err:
        optimize_gadget(2, math.pi / 2, 0.9, starts=3, rng=np.random.default_rng(52), budget=400)
    assert isinstance(err.value.best, GadgetSpec)
    assert err.value.best.success_prob < 0.9


def test_synthesis_k_range():
    with pytest.raises(ValueError):
        optimize_gadget(5, math.pi / 2)
    with pytest.raises(ValueError):
        optimize_gadget(0, math.pi / 2)


# ---------------------------------------------------------------------------
# heralded action on coefficients
# ---------------------------------------------------------------------------

def test_apply_gadget_realizes_phase_profile(gadget_k2):
    c = np.full(3, 1 / math.sqrt(3), dtype=complex)
    out = apply_gadget(gadget_k2.u_eff, c)
    per0 = out[0] / c[0]
    profile = out / (c * per0)
    phi = gadget_k2.phi
    target = np.exp(-1j * np.array([0.0, phi, 4 * phi]))
    assert np.abs(profile - target).max() < 1e-8


def test_apply_gadget_vacuum_component_passes(gadget_k2):
    out = apply_gadget(gadget_k2.u_eff, np.array([1.0, 0.0, 0.0]))
    assert out[1] == 0 and out[2] == 0
    assert abs(out[0]) ** 2 == pytest.approx(gadget_k2.success_prob)


def test_apply_gadget_never_amplifies():
    # worst case: the transparent gadget passes everything through unchanged
    out = apply_gadget(np.eye(3, dtype=complex), np.array([0.5, 0.5, 0.5]))
    assert np.all(np.abs(out) <= 0.5 + 1e-12)
    rng = np.random.default_rng(53)
    spec = reference_gadget(2)
    c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    c /= np.linalg.norm(c)
    assert np.linalg.norm(apply_gadget(spec.u_eff, c)) <= 1.0 + 1e-6


def test_apply_gadget_size_check():
    with pytest.raises(DimensionError):
        apply_gadget(np.eye(3), np.array([1.0, 0.0]))


# ---------------------------------------------------------------------------
# verification and serialization
# ---------------------------------------------------------------------------

def test_verify_gadget_passes_for_synthesized(gadget_k2):
    report = verify_gadget(gadget_k2, tol=1e-6)
    assert report["ok"]
    assert report["success_bound"] == pytest.approx(0.25)


def test_verify_gadget_fails_for_corrupted(gadget_k2):
    corrupted = GadgetSpec(
        gadget_k2.k,
        gadget_k2.phi + 0.3,  # wrong phase target
        gadget_k2.u_eff,
        gadget_k2.success_prob,
        gadget_k2.residual,
    )
    assert not verify_gadget(corrupted, tol=1e-6)["ok"]


def test_gadget_json_round_trip(tmp_path, gadget_k2):
    path = tmp_path / "gadget.json"
    save_gadget(path, gadget_k2)
    loaded = load_gadget(path)
    assert loaded.k == gadget_k2.k
    assert loaded.phi == gadget_k2.phi
    assert np.abs(loaded.u_eff - gadget_k2.u_eff).max() < 1e-15
    assert loaded.success_prob == pytest.approx(gadget_k2.success_prob)
    obj = gadget_to_json(gadget_k2)
    assert set(obj) == {"k", "phi", "u_eff", "success_prob", "residual"}
    with pytest.raises(ValueError):
        gadget_from_json({"k": 2})
