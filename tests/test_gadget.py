import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from nlboson import (
    DimensionError,
    GadgetSpec,
    GadgetSynthesisError,
    NotUnitaryError,
    apply_gadget,
    gadget_from_json,
    gadget_residuals,
    gadget_to_json,
    haar_unitary,
    heralded_factors,
    load_gadget,
    matrix_to_json,
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
from nlboson import gadget
from nlboson.cli import main
from nlboson.gadget import (
    _expanded_permanent_gradients,
    _expanded_permanents,
    _matrix_from_raw,
    _penalized_objective,
    _random_raw,
    _residual_jacobian,
    _residual_vector,
)

from .oracles import central_difference_jacobian, expanded_gadget_matrix, permanent_exact


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


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_permanent_gradients_match_directional_differences(k):
    rng = np.random.default_rng(63 + k)
    u = haar_unitary(k + 1, rng)
    n = k + 2
    pers, grads = _expanded_permanent_gradients(u, n)
    assert grads.shape == (n + 1, k + 1, k + 1)
    assert np.array_equal(pers, _expanded_permanents(u, n))
    for _ in range(3):
        direction = rng.standard_normal(u.shape) + 1j * rng.standard_normal(u.shape)
        want = central_difference_jacobian(
            lambda t: _expanded_permanents(u + t[0] * direction, n), [0.0]
        )[:, 0]
        got = np.einsum("lij,ij->l", grads, direction)
        assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("p_th", [0.99, 1e-3])
@pytest.mark.parametrize("lam", [10.0, 1e4])
def test_residual_jacobian_matches_central_differences(k, p_th, lam):
    m = k + 1
    rng = np.random.default_rng(64 + k)
    for _ in range(3):
        x = _random_raw(m, rng)
        jac = _residual_jacobian(x, m, 0.8, p_th, lam)
        want = central_difference_jacobian(lambda y: _residual_vector(y, m, 0.8, p_th, lam), x)
        assert jac.shape == want.shape == (2 * k + 1, len(x))
        assert np.abs(jac - want).max() <= 1e-6 * np.abs(want).max()
        # the shortfall row is active exactly when the threshold is missed
        shortfall_active = success_probability(_matrix_from_raw(x, m)) < p_th
        assert shortfall_active == (p_th == 0.99)
        assert np.any(jac[-1] != 0) == shortfall_active


def test_capped_synthesis_makes_few_residual_evaluations(monkeypatch):
    # one capped start above the k = 2 heralding ceiling runs the whole search:
    # at most `budget` Nelder-Mead evaluations, four least-squares passes of
    # at most `budget` each, and one for the reported objective; a 3-point
    # Jacobian over the 9 mesh angles would add 18 per least-squares step
    calls = {"residuals": 0, "jacobians": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(gadget, "gadget_residuals", counted("residuals", gadget_residuals))
    monkeypatch.setattr(gadget, "_residual_jacobian", counted("jacobians", _residual_jacobian))
    with pytest.raises(GadgetSynthesisError):
        optimize_gadget(2, math.pi / 4, 0.99, starts=1, rng=np.random.default_rng(53), budget=10)
    assert calls["residuals"] <= 5 * 10 + 1
    assert calls["jacobians"] >= 4


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


@pytest.mark.parametrize("k, bound", [(2, 2e-3), (3, 2.5e-2), (4, 2e-3)],
                         ids=["k2", "k3", "k4"])
def test_reference_unitarity(k, bound):
    # each table's own bound, tighter than the one gadget gate for k = 2 and 4
    assert unitarity_deviation(reference_gadget(k).u_eff) <= bound


def test_reference_gadgets_pass_the_one_gadget_gate(monkeypatch):
    assert gadget.MAX_GADGET_DEVIATION == 2.5e-2
    monkeypatch.setattr(gadget, "MAX_GADGET_DEVIATION", 1e-3)
    with pytest.raises(NotUnitaryError, match="reference gadget k=3"):
        reference_gadget(3)


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
        d = GadgetSpec(0.7, u).residual
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


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("name", ["starts", "budget"])
def test_synthesis_rejects_an_empty_search(k, name):
    with pytest.raises(ValueError, match=f"{name} must be at least 1, got {name}=0"):
        optimize_gadget(k, math.pi / 2, **{name: 0})


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
def test_synthesis_rejects_a_non_finite_phase(k, phi):
    with pytest.raises(ValueError, match="phi must be finite"):
        optimize_gadget(k, phi, starts=1, budget=1)
    # nor can a gadget hold one, built directly or read from a file
    with pytest.raises(ValueError, match=f"^phi must be finite, got phi={phi}$"):
        GadgetSpec(phi, np.eye(k + 1))
    obj = {"k": k, "phi": phi, "u_eff": matrix_to_json(np.eye(k + 1))}
    with pytest.raises(ValueError, match=f"^phi must be finite, got phi={phi}$"):
        gadget_from_json(json.loads(json.dumps(obj)))


@pytest.mark.parametrize("p_th", [0.0, 1.0, -0.1, 1.5])
def test_synthesis_rejects_a_threshold_outside_the_open_unit_interval(p_th):
    with pytest.raises(ValueError, match=f"success threshold must be in \\(0, 1\\), got {p_th}"):
        optimize_gadget(2, math.pi / 2, p_th=p_th, starts=1, budget=1)


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
    # the matrix is checked before its size is read
    with pytest.raises(DimensionError, match=r"^u_eff must be a 2-D matrix, got shape \(\)$"):
        apply_gadget(5, [1])


# ---------------------------------------------------------------------------
# verification and serialization
# ---------------------------------------------------------------------------

def test_verify_gadget_passes_for_synthesized(gadget_k2):
    report = verify_gadget(gadget_k2, tol=1e-6)
    assert report["ok"]
    assert report["success_bound"] == pytest.approx(0.25)


def test_verify_gadget_makes_one_residual_pass(spy, gadget_k2):
    calls = spy(gadget, "gadget_residuals")
    report = verify_gadget(gadget_k2)
    assert len(calls) == 1
    assert report["objective"] == gadget_k2.residual


def test_verify_gadget_fails_for_corrupted(gadget_k2):
    corrupted = GadgetSpec(
        gadget_k2.phi + 0.3,  # wrong phase target
        gadget_k2.u_eff,
    )
    assert not verify_gadget(corrupted, tol=1e-6)["ok"]


def test_verify_gadget_reports_a_non_unitary_gadget_without_refusing_it():
    ref = reference_gadget(2)
    doubled = GadgetSpec(ref.phi, 2 * ref.u_eff)
    report = verify_gadget(doubled, tol=1e-6)
    assert not report["ok"]
    assert report["unitarity_deviation"] == pytest.approx(3.0, abs=1e-2)


@pytest.mark.parametrize("tol, message", [
    (0.0, "tolerance must be positive and finite, got tol=0.0"),
    (-1.0, "tolerance must be positive and finite, got tol=-1.0"),
    (math.nan, "tol must be finite, got tol=nan"),
    (math.inf, "tol must be finite, got tol=inf"),
])
def test_verify_gadget_refuses_a_tolerance_that_is_not_positive_and_finite(gadget_k2, tol,
                                                                           message):
    with pytest.raises(ValueError) as err:
        verify_gadget(gadget_k2, tol=tol)
    assert str(err.value) == message


@pytest.mark.parametrize("spec", [None, reference_gadget(2).u_eff, {"k": 2}],
                         ids=["none", "matrix", "dict"])
def test_verify_and_save_refuse_what_is_not_a_gadget_spec(tmp_path, spec):
    message = f"spec must be a GadgetSpec, got {type(spec).__name__}"
    path = tmp_path / "gadget.json"
    for call in (verify_gadget, gadget_to_json, lambda s: save_gadget(path, s)):
        with pytest.raises(TypeError) as err:
            call(spec)
        assert str(err.value) == message
    assert not path.exists()


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


@pytest.mark.parametrize("obj", [[1, 2], "gadget", None, {"k": [2], "phi": 0.0, "u_eff": {},
                                                          "success_prob": 1.0, "residual": 0.0}])
def test_gadget_json_rejects_a_value_of_the_wrong_type(obj):
    with pytest.raises(ValueError, match="malformed"):
        gadget_from_json(obj)


def test_gadget_spec_leaves_the_callers_matrix_alone():
    u = np.eye(2, dtype=complex)
    spec = GadgetSpec(0.0, u)
    assert u.flags.writeable
    assert not spec.u_eff.flags.writeable
    assert not np.shares_memory(spec.u_eff, u)
    u[0, 0] = 5.0
    assert spec.u_eff[0, 0] == 1.0


# ---------------------------------------------------------------------------
# a gadget is its matrix: the figures of merit are derived from it
# ---------------------------------------------------------------------------

def test_gadget_spec_holds_three_fields_and_derives_its_figures(gadget_k2):
    assert [f.name for f in dataclasses.fields(GadgetSpec)] == ["phi", "u_eff"]
    assert gadget_k2.success_prob == success_probability(gadget_k2.u_eff)
    report = verify_gadget(gadget_k2)
    assert gadget_k2.residual == report["objective"]
    assert gadget_k2.success_prob == report["success_prob"]
    assert type(gadget_k2.k) is int and gadget_k2.k == gadget_k2.u_eff.shape[0] - 1 == 2
    for name in ("k", "success_prob", "residual"):
        with pytest.raises(AttributeError):
            setattr(gadget_k2, name, 0.5)
    with pytest.raises(TypeError):
        GadgetSpec(2, gadget_k2.phi, gadget_k2.u_eff)


def test_replacing_the_phase_moves_the_objective(gadget_k2):
    moved = dataclasses.replace(gadget_k2, phi=math.pi / 4)
    assert moved.residual == verify_gadget(moved)["objective"]
    assert moved.residual > 1e-8 >= gadget_k2.residual


def test_an_edited_figure_in_a_gadget_file_is_recomputed(tmp_path, gadget_k2):
    obj = gadget_to_json(gadget_k2)
    obj["success_prob"], obj["residual"] = 0.9, 123.0
    loaded = gadget_from_json(obj)
    assert loaded.success_prob == gadget_k2.success_prob < 0.9
    assert loaded.residual == gadget_k2.residual
    del obj["success_prob"], obj["residual"]
    assert gadget_from_json(obj).success_prob == gadget_k2.success_prob


@pytest.mark.parametrize("k, u, error, message", [
    (1, np.array([[1.0, math.nan], [0.0, 1.0]]), ValueError, "non-finite"),
    (1, np.array([[math.inf, 0.0], [0.0, 1.0]]), ValueError, "non-finite"),
    (1, np.ones((2, 3)), DimensionError, "u_eff must be square, got shape"),
    (0, np.ones((1, 1)), DimensionError, "u_eff must be at least 2x2, got shape"),
])
def test_gadget_spec_refuses_a_matrix_it_cannot_hold(k, u, error, message):
    # k is the ancilla count a gadget file claims; the matrix is refused first
    with pytest.raises(error, match=message):
        GadgetSpec(0.0, u)
    with pytest.raises(error, match=message):
        gadget_from_json({"k": k, "phi": 0.0, "u_eff": matrix_to_json(u)})


@pytest.mark.parametrize("k, size", [
    pytest.param(k, size, id=f"k={k!r}-size={size}")
    for k, size in [(2, 2), (1, 3), (-1, 2), (3, 3), (2.7, 3), (2.0, 3), (True, 2), ("2", 3)]
])
def test_gadget_file_refuses_a_k_its_matrix_does_not_give(tmp_path, capsys, k, size):
    obj = {"k": k, "phi": 0.0, "u_eff": matrix_to_json(np.eye(size))}
    message = f"malformed gadget JSON: k={k!r}, but its matrix gives k={size - 1}"
    with pytest.raises(ValueError, match=re.escape(message)):
        gadget_from_json(obj)
    path = tmp_path / "gadget.json"
    path.write_text(json.dumps(obj))
    assert main(["gadget", "verify", "--gadget", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed gadget JSON")


def test_a_gadget_file_without_k_is_refused(gadget_k2):
    obj = gadget_to_json(gadget_k2)
    assert obj["k"] == 2 and gadget_from_json(obj).k == 2
    del obj["k"]
    with pytest.raises(ValueError, match="malformed gadget JSON: missing 'k'"):
        gadget_from_json(obj)


@pytest.mark.parametrize("k", [2, 3])
def test_committed_gadget_files_store_the_figures_their_matrices_give(k):
    path = Path(__file__).parent.parent / "perfbench" / "inputs" / f"gadget_k{k}_pi2.json"
    stored = json.loads(path.read_text())
    loaded = load_gadget(path)
    assert loaded.success_prob == stored["success_prob"]
    assert loaded.residual == pytest.approx(stored["residual"], rel=0, abs=2e-25)


def test_shortfall_row_is_zero_exactly_when_the_threshold_is_met():
    # the least-squares loop stops escalating the penalty on this row alone
    rng = np.random.default_rng(53)
    for m, p_th in [(3, 0.15), (4, 0.02), (3, 0.05)]:
        for _ in range(20):
            x = _random_raw(m, rng)
            row = _residual_vector(x, m, 0.9, p_th, 10.0)[-1]
            assert (row == 0.0) == (success_probability(_matrix_from_raw(x, m)) >= p_th)
