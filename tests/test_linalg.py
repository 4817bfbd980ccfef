import re
import tracemalloc

import numpy as np
import pytest

from qunit_bell.bases import computational_basis, fourier_basis, intermediate_state
from qunit_bell.functional import max_entangled_state
from qunit_bell.linalg import projector, schmidt_spectrum, validate_density_matrix
from qunit_bell.noise import KIND_CLOSEST_SEPARABLE, KIND_UNCOLORED, NoiseFamily, mixed_state


def random_density(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def test_projector_computational():
    assert np.array_equal(projector(computational_basis(3)[0]), np.diag([1.0, 0.0, 0.0]))


def test_projector_uniform_state():
    p = projector(fourier_basis(3)[0])
    assert np.allclose(p, np.full((3, 3), 1 / 3), atol=1e-12)


def test_projector_intermediate_identification():
    p = projector(intermediate_state(0, 0, 3))
    a0 = computational_basis(3)[0]
    got = np.vdot(a0, p @ a0).real
    assert abs(got - (0.5 + 0.5 / np.sqrt(3))) < 1e-12


def test_projector_idempotent_hermitian_trace():
    rng = np.random.default_rng(11)
    for _ in range(20):
        v = rng.normal(size=5) + 1j * rng.normal(size=5)
        v /= np.linalg.norm(v)
        p = projector(v)
        assert np.abs(p - p.conj().T).max() < 1e-12
        assert np.abs(p @ p - p).max() < 1e-10
        assert abs(np.trace(p) - 1.0) < 1e-10


def test_projector_rejects_unnormalized():
    with pytest.raises(ValueError, match="ket norm deviates from 1 by"):
        projector(np.array([1.0, 1.0]))


def test_expectation_matched_basis_projectors():
    psi = max_entangled_state(3)
    a0 = computational_basis(3)[0]
    obs = np.kron(projector(a0), projector(a0))
    assert abs(np.trace(projector(psi) @ obs).real - 1 / 3) < 1e-12


def test_expectation_intermediate_click():
    psi = max_entangled_state(3)
    obs = np.kron(projector(computational_basis(3)[0]), projector(intermediate_state(0, 0, 3)))
    want = (1 / 3) * (0.5 + 0.5 / np.sqrt(3))
    assert abs(np.trace(projector(psi) @ obs).real - want) < 1e-12


def test_eigensystem_projector_spectrum():
    rng = np.random.default_rng(3)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    w = np.linalg.eigvalsh(projector(v))
    assert np.allclose(w, [0.0, 0.0, 0.0, 1.0], atol=1e-10)


def test_schmidt_product_state():
    a0 = computational_basis(3)[0]
    psi = np.kron(a0, a0)
    assert np.allclose(schmidt_spectrum(psi, 3), [1.0, 0.0, 0.0], atol=1e-12)


def test_schmidt_max_entangled():
    got = schmidt_spectrum(max_entangled_state(3), 3)
    assert np.allclose(got, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)


def test_schmidt_matches_reduced_density_eigenvalues():
    # oracle: eigenvalues of the partial trace over Bob
    rng = np.random.default_rng(17)
    for _ in range(10):
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi /= np.linalg.norm(psi)
        mat = psi.reshape(4, 4)
        reduced = mat @ mat.conj().T
        want = np.sort(np.linalg.eigvalsh(reduced))[::-1]
        got = schmidt_spectrum(psi, 4)
        assert np.allclose(got, want, atol=1e-10)
        assert abs(got.sum() - 1.0) < 1e-10
        assert np.all(np.diff(got) <= 1e-12)


def test_schmidt_rejects_non_square_dimension():
    with pytest.raises(ValueError, match="not bipartite"):
        schmidt_spectrum(np.array([1.0, 0.0, 0.0]), 2)


def test_schmidt_rejects_unnormalized():
    with pytest.raises(ValueError, match="ket norm deviates from 1 by"):
        schmidt_spectrum(np.ones(4), 2)


# <psi|psi> - 1 of kets beyond the 1e-10 trace rule; the old 1e-8 rule on ||psi|| took all four
KET_DEVIATIONS = (2e-10, -2e-10, 2e-9, 1e-8)


@pytest.mark.parametrize("deviation", KET_DEVIATIONS, ids=str)
def test_ket_rule_is_the_trace_rule(deviation):
    psi = max_entangled_state(3) * np.sqrt(1.0 + deviation)
    message = re.escape(f"ket norm deviates from 1 by {abs(deviation):.3e}")
    with pytest.raises(ValueError, match=message):
        projector(psi)
    with pytest.raises(ValueError, match=message):
        schmidt_spectrum(psi, 3)
    with pytest.raises(ValueError, match=re.escape(f"trace deviates from 1 by {abs(deviation):.3e}")):
        validate_density_matrix(np.outer(psi, psi.conj()))


def test_ket_within_trace_rule_is_accepted():
    psi = max_entangled_state(3) * np.sqrt(1.0 + 1e-11)
    validate_density_matrix(projector(psi))
    assert np.allclose(schmidt_spectrum(psi, 3), [1 / 3] * 3, atol=1e-10)


@pytest.mark.parametrize("part", ("real", "imag"))
def test_ket_rule_reads_norm_before_finiteness(part):
    for value, message in ((np.inf, "ket norm deviates from 1 by inf"), (np.nan, "non-finite entries")):
        bad = max_entangled_state(2)
        getattr(bad, part)[1] = value
        for check in (projector, lambda v: schmidt_spectrum(v, 2)):
            with pytest.raises(ValueError, match=message):
                check(bad)


def test_ket_rule_reads_every_entry_of_any_shape():
    # np.outer flattens, so a 2-D input is one ket of all its entries
    with pytest.raises(ValueError, match=re.escape("ket norm deviates from 1 by 1.000e+00")):
        projector(np.eye(2))
    assert np.array_equal(projector(np.array([[0.6, 0.8j]])), projector(np.array([0.6, 0.8j])))


def test_validate_density_accepts_random_mixtures():
    rng = np.random.default_rng(29)
    for _ in range(10):
        rho = random_density(rng, 5)
        out = validate_density_matrix(rho)
        assert np.allclose(out, rho)


def test_validate_density_rejections():
    with pytest.raises(ValueError, match="square"):
        validate_density_matrix(np.ones((2, 3)))
    with pytest.raises(ValueError, match="must not be empty"):
        validate_density_matrix(np.zeros((0, 0)))
    with pytest.raises(ValueError, match="not Hermitian"):
        validate_density_matrix(np.array([[0.5, 0.5], [-0.5, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        validate_density_matrix(np.eye(2))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        validate_density_matrix(np.diag([1.5, -0.5]))


# The reference eigensolve, saved before eigvalsh_calls replaces np.linalg.eigvalsh.
_eigvalsh = np.linalg.eigvalsh


def reference_accepts(rho):
    return _eigvalsh(rho)[0] >= -1e-9


def state_with_smallest_eigenvalue(rng, d, smallest, real=False):
    """Haar-random unitary (or orthogonal) conjugate of a unit-trace diagonal whose minimum is `smallest`."""
    rest = rng.uniform(0.1, 1.0, size=d - 1)
    spectrum = np.concatenate(([smallest], rest * (1.0 - smallest) / rest.sum()))
    g = rng.normal(size=(d, d))
    q, r = np.linalg.qr(g if real else g + 1j * rng.normal(size=(d, d)))
    u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    rho = (u * spectrum) @ u.conj().T
    return (rho + rho.conj().T) / 2


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """Count the eigensolves validate_density_matrix falls back to."""
    calls = []

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return _eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


def accepts(rho):
    try:
        validate_density_matrix(rho)
    except ValueError as exc:
        assert "negative eigenvalue" in str(exc)
        return False
    return True


GRID_D = (4, 9, 16, 36, 64, 100)
GRID_SMALLEST = (-1e-3, -2e-9, -1.2e-9, -0.8e-9, -5e-10, 0.0, 1e-6)


@pytest.mark.parametrize("d", GRID_D)
@pytest.mark.parametrize("smallest", GRID_SMALLEST)
def test_positivity_check_matches_eigvalsh(d, smallest, eigvalsh_calls):
    check_positivity_grid(np.random.default_rng(d), d, smallest, eigvalsh_calls, real=False)


@pytest.mark.parametrize("d", GRID_D)
@pytest.mark.parametrize("smallest", GRID_SMALLEST)
def test_real_positivity_check_matches_eigvalsh(d, smallest, eigvalsh_calls):
    # real states are factored in real arithmetic; the rule must not move
    check_positivity_grid(np.random.default_rng(1000 + d), d, smallest, eigvalsh_calls, real=True)


def check_positivity_grid(rng, d, smallest, eigvalsh_calls, real):
    for _ in range(20):
        rho = state_with_smallest_eigenvalue(rng, d, smallest, real)
        assert np.isrealobj(rho) == real
        expected = smallest >= -1e-9
        assert reference_accepts(rho) == expected
        eigvalsh_calls.clear()
        assert accepts(rho) == expected
        # States clear of the boundary are decided by the factorization alone;
        # a rejection always comes from the eigensolve, which names the value.
        assert eigvalsh_calls == ([] if expected else [(d, d)])


def test_rejection_reports_smallest_eigenvalue():
    rho = state_with_smallest_eigenvalue(np.random.default_rng(41), 9, -2e-9)
    smallest = _eigvalsh(rho)[0]
    with pytest.raises(ValueError, match=f"negative eigenvalue {smallest:.3e}"):
        validate_density_matrix(rho)


@pytest.mark.parametrize("N", range(2, 11))
def test_pure_max_entangled_states_accepted(N, eigvalsh_calls):
    # rank one: all eigenvalues but one are 0, so only the shift lets the factor exist
    rho = projector(max_entangled_state(N))
    validate_density_matrix(rho)
    assert eigvalsh_calls == []


def layouts(rho):
    """rho as a read-only, a Fortran-ordered and a non-contiguous (strided) array.

    Each comes with the buffer whose bytes the validator must leave alone.
    """
    read_only = rho.copy()
    read_only.flags.writeable = False
    fortran = np.asfortranarray(rho)
    padded = np.zeros((2 * rho.shape[0], 3 * rho.shape[1]), dtype=rho.dtype)
    padded[::2, ::3] = rho
    return [(read_only, read_only), (fortran, fortran), (padded[::2, ::3], padded)]


@pytest.mark.parametrize("d", (4, 36))
@pytest.mark.parametrize("smallest", (-1e-3, -2e-9, -1.2e-9, -0.8e-9, 0.0, 1e-6))
def test_validator_leaves_input_untouched(d, smallest, eigvalsh_calls):
    rng, rng_real = np.random.default_rng(7 * d), np.random.default_rng(7 * d + 1)
    for _ in range(5):
        for rho in (
            state_with_smallest_eigenvalue(rng, d, smallest),
            state_with_smallest_eigenvalue(rng_real, d, smallest, real=True),
        ):
            check_leaves_input_untouched(rho, d, smallest, eigvalsh_calls)


def check_leaves_input_untouched(rho, d, smallest, eigvalsh_calls):
    expected = reference_accepts(rho)
    assert expected == (smallest >= -1e-9)
    # float64, and complex128 with every imaginary part zero: both take the real path
    for state in (rho, rho.astype(complex)) if np.isrealobj(rho) else (rho,):
        for view, buffer in layouts(state):
            before = buffer.tobytes()
            eigvalsh_calls.clear()
            assert accepts(view) == expected
            assert buffer.tobytes() == before
            assert np.array_equal(view, rho)
            # the shift reached the factorization: accepted states skip eigvalsh
            assert eigvalsh_calls == ([] if expected else [(d, d)])


@pytest.fixture
def cholesky_dtypes(monkeypatch):
    """Record the dtype of every matrix validate_density_matrix factors."""
    dtypes = []
    cholesky = np.linalg.cholesky

    def recording(a, *args, **kwargs):
        dtypes.append(a.dtype)
        return cholesky(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", recording)
    return dtypes


@pytest.mark.parametrize("N", (2, 3, 6))
def test_real_states_are_factored_in_real_arithmetic(N, cholesky_dtypes):
    real_states = [projector(max_entangled_state(N))] + [
        mixed_state(NoiseFamily(kind, N, lam))
        for kind in (KIND_UNCOLORED, KIND_CLOSEST_SEPARABLE)
        for lam in (0.0, 0.4, 1.0)
    ]
    # mixed_state builds float64, projector complex128 with every imaginary part zero
    assert [rho.dtype for rho in real_states] == [np.dtype(complex)] + [np.dtype(float)] * 6
    for rho in real_states:
        assert validate_density_matrix(rho) is rho
    assert cholesky_dtypes == [np.dtype(np.float64)] * len(real_states)
    cholesky_dtypes.clear()
    rng = np.random.default_rng(N)
    for _ in range(3):
        validate_density_matrix(state_with_smallest_eigenvalue(rng, N * N, 0.01))
    assert cholesky_dtypes == [np.dtype(np.complex128)] * 3


def with_imaginary(rho, entry, value):
    rho = np.asarray(rho, dtype=complex)
    rho[entry] += 1j * value
    return rho


# inf - inf in the Hermiticity defect warns before the validator refuses the input
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "rho,message",
    (
        (np.diag([np.nan, 1.0]), "non-finite entries (NaN/Inf) are not admitted"),
        (np.diag([np.inf, 1.0]), "non-finite entries (NaN/Inf) are not admitted"),
        (with_imaginary(np.eye(2) / 2, (0, 1), np.inf), "non-finite entries (NaN/Inf) are not admitted"),
        (with_imaginary(np.eye(2) / 2, (1, 1), np.nan), "non-finite entries (NaN/Inf) are not admitted"),
        (np.array([[0.5, 0.5], [-0.5, 0.5]]), "density matrix is not Hermitian: defect 1.000e+00"),
        (np.array([[0.5, 3e-10], [0.0, 0.5]]), "density matrix is not Hermitian: defect 3.000e-10"),
        (np.eye(2), "density matrix trace deviates from 1 by 1.000e+00"),
        (np.diag([1.5, -0.5]), "density matrix has negative eigenvalue -5.000e-01"),
    ),
)
def test_rejection_messages_for_real_inputs(rho, message):
    # the same strings as before real states took the real path, float64 or complex128 alike
    for state in (rho, np.asarray(rho, dtype=complex)):
        with pytest.raises(ValueError) as exc:
            validate_density_matrix(state)
        assert str(exc.value) == message


NON_FINITE = "non-finite entries (NaN/Inf) are not admitted"


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("value", (np.nan, np.inf, -np.inf), ids=("nan", "+inf", "-inf"))
@pytest.mark.parametrize(
    "shape,cells,imaginary",
    (
        ((3, 3), [(1, 1)], False),
        ((3, 3), [(0, 2)], False),
        ((3, 3), [(0, 2), (2, 0)], False),  # inf - inf = nan in the defect
        ((3, 3), [(1, 1)], True),
        ((3, 3), [(0, 2)], True),
        ((3, 3), [(0, 2), (2, 0)], True),  # +value, -value: Hermitian, so the imaginary parts cancel
        ((2, 3), [(0, 1)], False),  # the non-finite message comes before "must be square"
    ),
    ids=(
        "diagonal",
        "off-diagonal",
        "symmetric-pair",
        "imaginary-diagonal",
        "imaginary-off-diagonal",
        "imaginary-hermitian-pair",
        "non-square",
    ),
)
def test_every_non_finite_placement_is_refused(shape, cells, imaginary, value):
    rho = np.eye(*shape) / 3
    if imaginary:
        rho = rho.astype(complex)
        for sign, cell in zip((1, -1), cells):
            rho[cell] = complex(rho[cell].real, sign * value)
        states = [rho]
    else:
        for cell in cells:
            rho[cell] = value
        states = [rho, rho.astype(complex)]
    for state in states:
        with pytest.raises(ValueError) as exc:
            validate_density_matrix(state)
        assert str(exc.value) == NON_FINITE


@pytest.mark.parametrize(
    "rho,dtype",
    (
        (np.eye(2) / 2, np.float64),
        (np.eye(2, dtype=np.float32) / 2, np.float64),
        ([[1, 0], [0, 0]], np.float64),
        ([[0.5, 0.5j], [-0.5j, 0.5]], np.complex128),
        (np.eye(2, dtype=np.complex64) / 2, np.complex128),
        (np.eye(2, dtype=complex) / 2, np.complex128),
    ),
)
def test_return_dtype_follows_input(rho, dtype):
    out = validate_density_matrix(rho)
    assert out.dtype == dtype
    assert np.array_equal(out, rho)
    # no conversion needed: the caller's own array comes back
    assert (out is rho) == (isinstance(rho, np.ndarray) and rho.dtype == dtype)


def test_real_validation_holds_two_arrays_at_peak():
    d = 1024
    rho = projector(max_entangled_state(32)).real.copy()
    tracemalloc.start()
    try:
        assert validate_density_matrix(rho) is rho
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the shifted working copy and one more d x d array: the defect's temporary, then the factor
    assert peak < 2.5 * 8 * d * d
