import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qunit_bell.bases import computational_basis, fourier_basis, intermediate_family
from qunit_bell.functional import (
    SETTING_A,
    SETTING_A_PRIME,
    bell_operator,
    bell_setup,
    build_layout,
    joint_click_table,
    max_entangled_state,
    quantum_value,
)
from qunit_bell.linalg import hermiticity_defect, projector
from qunit_bell.noise import KIND_UNCOLORED, mixed_state, threshold_numeric
from test_bases import intermediate_state


def random_density(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def oracle_click_table(rho, N):
    """Reference table: every joint ket a^x_u (x) m_vj built by kron, O(N^7)."""
    layout = loop_layout(N)
    m_flat = intermediate_family(N).reshape(N * N, N)
    slot = layout[:, :, 0] * N + layout[:, :, 1]  # (v, j) -> flat m index
    probs = np.empty((2, N, N, N))
    for x, alice in enumerate((computational_basis(N), fourier_basis(N))):
        joint = np.kron(alice, m_flat)  # rows u*N^2 + s are the kets a_u x m_s
        p = np.einsum("ij,jk,ik->i", joint.conj(), rho, joint).real
        probs[x] = p.reshape(N, N * N)[:, slot]
    return probs


def reference_bell_operator(N):
    """W = sum_xu |a^x_u><a^x_u| (x) sum_vj c[x,u,v,j] |m_vj><m_vj|, summed term by term.

    Built from intermediate_family, loop_layout and loop_coefficients alone,
    never from bell_setup or the closed form alpha 1 + beta (P_Z + P_X).
    """
    alice = np.stack([computational_basis(N), fourier_basis(N)])
    assignment = loop_layout(N)
    bob = intermediate_family(N)[assignment[..., 0], assignment[..., 1]]
    c = loop_coefficients(N)
    alice_proj = np.einsum("xua,xuc->xuac", alice, alice.conj())
    bob_part = np.einsum("xuvj,vjb,vjd->xubd", c, bob, bob.conj())
    return np.einsum("xuac,xubd->abcd", alice_proj, bob_part).reshape(N * N, N * N)


def schmidt_spectrum(psi, N):
    """Descending squared Schmidt coefficients of a bipartite ket, by an SVD of its N x N reshape."""
    return np.linalg.svd(np.reshape(psi, (N, N)), compute_uv=False) ** 2


def entanglement_entropy(schmidt):
    """Von Neumann entropy -sum s ln s of a squared-Schmidt spectrum."""
    s = schmidt[schmidt > 1e-15]
    return float(-np.sum(s * np.log(s)))


def loop_layout(N):
    assignment = np.empty((N, N, 2), dtype=int)
    for v in range(N):
        for j in range(N):
            assignment[v, j] = (v, (v + j) % N)
    return assignment


def loop_coefficients(N):
    c = np.full((2, N, N, N), -1, dtype=np.int8)
    for u in range(N):
        for j in range(N):
            c[SETTING_A, u, u, j] = 1
            c[SETTING_A_PRIME, u, (-u - j) % N, j] = 1
    return c


@pytest.mark.parametrize("N", range(2, 9))
def test_broadcast_construction_matches_loops(N):
    layout = build_layout(N)
    assert layout.dtype == loop_layout(N).dtype
    assert np.array_equal(layout, loop_layout(N))
    c = bell_setup(N).coefficients
    assert c.dtype == np.int8
    assert np.array_equal(c, loop_coefficients(N))
    family = intermediate_family(N)
    for i in range(N):
        for j in range(N):
            assert np.abs(family[i, j] - intermediate_state(i, j, N)).max() <= 1e-15


@pytest.mark.parametrize("N", range(2, 7))
def test_setup_arrays_are_read_only(N):
    setup = bell_setup(N)
    assert setup is bell_setup(N)
    assert setup.bob.shape == (N, N, N)
    assert np.array_equal(setup.coefficients, loop_coefficients(N))
    assert setup.index.shape == setup.weights.shape == (N**2 + N + N**3,)
    for array in (setup.alice, setup.bob, setup.coefficients, setup.index, setup.weights):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 0


def test_mutating_bell_operator_copy_leaves_setup_intact():
    N = 3
    rho = projector(max_entangled_state(N))
    before = quantum_value(rho, N)
    op = bell_operator(N)
    assert op.flags.writeable
    op[:] = 0.0
    assert quantum_value(rho, N) == before
    assert np.abs(bell_operator(N) - reference_bell_operator(N)).max() < 1e-12


def test_setup_holds_no_dense_operator_at_largest_cli_dim():
    # d = 4096 here: one d x d complex array would take 268 MB
    bell_setup.cache_clear()
    tracemalloc.start()
    try:
        setup = bell_setup(64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        bell_setup.cache_clear()
    arrays = (setup.alice, setup.bob, setup.coefficients, setup.index, setup.weights)
    assert max(array.size for array in arrays) < 4096**2
    assert peak < 32 * 2**20


@pytest.mark.parametrize(
    "rho,needle",
    (
        (np.eye(9) / 9, "expected 4"),
        (np.eye(4), "trace"),
        (np.diag([1.5, -0.5, 0.0, 0.0]), "negative eigenvalue"),
    ),
)
def test_quantum_value_validates_every_state(rho, needle):
    bell_setup(2)  # a warm cache must not skip the checks
    with pytest.raises(ValueError, match=needle):
        quantum_value(rho, 2)


@pytest.mark.parametrize(
    "rho, N, message",
    ((2 * np.eye(1), 1, "must be at least 2, got 1$"), (np.eye(4) / 4, 2.5, "must be an integer, got 2.5$")),
    ids=("1", "2.5"),
)
def test_quantum_value_checks_N_before_rho(rho, N, message):
    with pytest.raises(ValueError, match=f"^local dimension {message}"):
        quantum_value(rho, N)


@pytest.mark.parametrize("N", (np.array(3), np.int64(3)))
def test_quantum_value_takes_any_integer_dimension(N):
    rho = mixed_state(KIND_UNCOLORED, 3, 0.5)
    assert quantum_value(rho, N) == quantum_value(rho, 3)
    assert threshold_numeric(KIND_UNCOLORED, N) == threshold_numeric(KIND_UNCOLORED, 3)


def test_warm_setup_does_not_admit_a_float_dimension():
    # np.int64(3) == 3.0 with the same hash, so an untyped cache would hand 3.0 its entry unchecked
    rho = projector(max_entangled_state(3))
    bell_setup(np.int64(3))
    for evaluate in (quantum_value, joint_click_table):
        with pytest.raises(ValueError, match="^local dimension must be an integer, got 3.0$"):
            evaluate(rho, 3.0)


def ginibre_mixture(N, seed, lam):
    """lam |psi><psi| + (1 - lam) G G^dag / Tr(G G^dag) with G complex Gaussian."""
    noise = random_density(np.random.default_rng(seed), N * N)
    return lam * projector(max_entangled_state(N)) + (1.0 - lam) * noise, noise


mixtures = dict(
    N=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
    lam=st.floats(0.0, 1.0),
)


@settings(max_examples=60, deadline=None)
@given(**mixtures)
def test_table_trace_and_oracle_agree(N, seed, lam):
    rho, _ = ginibre_mixture(N, seed, lam)
    table = joint_click_table(rho, N)
    oracle = oracle_click_table(rho, N)
    assert np.abs(table - oracle).max() < 1e-10
    via_table = float(np.sum(bell_setup(N).coefficients * table))
    via_oracle = float(np.sum(loop_coefficients(N) * oracle))
    via_trace = float(np.vdot(reference_bell_operator(N), rho).real)
    via_closed_form = quantum_value(rho, N)
    assert abs(via_table - via_trace) < 1e-10
    assert abs(via_oracle - via_trace) < 1e-10
    assert abs(via_closed_form - via_trace) < 1e-10


@settings(max_examples=60, deadline=None)
@given(**mixtures)
def test_value_bounded_and_affine_in_mixing_weight(N, seed, lam):
    rho, noise = ginibre_mixture(N, seed, lam)
    value = quantum_value(rho, N)
    assert value <= 2 * np.sqrt(N) + 1e-9
    pure = quantum_value(projector(max_entangled_state(N)), N)
    assert abs(value - (lam * pure + (1.0 - lam) * quantum_value(noise, N))) < 1e-10


def test_layout_assignments_n3():
    layout = build_layout(3)
    assert tuple(layout[2, 1]) == (2, 0)  # m_20
    assert tuple(layout[1, 2]) == (1, 0)  # m_10
    assert tuple(layout[0, 0]) == (0, 0)  # m_00


def test_layout_assignment_n4():
    assert tuple(build_layout(4)[3, 1]) == (3, 0)  # m_30


@pytest.mark.parametrize("N", range(2, 7))
def test_layout_is_a_bijection(N):
    layout = build_layout(N)
    seen = {tuple(layout[v, j]) for v in range(N) for j in range(N)}
    assert seen == {(i, l) for i in range(N) for l in range(N)}


@pytest.mark.parametrize("N", range(2, 7))
def test_functional_block_structure(N):
    c = bell_setup(N).coefficients
    assert c.shape == (2, N, N, N)
    assert c.size == 2 * N * N * N  # 2N x N^2 terms
    assert set(np.unique(c)) <= {-1, 1}
    for x in range(2):
        for u in range(N):
            for j in range(N):
                block = c[x, u, :, j]
                assert np.sum(block == 1) == 1
                assert np.sum(block == -1) == N - 1
                assert block.sum() == 2 - N


def test_functional_a_rule():
    c = bell_setup(3).coefficients
    for u in range(3):
        for j in range(3):
            assert c[SETTING_A, u, u, j] == 1


def test_functional_a_prime_examples_n3():
    c = bell_setup(3).coefficients
    # Alice a'_0 with group M_1 clicks at value 2, the slot of m_20
    assert c[SETTING_A_PRIME, 0, 2, 1] == 1
    # Alice a'_1 correlates Bob with a'_2; group M_1 clicks at value 1 (m_12)
    assert c[SETTING_A_PRIME, 1, 1, 1] == 1
    assert tuple(build_layout(3)[1, 1]) == (1, 2)


def test_functional_n2_blocks():
    c = bell_setup(2).coefficients
    for x in range(2):
        for u in range(2):
            for j in range(2):
                assert sorted(c[x, u, :, j]) == [-1, 1]


def test_a_prime_rule_equivalent_to_conditional_state_form():
    # Alternative statement of the same rule: for group j the correct value is
    # Bob's conditional Fourier label plus N-j (mod N).  Alice outcome u leaves
    # Bob with a'_{(N-u) mod N}.  Pinned on the three group-1 terms for N=3:
    # Bob a'_0 -> m_20, Bob a'_1 -> m_01, Bob a'_2 -> m_12.
    N = 3
    c = bell_setup(N).coefficients
    layout = build_layout(N)
    expected_states = {0: (2, 0), 1: (0, 1), 2: (1, 2)}
    for bob_label, state in expected_states.items():
        u = (N - bob_label) % N
        v = (bob_label + N - 1) % N
        assert c[SETTING_A_PRIME, u, v, 1] == 1
        assert tuple(layout[v, 1]) == state


def test_click_table_max_entangled_a_side():
    rho = projector(max_entangled_state(3))
    table = joint_click_table(rho, 3)
    want = (1 / 3) * (0.5 + 0.5 / np.sqrt(3))
    assert abs(table[SETTING_A, 0, 0, 0] - want) < 1e-12


def test_click_table_max_entangled_a_prime_side():
    # independent Born-rule oracle for p[A'][0][(2,1)]
    N = 3
    rho = projector(max_entangled_state(N))
    table = joint_click_table(rho, N)
    m_20 = intermediate_family(N)[2, 0]
    joint = np.kron(fourier_basis(N)[0], m_20)
    want = np.vdot(joint, rho @ joint).real
    got = table[SETTING_A_PRIME, 0, 2, 1]
    assert abs(got - want) < 1e-12
    assert abs(got - (1 / 3) * (0.5 + 0.5 / np.sqrt(3))) < 1e-10


def test_click_table_maximally_mixed():
    N = 3
    table = joint_click_table(np.eye(9) / 9, N)
    assert np.abs(table - 1 / 9).max() < 1e-12


def test_click_table_entries_and_marginals():
    rng = np.random.default_rng(41)
    for N in (2, 3, 4):
        for _ in range(5):
            p = joint_click_table(random_density(rng, N * N), N)
            assert p.min() > -1e-12
            assert p.max() < 1 + 1e-12
            # click probability marginalized over Alice outcomes cannot exceed 1
            assert p.sum(axis=1).max() < 1 + 1e-9


def test_click_table_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        joint_click_table(np.eye(4) / 4, 3)


def signed_table_sum(rho, N):
    """B_N as the coefficient-weighted sum of the click table."""
    return float(np.sum(bell_setup(N).coefficients * joint_click_table(rho, N)))


def test_evaluate_max_entangled_n3():
    N = 3
    assert abs(signed_table_sum(projector(max_entangled_state(N)), N) - 2 * np.sqrt(3)) < 1e-10


def test_evaluate_maximally_mixed_n3():
    assert abs(signed_table_sum(np.eye(9) / 9, 3) - (-2.0)) < 1e-10


def test_evaluate_chsh_value():
    N = 2
    assert abs(signed_table_sum(projector(max_entangled_state(N)), N) - 2 * np.sqrt(2)) < 1e-10


def test_quantum_value_n5():
    rho = projector(max_entangled_state(5))
    assert abs(quantum_value(rho, 5) - 2 * np.sqrt(5)) < 1e-9


def test_quantum_value_product_state_respects_lhv_bound():
    a0 = computational_basis(3)[0]
    rho = projector(np.kron(a0, a0))
    assert quantum_value(rho, 3) <= 2 + 1e-9


def test_quantum_value_separable_diagonal():
    # (1/3) sum_i |a_i a_i><a_i a_i| evaluates to sqrt(3) - 1
    rho = np.zeros((9, 9), dtype=complex)
    rho[[0, 4, 8], [0, 4, 8]] = 1 / 3
    assert abs(quantum_value(rho, 3) - (np.sqrt(3) - 1)) < 1e-10


def test_max_entangled_schmidt():
    assert np.allclose(schmidt_spectrum(max_entangled_state(3), 3), [1 / 3] * 3, atol=1e-12)


def test_max_entangled_fourier_pairing():
    # the A'xA' expansion pairs label l with (N-l) mod N
    N = 3
    psi = max_entangled_state(N)
    ap = fourier_basis(N)
    paired = np.vdot(np.kron(ap[1], ap[2]), psi)
    absent = np.vdot(np.kron(ap[1], ap[1]), psi)
    assert abs(paired - 1 / np.sqrt(3)) < 1e-12
    assert abs(absent) < 1e-12


def test_correlation_rule_soundness():
    # each of the 2N (setting, group) combinations contributes exactly 1/sqrt(N)
    for N in range(2, 7):
        rho = projector(max_entangled_state(N))
        table = joint_click_table(rho, N)
        c = bell_setup(N).coefficients
        per_combo = np.sum(c * table, axis=(1, 2))  # (x, j)
        assert np.abs(per_combo - 1 / np.sqrt(N)).max() < 1e-10


def test_coefficient_balance():
    for N in range(2, 7):
        c = bell_setup(N).coefficients
        assert int(c.sum()) == 2 * N * N * (2 - N)


@pytest.mark.parametrize("N", range(2, 7))
def test_bell_operator_hermitian(N):
    assert hermiticity_defect(bell_operator(N)) < 1e-12


def test_bell_operator_top_eigenvalues():
    for N, want in ((2, 2 * np.sqrt(2)), (3, 2 * np.sqrt(3))):
        assert abs(np.linalg.eigvalsh(bell_operator(N))[-1] - want) < 1e-8


@pytest.mark.parametrize("N", range(2, 13))
def test_closed_form_operator_matches_reference(N):
    assert np.abs(bell_operator(N) - reference_bell_operator(N)).max() < 1e-12


@pytest.mark.parametrize("N", range(2, 9))
def test_reference_operator_has_three_eigenvalues(N):
    # alpha + 2 beta = 2 sqrt(N) on psi, alpha + beta on the other Phi_0l and
    # Phi_k0, alpha on the rest of the Bell basis
    setup = bell_setup(N)
    alpha, beta = setup.alpha, setup.beta
    w = np.linalg.eigvalsh(reference_bell_operator(N))
    expected = ((alpha + 2 * beta, 1), (alpha + beta, 2 * (N - 1)), (alpha, (N - 1) ** 2))
    for value, multiplicity in expected:
        assert np.sum(np.abs(w - value) < 1e-9) == multiplicity
    assert abs(alpha + 2 * beta - 2 * np.sqrt(N)) < 1e-12


@pytest.mark.parametrize("N", range(2, 9))
def test_product_states_meet_fixed_setting_separable_bound(N):
    # S_Z + S_X <= 1 + 1/N on product states, the two-MUB witness of Spengler
    # et al., PRA 86, 022311 (2012); |00> attains it.
    setup = bell_setup(N)
    bound = setup.alpha + setup.beta * (1 + 1 / N)
    assert bound <= np.sqrt(2) + 1e-12  # equality at N = 2; below the LHV bound 2
    a0 = computational_basis(N)[0]
    assert abs(quantum_value(projector(np.kron(a0, a0)), N) - bound) < 1e-12
    rng = np.random.default_rng(300 + N)
    for _ in range(300):
        a, b = rng.normal(size=(2, N)) + 1j * rng.normal(size=(2, N))
        psi = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
        assert quantum_value(projector(psi), N) <= bound + 1e-12


@pytest.mark.parametrize("N", range(2, 7))
def test_operator_matches_functional_on_random_states(N):
    rng = np.random.default_rng(100 + N)
    op = reference_bell_operator(N)
    for _ in range(20):
        rho = random_density(rng, N * N)
        via_table = quantum_value(rho, N)
        via_operator = np.trace(rho @ op).real
        assert abs(via_table - via_operator) < 1e-9


@pytest.mark.parametrize("N", range(2, 11))
@pytest.mark.parametrize("scale", (1 + 9e-11, 1 - 9e-11))
def test_value_is_trace_with_operator_off_unit_trace(N, scale):
    # the validator admits |Tr rho - 1| <= 1e-10, so alpha must be weighted by Tr rho
    rho = scale * projector(max_entangled_state(N))
    via_operator = np.trace(rho @ reference_bell_operator(N)).real
    assert abs(quantum_value(rho, N) - via_operator) < 1e-12
    assert abs(np.trace(rho @ bell_operator(N)).real - via_operator) < 1e-12


@pytest.mark.parametrize("N", range(2, 7))
def test_top_eigenvector_matches_max_entangled_value(N):
    op = reference_bell_operator(N)
    w, vecs = np.linalg.eigh(op)
    top = vecs[:, -1] / np.linalg.norm(vecs[:, -1])
    via_top = np.vdot(top, op @ top).real
    via_psi = quantum_value(projector(max_entangled_state(N)), N)
    assert abs(via_top - via_psi) < 1e-8
    assert abs(via_psi - w[-1]) < 1e-8


@pytest.mark.parametrize("N", range(2, 7))
def test_top_eigenvector_is_maximally_entangled(N):
    # the spectral certificate: W built term by term has a simple top
    # eigenvalue, and its eigenvector is psi, with Schmidt spectrum 1/N and entropy ln N
    setup = bell_setup(N)
    w, vecs = np.linalg.eigh(reference_bell_operator(N))
    top = vecs[:, -1]
    assert abs(w[-1] - setup.max_eigenvalue) < 1e-8
    assert abs(w[-1] - w[-2] - setup.beta) < 1e-8
    schmidt = schmidt_spectrum(top, N)
    assert np.abs(schmidt - 1 / N).max() < 1e-8
    assert abs(entanglement_entropy(schmidt) - np.log(N)) < 1e-8
    assert abs(abs(np.vdot(top, max_entangled_state(N))) - 1) < 1e-8
