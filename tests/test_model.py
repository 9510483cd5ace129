import numpy as np
import pytest

from happer.errors import SubspaceIsolationError
from happer.model import (FieldDirection, ModelParams, build_hamiltonian, conserved_j,
                          momentum_hamiltonian, projected_hamiltonian,
                          semimetal_hamiltonian, spin_axis_commutator, zeeman_params)
from happer.operators import SpinQuantumNumber, commutator
from happer.spectrum import eigensystem, level_positions, track_levels


def reference_crossing_matrix(theta: float, phi: float) -> np.ndarray:
    """Closed-form 9x9 matrix of H at L = 1, x = 2/3, y = 0 in the product basis."""
    c = np.cos(theta)
    ep = np.sin(theta) * np.exp(1j * phi) / np.sqrt(2)
    em = np.sin(theta) * np.exp(-1j * phi) / np.sqrt(2)
    t = 2.0 / 3.0
    h = np.array([
        [c + t, 0, 0, em, 0, 0, 0, 0, 0],
        [0, c, 0, t, em, 0, 0, 0, 0],
        [0, 0, c - t, 0, t, em, 0, 0, 0],
        [ep, t, 0, 0, 0, 0, em, 0, 0],
        [0, ep, t, 0, 0, 0, t, em, 0],
        [0, 0, ep, 0, 0, 0, 0, t, em],
        [0, 0, 0, ep, t, 0, -c - t, 0, 0],
        [0, 0, 0, 0, ep, t, 0, -c, 0],
        [0, 0, 0, 0, 0, ep, 0, 0, t - c],
    ], dtype=complex)
    return h


@pytest.mark.parametrize("theta,phi", [(0.8, 1.3), (2.1, 4.0), (np.pi / 2, 0.0)])
def test_matches_closed_form_crossing_matrix(theta, phi):
    p = ModelParams(2, 2 / 3, 0.0, FieldDirection(theta, phi))
    assert np.max(np.abs(build_hamiltonian(p) - reference_crossing_matrix(theta, phi))) < 1e-14


def test_decoupled_zeeman_spectrum():
    for two_l in (1, 2, 4):
        p = ModelParams(two_l, 0.0, 0.0, FieldDirection(0.0, 0.0))
        w = np.linalg.eigvalsh(build_hamiltonian(p))
        assert np.allclose(np.sort(w), np.repeat([-1.0, 0.0, 1.0], two_l + 1), atol=1e-12)


def test_crossing_energy_multiplicity():
    p = ModelParams(2, 2 / 3, 0.0, FieldDirection(0.0, 0.0))
    w = np.linalg.eigvalsh(build_hamiltonian(p))
    assert np.sum(np.abs(w + 1 / 3) < 1e-10) == 3


def test_hamiltonian_is_hermitian_and_traceless():
    rng = np.random.default_rng(7)
    for _ in range(20):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        p = ModelParams(int(rng.integers(0, 5)), rng.uniform(-2, 2), rng.uniform(-0.5, 0.5),
                        FieldDirection(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)),
                        tuple(axis))
        h = build_hamiltonian(p)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12
        assert abs(np.trace(h)) < 1e-10


def test_spectrum_is_rotation_invariant():
    rng = np.random.default_rng(3)
    p0 = ModelParams(2, 0.8, 0.0, FieldDirection(0.0, 0.0))
    w0 = np.linalg.eigvalsh(build_hamiltonian(p0))
    for _ in range(10):
        p = p0.with_field(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
        w = np.linalg.eigvalsh(build_hamiltonian(p))
        assert np.max(np.abs(w - w0)) < 1e-10


def test_conserved_j_diagonal_at_pole():
    p = ModelParams(2, 0.7, 0.0, FieldDirection(0.0, 0.0))
    j = conserved_j(p)
    assert np.max(np.abs(j - np.diag(np.diag(j)))) < 1e-14
    vals = np.sort(np.linalg.eigvalsh(j))
    assert np.allclose(vals[[0, -1]], [-2.0, 2.0], atol=1e-12)


def test_axis_commutator_closed_form():
    rng = np.random.default_rng(11)
    for _ in range(25):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        p = ModelParams(2, rng.uniform(0, 2), rng.uniform(-0.3, 0.3),
                        FieldDirection(rng.uniform(0.05, np.pi - 0.05),
                                       rng.uniform(0, 2 * np.pi)), tuple(axis))
        lhs = commutator(conserved_j(p), build_hamiltonian(p))
        rhs = spin_axis_commutator(p)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_axis_commutator_vanishes_only_when_aligned():
    p = ModelParams(2, 0.5, 0.2, FieldDirection(0.0, 0.0), (0.0, 0.0, 1.0))
    assert np.max(np.abs(spin_axis_commutator(p))) == 0.0
    anti = ModelParams(2, 0.5, 0.2, FieldDirection(np.pi, 0.0), (0.0, 0.0, 1.0))
    assert np.max(np.abs(spin_axis_commutator(anti))) < 1e-15
    tilted = ModelParams(2, 0.5, 0.2, FieldDirection(1.0, 0.3), (0.0, 0.0, 1.0))
    assert np.max(np.abs(commutator(conserved_j(tilted), build_hamiltonian(tilted)))) > 1e-3


def test_zero_axis_coupling_gives_zero_commutator():
    p = ModelParams(2, 0.5, 0.0, FieldDirection(1.0, 0.3))
    assert np.max(np.abs(spin_axis_commutator(p))) == 0.0


def test_semimetal_spin_half():
    h = semimetal_hamiltonian(np.array([0.0, 0.0, 1.0]), SpinQuantumNumber(1))
    assert np.allclose(np.linalg.eigvalsh(h), [-0.5, 0.5])
    h2 = semimetal_hamiltonian(np.array([0.3, -0.4, 1.2]), SpinQuantumNumber(2))
    k = np.linalg.norm([0.3, -0.4, 1.2])
    assert np.allclose(np.linalg.eigvalsh(h2), [-k, 0.0, k], atol=1e-12)


def test_momentum_form_matches_scaled_unit_field():
    k = np.array([0.6, -0.8, 1.2])
    k_mag = np.linalg.norm(k)
    theta = np.arccos(k[2] / k_mag)
    phi = np.arctan2(k[1], k[0]) % (2 * np.pi)
    h = momentum_hamiltonian(k, 2)
    p_eff = ModelParams(2, 1.0 / k_mag, 0.0, FieldDirection(theta, phi))
    h_eff = build_hamiltonian(p_eff)
    assert np.max(np.abs(h - k_mag * h_eff)) < 1e-12


def test_momentum_form_triple_degeneracy_on_shell():
    h = momentum_hamiltonian(np.array([0.0, 0.9, 1.2]), 2)  # |k| = 3/2
    w = np.linalg.eigvalsh(h)
    assert np.sum(np.abs(w - (-0.5)) < 1e-9) == 3  # |k| * E*(L=1) = 1.5 * (-1/3)


def test_projected_hamiltonian_full_set_is_identity():
    p = ModelParams(2, 0.9, 0.0, FieldDirection(0.4, 1.0))
    es = eigensystem(build_hamiltonian(p), p)
    hp = projected_hamiltonian(p, range(1, 10), es)
    assert np.max(np.abs(hp - build_hamiltonian(p))) < 1e-10


def test_projected_hamiltonian_keeps_band_energies():
    p = ModelParams(2, 0.5, 0.0, FieldDirection(0.4, 1.0))
    es = eigensystem(build_hamiltonian(p), p)
    hp = projected_hamiltonian(p, (3, 4, 5), es)
    w = np.linalg.eigvalsh(hp)
    nonzero = np.sort(w[np.abs(w) > 1e-8])
    positions = level_positions(p)
    expected = np.sort(es.eigenvalues[[positions[2], positions[3], positions[4]]])
    assert len(nonzero) == 3
    assert np.max(np.abs(nonzero - expected)) < 1e-10


def test_projected_hamiltonian_rejects_degenerate_cut():
    p = ModelParams(2, 2 / 3, 0.0, FieldDirection(0.4, 1.0))
    es = eigensystem(build_hamiltonian(p), p)
    with pytest.raises(SubspaceIsolationError, match="touch"):
        projected_hamiltonian(p, (3, 4), es)


def test_projected_hamiltonian_takes_an_isolated_noncontiguous_set():
    # Contiguity is a Chern-scheme requirement; a projection needs isolation only.
    p = ModelParams(2, 1.0, 0.0, FieldDirection(0.4, 1.0))
    es = eigensystem(build_hamiltonian(p), p)
    frame = es.eigenvectors[:, level_positions(p)[[0, 8]]]
    proj = frame @ frame.conj().T
    hp = projected_hamiltonian(p, (9, 1), es)
    assert np.max(np.abs(hp - proj @ build_hamiltonian(p) @ proj)) < 1e-12


def test_validation_errors():
    with pytest.raises(ValueError):
        ModelParams(2, 1.0, 0.0, FieldDirection(0.1, 0.0), (0.0, 0.0, 2.0))
    with pytest.raises(ValueError):
        FieldDirection(-0.1, 0.0)
    with pytest.raises(ValueError):
        ModelParams(-1, 1.0)


def test_zeeman_params_is_pure_precession():
    p = zeeman_params(0.3, 0.4)
    h = build_hamiltonian(p)
    assert h.shape == (3, 3)
    assert np.allclose(np.linalg.eigvalsh(h), [-1.0, 0.0, 1.0], atol=1e-12)
