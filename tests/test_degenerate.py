import numpy as np
import pytest

from happer.degenerate import (analytic_degenerate_states, degenerate_energy,
                               gram_schmidt, raw_degenerate_vectors)
from happer.model import FieldDirection, ModelParams, build_hamiltonian
from happer.spectrum import eigensystem


def crossing_params(two_l: int, theta: float, phi: float) -> ModelParams:
    return ModelParams(two_l, 2.0 / (two_l + 1), 0.0, FieldDirection(theta, phi))


def test_frozen_value_at_equator():
    frame = analytic_degenerate_states(1, np.pi / 2, 0.0)
    expected = np.array([1 / 3, 2 * np.sqrt(2) / 3, 0, -np.sqrt(2) / 3, 0, 0, -1, 0, 0],
                        dtype=complex)
    assert np.max(np.abs(frame.raw[:, 2] - expected)) < 1e-14


@pytest.mark.parametrize("l,two_l,count", [(1, 2, 3), (2, 4, 5)])
def test_vectors_annihilated_at_crossing(l, two_l, count):
    rng = np.random.default_rng(17)
    e_star = degenerate_energy(two_l)
    for _ in range(15):
        theta = rng.uniform(0.15, np.pi - 0.15)
        phi = rng.uniform(0, 2 * np.pi)
        h = build_hamiltonian(crossing_params(two_l, theta, phi))
        raw = raw_degenerate_vectors(l, theta, phi)
        assert raw.shape == (3 * (two_l + 1), count)
        for k in range(count):
            v = raw[:, k]
            residual = np.linalg.norm(h @ v - e_star * v) / np.linalg.norm(v)
            assert residual < 1e-8


def test_degenerate_energy_values():
    assert abs(degenerate_energy(2) + 1 / 3) < 1e-15
    assert abs(degenerate_energy(4) + 1 / 5) < 1e-15
    assert abs(degenerate_energy(6) + 1 / 7) < 1e-15


def test_gram_schmidt_leaves_orthonormal_input():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
    q, _ = np.linalg.qr(a)
    out = gram_schmidt(q)
    assert np.max(np.abs(out - q)) < 1e-14


def test_gram_schmidt_simple_pair():
    out = gram_schmidt(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))
    assert np.allclose(out, np.eye(2))


def test_gram_schmidt_batched_equals_per_matrix():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 3, 7, 3)) + 1j * rng.normal(size=(4, 3, 7, 3))
    out = gram_schmidt(a)
    for idx in np.ndindex(a.shape[:2]):
        assert np.max(np.abs(out[idx] - gram_schmidt(a[idx]))) < 1e-14


def test_gram_schmidt_rejects_dependence():
    v = np.array([[1.0, 2.0], [1.0, 2.0]], dtype=complex)
    with pytest.raises(ValueError, match="column 1"):
        gram_schmidt(v)


def test_orthonormal_span_matches_numerical_eigenspace():
    frame = analytic_degenerate_states(1, 1.0, 0.7)
    p = crossing_params(2, 1.0, 0.7)
    es = eigensystem(build_hamiltonian(p))
    idx = np.nonzero(np.abs(es.eigenvalues - degenerate_energy(2)) < 1e-9)[0]
    numeric = es.eigenvectors[:, idx]
    p_analytic = frame.orthonormal @ frame.orthonormal.conj().T
    p_numeric = numeric @ numeric.conj().T
    assert np.linalg.norm(p_analytic - p_numeric) < 1e-8


@pytest.mark.parametrize("l", [1, 2])
def test_span_equivalence_random_points(l):
    two_l = 2 * l
    rng = np.random.default_rng(23)
    for _ in range(20):
        theta = rng.uniform(0.2, np.pi - 0.2)
        phi = rng.uniform(0, 2 * np.pi)
        frame = analytic_degenerate_states(l, theta, phi)
        p = crossing_params(two_l, theta, phi)
        es = eigensystem(build_hamiltonian(p))
        idx = np.nonzero(np.abs(es.eigenvalues - degenerate_energy(two_l)) < 1e-9)[0]
        numeric = es.eigenvectors[:, idx]
        diff = (frame.orthonormal @ frame.orthonormal.conj().T
                - numeric @ numeric.conj().T)
        assert np.linalg.norm(diff) < 1e-8


@pytest.mark.parametrize("l", [1, 2])
def test_frames_are_smooth(l):
    for theta, phi in ((0.7, 0.4), (1.9, 3.3), (2.6, 5.1)):
        a = analytic_degenerate_states(l, theta, phi).orthonormal
        b = analytic_degenerate_states(l, theta + 1e-4, phi).orthonormal
        assert np.linalg.norm(a - b) < 1e-3


def test_pole_margin_raises():
    with pytest.raises(ValueError):
        analytic_degenerate_states(1, 1e-8, 0.0)
    with pytest.raises(ValueError):
        analytic_degenerate_states(2, np.pi, 0.0)
    with pytest.raises(ValueError):
        raw_degenerate_vectors(3, 1.0, 0.0)
