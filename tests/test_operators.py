import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from happer.errors import HermiticityError
from happer.operators import SpinQuantumNumber, commutator, require_hermitian, spin_operators


def test_sz_is_diagonal_descending_spin1():
    s = spin_operators(SpinQuantumNumber(2))
    assert np.allclose(s.sz, np.diag([1.0, 0.0, -1.0]))


def test_spin_half_sx_offdiagonal():
    s = spin_operators(SpinQuantumNumber(1))
    assert np.allclose(s.sx, np.array([[0, 0.5], [0.5, 0]]))
    assert np.allclose(np.diag(s.sx), 0)


def test_casimir_spin2():
    s = spin_operators(SpinQuantumNumber(4))
    assert np.allclose(s.casimir(), 6 * np.eye(5), atol=1e-12)


@pytest.mark.parametrize("two_j", range(0, 9))
def test_angular_momentum_algebra(two_j):
    s = spin_operators(SpinQuantumNumber(two_j))
    j = two_j / 2
    for a, b, c in ((s.sx, s.sy, s.sz), (s.sy, s.sz, s.sx), (s.sz, s.sx, s.sy)):
        assert np.max(np.abs(commutator(a, b) - 1j * c)) < 1e-12
    assert np.max(np.abs(s.casimir() - j * (j + 1) * np.eye(two_j + 1))) < 1e-12
    for comp in (s.sx, s.sy, s.sz):
        assert np.max(np.abs(comp - comp.conj().T)) < 1e-12


@pytest.mark.parametrize("two_j", [1, 2, 3, 5, 8])
def test_ladder_norms(two_j):
    q = SpinQuantumNumber(two_j)
    s = spin_operators(q)
    j = q.j
    raising = s.sx + 1j * s.sy
    for i, m in enumerate(q.m_values()):
        basis = np.zeros(q.dim, dtype=complex)
        basis[i] = 1.0
        expected = np.sqrt(max(j * (j + 1) - m * (m + 1), 0.0))
        assert abs(np.linalg.norm(raising @ basis) - expected) < 1e-12


def test_commutator_basics():
    s = spin_operators(SpinQuantumNumber(3))
    assert np.max(np.abs(commutator(s.sx, s.sy) - 1j * s.sz)) < 1e-12
    m = np.arange(16).reshape(4, 4).astype(complex)
    assert np.max(np.abs(commutator(m, np.eye(4)))) == 0
    with pytest.raises(ValueError):
        commutator(np.eye(2), np.eye(3))


@settings(max_examples=15, deadline=None)
@given(theta=st.floats(0.05, 3.1), phi=st.floats(0.0, 6.2), x=st.floats(-2.0, 2.0))
def test_conserved_j_commutes_without_axis_term(theta, phi, x):
    from happer.model import FieldDirection, ModelParams, build_hamiltonian, conserved_j
    p = ModelParams(2, x, 0.0, FieldDirection(theta, phi))
    c = commutator(conserved_j(p), build_hamiltonian(p))
    assert np.max(np.abs(c)) < 1e-12


def test_require_hermitian():
    require_hermitian(np.diag([1.0, 2.0]).astype(complex))
    with pytest.raises(HermiticityError):
        require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    stack = np.stack([np.diag([1.0, 2.0]), np.array([[0.0, 1.0], [1.0, 0.0]])]).astype(complex)
    assert require_hermitian(stack) is stack
    stack[1, 0, 1] += 1e-9
    with pytest.raises(HermiticityError):
        require_hermitian(stack)
