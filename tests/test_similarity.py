"""Simultaneous similarity: S A_i S^-1 = B_i over exact and float regimes."""
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import localaut.similarity as similarity
from localaut.errors import LocalautError

from localaut.localcheck import check_pair
from localaut.matrices import (
    C64,
    QR,
    GroupTag,
    close,
    conj_transpose,
    equal,
    identity,
    inv,
    mat,
    mul,
    random_gl,
    random_sl,
    random_unitary,
    transpose,
)
from localaut.similarity import (
    intertwiner_basis,
    simultaneous_similarity,
    unitary_intertwiner,
    verify_intertwines,
)


def _conjugates(t, mats):
    tinv = inv(t)
    return [(a, mul(mul(t, a), tinv)) for a in mats]


def test_exact_similarity_recovers_conjugation():
    rng = random.Random(2)
    t = random_gl(3, QR, rng)
    mats = [random_sl(3, QR, rng) for _ in range(4)]
    res = simultaneous_similarity(_conjugates(t, mats))
    assert res.status == "Solved"
    assert verify_intertwines(res.s, _conjugates(t, mats))
    # the recovered S equals T up to the scalar commutant
    ratio = mul(res.s, inv(t))
    lam = ratio[0, 0]
    assert lam != 0
    rows = [[lam if i == j else ratio[i, j] * 0 for j in range(3)] for i in range(3)]
    assert ratio.entries == tuple(tuple(r) for r in rows)


def test_no_solution_is_certified():
    rng = random.Random(9)
    a = random_sl(3, QR, rng)
    # a pair with mismatched traces cannot be similar
    b = mul(a, a)
    if equal(a, b):
        raise AssertionError("degenerate sample")
    res = simultaneous_similarity([(a, b)]) if _traces_differ(a, b) else None
    if res is not None:
        assert res.status in ("NoSolution", "Inconclusive")
        if res.status == "NoSolution":
            assert res.s is None


def _traces_differ(a, b):
    from localaut.matrices import trace

    return trace(a) != trace(b)


def test_transpose_pairs_have_no_common_similarity_with_fixed_witness():
    # x and x^t are always similar one at a time, but a single S rarely
    # works for a whole generic family; certify one concrete refusal
    rng = random.Random(4)
    mats = [random_sl(3, QR, rng) for _ in range(5)]
    pairs = [(a, transpose(a)) for a in mats]
    res = simultaneous_similarity(pairs)
    if res.status == "Solved":
        assert verify_intertwines(res.s, pairs)
    else:
        assert res.status == "NoSolution"


def test_unitary_intertwiner_numeric():
    t = random_unitary(3, seed=12)
    mats = [random_unitary(3, seed=100 + k) for k in range(4)]
    pairs = _conjugates(t, mats)
    u = unitary_intertwiner(pairs, seed=0)
    assert u is not None
    eye = identity(3, C64)
    assert close(mul(conj_transpose(u), u), eye, 1e-8)
    for a, b in pairs:
        assert close(mul(u, a), mul(b, u), 1e-7)


def test_numeric_search_draws_only_the_combinations_it_tries(monkeypatch):
    """Generic unitary conjugates have a one-dimensional intertwiner space,
    so the first basis element verifies and no seeded combination is drawn."""
    import numpy as np

    draws = []
    default_rng = np.random.default_rng

    class CountingRng:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def normal(self, *args, **kwargs):
            draws.append(kwargs.get("size"))
            return self.rng.normal(*args, **kwargs)

    t = random_unitary(3, seed=12)
    pairs = _conjugates(t, [random_unitary(3, seed=100 + k) for k in range(4)])
    assert len(similarity.numeric_intertwiner_basis(pairs)) == 1
    monkeypatch.setattr(np.random, "default_rng", CountingRng)
    assert unitary_intertwiner(pairs, seed=0) is not None
    assert draws == []


def test_a_non_intertwining_candidate_raises_a_package_error(monkeypatch):
    """The S A = B S check is explicit, so it holds under python -O too."""
    rng = random.Random(5)
    pairs = _conjugates(random_gl(3, QR, rng), [random_sl(3, QR, rng) for _ in range(2)])
    monkeypatch.setattr(similarity, "intertwiner_basis", lambda pairs: [identity(3, QR)])
    with pytest.raises(LocalautError):
        simultaneous_similarity(pairs)


@pytest.mark.parametrize("n", [3, 4])
def test_shear_to_identity_is_obstructed(n):
    """No automorphism of SL_n(R) sends I + E_12 to I: every S with
    S (I + E_12) = S has a zero first column. The simplex lattice certifies
    it with C(n + d - 1, n) determinants; at n = 4 the old (n + 1)^d grid
    was past the cap."""
    eye = identity(n, QR)
    rows = eye.rows()
    rows[0][1] = 1
    shear = mat(rows, QR)
    res = simultaneous_similarity([(shear, eye), (eye, eye)])
    assert (res.status, res.dim) == ("NoSolution", n * n - n)
    v = check_pair(GroupTag("SL", "R", n), (shear, eye), (eye, eye))
    assert v.status == "Obstructed"
    assert {b.detail for b in v.branches} == {"determinant vanishes identically on the intertwiner space"}


@st.composite
def _triangular(draw, n=3):
    """Upper triangular integer matrices with eigenvalues in {1, 2}: many
    share eigenvalues and differ in Jordan type, so their intertwiners are
    often all singular."""
    diag = [draw(st.sampled_from([1, 2])) for _ in range(n)]
    return mat(
        [[diag[i] if i == j else (draw(st.integers(0, 1)) if j > i else 0) for j in range(n)] for i in range(n)],
        QR,
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_triangular(), _triangular()), min_size=1, max_size=2))
def test_solver_agrees_with_the_symbolic_determinant(pairs):
    """Solved iff det(sum x_i K_i) is not the zero polynomial, by sympy."""
    basis = intertwiner_basis(pairs)
    xs = sympy.symbols(f"x0:{len(basis)}")
    generic = sympy.zeros(3, 3)
    for x, k in zip(xs, basis):
        generic += x * sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in r] for r in k.entries])
    singular = sympy.expand(generic.det()) == 0
    res = simultaneous_similarity(pairs)
    assert res.dim == len(basis)
    assert res.status == ("NoSolution" if singular else "Solved")
    if res.status == "Solved":
        assert verify_intertwines(res.s, pairs)
