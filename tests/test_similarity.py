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
    QC,
    QR,
    GroupTag,
    close,
    conj_transpose,
    det,
    diagonal,
    identity,
    inv,
    mat,
    mul,
    random_gl,
    random_sl,
    random_unitary,
    smul,
    trace,
    transpose,
)
from localaut.recover import generating_pair
from localaut.scalars import GaussRational
from localaut.similarity import (
    intertwiner_basis,
    simultaneous_similarity,
    unitary_intertwiner,
    verify_intertwines,
)


def _conjugates(t, mats):
    return [(a, mul(mul(t, a), inv(t))) for a in mats]


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
    # a and a^2 have traces 4 and 8 and share the eigenvalue 1, so the
    # intertwiner space is a line, and the simplex sweep finds it singular
    a = random_sl(3, QR, random.Random(9))
    b = mul(a, a)
    assert (trace(a), trace(b)) == (4, 8)
    res = simultaneous_similarity([(a, b)])
    assert (res.status, res.dim, res.s) == ("NoSolution", 1, None)
    # disjoint spectra leave only S = 0
    res = simultaneous_similarity([(diagonal([1, 2, 3], QR), diagonal([4, 5, 6], QR))])
    assert (res.status, res.dim, res.s) == ("NoSolution", 0, None)


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


def _pivot_columns(rows):
    """The columns of the rows of field scalars that are independent of the
    columns before them: the pivots of textbook row elimination."""
    m, pivots = [list(r) for r in rows], []
    for c in range(len(m[0])):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c] / m[r][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return pivots


def _builder_samples(regime, n):
    """Words of 1, 3 and 8 shears, a diagonal with a repeated entry, a
    scalar, and the recovery generating pair D, C."""
    rng = random.Random(f"builder-{regime}-{n}")
    words = [random_sl(n, regime, rng, k) for k in (1, 3, 8)]
    diag = diagonal([j // 2 + 1 for j in range(n)], regime)
    group = GroupTag("SL", "R" if regime == QR else "C", n)
    return [*words, diag, smul(3, identity(n, regime)), *generating_pair(group)]


@pytest.mark.parametrize("regime", (QR, QC))
@pytest.mark.parametrize("n", range(3, 9))
def test_greedy_basis_matches_the_rank_reference(regime, n):
    """The chains are the pivots of [e_1, A e_1, ..., A^(n-1) e_1, e_2, ...],
    U is invertible, and each tail is A times the end of its chain and lies
    in the span of the columns of U up to that end."""
    for a in _builder_samples(regime, n):
        a = similarity._integral(a, a)[0]
        chains, u, tails = similarity._greedy_basis(a)
        powers = [identity(n, regime)]
        while len(powers) < n:
            powers.append(mul(a, powers[-1]))
        krylov = [[powers[c % n][p, c // n] for c in range(n * n)] for p in range(n)]
        pivots = _pivot_columns(krylov)
        assert pivots == [j * n + t for j, k in chains for t in range(k)]
        assert det(u) != 0
        assert u.rows() == [[row[c] for c in pivots] for row in krylov]
        au, end = mul(a, u), 0
        for (_, k), (re, im) in zip(chains, tails, strict=True):
            end += k
            tail = list(re) if im is None else [GaussRational(x, y) for x, y in zip(re, im)]
            assert tail == [au[p, end - 1] for p in range(n)]
            assert _pivot_columns([[*u.rows()[p][:end], tail[p]] for p in range(n)]) == list(range(end))


@pytest.mark.parametrize("regime", (QR, QC))
def test_the_solve_takes_the_first_sample_with_one_chain(monkeypatch, regime):
    """On the generating pair (D, C) the diagonal D gives n chains and the
    signed cycle C one, so the builder runs on both and the solve takes C;
    with C first, it runs on C alone."""
    n = 5
    d, c = generating_pair(GroupTag("SL", "R" if regime == QR else "C", n))
    greedy, built = similarity._greedy_basis, []
    monkeypatch.setattr(similarity, "_greedy_basis", lambda a: built.append(greedy(a)) or built[-1])
    assert intertwiner_basis([(d, d), (c, c)]) == [identity(n, regime)]
    assert [len(chains) for chains, _, _ in built] == [n, 1]
    built.clear()
    assert intertwiner_basis([(c, c), (d, d)]) == [identity(n, regime)]
    assert [len(chains) for chains, _, _ in built] == [1]


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
