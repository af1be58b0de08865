"""Evidence calculus: worked examples, algebra properties, vector/scalar parity."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from apgm import (
    BBA,
    Frame,
    FrameMismatchError,
    MassOverflowError,
    NegativeMassError,
    TotalConflictError,
    UnknownHypothesisError,
    belief,
    combine_dst,
    combine_mass_arrays,
    discount,
    make_bba,
    pignistic,
    plausibility,
    vacuous,
)
from apgm.kernels import total_conflict
from conftest import bf_combine, focal_sets, random_bba, random_mass_rows


# -- independent oracles ------------------------------------------------------


def bf_belief(bba: BBA, subset) -> float:
    subset = set(subset)
    return sum(m for s, m in focal_sets(bba) if s <= subset)


def bf_plausibility(bba: BBA, subset) -> float:
    subset = set(subset)
    return sum(m for s, m in focal_sets(bba) if s & subset)


# -- construction -------------------------------------------------------------


def test_make_bba_vacuous(occ_frame):
    b = make_bba(occ_frame, [0.0, 0.0])
    assert b.omega == 1.0
    assert np.all(b.masses == 0.0)


def test_make_bba_remainder(occ_frame):
    b = make_bba(occ_frame, [0.9, 0.0])
    assert b.omega == pytest.approx(0.1, abs=1e-12)


def test_make_bba_overflow(occ_frame):
    with pytest.raises(MassOverflowError):
        make_bba(occ_frame, [0.6, 0.5])


def test_make_bba_negative(occ_frame):
    with pytest.raises(NegativeMassError):
        make_bba(occ_frame, [-0.1, 0.5])


def test_masses_are_immutable(occ_frame):
    b = make_bba(occ_frame, [0.3, 0.3])
    with pytest.raises(ValueError):
        b.masses[0] = 0.9


# -- belief / plausibility ----------------------------------------------------


def test_belief_singleton(occ_frame):
    b = make_bba(occ_frame, [0.6, 0.0])
    assert belief(b, ["occupied"]) == pytest.approx(0.6, abs=1e-12)


def test_belief_full_frame_is_one(occ_frame):
    b = make_bba(occ_frame, [0.3, 0.5])
    assert belief(b, occ_frame.hypotheses) == pytest.approx(1.0, abs=1e-9)


def test_belief_vacuous_singleton(occ_frame):
    assert belief(vacuous(occ_frame), ["occupied"]) == 0.0


def test_plausibility_examples(occ_frame):
    b = make_bba(occ_frame, [0.6, 0.0])
    assert plausibility(b, ["occupied"]) == pytest.approx(1.0, abs=1e-12)
    c = make_bba(occ_frame, [0.9, 0.0])
    assert plausibility(c, ["free"]) == pytest.approx(0.1, abs=1e-12)
    assert plausibility(b, occ_frame.hypotheses) == pytest.approx(1.0, abs=1e-9)


def test_unknown_hypothesis(occ_frame):
    b = make_bba(occ_frame, [0.6, 0.0])
    with pytest.raises(UnknownHypothesisError):
        belief(b, ["wet"])


def test_belief_plausibility_match_enumeration(sem_frame):
    rng = np.random.default_rng(3)
    labels = sem_frame.hypotheses
    for _ in range(200):
        b = random_bba(rng, sem_frame)
        for r in range(1, len(labels) + 1):
            for subset in itertools.combinations(labels, r):
                assert belief(b, subset) == pytest.approx(
                    bf_belief(b, subset), abs=1e-12
                )
                assert plausibility(b, subset) == pytest.approx(
                    bf_plausibility(b, subset), abs=1e-12
                )


# -- combination --------------------------------------------------------------


def test_combine_strong_conflict_pair():
    frame = Frame(("A", "B"))
    m1 = make_bba(frame, [0.9, 0.0])
    m2 = make_bba(frame, [0.0, 0.9])
    fused, conflict = combine_dst(m1, m2)
    assert conflict == pytest.approx(0.81, abs=1e-12)
    assert fused.masses[0] == pytest.approx(9.0 / 19.0, abs=1e-9)
    assert fused.masses[1] == pytest.approx(9.0 / 19.0, abs=1e-9)
    assert fused.omega == pytest.approx(1.0 / 19.0, abs=1e-9)


def test_combine_vacuous_is_neutral(occ_frame):
    rng = np.random.default_rng(5)
    for _ in range(100):
        b = random_bba(rng, occ_frame)
        fused, conflict = combine_dst(b, vacuous(occ_frame))
        assert conflict == 0.0
        np.testing.assert_allclose(fused.masses, b.masses, atol=1e-12)
        assert abs(fused.omega - b.omega) <= 1e-12


def test_combine_total_conflict(occ_frame):
    m1 = make_bba(occ_frame, [1.0, 0.0])
    m2 = make_bba(occ_frame, [0.0, 1.0])
    with pytest.raises(TotalConflictError):
        combine_dst(m1, m2)


def test_combine_frame_mismatch(occ_frame, sem_frame):
    with pytest.raises(FrameMismatchError):
        combine_dst(vacuous(occ_frame), vacuous(sem_frame))


def test_combine_matches_enumeration(sem_frame):
    rng = np.random.default_rng(7)
    for _ in range(300):
        a = random_bba(rng, sem_frame)
        b = random_bba(rng, sem_frame)
        fused, conflict = combine_dst(a, b)
        masses, omega, bf_k = bf_combine(a, b)
        assert conflict == pytest.approx(bf_k, abs=1e-12)
        np.testing.assert_allclose(fused.masses, masses, atol=1e-9)
        assert fused.omega == pytest.approx(omega, abs=1e-9)


def test_combine_commutative(sem_frame):
    rng = np.random.default_rng(11)
    for _ in range(300):
        a = random_bba(rng, sem_frame)
        b = random_bba(rng, sem_frame)
        ab, kab = combine_dst(a, b)
        ba, kba = combine_dst(b, a)
        np.testing.assert_allclose(ab.masses, ba.masses, atol=1e-12)
        assert abs(ab.omega - ba.omega) <= 1e-12
        assert abs(kab - kba) <= 1e-12


def test_combine_output_normalized(sem_frame):
    rng = np.random.default_rng(13)
    for _ in range(300):
        fused, _ = combine_dst(random_bba(rng, sem_frame), random_bba(rng, sem_frame))
        assert fused.masses.sum() + fused.omega == pytest.approx(1.0, abs=1e-9)
        assert np.all(fused.masses >= 0.0) and fused.omega >= 0.0


# -- pignistic ----------------------------------------------------------------


def test_pignistic_example(occ_frame):
    p = pignistic(make_bba(occ_frame, [0.6, 0.2]))
    np.testing.assert_allclose(p, [0.7, 0.3], atol=1e-12)


def test_pignistic_vacuous(occ_frame):
    np.testing.assert_allclose(pignistic(vacuous(occ_frame)), [0.5, 0.5])


def test_pignistic_committed(occ_frame):
    np.testing.assert_allclose(pignistic(make_bba(occ_frame, [1.0, 0.0])), [1.0, 0.0])


def test_pignistic_is_probability_vector(sem_frame):
    rng = np.random.default_rng(17)
    for _ in range(300):
        p = pignistic(random_bba(rng, sem_frame))
        assert np.all(p >= 0.0)
        assert p.sum() == pytest.approx(1.0, abs=1e-9)


# -- discounting --------------------------------------------------------------


def test_discount_identity(occ_frame):
    b = make_bba(occ_frame, [0.8, 0.1])
    d = discount(b, 1.0)
    np.testing.assert_array_equal(d.masses, b.masses)
    assert d.omega == b.omega


def test_discount_to_vacuous(occ_frame):
    d = discount(make_bba(occ_frame, [0.8, 0.1]), 0.0)
    assert np.all(d.masses == 0.0)
    assert d.omega == 1.0


def test_discount_halves(occ_frame):
    d = discount(make_bba(occ_frame, [0.8, 0.0]), 0.5)
    assert d.masses[0] == pytest.approx(0.4, abs=1e-12)
    assert d.omega == pytest.approx(0.6, abs=1e-12)


def test_discount_monotone_omega(sem_frame):
    rng = np.random.default_rng(19)
    for _ in range(200):
        b = random_bba(rng, sem_frame)
        a1, a2 = sorted(rng.random(2))
        assert discount(b, a1).omega >= discount(b, a2).omega - 1e-12


# -- hypothesis property tests -------------------------------------------------


@st.composite
def bba_masses(draw, k=2):
    raw = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=k + 1,
            max_size=k + 1,
        ).filter(lambda v: sum(v) > 0.0)
    )
    total = sum(raw)
    return [v / total for v in raw[:k]]


@given(bba_masses(), bba_masses())
@settings(max_examples=300, deadline=None)
def test_duality_holds_for_all_subsets(ma, mb):
    frame = Frame(("occupied", "free"))
    try:
        b, _ = combine_dst(make_bba(frame, ma), make_bba(frame, mb))
    except TotalConflictError:
        assume(False)
    for subset in ([], ["occupied"], ["free"], ["occupied", "free"]):
        complement = [h for h in frame.hypotheses if h not in subset]
        assert plausibility(b, subset) == pytest.approx(
            1.0 - belief(b, complement), abs=1e-12
        )


@given(bba_masses(k=4), st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_discount_keeps_normalization(masses, alpha):
    frame = Frame(("road", "marking", "blocked", "unknown"))
    d = discount(make_bba(frame, masses), alpha)
    assert d.masses.sum() + d.omega == pytest.approx(1.0, abs=1e-9)
    assert np.all(d.masses >= 0.0) and 0.0 <= d.omega <= 1.0 + 1e-12


# -- vectorized path ------------------------------------------------------------


def test_vector_combine_matches_scalar(sem_frame):
    rng = np.random.default_rng(23)
    a_rows = random_mass_rows(rng, 500, len(sem_frame))
    b_rows = random_mass_rows(rng, 500, len(sem_frame))
    fused, conflict = combine_mass_arrays(a_rows, b_rows)
    for i in range(0, 500, 17):
        masses, _, k = bf_combine(
            make_bba(sem_frame, a_rows[i]), make_bba(sem_frame, b_rows[i])
        )
        np.testing.assert_allclose(fused[i], masses, atol=1e-12)
        assert conflict[i] == pytest.approx(k, abs=1e-12)


def test_vector_combine_total_conflict_goes_vacuous():
    a = np.array([[1.0, 0.0]])
    b = np.array([[0.0, 1.0]])
    fused, conflict = combine_mass_arrays(a, b)
    assert conflict[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(fused[0] == 0.0)


def test_total_conflict_threshold_is_one_test():
    # [K, 0] against [0, 1] has conflict exactly K. On the floats around
    # 1 - 1e-12 the kernel zeroes a row, combine_dst raises and
    # total_conflict holds for the same K, which are the K with
    # 1 - K <= 1e-12 (1 - K is exact there).
    ks = [(1.0 - 1e-12) + i * 2.0**-53 for i in range(-4, 5)]
    a = np.array([[k, 0.0] for k in ks])
    b = np.tile([0.0, 1.0], (len(ks), 1))
    fused, conflict = combine_mass_arrays(a, b)
    assert conflict.tolist() == ks
    dead = total_conflict(conflict)
    assert dead.any() and not dead.all()
    assert np.array_equal(np.all(fused == 0.0, axis=1), dead)
    near = (1.0 - 1e-12) + np.arange(-3000, 3000) * 2.0**-53
    wide = np.random.default_rng(0).uniform(0.0, 2.0, 10000)
    for k in (near, wide, np.array([0.5, 1.0, 2.0, np.inf, np.nan])):
        assert np.array_equal(total_conflict(k), 1.0 - k <= 1e-12)
    frame = Frame(("A", "B"))
    for k, is_dead in zip(ks, dead):
        x, y = make_bba(frame, [k, 0.0]), make_bba(frame, [0.0, 1.0])
        if is_dead:
            with pytest.raises(TotalConflictError):
                combine_dst(x, y)
        else:
            assert combine_dst(x, y)[1] == k


def test_vector_combine_broadcasts():
    a = np.zeros((4, 2))
    b = np.array([0.5, 0.2])
    fused, conflict = combine_mass_arrays(a, b)
    assert fused.shape == (4, 2) and conflict.shape == (4,)
    np.testing.assert_allclose(fused, np.tile(b, (4, 1)), atol=1e-12)
