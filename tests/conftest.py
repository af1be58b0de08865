import numpy as np
import pytest

from apgm import BBA, Frame, make_bba


@pytest.fixture
def occ_frame():
    return Frame(("occupied", "free"))


@pytest.fixture
def sem_frame():
    return Frame(("road", "marking", "blocked", "unknown"))


def random_bba(rng: np.random.Generator, frame: Frame):
    """Random valid BBA: Dirichlet over singletons plus the frame mass."""
    weights = rng.dirichlet(np.ones(len(frame) + 1))
    return make_bba(frame, weights[:-1])


def random_mass_rows(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """(n, k) singleton-mass rows with valid implicit frame mass."""
    return rng.dirichlet(np.ones(k + 1), size=n)[:, :k]


# -- independent Dempster reference -------------------------------------------


def focal_sets(bba: BBA):
    """Explicit (set, mass) pairs: singletons plus the whole frame."""
    labels = bba.frame.hypotheses
    out = [({h}, float(m)) for h, m in zip(labels, bba.masses)]
    out.append((set(labels), bba.omega))
    return out


def bf_combine(a: BBA, b: BBA):
    """Set-intersection table combination, independent of the closed form
    and of the kernel; returns (singleton masses, frame mass, conflict)."""
    table = {}
    conflict = 0.0
    for sa, ma in focal_sets(a):
        for sb, mb in focal_sets(b):
            inter = frozenset(sa & sb)
            if not inter:
                conflict += ma * mb
            else:
                table[inter] = table.get(inter, 0.0) + ma * mb
    norm = 1.0 - conflict
    labels = a.frame.hypotheses
    masses = [table.get(frozenset({h}), 0.0) / norm for h in labels]
    omega = table.get(frozenset(labels), 0.0) / norm
    return masses, omega, conflict
