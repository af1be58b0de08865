"""Dempster-Shafer evidence calculus over finite frames.

Basic belief assignments (BBAs) are restricted to focal sets that are
either singletons or the whole frame. Every assignment handled by the
mapping stack has that shape, the restriction is closed under Dempster's
rule of combination, and it keeps per-cell storage at one float per
hypothesis (the frame mass is the normalization remainder).

Dempster's rule has one implementation, ``kernels.combine_masses``;
:func:`combine_mass_arrays` and :func:`combine_dst` both call it.

All values are immutable after construction; every operation is a pure
function, so concurrent use needs no locking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    FrameMismatchError,
    MassOverflowError,
    NegativeMassError,
    TotalConflictError,
    UnknownHypothesisError,
)
from .kernels import combine_masses, total_conflict

# Tolerance for normalization checks (mass sums).
MASS_TOL = 1e-9


@dataclass(frozen=True)
class Frame:
    """Ordered frame of discernment.

    The label order is fixed at construction and defines the indexing of
    every mass vector built over this frame.
    """

    hypotheses: tuple[str, ...]

    def __post_init__(self):
        if len(self.hypotheses) < 2:
            raise ValueError("a frame needs at least two hypotheses")
        if len(set(self.hypotheses)) != len(self.hypotheses):
            raise ValueError("hypothesis labels must be unique")

    def __len__(self) -> int:
        return len(self.hypotheses)

    def index(self, label: str) -> int:
        try:
            return self.hypotheses.index(label)
        except ValueError:
            raise UnknownHypothesisError(
                f"{label!r} is not in frame {self.hypotheses}"
            ) from None

    def indices(self, labels: Iterable[str]) -> list[int]:
        """Resolve a hypothesis subset to unique mass-vector indices."""
        return sorted({self.index(lb) for lb in labels})


@dataclass(frozen=True, eq=False)
class BBA:
    """Basic belief assignment with singleton + frame support.

    ``masses`` holds the singleton masses in frame order; ``omega`` is the
    mass on the whole frame. The empty set carries no mass and is never
    stored. Construct through :func:`make_bba` or :func:`vacuous`.
    """

    frame: Frame
    masses: np.ndarray
    omega: float

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{h}={m:.4g}" for h, m in zip(self.frame.hypotheses, self.masses)
        )
        return f"BBA({pairs}, omega={self.omega:.4g})"


def _freeze(masses: np.ndarray) -> np.ndarray:
    masses = np.asarray(masses, dtype=np.float64)
    masses.flags.writeable = False
    return masses


def make_bba(frame: Frame, singleton_masses: Sequence[float]) -> BBA:
    """Build a BBA from per-hypothesis masses; the remainder goes to omega."""
    masses = np.asarray(singleton_masses, dtype=np.float64)
    if masses.shape != (len(frame),):
        raise ValueError(
            f"expected {len(frame)} masses for frame {frame.hypotheses}, "
            f"got shape {masses.shape}"
        )
    if np.any(masses < 0.0):
        raise NegativeMassError(f"negative singleton mass in {masses}")
    total = float(masses.sum())
    if total > 1.0 + MASS_TOL:
        raise MassOverflowError(f"singleton masses sum to {total} > 1")
    omega = min(max(1.0 - total, 0.0), 1.0)
    return BBA(frame, _freeze(masses.copy()), omega)


def vacuous(frame: Frame) -> BBA:
    """The 'no information' assignment: all mass on the frame itself."""
    return BBA(frame, _freeze(np.zeros(len(frame))), 1.0)


def belief(bba: BBA, subset: Iterable[str]) -> float:
    """Sum of masses of stored focal sets contained in ``subset``."""
    idx = bba.frame.indices(subset)
    total = float(bba.masses[idx].sum())
    if len(idx) == len(bba.frame):
        total += bba.omega
    return total


def plausibility(bba: BBA, subset: Iterable[str]) -> float:
    """Sum of masses of focal sets intersecting ``subset``.

    Computed as 1 - Bel(complement) so the duality holds exactly.
    """
    idx = set(bba.frame.indices(subset))
    complement = [h for i, h in enumerate(bba.frame.hypotheses) if i not in idx]
    return 1.0 - belief(bba, complement)


def combine_dst(a: BBA, b: BBA) -> tuple[BBA, float]:
    """Dempster's rule of combination; returns the fused BBA and conflict K.

    A one-row call of :func:`combine_mass_arrays`, so the scalar and the
    array paths share the kernel's arithmetic. Raises
    :class:`TotalConflictError` when the conflict leaves no mass to
    renormalize (:func:`~apgm.kernels.total_conflict`); callers
    decide the fallback.
    """
    if a.frame != b.frame:
        raise FrameMismatchError(f"{a.frame} vs {b.frame}")
    fused, conflict = combine_mass_arrays(a.masses, b.masses)
    conflict = float(conflict)
    if total_conflict(conflict):
        raise TotalConflictError(conflict)
    omega = max(1.0 - float(fused.sum()), 0.0)
    return BBA(a.frame, _freeze(fused), omega), conflict


def pignistic(bba: BBA) -> np.ndarray:
    """Probability vector with the frame mass spread evenly over hypotheses."""
    return bba.masses + bba.omega / len(bba.frame)


def discount(bba: BBA, alpha: float) -> BBA:
    """Scale committed mass by source reliability ``alpha`` in [0, 1]."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"reliability factor must be in [0, 1], got {alpha}")
    masses = bba.masses * alpha
    omega = 1.0 - alpha + alpha * bba.omega
    return BBA(bba.frame, _freeze(masses), float(omega))


def combine_mass_arrays(
    a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized Dempster combination over arrays of singleton masses.

    ``a`` and ``b`` have shape (..., k); the frame mass is implicit as
    1 - sum over the last axis. Returns the fused singleton masses and the
    per-element conflict K. Elements in total conflict come back vacuous
    (all zeros); callers count them with
    :func:`~apgm.kernels.total_conflict`.
    """
    a, b = np.broadcast_arrays(
        np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    )
    shape = a.shape
    k = shape[-1]
    flat_a = np.ascontiguousarray(a).reshape(-1, k)
    flat_b = np.ascontiguousarray(b).reshape(-1, k)
    out = np.empty_like(flat_a)
    conflict = np.empty(len(flat_a))
    combine_masses(flat_a, flat_b, out, conflict)
    return out.reshape(shape), conflict.reshape(shape[:-1])


@dataclass
class ConflictCounter:
    """Tally of cells reset to vacuous after a total-conflict combination."""

    cells: int = 0

    def add(self, n: int) -> None:
        self.cells += int(n)
