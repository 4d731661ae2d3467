"""Shared test configuration: deterministic Hypothesis runs, the
strategies several test modules draw from, and the reference spin
eigenstates and overlap chain that the Zak and holonomy tests check the
package against."""

import contextlib
import functools
from dataclasses import dataclass, fields

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from qwgeom import models
from qwgeom.errors import OrthogonalStatesError, QwGeomError
from qwgeom.models import FAMILY_CLASSES, WalkModel, make_model
from qwgeom.spin import rotation_x, rotation_y
from qwgeom.zak import zak_map

# Examples derive from each test's source rather than a random seed, and
# no example database is written, so every run checks the same cases.
settings.register_profile("qwgeom", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("qwgeom")

angles = st.floats(min_value=-np.pi, max_value=np.pi)


@st.composite
def walk_models(draw):
    """A model of any family, each angle drawn from [-pi, pi]."""
    family = draw(st.sampled_from(sorted(FAMILY_CLASSES)))
    n_angles = len(fields(FAMILY_CLASSES[family]))
    return make_model(family, [draw(angles) for _ in range(n_angles)])


@pytest.fixture(scope="session")
def default_zak_map():
    """zak_map(family, span=span) at the zak-map command's default grid,
    computed once per (family, span) for the whole session."""
    return functools.cache(lambda family, span: zak_map(family, span=span))


@dataclass(frozen=True)
class SwappedCoinWalk(WalkModel):
    """A test-only two-angle family, declared by its fields and its step
    alone: the non-commuting walk's coins in the opposite order, R_y
    first, then R_x, then the full shift."""

    theta: float
    phi: float

    family = "swapped-coins"

    @staticmethod
    def step(theta, phi):
        return (rotation_y(theta), rotation_x(phi), (1, -1))


def swapped_coin_unitary(theta, phi, k):
    """SwappedCoinWalk's U(k) = T(k) R_x(phi) R_y(theta), built densely
    here, independent of the model code."""
    ry = np.array([[np.cos(theta), -np.sin(theta)],
                   [np.sin(theta), np.cos(theta)]])
    rx = np.array([[np.cos(phi), 1j * np.sin(phi)],
                   [1j * np.sin(phi), np.cos(phi)]])
    shift = np.diag([np.exp(1j * k), np.exp(-1j * k)])
    return shift @ rx @ ry


@contextlib.contextmanager
def family_registered(cls):
    """A test-only family class as a two-angle family of qwgeom.models
    while the block runs (usable inside Hypothesis tests, unlike a
    fixture)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(FAMILY_CLASSES, cls.family, cls)
        mp.setattr(models, "TWO_ANGLE_FAMILIES",
                   (*models.TWO_ANGLE_FAMILIES, cls.family))
        yield


def swapped_coins_registered():
    """SwappedCoinWalk registered while the block runs."""
    return family_registered(SwappedCoinWalk)


# The reference eigenstates and Wilson chain: a second eigenstate
# construction and a second Zak algorithm, independent of the Bloch
# ellipse that the package reads.  In band_eigenvector's gauge the lower
# spinor component of band s is real with sign -s, the gauge whose
# Wilson links zak._planar_phases sums as half solid angles.

OVERLAP_TOL = 1e-12


class DegeneratePointError(QwGeomError):
    """A Bloch vector had (near-)zero length where a direction was needed."""


def _stable_components(nx, ny, nz, r, sign):
    """Upper/lower eigenvector components of n . sigma for one band.

    Uses the algebraic identities
        nz - s r      = -s nperp^2 / (r + s nz)
        2 r (r - s nz) = 2 r nperp^2 / (r + s nz)
    whenever s nz >= 0, so no catastrophic cancellation occurs near the
    poles.  Inputs may be arrays; returns (upper, lower) complex arrays.
    """
    nperp2 = nx * nx + ny * ny
    direct = sign * nz < 0.0
    # Where direct is True the subtraction r - s nz adds magnitudes.
    denom = np.where(direct, 1.0, r + sign * nz)
    lower = np.where(direct, nz - sign * r, -sign * nperp2 / denom)
    d2 = np.where(direct, 2.0 * r * (r - sign * nz), 2.0 * r * nperp2 / denom)
    d = np.sqrt(d2)
    pole = d2 <= (1e-28) * r * r
    safe_d = np.where(pole, 1.0, d)
    upper = np.where(pole, 1.0 + 0.0j, (-nx + 1.0j * ny) / safe_d)
    lower = np.where(pole, 0.0 + 0.0j, lower / safe_d)
    return upper, lower


def band_eigenvector(n_vectors: np.ndarray, band: int) -> np.ndarray:
    """Normalized eigenvectors of n . sigma for a batch of Bloch vectors.

    n_vectors has shape (..., 3) and need not be normalized; band is +1 or
    -1 and selects the eigenvalue +|n| or -|n|.  Returns shape (..., 2).
    The phase convention keeps the lower component real; at a pole of that
    chart the vector (1, 0) is returned.  Raises DegeneratePointError if
    any input vector has length below 1e-150.
    """
    if band not in (+1, -1):
        raise ValueError("band must be +1 or -1")
    n = np.asarray(n_vectors, dtype=float)
    if n.shape[-1] != 3:
        raise ValueError("n_vectors must have shape (..., 3)")
    nx, ny, nz = n[..., 0], n[..., 1], n[..., 2]
    r = np.sqrt(nx * nx + ny * ny + nz * nz)
    if np.any(r < 1e-150):
        raise DegeneratePointError("zero Bloch vector has no eigenbasis")
    upper, lower = _stable_components(nx, ny, nz, r, float(band))
    return np.stack([upper, lower], axis=-1)


def discrete_berry_phase(vectors: np.ndarray, closed: bool = False) -> float:
    """Overlap-chain (Wilson-line) phase sum_i arg<v_i|v_{i+1}>.

    vectors has shape (m, dim).  With closed=True the chain additionally
    wraps from the last vector back to the first.  Summing the per-link
    angles (instead of taking the angle of the product) keeps windings
    beyond (-pi, pi]; fold the result if only the folded phase matters.
    The sign convention (Im log of the overlap product, not its negative)
    is the one under which the band-resolved closed-form integrand of
    zak_noncommuting_integrand integrates to the numeric Zak phase of the
    same band.  Raises OrthogonalStatesError when any consecutive overlap
    has magnitude below 1e-12.
    """
    v = np.asarray(vectors)
    if v.ndim != 2 or v.shape[0] < 2:
        raise ValueError("vectors must have shape (m, dim) with m >= 2")
    overlaps = np.sum(np.conj(v[:-1]) * v[1:], axis=1)
    if closed:
        overlaps = np.concatenate([overlaps, [np.dot(np.conj(v[-1]), v[0])]])
    if np.any(np.abs(overlaps) < OVERLAP_TOL):
        raise OrthogonalStatesError("consecutive states are orthogonal; "
                                    "phase chain is undefined")
    return float(np.sum(np.angle(overlaps)))
