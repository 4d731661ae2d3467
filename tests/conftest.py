"""Shared test configuration: deterministic Hypothesis runs and the
strategies several test modules draw from."""

import contextlib
import functools
from dataclasses import dataclass, fields

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from qwgeom import models
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
