"""Shared test configuration: deterministic Hypothesis runs and the
strategies several test modules draw from."""

import functools
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from qwgeom.models import FAMILY_CLASSES, make_model
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
