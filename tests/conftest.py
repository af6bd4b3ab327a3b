import numpy as np
import pytest
from hypothesis import settings

# CI runs with --hypothesis-profile=ci: the same examples on every run, so a
# failing oracle example reproduces.  Local runs keep drawing fresh ones.
settings.register_profile("ci", derandomize=True)

from manipsem.config import RunConfig
from manipsem.library import default_library
from manipsem.realizer import default_templates
from manipsem.relations import DEFAULT_GEOMETRY, ObjectState


def box_cloud(lo, hi, per_edge=3, skip_top_inner=False, center=True):
    """Surface lattice of an axis-aligned box, optional interior point."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    ts = np.linspace(0.0, 1.0, per_edge)
    pts = []
    for x in ts:
        for y in ts:
            for z in ts:
                if 0 < x < 1 and 0 < y < 1 and 0 < z < 1:
                    continue
                if skip_top_inner and y == 1.0 and 0 < x < 1 and 0 < z < 1:
                    continue
                pts.append(lo + np.array([x, y, z]) * (hi - lo))
    if center:
        pts.append((lo + hi) / 2.0)
    return np.array(pts)


def counted_builds(monkeypatch):
    """The point count of every ``ObjectState.from_cloud`` call from here on."""
    builds = []
    from_cloud = ObjectState.from_cloud.__func__

    def counted(cls, points, geo=DEFAULT_GEOMETRY):
        builds.append(len(points))
        return from_cloud(cls, points, geo)

    monkeypatch.setattr(ObjectState, "from_cloud", classmethod(counted))
    return builds


@pytest.fixture(scope="session")
def run_cfg():
    return RunConfig()


@pytest.fixture(scope="session")
def lib():
    return default_library()


@pytest.fixture(scope="session")
def templates():
    return default_templates()
