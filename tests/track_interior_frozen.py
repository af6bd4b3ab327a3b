"""Two geometry steps as they were before their fast paths: ``_Track``
running its rigid/moved passes on every run and reducing each row's box
over the middle axis of a ``(rows, N, 3)`` stack, and the interior test
visiting every point of the cloud.  Frozen as the oracles of
``test_track_interior_identity.py``, which requires equal results.

Only the run helpers, the tolerances and the point classifier are taken
from the package: they did not change.
"""

from itertools import accumulate

import numpy as np

from manipsem.events import _RIGID_TOL, _run_key, _stack_run
from manipsem.geometry import _DEEP_MARGIN, RegionClass, classify_points


class FrozenTrack:
    """One object's rows, as ``events._Track`` builds them."""

    def __init__(self, appearances, n_frames: int):
        self.n_frames = n_frames
        self.frames = [f for f, _ in appearances]
        self.objects = [o for _, o in appearances]
        self.stacks, start = [], 0
        for k in range(1, len(appearances) + 1):
            if k == len(appearances) or _run_key(self.objects[k]) != _run_key(self.objects[k - 1]):
                self.stacks.append(_stack_run(self.objects[start:k]))
                start = k
        self.clouds = [row for s in self.stacks for row in s]
        lo, hi, rigid, moved = [], [], [], []
        for s in self.stacks:
            lo.append(s.min(axis=1))
            hi.append(s.max(axis=1))
            steps = s[1:] - s[:-1]
            shift = steps[:, :1]
            spread = np.abs(steps - shift).reshape(len(steps), 3 * s.shape[1]).max(axis=1)
            rigid += [False] + (spread <= _RIGID_TOL).tolist()
            moved += [True] + (np.abs(shift[:, 0]).max(axis=1) > _RIGID_TOL).tolist()
        self.lo, self.hi = np.concatenate(lo), np.concatenate(hi)
        self.segment = list(accumulate(not r for r in rigid))
        self.pose = list(accumulate(not r or m for r, m in zip(rigid, moved)))
        self.first = [p for s in self.stacks for p in s[:, 0].tolist()]
        self.centroids = np.concatenate([s.mean(axis=1) for s in self.stacks])


def frozen_reaches_interior(cloud, hull, tol: float) -> bool:
    """Whether some point of ``cloud`` deeper than ``tol`` inside
    ``hull.box`` lies in the interior of ``hull``, every point visited."""
    box = hull.box
    depth = np.minimum(cloud - box.min_corner, box.max_corner - cloud).min(axis=1)
    deep = depth > tol - _DEEP_MARGIN
    return bool(deep.any()) and bool(
        np.any(classify_points(hull, cloud[deep], tol) == RegionClass.INTERIOR))
