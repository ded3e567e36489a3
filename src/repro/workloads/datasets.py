"""Synthetic dataset generators (the MineBench data-file substitute).

MineBench ships binary data files; we generate statistically equivalent
synthetic data with the exact attribute counts of Table IV:

==============  =======  ====  ====
label           N        D     C
==============  =======  ====  ====
kmeans-base      17695     9     8
kmeans-dim       17695    18     8
kmeans-point     35390    18     8
kmeans-center    17695    18    32
fuzzy-*          (same grid)
hop-default      61440 particles (3-D positions)
hop-med         491520 particles
==============  =======  ====  ====

Clustering inputs are Gaussian mixtures (so the algorithms genuinely
converge); HOP inputs are particle positions with density concentrations
(halo-like clumps).  Everything is seeded and reproducible.
"""

from __future__ import annotations

import functools
import hashlib
import weakref
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from repro.util.validation import check_positive_int

__all__ = [
    "ClusteringDataset",
    "ParticleDataset",
    "make_blobs",
    "make_particles",
    "TABLE4_DATASETS",
]


class _Frozen:
    """Read-only arrays and a content digest computed once.

    A dataset's arrays are made read-only when it is built (and again when
    it is unpickled), so the digest cached on the object cannot go stale.
    """

    #: the array fields the digest covers, in hashing order
    _DIGESTED: "tuple[str, ...]" = ()
    #: the integer fields that join the shapes in :meth:`identity`
    _SIZES: "tuple[str, ...]" = ()

    def __post_init__(self) -> None:
        self._freeze()

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._freeze()

    def _freeze(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    @cached_property
    def digest(self) -> str:
        """sha256 over the bytes of the digested arrays."""
        h = hashlib.sha256()
        for name in self._DIGESTED:
            h.update(np.ascontiguousarray(getattr(self, name)).tobytes())
        return h.hexdigest()

    def identity(self) -> dict:
        """Label, shapes and content digest: the dataset part of a
        workload identity.

        The digest covers the array bytes, so two datasets that differ
        only in their generator seed (same label, same shape) still differ
        here; without it, Table IV's dim/center/base variants (equal N,
        equal name) would share one cache entry.
        """
        shape: dict = {name: list(getattr(self, name).shape) for name in self._DIGESTED}
        for name in self._SIZES:
            shape[name] = int(getattr(self, name))
        return {"label": self.label, "shape": shape, "digest": self.digest}


@dataclass(frozen=True)
class ClusteringDataset(_Frozen):
    """Points for kmeans / fuzzy c-means.

    Attributes
    ----------
    label:
        Table IV-style label.
    points:
        float64 array of shape (N, D).
    n_centers:
        The cluster-count parameter handed to the algorithm (Table IV's C).
    true_centers:
        The mixture means the points were drawn from (for quality checks).
    """

    label: str
    points: np.ndarray
    n_centers: int
    true_centers: np.ndarray

    _DIGESTED = ("points",)
    _SIZES = ("n_centers",)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def n_dims(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class ParticleDataset(_Frozen):
    """Particle positions (and masses) for HOP density-based clustering."""

    label: str
    positions: np.ndarray  # (N, 3)
    masses: np.ndarray     # (N,)
    n_groups_hint: int

    _DIGESTED = ("positions", "masses")
    _SIZES = ("n_groups_hint",)

    @property
    def n_particles(self) -> int:
        return self.positions.shape[0]


#: the datasets the builders handed out that something still holds, by
#: call: datasets are immutable, so equal calls share one while it lives
_LIVE: "weakref.WeakValueDictionary[tuple, _Frozen]" = weakref.WeakValueDictionary()


def _shared(build):
    """Make ``build`` return the live dataset of an equal earlier call."""
    @functools.wraps(build)
    def shared(*args, **kwargs):
        key = (build.__name__, args, tuple(sorted(kwargs.items())))
        dataset = _LIVE.get(key)
        if dataset is None:
            dataset = _LIVE[key] = build(*args, **kwargs)
        return dataset
    return shared


@_shared
def make_blobs(
    n_points: int,
    n_dims: int,
    n_centers: int,
    seed: int = 0,
    spread: float = 0.08,
    label: str = "blobs",
) -> ClusteringDataset:
    """A Gaussian mixture in the unit hypercube.

    Centers are placed uniformly at random; each point belongs to a random
    component with isotropic Gaussian noise of standard deviation
    ``spread``.
    """
    check_positive_int(n_points, "n_points")
    check_positive_int(n_dims, "n_dims")
    check_positive_int(n_centers, "n_centers")
    if n_centers > n_points:
        raise ValueError(f"n_centers {n_centers} exceeds n_points {n_points}")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.1, 0.9, size=(n_centers, n_dims))
    assignment = rng.integers(0, n_centers, size=n_points)
    noise = rng.normal(scale=spread, size=(n_points, n_dims))
    points = centers[assignment] + noise
    return ClusteringDataset(
        label=label, points=points, n_centers=n_centers, true_centers=centers
    )


@_shared
def make_particles(
    n_particles: int,
    n_halos: int = 8,
    seed: int = 0,
    background_fraction: float = 0.3,
    label: str = "particles",
) -> ParticleDataset:
    """Halo-like particle positions in the unit cube for HOP.

    A fraction of particles forms dense clumps (Gaussian halos of varying
    size), the rest is a uniform background — giving HOP genuine density
    maxima to find.
    """
    check_positive_int(n_particles, "n_particles")
    check_positive_int(n_halos, "n_halos")
    if not (0.0 <= background_fraction < 1.0):
        raise ValueError(
            f"background_fraction must be in [0, 1), got {background_fraction}"
        )
    rng = np.random.default_rng(seed)
    n_background = int(n_particles * background_fraction)
    n_clustered = n_particles - n_background
    halo_centers = rng.uniform(0.15, 0.85, size=(n_halos, 3))
    halo_sizes = rng.uniform(0.01, 0.04, size=n_halos)
    halo_of = rng.integers(0, n_halos, size=n_clustered)
    clustered = halo_centers[halo_of] + rng.normal(
        scale=halo_sizes[halo_of][:, None], size=(n_clustered, 3)
    )
    background = rng.uniform(0.0, 1.0, size=(n_background, 3))
    positions = np.clip(np.vstack([clustered, background]), 0.0, 1.0)
    masses = rng.uniform(0.5, 1.5, size=n_particles)
    return ParticleDataset(
        label=label, positions=positions, masses=masses, n_groups_hint=n_halos
    )


#: The Table IV dataset labels (attribute grid in the module docstring).
TABLE4_DATASETS = (
    "kmeans-base", "kmeans-dim", "kmeans-point", "kmeans-center",
    "fuzzy-base", "fuzzy-dim", "fuzzy-point", "fuzzy-center",
    "hop-default", "hop-med",
)
