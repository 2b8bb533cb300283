"""Synthetic data: latent draws pushed through a structure matrix."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import whole_number
from .structure import StructureMatrix

LATENT_KINDS = ("gaussian", "uniform", "exponential")
STRUCTURE_KINDS = ("identity", "dense", "block_diagonal", "explicit")


def _as_vector(value, dim: int, name: str) -> np.ndarray:
    vec = np.broadcast_to(np.asarray(value, dtype=float), (dim,)).copy()
    if not np.all(np.isfinite(vec)):
        raise ValueError(f"{name} must be finite")
    return vec


@dataclass(frozen=True, eq=False)
class LatentSpec:
    """Distribution of the latent factor vector.

    All three families are centered so the population mean is exactly
    ``mean``: uniform draws cover [mean - scale, mean + scale] and
    exponential draws are shifted down by their own mean. ``scale`` may be a
    scalar or one value per latent dimension.
    """

    kind: str
    dim: int
    mean: float | np.ndarray = 0.0
    scale: float | np.ndarray = 1.0

    def __post_init__(self) -> None:
        if self.kind not in LATENT_KINDS:
            raise ValueError(f"kind must be one of {LATENT_KINDS}, got {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dim must be positive")
        object.__setattr__(self, "mean", _as_vector(self.mean, self.dim, "mean"))
        object.__setattr__(self, "scale", _as_vector(self.scale, self.dim, "scale"))
        if np.any(self.scale < 0):
            raise ValueError("scale must be nonnegative")

    def covariance(self) -> np.ndarray:
        """Population covariance of one latent draw (diagonal by construction)."""
        if self.kind == "uniform":
            return np.diag(self.scale**2 / 3.0)
        return np.diag(self.scale**2)


def draw_latents(spec: LatentSpec, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` latent vectors, shape (count, spec.dim)."""
    if count < 1:
        raise ValueError("count must be positive")
    shape = (count, spec.dim)
    if spec.kind == "gaussian":
        return spec.mean + spec.scale * rng.standard_normal(shape)
    if spec.kind == "uniform":
        return rng.uniform(spec.mean - spec.scale, spec.mean + spec.scale, shape)
    # Exponential with scale b has mean b; recenter so the draw averages to `mean`.
    return spec.mean - spec.scale + rng.exponential(spec.scale, shape)


@dataclass(frozen=True, eq=False)
class StructureSpec:
    """Recipe for a structure matrix.

    ``identity`` needs n == r. ``dense`` fills all n x r entries with
    standard normals. ``block_diagonal`` stacks independent standard-normal
    blocks of the given (rows, cols) shapes along the diagonal; the shapes
    must add up to (n, r). ``explicit`` wraps the given entries.
    """

    kind: str
    n: int
    r: int
    blocks: tuple[tuple[int, int], ...] | None = None
    entries: np.ndarray | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in STRUCTURE_KINDS:
            raise ValueError(f"kind must be one of {STRUCTURE_KINDS}, got {self.kind!r}")
        if self.n < 1 or self.r < 1:
            raise ValueError("n and r must be positive")
        if self.kind == "identity" and self.n != self.r:
            raise ValueError("identity structure needs n == r")
        if self.kind == "block_diagonal":
            if not self.blocks:
                raise ValueError("block_diagonal needs block shapes")
            blocks = tuple(
                (whole_number("blocks", a), whole_number("blocks", b)) for a, b in self.blocks
            )
            if any(a < 1 or b < 1 for a, b in blocks):
                raise ValueError("block shapes must be positive")
            if sum(a for a, _ in blocks) != self.n or sum(b for _, b in blocks) != self.r:
                raise ValueError("block shapes must tile an n x r matrix")
            object.__setattr__(self, "blocks", blocks)
        if self.kind == "explicit":
            if self.entries is None:
                raise ValueError("explicit structure needs entries")
            entries = np.array(self.entries, dtype=float)
            if entries.shape != (self.n, self.r):
                raise ValueError(f"entries shape {entries.shape} does not match ({self.n}, {self.r})")
            object.__setattr__(self, "entries", entries)


def make_structure(spec: StructureSpec) -> StructureMatrix:
    """Build the structure matrix; random kinds draw from ``default_rng(spec.seed)``,
    so with a fixed seed the result is bit-identical across calls."""
    if spec.kind == "identity":
        return StructureMatrix(np.eye(spec.n))
    if spec.kind == "explicit":
        return StructureMatrix(spec.entries.copy())
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "dense":
        return StructureMatrix(rng.standard_normal((spec.n, spec.r)))
    entries = np.zeros((spec.n, spec.r))
    row = col = 0
    for rows, cols in spec.blocks:
        entries[row : row + rows, col : col + cols] = rng.standard_normal((rows, cols))
        row += rows
        col += cols
    return StructureMatrix(entries)


def synthesize(a: StructureMatrix, latents: np.ndarray) -> Dataset:
    """Push latent vectors through the structure, giving a fully visible dataset."""
    z = np.atleast_2d(np.asarray(latents, dtype=float))
    if z.shape[1] != a.r:
        raise ValueError(f"latent dimension {z.shape[1]} does not match r={a.r}")
    return Dataset(z @ a.entries.T)


def population_mean(a: StructureMatrix, latent: LatentSpec) -> np.ndarray:
    if latent.dim != a.r:
        raise ValueError("latent dimension does not match the structure")
    return a.entries @ latent.mean


def population_covariance(a: StructureMatrix, latent: LatentSpec) -> np.ndarray:
    if latent.dim != a.r:
        raise ValueError("latent dimension does not match the structure")
    return a.entries @ latent.covariance() @ a.entries.T
