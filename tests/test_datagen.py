import inspect

import numpy as np
import pytest

import entrymean
from entrymean.datagen import (
    LatentSpec,
    StructureSpec,
    draw_latents,
    make_structure,
    population_covariance,
    population_mean,
    synthesize,
)
from entrymean.structure import is_general_position


def test_structure_spec_validation():
    with pytest.raises(ValueError):
        StructureSpec("identity", n=4, r=3)
    with pytest.raises(ValueError):
        StructureSpec("block_diagonal", n=16, r=8, blocks=((8, 4), (8, 5)), seed=0)
    with pytest.raises(ValueError):
        StructureSpec("explicit", n=2, r=2)
    with pytest.raises(ValueError, match="dense structure needs a seed"):
        StructureSpec("dense", n=4, r=2)
    with pytest.raises(ValueError, match="block_diagonal structure needs a seed"):
        StructureSpec("block_diagonal", n=16, r=8, blocks=((8, 4), (8, 4)))
    with pytest.raises(ValueError):
        StructureSpec("mystery", n=2, r=2)


def test_make_structure_identity_and_explicit():
    eye = make_structure(StructureSpec("identity", n=3, r=3))
    np.testing.assert_array_equal(eye.entries, np.eye(3))
    entries = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    explicit = make_structure(StructureSpec("explicit", n=3, r=2, entries=entries))
    np.testing.assert_array_equal(explicit.entries, entries)


def test_make_structure_seed_determinism():
    spec = StructureSpec("dense", n=6, r=3, seed=77)
    a = make_structure(spec)
    b = make_structure(spec)
    np.testing.assert_array_equal(a.entries, b.entries)
    c = make_structure(StructureSpec("dense", n=6, r=3, seed=78))
    assert not np.array_equal(a.entries, c.entries)


def test_no_exported_callable_defaults_to_an_unseeded_generator():
    # Every random draw comes from a generator the caller seeded: an ``rng``
    # parameter is required wherever the package exports one.
    takes_rng = set()
    for name in dir(entrymean):
        obj = getattr(entrymean, name)
        if name.startswith("_") or not callable(obj):
            continue
        params = inspect.signature(obj).parameters
        if "rng" in params:
            takes_rng.add(name)
            assert params["rng"].default is inspect.Parameter.empty, name
    assert {"draw_latents", "make_plan", "recover_replacement_randomized"} <= takes_rng


def test_block_diagonal_layout():
    spec = StructureSpec("block_diagonal", n=16, r=8, blocks=((8, 4), (8, 4)), seed=5)
    a = make_structure(spec)
    assert a.entries.shape == (16, 8)
    # Off-block corners must be exactly zero.
    assert np.all(a.entries[:8, 4:] == 0.0)
    assert np.all(a.entries[8:, :4] == 0.0)
    assert np.any(a.entries[:8, :4] != 0.0)
    assert a.rank == 8


def test_latent_spec_validation():
    with pytest.raises(ValueError):
        LatentSpec("gaussian", dim=0)
    with pytest.raises(ValueError):
        LatentSpec("gaussian", dim=2, scale=-1.0)
    with pytest.raises(ValueError):
        LatentSpec("poisson", dim=2)


@pytest.mark.parametrize("kind", ["gaussian", "uniform", "exponential"])
def test_latent_families_are_centered(kind):
    spec = LatentSpec(kind, dim=3, mean=[1.0, -2.0, 0.5], scale=[1.0, 0.5, 2.0])
    draws = draw_latents(spec, 200_000, np.random.default_rng(0))
    # Standard error of the mean is at most scale / sqrt(N); allow five sigma.
    tol = 5 * np.asarray(spec.scale) / np.sqrt(200_000)
    assert np.all(np.abs(draws.mean(axis=0) - spec.mean) < tol)


@pytest.mark.parametrize("kind", ["gaussian", "uniform", "exponential"])
def test_latent_covariance_matches_samples(kind):
    spec = LatentSpec(kind, dim=2, mean=0.0, scale=[1.0, 3.0])
    draws = draw_latents(spec, 400_000, np.random.default_rng(1))
    sample_cov = np.cov(draws, rowvar=False)
    np.testing.assert_allclose(sample_cov, spec.covariance(), atol=0.1)


def test_uniform_support_bounds():
    spec = LatentSpec("uniform", dim=1, mean=2.0, scale=0.5)
    draws = draw_latents(spec, 10_000, np.random.default_rng(2))
    assert draws.min() >= 1.5 and draws.max() <= 2.5


def test_draw_latents_determinism():
    spec = LatentSpec("gaussian", dim=4)
    a = draw_latents(spec, 10, np.random.default_rng(3))
    b = draw_latents(spec, 10, np.random.default_rng(3))
    np.testing.assert_array_equal(a, b)


def test_synthesize_and_population_quantities():
    a = make_structure(StructureSpec("dense", n=5, r=2, seed=0))
    spec = LatentSpec("gaussian", dim=2, mean=[1.0, 2.0], scale=[1.0, 0.5])
    z = draw_latents(spec, 8, np.random.default_rng(4))
    ds = synthesize(a, z)
    assert ds.values.shape == (8, 5)
    assert not ds.mask.any()
    np.testing.assert_allclose(ds.values[0], a.entries @ z[0])
    np.testing.assert_allclose(population_mean(a, spec), a.entries @ [1.0, 2.0])
    cov = population_covariance(a, spec)
    np.testing.assert_allclose(cov, a.entries @ np.diag([1.0, 0.25]) @ a.entries.T)


def test_default_benchmark_structure_is_well_formed():
    # The 16 x 8 two-block layout used by the benchmark suite: each block in
    # general position, so hiding four entries of a block is always survivable.
    spec = StructureSpec("block_diagonal", n=16, r=8, blocks=((8, 4), (8, 4)), seed=20240501)
    a = make_structure(spec)
    from entrymean.structure import StructureMatrix

    top = StructureMatrix(a.entries[:8, :4])
    bottom = StructureMatrix(a.entries[8:, 4:])
    assert is_general_position(top)
    assert is_general_position(bottom)
