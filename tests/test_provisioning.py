"""Dimensioning formulas and the proportional-scaling harness."""

import random

import pytest

from pipechain.engine import SimConfig
from pipechain.provisioning import (
    fold_capacity,
    fold_levels,
    min_committees,
    provision_after_doubling,
    provision_minimal,
    scale_experiment,
)

# (changes per round, leaf capacity, hash budget) -> (leaf rpcs, inner rpcs)
DIMENSION_TABLE = [
    ((1, 1, 1), (1, 0)),
    ((1, 13, 7), (1, 0)),
    ((13, 13, 7), (1, 0)),
    ((14, 13, 7), (2, 1)),
    ((3, 1, 2), (4, 3)),
    ((5, 1, 6), (8, 3)),
    ((16, 4, 7), (4, 1)),
    ((16, 4, 1), (4, 3)),
    ((17, 2, 7), (16, 3)),
    ((50, 13, 7), (4, 1)),
    ((64, 4, 14), (16, 3)),
    ((100, 10, 3), (16, 5)),
    ((129, 2, 63), (128, 3)),
    ((129, 2, 62), (128, 5)),
    ((200, 10, 7), (32, 5)),
    ((512, 2, 7), (256, 37)),
    ((512, 2, 15), (256, 17)),
    ((512, 2, 16), (256, 17)),
    ((1000, 10, 1023), (128, 1)),
    ((1000, 10, 1), (128, 127)),
    ((1025, 32, 31), (64, 3)),
    ((4096, 64, 255), (64, 1)),
]


def test_fold_levels_boundaries():
    assert fold_levels(1) == 1
    assert fold_levels(2) == 1
    assert fold_levels(3) == 2
    assert fold_levels(14) == 3
    assert fold_levels(15) == 4
    assert fold_levels(1023) == 10
    assert fold_levels(1024) == 10
    with pytest.raises(ValueError):
        fold_levels(0)


def test_fold_capacity():
    assert fold_capacity(1) == 1
    assert fold_capacity(14) == 7
    assert fold_capacity(15) == 15
    assert fold_capacity(1023) == 1023


def test_dimension_table():
    for (m, e, j), expected in DIMENSION_TABLE:
        assert min_committees(m, e, j) == expected, (m, e, j)


def test_min_committees_is_minimal():
    rng = random.Random(12)
    for _ in range(300):
        m = rng.randrange(1, 5000)
        e = rng.randrange(1, 50)
        j = rng.randrange(1, 2000)
        leaf, inner = min_committees(m, e, j)
        cap = fold_capacity(j)
        assert leaf & (leaf - 1) == 0
        assert leaf * e >= m
        assert leaf == 1 or (leaf // 2) * e < m
        assert inner * cap >= leaf - 1
        assert inner == 0 or (inner - 1) * cap < leaf - 1


def test_provision_minimal_levels():
    prov = provision_minimal(200, 10, 7, cc_count=4)
    assert (prov.leaf_rpcs, prov.inner_rpcs) == (32, 5)
    assert prov.fold_levels == 3
    assert prov.rpc_levels == 3  # leaves plus two inner tiers
    assert prov.stages == 4
    assert prov.total_committees == 4 + 32 + 5
    flat = provision_minimal(13, 13, 7)
    assert (flat.leaf_rpcs, flat.inner_rpcs) == (1, 0)
    assert flat.rpc_levels == 1
    assert flat.stages == 2


def test_provision_after_doubling():
    prov = provision_after_doubling(128, 32, 1023)
    assert (prov.leaf_rpcs, prov.inner_rpcs) == (8, 1)
    assert prov.rpc_levels == 2
    assert prov.stages == 3
    prov = provision_after_doubling(16, 4, 7)
    assert prov.leaf_rpcs == 8  # half-loaded leaves right after doubling
    with pytest.raises(ValueError):
        provision_after_doubling(9, 4, 7)  # not divisible
    with pytest.raises(ValueError):
        provision_after_doubling(24, 4, 7)  # ratio not a power of two


def _base_config(**overrides):
    params = dict(
        seed=3,
        address_bits=10,
        f=8,
        n_c=2,
        leaf_count=8,
        j=7,
        e=4,
        rho=1,
        rounds=6,
        initial_accounts=64,
        initial_balance=10_000,
    )
    params.update(overrides)
    return SimConfig(**params)


def test_scale_experiment_shapes():
    runs = scale_experiment(_base_config(), [1, 2])
    assert [run.alpha for run in runs] == [1, 2]
    assert [run.config.n_c for run in runs] == [2, 4]
    assert [run.config.leaf_count for run in runs] == [8, 16]
    # the inner committees the runs simulated: one 8-ary tier at alpha 1;
    # two 8-ary rpcs under one 2-ary root at alpha 2
    assert [run.inner_rpcs for run in runs] == [1, 3]
    assert [run.committees_total for run in runs] == [2 + 8 + 1, 4 + 16 + 3]
    assert all(run.block_bytes == 72 for run in runs)
    # doubling the leaves deepens the tree; budget 7 owns 3 levels per tier,
    # so the fourth level forces one more pipeline stage
    assert [run.stages for run in runs] == [3, 4]
    for run in runs:
        assert run.peak_cc_tx <= 4  # stratified sources, f/n_c per committee
        assert run.well_provisioned == (
            run.oracle_ok and run.peak_rpc_hashes <= 7 and run.peak_cc_tx <= 4
        )


def test_scale_experiment_validates_base():
    with pytest.raises(ValueError):
        scale_experiment(_base_config(f=9), [1])  # n_c does not divide f
    with pytest.raises(ValueError):
        scale_experiment(_base_config(leaf_count=4), [1])  # not after-doubling
    with pytest.raises(ValueError):
        scale_experiment(_base_config(), [0])
