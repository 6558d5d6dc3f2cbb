"""Dimensioning formulas and the proportional-scaling harness."""

import json
import random

import pytest

from pipechain import cli, provisioning
from pipechain.engine import SimConfig, Simulation
from pipechain.pipeline import build_topology, fold_levels
from pipechain.provisioning import (
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


def _deployment(leaf, j):
    """The topology a run of `leaf` leaf committees and hash budget j builds."""
    return build_topology(leaf, j, leaf.bit_length())


def test_dimension_table():
    for (m, e, j), expected in DIMENSION_TABLE:
        leaf = provision_minimal(m, e)
        assert (leaf, _deployment(leaf, j).inner_count) == expected, (m, e, j)


def test_provision_minimal_is_minimal():
    rng = random.Random(12)
    for _ in range(300):
        m = rng.randrange(1, 5000)
        e = rng.randrange(1, 50)
        j = rng.randrange(1, 2000)
        leaf = provision_minimal(m, e)
        inner = _deployment(leaf, j).inner_count
        cap = (1 << fold_levels(j)) - 1  # hashes of one full affordable fold
        assert leaf & (leaf - 1) == 0
        assert leaf * e >= m
        assert leaf == 1 or (leaf // 2) * e < m
        assert inner * cap >= leaf - 1
        assert inner == 0 or (inner - 1) * cap < leaf - 1


def test_provision_minimal_levels():
    leaf = provision_minimal(200, 10)
    topo = _deployment(leaf, 7)
    assert (leaf, topo.inner_count) == (32, 5)
    assert fold_levels(7) == 3
    assert topo.rpc_levels == 3  # leaves plus two inner tiers
    assert topo.stages == 4
    flat = provision_minimal(13, 13)
    topo = _deployment(flat, 7)
    assert (flat, topo.inner_count) == (1, 0)
    assert topo.rpc_levels == 1
    assert topo.stages == 2


def test_provision_after_doubling():
    leaf = provision_after_doubling(128, 32)
    topo = _deployment(leaf, 1023)
    assert (leaf, topo.inner_count) == (8, 1)
    assert topo.rpc_levels == 2
    assert topo.stages == 3
    assert provision_after_doubling(16, 4) == 8  # half-loaded leaves after doubling
    with pytest.raises(ValueError):
        provision_after_doubling(9, 4)  # not divisible
    with pytest.raises(ValueError):
        provision_after_doubling(24, 4)  # ratio not a power of two


def test_dimension_reports_the_deployment_a_run_builds(capsys):
    # every budget class up to 1023, capacities that do and do not divide
    # powers of two, and m/e from 1 to 512, in both dimensioning modes
    parser = cli.build_parser()
    built = {}
    for j in (1, 2, 3, 7, 8, 14, 15, 31, 62, 63, 127, 255, 511, 1023):
        for e in (1, 8, 13, 32):
            for m in (e << k for k in range(10)):
                for mode in ([], ["--after-doubling"]):
                    argv = ["dimension", "-m", str(m), "-e", str(e), "-j", str(j)]
                    args = parser.parse_args(argv + mode + ["--json"])
                    assert args.func(args) == 0
                    prov = json.loads(capsys.readouterr().out)
                    leaf = prov["leaf_rpcs"]
                    if (leaf, j) not in built:
                        config = SimConfig(
                            address_bits=leaf.bit_length(),
                            f=1,
                            n_c=1,
                            leaf_count=leaf,
                            j=j,
                            initial_accounts=1,
                        )
                        sim = Simulation(config)
                        built[(leaf, j)] = (
                            len(sim.leaf_rpcs),
                            len(sim.inner_rpcs),
                            sim.topology.rpc_levels,
                            sim.topology.stages,
                        )
                    keys = ("leaf_rpcs", "inner_rpcs", "rpc_levels", "stages")
                    reported = tuple(prov[key] for key in keys)
                    assert reported == built[(leaf, j)], (m, e, j, mode)
    assert len(built) == 154


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
    assert [run.summary["config"]["n_c"] for run in runs] == [2, 4]
    assert [run.summary["config"]["leaf_count"] for run in runs] == [8, 16]
    # the inner committees the runs simulated: one 8-ary tier at alpha 1;
    # two 8-ary rpcs under one 2-ary root at alpha 2
    committees = [run.summary["committees"] for run in runs]
    assert [c["inner"] for c in committees] == [1, 3]
    assert [c["cc"] + c["leaf"] + c["inner"] for c in committees] == [2 + 8 + 1, 4 + 16 + 3]
    assert all(run.summary["block_bytes"] == 72 for run in runs)
    # doubling the leaves deepens the tree; budget 7 owns 3 levels per tier,
    # so the fourth level forces one more pipeline stage
    assert [run.summary["stages"] for run in runs] == [3, 4]
    for run in runs:
        peaks = run.summary["peaks"]
        assert peaks["cc_tx"] <= 4  # stratified sources, f/n_c per committee
        assert run.well_provisioned == (
            run.summary["fatal"] is None and peaks["rpc_hashes"] <= 7 and peaks["cc_tx"] <= 4
        )


def test_scale_experiment_validates_base(monkeypatch):
    built = []
    monkeypatch.setattr(provisioning, "Simulation", lambda *a, **k: built.append(a))
    with pytest.raises(ValueError):
        scale_experiment(_base_config(f=9), [1])  # n_c does not divide f
    with pytest.raises(ValueError):
        scale_experiment(_base_config(leaf_count=4), [1])  # not after-doubling
    with pytest.raises(ValueError):
        scale_experiment(_base_config(), [0])
    with pytest.raises(ValueError):
        # every alpha is checked before the first run
        scale_experiment(_base_config(), [1, 0])
    assert built == []
