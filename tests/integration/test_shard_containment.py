"""REPRO_SHARDS containment: existing experiments under the sharded engine.

The HyperLoop experiments and the chaos corpus are single-clique
worlds (one replica chain sharing a fabric), so the partitioner cannot
split them; ``REPRO_SHARDS`` instead *contains* each run in a shard
worker process. The contract is the usual one: byte-identical
results, now across a process boundary. This is the job
``nightly.yml`` runs over the whole corpus.
"""

import dataclasses
import os
from pathlib import Path

import pytest

from repro.bench.experiments import microbench_latency
from repro.faults.sweep import run_replay

CORPUS = (
    Path(__file__).resolve().parents[2] / "corpus" / "chaos" / "regressions.txt"
)


@pytest.fixture
def sharded_env():
    os.environ["REPRO_SHARDS"] = "1"
    try:
        yield
    finally:
        os.environ.pop("REPRO_SHARDS", None)


def corpus_specs(limit=4):
    specs = []
    for line in CORPUS.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            specs.append(line)
    return specs[:limit]


def test_microbench_identical_under_containment(sharded_env):
    del os.environ["REPRO_SHARDS"]
    base = microbench_latency("hyperloop", primitive="gwrite", n_ops=30, seed=9)
    os.environ["REPRO_SHARDS"] = "1"
    contained = microbench_latency(
        "hyperloop", primitive="gwrite", n_ops=30, seed=9
    )
    assert dataclasses.asdict(contained) == dataclasses.asdict(base)


@pytest.mark.parametrize("spec", corpus_specs())
def test_corpus_spec_identical_under_containment(spec, sharded_env):
    del os.environ["REPRO_SHARDS"]
    base = run_replay(spec)
    os.environ["REPRO_SHARDS"] = "1"
    contained = run_replay(spec)
    assert contained.render() == base.render()
    assert contained.passed == base.passed
    assert [
        (inv.name, inv.ok, inv.detail) for inv in contained.invariants
    ] == [(inv.name, inv.ok, inv.detail) for inv in base.invariants]


def test_containment_env_does_not_leak(sharded_env):
    # The worker gets REPRO_SHARD_ROLE so nested calls do not re-spawn;
    # the parent process must never see it.
    microbench_latency("hyperloop", primitive="gwrite", n_ops=5, seed=1)
    assert "REPRO_SHARD_ROLE" not in os.environ
