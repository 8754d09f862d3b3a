"""Every randomized generator is a function of the ``random.Random`` it gets.

``tests/test_determinism_env.py`` covers the generators some driver
reaches.  This test calls every public generator of ``repro.topology``
and ``repro.workloads`` twice with ``Random(7)`` and requires equal
output, so a draw from the global RNG or an unseeded ``Random()`` inside
one fails here even when no experiment calls it.
"""

from __future__ import annotations

import inspect
import random

import pytest

import repro.topology as topology
import repro.workloads as workloads
from repro.core.problem import Problem

#: The fixed overlay the workload generators assign content on.
OVERLAY = topology.random_graph(12, random.Random(1))


def _draws(capacity):
    return lambda rng: [capacity(rng) for _ in range(32)]


GENERATORS = {
    "adversarial_spread_instance": lambda rng: topology.adversarial_spread_instance(
        rng, num_vertices=12
    ),
    "bottleneck_instance": lambda rng: topology.bottleneck_instance(rng, cluster_size=8),
    "dag_instance": lambda rng: topology.dag_instance(rng, num_vertices=10, num_tokens=4),
    "random_instance": lambda rng: topology.random_instance(
        rng, max_vertices=10, max_tokens=4
    ),
    "random_graph": lambda rng: topology.random_graph(20, rng),
    "sparse_random_graph": lambda rng: topology.sparse_random_graph(50, rng),
    "transit_stub_graph": lambda rng: topology.transit_stub_graph(
        topology.TransitStubParams(), rng
    ),
    "paper_capacity": _draws(topology.paper_capacity),
    "unit_capacity": _draws(topology.unit_capacity),
    "uniform_capacity": _draws(topology.uniform_capacity(1, 100)),
    "file_subdivision": lambda rng: workloads.file_subdivision(
        OVERLAY, 2, rng=rng, total_tokens=8, multi_sender=True
    ),
    "receiver_density": lambda rng: workloads.receiver_density(
        OVERLAY, 0.5, rng, file_tokens=8
    ),
}


def _comparable(output):
    # Problem equality ignores arc order; the serialized form does not.
    return output.to_dict() if isinstance(output, Problem) else output


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_same_seed_same_output(name):
    generate = GENERATORS[name]
    first = _comparable(generate(random.Random(7)))
    assert _comparable(generate(random.Random(7))) == first


def test_every_generator_that_takes_an_rng_is_listed():
    takes_rng = {
        name
        for package in (topology, workloads)
        for name in package.__all__
        if callable(getattr(package, name))
        and not inspect.isclass(getattr(package, name))
        and "rng" in inspect.signature(getattr(package, name)).parameters
    }
    assert takes_rng <= set(GENERATORS)
