"""Every example script runs end to end and prints what it promises."""

import os
import runpy

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")

EXPECTED_OUTPUT = {
    "quickstart.py": ["exact optimum", "heuristic"],
    "swarm_download.py": ["rarest-first", "strategy"],
    "cdn_push.py": ["transfers", "bandwidth"],
    "np_hardness_demo.py": ["dominating set", "NP-complete"],
    "online_vs_offline.py": ["clairvoyant optimum", "decoys"],
    "dynamic_network.py": ["uptime", "oracle", "parity"],
    "trace_inspect.py": ["schema-versioned", "convergence", "heuristic_select"],
    "trace_diff.py": ["byte-identical", "first divergence", "invariants hold"],
    "trace_attribute.py": [
        "critical path",
        "gap attribution",
        "waiting-for-token",
    ],
}


def test_every_example_is_covered():
    scripts = sorted(
        f for f in os.listdir(EXAMPLES_DIR) if f.endswith(".py")
    )
    assert scripts == sorted(EXPECTED_OUTPUT)


@pytest.mark.parametrize("script", sorted(EXPECTED_OUTPUT))
def test_example_runs(script, capsys):
    path = os.path.join(EXAMPLES_DIR, script)
    runpy.run_path(path, run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{script} printed nothing"
    for needle in EXPECTED_OUTPUT[script]:
        assert needle in out, f"{script} output missing {needle!r}"
