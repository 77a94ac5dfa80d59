"""``tools/layers.py`` times the production stages of each benchmark op.

Its stage seconds come from the ``stage seconds:`` lines drsync logs, so
they must fit inside the op they time and account for most of it: a stage
figure that timed another path, as the scalar replay's do, would break
one bound or the other.
"""

import importlib.util
import json
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("layers", ROOT / "tools" / "layers.py")
layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layers)

# Each workload at a small size, with the stages its op must log.
SMALL = {
    "sim-slow-clean": (
        {"duration_ms": 60_000},
        {"simulate." + s for s in ("trajectory", "sample", "sender", "transport",
                                   "receiver", "export_error", "summary")},
    ),
    "sim-fast-lossy": (
        {"duration_ms": 10_000, "n_seeds": 2},
        {"compare." + s for s in ("trajectory", "sample", "sender", "draws",
                                  "transport", "receiver", "export_error",
                                  "summary", "write", "comparison_csv",
                                  "comparison_json")},
    ),
    "trace-mmorpg": (
        {"n_clients": 2, "duration_ms": 30_000},
        {"generate.draw", "generate.sort", "generate.write", "analyze.read",
         "analyze.stats", "analyze.bucket", "analyze.period"},
    ),
    "analyst-fine": (
        {"duration_ms": 5_000, "n_sessions": 500},
        {"generate.draw", "generate.sort", "generate.write", "analyze.read",
         "analyze.stats", "analyze.bucket", "analyze.period", "fit.read",
         "fit.design", "fit.descent", "fit.write"},
    ),
}
# The least share of an op's wall time its stages cover.  At these sizes
# they covered 0.55-0.65 of trace-mmorpg's ops, where building the CLI's
# parser weighs most, and 0.84-0.93 of the others' (8 ops each on a 2-vCPU
# Xeon guest); at full size, 0.97-0.99.
SHARE = 0.4


@pytest.mark.parametrize("name", sorted(SMALL))
def test_stages_fit_inside_each_op(name):
    sizes, expected = SMALL[name]
    ops = layers.measure(replace(layers.WORKLOADS[name], **sizes), seed=1, runs=2)
    for wall, stages in ops:
        assert set(stages) == expected
        assert SHARE * wall <= sum(stages.values()) <= wall


def test_the_line_holds_medians(capsys, monkeypatch):
    sizes, expected = SMALL["sim-slow-clean"]
    small = replace(layers.WORKLOADS["sim-slow-clean"], **sizes)
    monkeypatch.setitem(layers.WORKLOADS, "sim-slow-clean", small)
    assert layers.main(["--workload", "sim-slow-clean", "--seed", "2", "--runs", "3"]) == 0
    line = json.loads(capsys.readouterr().out)
    assert {k: line[k] for k in ("workload", "seed", "runs")} == {
        "workload": "sim-slow-clean", "seed": 2, "runs": 3,
    }
    assert set(line["stages"]) == expected
    assert line["wall_s"] > 0
