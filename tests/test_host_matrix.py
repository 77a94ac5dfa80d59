"""``tools/host_matrix.py`` reruns the host-dependent digests in a child
process.  Under the default setting, the one every tier-1 run has, nothing
may move; the other settings move digests today, so only the tool runs
them."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "host_matrix", ROOT / "tools" / "host_matrix.py"
)
host_matrix = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(host_matrix)


def test_nothing_moves_under_the_default_setting():
    assert host_matrix.run_setting({}, host_matrix.TIMEOUT) == "nothing moves"


def test_each_setting_sets_one_kernel_variable():
    known = host_matrix.settings()
    assert known.pop("default") == {}
    assert known.pop("haswell") == {"OPENBLAS_CORETYPE": "Haswell"}
    assert known.pop("prescott") == {"OPENBLAS_CORETYPE": "Prescott"}
    features = host_matrix.avx512_features()
    assert known == (
        {"no-avx512": {"NPY_DISABLE_CPU_FEATURES": " ".join(features)}}
        if features else {}
    )


def test_a_child_that_runs_past_its_timeout_gives_no_answer():
    line = host_matrix.run_setting({}, timeout=0.001)
    assert line == "no answer: timed out after 0.001 s"
