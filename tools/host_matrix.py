"""Rerun the digests whose last bits may follow the host's kernels, under
each kernel setting, and print which of them move.

    python3 tools/host_matrix.py

numpy's OpenBLAS picks its ``matmul`` and ``dot`` kernel at run time, and
numpy picks its SIMD ``exp`` at run time; ``analyze``, ``fit`` and
``predict`` go through them.  For each setting a child process, with the
setting's variable in its environment, recomputes the ``analyze/*``,
``fit/*`` and ``predict/*`` digests of ``tests/test_golden.py`` and checks
``qon.calibrate_default_weights()`` against ``qon.DEFAULT_WEIGHTS``.  The
settings:

- ``default``: the environment as it is;
- ``haswell`` and ``prescott``: ``OPENBLAS_CORETYPE=Haswell`` or
  ``Prescott``;
- ``no-avx512``: ``NPY_DISABLE_CPU_FEATURES`` set to the AVX-512 features
  that the running numpy dispatches (skipped if it dispatches none).

It prints one line a setting: what moved, ``nothing moves``, or why the
child gave no answer (its exit status, or the ``TIMEOUT`` it ran past).
The exit status is 0 if nothing moved and every child answered, else 1.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FAMILIES = ("analyze/", "fit/", "predict/")
WEIGHTS = "qon.DEFAULT_WEIGHTS"
TIMEOUT = 300.0  # seconds each child may run
CHILD = (
    "import json, sys; sys.path.insert(0, {!r}); import host_matrix; "
    "print(json.dumps(host_matrix.moved()))"
).format(str(Path(__file__).resolve().parent))


def avx512_features() -> list[str]:
    """The AVX-512 features that the running numpy dispatches."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return [f for f in umath.__cpu_dispatch__ if f.startswith(("AVX512", "X86_V4"))]


def settings() -> dict[str, dict[str, str]]:
    """Each setting's name and the variables it sets."""
    found = {
        "default": {},
        "haswell": {"OPENBLAS_CORETYPE": "Haswell"},
        "prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    }
    features = avx512_features()
    if features:
        found["no-avx512"] = {"NPY_DISABLE_CPU_FEATURES": " ".join(features)}
    return found


def moved() -> list[str]:
    """The digests and weights that differ from the pinned ones, here."""
    sys.path[:0] = [str(ROOT / "src")]
    from drsync import qon

    spec = importlib.util.spec_from_file_location(
        "test_golden", ROOT / "tests" / "test_golden.py"
    )
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    with tempfile.TemporaryDirectory() as tmp:
        digests = {**golden.trace_digests(Path(tmp)), **golden.qon_digests(Path(tmp))}
    names = [
        name for name, digest in sorted(digests.items())
        if name.startswith(FAMILIES) and digest != golden.GOLDEN[name]
    ]
    if qon.calibrate_default_weights() != qon.DEFAULT_WEIGHTS:
        names.append(WEIGHTS)
    return names


def run_setting(variables: dict[str, str], timeout: float) -> str:
    """What moved under ``variables``, in a child process, as one line."""
    try:
        child = subprocess.run(
            [sys.executable, "-c", CHILD],
            env={**os.environ, **variables},
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return f"no answer: timed out after {timeout:g} s"
    if child.returncode != 0:
        last = (child.stderr.strip().splitlines() or [""])[-1]
        return f"no answer: exit {child.returncode}: {last}"
    names = json.loads(child.stdout.splitlines()[-1])
    return ", ".join(names) + " move" if names else "nothing moves"


def main() -> int:
    status = 0
    for name, variables in settings().items():
        line = run_setting(variables, TIMEOUT)
        shown = " ".join(f"{k}={v!r}" for k, v in variables.items()) or "as it is"
        print(f"{name} ({shown}): {line}")
        status |= line != "nothing moves"
    return status


if __name__ == "__main__":
    sys.exit(main())
