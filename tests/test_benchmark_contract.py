"""Every operation of the benchmark's workloads passes its own check.

The benchmark under ``perfbench/`` drives the program through its public
names (``cli.main``, ``RingDigraph.from_mask_string``, ``spectrum_numeric``,
``RootFinderConfig``, ``refine_all``, ``char_poly_exact``) and checks each
answer against its own references.  One round of each workload at seed 1
keeps a change that breaks one of those names or answers from reaching the
benchmark first.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

import ringspec
import ringspec.cli  # noqa: F401  (the workloads call ringspec.cli.main)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", ["scan", "spectra", "exact"])
def test_every_operation_passes_its_check(workload):
    ops = workloads.WORKLOADS[workload](ringspec, random.Random(1))
    assert ops
    failures = {op.label: failure for op in ops if (failure := op.check(op.run())) is not None}
    assert failures == {}
