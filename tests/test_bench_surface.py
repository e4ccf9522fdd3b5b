"""The package still provides what the benchmark wraps and reads (bench/job.py).

The benchmark replaces each (owner, attribute) of its phase and layer lists
with a timed wrapper, and counts Adam's elements from the optimizer's slots.
A source change that renames or reshapes one of them breaks the benchmark;
these tests make it fail the suite too.
"""

import sys
from pathlib import Path

import pytest

from treequant.train import build_model

BENCH = Path(__file__).resolve().parent.parent / "bench"

sys.path.insert(0, str(BENCH))
try:
    import job
finally:
    sys.path.remove(str(BENCH))


@pytest.mark.parametrize("owner, attr", [wrap[:2] for wrap in job.PHASES + job.LAYERS],
                         ids=[f"{wrap[0].__name__}.{wrap[1]}" for wrap in job.PHASES + job.LAYERS])
def test_every_wrap_point_is_callable(owner, attr):
    assert callable(getattr(owner, attr))


@pytest.mark.parametrize("workload", sorted(job.WORKLOADS))
def test_adam_elements_count_every_parameter(workload):
    cfg = job.WORKLOADS[workload].config("unread.tsv", seed=1)
    model = build_model(cfg, n_users=3, n_items=300)
    want = sum(p.value.size for p in model.parameters())
    assert job._adam_elements(None, model.optimizer) == {"elements": want}
