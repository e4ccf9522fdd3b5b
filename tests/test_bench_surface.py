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
    import spans
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


def test_one_predict_call_records_one_span():
    """With every wrap point installed, one predict call is one models.predict span.

    The benchmark wraps CfModel.predict_topk and CtrModel.predict_topk
    separately; if one class inherited the other's method, the inherited
    wrapper would wrap again and every call would record two spans.  The
    wraps are installed once: a second install would find the first one's
    leftover wrapper and hide the double count.
    """
    models = {workload: build_model(wl.config("unread.tsv", seed=1), n_users=3, n_items=300)
              for workload, wl in job.WORKLOADS.items()}
    rec = spans.Recorder()
    with rec.wrapped(job.PHASES + job.LAYERS):
        for workload, model in models.items():
            rec.job = workload
            if job.WORKLOADS[workload].lists:
                model.predict_completion([0, 1], k=5)
            else:
                model.predict_topk(0, list(range(100)), k=10)
            rec.job = None
    predicts = [job_id for name, _, _, _, job_id, _ in rec.spans if name == "models.predict"]
    assert {workload: predicts.count(workload) for workload in models} == dict.fromkeys(models, 1)
