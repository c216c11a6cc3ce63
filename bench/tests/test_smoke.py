"""Toy-size run of every workload through the real CLI, traced and untraced.

Fails loudly when a refactor breaks a workload, its output checks, or the
layer a workload exists to measure.

    python3 -m pytest bench/tests
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from layers import COUNT_METRICS, Job, layer_values  # noqa: E402
from run import judge, measure  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: The count that shows each workload still reaches the layer it is for.
REACHES = {
    "mc_stationary_diag": "simulate.draw_calls",
    "pointwise_pipeline": "simulate.dense_factor_dim",
    "cumulants_exact": "chaos.trace_dim",
    "integrator_paths": "fgn.embedding_calls",
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_toy_workload(name, tmp_path):
    jobs = measure(name, seed=1, seconds=0, trace=True, toy=True, work=tmp_path)
    assert [job.traced for job in jobs] == [False, True]
    attempted, failed, problems = judge(jobs)
    assert failed == 0 and not problems, [r.problems for j in jobs for r in j.commands]
    assert attempted == 2 * len(WORKLOADS[name].commands(1, toy=True))
    values = layer_values(Job([run.record for run in jobs[1].commands]))
    assert values[REACHES[name]] > 0
    assert all(values[k] is not None for k in COUNT_METRICS)
    assert jobs[0].metrics()["setup_s"] > 0 and jobs[0].metrics()["peak_rss_mb"] > 0
