"""Span arithmetic, wrapping and the benchmark's declared metrics.

    python3 -m pytest bench/tests
"""

import json
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from layers import DECLARED, TARGETS, Job, layer_values  # noqa: E402
from run import END_TO_END, import_costs  # noqa: E402
from spans import POOL_TASK, Recorder, Target, outermost, self_times, union_length  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MAIN, W1, W2 = 1, 2, 3


def span(name, start, end, parent, thread):
    return {"name": name, "start": start, "end": end, "parent": parent, "thread": thread}


def synthetic_tree():
    """A main-thread phase with a nested call, and two overlapping pool
    tasks on two workers, one of which makes a nested call of its own."""
    return [
        span("phase", 0.0, 10.0, None, MAIN),
        span("call", 1.0, 4.0, 0, MAIN),
        span("inner", 2.0, 3.0, 1, MAIN),
        span(POOL_TASK, 5.0, 9.0, 0, W1),
        span(POOL_TASK, 6.0, 8.5, 0, W2),
        span("draw", 6.0, 7.0, 3, W1),
    ]


def test_union_length_merges_overlaps():
    assert union_length([(0, 2), (1, 3), (5, 6), (6, 6)]) == 4
    assert union_length([]) == 0


def test_self_times_nested_and_threaded():
    # phase: 10 s minus the nested call (3 s) and the waiting covered by the
    # two overlapping tasks, counted once (5..9).
    assert self_times(synthetic_tree()) == pytest.approx([3.0, 2.0, 1.0, 3.0, 2.5, 1.0])


def test_self_times_never_negative_when_children_overrun():
    spans = [span("a", 0.0, 1.0, None, MAIN), span("b", 0.5, 2.0, 0, W1)]
    assert self_times(spans)[0] == pytest.approx(0.5)


def test_outermost_counts_nested_calls_of_a_group_once():
    spans = synthetic_tree()
    assert outermost(spans, ["call", "inner"]) == [1]
    assert outermost(spans, ["inner", "draw"]) == [2, 5]


def fake_package():
    """Two module namespaces binding the same functions under other names,
    as ``from .x import y`` does, plus a pool class binding."""
    core = types.ModuleType("core")

    def work(n):
        return np.ones(n)

    class Sampler:
        def draw(self, n):
            return core.work(n)

    core.work, core.Sampler = work, Sampler
    front = types.ModuleType("front")
    front.run_work = work
    front.ThreadPoolExecutor = ThreadPoolExecutor

    def phase(n):
        with front.ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(front.run_work, [n] * 4))

    front.phase = phase
    return {"core": core, "front": front}


def test_install_wraps_every_binding_and_pool_tasks():
    modules = fake_package()
    rec = Recorder()
    rec.install([Target("core", "work", "core.work", counts=lambda a, r: {"n": r.size}),
                 Target("core", "Sampler.draw", "core.draw"),
                 Target("front", "phase", "front.phase")], modules)
    modules["front"].phase(3)
    modules["core"].Sampler().draw(5)
    names = [s["name"] for s in rec.spans]
    assert names.count("core.work") == 5 and names.count(POOL_TASK) == 4
    phase_id = names.index("front.phase")
    for s in rec.spans:
        if s["name"] == POOL_TASK:
            assert s["parent"] == phase_id and s["workers"] == 2
            assert s["thread"] != threading.get_ident()
    draw_id = names.index("core.draw")
    assert rec.spans[-1]["parent"] == draw_id and rec.spans[-1]["counts"] == {"n": 5}
    assert all(t >= 0 for t in self_times(rec.spans))


def test_missing_names_are_absent_not_errors():
    modules = fake_package()
    rec = Recorder()
    rec.install([Target("core", "renamed", "core.renamed"),
                 Target("core", "Gone.method", "core.gone"),
                 Target("nomodule", "f", "nomodule.f"),
                 Target("core", "work", "core.work")], modules)
    assert rec.absent == ["core.renamed", "core.Gone.method", "nomodule.f"]
    assert rec.installed == {"core.work"}


def test_layer_metrics_absent_when_no_function_is_left():
    # Every fracdrift function renamed away: span metrics are absent,
    # import metrics absent, and nothing raises.
    record = {"spans": [], "installed": [], "absent": [t.qualname for t in TARGETS],
              "imports": {}, "main_start": 0.0, "main_end": 1.0}
    values = layer_values(Job([record]))
    assert values["cli.other_s"] == pytest.approx(1.0)
    assert values["simulate.draw_calls"] is None
    assert values["cli.import_s.chaos"] is None


def test_memory_span_peak_excludes_untraced_children():
    core = types.ModuleType("core")

    def helper():
        return np.ones(2**21)          # 16 MB, in a child that is not traced

    def dense():
        kept = core.helper()
        big = np.ones(2**20)           # 8 MB of the span's own work
        return kept.sum() + big.sum()

    core.helper, core.dense = helper, dense
    rec = Recorder()
    rec.install([Target("core", "dense", "core.dense", memory=True),
                 Target("core", "helper", "core.helper")], {"core": core})
    core.dense()
    peak = rec.spans[0]["peak_mb"]
    assert 8.0 <= peak < 9.0


def test_import_costs_charge_third_party_to_first_importer():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | fracdrift",
        "import time:       500 |        500 |     scipy.special",
        "import time:        50 |        550 |   fracdrift.models",
        "import time:      9000 |       9000 |     scipy.stats",
        "import time:        40 |       9040 |   fracdrift.chaos",
        "import time:        10 |       9600 | fracdrift.cli",
        "error: compute: unrelated line",
    ])
    costs = import_costs(text)
    assert costs == pytest.approx({"fracdrift": 1e-4, "fracdrift.models": 5.5e-4,
                                   "fracdrift.chaos": 9.04e-3, "fracdrift.cli": 1e-5})


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == DECLARED
