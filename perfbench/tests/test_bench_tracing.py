"""Self-time arithmetic and wrapper installation of the benchmark's tracer."""

import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import tracing  # noqa: E402

# root [0, 100) has children a [10, 40) and b [50, 70); a has children
# c [15, 20) and e [20, 32); d [200, 230) is a second top-level span.
SPANS = [
    ["root", 0, 100, -1],
    ["a", 10, 40, 0],
    ["c", 15, 20, 1],
    ["e", 20, 32, 1],
    ["b", 50, 70, 0],
    ["d", 200, 230, -1],
]


def test_self_time_subtracts_direct_children_only():
    # root: 100 - 30 - 20; a: 30 - 5 - 12; a's children are not root's
    assert tracing.self_times(SPANS) == [50, 13, 5, 12, 20, 30]


def test_self_times_add_up_to_the_top_level_durations():
    assert sum(tracing.self_times(SPANS)) == 100 + 30


def test_totals_group_by_name():
    spans = SPANS + [["a", 300, 310, -1]]
    totals = tracing.totals(spans)
    assert totals["a"] == {"calls": 2, "self_ns": 23, "total_ns": 40}
    assert totals["root"] == {"calls": 1, "self_ns": 50, "total_ns": 100}


def test_self_under_counts_only_subtrees_of_the_roots():
    shares, root_ns = tracing.self_under(SPANS + [["c", 300, 301, -1]], {"a"})
    assert shares == {"a": 13, "c": 5, "e": 12}
    assert root_ns == 30


def test_count_calls_skips_a_delegate_whose_work_is_counted_in_a_child():
    spans = [
        ["radius", 0, 10, -1],
        ["norms", 1, 9, 0],  # radius reads through norms: one pass
        ["radius", 20, 30, -1],  # radius reading the array itself: one pass
        ["clip", 40, 60, -1],
        ["norms", 41, 45, 3],  # clip is no delegate: both count
        ["other", 70, 80, -1],
    ]
    names = {"radius", "norms", "clip"}
    assert tracing.count_calls(spans, names, set()) == 5
    assert tracing.count_calls(spans, names, {"radius"}) == 4


def test_install_wraps_every_binding_and_uninstall_restores_them():
    import dpcov
    import dpcov.harness
    import dpcov.linalg
    import dpcov.mechanisms

    original = dpcov.linalg.covariance
    original_init = dpcov.linalg.Dataset.__post_init__
    tracer = tracing.Tracer()
    with tracer:
        for module in (dpcov, dpcov.linalg, dpcov.mechanisms, dpcov.harness):
            assert module.covariance is not original
        assert dpcov.linalg.Dataset.__post_init__ is not original_init
        x = dpcov.Dataset(np.eye(3) / 2, ball_constrained=True)
        dpcov.gauss_cov(x, 0.5, dpcov.RandomStream(1))
    for module in (dpcov, dpcov.linalg, dpcov.mechanisms, dpcov.harness):
        assert module.covariance is original
    assert dpcov.linalg.Dataset.__post_init__ is original_init

    names = [s[0] for s in tracer.spans]
    assert names[0] == "linalg.Dataset.__post_init__"
    gauss = names.index("mechanisms.gauss_cov")
    children = {s[0] for s in tracer.spans if s[3] == gauss}
    assert {"linalg.radius", "linalg.covariance", "randomness.sgw_matrix"} <= children
    assert all(end >= start for _, start, end, _ in tracer.spans)


def test_svt_queries_are_counted_as_consumed():
    import dpcov

    tracer = tracing.Tracer()
    with tracer:
        k = dpcov.svt(iter([0.0, 0.0, 1e9, 0.0]), 1.0, 1e6, 1.0, dpcov.RandomStream(1, zero_noise=True))
    assert k == 3
    assert tracer.counts[tracing.SVT_QUERIES] == 3
