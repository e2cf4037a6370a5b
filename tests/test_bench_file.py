"""The gain rule that tools/bench_file.py applies to paired benchmark runs."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "bench_file.py")
_SPEC = importlib.util.spec_from_file_location("bench_file", _PATH)
bench_file = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_file)

PARENT = [float(v) for v in range(1, 11)]  # median 5.5, quartiles 3.25 and 7.75


def test_parent_quartiles_and_change_median():
    c = bench_file.claim(PARENT, [v + 5.0 for v in PARENT], "higher")
    assert (c["parent_q1"], c["parent_median"], c["parent_q3"]) == (3.25, 5.5, 7.75)
    assert c["change_median"] == 10.5 and c["pairs"] == 10


def test_all_pairs_won_by_more_than_the_iqr_holds():
    c = bench_file.claim(PARENT, [v + 5.0 for v in PARENT], "higher")
    assert c["wins"] == 10 and c["holds"]


def test_a_gap_within_the_parent_iqr_does_not_hold():
    # every pair won, but the medians differ by 4.5, the parent's IQR
    c = bench_file.claim(PARENT, [v + 4.5 for v in PARENT], "higher")
    assert c["wins"] == 10 and not c["holds"]


@pytest.mark.parametrize("lost,holds", [(1, True), (2, False)])
def test_nine_tenths_of_the_pairs_must_be_won(lost, holds):
    change = [v + 5.0 for v in PARENT]
    for i in range(lost):
        change[i] = PARENT[i] - 1.0
    c = bench_file.claim(PARENT, change, "higher")
    assert c["wins"] == 10 - lost and c["holds"] is holds


def test_ties_count_for_neither_side():
    change = [v + 5.0 for v in PARENT]
    change[0] = PARENT[0]
    assert bench_file.claim(PARENT, change, "higher")["wins"] == 9
    assert bench_file.claim(PARENT, PARENT, "higher")["wins"] == 0


def test_lower_is_better():
    faster = [v - 5.0 for v in PARENT]
    assert bench_file.claim(PARENT, faster, "lower")["holds"]
    assert not bench_file.claim(PARENT, faster, "higher")["holds"]
    assert bench_file.claim(PARENT, faster, "higher")["wins"] == 0


def test_unpaired_runs_are_refused():
    with pytest.raises(ValueError):
        bench_file.claim(PARENT, PARENT[:-1], "higher")


def _result(throughput, ok_share, mse):
    return {"correct": True, "attempted": 8, "failed": 1,
            "metrics": {"throughput": {"value": throughput, "unit": "1/s"},
                        "ok_share": {"value": ok_share, "unit": "ratio"},
                        "train.final_mse": {"value": mse, "unit": "MSE"}}}


def test_summaries_keep_every_end_to_end_run_and_claims_read_them():
    e2e = {"throughput": "higher", "ok_share": "higher"}
    parent = [_result(t, 0.875, 1e-6) for t in PARENT]
    change = [_result(t + 5.0, 0.875, 1e-6) for t in PARENT]
    bench = {side: {"finetune-32": {"trace0": bench_file.summarize(rs, e2e)}}
             for side, rs in (("parent", parent), ("change", change))}
    assert bench["parent"]["finetune-32"]["trace0"]["runs"] == {
        "throughput": PARENT, "ok_share": [0.875] * 10}
    assert bench["parent"]["finetune-32"]["trace0"]["metrics"]["throughput"]["value"] == 5.5
    by_metric = bench_file.claims(bench, e2e)["finetune-32"]
    assert by_metric["throughput"]["holds"] and by_metric["throughput"]["wins"] == 10
    assert not by_metric["ok_share"]["holds"] and by_metric["ok_share"]["wins"] == 0
    assert bench_file.claim_line("finetune-32", "throughput", by_metric["throughput"]) == (
        "finetune-32 throughput: parent median 5.5 (quartiles 3.25-7.75), change median 10.5, "
        "change won 10 of 10 pairs, gain claimable: yes")
