"""Unit tests for the benchmark harness helpers.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import copy
import json
import random

import pytest

from perfbench import checks, schedule, spans, stats
from perfbench.bootstrap import wrap_call, wrap_generator


# -- tail percentile ----------------------------------------------------------

def test_tail_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    info = stats.tail(samples)
    assert info["percentile"] == 90
    assert info["value"] == 90.0
    assert info["beyond"] == 10
    assert info["samples"] == 100


@pytest.mark.parametrize("n", [21, 25, 30, 47, 64, 100, 333, 1000])
def test_tail_is_the_highest_percentile_with_ten_beyond(n):
    samples = list(range(n))
    random.Random(n).shuffle(samples)
    info = stats.tail(samples)
    assert info["beyond"] >= stats.TAIL_BEYOND
    # One percentile higher would leave fewer than ten samples beyond.
    higher = info["percentile"] + 1
    rank = -(-higher * n // 100)
    assert higher == 100 or n - rank < stats.TAIL_BEYOND
    assert info["value"] == sorted(samples)[n - info["beyond"] - 1]


def test_tail_falls_back_to_median_when_samples_are_few():
    samples = [5.0, 1.0, 3.0, 2.0, 4.0]
    info = stats.tail(samples)
    assert info["percentile"] == 50
    assert info["value"] == 3.0
    with pytest.raises(ValueError):
        stats.tail([])


def test_spread_uses_exclusive_quartiles_over_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, _, q3 = [2.75, 5.5, 8.25]
    assert stats.spread(values) == pytest.approx((q3 - q1) / 5.5)
    assert stats.spread([2.0, 2.0, 2.0]) == 0.0


def test_geomean():
    assert stats.geomean([1.0, 4.0, 16.0]) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        stats.geomean([1.0, 0.0])


# -- seeded inputs -------------------------------------------------------------

def test_arrival_schedule_is_seed_deterministic():
    a = schedule.jittered_arrivals(random.Random(7), 0.3, 60)
    b = schedule.jittered_arrivals(random.Random(7), 0.3, 60)
    c = schedule.jittered_arrivals(random.Random(8), 0.3, 60)
    assert a == b
    assert a != c
    assert len(a) == 18
    assert a == sorted(a)
    assert all(0.0 <= t < 60 for t in a)
    # One send per 1/rate slot: never more than two in any slot-long span.
    assert all(k / 0.3 - 1e-9 <= t < (k + 1) / 0.3 + 1e-9
               for k, t in enumerate(a))


def test_zipf_draws_are_seed_deterministic_with_exact_shares():
    ops = [f"op{i}" for i in range(12)]
    many = schedule.zipf_draws(random.Random(5), ops, 300)
    assert many == schedule.zipf_draws(random.Random(5), ops, 300)
    other = schedule.zipf_draws(random.Random(6), ops, 300)
    assert many != other
    # Another seed reorders the edits but keeps every operator's count.
    assert sorted(many) == sorted(other)
    assert len(many) == 300
    assert many.count("op0") > many.count("op1") > many.count("op11")
    weights = schedule.zipf_weights(12)
    share = weights[0] / sum(weights)
    assert abs(many.count("op0") - 300 * share) < 1


def test_stratified_kinds_hold_exact_shares():
    mix = (("warm", 0.55), ("edit", 0.35), ("batch", 0.10))
    kinds = schedule.stratified_kinds(random.Random(1), 9, mix)
    assert len(kinds) == 9
    assert (kinds.count("warm"), kinds.count("edit"),
            kinds.count("batch")) == (5, 3, 1)
    assert kinds == schedule.stratified_kinds(random.Random(1), 9, mix)


def test_edit_stream_has_three_edits_per_warm():
    kinds = schedule.edit_stream(random.Random(2), blocks=10)
    assert len(kinds) == 40
    for block in range(10):
        chunk = kinds[4 * block:4 * block + 4]
        assert sorted(chunk) == ["edit", "edit", "edit", "warm"]
    assert kinds == schedule.edit_stream(random.Random(2), blocks=10)


def test_cli_pass_compiles_each_app_cold_before_its_warm_reruns():
    steps = schedule.cli_pass(random.Random(9), ["a", "b", "c"],
                              ["x", "y"], warm_reruns=2, colds=2)
    assert steps == schedule.cli_pass(random.Random(9), ["a", "b", "c"],
                                      ["x", "y"], warm_reruns=2, colds=2)
    assert sorted(steps) == sorted(
        [("cold", app) for app in "abc" for _ in range(2)]
        + [("warm", app) for app in "abc" for _ in range(4)]
        + [("o0", "x"), ("o0", "y")])
    for app in "abc":
        kinds = [kind for kind, name in steps if name == app]
        assert kinds[0] == "cold"
    orders = {tuple(schedule.cli_pass(random.Random(k), ["a", "b", "c"],
                                      ["x", "y"], warm_reruns=2, colds=2))
              for k in range(20)}
    assert len(orders) > 1


def test_cycle_is_balanced():
    items = schedule.cycle(random.Random(4), ["a", "b", "c"], 10)
    counts = sorted(items.count(x) for x in "abc")
    assert counts == [3, 3, 4]


# -- span self time -------------------------------------------------------------

def _span(rid, parent, layer, dur):
    return {"id": rid, "parent": parent, "layer": layer, "dur": dur}


def test_self_time_subtracts_direct_children_only():
    records = [
        _span(0, None, "service.exec", 10.0),
        _span(1, 0, "core.step", 6.0),
        _span(2, 1, "pnr", 5.0),
        _span(3, 2, "pnr.route", 3.0),
        _span(4, 2, "pnr.place", 1.5),
        _span(5, 0, "rosetta.get_app", 2.0),
    ]
    selves = spans.self_times(records)
    assert selves == {0: 2.0, 1: 1.0, 2: 0.5, 3: 3.0, 4: 1.5, 5: 2.0}
    # Self times of a tree add back up to its root's duration.
    assert sum(selves.values()) == pytest.approx(10.0)
    totals = spans.layer_totals(records)
    assert totals["pnr"] == {"self_s": 0.5, "calls": 1}
    assert spans.roots(records) == {i: 0 for i in range(6)}


def test_slices_charge_their_parent_and_keep_call_counts():
    recorder = spans.Recorder()
    outer = recorder.enter("dataflow")
    for _ in range(3):
        recorder.add_slice("softcore.iss", 0.25)
    recorder.exit(outer)
    records = recorder.export()
    slice_record = [r for r in records if r.get("slice")][0]
    assert slice_record["calls"] == 3
    assert slice_record["parent"] == outer
    selves = spans.self_times(records)
    dataflow = [r for r in records if r["layer"] == "dataflow"][0]
    assert selves[dataflow["id"]] == pytest.approx(dataflow["dur"] - 0.75)


def test_namespaced_records_from_two_processes_do_not_collide():
    one = [_span(0, None, "service.exec", 2.0), _span(1, 0, "hls", 1.0)]
    two = [_span(0, None, "service.exec", 4.0), _span(1, 0, "hls", 3.0)]
    mixed = spans.namespaced(one, "a") + spans.namespaced(two, "b")
    totals = spans.layer_totals(mixed)
    assert totals["hls"]["self_s"] == pytest.approx(4.0)
    assert totals["service.exec"]["self_s"] == pytest.approx(2.0)


def test_wrappers_nest_and_time_generators_between_resumes():
    recorder = spans.Recorder()

    def inner():
        return 1

    def body():
        value = yield "first"
        yield value * 2

    traced_inner = wrap_call(inner, "hls", recorder)
    traced_body = wrap_generator(body, "softcore.iss", recorder)

    def outer():
        gen = traced_body()
        assert next(gen) == "first"
        assert gen.send(21) == 42
        return traced_inner()

    assert wrap_call(outer, "dataflow", recorder)() == 1
    records = recorder.export()
    layers = {r["layer"]: r for r in records}
    assert layers["hls"]["parent"] == layers["dataflow"]["id"]
    assert layers["softcore.iss"]["parent"] == layers["dataflow"]["id"]
    assert layers["softcore.iss"]["calls"] == 2


# -- output checks ----------------------------------------------------------------

def _expected():
    return checks.load_expected()


def test_checker_accepts_the_recorded_manifest():
    entry = _expected()["o1"]["spam-filter"]
    assert checks.check_manifest(copy.deepcopy(entry["manifest"]),
                                 entry["manifest"]) is None
    stdout = (f"compiled spam-filter with PLD -O1: {entry['cold_modeled']} "
              f"(modeled)\n")
    assert checks.check_compile(stdout, copy.deepcopy(entry["manifest"]),
                                entry, cold=True) is None


def test_checker_rejects_a_corrupted_manifest():
    entry = _expected()["o1"]["digit-recognition"]
    corrupted = copy.deepcopy(entry["manifest"])
    step = sorted(corrupted["steps"])[0]
    corrupted["steps"][step] = "0" * 24
    problem = checks.check_manifest(corrupted, entry["manifest"])
    assert problem and "steps" in problem
    image = sorted(corrupted["images"])[0]
    swapped = copy.deepcopy(entry["manifest"])
    swapped["images"][image]["digest"] = "f" * 24
    assert checks.check_manifest(swapped, entry["manifest"])
    assert checks.check_manifest(json.loads("[]"), entry["manifest"])


def test_checker_rejects_wrong_modeled_seconds():
    entry = _expected()["o1"]["optical-flow"]
    stdout = f"compiled optical-flow: {entry['warm_modeled']} (modeled)\n"
    assert checks.check_compile(stdout, entry["manifest"], entry,
                                cold=True) is not None


def _edited(manifest, operator, tag):
    out = copy.deepcopy(manifest)
    for kind in ("hls", "impl"):
        out["steps"][f"{kind}:{operator}"] = f"{tag}-{kind}"
    page = str(out["pages"][operator])
    out["images"][page]["digest"] = f"{tag}-image"
    return out


def test_edit_check_accepts_exactly_one_operator_page():
    base = _expected()["o1"]["spam-filter"]["manifest"]
    operator = sorted(base["pages"])[0]
    page = base["pages"][operator]
    summary = {"pages_rebuilt": 1,
               "edit": {"operator": operator, "pages_reloaded": [page]}}
    after = _edited(base, operator, "x")
    assert checks.check_edit(summary, after, base, operator) is None
    # A second operator's change is rejected in strict (chained) mode ...
    other = sorted(base["pages"])[1]
    both = _edited(after, other, "y")
    assert checks.check_edit(summary, both, base, operator)
    # ... and allowed against the baseline when both were edited.
    assert checks.check_edit(summary, both, base, operator,
                             edited={operator, other}) is None
    assert checks.check_edit({**summary, "pages_rebuilt": 2}, after, base,
                             operator)
    wrong_name = {**summary, "edit": {"operator": other,
                                      "pages_reloaded": [page]}}
    assert checks.check_edit(wrong_name, after, base, operator)


def test_run_output_check_compares_lines():
    golden = checks.format_outputs({"Output_1": [7, 9, 5]})
    assert golden == ["Output_1: 3 tokens [7, 9, 5]"]
    assert checks.check_run("Output_1: 3 tokens [7, 9, 5]\n", golden) is None
    assert checks.check_run("Output_1: 3 tokens [7, 9, 4]\n", golden)
    long = checks.format_outputs({"x": list(range(10))})
    assert long == ["x: 10 tokens [0, 1, 2, 3, 4, 5, 6, 7] ..."]
