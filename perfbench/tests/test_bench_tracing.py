"""Self-time arithmetic, span bookkeeping and the quantile estimates."""

import json
import statistics
import types
from pathlib import Path

import pytest

import items
import tracing
from run import quantile, tail

# item [0, 10] holds k_tower [1, 5] and verify_suite [6, 9]; k_tower holds
# two square tests and a nested k_tower; verify_suite holds two
# overlapping coordinate solves, whose union [6.5, 7.5] counts once.
SPANS = [
    ["item", 0.0, 10.0, -1],
    ["towers.k_tower", 1.0, 5.0, 0],
    ["towers.is_square", 2.0, 3.0, 1],
    ["towers.is_square", 3.5, 4.0, 1],
    ["lattice.verify_suite", 6.0, 9.0, 0],
    ["lattice.lattice_coords", 6.5, 7.0, 4],
    ["lattice.lattice_coords", 6.8, 7.5, 4],
    ["towers.k_tower", 4.25, 4.5, 1],
]


def test_self_times_subtract_the_union_of_children():
    assert tracing.self_times(SPANS) == pytest.approx(
        [3.0, 2.25, 1.0, 0.5, 2.0, 0.5, 0.7, 0.25])


def test_self_times_sum_to_the_root_duration():
    assert sum(tracing.self_times(SPANS[:5] + SPANS[7:])) == pytest.approx(10.0)


def test_inclusive_totals_skip_nested_spans_of_the_same_name():
    totals = tracing.inclusive_totals(SPANS)
    assert totals["towers.k_tower"] == pytest.approx(4.0)
    assert totals["towers.is_square"] == pytest.approx(1.5)
    assert totals["lattice.lattice_coords"] == pytest.approx(1.2)


def test_layer_self_times():
    layers = tracing.layer_self_times(SPANS)
    assert layers["towers"] == pytest.approx(4.0)
    assert layers["lattice"] == pytest.approx(3.2)
    assert layers["residues"] == 0.0


def test_recorded_spans_nest_and_count():
    tracer = tracing.Tracer()
    owner = types.ModuleType("owner")
    caller = types.ModuleType("caller")
    owner.double = lambda x: 2 * x
    caller.double = owner.double
    original = owner.double
    tracer.patch("layer.double", [owner, caller], owner, "double",
                 on_return=lambda counters, result, x: counters.update(seen=result))
    with tracer.span("item"):
        assert caller.double(3) == 6
        with tracer.paused():
            assert owner.double(4) == 8
    assert [s[0] for s in tracer.spans] == ["item", "layer.double"]
    assert tracer.spans[1][3] == 0
    assert tracer.counters["seen"] == 6
    tracer.restore()
    assert owner.double is original and caller.double is original


@pytest.mark.parametrize("n,index", [(5, 4), (19, 18), (20, 9), (100, 89), (125, 112), (1000, 989)])
def test_tail_keeps_ten_items_beyond(n, index):
    value = tail([float(i) for i in reversed(range(n))])
    if n < 20:
        assert value == float(index)
    else:
        assert value == pytest.approx(index, abs=1.0)


def test_quantile_moves_smoothly_across_a_step():
    assert quantile([3.0], 0.5) == 3.0
    assert quantile([1.0, 2.0, 3.0], 0.5) == pytest.approx(2.0)
    # 62 cheap items and 63 dear ones; one item changing sides moves the
    # plain median from 25 to 10, the estimate by a small part of that
    before = [10.0] * 62 + [25.0] * 63
    after = [10.0] * 63 + [25.0] * 62
    assert statistics.median(before) - statistics.median(after) == 15.0
    assert 10.0 < quantile(after, 0.5) < quantile(before, 0.5) < 25.0
    assert quantile(before, 0.5) - quantile(after, 0.5) < 3.0


def test_layer_metrics_match_the_benchmark_file():
    bench = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    names = set(items.layer_metrics(tracing.Tracer()))
    names |= {"setup.import_s", "datafiles.load_s", "trace.overhead_s",
              "hostspeed.probe_s", "hostspeed.slowdown"}
    assert names == {m["name"] for m in bench["per_layer"]}
