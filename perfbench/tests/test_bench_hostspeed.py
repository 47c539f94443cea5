"""The host-speed adjustment on synthetic probes."""

import pytest

import hostspeed


def speedometer(ends, durations):
    speed = hostspeed.Speedometer()
    speed.ends, speed.durations = list(ends), list(durations)
    return speed


def test_window_takes_out_the_probes_inside_it(monkeypatch):
    monkeypatch.setattr(hostspeed, "SPEED_PROBES", 1)
    # probes of 1 ms (fast) and 2 ms (twice as slow) end at t = 1, 2, 3, 4
    speed = speedometer([1.0, 2.0, 3.0, 4.0], [0.001, 0.002, 0.002, 0.001])
    window = speed.window(1.5, 3.5)
    assert window["s"] == pytest.approx(2.0)
    assert window["net_s"] == pytest.approx(2.0 - 0.004)
    assert window["inv"] == pytest.approx(500.0)
    # at half the reference speed the window holds half its wall time of work
    monkeypatch.setattr(hostspeed, "REF_PROBE_S", 0.001)
    assert hostspeed.adjusted(window) == pytest.approx((2.0 - 0.004) / 2)


def test_short_windows_read_their_speed_from_the_nearest_probes(monkeypatch):
    monkeypatch.setattr(hostspeed, "SPEED_PROBES", 2)
    speed = speedometer([1.0, 2.0, 3.0, 4.0], [0.001, 0.004, 0.001, 0.004])
    # no probe inside: the one before and the one after
    assert speed.window(1.1, 1.2) == pytest.approx({"s": 0.1, "net_s": 0.1, "inv": 625.0})
    # one probe inside (it is taken out) and the one before it
    assert speed.window(2.5, 3.5) == pytest.approx(
        {"s": 1.0, "net_s": 0.999, "inv": 625.0})
    # at either end only one side has probes
    assert speed.window(0.1, 0.2)["inv"] == pytest.approx(625.0)
    assert speed.window(4.5, 4.6)["inv"] == pytest.approx(625.0)
    monkeypatch.setattr(hostspeed, "SPEED_PROBES", 10)
    assert speed.window(1.1, 1.2)["inv"] == pytest.approx((1000 + 250 + 1000 + 250) / 4)


def test_probes_sample_a_running_loop():
    speed = hostspeed.Speedometer(interval=0.002)
    slots = [0] * 256
    speed.start()
    try:
        start = hostspeed.time.perf_counter()
        while hostspeed.time.perf_counter() - start < 0.1:
            hostspeed.probe_loop(slots)
        end = hostspeed.time.perf_counter()
    finally:
        speed.stop()
    assert len(speed.durations) >= 5
    window = speed.window(start, end)
    assert 0 < window["net_s"] < window["s"] and window["inv"] > 0
