import threading
import time

import pytest

from spmvlab import Fabric, LatencyModel, create_fabric


def test_latency_model_validation():
    with pytest.raises(ValueError):
        LatencyModel(per_message_s=-1.0)
    with pytest.raises(ValueError):
        LatencyModel(progress="eager")
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            LatencyModel(per_message_s=bad)
        with pytest.raises(ValueError, match="finite"):
            LatencyModel(per_element_s=bad)
    assert LatencyModel().progress == "active"


def test_wait_without_cost_returns_immediately():
    for progress in ("active", "background"):
        costly = Fabric(2, LatencyModel(per_message_s=1.0, progress=progress))
        free = create_fabric(1, LatencyModel(progress=progress))
        t0 = time.perf_counter()
        costly.wait(t0, [])  # a rank that receives nothing pays nothing
        free.wait(t0, [2, 5])
        assert time.perf_counter() - t0 < 0.05, progress


def test_single_message_latency_floor():
    fab = Fabric(2, LatencyModel(per_message_s=0.02))
    posted = time.perf_counter()
    fab.wait(posted, [1])
    assert time.perf_counter() - posted >= 0.02


def test_active_wait_serializes_receive_latency():
    # two receives of 10 elements at (1 ms, 0.1 ms/elem) cost >= 4 ms total
    fab = Fabric(2, LatencyModel(per_message_s=1e-3, per_element_s=1e-4))
    t0 = time.perf_counter()
    fab.wait(t0, [10, 10])
    assert time.perf_counter() - t0 >= 2 * (1e-3 + 10 * 1e-4)


def test_background_mode_wait_contributes_no_progress_time():
    fab = Fabric(4, LatencyModel(per_message_s=0.03, progress="background"))
    posted = time.perf_counter()
    time.sleep(0.05)  # latency elapses in real time from post
    t0 = time.perf_counter()
    fab.wait(posted, [1])
    assert time.perf_counter() - t0 < 0.02


def test_background_mode_still_enforces_delay_from_post():
    fab = Fabric(2, LatencyModel(per_message_s=0.04, progress="background"))
    posted = time.perf_counter()
    fab.wait(posted, [1])
    assert time.perf_counter() - posted >= 0.04
    # several messages cost the largest delay, not the sum of delays
    posted = time.perf_counter()
    fab.wait(posted, [1, 1, 1])
    assert 0.04 <= time.perf_counter() - posted < 0.12


def test_overlap_dedicated_waiter_hides_latency():
    # a dedicated thread waiting L while another computes ~L finishes the
    # phase in about max(compute, L), not compute + L
    L = 0.2
    fab = Fabric(2, LatencyModel(per_message_s=L))

    def compute(duration):
        t_end = time.perf_counter() + duration
        s = 0.0
        while time.perf_counter() < t_end:
            s += 1.0
        return s

    compute(0.05)  # warm the loop
    t0 = time.perf_counter()
    waiter = threading.Thread(target=fab.wait, args=(t0, [1]))
    waiter.start()
    compute(L)
    waiter.join(timeout=10.0)
    assert not waiter.is_alive()
    elapsed = time.perf_counter() - t0
    assert elapsed <= 1.2 * L, f"no overlap: {elapsed:.3f}s vs max(compute, L)={L}"
    assert elapsed >= L


def test_rank_bounds_checked():
    with pytest.raises(ValueError, match="rank count"):
        Fabric(0)
