import threading
import time

import numpy as np
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


def test_self_send_completes_immediately():
    fab = create_fabric(1)
    fab.post_send(0, 0, [1.0, 2.0])
    h = fab.post_recv(0, 0, 2)
    t0 = time.perf_counter()
    (payload,) = fab.wait_all([h])
    assert time.perf_counter() - t0 < 0.05
    assert payload.tolist() == [1.0, 2.0]


def test_transport_fidelity_thousand_messages():
    fab = create_fabric(4)
    rng = np.random.default_rng(123)
    sent = []
    for k in range(1000):
        src, dst = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        data = rng.uniform(-1e6, 1e6, int(rng.integers(1, 20)))
        fab.post_send(src, dst, data)
        sent.append((src, dst, data))
    # receiving in post order takes each pair's messages in FIFO order
    for src, dst, data in sent:
        h = fab.post_recv(dst, src, len(data))
        (out,) = fab.wait_all([h])
        assert out.tobytes() == data.tobytes()


def test_pairwise_ordering_per_pair():
    fab = create_fabric(2)
    assert fab.post_send(0, 1, [1.0]) is None
    fab.post_send(0, 1, [2.0])
    ha = fab.post_recv(1, 0, 1)
    hb = fab.post_recv(1, 0, 1)
    a, b = fab.wait_all([ha, hb])
    assert a.tolist() == [1.0]
    assert b.tolist() == [2.0]


def test_payload_copied_at_post():
    fab = create_fabric(1)
    buf = np.array([1.0, 2.0])
    fab.post_send(0, 0, buf)
    buf[0] = 99.0
    (out,) = fab.wait_all([fab.post_recv(0, 0, 2)])
    assert out.tolist() == [1.0, 2.0]


def test_single_message_latency_floor():
    fab = Fabric(2, LatencyModel(per_message_s=0.02))
    posted = time.perf_counter()
    fab.post_send(0, 1, [1.0])
    fab.wait_all([fab.post_recv(1, 0, 1)])
    assert time.perf_counter() - posted >= 0.02


def test_active_wait_serializes_receive_latency():
    # two receives of 10 elements at (1 ms, 0.1 ms/elem) cost >= 4 ms total
    fab = Fabric(2, LatencyModel(per_message_s=1e-3, per_element_s=1e-4))
    data = np.arange(10.0)
    fab.post_send(0, 1, data)
    fab.post_send(0, 1, data)
    handles = [fab.post_recv(1, 0, 10), fab.post_recv(1, 0, 10)]
    t0 = time.perf_counter()
    fab.wait_all(handles)
    assert time.perf_counter() - t0 >= 2 * (1e-3 + 10 * 1e-4)


def test_background_mode_wait_contributes_no_progress_time():
    fab = Fabric(4, LatencyModel(per_message_s=0.03, progress="background"))
    fab.post_send(0, 1, [5.0])
    h = fab.post_recv(1, 0, 1)
    time.sleep(0.05)  # latency elapses in real time from post
    t0 = time.perf_counter()
    fab.wait_all([h])
    assert time.perf_counter() - t0 < 0.02


def test_background_mode_still_enforces_delay_from_post():
    fab = Fabric(2, LatencyModel(per_message_s=0.04, progress="background"))
    posted = time.perf_counter()
    fab.post_send(0, 1, [1.0])
    fab.wait_all([fab.post_recv(1, 0, 1)])
    assert time.perf_counter() - posted >= 0.04


def test_wait_blocks_until_send_posted():
    fab = create_fabric(2)
    h = fab.post_recv(1, 0, 1)
    result = {}

    def receiver():
        (out,) = fab.wait_all([h])
        result["value"] = out[0]

    th = threading.Thread(target=receiver)
    th.start()
    time.sleep(0.03)
    assert "value" not in result
    fab.post_send(0, 1, [42.0])
    th.join(timeout=2.0)
    assert result["value"] == 42.0


def test_overlap_dedicated_waiter_hides_latency():
    # a dedicated thread waiting L while another computes ~L finishes the
    # phase in about max(compute, L), not compute + L
    L = 0.2
    fab = Fabric(2, LatencyModel(per_message_s=L))
    fab.post_send(0, 1, [1.0])
    h = fab.post_recv(1, 0, 1)

    def compute(duration):
        t_end = time.perf_counter() + duration
        s = 0.0
        while time.perf_counter() < t_end:
            s += 1.0
        return s

    compute(0.05)  # warm the loop
    t0 = time.perf_counter()
    waiter = threading.Thread(target=fab.wait_all, args=([h],))
    waiter.start()
    compute(L)
    waiter.join()
    elapsed = time.perf_counter() - t0
    assert elapsed <= 1.2 * L, f"no overlap: {elapsed:.3f}s vs max(compute, L)={L}"
    assert elapsed >= L


def test_length_mismatch_rejected():
    fab = create_fabric(2)
    fab.post_send(0, 1, [1.0, 2.0, 3.0])
    h = fab.post_recv(1, 0, 2)
    with pytest.raises(ValueError, match="expected 2"):
        fab.wait_all([h])


def test_foreign_handle_rejected():
    fab_a = create_fabric(2)
    fab_b = create_fabric(2)
    fab_a.post_send(0, 1, [1.0])
    h = fab_a.post_recv(1, 0, 1)
    with pytest.raises(ValueError, match="different fabric"):
        fab_b.wait_all([h])


def test_completed_handle_rejected():
    fab = create_fabric(1)
    fab.post_send(0, 0, [1.0])
    h = fab.post_recv(0, 0, 1)
    fab.wait_all([h])
    with pytest.raises(ValueError, match="already completed"):
        fab.wait_all([h])


def test_rank_bounds_checked():
    fab = create_fabric(2)
    with pytest.raises(ValueError):
        fab.post_send(0, 2, [1.0])
    with pytest.raises(ValueError):
        fab.post_recv(-1, 0, 1)
    with pytest.raises(ValueError):
        Fabric(0)


def test_cancel_wakes_blocked_and_later_waits():
    fab = create_fabric(2)
    errors = []

    def receiver():
        try:
            fab.wait_all([fab.post_recv(1, 0, 1)])
        except RuntimeError as e:
            errors.append(e)

    th = threading.Thread(target=receiver, daemon=True)
    th.start()
    time.sleep(0.03)
    fab.cancel()
    th.join(timeout=2.0)
    assert not th.is_alive()
    assert len(errors) == 1 and "cancelled" in str(errors[0])
    fab.post_send(0, 1, [1.0])
    with pytest.raises(RuntimeError, match="cancelled"):
        fab.wait_all([fab.post_recv(1, 0, 1)])
