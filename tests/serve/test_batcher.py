"""Unit tests for the bounded FIFO request queue and its batched dequeue."""

from __future__ import annotations

import threading
import time

import pytest

from repro.serve.batcher import (
    QueueClosed,
    QueueFull,
    QueueTimeout,
    RequestQueue,
)


def put_all(q, items):
    for item in items:
        q.put(item)


def pop_single(q):
    return q.pop_batch(lambda _: None, 1)


class TestOrdering:
    def test_fifo_order(self):
        q = RequestQueue(limit=8)
        put_all(q, ["a", "b", "c"])
        assert [pop_single(q)[0][0] for _ in range(3)] == ["a", "b", "c"]

    def test_requeue_goes_to_front_in_order(self):
        q = RequestQueue(limit=2)
        put_all(q, ["c", "d"])
        q.requeue(["a", "b"])  # past the limit: crash recovery never blocks
        assert len(q) == 4
        assert [pop_single(q)[0][0] for _ in range(4)] == ["a", "b", "c", "d"]

    def test_depth_at_dequeue(self):
        q = RequestQueue(limit=8)
        put_all(q, ["a", "b", "c"])
        _, depth = pop_single(q)
        assert depth == 3 and len(q) == 2


class TestBatching:
    def test_groups_compatible_up_to_max(self):
        q = RequestQueue(limit=16)
        put_all(q, ["x1", "x2", "y1", "x3", "x4"])
        batch, _ = q.pop_batch(lambda item: item[0], 3)
        assert batch == ["x1", "x2", "x3"]
        batch, _ = q.pop_batch(lambda item: item[0], 3)
        assert batch == ["y1"]
        batch, _ = q.pop_batch(lambda item: item[0], 3)
        assert batch == ["x4"]

    def test_none_signature_pops_singly(self):
        q = RequestQueue(limit=8)
        put_all(q, ["a", "b"])
        batch, _ = q.pop_batch(lambda _: None, 8)
        assert batch == ["a"] and len(q) == 1

    def test_does_not_wait_for_late_arrival(self):
        q = RequestQueue(limit=8)
        q.put("x1")
        late = threading.Thread(target=lambda: (time.sleep(0.2), q.put("x2")))
        late.start()
        t0 = time.monotonic()
        batch, _ = q.pop_batch(lambda item: item[0], 16)
        waited = time.monotonic() - t0
        late.join()
        assert batch == ["x1"] and waited < 0.1
        assert pop_single(q)[0] == ["x2"]


class TestBackpressure:
    def test_reject_when_full(self):
        q = RequestQueue(limit=2)
        put_all(q, ["a", "b"])
        with pytest.raises(QueueFull):
            q.put("c", policy="reject")

    def test_timeout_when_full(self):
        q = RequestQueue(limit=1)
        q.put("a")
        t0 = time.monotonic()
        with pytest.raises(QueueTimeout):
            q.put("b", policy="timeout", timeout_s=0.05)
        assert time.monotonic() - t0 >= 0.04

    def test_block_until_capacity(self):
        q = RequestQueue(limit=1)
        q.put("a")
        done = threading.Event()

        def producer():
            q.put("b", policy="block")
            done.set()

        t = threading.Thread(target=producer)
        t.start()
        time.sleep(0.02)
        assert not done.is_set()  # still blocked on the full queue
        pop_single(q)
        t.join(timeout=2.0)
        assert done.is_set()

    def test_pop_blocks_until_put(self):
        q = RequestQueue(limit=4)
        threading.Thread(target=lambda: (time.sleep(0.02), q.put("a"))).start()
        batch, _ = pop_single(q)
        assert batch == ["a"]


class TestShutdown:
    def test_put_after_close_raises(self):
        q = RequestQueue(limit=4)
        q.close()
        with pytest.raises(QueueClosed):
            q.put("a")

    def test_drain_serves_out_then_signals_exit(self):
        q = RequestQueue(limit=4)
        put_all(q, ["a", "b"])
        assert q.close(drain=True) == []
        assert pop_single(q)[0] == ["a"]
        assert pop_single(q)[0] == ["b"]
        assert pop_single(q) is None

    def test_non_drain_returns_removed(self):
        q = RequestQueue(limit=4)
        put_all(q, ["a", "b"])
        assert q.close(drain=False) == ["a", "b"]
        assert pop_single(q) is None

    def test_requeue_after_non_drain_close_raises(self):
        q = RequestQueue(limit=4)
        q.close(drain=False)
        with pytest.raises(QueueClosed):
            q.requeue(["a"])

    def test_close_wakes_blocked_consumer(self):
        q = RequestQueue(limit=4)
        got = []

        def consumer():
            got.append(pop_single(q))

        t = threading.Thread(target=consumer)
        t.start()
        time.sleep(0.02)
        q.close(drain=True)
        t.join(timeout=2.0)
        assert not t.is_alive() and got == [None]
