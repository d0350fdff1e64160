"""The columnar serving representation: arrivals, schedule and results.

Arrival processes return one :class:`Arrivals` value (a time column plus
the request lengths) and :func:`continuous_batching` keeps its schedule
in arrays.  These tests pin that the columns say exactly what a
one-object-per-request representation says: the same requests field for
field, the same schedule for any input order, and a memory cost of a few
machine words per request.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ServingConfig
from repro.engine.serving import (
    Arrivals,
    CompletedRequest,
    CurvePricer,
    Request,
    continuous_batching,
    make_arrivals,
)
from repro.fleet.requests import flash_crowd_arrivals

# -- per-request reference generators ------------------------------------------


def reference_arrivals(cfg: ServingConfig) -> list[Request]:
    """Poisson or bursty arrivals drawn one ``Request`` at a time."""
    rng = np.random.default_rng(cfg.seed)
    if cfg.arrival == "poisson":
        gaps = rng.exponential(1.0 / cfg.arrival_rate_rps, size=cfg.num_requests)
        times = np.cumsum(gaps)
        return [
            Request(i, float(times[i]), cfg.prompt_len, cfg.generate_len)
            for i in range(cfg.num_requests)
        ]
    p, bf = cfg.burst_fraction, cfg.burst_factor
    burst_rate = cfg.arrival_rate_rps * bf
    calm_rate = (1.0 - p) / (1.0 / cfg.arrival_rate_rps - p / burst_rate)
    s_b = cfg.burst_persistence
    s_c = 1.0 - p * (1.0 - s_b) / (1.0 - p) if p > 0 else 1.0
    out = []
    now = 0.0
    in_burst = bool(rng.random() < p)
    for i in range(cfg.num_requests):
        now += float(rng.exponential(1.0 / (burst_rate if in_burst else calm_rate)))
        out.append(Request(i, now, cfg.prompt_len, cfg.generate_len))
        if rng.random() >= (s_b if in_burst else s_c):
            in_burst = not in_burst
    return out


def reference_flash_crowd(
    cfg: ServingConfig, factor: float, start_s: float, duration_s: float
) -> list[Request]:
    """Thinned flash-crowd arrivals drawn one ``Request`` at a time."""
    rng = np.random.default_rng(cfg.seed)
    lam_max = cfg.arrival_rate_rps * factor
    out: list[Request] = []
    now = 0.0
    while len(out) < cfg.num_requests:
        now += float(rng.exponential(1.0 / lam_max))
        lam = lam_max if start_s <= now < start_s + duration_s else cfg.arrival_rate_rps
        if rng.random() < lam / lam_max:
            out.append(Request(len(out), now, cfg.prompt_len, cfg.generate_len))
    return out


def same_fields(got: list[Request], want: list[Request]) -> None:
    assert [(q.req_id, q.arrival_s, q.prompt_len, q.generate_len) for q in got] == [
        (q.req_id, q.arrival_s, q.prompt_len, q.generate_len) for q in want
    ]
    assert all(type(q) is Request for q in got)


# -- arrivals -------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    arrival=st.sampled_from(["poisson", "bursty"]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    rate=st.floats(min_value=0.5, max_value=500.0),
    n=st.integers(min_value=1, max_value=120),
    burst_factor=st.floats(min_value=1.0, max_value=50.0),
    burst_fraction=st.floats(min_value=0.0, max_value=0.6),
    prompt_len=st.integers(min_value=1, max_value=512),
    generate_len=st.integers(min_value=1, max_value=64),
)
def test_make_arrivals_matches_per_request_reference(
    arrival, seed, rate, n, burst_factor, burst_fraction, prompt_len, generate_len
):
    cfg = ServingConfig(
        arrival=arrival,
        arrival_rate_rps=rate,
        num_requests=n,
        burst_factor=burst_factor,
        burst_fraction=burst_fraction,
        prompt_len=prompt_len,
        generate_len=generate_len,
        seed=seed,
    )
    got = make_arrivals(cfg)
    assert isinstance(got, Arrivals) and len(got) == n
    want = reference_arrivals(cfg)
    same_fields(list(got), want)
    same_fields([got[i] for i in range(n)], want)
    assert got[-1] == want[-1]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    rate=st.floats(min_value=10.0, max_value=2000.0),
    n=st.integers(min_value=1, max_value=120),
    factor=st.floats(min_value=1.0, max_value=20.0),
    start_s=st.floats(min_value=0.0, max_value=0.5),
    duration_s=st.floats(min_value=1e-3, max_value=0.5),
    generate_len=st.integers(min_value=1, max_value=64),
)
def test_flash_crowd_matches_per_request_reference(
    seed, rate, n, factor, start_s, duration_s, generate_len
):
    cfg = ServingConfig(
        arrival_rate_rps=rate, num_requests=n, generate_len=generate_len, seed=seed
    )
    got = flash_crowd_arrivals(cfg, factor, start_s, duration_s)
    assert isinstance(got, Arrivals)
    same_fields(list(got), reference_flash_crowd(cfg, factor, start_s, duration_s))


class TestArrivalsSequence:
    @pytest.fixture
    def arr(self) -> Arrivals:
        return Arrivals(np.array([0.5, 1.0, 1.0, 2.5]), 16, 4)

    def test_indexing_builds_requests(self, arr):
        assert arr[0] == Request(0, 0.5, 16, 4)
        assert arr[-1] == Request(3, 2.5, 16, 4)
        assert arr[1:3] == [Request(1, 1.0, 16, 4), Request(2, 1.0, 16, 4)]
        assert list(reversed(arr))[0] == arr[3]
        assert Request(2, 1.0, 16, 4) in arr
        with pytest.raises(IndexError):
            _ = arr[4]
        with pytest.raises(IndexError):
            _ = arr[-5]

    def test_equality_is_field_for_field(self, arr):
        assert arr == Arrivals(np.array([0.5, 1.0, 1.0, 2.5]), 16, 4)
        assert arr != Arrivals(np.array([0.5, 1.0, 1.0, 2.5]), 16, 5)
        assert arr != Arrivals(np.array([0.5, 1.0, 1.5, 2.5]), 16, 4)
        assert arr != Arrivals(np.array([0.5, 1.0, 1.0]), 16, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            Arrivals(np.array([0.0, -1.0]), 8, 8)
        with pytest.raises(ValueError):
            Arrivals(np.array([0.0]), 0, 8)
        with pytest.raises(ValueError):
            Arrivals(np.zeros((2, 2)), 8, 8)


# -- the loop over columns -------------------------------------------------------


def growing_step(batch: int) -> float:
    """A step price that depends on batch size, so admission order matters."""
    return 1e-3 * (1.0 + 0.25 * batch)


def schedule(res) -> list[tuple[int, float, float]]:
    return [(c.request.req_id, c.admitted_s, c.finished_s) for c in res.completed]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_shuffled_input_with_ties_matches_sorted(data):
    n = data.draw(st.integers(min_value=1, max_value=40), label="n")
    # few distinct times, so many requests tie; sparse, unordered ids
    times = data.draw(
        st.lists(st.sampled_from([0.0, 0.001, 0.002, 0.0105, 0.05]), min_size=n, max_size=n)
    )
    ids = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=10**6), min_size=n, max_size=n, unique=True
        )
    )
    gens = data.draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    cap = data.draw(st.integers(min_value=1, max_value=8), label="cap")
    reqs = [Request(i, t, 8, g) for i, t, g in zip(ids, times, gens, strict=True)]
    shuffled = data.draw(st.permutations(reqs), label="shuffled")
    in_order = sorted(reqs, key=lambda q: (q.arrival_s, q.req_id))

    res = continuous_batching(shuffled, CurvePricer(growing_step), cap, num_gpus=3)
    ref = continuous_batching(in_order, CurvePricer(growing_step), cap, num_gpus=3)

    assert schedule(res) == schedule(ref)
    assert res.busy_s == ref.busy_s and res.makespan_s == ref.makespan_s
    assert res.latency == ref.latency and res.queue == ref.queue
    assert res.generated_tokens == ref.generated_tokens == sum(gens)
    assert res.num_completed == n

    # the on-demand view reads exactly the columns
    done = res.completed
    assert all(type(c) is CompletedRequest for c in done)
    assert [c.request for c in done] == [shuffled[k] for k in res.order]
    assert [c.admitted_s for c in done] == res.admitted_s.tolist()
    assert [c.finished_s for c in done] == res.finished_s.tolist()
    assert sorted(res.order.tolist()) == list(range(n))


def test_arrivals_and_request_list_serve_identically():
    cfg = ServingConfig(arrival="bursty", arrival_rate_rps=400.0, num_requests=300,
                        generate_len=5, seed=11)
    arr = make_arrivals(cfg)
    a = continuous_batching(arr, CurvePricer(growing_step), 12, num_gpus=2)
    b = continuous_batching(list(arr), CurvePricer(growing_step), 12, num_gpus=2)
    assert a.requests is arr
    assert schedule(a) == schedule(b)
    assert a.completed == b.completed
    assert (a.busy_s, a.decode_steps, a.mean_batch_size) == (
        b.busy_s, b.decode_steps, b.mean_batch_size
    )
    assert a.latency == b.latency and a.queue == b.queue


# -- memory ------------------------------------------------------------------------


def test_memory_per_request_budget():
    """A long run holds a few machine words per request, not two objects.

    Peak covers drawing the arrivals, the loop and the latency summary;
    retained is what the returned result still holds.
    """
    n = 20_000
    cfg = ServingConfig(arrival_rate_rps=2_000.0, num_requests=n, generate_len=8, seed=3)
    pricer = CurvePricer(lambda batch: 1e-3)
    gc.collect()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        res = continuous_batching(make_arrivals(cfg), pricer, cfg.max_batch_requests)
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.num_completed == n
    assert (peak - base) / n < 200
    assert (retained - base) / n < 120
