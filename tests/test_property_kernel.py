"""Property-based tests on simulation-kernel invariants."""

from hypothesis import given, settings, strategies as st

from repro.simkernel import Resource, Simulator, zipf_weights


@given(
    st.lists(
        st.tuples(
            st.floats(0, 10),    # start delay
            st.floats(0.001, 5)  # hold duration
        ),
        min_size=1, max_size=25,
    ),
    st.integers(1, 4),
)
@settings(max_examples=80, deadline=None)
def test_resource_capacity_invariant(jobs, capacity):
    """Whatever the arrival pattern, in_use never exceeds capacity and all
    jobs eventually complete."""
    sim = Simulator()
    res = Resource(sim, capacity=capacity)
    done = []

    def job(delay, hold):
        yield sim.timeout(delay)
        with res.request() as req:
            yield req
            assert res.in_use <= capacity
            yield sim.timeout(hold)
        done.append(1)

    for delay, hold in jobs:
        sim.process(job(delay, hold))
    sim.run()
    assert len(done) == len(jobs)
    assert res.in_use == 0 and res.queue_length == 0


@given(st.lists(st.floats(0, 100), min_size=1, max_size=30))
@settings(max_examples=80, deadline=None)
def test_events_processed_in_time_order(delays):
    sim = Simulator()
    fired = []

    def waiter(d):
        yield sim.timeout(d)
        fired.append(sim.now)

    for d in delays:
        sim.process(waiter(d))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(st.integers(1, 5000), st.floats(0, 2))
@settings(max_examples=100, deadline=None)
def test_zipf_weights_properties(n, theta):
    w = zipf_weights(n, theta)
    assert len(w) == n
    assert abs(w.sum() - 1.0) < 1e-9
    assert all(w > 0)
    # non-increasing by rank
    assert all(b <= a + 1e-12 for a, b in zip(w, w[1:]))
