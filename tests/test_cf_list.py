"""Tests for the CF list structure (paper §3.3.3)."""

import pytest

from repro.cf import ListEntry, ListStructure, LockHeldError


@pytest.fixture
def ls():
    return ListStructure("LIST1", n_headers=4, n_locks=2)


@pytest.fixture
def conns(ls):
    return [ls.connect(f"SYS{i:02d}") for i in range(2)]


def test_needs_headers():
    with pytest.raises(ValueError):
        ListStructure("BAD", n_headers=0)


def test_fifo_order(ls, conns):
    a = conns[0]
    for i in range(3):
        ls.push(a, 0, ListEntry(data=i))
    assert [ls.pop(a, 0).data for _ in range(3)] == [0, 1, 2]


def test_lifo_order(ls, conns):
    a = conns[0]
    for i in range(3):
        ls.push(a, 0, ListEntry(data=i), where="lifo")
    assert [ls.pop(a, 0).data for _ in range(3)] == [2, 1, 0]


def test_keyed_collating_sequence(ls, conns):
    a = conns[0]
    for k in (5, 1, 3):
        ls.push(a, 0, ListEntry(key=k, data=k), where="keyed")
    assert [ls.pop(a, 0).data for _ in range(3)] == [1, 3, 5]


def test_keyed_insert_stable_for_equal_keys(ls, conns):
    a = conns[0]
    ls.push(a, 0, ListEntry(key=1, data="first"), where="keyed")
    ls.push(a, 0, ListEntry(key=1, data="second"), where="keyed")
    assert ls.pop(a, 0).data == "first"


def test_unknown_discipline_rejected(ls, conns):
    with pytest.raises(ValueError):
        ls.push(conns[0], 0, ListEntry(), where="random")


def test_pop_empty_returns_none(ls, conns):
    assert ls.pop(conns[0], 0) is None


def test_entries_not_lost_or_duplicated_by_moves(ls, conns):
    """Atomic move: the total entry population is conserved."""
    a = conns[0]
    ids = []
    for i in range(10):
        e = ListEntry(data=i)
        ids.append(e.entry_id)
        ls.push(a, 0, e)
    for eid in ids[:5]:
        assert ls.move(a, 0, 1, eid)
    all_data = sorted(e.data for e in ls.read(0) + ls.read(1))
    assert all_data == list(range(10))
    assert ls.total_entries == 10


def test_move_missing_entry_returns_false(ls, conns):
    assert ls.move(conns[0], 0, 1, entry_id=999999) is False


def test_delete_specific_entry(ls, conns):
    a = conns[0]
    e1, e2 = ListEntry(data=1), ListEntry(data=2)
    ls.push(a, 0, e1)
    ls.push(a, 0, e2)
    assert ls.delete(a, 0, e1.entry_id)
    assert [e.data for e in ls.read(0)] == [2]
    assert not ls.delete(a, 0, e1.entry_id)


def test_lock_entry_acquire_release(ls, conns):
    a, b = conns
    assert ls.lock_get(a, 0)
    assert ls.lock_get(a, 0)  # reacquire by holder ok
    assert not ls.lock_get(b, 0)
    ls.disconnect(a)  # the holder's disconnect releases its lock entries
    assert ls.lock_get(b, 0)


def test_conditional_execution_rejected_while_locked(ls, conns):
    """Recovery sets the lock; mainline commands are rejected rather than
    having to acquire the lock on every request (paper §3.3.3)."""
    a, b = conns
    ls.lock_get(a, 0)
    with pytest.raises(LockHeldError):
        ls.push(b, 0, ListEntry(), unless_lock=0)
    with pytest.raises(LockHeldError):
        ls.pop(b, 0, unless_lock=0)
    ls.disconnect(a)  # recovery done: the holder lets go
    ls.push(b, 0, ListEntry(data=1), unless_lock=0)  # now fine
    assert ls.pop(b, 0, unless_lock=0).data == 1


def test_mainline_without_condition_ignores_lock(ls, conns):
    a, b = conns
    ls.lock_get(a, 0)
    ls.push(b, 0, ListEntry(data=1))  # unconditional command: allowed
    assert ls.length(0) == 1


def test_transition_signal_on_empty_to_nonempty(ls, conns):
    a, b = conns
    ls.register_monitor(b, 0, bit_index=7)
    assert ls.vector_of(b).test(7) is False
    ls.push(a, 0, ListEntry())
    assert ls.vector_of(b).test(7) is True
    assert ls.transitions_signalled == 1


def test_no_signal_when_already_nonempty(ls, conns):
    a, b = conns
    ls.push(a, 0, ListEntry())
    ls.register_monitor(b, 0, bit_index=7)
    before = ls.transitions_signalled
    ls.push(a, 0, ListEntry())  # non-empty -> non-empty: no transition
    assert ls.transitions_signalled == before


def test_monitor_registration_on_nonempty_list_sets_bit(ls, conns):
    a, b = conns
    ls.push(a, 0, ListEntry())
    ls.register_monitor(b, 0, bit_index=3)
    assert ls.vector_of(b).test(3) is True


def test_polling_cycle(ls, conns):
    """Poll, consume everything, reset bit, get signalled again."""
    a, b = conns
    ls.register_monitor(b, 0, 0)
    ls.push(a, 0, ListEntry(data=1))
    assert ls.vector_of(b).test(0)
    while ls.pop(b, 0):
        pass
    ls.clear_monitor_bit(b, 0)
    assert ls.vector_of(b).test(0) is False
    ls.push(a, 0, ListEntry(data=2))
    assert ls.vector_of(b).test(0) is True


def test_purge_connector_releases_locks_and_monitors(ls, conns):
    a, b = conns
    ls.lock_get(a, 0)
    ls.register_monitor(a, 1, 0)
    ls.disconnect(a)
    assert ls.lock_get(b, 0)
    ls.push(b, 1, ListEntry())
    assert ls.transitions_signalled == 0
