"""The engine entry points pause the cyclic garbage collector.

The pause is safe because an engine run makes no reference cycle, so
reference counting frees everything it drops; these tests hold the runs to
that, and hold the pause to restoring the collector's state and to keeping
every collection out of a call.
"""

import gc
import sys
import threading
from pathlib import Path

import pytest

import planarsep
from planarsep import (
    bfs_tree,
    compute_separator,
    dist_bfs,
    dist_compute_separator,
    dist_multi,
)
from planarsep.dist import part_bfs_trees
from planarsep.errors import InvalidPartition, NotProper, RoundLimitExceeded, UnknownRoot
from planarsep.generators import cut_chain, cycle_chords, grid, random_triangulation, two_level_parts
from planarsep.separator import collector_paused

GRAPHS = {
    "grid": lambda: grid(12, 12),
    "random_triangulation": lambda: random_triangulation(200, seed=3),
    "cycle_chords": lambda: cycle_chords(60, 10, seed=1),
    "cut_chain": lambda: cut_chain(4, 12, seed=2),
}
BACKENDS = ["honest", "charged"]


def _unreachable_after(run) -> int:
    """Objects in garbage cycles that run() leaves, with the collector off
    while it runs."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_runs_make_no_reference_cycles(name, backend):
    g = GRAPHS[name]()
    tree = bfs_tree(g, 0)

    def run():
        # every result is dropped, so a cycle inside an output counts too
        compute_separator(g, tree)
        dist_compute_separator(g, tree, backend=backend)
        dist_bfs(g, 0)

    assert _unreachable_after(run) == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_multi_part_runs_make_no_reference_cycles(backend):
    g, part_of = two_level_parts(16, 2)
    trees = part_bfs_trees(g, part_of)
    assert _unreachable_after(lambda: dist_multi(g, part_of, trees, backend=backend)) == 0


def _calls():
    """(name, call, error or None) for each entry point, returning and
    raising."""
    g = grid(4, 4)
    t = bfs_tree(g, 0)
    heavy = [100] + [1] * 15
    return [
        ("compute_separator", lambda: compute_separator(g, t), None),
        ("dist_compute_separator", lambda: dist_compute_separator(g, t), None),
        ("dist_multi", lambda: dist_multi(g, [0] * 16, {0: t}), None),
        ("dist_bfs", lambda: dist_bfs(g, 0), None),
        ("compute_separator NotProper", lambda: compute_separator(g, t, heavy), NotProper),
        ("dist_compute_separator NotProper", lambda: dist_compute_separator(g, t, heavy), NotProper),
        ("dist_multi InvalidPartition", lambda: dist_multi(g, [0] * 15, {0: t}), InvalidPartition),
        (
            "dist_compute_separator RoundLimitExceeded",
            lambda: dist_compute_separator(g, t, max_rounds=3),
            RoundLimitExceeded,
        ),
        ("dist_multi RoundLimitExceeded", lambda: dist_multi(g, [0] * 16, {0: t}, max_rounds=3), RoundLimitExceeded),
        ("dist_bfs UnknownRoot", lambda: dist_bfs(g, 16), UnknownRoot),
    ]


CALLS = _calls()


def _call(call, error):
    if error is None:
        call()
    else:
        with pytest.raises(error):
            call()


@pytest.mark.parametrize("call,error", [c[1:] for c in CALLS], ids=[c[0] for c in CALLS])
def test_collector_enabled_after_call(call, error):
    assert gc.isenabled()
    _call(call, error)
    assert gc.isenabled()


@pytest.mark.parametrize("call,error", [c[1:] for c in CALLS], ids=[c[0] for c in CALLS])
def test_collector_stays_disabled_if_caller_disabled_it(call, error):
    gc.disable()
    try:
        _call(call, error)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_pause_disables_inside_and_restores_on_raise():
    with pytest.raises(KeyError):
        with collector_paused:
            assert not gc.isenabled()
            with collector_paused:  # nested: the outer pause holds
                pass
            assert not gc.isenabled()
            raise KeyError
    assert gc.isenabled()


_PACKAGE = str(Path(planarsep.__file__).parent)
_PAUSE_CODE = {type(collector_paused).__enter__.__code__, type(collector_paused).__exit__.__code__}


def _inside_engine(frame) -> bool:
    """Whether a planarsep function other than the pause itself is running."""
    while frame is not None:
        code = frame.f_code
        if code.co_filename.startswith(_PACKAGE) and code not in _PAUSE_CODE:
            return True
        frame = frame.f_back
    return False


def test_no_collection_starts_inside_a_call():
    # without the pause, the collector starts dozens of collections in
    # these calls on a 64x64 grid; after each call it may start one, once
    # the pause has ended
    g = grid(64, 64)
    tree = bfs_tree(g, 0)
    g2, part_of = two_level_parts(32, 2)
    trees = part_bfs_trees(g2, part_of)
    inside = []

    def note(phase, info):
        if phase == "start" and _inside_engine(sys._getframe(1)):
            inside.append(info["generation"])

    assert gc.isenabled()
    gc.collect()
    gc.callbacks.append(note)
    try:
        compute_separator(g, tree)
        dist_compute_separator(g, tree)
        dist_compute_separator(g, tree, backend="charged")
        dist_multi(g2, part_of, trees)
        dist_bfs(g, 0)
    finally:
        gc.callbacks.remove(note)
    assert inside == []


def test_overlapping_calls_in_threads_share_one_pause():
    # a short switch interval makes threads enter and leave the pause in
    # every order; a pause ended by the first call to return would let
    # collections start inside the others, and a lost restore would leave
    # the collector off
    g = grid(8, 8)
    tree = bfs_tree(g, 0)
    inside, failures = [], []

    def note(phase, info):
        if phase == "start" and _inside_engine(sys._getframe(1)):
            inside.append(info["generation"])

    def work():
        try:
            for _ in range(20):
                dist_bfs(g, 0)
                dist_compute_separator(g, tree, backend="charged")
        except Exception as exc:  # reported by the main thread
            failures.append(exc)

    assert gc.isenabled()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    gc.callbacks.append(note)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        gc.callbacks.remove(note)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    assert inside == []
    assert gc.isenabled()
