"""The one rule for where a stream's items are made (``workers.received``).

A worker process starts only where ``fork`` exists and this process may use
two CPUs; anywhere else the items are made in this process, with the same
results for both callers, simulate's camera workers and the log parse
helper.
"""

import io
import multiprocessing
import os

import pytest

from roadwatch.detection import parse_detection_log
from roadwatch.simulation import audit_text, load_scenario, run_pipeline
from roadwatch.workers import received

pytestmark = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="workers need fork")

RULES = {
    "one CPU": lambda monkeypatch: monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False),
    "no fork": lambda monkeypatch: monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"]),
}


def numbered(n):
    """0 to ``n`` - 1, then ValueError, each item with the id of the process that made it."""
    for i in range(n):
        yield i, os.getpid()
    raise ValueError("no more")


@pytest.mark.parametrize("rule", RULES)
def test_made_here_without_a_spare_cpu_or_fork(rule, tmp_path, monkeypatch, two_cpus, workers_started):
    def both_callers():
        dump = io.StringIO()
        report = run_pipeline(load_scenario("country-road"), dump_sink=dump)
        log = tmp_path / "dump.log"
        log.write_text(dump.getvalue(), encoding="utf-8")
        with open(log, "rb") as source:
            return dump.getvalue(), audit_text(report), list(parse_detection_log(source))

    in_workers = both_callers()
    assert workers_started == ["roadwatch front camera worker", "roadwatch rear camera worker",
                               "roadwatch log parse helper"]
    RULES[rule](monkeypatch)
    assert both_callers() == in_workers
    items = received("test worker", numbered, 3)
    taken = [next(items)]
    with pytest.raises(ValueError, match="^no more$"):
        taken.extend(items)
    assert taken == [(0, os.getpid()), (1, os.getpid()), (2, os.getpid())]
    assert len(workers_started) == 3


@pytest.mark.parametrize("where", ["worker", "here"])
def test_error_raised_after_the_items_before_it(where, monkeypatch, two_cpus, workers_started):
    if where == "here":
        RULES["one CPU"](monkeypatch)
    items = received("test worker", numbered, 1000)
    assert workers_started == []  # nothing starts before the first next
    taken = []
    with pytest.raises(ValueError, match="^no more$"):
        for i, pid in items:
            taken.append(i)
    assert taken == list(range(1000))
    assert workers_started == (["roadwatch test worker"] if where == "worker" else [])


@pytest.mark.parametrize("where", ["worker", "here"])
def test_close_stops_the_items(where, monkeypatch, two_cpus):
    if where == "here":
        RULES["one CPU"](monkeypatch)
    closed = []

    def endless():
        try:
            while True:
                yield os.getpid()
        finally:
            closed.append(os.getpid())

    items = received("test worker", endless)
    pid = next(items)
    items.close()
    assert multiprocessing.active_children() == []
    if where == "worker":
        assert pid != os.getpid() and closed == []  # its generator ended with the worker, in its own process
    else:
        assert pid == os.getpid() and closed == [os.getpid()]
