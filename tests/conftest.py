"""Checks shared by every test."""

import multiprocessing
import os
from multiprocessing.process import BaseProcess

import pytest


@pytest.fixture(autouse=True)
def no_process_left():
    """Simulate's camera workers and the log parse helper end with their run, also when it fails."""
    yield
    assert multiprocessing.active_children() == []


@pytest.fixture
def two_cpus(monkeypatch):
    """This process may use two CPUs, so a stream runs in a worker wherever ``fork`` exists."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture
def workers_started(monkeypatch):
    """The names of the worker processes started, in order.

    Counted as each starts, not by finding it alive: a helper whose whole
    log fits in its pipe may have sent it all and exited before the first
    frame is taken.
    """
    names, start = [], BaseProcess.start

    def counted(process):
        names.append(process.name)
        return start(process)

    monkeypatch.setattr(BaseProcess, "start", counted)
    return names
