"""Checks shared by every test."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_process_left():
    """Simulate's camera workers and the log parse helper end with their run, also when it fails."""
    yield
    assert multiprocessing.active_children() == []
