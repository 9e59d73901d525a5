"""Worker processes that make a stream's items while this process consumes them.

Simulate's camera workers (``simulation._camera_worker``) and the log parse
helper (``detection.detection_records``) share this lifecycle. A worker
runs a plain function that returns the items, typically a generator.
"""

from __future__ import annotations

import signal
from typing import Callable, Iterable, Iterator

# Items a worker sends at a time. This process holds one batch per worker,
# so this bounds its memory: on paper-day, batches of 4,096 frames raised
# simulate's peak RSS by 5-6 % over one process, and batches of 256
# lowered it. The first item of a batch waits for the whole batch, so
# under 1 % of the items wait (at least 128 a batch), and a 99th
# percentile of per-item latency never sees the wait. The batch bounds
# this process's memory; the pipe (PIPE_BYTES) bounds how far a worker
# runs ahead of the consumer.
BATCH_FRAMES = 256
# Capacity asked for each worker pipe; the kernel holds its bytes. A
# paper-day batch with its dump lines pickles to 54 KB on average, so the
# 64 KiB default held about one and kept the camera workers waiting on the
# consumer; this holds about 19. 1 MiB is Linux's default
# fs.pipe-max-size, the most an unprivileged process may ask for.
PIPE_BYTES = 1 << 20


def _send_items(items: Callable[..., Iterable], args: tuple, receiver, sender) -> None:
    """A worker's half: ``items(*args)`` to ``sender`` in batches of ``BATCH_FRAMES``.

    Then None, or the exception that ended ``items`` after the batch
    before it.
    """
    # Ctrl-C reaches the whole process group: the parent handles it and stops the workers
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # the parent's end, copied by fork: closed, a send fails once the parent is gone instead of blocking
    receiver.close()
    batch = []
    try:
        for item in items(*args):
            batch.append(item)
            if len(batch) == BATCH_FRAMES:
                sender.send(batch)
                batch = []
    except Exception as exc:
        end = exc
    else:
        end = None
    sender.send(batch)
    sender.send(end)


def received(name: str, items: Callable[..., Iterable], *args) -> Iterator:
    """The items of ``items(*args)``, built in a worker process, one batch in hand at a time.

    The worker starts at the first ``next``, with the ``fork`` start method
    where the platform has it: fork shares ``args`` without pickling them,
    and any other start method works, only slower. An exception that ends
    the items is raised here after the last of them. A worker that dies
    raises RuntimeError naming it (``name``) and its exit code. Closing the
    generator, or an exception in it, stops the worker.
    """
    # imported at the first next(), so that a run that starts no worker never loads it
    import multiprocessing

    context = multiprocessing.get_context("fork" if "fork" in multiprocessing.get_all_start_methods() else None)
    receiver, sender = context.Pipe(duplex=False)
    try:  # fcntl is POSIX-only, and F_SETPIPE_SZ Linux-only
        import fcntl

        fcntl.fcntl(sender.fileno(), fcntl.F_SETPIPE_SZ, PIPE_BYTES)
    except (ImportError, AttributeError, OSError):
        pass  # the kernel refused (a lower fs.pipe-max-size, or the user's pipe page limit): keep the default
    process = context.Process(
        target=_send_items, args=(items, args, receiver, sender), name=f"roadwatch {name}", daemon=True
    )
    process.start()
    try:
        # closed before another worker starts, so that a dead worker's receiver reads EOF
        sender.close()
        while True:
            try:
                batch = receiver.recv()
            except EOFError:
                process.join()
                raise RuntimeError(
                    f"the {name} exited with code {process.exitcode} before its last frame"
                ) from None
            if batch is None:
                return
            if isinstance(batch, Exception):
                raise batch
            yield from batch
    except BaseException:
        process.terminate()
        raise
    finally:
        process.join()
        receiver.close()
