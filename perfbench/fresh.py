"""Run benchmark steps in fresh interpreter processes.

Set-up is timed in a new process each time: the first build in a process
is the slowest, and a fresh ``spawn`` interpreter makes every sample a
first build.  The costly answer checks also fan out over fresh processes,
two at a time on a 2-CPU box.  Every process started here is joined
before the call returns.

``spawn`` also starts multiprocessing's resource-tracker process, which
nothing joins: it only exits once its parent has gone, and then lingers
as an orphan.  ``adopt_orphans()`` at start-up and ``stop_all()`` on the
way out, SIGTERM included, make the benchmark stop and wait for it, and
for any process a child left behind, before it exits.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import pickle
import signal
import sys
import time
import traceback
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Any, Callable, List, Sequence, Tuple

#: a step that has not answered by then has hung (a run must end in 180 s)
TIMEOUT = 150.0
#: Linux ``prctl`` option: orphaned descendants are re-parented to us
PR_SET_CHILD_SUBREAPER = 36
#: how long ``stop_all()`` lets children end before it kills them
GRACE = 10.0


def _child(function: Callable[..., Any], args: Tuple[Any, ...], conn: Any) -> None:
    try:
        reply = ("ok", function(*args))
    except BaseException:  # shipped to the parent, which fails the run
        reply = ("error", traceback.format_exc())
    conn.send(reply)
    conn.close()


def run_fresh(calls: Sequence[Tuple[Callable[..., Any], Tuple[Any, ...]]]) -> List[Any]:
    """``[function(*args) ...]``, each in its own new process, concurrently."""
    context = multiprocessing.get_context("spawn")
    started = []
    try:
        for function, args in calls:
            receiver, sender = context.Pipe(duplex=False)
            process = context.Process(target=_child, args=(function, args, sender))
            process.start()
            sender.close()
            started.append((function, process, receiver))
        replies = []
        for function, process, receiver in started:
            if not receiver.poll(TIMEOUT):
                raise TimeoutError(f"{function.__name__} did not finish in time")
            status, payload = receiver.recv()
            if status != "ok":
                raise RuntimeError(f"{function.__name__} failed:\n{payload}")
            replies.append(payload)
        return replies
    except BaseException:
        for _, process, _ in started:
            process.terminate()
        raise
    finally:
        for _, process, receiver in started:
            receiver.close()
            process.join(timeout=30)
            if process.is_alive():
                process.terminate()
                process.join()


def run_forked(function: Callable[[], Any]) -> Any:
    """``function()`` run in a fork of this process; its pickled result.

    The fork starts from this process's state, which ``function`` may
    change freely: the state here stays as it was.
    """
    receiver, sender = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(receiver)
            with os.fdopen(sender, "wb") as pipe:
                pickle.dump(function(), pipe)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(sender)
    try:
        with os.fdopen(receiver, "rb") as pipe:
            return pickle.load(pipe)
    except EOFError:
        raise RuntimeError(f"{function.__name__} failed in its fork") from None
    finally:
        os.waitpid(pid, 0)


def halves(items: Sequence[Any]) -> List[Sequence[Any]]:
    """``items`` split into two contiguous halves (for two CPUs)."""
    middle = (len(items) + 1) // 2
    return [items[:middle], items[middle:]]


def adopt_orphans() -> None:
    """Make this process the parent of any descendant that is orphaned.

    A process started by a child (a shard worker, a forked round) then
    comes back to us when the child exits, and ``stop_all()`` can wait
    for it.  Outside Linux this is a no-op.  SIGTERM becomes an exit, so
    the caller's ``finally`` still runs.
    """
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children() -> List[int]:
    """Pids of this process's live or unreaped children (Linux ``/proc``)."""
    pids: List[int] = []
    for task in Path(f"/proc/{os.getpid()}/task").glob("*"):
        try:
            pids.extend(int(pid) for pid in (task / "children").read_text().split())
        except OSError:
            pass
    return pids


def stop_all() -> None:
    """Stop the resource tracker and wait for every child to end.

    Children still running after ``GRACE`` seconds are killed; every
    child, adopted orphans included, is reaped before this returns.
    """
    resource_tracker._resource_tracker._stop()
    deadline = time.monotonic() + GRACE
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() >= deadline:
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.02)
