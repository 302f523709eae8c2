"""Every process the benchmark starts ends before it does.

The process workload spawns pool seats, and with them multiprocessing's
resource tracker, which on its own outlives the benchmark by a moment: it
exits only once it reads end-of-file on a pipe that closes when the
benchmark does.  The set-up probes run in child interpreters whose own
seats and tracker would be orphaned if a probe died.  :func:`adopt_orphans`
makes this process their subreaper, so orphans are re-parented here, and
:func:`stop_children` ends and waits for every descendant that is left.
"""

from __future__ import annotations

import os
import signal
import time

#: ``prctl`` option that makes orphaned descendants re-parent to the caller.
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Become the subreaper of every process started from here on (Linux;
    elsewhere only direct children are waited for)."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(
            PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def exit_on_sigterm() -> None:
    """Turn SIGTERM into ``SystemExit`` so that ``finally`` blocks, and with
    them :func:`stop_children`, run when the benchmark is stopped."""
    def handler(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, handler)


def _children() -> list[int]:
    """Pids of this process's children, live or not yet reaped."""
    me, out = os.getpid(), []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return out
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as fh:
                # The parent pid follows the state, after the command name
                # in parentheses (which may itself hold spaces).
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        if ppid == me:
            out.append(int(entry))
    return out


def _reap() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stop_children(grace: float = 20.0) -> None:
    """End every descendant and wait until each has ended: multiprocessing
    children get ``grace`` seconds to finish, then SIGTERM; the resource
    tracker is stopped and waited for; anything left (orphans adopted from
    a child) gets ``grace`` seconds, then SIGTERM, then after another
    ``grace`` seconds SIGKILL."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for p in multiprocessing.active_children():
        p.join(grace)
        if p.is_alive():
            p.terminate()
            p.join()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()

    term_at = time.monotonic() + grace
    kill_at = term_at + grace
    sent = None
    while True:
        _reap()
        live = _children()
        if not live:
            return
        now = time.monotonic()
        want = (signal.SIGKILL if now > kill_at
                else signal.SIGTERM if now > term_at else None)
        if want is not None and want != sent:
            for pid in live:
                try:
                    os.kill(pid, want)
                except ProcessLookupError:
                    pass
            sent = want
        time.sleep(0.02)
