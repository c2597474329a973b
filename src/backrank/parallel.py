"""Forked helpers: the one way the package runs work on more than one core."""

import os
import pickle
import signal
import threading


def usable_cores() -> int:
    """Cores this process may run on; 1 without sched_getaffinity (or fork),
    or while another thread runs, since a forked child inherits its held locks."""
    if hasattr(os, "sched_getaffinity") and threading.active_count() == 1:
        return len(os.sched_getaffinity(0))
    return 1


def run_forked(tasks) -> list:
    """The results of the zero-argument callables ``tasks``, in order. On
    more than one usable core, each task but the first runs in a forked
    helper that pickles its result to a pipe; a task whose helper fails,
    cannot fork or sends a short payload runs again here and raises its own
    error. No helper outlives the call."""
    if usable_cores() == 1:
        return [task() for task in tasks]
    helpers = []    # (pid, None where fork failed; read end of its pipe)
    try:
        for task in tasks[1:]:
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:     # no process to spare: the task runs below
                pid = None
            if pid == 0:    # leave through os._exit: never return into the
                try:        # caller's frames, never flush its stdio buffers
                    os.write(write_end, pickle.dumps(task(), pickle.HIGHEST_PROTOCOL))
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write_end)
            helpers.append((pid, open(read_end, "rb")))
        results = [task() for task in tasks[:1]]    # none for no tasks
        for task, (_, pipe) in zip(tasks[1:], helpers):
            try:    # bytes from this call's own helper, or fewer
                results.append(pickle.loads(pipe.read()))
            except (EOFError, pickle.UnpicklingError):
                results.append(task())
        return results
    finally:
        for pid, pipe in helpers:
            pipe.close()
            if pid:
                os.kill(pid, signal.SIGKILL)    # a no-op on one that has exited
                os.waitpid(pid, 0)
