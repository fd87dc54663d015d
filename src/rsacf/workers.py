"""Independent jobs spread over this process and forked worker processes.

run(fn, jobs) returns [fn(*job) for job in jobs], job 0 computed here while
job i >= 1 runs on worker i - 1. The workers are forked at the first job
list longer than one and serve until this process exits. Each reads
(fn, args) pickles from one pipe and writes (ok, result) pickles to another,
so fn must be a module-level function. Without os.fork, or on one CPU,
ways() is 1: every job list has one job, and it runs here.
"""

import atexit
import os

# Work, in operations times operand bits, below which a job is not split.
# A job's round trip through an idle worker's pipes takes about 0.06 ms, and
# a chain fingerprint sent back about 0.1 us, on 2 vCPUs (CPython 3.11).
# 2^20 is 1,024 chain steps of 1024 bits, about 6 ms, or about 11,000
# oracle pairs of 96 bits, about 2.5 ms.
MIN_WORK = 1 << 20

_owner = None  # the pid whose workers _workers holds
_workers = []  # (pid, pipe to it, pipe from it), buffered files
_pickle = None  # imported at the first fork; serial runs do not pay for it


class WorkerError(RuntimeError):
    """A worker died or raised."""


def _cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def ways(ops, bits):
    """How many parts ops operations on bits-bit operands go in: one below
    MIN_WORK or without os.fork, else one per CPU, at most ops."""
    if ops * bits < MIN_WORK or not hasattr(os, "fork"):
        return 1
    return min(ops, _cpus())


def _serve(inp, out):
    while True:
        try:
            fn, args = _pickle.load(inp)
        except EOFError:
            return
        try:
            reply = True, fn(*args)
        except Exception as exc:
            reply = False, f"{type(exc).__name__}: {exc}"
        _pickle.dump(reply, out, _pickle.HIGHEST_PROTOCOL)
        out.flush()


def _fork():
    global _pickle
    import pickle
    import signal  # here, so that the child imports nothing
    _pickle = pickle
    down, up = os.pipe(), os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (*down, *up):
            os.close(fd)
        raise
    if pid == 0:
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent answers ^C
            os.close(down[1])
            os.close(up[0])
            for _, out, inp in _workers:  # the other workers' pipes
                out.close()
                inp.close()
            with open(down[0], "rb") as inp, open(up[1], "wb") as out:
                _serve(inp, out)
        finally:
            os._exit(0)  # no atexit hook, no flush of inherited stdio
    os.close(down[0])
    os.close(up[1])
    return pid, open(down[1], "wb"), open(up[0], "rb")


def shutdown(kill=False):
    """Close the workers' pipes and reap them, killing them first if kill.
    A forked child only forgets its parent's workers."""
    global _owner
    owned = _owner == os.getpid()
    for pid, out, inp in _workers:
        for f in (out, inp):
            try:
                f.close()
            except OSError:
                pass  # a dead worker's pipe
        if owned:
            try:
                if kill:
                    import signal
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ChildProcessError, ProcessLookupError):
                pass  # reaped already
    _workers.clear()
    _owner = None


atexit.register(shutdown)


def _lost(pid, exc):
    return WorkerError(f"worker {pid} died ({type(exc).__name__})")


def run(fn, jobs):
    """[fn(*job) for job in jobs], job 0 here and the others on workers at
    the same time. A worker that dies or raises is a WorkerError; any error
    shuts the workers down, so the next call starts afresh."""
    if len(jobs) == 1:
        return [fn(*jobs[0])]
    global _owner
    if _owner != os.getpid():
        shutdown()
        _owner = os.getpid()
    try:
        while len(_workers) < len(jobs) - 1:
            _workers.append(_fork())
        busy = _workers[:len(jobs) - 1]
        for (pid, out, _), job in zip(busy, jobs[1:]):
            try:
                _pickle.dump((fn, job), out, _pickle.HIGHEST_PROTOCOL)
                out.flush()
            except OSError as exc:
                raise _lost(pid, exc) from None
        results = [fn(*jobs[0])]
        for pid, _, inp in busy:
            try:
                ok, value = _pickle.load(inp)
            except (EOFError, OSError) as exc:
                raise _lost(pid, exc) from None
            if not ok:
                raise WorkerError(f"worker {pid} raised {value}")
            results.append(value)
        return results
    except BaseException:
        shutdown(kill=True)
        raise
