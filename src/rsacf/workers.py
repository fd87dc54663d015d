"""Independent jobs spread over this process and forked worker processes.

run(fn, jobs) returns [fn(*job) for job in jobs], job 0 computed here while
job i >= 1 runs on worker i - 1. The workers are forked at the first job
list longer than one and serve until this process exits. Each reads
(fn, args) pickles from one pipe and writes (ok, result) pickles to another,
so fn must be a module-level function. Without os.fork, or on one CPU,
ways() is 1: every job list has one job, and it runs here.

A job may call run itself. In a worker, and here while a job list is out,
ways() is 1 and run computes every job here, in order: a worker never
forks, and an inner list never writes to a busy worker's pipe or reads a
reply meant for the outer list.
"""

import atexit
import os

# Work, in operations times operand bits, below which a job is not split.
# On 2 vCPUs (CPython 3.11), with 8-12% of the CPU ticks stolen by the
# host, a one-step job's round trip through a worker's pipes took a median
# of 0.13 ms when the worker had just answered, 0.24 ms after 0.4 ms idle,
# 0.51 ms after 2 ms and 0.58 ms after 20 ms, as the idle worker wakes up;
# at about 30% steal it took about 1 ms. A chain fingerprint sent back
# costs about 0.1 us. 2^19 is 512 chain steps of 1024 bits, 2.8-3.0 ms with
# the limb step (mitm_table.LIMB_MIN_BITS), or about 5,500 oracle pairs of
# 96 bits, about 0.7 ms. Split over 2 CPUs those 512 steps took 2.4-2.6 ms,
# a small gain with a wide upper quartile (3.2-5.8 ms). A 64-step 1024-bit
# chain, the first stage's, took 0.85-1.30 ms on the worker, round trip
# included, against 0.36-0.42 ms here, so it is not split. A recovered
# 1024-bit mitm key splits twice: B = 2^e mod n, about 1,536
# multiplications, beside the key's set-up, and the two powers of about
# 256 bits, about 760 multiplications together, as one list of two.
# A bench success key (keygen_weak, its search and at most one rescue) is
# bench.KEY_OPS = 2^11 operations of its bits, 2^18 at 128 bits. Measured
# serially, one takes about 1 ms at 128 bits and 0.5 ms at 64, so a table
# splits from 2 keys at 128 bits or 4 at 64. A Miller-Rabin round is about
# as many operations as its candidate has bits. keygen_weak's prime search
# screens first rounds one candidate a CPU once two rounds reach the
# threshold, from 512 bits, and proves its two primes' other rounds in one
# list from 65 bits: 126 up to 256 bits, 22 at 512 (rsa._proving_rounds);
# is_probable_prime, which keygen_weak calls only below 2^64, splits none
# of its rounds. A round at 512 bits took 0.7-1.2 ms, and the 8 keys of
# keygen_weak(1024, 4, 1000..1007) took 0.23-0.27 s on 2 CPUs against
# 0.37 s in one process (medians of 7 runs, two sets). A 22-round list
# took 8.2-8.7 ms split against 15.5-16.4 ms here.
MIN_WORK = 1 << 19

_owner = None  # the pid whose workers _workers holds
_workers = []  # (pid, pipe to it, pipe from it), buffered files
_inner = False  # in a worker, or here while a job list is out
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
    MIN_WORK, without os.fork or inside a job list, else one per CPU, at
    most ops."""
    if _inner or ops * bits < MIN_WORK or not hasattr(os, "fork"):
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
    global _pickle, _inner
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
        _inner = True
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
    global _owner, _inner
    if len(jobs) == 1 or _inner:
        return [fn(*job) for job in jobs]
    if _owner != os.getpid():
        shutdown()
        _owner = os.getpid()
    _inner = True
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
    finally:
        _inner = False
