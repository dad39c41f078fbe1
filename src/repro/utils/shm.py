"""Process-shared memory segments with explicit, leak-proof lifecycle.

The parallel substrate's zero-copy plane: the blocks of the
:class:`~repro.dag.arena.WeightArena` and every client's dataset tensors
live in named ``multiprocessing.shared_memory`` segments, so crossing a
process boundary ships a **name**, not the bytes.  This module owns the
two sides of that protocol:

- the **owner** side (the coordinator): :func:`create_segment` allocates
  a named segment and records it in a per-process registry;
  :func:`unlink_segment` removes its filesystem name (idempotent), and
  :func:`release_all` — registered with :mod:`atexit` — guarantees no
  segment this process created outlives the interpreter;
- the **attach** side (pool workers): :func:`attach_cached` maps a
  segment by name once and caches the mapping under that name.  A
  segment is written in place and never resized or republished (a
  growing arena adds segments, it does not replace one), so a cached
  mapping never goes stale and per-round cost is a dictionary lookup,
  not an ``mmap``.

Names carry a recognizable prefix plus the creating pid
(``repro-shm-<pid>-<seq>-<nonce>``), so test harnesses and CI can
assert that a run left nothing behind in ``/dev/shm``
(:func:`segment_prefix`, :func:`owned_segment_names`).

Unlinking never invalidates live mappings (POSIX semantics): readers
holding numpy views into an unlinked segment keep working, and the
memory is returned when the last mapping is garbage-collected.  That is
why attachments are never force-closed — an explicit ``close()`` under
live numpy views raises ``BufferError``.

The ``multiprocessing`` machinery (``shared_memory`` and the resource
tracker) is imported by the functions that create, attach, track and
untrack segments, on first use: a process that never shares memory
never loads it.

The registry records the creating pid so that ``fork``-spawned workers,
which inherit the parent's module state, can never unlink segments the
parent still owns.
"""

from __future__ import annotations

import atexit
import mmap
import os
import secrets
import signal
import threading
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from multiprocessing.shared_memory import SharedMemory

__all__ = [
    "create_segment",
    "create_mapped_segment",
    "attach_cached",
    "unlink_segment",
    "release_all",
    "owned_segment_names",
    "segment_prefix",
]

_PREFIX = "repro-shm"

#: Segments created by THIS process: name -> (creating pid, SharedMemory).
_owned: dict[str, tuple[int, SharedMemory]] = {}

#: Attachments made by this process: segment name -> SharedMemory.
_attached: dict[str, SharedMemory] = {}

_counter = 0


def segment_prefix() -> str:
    """The name prefix of every segment this library creates."""
    return _PREFIX


def _untrack(name: str) -> None:
    """Drop a segment from the resource tracker's bookkeeping.

    Attach-side mappings must not be tracked: with the ``fork`` start
    method, pool workers share the parent's tracker, and attach-side
    registrations would make worker exits look like leaks (and, at
    interpreter shutdown, unlink segments the owner still serves).
    Owner-side registrations are *kept* so a hard-killed coordinator
    still gets its segments reaped by the tracker.
    """
    from multiprocessing import resource_tracker

    try:
        resource_tracker.unregister(f"/{name}", "shared_memory")
    except Exception:  # tracker layouts differ across versions; best-effort
        pass


def _retrack(name: str) -> None:
    """Re-register a segment right before the owner unlinks it.

    The tracker's cache is one shared *set* across fork-children: a
    worker's attach-side :func:`_untrack` also erases the owner's
    registration, so the owner's eventual ``unlink()`` would send an
    unbalanced unregister and the tracker process would print a
    ``KeyError`` traceback.  Registering is idempotent; doing it just
    before unlink keeps the pair balanced and the tracker silent.
    """
    from multiprocessing import resource_tracker

    try:
        resource_tracker.register(f"/{name}", "shared_memory")
    except Exception:  # best-effort, mirroring _untrack
        pass


#: Handlers that were installed before ours, for chaining: signum -> handler.
_previous_handlers: dict[int, object] = {}
_reapers_installed = False


def _reap_and_chain(signum, frame) -> None:
    """Signal handler: unlink owned segments, then behave as if we were
    never installed.

    ``atexit`` only runs on orderly interpreter exit; a coordinator
    killed by SIGTERM (CI timeouts, orchestrators) or interrupted at the
    terminal would otherwise leak its ``/dev/shm`` segments until the
    resource tracker notices.  Chaining preserves the pre-existing
    semantics: a previously installed Python handler is invoked (for
    SIGINT that is the default handler raising ``KeyboardInterrupt``),
    and ``SIG_DFL`` is re-delivered so the process still dies with the
    correct termination status.
    """
    release_all()
    previous = _previous_handlers.get(signum, signal.SIG_DFL)
    if callable(previous):
        previous(signum, frame)
    elif previous != signal.SIG_IGN:
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)


def _install_signal_reapers() -> None:
    """Install the SIGTERM/SIGINT reapers once, lazily, from the first
    :func:`create_segment` call.

    Lazy so that merely importing this module never touches signal
    state, and only from the main thread (``signal.signal`` is illegal
    elsewhere) — a coordinator that first allocates from a worker thread
    simply stays on the atexit + resource-tracker safety nets until the
    main thread allocates.
    """
    global _reapers_installed
    if _reapers_installed:
        return
    if threading.current_thread() is not threading.main_thread():
        return
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous = signal.getsignal(signum)
            signal.signal(signum, _reap_and_chain)
        except (ValueError, OSError):  # exotic embedding; keep safety nets
            continue
        _previous_handlers[signum] = previous
    _reapers_installed = True


def create_segment(nbytes: int) -> SharedMemory:
    """Allocate a new named segment of at least ``nbytes`` bytes."""
    global _counter
    from multiprocessing import shared_memory

    _install_signal_reapers()
    _counter += 1
    name = f"{_PREFIX}-{os.getpid()}-{_counter}-{secrets.token_hex(4)}"
    shm = shared_memory.SharedMemory(name=name, create=True, size=max(1, nbytes))
    _owned[name] = (os.getpid(), shm)
    return shm


def create_mapped_segment(nbytes: int) -> tuple[str, mmap.mmap]:
    """A new named segment (:func:`create_segment`) and a mapping of it
    that lives exactly as long as the views of it do.

    The segment's own mapping is closed at once: ``SharedMemory`` unmaps
    on ``close()`` or collection even under live numpy views, which would
    leave them dangling.  ``mmap`` keeps its own duplicate of the
    descriptor, so this mapping outlives both that close and
    :func:`unlink_segment`; its pages are freed when the name is
    unlinked and the last view (here or in a worker) is gone.
    """
    segment = create_segment(nbytes)
    mapping = mmap.mmap(segment._fd, segment.size)
    segment.close()
    return segment.name, mapping


def attach_cached(name: str) -> SharedMemory:
    """Map an existing segment by name once per process (untracked; see
    :func:`_untrack`); later calls are dictionary lookups."""
    shm = _attached.get(name)
    if shm is None:
        from multiprocessing import shared_memory

        shm = _attached[name] = shared_memory.SharedMemory(name=name)
        _untrack(name)
    return shm


def unlink_segment(name: str) -> None:
    """Remove a segment's name from the filesystem (idempotent).

    Only acts on segments created by the *current* process — a forked
    worker inheriting the registry must never reap its parent's
    segments.  Live mappings (local or in workers) stay valid.
    """
    entry = _owned.pop(name, None)
    if entry is None:
        return
    pid, shm = entry
    if pid != os.getpid():
        return
    _retrack(name)
    try:
        shm.unlink()
    except FileNotFoundError:
        pass


def owned_segment_names() -> set[str]:
    """Names of segments created (and not yet unlinked) by this process."""
    pid = os.getpid()
    return {name for name, (owner, _) in _owned.items() if owner == pid}


def release_all() -> None:
    """Unlink every segment this process still owns (atexit safety net)."""
    for name in list(_owned):
        unlink_segment(name)


atexit.register(release_all)
