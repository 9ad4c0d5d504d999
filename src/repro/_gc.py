"""Pause CPython's cycle collector for one bounded unit of work.

Parsing, digesting, building artifacts and merging allocate many
short-lived objects that refcounting frees and that form no cycles.
Left on, the collector promotes them into the old generation mid-call
and then runs full collections over the whole heap.  Wrap only units
whose size is bounded by one model or one pair, never a loop whose
length depends on the input, so any cyclic garbage stays bounded by
one unit and the collector still runs between units.
"""

from __future__ import annotations

import functools
import gc


def gc_paused(func):
    """Decorator: run ``func`` with automatic collection disabled when
    it is enabled, and re-enable it on return or raise.  When the
    collector is already off (a nested unit, or a caller that turned
    it off) it does nothing, so a caller's ``gc.disable()`` is never
    undone.  The switch is process-wide, like the collector: a thread
    that toggles it while another thread runs a unit can see its
    setting replaced."""

    @functools.wraps(func)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return func(*args, **kwargs)
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            gc.enable()

    return paused
