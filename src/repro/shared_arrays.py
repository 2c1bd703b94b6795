"""The optional numpy import and one shared-memory transport for its arrays.

numpy is the ``repro[fast]`` optional extra: every vectorized engine
(:mod:`repro.paths.batch`, :mod:`repro.routing.compiled_query`) imports
it from here, so :func:`numpy_available` answers for all of them.

Spawn-path parallel workers (:func:`repro.core.parallel.evaluate_sharded`)
map the parent's int arrays zero-copy instead of re-deriving them per
process.  :func:`export` copies a ``name -> array`` mapping into
``multiprocessing.shared_memory`` segments and returns the handles plus a
picklable descriptor; :func:`attach` maps a descriptor back into numpy
views; :func:`close` releases handles.  The exporting parent owns the
segments and unlinks them once every consumer (pool rebuilds included) is
done.  Workers only attach and keep their handles alive as long as the
views; multiprocessing workers share the parent's resource tracker, so no
cleanup races occur.  Every failure degrades to "nothing shared" — the
consumer then builds its own arrays, which is merely slower.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

try:  # numpy is an optional extra (`pip install repro[fast]`)
    import numpy as np
except ImportError:  # pragma: no cover - exercised via monkeypatch in tests
    np = None

try:
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover - platform without shm
    shared_memory = None


def numpy_available() -> bool:
    """Whether the optional numpy dependency imported successfully."""
    return np is not None


def export(arrays: Mapping[str, object]) -> Tuple[Optional[List], Optional[Dict]]:
    """Copy *arrays* into new shared-memory segments.

    Returns ``(handles, descriptor)``: the caller owns the handles and must
    :func:`close` them with ``unlink=True`` once every consumer is done;
    the descriptor maps each name to ``(segment, shape, dtype)``.
    ``(None, None)`` when numpy or shared memory is unavailable.
    """
    if np is None or shared_memory is None:
        return None, None
    handles: List = []
    descriptor: Dict = {}
    try:
        for name, array in arrays.items():
            segment = shared_memory.SharedMemory(create=True,
                                                 size=max(1, array.nbytes))
            handles.append(segment)
            np.ndarray(array.shape, dtype=array.dtype,
                       buffer=segment.buf)[:] = array
            descriptor[name] = (segment.name, tuple(array.shape),
                                str(array.dtype))
    except Exception:
        close(handles, unlink=True)
        return None, None
    return handles, descriptor


def attach(descriptor: Optional[Mapping]) -> Optional[Tuple[List, Dict]]:
    """Map an :func:`export` descriptor: ``(handles, name -> array view)``.

    The views borrow the segments' buffers, so the handles must stay alive
    as long as the views do.  None (attaching nothing) on any failure.
    """
    if np is None or shared_memory is None or not descriptor:
        return None
    handles: List = []
    arrays: Dict = {}
    try:
        for name, (segment_name, shape, dtype) in descriptor.items():
            # CPython < 3.13 registers even plain attachments with the
            # resource tracker; multiprocessing workers share the
            # parent's tracker process, where re-registering a tracked
            # name is a no-op and the parent's unlink clears the single
            # entry — so no tracker surgery is needed here.
            segment = shared_memory.SharedMemory(name=segment_name)
            handles.append(segment)
            arrays[name] = np.ndarray(tuple(shape), dtype=np.dtype(dtype),
                                      buffer=segment.buf)
    except Exception:
        close(handles, unlink=False)
        return None
    return handles, arrays


def close(handles, unlink: bool) -> None:
    """Close (and with *unlink*, destroy) shared-memory segments."""
    for segment in handles or ():
        try:
            segment.close()
        except Exception:
            pass
        if unlink:
            try:
                segment.unlink()
            except Exception:
                pass
