"""One resolver for the engine knobs: explicit argument > environment > default.

The path engine (``REPRO_PATH_ENGINE``), the query engine
(``REPRO_QUERY_ENGINE``) and the pool start method
(``REPRO_START_METHOD``) each pass :func:`resolve_choice` one alias table
mapping every accepted lower-case spelling to its canonical value; the
table's ``""`` entry is the default.  An unrecognized explicit argument
raises ``ValueError``.  An unrecognized environment value applies the
default after one ``RuntimeWarning`` per value per process, so a typo
never silently runs the wrong engine.
"""

from __future__ import annotations

import os
import warnings
from typing import Mapping, Optional

#: ``(variable, value)`` pairs already warned about.
_WARNED: set = set()


def resolve_choice(explicit: Optional[str], env: str,
                   aliases: Mapping[str, object], what: str):
    """The canonical value of *explicit*, else of ``$env``, else the default."""
    if explicit is not None:
        value = explicit.strip().lower()
        if value not in aliases:
            raise ValueError(
                f"unknown {what} {explicit!r}; pick one of {_names(aliases)}")
        return aliases[value]
    raw = os.environ.get(env, "").strip()
    value = raw.lower()
    if value in aliases:
        return aliases[value]
    if (env, value) not in _WARNED:
        _WARNED.add((env, value))
        warnings.warn(
            f"unrecognized {env} value {raw!r}; using the default {what} "
            f"{aliases['']!r} (recognized: {_names(aliases)})",
            RuntimeWarning,
            stacklevel=3,
        )
    return aliases[""]


def _names(aliases: Mapping[str, object]) -> str:
    """The canonical values of *aliases*, in table order."""
    return ", ".join(dict.fromkeys(v for v in aliases.values() if v))
