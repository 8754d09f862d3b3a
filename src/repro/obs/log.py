"""Library logging for ``repro``: the alternative to ``print()``.

Ruff's ``T20`` rules forbid bare ``print()`` in library code — printed output
cannot be captured, silenced, or correlated with a run.  Library modules
instead write

.. code-block:: python

    from repro.obs import get_logger

    log = get_logger(__name__)
    log.info("sweep %s: %d points", figure, len(points))

Loggers live under the ``repro`` namespace with a ``NullHandler``
attached to the root, so importing the library never configures global
logging (the stdlib contract for libraries).  CLIs that want the output
call :func:`enable_console_logging`.
"""

from __future__ import annotations

import logging
import sys
from typing import Optional, TextIO

__all__ = ["enable_console_logging", "get_logger"]

_ROOT_NAME = "repro"

_root = logging.getLogger(_ROOT_NAME)
if not _root.handlers:
    _root.addHandler(logging.NullHandler())


def get_logger(name: str) -> logging.Logger:
    """The library logger for a module (``get_logger(__name__)``)."""
    if name == _ROOT_NAME or name.startswith(_ROOT_NAME + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{_ROOT_NAME}.{name}")


def enable_console_logging(
    level: int = logging.INFO, stream: Optional[TextIO] = None
) -> logging.Handler:
    """Attach a console handler to the ``repro`` root (CLI entry points).

    Returns the handler so callers can detach it (tests do).
    """
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(logging.Formatter("[%(name)s] %(message)s"))
    root = logging.getLogger(_ROOT_NAME)
    root.addHandler(handler)
    root.setLevel(level)
    return handler
