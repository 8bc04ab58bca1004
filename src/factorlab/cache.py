"""Disk cache for factorization sets.

Layout: <cache-dir>/<descriptor-hash>/<element-hash>.json, canonical JSON
bytes, written atomically (temp file then rename) so concurrent runs can
only ever observe complete files; an unreadable entry counts as a miss.
The FACTORLAB_CACHE environment variable supplies a default directory;
caching is off when neither it nor an explicit directory is given.
"""

from __future__ import annotations

import json
import os
import tempfile

from . import factor, models
from .errors import BudgetExceeded, ShapeMismatch

ENV_VAR = "FACTORLAB_CACHE"

# Decode errors (JSONDecodeError and UnicodeDecodeError are ValueErrors; too
# deep a nesting is a RecursionError), missing keys, and wrong shapes.
_UNREADABLE = (ValueError, RecursionError, KeyError, TypeError, IndexError, ShapeMismatch)


def resolve_cache_dir(explicit: str | None) -> str | None:
    if explicit:
        return explicit
    return os.environ.get(ENV_VAR) or None


def cache_path(cache_dir: str, desc: models.MonoidDescriptor, el) -> str:
    return os.path.join(
        cache_dir,
        models.descriptor_hash(desc),
        models.element_hash(desc, el) + ".json",
    )


def load_or_compute(
    desc: models.MonoidDescriptor,
    el,
    budget: int = factor.DEFAULT_BUDGET,
    cache_dir: str | None = None,
) -> factor.FactorSet:
    """Replay a cached factorization set or compute and store it.

    Cached sets are complete enumerations; replaying one with more
    factorizations than the budget raises BudgetExceeded, as computing it
    would. An entry that does not decode to a factor set of the right
    shape is treated as a miss and replaced.
    """
    if cache_dir is None:
        return factor.factorizations(desc, el, budget)
    path = cache_path(cache_dir, desc, el)
    if os.path.exists(path):
        try:
            with open(path, encoding="utf-8") as fh:
                fs = factor.factor_set_from_json(desc, json.load(fh))
            if len(fs.all) > budget:
                raise BudgetExceeded(budget)
            return fs
        except _UNREADABLE:
            pass  # a damaged entry is a miss: recompute and rewrite it
    fs = factor.factorizations(desc, el, budget)
    payload = models.canonical_dumps(factor.factor_set_to_json(fs))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return fs
