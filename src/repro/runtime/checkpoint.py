"""Kill-safe run snapshots: atomic save/load plus a periodic stepper.

A snapshot is one pickle holding a schema tag, caller-supplied metadata
(the harness stores a config fingerprint there), and the engine's full
state dict.  Writes are crash-atomic: the payload goes to a temp file in
the destination directory, is fsync'd, and then ``os.replace``'d over
the target — a SIGKILL at any instant leaves either the previous
complete snapshot or the new complete snapshot, never a torn file.
"""

from __future__ import annotations

import os
import pickle
import tempfile

import numpy as np

SNAPSHOT_SCHEMA = "repro-checkpoint/v1"


def save_snapshot(path: str, state: dict, meta: dict | None = None) -> None:
    """Atomically write ``state`` (plus ``meta``) to ``path``."""
    payload = {"schema": SNAPSHOT_SCHEMA, "meta": dict(meta or {}), "state": state}
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ckpt-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            pickle.dump(payload, f, protocol=pickle.HIGHEST_PROTOCOL)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_snapshot(path: str) -> dict:
    """Read a snapshot written by :func:`save_snapshot`; schema-checked."""
    with open(path, "rb") as f:
        payload = pickle.load(f)
    if not isinstance(payload, dict) or payload.get("schema") != SNAPSHOT_SCHEMA:
        raise ValueError(
            f"{path} is not a {SNAPSHOT_SCHEMA} snapshot "
            f"(schema={payload.get('schema') if isinstance(payload, dict) else None!r})"
        )
    return payload


def restore_weights(saved, current: np.ndarray) -> np.ndarray:
    """A snapshot's global weights, cast into the engine's compute dtype.

    Snapshots are dtype-portable (float64 weights load into a float32
    engine and back) but not shape-portable: a vector sized for another
    model raises here instead of failing later, mid-run.
    """
    weights = np.asarray(saved)
    if weights.shape != current.shape:
        raise ValueError(
            f"global weight dimension mismatch: the snapshot holds "
            f"{weights.size} weights, this engine's model has {current.shape[0]}"
        )
    return weights.astype(current.dtype, copy=True)


class Checkpointer:
    """Saves a snapshot every ``every`` completed units of work.

    The engine calls :meth:`step` after each round (sync) or aggregation
    flush (async) with a zero-argument callable producing its state dict;
    the callable only runs on the steps that actually save.
    """

    def __init__(self, path: str, every: int = 1, meta: dict | None = None) -> None:
        if every < 1:
            raise ValueError("checkpoint interval must be >= 1")
        self.path = path
        self.every = every
        self.meta = dict(meta or {})
        self.steps = 0
        self.saves = 0

    def step(self, state_fn) -> bool:
        """Count one completed unit; save when the interval divides it."""
        self.steps += 1
        if self.steps % self.every != 0:
            return False
        save_snapshot(self.path, state_fn(), meta=self.meta)
        self.saves += 1
        return True
