"""Cross-process persistent store for routing-matrix factorizations.

Everything expensive in a sweep — the estimator, the residual projector,
the detector's blind set — is a function of the routing matrix ``R``
alone, and :func:`repro.obs.manifest.matrix_digest` already names each
distinct ``R`` canonically.  This module spills the dense SVD factors to
disk under that digest so *separate processes* share warm
factorizations: sharded sweep workers, repeated ``repro sweep`` /
``repro run`` invocations, and resumed campaigns all skip the SVD for
any matrix some earlier process already factorised.

Design (following the manifest/checkpoint discipline of the sweep
runner's append-only results files):

- **Layout** — one ``.npz`` blob per digest under
  ``<root>/<digest[:2]>/<digest>.npz`` (the two-hex fan-out keeps
  directories small at campaign scale).
- **Atomic writes** — blobs are written to a unique same-directory temp
  file and published with :func:`os.replace`; concurrent writers of the
  same digest race safely (last complete write wins, readers never see a
  partial blob).
- **Version stamps** — every entry carries :data:`STORE_VERSION` and its
  own digest; entries from another format revision are treated as
  *misses*, never errors, so upgrading the library quietly refreshes the
  store.
- **Corrupt-entry refusal** — a truncated/unreadable blob, or one whose
  embedded digest/shape disagrees with its filename, raises the typed
  :class:`~repro.exceptions.StoreCorruptError`.  The store never
  overwrites an existing entry (content-addressed: same digest means
  same factors), so corrupt evidence survives for diagnosis.
- **Read-only degradation** — an unwritable store directory turns writes
  into warnings (one ``sweep_store`` obs event, then silence), and the
  owning cache keeps working purely in memory.

The store holds *dense* SVD factors only: the sparse backend's Gram
factorisation (Cholesky, or the eigendecomposition behind its spectral
solve) is cheap to rebuild and exporting it would force the very dense
SVD the backend exists to avoid
(:meth:`~repro.tomography.linear_system.LinearSystem.export_factors`
returns ``None`` there, and the cache simply skips persisting).
"""

from __future__ import annotations

import io
import itertools
import os
import zipfile
from collections import Counter
from pathlib import Path

import numpy as np

from repro import config
from repro.exceptions import StoreCorruptError, ValidationError
from repro.obs import core as obs

__all__ = ["FactorizationStore", "STORE_VERSION", "default_store"]

#: Format revision of on-disk entries; bump when the payload layout
#: changes.  Readers treat any other version as a miss, never an error.
STORE_VERSION = 1

#: Environment knob naming the store directory ("" = store disabled).
CACHE_DIR_ENV_VAR = "REPRO_CACHE_DIR"

#: Array keys every entry must carry (besides the metadata scalars).
_FACTOR_KEYS = ("u", "s", "vt", "rank")

#: Process-wide uniquifier for temp-file names (two threads of one
#: process writing the same digest must not share a temp path).
_TMP_COUNTER = itertools.count()


def default_store() -> "FactorizationStore | None":
    """The store named by ``REPRO_CACHE_DIR``, or ``None`` when unset.

    The single dispatch site of the knob: every component that wants the
    shared store (the sweep cache, the bench harness) resolves it here,
    so the environment is read through the config registry exactly once
    per construction.
    """
    root = config.get_str(CACHE_DIR_ENV_VAR)
    if not root:
        return None
    return FactorizationStore(root)


class FactorizationStore:
    """Digest-keyed persistent blob store of dense SVD factors.

    Instances are cheap handles over a directory; every operation stats
    the filesystem, so two processes pointing at the same ``root`` see
    each other's completed writes immediately.  ``stats`` counts
    ``hit`` / ``miss`` / ``write`` / ``skip`` / ``degraded`` on the
    instance, and each load/save emits a ``sweep_store`` obs event when
    a run log is active.
    """

    def __init__(self, root: str | Path) -> None:
        if not str(root):
            raise ValidationError("factorization store root must be a non-empty path")
        self.root = Path(root)
        self.stats: Counter[str] = Counter()
        self._writable: bool | None = None  # unknown until the first save

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def entry_path(self, digest: str) -> Path:
        """Where the blob for ``digest`` lives (existing or not)."""
        if not digest or any(c in digest for c in "/\\."):
            raise ValidationError(f"malformed store digest {digest!r}")
        return self.root / digest[:2] / f"{digest}.npz"

    def _event(self, op: str, **fields: object) -> None:
        if obs.is_enabled():
            obs.event("sweep_store", op=op, **fields)

    # ------------------------------------------------------------------
    # read side
    # ------------------------------------------------------------------
    def load(self, digest: str, *, shape: tuple[int, int] | None = None) -> dict | None:
        """The factor payload stored under ``digest``, or ``None`` on miss.

        ``shape`` optionally cross-checks the entry against the matrix
        the caller is about to factorise; a mismatch under the right
        digest means the blob lies about itself and is refused as
        corrupt.  Version-mismatched entries are misses (the caller
        re-factorises and a fresh process eventually rewrites them);
        truncated or inconsistent blobs raise
        :class:`~repro.exceptions.StoreCorruptError` and are left on
        disk untouched.
        """
        path = self.entry_path(digest)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            self.stats["miss"] += 1
            self._event("load", hit=False, digest=digest)
            return None
        except OSError as exc:
            raise StoreCorruptError(f"store entry {path} is unreadable: {exc}") from exc
        try:
            with np.load(io.BytesIO(blob), allow_pickle=False) as archive:
                payload = {key: archive[key] for key in archive.files}
        except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
            raise StoreCorruptError(
                f"store entry {path} is corrupt (truncated or not an npz blob): {exc}"
            ) from exc
        version = payload.get("store_version")
        if version is None or int(version) != STORE_VERSION:
            self.stats["miss"] += 1
            self._event("load", hit=False, digest=digest, version_mismatch=True)
            return None
        missing = [
            key for key in (*_FACTOR_KEYS, "digest", "shape") if key not in payload
        ]
        if missing:
            raise StoreCorruptError(
                f"store entry {path} is missing factor arrays {missing}"
            )
        if str(payload.get("digest")) != digest:
            raise StoreCorruptError(
                f"store entry {path} claims digest {payload.get('digest')!r}"
            )
        if shape is not None and tuple(int(v) for v in payload["shape"]) != tuple(shape):
            raise StoreCorruptError(
                f"store entry {path} has shape {payload['shape']} "
                f"but the matrix under this digest is {shape}"
            )
        self.stats["hit"] += 1
        self._event("load", hit=True, digest=digest)
        return {key: payload[key] for key in _FACTOR_KEYS}

    # ------------------------------------------------------------------
    # write side
    # ------------------------------------------------------------------
    def save(
        self, digest: str, factors: dict[str, np.ndarray], *, shape: tuple[int, int]
    ) -> bool:
        """Persist ``factors`` under ``digest``; returns True when written.

        Existing entries are never rewritten (content-addressed: same
        digest, same factors) — including corrupt ones, which stay on
        disk as evidence.  Unwritable directories degrade the store to a
        no-op with a single warning event instead of failing the sweep.
        """
        if self._writable is False:
            self.stats["skip"] += 1
            return False
        path = self.entry_path(digest)
        if path.exists():
            self.stats["skip"] += 1
            self._event("save", written=False, digest=digest)
            return False
        tmp = path.with_name(
            f".{path.name}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp"
        )
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as handle:
                np.savez(
                    handle,
                    store_version=np.asarray(STORE_VERSION, dtype=np.int64),
                    digest=np.asarray(digest),
                    shape=np.asarray(shape, dtype=np.int64),
                    **{key: np.asarray(factors[key]) for key in _FACTOR_KEYS},
                )
            os.replace(tmp, path)  # atomic publish: last complete write wins
        except OSError as exc:
            self._writable = False
            self.stats["degraded"] += 1
            self._event("save", written=False, digest=digest, degraded=str(exc))
            try:
                tmp.unlink()
            except OSError:
                pass
            return False
        self._writable = True
        self.stats["write"] += 1
        self._event("save", written=True, digest=digest)
        return True
