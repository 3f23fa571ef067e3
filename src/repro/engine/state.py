"""Versioned checkpoint files for the engine's state protocol.

A checkpoint is **one** ``.npz`` file holding

* a JSON manifest (under the reserved ``__manifest__`` entry) with a schema
  version, the engine configuration, the dataset spec, and every non-array
  piece of session state, and
* the numpy arrays referenced by the manifest (coverage columns, CSR maps,
  classifier scores and weights, positive ids, ...), each under the string
  key the manifest recorded.

The JSON/array split keeps the manifest human-inspectable (``python -m repro
export-state``) while the bulk state stays binary. :func:`read_checkpoint`
validates the container, the manifest JSON, the checkpoint kind, and the
schema version, raising :class:`~repro.errors.ConfigurationError` on any
mismatch — a corrupted or future-versioned checkpoint fails loudly instead of
resuming into silently-wrong state.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError

STATE_SCHEMA_VERSION = 4
"""Bump whenever the manifest layout or array contract changes."""

CHECKPOINT_KIND = "darwin-engine-checkpoint"
MANIFEST_KEY = "__manifest__"


class ArrayBundle:
    """Collects named numpy arrays for a checkpoint (and reads them back).

    Writing: components call :meth:`put` with a unique slash-namespaced key
    (``"index/coverage_values"``) and store the returned key in their manifest
    fragment. Reading: the same key retrieves the array from the loaded file.
    """

    def __init__(self, source: Optional[Mapping[str, np.ndarray]] = None) -> None:
        self._arrays: Dict[str, np.ndarray] = {}
        self._source = source

    def put(self, name: str, array: Any) -> str:
        """Store ``array`` under ``name``; returns ``name`` for the manifest."""
        if name == MANIFEST_KEY:
            raise ConfigurationError(f"array name {name!r} is reserved")
        if name in self._arrays:
            raise ConfigurationError(f"duplicate checkpoint array name {name!r}")
        self._arrays[name] = np.asarray(array)
        return name

    def get(self, name: str) -> np.ndarray:
        """The array stored under ``name`` (from memory or the loaded file)."""
        if name in self._arrays:
            return self._arrays[name]
        if self._source is not None:
            try:
                return np.asarray(self._source[name])
            except KeyError:
                pass
        raise ConfigurationError(f"checkpoint is missing array {name!r}")

    def as_mapping(self) -> Dict[str, np.ndarray]:
        """The collected arrays (for :func:`write_checkpoint`)."""
        return dict(self._arrays)

    def names(self) -> "list[str]":
        """All array names available (collected plus loaded-file entries)."""
        names = set(self._arrays)
        if self._source is not None:
            names.update(
                name
                for name in getattr(self._source, "files", self._source)
                if name != MANIFEST_KEY
            )
        return sorted(names)


def write_checkpoint(
    path: str, manifest: Mapping[str, Any], arrays: Mapping[str, np.ndarray]
) -> str:
    """Write a single-file checkpoint; returns ``path``.

    The manifest is stamped with the checkpoint kind and schema version when
    the caller has not set them already.
    """
    record = dict(manifest)
    record.setdefault("kind", CHECKPOINT_KIND)
    record.setdefault("schema_version", STATE_SCHEMA_VERSION)
    try:
        encoded = json.dumps(record, sort_keys=True).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"checkpoint manifest is not JSON-able: {exc}") from exc
    payload: Dict[str, np.ndarray] = {
        MANIFEST_KEY: np.frombuffer(encoded, dtype=np.uint8)
    }
    for name, array in arrays.items():
        if name == MANIFEST_KEY:
            raise ConfigurationError(f"array name {name!r} is reserved")
        payload[name] = np.asarray(array)
    # Write-then-rename keeps re-saves atomic: a crash or full disk mid-write
    # must not destroy the previous good checkpoint (periodic re-saving over
    # the same path is the normal checkpoint_every flow). The file handle
    # also stops np.savez appending ".npz" to bare paths.
    temp_path = f"{path}.tmp"
    try:
        with open(temp_path, "wb") as handle:
            np.savez_compressed(handle, **payload)
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise
    return path


def read_checkpoint(
    path: str, expected_kind: str = CHECKPOINT_KIND
) -> Tuple[Dict[str, Any], ArrayBundle]:
    """Load and validate a checkpoint written by :func:`write_checkpoint`.

    Returns ``(manifest, bundle)``. The file is read eagerly and closed
    before returning — a loaded engine holds no descriptor on its checkpoint,
    so long-lived services can load repeatedly and the file can be rewritten
    (``resume --checkpoint-every``) on platforms that forbid writing an open
    file. Raises :class:`~repro.errors.ConfigurationError` when the file is
    unreadable, does not carry ``expected_kind`` (other checkpoint families
    — e.g. the fleet's substrate snapshot — share the container format under
    their own kind stamp), or carries a different schema version.
    """
    try:
        with np.load(path, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
    except FileNotFoundError:
        raise ConfigurationError(f"checkpoint file not found: {path}") from None
    except Exception as exc:
        raise ConfigurationError(
            f"could not read checkpoint {path}: {exc}"
        ) from exc
    if MANIFEST_KEY not in arrays:
        raise ConfigurationError(
            f"{path} is not a Darwin engine checkpoint (no manifest entry)"
        )
    manifest = _decode_manifest(
        arrays.pop(MANIFEST_KEY).tobytes(), path, expected_kind
    )
    return manifest, ArrayBundle(source=arrays)


def _decode_manifest(
    encoded: bytes, path: str, expected_kind: str = CHECKPOINT_KIND
) -> Dict[str, Any]:
    """Parse and validate a manifest payload (kind + schema version)."""
    try:
        manifest = json.loads(encoded.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigurationError(
            f"checkpoint manifest in {path} is corrupted: {exc}"
        ) from exc
    if not isinstance(manifest, dict) or manifest.get("kind") != expected_kind:
        raise ConfigurationError(
            f"{path} is not a {expected_kind} checkpoint "
            f"(kind={manifest.get('kind') if isinstance(manifest, dict) else manifest!r})"
        )
    version = manifest.get("schema_version")
    if version != STATE_SCHEMA_VERSION:
        raise ConfigurationError(
            f"checkpoint schema version {version!r} does not match this "
            f"build's version {STATE_SCHEMA_VERSION}; re-create the checkpoint "
            f"with a matching repro release"
        )
    return manifest


def read_checkpoint_summary(path: str) -> Tuple[Dict[str, Any], Dict[str, Dict[str, Any]]]:
    """The manifest plus a shape/dtype inventory, without reading array data.

    ``export-state`` uses this so inspecting a large-corpus checkpoint stays
    O(manifest): only the manifest member and each ``.npy`` member's header
    are decompressed, never the coverage/CSR/score payloads.
    """
    import zipfile

    import numpy.lib.format as npy_format

    inventory: Dict[str, Dict[str, Any]] = {}
    manifest: Optional[Dict[str, Any]] = None
    try:
        with zipfile.ZipFile(path) as archive:
            for member in archive.namelist():
                name = member[:-4] if member.endswith(".npy") else member
                with archive.open(member) as handle:
                    if name == MANIFEST_KEY:
                        version = npy_format.read_magic(handle)
                        npy_format._check_version(version)
                        shape, _, dtype = npy_format._read_array_header(
                            handle, version
                        )
                        manifest = _decode_manifest(handle.read(), path)
                        continue
                    version = npy_format.read_magic(handle)
                    npy_format._check_version(version)
                    shape, _, dtype = npy_format._read_array_header(handle, version)
                inventory[name] = {"shape": list(shape), "dtype": str(dtype)}
    except FileNotFoundError:
        raise ConfigurationError(f"checkpoint file not found: {path}") from None
    except ConfigurationError:
        raise
    except Exception:
        # Anything surprising in the fast path (numpy internals changed, odd
        # archive layout): fall back to the eager reader, which validates
        # everything and reports shapes from the materialized arrays.
        manifest, bundle = read_checkpoint(path)
        for name in bundle.names():
            array = bundle.get(name)
            inventory[name] = {"shape": list(array.shape), "dtype": str(array.dtype)}
        return manifest, inventory
    if manifest is None:
        raise ConfigurationError(
            f"{path} is not a Darwin engine checkpoint (no manifest entry)"
        )
    return manifest, inventory


def rng_state_dict(rng: np.random.Generator) -> Dict[str, Any]:
    """JSON-able snapshot of a numpy ``Generator``'s bit-generator state."""
    return {
        "bit_generator": type(rng.bit_generator).__name__,
        "state": rng.bit_generator.state,
    }


def restore_rng(state: Mapping[str, Any]) -> np.random.Generator:
    """Rebuild a ``Generator`` from :func:`rng_state_dict` output."""
    name = state.get("bit_generator", "PCG64")
    bit_generator_cls = getattr(np.random, str(name), None)
    if not (
        isinstance(bit_generator_cls, type)
        and issubclass(bit_generator_cls, np.random.BitGenerator)
    ):
        # Guards corrupted manifests naming a non-BitGenerator np.random
        # attribute (e.g. "seed"), which getattr alone would happily return.
        raise ConfigurationError(
            f"checkpoint uses unknown bit generator {name!r}"
        )
    bit_generator = bit_generator_cls()
    try:
        bit_generator.state = state["state"]
    except (KeyError, AttributeError, TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"checkpoint RNG state is corrupted: {exc}"
        ) from exc
    return np.random.Generator(bit_generator)
