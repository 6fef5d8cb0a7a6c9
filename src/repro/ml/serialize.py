"""Model serialization: the ``.h5``-file equivalent.

"Students can ... download the trained models onto them for inference"
(§3.3) — trained weights travel from the cloud GPU node to the car's
Raspberry Pi through the object store.  We serialise to a single
``.npz`` payload (architecture descriptor + weight arrays) that can be
written to disk or stored as bytes in :mod:`repro.objectstore`.
"""

from __future__ import annotations

import io
import json
import zipfile
from pathlib import Path
from typing import Any

import numpy as np

from repro.common.errors import SerializationError
from repro.ml.models.base import DonkeyModel

__all__ = ["save_model_bytes", "load_model_bytes", "save_model", "load_model"]

_FORMAT_VERSION = 1


def _architecture(model: DonkeyModel) -> dict[str, Any]:
    spec: dict[str, Any] = {
        "format_version": _FORMAT_VERSION,
        "model": model.name,
        "input_shape": list(model.input_shape),
        "sequence_length": model.sequence_length,
    }
    for attr in ("mem_length", "max_throttle", "min_throttle"):
        if hasattr(model, attr):
            spec[attr] = getattr(model, attr)
    # The constructor scale is recoverable from weight shapes; record it
    # if the model kept it (factory-created models do).
    if hasattr(model, "_scale"):
        spec["scale"] = model._scale
    return spec


def save_model_bytes(model: DonkeyModel) -> bytes:
    """Serialise architecture + weights to an ``.npz`` byte string."""
    buf = io.BytesIO()
    arrays = {f"w{i}": w for i, w in enumerate(model.get_weights())}
    arrays["architecture"] = np.frombuffer(
        json.dumps(_architecture(model)).encode("utf-8"), dtype=np.uint8
    )
    np.savez(buf, **arrays)
    return buf.getvalue()


def load_model_bytes(data: bytes) -> DonkeyModel:
    """Rebuild a model from :func:`save_model_bytes` output.

    Its plans compile on first use, or when serving pins it to a
    replica (``DonkeyModel.compile_plans``).  They are compiled from the
    *loaded* weights and share parameter storage with them — identical
    outputs to a plan compiled from the original network.
    """
    from repro.ml.models.factory import create_model  # cycle-free at call time

    try:
        payload = np.load(io.BytesIO(data), allow_pickle=False)
        spec = json.loads(bytes(payload["architecture"]).decode("utf-8"))
    except (OSError, ValueError, KeyError, zipfile.BadZipFile, EOFError) as exc:
        # Everything np.load/json emit for truncated or corrupt payloads.
        raise SerializationError(f"unreadable model payload: {exc}") from exc
    if spec.get("format_version") != _FORMAT_VERSION:
        raise SerializationError(
            f"unsupported model format version: {spec.get('format_version')}"
        )
    kwargs: dict[str, Any] = {"input_shape": tuple(spec["input_shape"])}
    if "scale" in spec:
        kwargs["scale"] = spec["scale"]
    if "mem_length" in spec:
        kwargs["mem_length"] = spec["mem_length"]
    if spec["model"] in ("rnn", "3d") and spec.get("sequence_length"):
        kwargs["sequence_length"] = spec["sequence_length"]
    if "max_throttle" in spec:
        kwargs["max_throttle"] = spec["max_throttle"]
        kwargs["min_throttle"] = spec["min_throttle"]
    model = create_model(spec["model"], **kwargs)
    weights = [payload[f"w{i}"] for i in range(len(payload.files) - 1)]
    model.set_weights(weights)
    return model


def save_model(model: DonkeyModel, path: str | Path) -> None:
    """Write the model payload to a file."""
    Path(path).write_bytes(save_model_bytes(model))


def load_model(path: str | Path) -> DonkeyModel:
    """Read a model payload from a file."""
    path = Path(path)
    if not path.exists():
        raise SerializationError(f"no such model file: {path}")
    return load_model_bytes(path.read_bytes())
