"""The model registry: TroviHub versions/tags + object-store payloads.

Checkpoints are published as versions of one hub artifact
(``fleet-autopilot``).  The hub keeps the authoritative version history
and the mutable stage tags (``candidate`` / ``canary`` / ``stable``);
the hub stores only content hashes, so the actual ``.npz`` weight
payloads live in the ``fleet-models`` object-store container, one
object per version, verified against the hub's content hash on load.
"""

from __future__ import annotations

import json

from repro.artifacts.trovi import TroviHub
from repro.common.errors import FleetError, TagNotFoundError
from repro.common.ids import content_id
from repro.ml.models.base import DonkeyModel
from repro.ml.serialize import load_model_bytes, save_model_bytes
from repro.objectstore.store import ObjectStore

__all__ = [
    "ModelRegistry",
    "MODELS_CONTAINER",
    "ARTIFACT_TITLE",
    "TAG_CANDIDATE",
    "TAG_CANARY",
    "TAG_STABLE",
]

#: Object-store container holding one ``.npz`` payload per version.
MODELS_CONTAINER = "fleet-models"
#: Title (and search handle) of the registry artifact on the hub.
ARTIFACT_TITLE = "fleet-autopilot"

TAG_CANDIDATE = "candidate"
TAG_CANARY = "canary"
TAG_STABLE = "stable"


class ModelRegistry:
    """Versioned model checkpoints with mutable stage tags."""

    def __init__(
        self, hub: TroviHub, store: ObjectStore, owner: str = "fleet-trainer"
    ) -> None:
        self.hub = hub
        self.store = store
        self.owner = owner
        self.models = store.create_container(MODELS_CONTAINER)
        self._artifact_id = ""

    @property
    def artifact_id(self) -> str:
        """Hub artifact id ("" until the first publish)."""
        return self._artifact_id

    @staticmethod
    def version_label(number: int) -> str:
        """Display/routing label for a version number (``v003``)."""
        return f"v{number:03d}"

    def _object_name(self, number: int) -> str:
        return f"{self.version_label(number)}.npz"

    # ----------------------------------------------------------- publish

    def publish(
        self, model: DonkeyModel, metrics: dict, changelog: str = ""
    ) -> int:
        """Publish a checkpoint; returns its version number.

        The new version is immediately tagged ``candidate`` — rollout
        stages move the tag forward (or drop it on rollback).
        """
        payload = save_model_bytes(model)
        files = {
            "model.npz": payload,
            "metrics.json": json.dumps(metrics, sort_keys=True).encode("utf-8"),
        }
        if not self._artifact_id:
            artifact = self.hub.publish(
                title=ARTIFACT_TITLE,
                owner=self.owner,
                files=files,
                description="continuously retrained fleet autopilot",
                tags={"autolearn", "fleet"},
            )
            self._artifact_id = artifact.artifact_id
            number = artifact.latest.number
        else:
            number = self.hub.publish_version(
                self._artifact_id, files, changelog=changelog
            ).number
        self.models.put(
            self._object_name(number),
            payload,
            content_type="application/x-npz",
            metadata={"version": str(number)},
        )
        self.models.put(
            self._metrics_name(number),
            files["metrics.json"],
            content_type="application/json",
            metadata={"version": str(number)},
        )
        self.hub.tag_version(self._artifact_id, TAG_CANDIDATE, number)
        return number

    # -------------------------------------------------------------- tags

    def tag(self, tag: str, number: int) -> None:
        """Bind (or move) a stage tag to a version."""
        self._require_artifact()
        self.hub.tag_version(self._artifact_id, tag, number)

    def untag(self, tag: str) -> int | None:
        """Drop a stage tag; returns the version it pointed at (or None)."""
        self._require_artifact()
        try:
            return self.hub.untag_version(self._artifact_id, tag)
        except TagNotFoundError:
            return None

    def resolve(self, tag: str) -> int | None:
        """Version number a stage tag points at (None when unbound)."""
        if not self._artifact_id:
            return None
        try:
            return self.hub.resolve(self._artifact_id, tag).number
        except TagNotFoundError:
            return None

    def _require_artifact(self) -> None:
        if not self._artifact_id:
            raise FleetError("registry has no published versions yet")

    # -------------------------------------------------------------- load

    def model_bytes(self, number: int) -> bytes:
        """Raw checkpoint payload, verified against the hub's hash."""
        self._require_artifact()
        version = self.hub.get(self._artifact_id).version(number)
        payload = self.models.get(self._object_name(number)).data
        metrics_name = "metrics.json"
        expected_files = tuple(sorted(["model.npz", metrics_name]))
        if version.files != expected_files:
            raise FleetError(
                f"version {number} files {version.files} != {expected_files}"
            )
        # Recompute the bundle hash the hub recorded at publish time; a
        # mismatch means the store payload is not the published bytes.
        metrics_payload = self._metrics_bytes(number)
        bundle = b"".join(
            name.encode() + b"\0" + data
            for name, data in sorted(
                {metrics_name: metrics_payload, "model.npz": payload}.items()
            )
        )
        if content_id(bundle) != version.contents_id:
            raise FleetError(
                f"checkpoint payload for version {number} fails hash check"
            )
        return payload

    def _metrics_bytes(self, number: int) -> bytes:
        return self.models.get(self._metrics_name(number)).data

    def _metrics_name(self, number: int) -> str:
        return f"{self.version_label(number)}.metrics.json"

    def load(self, number: int) -> DonkeyModel:
        """Rebuild the checkpoint model for a version."""
        return load_model_bytes(self.model_bytes(number))

    def history(self) -> list[dict]:
        """Version history, oldest first (JSON-ready)."""
        if not self._artifact_id:
            return []
        artifact = self.hub.get(self._artifact_id)
        tags_by_version: dict[int, list[str]] = {}
        for tag in sorted(artifact.version_tags):
            tags_by_version.setdefault(artifact.version_tags[tag], []).append(tag)
        return [
            {
                "version": version.number,
                "contents_id": version.contents_id,
                "published_at": version.published_at,
                "changelog": version.changelog,
                "tags": tags_by_version.get(version.number, []),
            }
            for version in artifact.versions
        ]
