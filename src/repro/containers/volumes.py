"""Volume model for the container cleaner.

The paper's cleaner (Section III) protects user data during inter-function
container sharing by persisting it in *volumes* that are unmounted before a
container is handed to a different function.  Volumes come in three kinds:
language-package volumes, runtime-package volumes and user-data volumes; OS
packages live on the container's writable layer and are not volumes.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.containers.image import FunctionImage
from repro.packages.package import Package, PackageLevel


class VolumeKind(enum.Enum):
    """The three volume groups of the container cleaner."""

    LANGUAGE = "language"
    RUNTIME = "runtime"
    USER_DATA = "user_data"


@dataclass(frozen=True)
class Volume:
    """A mountable volume.

    Package volumes carry the packages they materialize; user-data volumes
    carry the owning function's name instead (their contents are opaque).
    """

    volume_id: int
    kind: VolumeKind
    packages: FrozenSet[Package] = frozenset()
    owner_function: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind is VolumeKind.USER_DATA:
            if self.owner_function is None:
                raise ValueError("user-data volumes must declare an owner")
            if self.packages:
                raise ValueError("user-data volumes carry no packages")
        else:
            if self.owner_function is not None:
                raise ValueError("package volumes have no owner")
            expected = (
                PackageLevel.LANGUAGE
                if self.kind is VolumeKind.LANGUAGE
                else PackageLevel.RUNTIME
            )
            for pkg in self.packages:
                if pkg.level is not expected:
                    raise ValueError(
                        f"volume kind {self.kind.value} cannot hold "
                        f"{pkg.level.label} package {pkg.key}"
                    )


class VolumeStore:
    """The "function database" of prepared package volumes.

    The cleaner mounts required package volumes from this store when
    repacking a warm container.  Volumes are deduplicated by content: asking
    twice for the same package set returns the same volume object.
    """

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._package_volumes: Dict[tuple, Volume] = {}
        self._user_volumes: Dict[str, Volume] = {}
        self._volume_sets: Dict[tuple, Tuple[Volume, ...]] = {}
        self.mount_count = 0
        self.unmount_count = 0

    def volume_set(
        self, image: FunctionImage, function_name: str
    ) -> Tuple[Volume, ...]:
        """:func:`volumes_for_image` for ``image``, memoized.

        Keyed by the image's interned language and runtime fingerprints
        and the function name.  Volumes are deduplicated by content, so
        the memoized tuple holds the very objects a fresh call returns,
        and a miss creates them in the same order (same volume ids).
        """
        fps = image.fingerprints
        key = (fps[1], fps[2], function_name)
        vols = self._volume_sets.get(key)
        if vols is None:
            vols = tuple(volumes_for_image(
                self, image.language_packages, image.runtime_packages,
                function_name,
            ))
            self._volume_sets[key] = vols
        return vols

    def package_volume(
        self, kind: VolumeKind, packages: Iterable[Package]
    ) -> Volume:
        """Get-or-create the package volume for ``packages`` of ``kind``."""
        if kind is VolumeKind.USER_DATA:
            raise ValueError("use user_data_volume() for user-data volumes")
        frozen = frozenset(packages)
        cache_key = (kind, frozen)
        vol = self._package_volumes.get(cache_key)
        if vol is None:
            vol = Volume(next(self._ids), kind, packages=frozen)
            self._package_volumes[cache_key] = vol
        return vol

    def user_data_volume(self, function_name: str) -> Volume:
        """Get-or-create the private user-data volume of a function."""
        vol = self._user_volumes.get(function_name)
        if vol is None:
            vol = Volume(
                next(self._ids), VolumeKind.USER_DATA, owner_function=function_name
            )
            self._user_volumes[function_name] = vol
        return vol

    def record_mount(self, n: int = 1) -> None:
        """Count volume mount operation(s)."""
        self.mount_count += n

    def record_unmount(self, n: int = 1) -> None:
        """Count volume unmount operation(s)."""
        self.unmount_count += n


def volumes_for_image(
    store: VolumeStore,
    language_packages: Iterable[Package],
    runtime_packages: Iterable[Package],
    function_name: str,
) -> List[Volume]:
    """The full volume set a container needs to run ``function_name``."""
    vols: List[Volume] = []
    lang = frozenset(language_packages)
    rt = frozenset(runtime_packages)
    if lang:
        vols.append(store.package_volume(VolumeKind.LANGUAGE, lang))
    if rt:
        vols.append(store.package_volume(VolumeKind.RUNTIME, rt))
    vols.append(store.user_data_volume(function_name))
    return vols
