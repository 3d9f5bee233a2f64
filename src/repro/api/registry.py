"""Name-based registries behind the declarative session facade.

The facade never dispatches on *which class a caller constructed* — it
looks execution pieces up by name: ``detectors`` maps detector names
(``netreflex``, ``kl``, ``pca``) to factories, ``miners`` maps mining
engine names (the built-in ``apriori`` or a plugin's) to the engine
callables, and ``sources`` maps source kinds (``rpv5``, ``csv``,
``table``, ``scenario``, ``archive``, ``tail``) to source factories.

Built-in entries register themselves when their subsystem module is
imported (``repro.api`` imports them all eagerly), and third-party
plugins extend the system the same way::

    from repro.api.registry import detectors

    @detectors.add("my-detector")
    def make_my_detector(**options):
        return MyDetector(**options)

after which ``name = "my-detector"`` works in any ``[detector]`` spec.

This module is intentionally a leaf: it imports nothing from the rest
of the library, so subsystem modules may register themselves at import
time without creating cycles. Subsystems must import it as
``from repro.api.registry import ...`` (never via attributes of the
``repro.api`` package, which may still be mid-initialisation).
"""

from __future__ import annotations

from typing import Callable, Iterator, MutableMapping

from repro.errors import RegistryError

__all__ = ["Registry", "detectors", "miners", "sources"]


class Registry:
    """A named factory registry with helpful unknown-name errors."""

    def __init__(
        self,
        kind: str,
        store: MutableMapping[str, Callable] | None = None,
    ) -> None:
        self.kind = kind
        self._entries: MutableMapping[str, Callable] = (
            {} if store is None else store
        )

    def register(
        self, name: str, factory: Callable, *, replace: bool = False
    ) -> Callable:
        """Register ``factory`` under ``name``; returns the factory.

        Re-registering an existing name requires ``replace=True`` so
        plugins cannot silently shadow built-ins (or each other).
        """
        if not name or not isinstance(name, str):
            raise RegistryError(
                f"{self.kind} name must be a non-empty string: {name!r}"
            )
        if name in self._entries and not replace:
            raise RegistryError(
                f"{self.kind} {name!r} is already registered "
                "(pass replace=True to override)"
            )
        self._entries[name] = factory
        return factory

    def add(self, name: str, *, replace: bool = False) -> Callable:
        """Decorator form of :meth:`register`."""

        def decorate(factory: Callable) -> Callable:
            return self.register(name, factory, replace=replace)

        return decorate

    def get(self, name: str, field: str | None = None) -> Callable:
        """Look a factory up; unknown names raise :class:`RegistryError`
        listing what *is* registered (``field`` names the spec field the
        name came from, for the CLI's error rendering)."""
        try:
            return self._entries[name]
        except KeyError:
            raise RegistryError(
                f"unknown {self.kind} {name!r}; registered: "
                f"{', '.join(self.names()) or '(none)'}",
                field=field,
            ) from None

    def names(self) -> list[str]:
        """Sorted registered names."""
        return sorted(self._entries)

    def adopt(self, store: MutableMapping[str, Callable]) -> None:
        """Use ``store`` as the backing mapping from now on.

        Entries registered so far are merged in. This lets a subsystem
        expose its pre-existing engine table (e.g. ``mining.ENGINES``)
        as the registry's storage, so registrations through either
        surface stay in sync.
        """
        for name, factory in self._entries.items():
            store.setdefault(name, factory)
        self._entries = store

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry({self.kind!r}, {self.names()})"


#: Detector factories: ``factory(**options) -> Detector`` (untrained).
detectors = Registry("detector")

#: Frequent-itemset mining engines, shared with ``repro.mining.ENGINES``.
miners = Registry("mining engine")

#: Flow source factories: ``factory(spec: SourceSpec) -> source``.
sources = Registry("source")
