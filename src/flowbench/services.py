"""In-process service framework: the request/response baseline.

Services expose named APIs and keep their state in private per-service
key-value stores, reachable only through the service's own data routines.
Calls are synchronous and go through a registry that counts the calls to
each `(service, api)` but deliberately keeps no copy of any request or
response document: whatever a handler does not explicitly persist is gone
when the call returns.

`register` indexes every API by `(service, api)` to its handler and the
service's context, so a call finds both with one dict lookup. A context
holds its registry weakly, so a dropped registry is freed at once with its
contexts, stores and counts: a context lives as long as its registry.
"""

from __future__ import annotations

import weakref
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, NamedTuple


class ServiceError(Exception):
    pass


class UnknownServiceError(ServiceError):
    pass


class DuplicateServiceError(ServiceError):
    pass


class ReentrantCallError(ServiceError):
    pass


class HandlerError(ServiceError):
    def __init__(self, service: str, api: str, cause: Exception):
        self.service = service
        self.api = api
        self.cause = cause
        super().__init__(f"{service}.{api}: {cause}")


@dataclass(frozen=True)
class ApiSpec:
    """One named API: a handler plus its declared wire signature."""

    name: str
    handler: Callable[[dict, "ServiceContext"], dict]
    request_fields: tuple[str, ...]
    response_fields: tuple[str, ...]
    logic_version: str = "v1"


class RoutineSpec(NamedTuple):
    """Named data-access helper; the only sanctioned store accessor."""

    name: str
    fn: Callable
    logic_version: str = "v1"


@dataclass(frozen=True)
class ServiceSpec:
    id: str
    apis: tuple[ApiSpec, ...]
    routines: tuple[RoutineSpec, ...] = ()

    def __post_init__(self):
        names = [a.name for a in self.apis]
        if len(names) != len(set(names)):
            raise ServiceError(f"service {self.id!r}: duplicate api names")
        rnames = [r.name for r in self.routines]
        if len(rnames) != len(set(rnames)):
            raise ServiceError(f"service {self.id!r}: duplicate routine names")


class ServiceContext:
    """A handler's own store and a weak proxy of its registry: it serves as long as that lives."""

    def __init__(self, service_id: str, registry: "ServiceRegistry", routines: dict[str, Callable]):
        self.service_id = service_id
        self._registry = weakref.proxy(registry)
        self._tables: dict[str, dict] = {}
        self._routines = routines  # routine name -> its `fn`

    @property
    def tick(self) -> int:
        return self._registry.tick

    def store_get(self, table: str, key: str):
        return self._tables.get(table, {}).get(key)

    def store_put(self, table: str, key: str, document: object) -> None:
        """Store one value: a document, or an immutable value such as a
        fitted model. The store keeps the object itself, not a copy."""
        self._tables.setdefault(table, {})[key] = document

    def store_table(self, table: str) -> Mapping[str, dict]:
        """Live read-only view of one table, in insertion order.

        Nothing is copied: the view shows later `store_put`s, and the stored
        documents are the ones the store holds. Do not write to a table
        while iterating its view. Reading a missing table gives an empty
        mapping and does not create the table.
        """
        return MappingProxyType(self._tables.get(table, {}))

    def routine(self, name: str, *args):
        fn = self._routines.get(name)
        if fn is None:
            raise ServiceError(f"service {self.service_id!r} has no routine {name!r}")
        return fn(self, *args)

    def call(self, callee: str, api: str, request: dict) -> dict:
        return self._registry.call(self.service_id, callee, api, request)


class ServiceRegistry:
    def __init__(self):
        self.tick = 0
        self.call_counts: dict[tuple[str, str], int] = {}  # (callee, api) -> calls so far
        self._services: dict[str, ServiceSpec] = {}
        self._apis: dict[tuple[str, str], tuple[Callable, ServiceContext]] = {}
        self._contexts: dict[str, ServiceContext] = {}
        self._in_flight: set[tuple[str, str]] = set()

    def register(self, spec: ServiceSpec) -> None:
        if spec.id in self._services:
            raise DuplicateServiceError(f"service {spec.id!r} already registered")
        self._services[spec.id] = spec
        ctx = ServiceContext(spec.id, self, {r.name: r.fn for r in spec.routines})
        self._contexts[spec.id] = ctx
        for api in spec.apis:
            self._apis[(spec.id, api.name)] = (api.handler, ctx)

    def service_specs(self) -> list[ServiceSpec]:
        return [self._services[sid] for sid in sorted(self._services)]

    def context_for(self, service: str) -> ServiceContext:
        """Bootstrap access for application start-up code (e.g. seeding a
        trained model into a store). Not available to other services."""
        if service not in self._contexts:
            raise UnknownServiceError(service)
        return self._contexts[service]

    def call(self, caller: str, callee: str, api: str, request: dict) -> dict:
        key = (callee, api)
        target = self._apis.get(key)
        if target is None:
            if callee not in self._services:
                raise UnknownServiceError(f"unknown service {callee!r}")
            raise UnknownServiceError(f"service {callee!r} has no api {api!r}")
        in_flight = self._in_flight
        if key in in_flight:
            raise ReentrantCallError(f"re-entrant call to {callee}.{api}")
        counts = self.call_counts
        counts[key] = counts.get(key, 0) + 1
        in_flight.add(key)
        handler, ctx = target
        try:
            return handler(request, ctx)
        except ServiceError:
            raise
        except Exception as exc:
            raise HandlerError(callee, api, exc) from exc
        finally:
            in_flight.discard(key)
