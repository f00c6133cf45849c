"""In-process service framework: the request/response baseline.

Services expose named APIs and keep their state in private per-service
key-value stores, reachable only through the service's own data routines.
Calls are synchronous and go through a registry that records a call trace
(caller, callee, api, tick) but deliberately keeps no copy of any request
or response document: whatever a handler does not explicitly persist is
gone when the call returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable


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


@dataclass(frozen=True)
class RoutineSpec:
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
    """What a handler gets to touch: its own store and the registry."""

    def __init__(self, service_id: str, registry: "ServiceRegistry"):
        self.service_id = service_id
        self._registry = registry
        self._tables: dict[str, dict] = {}
        self._routines: dict[str, RoutineSpec] = {}

    @property
    def tick(self) -> int:
        return self._registry.tick

    def store_get(self, table: str, key: str):
        return self._tables.get(table, {}).get(key)

    def store_put(self, table: str, key: str, document: dict) -> None:
        self._tables.setdefault(table, {})[key] = document

    def store_table(self, table: str) -> dict:
        """Read view of one table, in insertion order."""
        return dict(self._tables.get(table, {}))

    def routine(self, name: str, *args):
        spec = self._routines.get(name)
        if spec is None:
            raise ServiceError(f"service {self.service_id!r} has no routine {name!r}")
        return spec.fn(self, *args)

    def call(self, callee: str, api: str, request: dict) -> dict:
        return self._registry.call(self.service_id, callee, api, request)


@dataclass(frozen=True)
class CallEntry:
    caller: str
    callee: str
    api: str
    tick: int


@dataclass
class ServiceRegistry:
    tick: int = 0
    trace: list[CallEntry] = field(default_factory=list)
    _services: dict[str, ServiceSpec] = field(default_factory=dict)
    _contexts: dict[str, ServiceContext] = field(default_factory=dict)
    _in_flight: set[tuple[str, str]] = field(default_factory=set)

    def register(self, spec: ServiceSpec) -> None:
        if spec.id in self._services:
            raise DuplicateServiceError(f"service {spec.id!r} already registered")
        self._services[spec.id] = spec
        ctx = ServiceContext(spec.id, self)
        ctx._routines = {r.name: r for r in spec.routines}
        self._contexts[spec.id] = ctx

    def set_tick(self, tick: int) -> None:
        self.tick = tick

    def has_api(self, service: str, api: str) -> bool:
        spec = self._services.get(service)
        return spec is not None and any(a.name == api for a in spec.apis)

    def service_specs(self) -> list[ServiceSpec]:
        return [self._services[sid] for sid in sorted(self._services)]

    def context_for(self, service: str) -> ServiceContext:
        """Bootstrap access for application start-up code (e.g. seeding a
        trained model into a store). Not available to other services."""
        if service not in self._contexts:
            raise UnknownServiceError(service)
        return self._contexts[service]

    def call(self, caller: str, callee: str, api: str, request: dict) -> dict:
        spec = self._services.get(callee)
        if spec is None:
            raise UnknownServiceError(f"unknown service {callee!r}")
        api_spec = next((a for a in spec.apis if a.name == api), None)
        if api_spec is None:
            raise UnknownServiceError(f"service {callee!r} has no api {api!r}")
        key = (callee, api)
        if key in self._in_flight:
            raise ReentrantCallError(f"re-entrant call to {callee}.{api}")
        self.trace.append(CallEntry(caller, callee, api, self.tick))
        self._in_flight.add(key)
        try:
            response = api_spec.handler(request, self._contexts[callee])
        except ServiceError:
            raise
        except Exception as exc:
            raise HandlerError(callee, api, exc) from exc
        finally:
            self._in_flight.discard(key)
        return response
