"""Ride allocation: match ride requests to the nearest available driver.

The world registers a driver fleet at tick 0, then emits ride requests,
pickup reports, and completion reports. The app assigns each request to
the closest free driver (ties to the lowest driver id), keeps that driver
busy until the ride completes, and tracks realized pickup waits.

Data stage: the realized waits become labels, the allocation context
(distance, free-driver count, time of day) the features; the pairing is
declared once, as the collection spec the dataset output stream is derived
from, and assembled by the collection tooling. Model stage: a regression over that dataset (`fit_model`) estimates
the pickup wait for every new allocation.
"""

from __future__ import annotations

import math

from ..collection import CollectionSpec, StreamSelect, join
from ..graph import GraphBuilder, Schema
from ..mlkit import LinearModel, predict_linear, fit_linear
from ..rng import checked_rate
from ..services import ApiSpec, RoutineSpec, ServiceRegistry, ServiceSpec
from .base import ApiRoute, Event, FbpBuild, Scenario, SoaBuild, World, checked_count, checked_scale, untrained

DEFAULT_PARAMS = {
    "n_drivers": 20,
    "request_rate": 1.2,
    "noise": 1.0,
    "world_size": 8.0,
}

FEATURE_FIELDS = ("distance", "n_available", "tod")

RIDE_REQUEST = Schema(
    "ride_request", (("ride_id", "int"), ("rider_x", "float"), ("rider_y", "float"))
)
DRIVER_EVENT = Schema(
    "driver_event", (("driver_id", "int"), ("x", "float"), ("y", "float"))
)
RIDE_COMPLETION = Schema("ride_completion", (("ride_id", "int"),))
RAW_PICKUP = Schema("raw_pickup", (("ride_id", "int"), ("pickup_time", "float")))
ALLOCATION = Schema(
    "allocation",
    (
        ("ride_id", "int"),
        ("driver_id", "int"),
        ("matched", "bool"),
        ("distance", "float"),
        ("n_available", "int"),
        ("request_tick", "int"),
        ("tod", "int"),
    ),
)
ASSIGNMENT = Schema(
    "assignment", (("ride_id", "int"), ("driver_id", "int"), ("matched", "bool"))
)
PICKUP_WAIT = Schema("pickup_wait", (("ride_id", "int"), ("wait_time", "float")))
WAIT_ESTIMATE = Schema(
    "wait_estimate", (("ride_id", "int"), ("estimated_wait", "float"))
)


# ----------------------------------------------------------------------
# Shared decision logic (identical in both paradigms)
# ----------------------------------------------------------------------


def euclid(x1: float, y1: float, x2: float, y2: float) -> float:
    return math.sqrt((x1 - x2) ** 2 + (y1 - y2) ** 2)


def allocate_ride(ride_id, rider_x, rider_y, request_tick, available) -> dict:
    """Pick the closest free driver; ties go to the lowest driver id.

    `available` is an iterable of (driver_id, x, y) in any order, read once
    (distance as in `euclid`); every order picks the same driver. Returns
    the allocation context; driver_id -1: nobody free.
    """
    n_available = 0
    best_d, best_id = 0.0, -1
    for driver_id, x, y in available:
        d = math.sqrt((rider_x - x) ** 2 + (rider_y - y) ** 2)
        n_available += 1
        if n_available == 1 or d < best_d or (d == best_d and driver_id < best_id):
            best_d, best_id = d, driver_id
    return {
        "ride_id": ride_id,
        "driver_id": best_id,
        "matched": n_available > 0,
        "distance": best_d,
        "n_available": n_available,
        "request_tick": request_tick,
        "tod": request_tick % 24,
    }


def feature_vector(doc) -> tuple[float, ...]:
    return tuple(float(doc[f]) for f in FEATURE_FIELDS)


def assignment(alloc) -> dict:
    """The rider-facing part of an allocation."""
    return {"ride_id": alloc["ride_id"], "driver_id": alloc["driver_id"], "matched": alloc["matched"]}


def pickup_wait(ride_id, pickup_time, request_tick) -> dict:
    """A realized wait: pickup time less the tick the ride was requested."""
    return {"ride_id": ride_id, "wait_time": pickup_time - request_tick}


def wait_estimate(model: LinearModel, alloc) -> dict:
    """`model`'s wait prediction for one allocation."""
    return {"ride_id": alloc["ride_id"], "estimated_wait": predict_linear(model, feature_vector(alloc))}


COLLECTION = CollectionSpec(
    label=StreamSelect("pickup_waits", ("wait_time",), "ride_id"),
    features=(StreamSelect("allocations", FEATURE_FIELDS, "ride_id"),),
    dataset_name="wait_dataset",
)


def fit_model(rows) -> LinearModel:
    """Regress wait_time on the allocation features (sorted field order)."""
    return fit_linear([(feature_vector(r["features"]), float(r["label"]["wait_time"])) for r in rows])


# ----------------------------------------------------------------------
# Dataflow build
# ----------------------------------------------------------------------


class _Fleet:
    """Allocator fold state: driver positions, busy drivers, ride -> driver."""

    def __init__(self):
        self.positions: dict[int, tuple[float, float]] = {}
        self.busy: set[int] = set()
        self.ride_driver: dict[int, int] = {}


def _allocator(inputs, fleet: _Fleet):
    """Serve the delta in world order: fleet updates, completions, requests.

    Every record of the delta was appended at the tick being stepped (see
    the `runtime` module docstring), so world order is port order: fleet
    updates land first, then completions free their drivers, then requests
    are served in arrival order. Matches the call order the service build
    sees. `allocate_ride` breaks ties itself, so the fleet is read unsorted.
    """
    for rec in inputs["drivers"]:
        fleet.positions[rec["driver_id"]] = (rec["x"], rec["y"])
    for rec in inputs["completions"]:
        driver = fleet.ride_driver.pop(rec["ride_id"], None)
        if driver is not None:
            fleet.busy.discard(driver)
    out = []
    for rec in inputs["requests"]:
        available = [
            (driver_id, xy[0], xy[1])
            for driver_id, xy in fleet.positions.items()
            if driver_id not in fleet.busy
        ]
        alloc = allocate_ride(rec["ride_id"], rec["rider_x"], rec["rider_y"], rec.tick, available)
        if alloc["matched"]:
            fleet.busy.add(alloc["driver_id"])
            fleet.ride_driver[alloc["ride_id"]] = alloc["driver_id"]
        out.append(alloc)
    return {"allocations": out}


def _publisher(inputs):
    return {"assignments": [assignment(r) for r in inputs["allocations"]]}


def _tracker(inputs, by_ride: dict):
    """Fold over allocations (ride_id -> latest allocation) joined with pickups."""
    for alloc in inputs["allocations"]:
        by_ride[alloc["ride_id"]] = alloc
    out = []
    for pickup in inputs["pickups"]:
        alloc = by_ride.get(pickup["ride_id"])
        if alloc is None or not alloc["matched"]:
            continue
        out.append(pickup_wait(pickup["ride_id"], pickup["pickup_time"], alloc["request_tick"]))
    return {"waits": out}


def _estimator(model: LinearModel):
    def transform(inputs):
        return {"estimates": [wait_estimate(model, a) for a in inputs["allocations"] if a["matched"]]}

    return transform


def build_fbp(stage: str, scenario: Scenario, model: LinearModel | None = None) -> FbpBuild:
    """The dataflow build; the ml stage estimates waits with `model` (None:
    a build whose estimator refuses to run)."""
    b = GraphBuilder()
    b.stream("ride_requests", RIDE_REQUEST)
    b.stream("driver_events", DRIVER_EVENT)
    b.stream("ride_completions", RIDE_COMPLETION)
    b.stream("raw_pickups", RAW_PICKUP)
    b.stream("allocations", ALLOCATION)
    b.stream("assignments", ASSIGNMENT)
    b.stream("pickup_waits", PICKUP_WAIT)
    b.fold(
        "allocator",
        _Fleet,
        _allocator,
        inputs={"requests": "ride_requests", "drivers": "driver_events", "completions": "ride_completions"},
        outputs={"allocations": "allocations"},
    )
    b.node(
        "assignment_publisher",
        _publisher,
        inputs={"allocations": "allocations"},
        outputs={"assignments": "assignments"},
    )
    b.fold(
        "pickup_tracker",
        dict,
        _tracker,
        inputs={"allocations": "allocations", "pickups": "raw_pickups"},
        outputs={"waits": "pickup_waits"},
    )

    if stage == "ml":
        b.stream("wait_estimates", WAIT_ESTIMATE)
        b.node(
            "wait_estimator",
            _estimator(model) if model is not None else untrained("ride_allocation", "fbp"),
            inputs={"allocations": "allocations"},
            outputs={"estimates": "wait_estimates"},
        )

    obs_kinds = {"assignments": "assignment", "pickup_waits": "pickup_wait"}
    if stage == "ml":
        obs_kinds["wait_estimates"] = "wait_estimate"
    return FbpBuild(b.build(), obs_kinds, COLLECTION if stage in ("data", "ml") else None)


# ----------------------------------------------------------------------
# Service build
# ----------------------------------------------------------------------


def _drivers_service() -> ServiceSpec:
    def register(req, ctx):
        ctx.routine("put_driver", {"driver_id": req["driver_id"], "x": req["x"], "y": req["y"], "available": True})
        return {"driver_id": req["driver_id"]}

    def set_availability(available: bool):
        def handler(req, ctx):
            doc = dict(ctx.routine("get_drivers")[str(req["driver_id"])])
            doc["available"] = available
            ctx.routine("put_driver", doc)
            return {"driver_id": req["driver_id"]}

        return handler

    def list_available(req, ctx):
        drivers = ctx.routine("get_drivers")
        free = [[doc["driver_id"], doc["x"], doc["y"]] for doc in drivers.values() if doc["available"]]
        return {"drivers": free}

    return ServiceSpec(
        "drivers",
        apis=(
            ApiSpec("register", register, DRIVER_EVENT.field_names, ("driver_id",)),
            ApiSpec("set_busy", set_availability(False), ("driver_id",), ("driver_id",)),
            ApiSpec("set_available", set_availability(True), ("driver_id",), ("driver_id",)),
            ApiSpec("list_available", list_available, (), ("drivers",)),
        ),
        routines=(
            RoutineSpec("put_driver", lambda ctx, doc: ctx.store_put("fleet", str(doc["driver_id"]), doc)),
            RoutineSpec("get_drivers", lambda ctx: ctx.store_table("fleet")),
        ),
    )


def _allocator_service(stage: str, trained: bool) -> ServiceSpec:
    store_allocations = stage in ("data", "ml")

    def allocate(req, ctx):
        free = ctx.call("drivers", "list_available", {})["drivers"]
        alloc = allocate_ride(req["ride_id"], req["rider_x"], req["rider_y"], req["request_tick"], free)
        if alloc["matched"]:
            ctx.call("drivers", "set_busy", {"driver_id": alloc["driver_id"]})
        if store_allocations:
            ctx.routine("save_allocation", dict(alloc))
        return alloc

    apis = [
        ApiSpec(
            "allocate",
            allocate,
            (*RIDE_REQUEST.field_names, "request_tick"),
            ALLOCATION.field_names,
            logic_version="v2" if store_allocations else "v1",
        )
    ]
    routines = []
    if store_allocations:
        def list_allocations(req, ctx):
            return {"allocations": [dict(a) for a in ctx.routine("get_allocations").values()]}

        apis.append(ApiSpec("list_allocations", list_allocations, (), ("allocations",)))
        routines.extend(
            (
                RoutineSpec("save_allocation", lambda ctx, doc: ctx.store_put("allocations", str(doc["ride_id"]), doc)),
                RoutineSpec("get_allocations", lambda ctx: ctx.store_table("allocations")),
            )
        )
    if stage == "ml":
        def estimate_wait(req, ctx):
            alloc = ctx.routine("get_allocations").get(str(req["ride_id"]))
            return wait_estimate(ctx.routine("get_model"), alloc)

        handler = estimate_wait if trained else untrained("ride_allocation", "soa")
        apis.append(ApiSpec("estimate_wait", handler, ("ride_id",), WAIT_ESTIMATE.field_names))
        routines.extend(
            (
                RoutineSpec("put_model", lambda ctx, model: ctx.store_put("models", "wait", model)),
                RoutineSpec("get_model", lambda ctx: ctx.store_get("models", "wait")),
            )
        )
    return ServiceSpec("allocator", apis=tuple(apis), routines=tuple(routines))


def _rides_service(stage: str) -> ServiceSpec:
    def request_ride(req, ctx):
        ride = {
            "ride_id": req["ride_id"],
            "rider_x": req["rider_x"],
            "rider_y": req["rider_y"],
            "request_tick": ctx.tick,
        }
        ctx.routine("save_ride", ride)
        return assignment(ctx.call("allocator", "allocate", dict(ride)))

    def record_pickup(req, ctx):
        ride = ctx.routine("get_ride", req["ride_id"])
        row = pickup_wait(req["ride_id"], req["pickup_time"], ride["request_tick"])
        ctx.routine("save_pickup", dict(row))
        return row

    def record_completion(req, ctx):
        ctx.call("drivers", "set_available", {"driver_id": req["driver_id"]})
        return {"ride_id": req["ride_id"]}

    apis = [
        ApiSpec("request_ride", request_ride, RIDE_REQUEST.field_names, ASSIGNMENT.field_names),
        ApiSpec("record_pickup", record_pickup, RAW_PICKUP.field_names, PICKUP_WAIT.field_names),
        ApiSpec("record_completion", record_completion, ("ride_id", "driver_id"), ("ride_id",)),
    ]
    routines = [
        RoutineSpec("save_ride", lambda ctx, doc: ctx.store_put("rides", str(doc["ride_id"]), doc)),
        RoutineSpec("get_ride", lambda ctx, ride_id: ctx.store_get("rides", str(ride_id))),
        RoutineSpec("save_pickup", lambda ctx, doc: ctx.store_put("pickups", str(doc["ride_id"]), doc)),
    ]
    if stage in ("data", "ml"):
        def export_dataset(req, ctx):
            allocations = ctx.call("allocator", "list_allocations", {})["allocations"]
            return {"rows": join(COLLECTION, ctx.routine("get_pickups").values(), [allocations])}

        apis.append(ApiSpec("export_dataset", export_dataset, (), ("rows",)))
        routines.append(RoutineSpec("get_pickups", lambda ctx: ctx.store_table("pickups")))
    return ServiceSpec("rides", apis=tuple(apis), routines=tuple(routines))


def build_soa(stage: str, scenario: Scenario, model: LinearModel | None = None) -> SoaBuild:
    """The service build; the ml stage seeds `model` into the allocator
    store (None: a build whose `estimate_wait` refuses to run)."""
    registry = ServiceRegistry()
    registry.register(_drivers_service())
    registry.register(_allocator_service(stage, model is not None))
    registry.register(_rides_service(stage))
    if model is not None:
        registry.context_for("allocator").routine("put_model", model)

    routes = {
        "driver_event": ApiRoute("drivers", "register"),
        "ride_completion": ApiRoute("rides", "record_completion"),
        "raw_pickup": ApiRoute("rides", "record_pickup", obs_kind="pickup_wait"),
        "ride_request": ApiRoute("rides", "request_ride", obs_kind="assignment"),
    }
    if stage == "ml":
        routes["estimate_poll"] = ApiRoute("allocator", "estimate_wait", obs_kind="wait_estimate")

    return SoaBuild(registry, routes)


# ----------------------------------------------------------------------
# World
# ----------------------------------------------------------------------


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


class RideWorld(World):
    """Fleet registration at tick 0, Poisson request arrivals, and
    reactive pickups/completions derived from observed assignments."""

    observes = ("assignment",)

    def __init__(self, scenario: Scenario):
        super().__init__(scenario)
        p = scenario.params
        self.n_drivers = checked_count("n_drivers", p["n_drivers"], 0)
        self.request_rate = checked_rate("request_rate", p["request_rate"])
        self.noise = checked_scale("noise", p["noise"])
        self.world_size = checked_scale("world_size", p["world_size"])
        self.driver_pos: dict[int, tuple[float, float]] = {}
        self.rider_pos: dict[int, tuple[float, float, int]] = {}
        self.pending: dict[int, list[Event]] = {}
        self.next_ride_id = 0

    def generate_events(self, tick: int) -> list[Event]:
        events: list[Event] = []
        if tick == 0:
            for driver_id in range(self.n_drivers):
                x = self.rng.uniform(0.0, self.world_size)
                y = self.rng.uniform(0.0, self.world_size)
                self.driver_pos[driver_id] = (x, y)
                events.append(Event("driver_event", {"driver_id": driver_id, "x": x, "y": y}))
        events.extend(self.pending.pop(tick, []))
        for _ in range(self.rng.poisson(self.request_rate)):
            ride_id = self.next_ride_id
            self.next_ride_id += 1
            x = self.rng.uniform(0.0, self.world_size)
            y = self.rng.uniform(0.0, self.world_size)
            self.rider_pos[ride_id] = (x, y, tick)
            events.append(Event("ride_request", {"ride_id": ride_id, "rider_x": x, "rider_y": y}))
        return events

    def observe(self, tick: int, observations: list[tuple[str, dict]]) -> None:
        for kind, data in observations:
            if kind != "assignment":
                continue
            ride_id = data["ride_id"]
            rx, ry, request_tick = self.rider_pos.pop(ride_id)  # one assignment per request
            if not data["matched"]:
                continue
            driver_id = data["driver_id"]
            dx, dy = self.driver_pos[driver_id]
            distance = euclid(rx, ry, dx, dy)
            wait = 2.0 * distance + 1.0 + self.noise * self.rng.uniform(-1.0, 1.0)
            pickup_tick = tick + max(1, _round_half_up(wait))
            self.pending.setdefault(pickup_tick, []).append(
                Event("raw_pickup", {"ride_id": ride_id, "pickup_time": request_tick + wait})
            )
            completion_tick = pickup_tick + 1 + _round_half_up(distance)
            self.pending.setdefault(completion_tick, []).append(
                Event("ride_completion", {"ride_id": ride_id, "driver_id": driver_id})
            )
            self.pending.setdefault(tick + 1, []).append(Event("estimate_poll", {"ride_id": ride_id}))
