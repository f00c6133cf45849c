"""Ride allocation: match ride requests to the nearest available driver.

The world registers a driver fleet at tick 0, then emits ride requests,
pickup reports, and completion reports. The app assigns each request to
the closest free driver (ties to the lowest driver id), keeps that driver
busy until the ride completes, and tracks realized pickup waits.

Data stage: the realized waits become labels, the allocation context
(distance, free-driver count, time of day) the features; the pairing is
declared as a dataset output stream and assembled by the collection
tooling. Model stage: a regression over that dataset (`fit_model`) estimates
the pickup wait for every new allocation.
"""

from __future__ import annotations

import math
from operator import itemgetter

from ..collection import CollectionSpec, StreamSelect, join
from ..graph import Category, GraphBuilder, Schema
from ..mlkit import LinearModel, predict_linear, fit_linear
from ..rng import SplitMix64, checked_rate, derive_seed
from ..services import ApiSpec, RoutineSpec, ServiceRegistry, ServiceSpec
from ..sim import Event, Scenario, World
from .base import ApiRoute, FbpBuild, SoaBuild, StreamRoute, checked_count, checked_scale, untrained

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
WAIT_DATASET = Schema(
    "wait_dataset",
    (
        ("ride_id", "int"),
        ("distance", "float"),
        ("n_available", "int"),
        ("tod", "int"),
        ("wait_time", "float"),
    ),
)


# ----------------------------------------------------------------------
# Shared decision logic (identical in both paradigms)
# ----------------------------------------------------------------------


def euclid(x1: float, y1: float, x2: float, y2: float) -> float:
    return math.sqrt((x1 - x2) ** 2 + (y1 - y2) ** 2)


def allocate_ride(ride_id, rider_x, rider_y, request_tick, available) -> dict:
    """Pick the closest free driver; ties go to the lowest driver id.

    `available` is an iterable of (driver_id, x, y), read once (distance as
    in `euclid`). Returns the allocation context; driver_id -1: nobody free.
    """
    n_available = 0
    for driver_id, x, y in available:
        d = math.sqrt((rider_x - x) ** 2 + (rider_y - y) ** 2)
        n_available += 1
        if n_available == 1 or d < best_d or (d == best_d and driver_id < best_id):
            best_d, best_id = d, driver_id
    if not n_available:
        return {
            "ride_id": ride_id,
            "driver_id": -1,
            "matched": False,
            "distance": 0.0,
            "n_available": 0,
            "request_tick": request_tick,
            "tod": request_tick % 24,
        }
    return {
        "ride_id": ride_id,
        "driver_id": best_id,
        "matched": True,
        "distance": best_d,
        "n_available": n_available,
        "request_tick": request_tick,
        "tod": request_tick % 24,
    }


def feature_vector(doc) -> tuple[float, ...]:
    return tuple(float(doc[f]) for f in FEATURE_FIELDS)


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


_FLEET_UPDATE, _COMPLETION, _REQUEST = range(3)


def _allocator(inputs, fleet: _Fleet):
    """Serve the delta in world order: fleet updates, completions, requests.

    Within a tick, fleet updates land first, then completions free their
    drivers, then requests are served in arrival order. Matches the call
    order the service build sees.
    """
    delta = [(rec.tick, _FLEET_UPDATE, rec.seq, rec) for rec in inputs["drivers"].new]
    delta += [(rec.tick, _COMPLETION, rec.seq, rec) for rec in inputs["completions"].new]
    delta += [(rec.tick, _REQUEST, rec.seq, rec) for rec in inputs["requests"].new]
    delta.sort(key=itemgetter(0, 1, 2))
    out = []
    for tick, kind, _, rec in delta:
        if kind == _FLEET_UPDATE:
            fleet.positions[rec["driver_id"]] = (rec["x"], rec["y"])
        elif kind == _COMPLETION:
            driver = fleet.ride_driver.pop(rec["ride_id"], None)
            if driver is not None:
                fleet.busy.discard(driver)
        else:
            available = [
                (driver_id, xy[0], xy[1])
                for driver_id, xy in sorted(fleet.positions.items())
                if driver_id not in fleet.busy
            ]
            alloc = allocate_ride(rec["ride_id"], rec["rider_x"], rec["rider_y"], tick, available)
            if alloc["matched"]:
                fleet.busy.add(alloc["driver_id"])
                fleet.ride_driver[alloc["ride_id"]] = alloc["driver_id"]
            out.append(alloc)
    return {"allocations": out}


def _publisher(inputs):
    return {
        "assignments": [
            {"ride_id": r["ride_id"], "driver_id": r["driver_id"], "matched": r["matched"]}
            for r in inputs["allocations"].new
        ]
    }


def _tracker(inputs, by_ride: dict):
    """Fold over allocations (ride_id -> latest allocation) joined with pickups."""
    for alloc in inputs["allocations"].new:
        by_ride[alloc["ride_id"]] = alloc
    out = []
    for pickup in inputs["pickups"].new:
        alloc = by_ride.get(pickup["ride_id"])
        if alloc is None or not alloc["matched"]:
            continue
        out.append(
            {
                "ride_id": pickup["ride_id"],
                "wait_time": pickup["pickup_time"] - alloc["request_tick"],
            }
        )
    return {"waits": out}


def _estimator(model: LinearModel):
    def transform(inputs):
        out = []
        for alloc in inputs["allocations"].new:
            if not alloc["matched"]:
                continue
            out.append(
                {
                    "ride_id": alloc["ride_id"],
                    "estimated_wait": predict_linear(model, feature_vector(alloc)),
                }
            )
        return {"estimates": out}

    return transform


def build_fbp(stage: str, scenario: Scenario, model: LinearModel | None = None) -> FbpBuild:
    """The dataflow build; the ml stage estimates waits with `model` (None:
    a structure-only build whose estimator refuses to run)."""
    b = GraphBuilder()
    b.stream("ride_requests", Category.INPUT, RIDE_REQUEST)
    b.stream("driver_events", Category.INPUT, DRIVER_EVENT)
    b.stream("ride_completions", Category.INPUT, RIDE_COMPLETION)
    b.stream("raw_pickups", Category.INPUT, RAW_PICKUP)
    b.stream("allocations", Category.INTERNAL, ALLOCATION)
    b.stream("assignments", Category.OUTPUT, ASSIGNMENT)
    b.stream("pickup_waits", Category.OUTPUT, PICKUP_WAIT)
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

    collection = None
    if stage in ("data", "ml"):
        b.stream("wait_dataset", Category.OUTPUT, WAIT_DATASET)
        collection = COLLECTION
    if stage == "ml":
        b.stream("wait_estimates", Category.OUTPUT, WAIT_ESTIMATE)
        b.node(
            "wait_estimator",
            _estimator(model) if model is not None else untrained("ride_allocation", "fbp"),
            inputs={"allocations": "allocations"},
            outputs={"estimates": "wait_estimates"},
        )

    obs_kinds = {"assignments": "assignment", "pickup_waits": "pickup_wait"}
    if stage == "ml":
        obs_kinds["wait_estimates"] = "wait_estimate"
    routes = {
        "driver_event": StreamRoute("driver_events"),
        "ride_completion": StreamRoute("ride_completions"),
        "raw_pickup": StreamRoute("raw_pickups"),
        "ride_request": StreamRoute("ride_requests"),
    }
    return FbpBuild(b.build(), routes, obs_kinds, collection)


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
        free = [
            [doc["driver_id"], doc["x"], doc["y"]]
            for doc in sorted(drivers.values(), key=itemgetter("driver_id"))
            if doc["available"]
        ]
        return {"drivers": free}

    return ServiceSpec(
        "drivers",
        apis=(
            ApiSpec("register", register, ("driver_id", "x", "y"), ("driver_id",)),
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
            ("ride_id", "rider_x", "rider_y", "request_tick"),
            ("ride_id", "driver_id", "matched", "distance", "n_available", "request_tick", "tod"),
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
            return {
                "ride_id": req["ride_id"],
                "estimated_wait": predict_linear(ctx.routine("get_model"), feature_vector(alloc)),
            }

        handler = estimate_wait if trained else untrained("ride_allocation", "soa")
        apis.append(ApiSpec("estimate_wait", handler, ("ride_id",), ("ride_id", "estimated_wait")))
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
        alloc = ctx.call(
            "allocator",
            "allocate",
            {
                "ride_id": req["ride_id"],
                "rider_x": req["rider_x"],
                "rider_y": req["rider_y"],
                "request_tick": ctx.tick,
            },
        )
        return {
            "ride_id": alloc["ride_id"],
            "driver_id": alloc["driver_id"],
            "matched": alloc["matched"],
        }

    def record_pickup(req, ctx):
        ride = ctx.routine("get_ride", req["ride_id"])
        wait = req["pickup_time"] - ride["request_tick"]
        ctx.routine("save_pickup", {"ride_id": req["ride_id"], "wait_time": wait})
        return {"ride_id": req["ride_id"], "wait_time": wait}

    def record_completion(req, ctx):
        ctx.call("drivers", "set_available", {"driver_id": req["driver_id"]})
        return {"ride_id": req["ride_id"]}

    apis = [
        ApiSpec("request_ride", request_ride, ("ride_id", "rider_x", "rider_y"), ("ride_id", "driver_id", "matched")),
        ApiSpec("record_pickup", record_pickup, ("ride_id", "pickup_time"), ("ride_id", "wait_time")),
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
    store (None: a structure-only build whose `estimate_wait` refuses to run)."""
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

    return SoaBuild(registry, routes, dataset_service="rides" if stage in ("data", "ml") else None)


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
        self.rng = SplitMix64(derive_seed(scenario.seed, "world", "ride_allocation"))
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
                events.append(Event(tick, "driver_event", {"driver_id": driver_id, "x": x, "y": y}))
        events.extend(self.pending.pop(tick, []))
        for _ in range(self.rng.poisson(self.request_rate)):
            ride_id = self.next_ride_id
            self.next_ride_id += 1
            x = self.rng.uniform(0.0, self.world_size)
            y = self.rng.uniform(0.0, self.world_size)
            self.rider_pos[ride_id] = (x, y, tick)
            events.append(
                Event(tick, "ride_request", {"ride_id": ride_id, "rider_x": x, "rider_y": y})
            )
        return events

    def observe(self, tick: int, docs: list[dict]) -> None:
        for doc in docs:
            if doc["kind"] != "assignment" or not doc["data"]["matched"]:
                continue
            ride_id = doc["data"]["ride_id"]
            driver_id = doc["data"]["driver_id"]
            rx, ry, request_tick = self.rider_pos[ride_id]
            dx, dy = self.driver_pos[driver_id]
            distance = euclid(rx, ry, dx, dy)
            wait = 2.0 * distance + 1.0 + self.noise * self.rng.uniform(-1.0, 1.0)
            pickup_tick = tick + max(1, _round_half_up(wait))
            self.pending.setdefault(pickup_tick, []).append(
                Event(
                    pickup_tick,
                    "raw_pickup",
                    {"ride_id": ride_id, "pickup_time": request_tick + wait},
                )
            )
            completion_tick = pickup_tick + 1 + _round_half_up(distance)
            self.pending.setdefault(completion_tick, []).append(
                Event(
                    completion_tick,
                    "ride_completion",
                    {"ride_id": ride_id, "driver_id": driver_id},
                )
            )
            self.pending.setdefault(tick + 1, []).append(
                Event(tick + 1, "estimate_poll", {"ride_id": ride_id})
            )
