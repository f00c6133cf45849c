"""Playlist builder: random genre playlists, later filtered by earnings.

Requests name a genre and a size; the builder samples that many distinct
titles from the genre's catalog. Sampling is seeded per request id so
both paradigms draw identical playlists. The data stage maintains rolling
0.75-quantiles of gross earnings per genre online (no raw dataset, no
trained model); the model stage wires the builder to those quantiles and
restricts sampling to titles grossing at least the threshold. Both
paradigms keep each genre's grosses sorted as movies arrive, so a
quantile is one `nearest_rank` index; the fbp nodes are folds.
"""

from __future__ import annotations

from bisect import insort
from itertools import compress, repeat
from operator import itemgetter, le

from ..graph import GraphBuilder, Schema
from ..mlkit import nearest_rank
from ..rng import SplitMix64, checked_rate, derive_seed
from ..services import ApiSpec, RoutineSpec, ServiceRegistry, ServiceSpec
from .base import ApiRoute, Event, FbpBuild, Scenario, SoaBuild, World

DEFAULT_PARAMS = {
    "genres": ("action", "comedy", "drama"),
    "movie_rate": 1.0,
    "request_rate": 0.7,
}

GROSS_QUANTILE = 0.75

MOVIE = Schema("movie", (("title", "text"), ("genre", "text"), ("gross", "float")))
PLAYLIST_REQUEST = Schema(
    "playlist_request", (("request_id", "int"), ("genre", "text"), ("k", "int"))
)
PLAYLIST = Schema(
    "playlist", (("request_id", "int"), ("genre", "text"), ("titles", "text"))
)
GENRE_QUANTILE = Schema("genre_quantile", (("genre", "text"), ("q75", "float")))


# ----------------------------------------------------------------------
# Shared decision logic
# ----------------------------------------------------------------------


def request_rng(master_seed: int, request_id: int) -> SplitMix64:
    return SplitMix64(derive_seed(master_seed, "playlist", request_id))


def sample_playlist(catalog, k, rng, min_gross=None) -> list[str]:
    """Uniform sample without replacement from one genre's (title, gross)
    catalog in arrival order, optionally restricted to titles grossing at
    least `min_gross`; the pool is built at C level."""
    titles = map(itemgetter(0), catalog)
    if min_gross is not None:
        titles = compress(titles, map(le, repeat(min_gross), map(itemgetter(1), catalog)))
    return rng.sample(titles, k)


def playlist(request_id, genre, titles) -> dict:
    """A built playlist: its titles in draw order, `|`-joined."""
    return {"request_id": request_id, "genre": genre, "titles": "|".join(titles)}


# ----------------------------------------------------------------------
# Dataflow build
# ----------------------------------------------------------------------


def _builder(master_seed: int):
    """Sample each request's playlist; when a `quantiles` in-port is wired,
    only from titles grossing at least the genre's latest threshold. A
    fold over genre -> catalog and genre -> latest threshold."""

    def transform(inputs, state):
        catalogs, thresholds = state
        for r in inputs["movies"]:
            catalogs.setdefault(r["genre"], []).append((r["title"], r["gross"]))
        if "quantiles" in inputs:
            for rec in inputs["quantiles"]:
                thresholds[rec["genre"]] = rec["q75"]
        out = []
        for req in inputs["requests"]:
            rng = request_rng(master_seed, req["request_id"])
            titles = sample_playlist(
                catalogs.get(req["genre"], ()), req["k"], rng, thresholds.get(req["genre"])
            )
            out.append(playlist(req["request_id"], req["genre"], titles))
        return {"playlists": out}

    return transform


def _stats_node(inputs, grosses: dict):
    """Fold: genre -> ascending grosses."""
    for rec in inputs["movies"]:
        insort(grosses.setdefault(rec["genre"], []), rec["gross"])
    touched = sorted({rec["genre"] for rec in inputs["movies"]})
    return {
        "quantiles": [
            {"genre": genre, "q75": nearest_rank(grosses[genre], GROSS_QUANTILE)} for genre in touched
        ]
    }


def _stats_publisher(inputs):
    return {"published": [r.as_dict() for r in inputs["quantiles"]]}


def build_fbp(stage: str, scenario: Scenario) -> FbpBuild:
    b = GraphBuilder()
    b.stream("movies", MOVIE)
    b.stream("playlist_requests", PLAYLIST_REQUEST)
    b.stream("playlists", PLAYLIST)

    obs_kinds = {"playlists": "playlist"}
    if stage in ("data", "ml"):
        b.stream("genre_quantiles", GENRE_QUANTILE)
        b.stream("genre_stats", GENRE_QUANTILE)
        b.fold(
            "quantile_tracker",
            dict,
            _stats_node,
            inputs={"movies": "movies"},
            outputs={"quantiles": "genre_quantiles"},
        )
        b.node(
            "stats_publisher",
            _stats_publisher,
            inputs={"quantiles": "genre_quantiles"},
            outputs={"published": "genre_stats"},
        )
        obs_kinds["genre_stats"] = "genre_stats"

    inputs = {"movies": "movies", "requests": "playlist_requests"}
    if stage == "ml":
        inputs["quantiles"] = "genre_quantiles"
    b.fold(
        "builder",
        lambda: ({}, {}),
        _builder(scenario.seed),
        inputs=inputs,
        outputs={"playlists": "playlists"},
        logic_version="v2" if stage == "ml" else "v1",
    )

    return FbpBuild(b.build(), obs_kinds)


# ----------------------------------------------------------------------
# Service build
# ----------------------------------------------------------------------


def _catalog_service(stage: str) -> ServiceSpec:
    track_stats = stage in ("data", "ml")

    def add_movie(req, ctx):
        movies = ctx.routine("get_movies")
        ctx.routine("save_movie", str(len(movies)), dict(req))
        if track_stats:
            stats = ctx.routine("get_genre_stats", req["genre"]) or {"genre": req["genre"], "grosses": []}
            insort(stats["grosses"], float(req["gross"]))
            stats.update(n_movies=len(stats["grosses"]), q75=nearest_rank(stats["grosses"], GROSS_QUANTILE))
            ctx.routine("put_genre_stats", req["genre"], stats)
        return {"title": req["title"]}

    def list_by_genre(req, ctx):
        movies = [
            [doc["title"], doc["genre"], doc["gross"]]
            for doc in ctx.routine("get_movies").values()
            if doc["genre"] == req["genre"]
        ]
        return {"movies": movies}

    apis = [
        ApiSpec(
            "add_movie",
            add_movie,
            MOVIE.field_names,
            ("title",),
            logic_version="v2" if track_stats else "v1",
        ),
        ApiSpec("list_by_genre", list_by_genre, ("genre",), ("movies",)),
    ]
    routines = [
        RoutineSpec("save_movie", lambda ctx, key, doc: ctx.store_put("movies", key, doc)),
        RoutineSpec("get_movies", lambda ctx: ctx.store_table("movies")),
    ]
    if track_stats:
        def genre_stats(req, ctx):
            stats = ctx.routine("get_genre_stats", req["genre"])
            return {
                "genre": req["genre"],
                "n_movies": 0 if stats is None else stats["n_movies"],
                "q75": 0.0 if stats is None else stats["q75"],
            }

        apis.append(ApiSpec("genre_stats", genre_stats, ("genre",), ("genre", "n_movies", "q75")))
        routines.extend(
            (
                RoutineSpec("put_genre_stats", lambda ctx, genre, doc: ctx.store_put("stats", genre, doc)),
                RoutineSpec("get_genre_stats", lambda ctx, genre: ctx.store_get("stats", genre)),
            )
        )
    if stage == "ml":
        apis.append(ApiSpec("genre_quantile", genre_stats, ("genre",), ("genre", "n_movies", "q75")))
    return ServiceSpec("catalog", apis=tuple(apis), routines=tuple(routines))


def _builder_service(stage: str, scenario: Scenario) -> ServiceSpec:
    seed = scenario.seed
    filtered = stage == "ml"

    def build_playlist(req, ctx):
        movies = ctx.call("catalog", "list_by_genre", {"genre": req["genre"]})["movies"]
        min_gross = None
        if filtered:
            stats = ctx.call("catalog", "genre_quantile", {"genre": req["genre"]})
            if stats["n_movies"] > 0:
                min_gross = stats["q75"]
        rng = request_rng(seed, req["request_id"])
        titles = sample_playlist([(title, gross) for title, _, gross in movies], req["k"], rng, min_gross)
        return playlist(req["request_id"], req["genre"], titles)

    return ServiceSpec(
        "builder",
        apis=(
            ApiSpec(
                "build_playlist",
                build_playlist,
                PLAYLIST_REQUEST.field_names,
                PLAYLIST.field_names,
                logic_version="v2" if filtered else "v1",
            ),
        ),
    )


def build_soa(stage: str, scenario: Scenario) -> SoaBuild:
    registry = ServiceRegistry()
    registry.register(_catalog_service(stage))
    registry.register(_builder_service(stage, scenario))

    routes = {
        "movie": ApiRoute("catalog", "add_movie"),
        "playlist_request": ApiRoute("builder", "build_playlist", obs_kind="playlist"),
    }
    if stage in ("data", "ml"):
        routes["stats_poll"] = ApiRoute(
            "catalog", "genre_stats", obs_kind="genre_stats", observe_when="n_movies"
        )
    return SoaBuild(registry, routes)


# ----------------------------------------------------------------------
# World
# ----------------------------------------------------------------------


class PlaylistWorld(World):
    """Movie arrivals with uniform gross earnings, playlist requests, and
    a per-genre stats poll every tick."""

    def __init__(self, scenario: Scenario):
        super().__init__(scenario)
        p = scenario.params
        genres = p["genres"]
        if not isinstance(genres, (list, tuple)) or not genres or not all(isinstance(g, str) and g for g in genres):
            raise ValueError(f"genres must be a non-empty list or tuple of non-empty str, got {genres!r}")
        self.genres = tuple(genres)
        self.movie_rate = checked_rate("movie_rate", p["movie_rate"])
        self.request_rate = checked_rate("request_rate", p["request_rate"])
        self.next_movie = 0
        self.next_request = 0

    def generate_events(self, tick: int) -> list[Event]:
        events = []
        for _ in range(self.rng.poisson(self.movie_rate)):
            title = f"m{self.next_movie}"
            self.next_movie += 1
            genre = self.genres[self.rng.randrange(len(self.genres))]
            gross = self.rng.uniform(1.0, 100.0)
            events.append(Event("movie", {"title": title, "genre": genre, "gross": gross}))
        for _ in range(self.rng.poisson(self.request_rate)):
            events.append(
                Event(
                    "playlist_request",
                    {
                        "request_id": self.next_request,
                        "genre": self.genres[self.rng.randrange(len(self.genres))],
                        "k": 1 + self.rng.randrange(4),
                    },
                )
            )
            self.next_request += 1
        for genre in self.genres:
            events.append(Event("stats_poll", {"genre": genre}))
        return events
