"""Micro-blogging: follower graph, posts, and per-user timelines.

A timeline request returns the 50 most recent posts authored by people
the requester followed at the time of posting, newest first. The data
stage materializes per-user interest corpora online (every new post fans
out to its author's current followers) and publishes them as a data
product; no offline file is written. The model stage adds a bot that
refits a bigram chain over the tracked user's corpus whenever it grows
and emits one generated post.
"""

from __future__ import annotations

from ..graph import Category, GraphBuilder, Schema
from ..mlkit import fit_bigram, generate
from ..rng import SplitMix64, checked_rate, derive_seed
from ..services import ApiSpec, RoutineSpec, ServiceRegistry, ServiceSpec
from ..sim import Event, Scenario, World
from .base import ApiRoute, FbpBuild, SoaBuild, StreamRoute, checked_count

DEFAULT_PARAMS = {
    "n_users": 8,
    "follow_rate": 0.8,
    "post_rate": 1.5,
    "request_rate": 0.8,
    "bot_user": "u0",
}

TIMELINE_LIMIT = 50
BOT_MAX_TOKENS = 12

VOCABULARY = (
    "amber", "breeze", "cobalt", "drift", "ember",
    "flux", "grove", "harbor", "iris", "jade",
)

FOLLOW = Schema("follow", (("follower", "text"), ("followee", "text")))
POST = Schema("post", (("post_id", "int"), ("author", "text"), ("text", "text")))
TIMELINE_REQUEST = Schema("timeline_request", (("user_id", "text"),))
TIMELINE = Schema("timeline", (("user_id", "text"), ("post_ids", "text")))
CORPUS_ROW = Schema("corpus_row", (("user_id", "text"), ("text", "text")))
BOT_POST = Schema("bot_post", (("user_id", "text"), ("text", "text")))


# ----------------------------------------------------------------------
# Shared decision logic
# ----------------------------------------------------------------------


def build_timeline(user_id, edges, posts, limit: int = TIMELINE_LIMIT) -> list[int]:
    """Posts by authors the user followed at the post's tick, newest first.

    `edges` are (follower, followee, tick) triples, `posts` are
    (post_id, author, tick) triples. Ordered by (tick, post_id)
    descending, truncated to `limit`. One pass over `edges` finds when the
    user first followed each followee; a post counts from that tick on.
    """
    followed_at: dict = {}
    for follower, followee, tick in edges:
        if follower == user_id:
            followed_at[followee] = min(tick, followed_at.get(followee, tick))
    selected = [
        (post_tick, post_id)
        for post_id, author, post_tick in posts
        if author in followed_at and followed_at[author] <= post_tick
    ]
    selected.sort(reverse=True)
    return [post_id for _, post_id in selected[:limit]]


def interested_users(author, edges, tick) -> list[str]:
    """Current followers of an author, sorted for deterministic fan-out."""
    return sorted(
        {follower for follower, followee, t in edges if followee == author and t <= tick}
    )


def bot_text(corpus_texts: list[str], master_seed: int) -> str:
    """Fit a bigram chain over the corpus and emit one generated post.

    The generator is seeded from (master seed, corpus size) so both
    paradigms produce the same text for the same corpus state.
    """
    model = fit_bigram([text.split() for text in corpus_texts])
    rng = SplitMix64(derive_seed(master_seed, "bot", len(corpus_texts)))
    return " ".join(generate(model, rng, BOT_MAX_TOKENS))


# ----------------------------------------------------------------------
# Dataflow build
# ----------------------------------------------------------------------


def _timeline_node(inputs):
    edges = [(r["follower"], r["followee"], r.tick) for r in inputs["follows"].history]
    posts = [(r["post_id"], r["author"], r.tick) for r in inputs["posts"].history]
    out = []
    for req in inputs["requests"].new:
        ids = build_timeline(req["user_id"], edges, posts)
        out.append({"user_id": req["user_id"], "post_ids": ",".join(str(i) for i in ids)})
    return {"timelines": out}


def _corpus_builder(inputs):
    edges = [(r["follower"], r["followee"], r.tick) for r in inputs["follows"].history]
    out = []
    for post in inputs["posts"].new:
        for user in interested_users(post["author"], edges, post.tick):
            out.append({"user_id": user, "text": post["text"]})
    return {"corpus": out}


def _corpus_publisher(inputs):
    return {"published": [r.as_dict() for r in inputs["corpus"].new]}


def _bot_node(target: str, master_seed: int):
    def transform(inputs):
        grew = any(r["user_id"] == target for r in inputs["corpus"].new)
        if not grew:
            return {"posts": []}
        corpus = [r["text"] for r in inputs["corpus"].history if r["user_id"] == target]
        text = bot_text(corpus, master_seed)
        if not text:
            return {"posts": []}
        return {"posts": [{"user_id": target, "text": text}]}

    return transform


def build_fbp(stage: str, scenario: Scenario) -> FbpBuild:
    b = GraphBuilder()
    b.stream("follows", Category.INPUT, FOLLOW)
    b.stream("posts", Category.INPUT, POST)
    b.stream("timeline_requests", Category.INPUT, TIMELINE_REQUEST)
    b.stream("timelines", Category.OUTPUT, TIMELINE)
    b.node(
        "timeline_builder",
        _timeline_node,
        inputs={"follows": "follows", "posts": "posts", "requests": "timeline_requests"},
        outputs={"timelines": "timelines"},
    )

    obs_kinds = {"timelines": "timeline"}
    if stage in ("data", "ml"):
        b.stream("user_corpora", Category.INTERNAL, CORPUS_ROW)
        b.stream("interest_corpora", Category.OUTPUT, CORPUS_ROW)
        b.node(
            "corpus_builder",
            _corpus_builder,
            inputs={"follows": "follows", "posts": "posts"},
            outputs={"corpus": "user_corpora"},
        )
        b.node(
            "corpus_publisher",
            _corpus_publisher,
            inputs={"corpus": "user_corpora"},
            outputs={"published": "interest_corpora"},
        )
        obs_kinds["interest_corpora"] = "corpus"
    if stage == "ml":
        b.stream("bot_posts", Category.OUTPUT, BOT_POST)
        b.node(
            "bot",
            _bot_node(scenario.params["bot_user"], scenario.seed),
            inputs={"corpus": "user_corpora"},
            outputs={"posts": "bot_posts"},
        )
        obs_kinds["bot_posts"] = "bot_post"

    routes = {
        "follow": StreamRoute("follows"),
        "post": StreamRoute("posts"),
        "timeline_request": StreamRoute("timeline_requests"),
    }
    return FbpBuild(b.build(), routes, obs_kinds)


# ----------------------------------------------------------------------
# Service build
# ----------------------------------------------------------------------


def _users_service() -> ServiceSpec:
    def follow(req, ctx):
        ctx.routine(
            "save_follow",
            {"follower": req["follower"], "followee": req["followee"], "tick": ctx.tick},
        )
        return {"follower": req["follower"], "followee": req["followee"]}

    def list_follows(req, ctx):
        edges = [
            [doc["follower"], doc["followee"], doc["tick"]]
            for doc in ctx.routine("get_follows").values()
        ]
        return {"edges": edges}

    return ServiceSpec(
        "users",
        apis=(
            ApiSpec("follow", follow, ("follower", "followee"), ("follower", "followee")),
            ApiSpec("list_follows", list_follows, (), ("edges",)),
        ),
        routines=(
            RoutineSpec(
                "save_follow",
                lambda ctx, doc: ctx.store_put("follows", f"{doc['follower']}->{doc['followee']}", doc),
            ),
            RoutineSpec("get_follows", lambda ctx: ctx.store_table("follows")),
        ),
    )


def _posts_service(stage: str) -> ServiceSpec:
    fan_out = stage in ("data", "ml")

    def create_post(req, ctx):
        ctx.routine(
            "save_post",
            {"post_id": req["post_id"], "author": req["author"], "text": req["text"], "tick": ctx.tick},
        )
        if fan_out:
            ctx.call("timeline", "record_interest", {"author": req["author"], "text": req["text"]})
        return {"post_id": req["post_id"]}

    def list_posts(req, ctx):
        posts = [
            [doc["post_id"], doc["author"], doc["text"], doc["tick"]]
            for doc in ctx.routine("get_posts").values()
        ]
        return {"posts": posts}

    return ServiceSpec(
        "posts",
        apis=(
            ApiSpec(
                "create_post",
                create_post,
                ("post_id", "author", "text"),
                ("post_id",),
                logic_version="v2" if fan_out else "v1",
            ),
            ApiSpec("list_posts", list_posts, (), ("posts",)),
        ),
        routines=(
            RoutineSpec("save_post", lambda ctx, doc: ctx.store_put("posts", str(doc["post_id"]), doc)),
            RoutineSpec("get_posts", lambda ctx: ctx.store_table("posts")),
        ),
    )


def _timeline_service(stage: str, scenario: Scenario) -> ServiceSpec:
    def get_timeline(req, ctx):
        edges = [tuple(e) for e in ctx.call("users", "list_follows", {})["edges"]]
        posts = [
            (post_id, author, tick)
            for post_id, author, _text, tick in ctx.call("posts", "list_posts", {})["posts"]
        ]
        ids = build_timeline(req["user_id"], edges, posts)
        return {"user_id": req["user_id"], "post_ids": ",".join(str(i) for i in ids)}

    apis = [ApiSpec("get_timeline", get_timeline, ("user_id",), ("user_id", "post_ids"))]
    routines: list[RoutineSpec] = []
    if stage in ("data", "ml"):
        def record_interest(req, ctx):
            edges = [tuple(e) for e in ctx.call("users", "list_follows", {})["edges"]]
            users = interested_users(req["author"], edges, ctx.tick)
            for user in users:
                ctx.routine("put_interest", user, req["text"])
            return {"fanned_out": len(users)}

        apis.append(ApiSpec("record_interest", record_interest, ("author", "text"), ("fanned_out",)))
        routines.extend(
            (
                RoutineSpec(
                    "put_interest",
                    lambda ctx, user, text: ctx.store_put(
                        "interests",
                        str(len(ctx.store_table("interests"))),
                        {"user_id": user, "text": text},
                    ),
                ),
                RoutineSpec(
                    "get_interests",
                    lambda ctx, user: [
                        doc["text"]
                        for doc in ctx.store_table("interests").values()
                        if doc["user_id"] == user
                    ],
                ),
            )
        )
    if stage == "ml":
        seed = scenario.seed

        def generate_bot_post(req, ctx):
            corpus = ctx.routine("get_interests", req["user_id"])
            last = ctx.routine("get_bot_state", req["user_id"])
            if len(corpus) <= last:
                return {"user_id": req["user_id"], "text": ""}
            ctx.routine("put_bot_state", req["user_id"], len(corpus))
            return {"user_id": req["user_id"], "text": bot_text(corpus, seed)}

        apis.append(
            ApiSpec("generate_bot_post", generate_bot_post, ("user_id",), ("user_id", "text"))
        )
        routines.extend(
            (
                RoutineSpec(
                    "put_bot_state",
                    lambda ctx, user, n: ctx.store_put("bot_state", user, {"seen": n}),
                ),
                RoutineSpec(
                    "get_bot_state",
                    lambda ctx, user: (ctx.store_get("bot_state", user) or {"seen": 0})["seen"],
                ),
            )
        )
    return ServiceSpec("timeline", apis=tuple(apis), routines=tuple(routines))


def build_soa(stage: str, scenario: Scenario) -> SoaBuild:
    registry = ServiceRegistry()
    registry.register(_users_service())
    registry.register(_posts_service(stage))
    registry.register(_timeline_service(stage, scenario))

    routes = {
        "follow": ApiRoute("users", "follow"),
        "post": ApiRoute("posts", "create_post"),
        "timeline_request": ApiRoute("timeline", "get_timeline", obs_kind="timeline"),
    }
    if stage == "ml":
        routes["bot_poll"] = ApiRoute(
            "timeline", "generate_bot_post", obs_kind="bot_post", observe_when="text"
        )
    return SoaBuild(registry, routes)


# ----------------------------------------------------------------------
# World
# ----------------------------------------------------------------------


class BloggerWorld(World):
    """Random follows, authored posts over per-user word pools, timeline
    polls, and a once-per-tick bot trigger for the tracked user."""

    def __init__(self, scenario: Scenario):
        super().__init__(scenario)
        p = scenario.params
        self.rng = SplitMix64(derive_seed(scenario.seed, "world", "mblogger"))
        self.n_users = checked_count("n_users", p["n_users"], 1)
        self.follow_rate = checked_rate("follow_rate", float(p["follow_rate"]))
        self.post_rate = checked_rate("post_rate", float(p["post_rate"]))
        self.request_rate = checked_rate("request_rate", float(p["request_rate"]))
        self.bot_user = str(p["bot_user"])
        self.edges: set[tuple[str, str]] = set()
        self.next_post_id = 0

    def _user(self) -> str:
        return f"u{self.rng.randrange(self.n_users)}"

    def _post_text(self, author: str) -> str:
        start = (2 * int(author[1:])) % len(VOCABULARY)
        pool = [VOCABULARY[(start + i) % len(VOCABULARY)] for i in range(5)]
        n = 2 + self.rng.randrange(4)
        return " ".join(pool[self.rng.randrange(len(pool))] for _ in range(n))

    def generate_events(self, tick: int) -> list[Event]:
        events = []
        for _ in range(self.rng.poisson(self.follow_rate)):
            follower = self._user()
            followee = self._user()
            if follower == followee or (follower, followee) in self.edges:
                continue
            self.edges.add((follower, followee))
            events.append(Event(tick, "follow", {"follower": follower, "followee": followee}))
        for _ in range(self.rng.poisson(self.post_rate)):
            author = self._user()
            events.append(
                Event(
                    tick,
                    "post",
                    {"post_id": self.next_post_id, "author": author, "text": self._post_text(author)},
                )
            )
            self.next_post_id += 1
        for _ in range(self.rng.poisson(self.request_rate)):
            events.append(Event(tick, "timeline_request", {"user_id": self._user()}))
        events.append(Event(tick, "bot_poll", {"user_id": self.bot_user}))
        return events
