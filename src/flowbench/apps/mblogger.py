"""Micro-blogging: follower graph, posts, and per-user timelines.

A timeline request returns the 50 most recent posts authored by people
the requester followed at the time of posting, newest first. The data
stage materializes per-user interest corpora online (every new post fans
out to its author's current followers) and publishes them as a data
product; no offline file is written. The model stage adds a bot that
adds each new text of the tracked user's corpus to running bigram counts
and, whenever the corpus grows, emits one generated post. Both paradigms
share `recent_posts` and `bot_text`; the fbp nodes are folds.
"""

from __future__ import annotations

from bisect import bisect_left, insort

from ..graph import GraphBuilder, Schema
from ..mlkit import BigramModel, add_bigrams, fit_bigram, generate  # noqa: F401 (fit_bigram: bench/tracer.py)
from ..rng import SplitMix64, checked_rate, derive_seed
from ..services import ApiSpec, RoutineSpec, ServiceRegistry, ServiceSpec
from .base import ApiRoute, Event, FbpBuild, Scenario, SoaBuild, World, checked_count

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


def recent_posts(followed_at: dict, by_author: dict, limit: int) -> list[int]:
    """Posts by each followee from its first follow tick (`followed_at`),
    newest first by (tick, post_id), at most `limit`. Each author's
    ascending (tick, post_id) list in `by_author` is cut at its follow tick
    by bisection and read back at most `limit` posts from its newest end."""
    selected = []
    for author, since in followed_at.items():
        posts = by_author.get(author, ())
        selected += posts[max(bisect_left(posts, (since,)), len(posts) - limit):]
    selected.sort(reverse=True)
    return [post_id for _, post_id in selected[:limit]]


def build_timeline(user_id, edges, posts, limit: int = TIMELINE_LIMIT) -> list[int]:
    """`recent_posts` for `user_id` from (follower, followee, tick) edges
    and (post_id, author, tick) posts, both in any order."""
    followed_at: dict = {}
    for follower, followee, tick in edges:
        if follower == user_id:
            followed_at[followee] = min(tick, followed_at.get(followee, tick))
    by_author: dict = {author: [] for author in followed_at}
    for post_id, author, tick in posts:
        if author in by_author:
            by_author[author].append((tick, post_id))
    for entries in by_author.values():
        entries.sort()
    return recent_posts(followed_at, by_author, limit)


def timeline(user_id, post_ids) -> dict:
    """A user's timeline: its post ids, newest first, comma-joined."""
    return {"user_id": user_id, "post_ids": ",".join(str(i) for i in post_ids)}


def bot_post(user_id, text: str) -> dict:
    return {"user_id": user_id, "text": text}


def bot_text(state: dict, new_texts: list[str], master_seed: int) -> str:
    """Add a corpus's new texts to its bot state, the bigram counts and the
    corpus size (`{"counts": {}, "seen": 0}` at first), and emit one post;
    "" when no text is new.

    The generator is seeded from (master seed, corpus size) so both
    paradigms produce the same text for the same corpus state.
    """
    if not new_texts:
        return ""
    for text in new_texts:
        add_bigrams(state["counts"], text.split())
    state["seen"] += len(new_texts)
    rng = SplitMix64(derive_seed(master_seed, "bot", state["seen"]))
    return " ".join(generate(BigramModel(state["counts"]), rng, BOT_MAX_TOKENS))


# ----------------------------------------------------------------------
# Dataflow build
# ----------------------------------------------------------------------


def _timeline_node(inputs, state):
    """Fold: follower -> followee -> first follow tick, author -> posts."""
    followed_at, by_author = state
    for r in inputs["follows"]:
        followed_at.setdefault(r["follower"], {}).setdefault(r["followee"], r.tick)
    for r in inputs["posts"]:
        insort(by_author.setdefault(r["author"], []), (r.tick, r["post_id"]))
    out = []
    for req in inputs["requests"]:
        ids = recent_posts(followed_at.get(req["user_id"], {}), by_author, TIMELINE_LIMIT)
        out.append(timeline(req["user_id"], ids))
    return {"timelines": out}


def _corpus_builder(inputs, followers):
    """Fold: followee -> followers; a post fans out to them in id order."""
    for r in inputs["follows"]:
        followers.setdefault(r["followee"], set()).add(r["follower"])
    out = []
    for post in inputs["posts"]:
        for user in sorted(followers.get(post["author"], ())):
            out.append({"user_id": user, "text": post["text"]})
    return {"corpus": out}


def _corpus_publisher(inputs):
    return {"published": [r.as_dict() for r in inputs["corpus"]]}


def _bot_node(target: str, master_seed: int):
    def transform(inputs, state):
        texts = [r["text"] for r in inputs["corpus"] if r["user_id"] == target]
        text = bot_text(state, texts, master_seed)
        return {"posts": [bot_post(target, text)] if text else []}

    return transform


def build_fbp(stage: str, scenario: Scenario) -> FbpBuild:
    b = GraphBuilder()
    b.stream("follows", FOLLOW)
    b.stream("posts", POST)
    b.stream("timeline_requests", TIMELINE_REQUEST)
    b.stream("timelines", TIMELINE)
    b.fold(
        "timeline_builder",
        lambda: ({}, {}),
        _timeline_node,
        inputs={"follows": "follows", "posts": "posts", "requests": "timeline_requests"},
        outputs={"timelines": "timelines"},
    )

    obs_kinds = {"timelines": "timeline"}
    if stage in ("data", "ml"):
        b.stream("user_corpora", CORPUS_ROW)
        b.stream("interest_corpora", CORPUS_ROW)
        b.fold(
            "corpus_builder",
            dict,
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
        b.stream("bot_posts", BOT_POST)
        b.fold(
            "bot",
            lambda: {"counts": {}, "seen": 0},
            _bot_node(scenario.params["bot_user"], scenario.seed),
            inputs={"corpus": "user_corpora"},
            outputs={"posts": "bot_posts"},
        )
        obs_kinds["bot_posts"] = "bot_post"

    return FbpBuild(b.build(), obs_kinds)


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
            ApiSpec("follow", follow, FOLLOW.field_names, FOLLOW.field_names),
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
                POST.field_names,
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
        return timeline(req["user_id"], build_timeline(req["user_id"], edges, posts))

    apis = [ApiSpec("get_timeline", get_timeline, TIMELINE_REQUEST.field_names, TIMELINE.field_names)]
    routines: list[RoutineSpec] = []
    if stage in ("data", "ml"):
        def record_interest(req, ctx):
            edges = ctx.call("users", "list_follows", {})["edges"]
            users = sorted({follower for follower, followee, _ in edges if followee == req["author"]})
            for user in users:
                ctx.routine("put_interest", user, req["text"])
            return {"fanned_out": len(users)}

        def put_interest(ctx, user, text):
            texts = ctx.store_get("interests", user)
            if texts is None:
                ctx.store_put("interests", user, [text])
            else:
                texts.append(text)

        apis.append(ApiSpec("record_interest", record_interest, ("author", "text"), ("fanned_out",)))
        routines.extend(
            (
                RoutineSpec("put_interest", put_interest),
                RoutineSpec("get_interests", lambda ctx, user: ctx.store_get("interests", user) or []),
            )
        )
    if stage == "ml":
        seed = scenario.seed

        def generate_bot_post(req, ctx):
            corpus = ctx.routine("get_interests", req["user_id"])
            state = ctx.routine("get_bot_state", req["user_id"])
            text = bot_text(state, corpus[state["seen"]:], seed)
            ctx.routine("put_bot_state", req["user_id"], state)
            return bot_post(req["user_id"], text)

        apis.append(ApiSpec("generate_bot_post", generate_bot_post, ("user_id",), BOT_POST.field_names))
        routines.extend(
            (
                RoutineSpec(
                    "put_bot_state",
                    lambda ctx, user, state: ctx.store_put("bot_state", user, state),
                ),
                RoutineSpec(
                    "get_bot_state",
                    lambda ctx, user: ctx.store_get("bot_state", user) or {"counts": {}, "seen": 0},
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
        self.n_users = checked_count("n_users", p["n_users"], 1)
        self.follow_rate = checked_rate("follow_rate", p["follow_rate"])
        self.post_rate = checked_rate("post_rate", p["post_rate"])
        self.request_rate = checked_rate("request_rate", p["request_rate"])
        self.bot_user = p["bot_user"]
        if not isinstance(self.bot_user, str):
            raise ValueError(f"bot_user must be a str, got {self.bot_user!r}")
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
            events.append(Event("follow", {"follower": follower, "followee": followee}))
        for _ in range(self.rng.poisson(self.post_rate)):
            author = self._user()
            events.append(
                Event(
                    "post",
                    {"post_id": self.next_post_id, "author": author, "text": self._post_text(author)},
                )
            )
            self.next_post_id += 1
        for _ in range(self.rng.poisson(self.request_rate)):
            events.append(Event("timeline_request", {"user_id": self._user()}))
        events.append(Event("bot_poll", {"user_id": self.bot_user}))
        return events
