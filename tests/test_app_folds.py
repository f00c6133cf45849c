"""mblogger's and playlist_builder's fold nodes against recompute oracles.

Every fbp node of these apps sees only its delta and keeps what its rule
needs in a runtime-owned fold: follow ticks and per-author post lists,
followers per author, bigram counts, sorted grosses and per-genre
catalogs. Each oracle below is the form a fold replaces: it keeps its own
copy of every record it has been shown (`util_graphs.recompute_from_copy`)
and recomputes the node's output from that whole history on every call, by
the rule as first written. Both graphs are fed the same records and must
emit the same records, tick by tick.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowbench import apps
from flowbench.apps import mblogger, playlist_builder
from flowbench.mlkit import fit_bigram, generate
from flowbench.rng import SplitMix64, derive_seed
from flowbench.runtime import start
from util_graphs import nested_scan_timeline, with_oracles


def _drive(graphs, ticks, compared):
    """Feed each graph the same (stream, values) injections per tick; return
    each one's per-tick new records of those `compared` streams it has, as
    reprs so that -0.0 and 0.0 differ."""
    runs = []
    for graph in graphs:
        inst = start(graph)
        streams = [sid for sid in compared if sid in inst.stream_ids()]
        per_tick = []
        for injections in ticks:
            for stream_id, values in injections:
                inst.inject(stream_id, values)
            before = {sid: inst.length(sid) for sid in streams}
            inst.step()
            per_tick.append({sid: [repr(r.values) for r in inst.read(sid, before[sid])] for sid in streams})
        runs.append(per_tick)
    return runs


# ----------------------------------------------------------------------
# mblogger
# ----------------------------------------------------------------------

BOT_USER = "u0"
BLOG_SEED = 17
USERS = st.sampled_from(["u0", "u1", "u2", "u3"])
WORDS = st.lists(st.sampled_from(["amber", "breeze", "cobalt", "drift"]), max_size=4).map(" ".join)


def timeline_oracle(timeline):
    """On every call, the `timeline` function over all follows and posts."""

    def replay(logs, new_from):
        edges = [(r["follower"], r["followee"], r.tick) for r in logs["follows"]]
        posts = [(r["post_id"], r["author"], r.tick) for r in logs["posts"]]
        out = []
        for req in logs["requests"][new_from["requests"]:]:
            ids = timeline(req["user_id"], edges, posts, mblogger.TIMELINE_LIMIT)
            out.append({"user_id": req["user_id"], "post_ids": ",".join(str(i) for i in ids)})
        return {"timelines": out}

    return replay


def corpus_oracle(logs, new_from):
    """Each new post fans out to every follower of its author whose follow
    is no later than the post, in id order, scanning all follows."""
    out = []
    for post in logs["posts"][new_from["posts"]:]:
        followers = sorted(
            {r["follower"] for r in logs["follows"] if r["followee"] == post["author"] and r.tick <= post.tick}
        )
        out.extend({"user_id": user, "text": post["text"]} for user in followers)
    return {"corpus": out}


def bot_oracle(logs, new_from):
    """When the tracked user's corpus grew, refit a bigram chain over the
    whole corpus and generate from a seed of (master seed, corpus size)."""
    if not any(r["user_id"] == BOT_USER for r in logs["corpus"][new_from["corpus"]:]):
        return {"posts": []}
    corpus = [r["text"] for r in logs["corpus"] if r["user_id"] == BOT_USER]
    model = fit_bigram([text.split() for text in corpus])
    rng = SplitMix64(derive_seed(BLOG_SEED, "bot", len(corpus)))
    text = " ".join(generate(model, rng, mblogger.BOT_MAX_TOKENS))
    return {"posts": [{"user_id": BOT_USER, "text": text}] if text else []}


def _blog_graphs(timeline):
    scenario = apps.make_scenario("mblogger", 1, BLOG_SEED, {"bot_user": BOT_USER})
    graph = mblogger.build_fbp("ml", scenario).graph
    oracles = {"timeline_builder": timeline_oracle(timeline), "corpus_builder": corpus_oracle, "bot": bot_oracle}
    return graph, with_oracles(graph, oracles)


TIMELINES = {"build_timeline": mblogger.build_timeline, "nested_scan": nested_scan_timeline}
BLOG_GRAPHS = {name: _blog_graphs(fn) for name, fn in TIMELINES.items()}
BLOG_STREAMS = ("timelines", "user_corpora", "interest_corpora", "bot_posts")


@st.composite
def blog_ticks(draw):
    """Per tick: follows (self-follows and repeats included), posts with
    ids in any order (repeats included) and timeline requests."""
    ticks = []
    for _ in range(draw(st.integers(0, 12))):
        follows = draw(st.lists(st.tuples(USERS, USERS), max_size=3))
        posts = draw(st.lists(st.tuples(st.integers(0, 40), USERS, WORDS), max_size=4))
        requests = draw(st.lists(USERS, max_size=2))
        ticks.append(
            [("follows", {"follower": f, "followee": fe}) for f, fe in follows]
            + [("posts", {"post_id": i, "author": a, "text": t}) for i, a, t in posts]
            + [("timeline_requests", {"user_id": u}) for u in requests]
        )
    return ticks


def _follow(follower, followee):
    return ("follows", {"follower": follower, "followee": followee})


def _post(post_id, author, text="amber breeze"):
    return ("posts", {"post_id": post_id, "author": author, "text": text})


def _request(user):
    return ("timeline_requests", {"user_id": user})


class TestBlogFoldsMatchRecompute:
    @pytest.mark.parametrize("timeline", sorted(TIMELINES))
    @given(ticks=blog_ticks(), limit=st.sampled_from([1, 2, 3, mblogger.TIMELINE_LIMIT]))
    @settings(max_examples=120, deadline=None)
    # A post in the very tick of the follow counts; one a tick before does not.
    @example(
        ticks=[[_post(1, "u1")], [_follow("u0", "u1"), _post(2, "u1"), _request("u0")], [_request("u0")]],
        limit=mblogger.TIMELINE_LIMIT,
    )
    # A repeat follow does not move the first follow tick.
    @example(
        ticks=[[_follow("u0", "u1")], [_post(5, "u1")], [_follow("u0", "u1"), _post(3, "u1"), _request("u0")]],
        limit=mblogger.TIMELINE_LIMIT,
    )
    # More posts than the limit, ids out of order within a tick, two authors.
    @example(
        ticks=[
            [_follow("u0", "u1"), _follow("u0", "u2")],
            [_post(9, "u1"), _post(4, "u2"), _post(7, "u1"), _post(8, "u2")],
            [_post(1, "u2"), _request("u0"), _request("u3")],
        ],
        limit=2,
    )
    def test_per_tick_outputs_equal_a_recompute(self, timeline, ticks, limit):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mblogger, "TIMELINE_LIMIT", limit)
            fold, oracle = _drive(BLOG_GRAPHS[timeline], ticks, BLOG_STREAMS)
        assert fold == oracle


# ----------------------------------------------------------------------
# playlist_builder
# ----------------------------------------------------------------------

PLAYLIST_SEED = 5
GENRES = st.sampled_from(["action", "drama", "noir"])
GROSSES = st.one_of(st.sampled_from([-0.0, 0.0, 1.0, 2.5, 2.5, 40.0]), st.floats(-100.0, 100.0))


def tracker_oracle(logs, new_from):
    """Each touched genre's nearest-rank quantile of all its grosses,
    sorted afresh."""
    out = []
    for genre in sorted({r["genre"] for r in logs["movies"][new_from["movies"]:]}):
        grosses = sorted(r["gross"] for r in logs["movies"] if r["genre"] == genre)
        rank = max(1, math.ceil(playlist_builder.GROSS_QUANTILE * len(grosses)))
        out.append({"genre": genre, "q75": grosses[rank - 1]})
    return {"quantiles": out}


def builder_oracle(logs, new_from):
    """Each new request draws from a pool filtered from the whole movie log
    in arrival order, at the genre's latest threshold if one was wired."""
    thresholds = {r["genre"]: r["q75"] for r in logs.get("quantiles", ())}
    out = []
    for req in logs["requests"][new_from["requests"]:]:
        min_gross = thresholds.get(req["genre"])
        pool = [
            r["title"]
            for r in logs["movies"]
            if r["genre"] == req["genre"] and (min_gross is None or r["gross"] >= min_gross)
        ]
        titles = playlist_builder.request_rng(PLAYLIST_SEED, req["request_id"]).sample(pool, req["k"])
        out.append({"request_id": req["request_id"], "genre": req["genre"], "titles": "|".join(titles)})
    return {"playlists": out}


def _playlist_graphs(stage):
    scenario = apps.make_scenario("playlist_builder", 1, PLAYLIST_SEED)
    graph = playlist_builder.build_fbp(stage, scenario).graph
    return graph, with_oracles(graph, {"quantile_tracker": tracker_oracle, "builder": builder_oracle})


PLAYLIST_GRAPHS = {stage: _playlist_graphs(stage) for stage in ("min", "data", "ml")}


@st.composite
def playlist_ticks(draw):
    ticks = []
    next_movie = next_request = 0
    for _ in range(draw(st.integers(0, 12))):
        injections = []
        for genre, gross in draw(st.lists(st.tuples(GENRES, GROSSES), max_size=4)):
            injections.append(("movies", {"title": f"m{next_movie}", "genre": genre, "gross": gross}))
            next_movie += 1
        for genre, k in draw(st.lists(st.tuples(GENRES, st.integers(1, 4)), max_size=3)):
            injections.append(("playlist_requests", {"request_id": next_request, "genre": genre, "k": k}))
            next_request += 1
        ticks.append(injections)
    return ticks


class TestPlaylistFoldsMatchRecompute:
    @pytest.mark.parametrize("stage", ("min", "data", "ml"))
    @given(ticks=playlist_ticks())
    @settings(max_examples=100, deadline=None)
    # Ties and signed zeros: the quantile keeps the arrival order of equals.
    @example(
        ticks=[
            [("movies", {"title": "m0", "genre": "noir", "gross": 0.0})],
            [("movies", {"title": "m1", "genre": "noir", "gross": -0.0}),
             ("movies", {"title": "m2", "genre": "noir", "gross": -0.0}),
             ("playlist_requests", {"request_id": 0, "genre": "noir", "k": 3})],
        ]
    )
    def test_per_tick_outputs_equal_a_recompute(self, stage, ticks):
        fold, oracle = _drive(PLAYLIST_GRAPHS[stage], ticks, ("genre_quantiles", "genre_stats", "playlists"))
        assert fold == oracle
