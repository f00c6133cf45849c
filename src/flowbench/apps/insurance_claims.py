"""Insurance claims: a fixed screening chain decides each claim's payout path.

Rules, in order: flagged claims are rejected; amounts above 10000 go to
manual review; small auto claims (amount <= 1000, at most 2 prior claims)
are fast-tracked; everything else takes the standard path.

Data stage declares the dataset pairing claim attributes with the final
decision. Model stage swaps the whole screening chain for one decision
tree trained on that dataset (`train`); the output interface is untouched.
"""

from __future__ import annotations

from .. import sim
from ..collection import CollectionSpec, StreamSelect
from ..graph import Category, GraphBuilder, Schema
from ..mlkit import TreeModel, fit_tree, predict_tree
from ..rng import SplitMix64, derive_seed
from ..services import ApiSpec, RoutineSpec, ServiceRegistry, ServiceSpec
from ..sim import Event, Scenario, World
from .base import ApiRoute, FbpBuild, SoaBuild, StreamRoute, untrained

DEFAULT_PARAMS = {"claim_rate": 4.0}

KINDS = ("auto", "home", "health")
DECISIONS = ("fast_track", "manual_review", "reject", "standard")
FEATURE_FIELDS = ("amount", "flagged", "kind", "prior_claims")
TREE_DEPTH = 4

# Amounts are quoted from band price lists, which keeps the decision
# boundaries learnable exactly from samples.
AMOUNTS_LOW = (250.0, 500.0, 750.0, 1000.0)
AMOUNTS_MID = (2500.0, 5000.0, 7500.0, 10000.0)
AMOUNTS_HIGH = (15000.0, 20000.0, 30000.0)

CLAIM = Schema(
    "claim",
    (
        ("claim_id", "int"),
        ("kind", "text"),
        ("amount", "float"),
        ("prior_claims", "int"),
        ("flagged", "bool"),
    ),
)
SCREENED = Schema(
    "screened_claim",
    (
        ("claim_id", "int"),
        ("kind", "text"),
        ("amount", "float"),
        ("prior_claims", "int"),
        ("flagged", "bool"),
        ("decision", "text"),
    ),
)
DECISION = Schema("decision", (("claim_id", "int"), ("decision", "text")))
CLAIMS_DATASET = Schema(
    "claims_dataset",
    (
        ("claim_id", "int"),
        ("amount", "float"),
        ("flagged", "bool"),
        ("kind", "text"),
        ("prior_claims", "int"),
        ("decision", "text"),
    ),
)


# ----------------------------------------------------------------------
# Shared decision logic
# ----------------------------------------------------------------------


def rule_flagged(claim) -> str:
    return "reject" if claim["flagged"] else ""


def rule_amount(claim) -> str:
    return "manual_review" if claim["amount"] > 10000 else ""


def rule_kind(claim) -> str:
    if claim["kind"] not in KINDS:
        raise ValueError(f"unknown claim kind {claim['kind']!r}")
    if claim["kind"] == "auto" and claim["amount"] <= 1000 and claim["prior_claims"] <= 2:
        return "fast_track"
    return "standard"


def claim_route(claim) -> str:
    """The full rule chain, evaluated in fixed order."""
    if claim["kind"] not in KINDS:
        raise ValueError(f"unknown claim kind {claim['kind']!r}")
    return rule_flagged(claim) or rule_amount(claim) or rule_kind(claim)


def claim_features(claim) -> tuple[float, ...]:
    """One-hot kind, then the numeric attributes; the tree's input space."""
    return (
        1.0 if claim["kind"] == "auto" else 0.0,
        1.0 if claim["kind"] == "home" else 0.0,
        1.0 if claim["kind"] == "health" else 0.0,
        float(claim["amount"]),
        float(claim["prior_claims"]),
        1.0 if claim["flagged"] else 0.0,
    )


COLLECTION = CollectionSpec(
    label=StreamSelect("decisions", ("decision",), "claim_id"),
    features=(StreamSelect("claims", FEATURE_FIELDS, "claim_id"),),
    dataset_name="claims_dataset",
)


def fit_claim_model(rows) -> TreeModel:
    data = [(claim_features(r.features), r.label["decision"]) for r in rows]
    return fit_tree(data, max_depth=TREE_DEPTH)


def train(paradigm: str, scenario: Scenario) -> tuple[TreeModel, list]:
    """The model stage's offline training: the data stage's dataset, fitted.

    Returns the tree and the rows it was fitted on.
    """
    rows = sim.training_rows("insurance_claims", paradigm, scenario)
    return fit_claim_model(rows), rows


# ----------------------------------------------------------------------
# Dataflow build
# ----------------------------------------------------------------------


def _first_screen(rule):
    def transform(inputs):
        out = []
        for rec in inputs["claims"].new:
            doc = rec.as_dict()
            doc["decision"] = rule(doc)
            out.append(doc)
        return {"screened": out}

    return transform


def _next_screen(rule):
    def transform(inputs):
        out = []
        for rec in inputs["claims"].new:
            doc = rec.as_dict()
            if not doc["decision"]:
                doc["decision"] = rule(doc)
            out.append(doc)
        return {"screened": out}

    return transform


def _payout(inputs):
    return {
        "decisions": [
            {"claim_id": r["claim_id"], "decision": r["decision"]}
            for r in inputs["screened"].new
        ]
    }


def _classifier(model: TreeModel):
    def transform(inputs):
        out = []
        for rec in inputs["claims"].new:
            doc = rec.as_dict()
            doc["decision"] = predict_tree(model, claim_features(doc))
            out.append(doc)
        return {"screened": out}

    return transform


def build_fbp(stage: str, scenario: Scenario, model: TreeModel | None = None) -> FbpBuild:
    """The dataflow build; the ml stage classifies with `model` (None: a
    structure-only build whose classifier refuses to run)."""
    b = GraphBuilder()
    b.stream("claims", Category.INPUT, CLAIM)
    b.stream("screened_kind", Category.INTERNAL, SCREENED)
    b.stream("decisions", Category.OUTPUT, DECISION)

    if stage == "ml":
        b.node(
            "classifier",
            _classifier(model) if model is not None else untrained("insurance_claims", "fbp"),
            inputs={"claims": "claims"},
            outputs={"screened": "screened_kind"},
        )
    else:
        b.stream("screened_flag", Category.INTERNAL, SCREENED)
        b.stream("screened_amount", Category.INTERNAL, SCREENED)
        b.node(
            "screen_flagged",
            _first_screen(rule_flagged),
            inputs={"claims": "claims"},
            outputs={"screened": "screened_flag"},
        )
        b.node(
            "screen_amount",
            _next_screen(rule_amount),
            inputs={"claims": "screened_flag"},
            outputs={"screened": "screened_amount"},
        )
        b.node(
            "screen_kind",
            _next_screen(rule_kind),
            inputs={"claims": "screened_amount"},
            outputs={"screened": "screened_kind"},
        )
    b.node(
        "payout",
        _payout,
        inputs={"screened": "screened_kind"},
        outputs={"decisions": "decisions"},
    )

    collection = None
    if stage in ("data", "ml"):
        b.stream("claims_dataset", Category.OUTPUT, CLAIMS_DATASET)
        collection = COLLECTION

    return FbpBuild(
        b.build(),
        routes={"claim": StreamRoute("claims")},
        obs_kinds={"decisions": "decision"},
        collection=collection,
    )


# ----------------------------------------------------------------------
# Service build
# ----------------------------------------------------------------------


def _rules_service(stage: str, trained: bool) -> ServiceSpec:
    if stage == "ml":
        def predict(req, ctx):
            model = TreeModel.from_doc(ctx.routine("get_model"))
            return {"decision": predict_tree(model, claim_features(req))}

        return ServiceSpec(
            "rules",
            apis=(
                ApiSpec(
                    "predict",
                    predict if trained else untrained("insurance_claims", "soa"),
                    ("kind", "amount", "prior_claims", "flagged"),
                    ("decision",),
                ),
            ),
            routines=(
                RoutineSpec("put_model", lambda ctx, doc: ctx.store_put("models", "claims", doc)),
                RoutineSpec("get_model", lambda ctx: ctx.store_get("models", "claims")),
            ),
        )
    return ServiceSpec(
        "rules",
        apis=(
            ApiSpec("check_flagged", lambda req, ctx: {"decision": rule_flagged(req)}, ("flagged",), ("decision",)),
            ApiSpec("check_amount", lambda req, ctx: {"decision": rule_amount(req)}, ("amount",), ("decision",)),
            ApiSpec(
                "check_kind",
                lambda req, ctx: {"decision": rule_kind(req)},
                ("kind", "amount", "prior_claims"),
                ("decision",),
            ),
        ),
    )


def _payout_service(stage: str) -> ServiceSpec:
    def process(req, ctx):
        ctx.routine("save_payout", {"claim_id": req["claim_id"], "decision": req["decision"]})
        return {"claim_id": req["claim_id"]}

    apis = [ApiSpec("process", process, ("claim_id", "decision"), ("claim_id",))]
    routines = [
        RoutineSpec("save_payout", lambda ctx, doc: ctx.store_put("payouts", str(doc["claim_id"]), doc)),
    ]
    if stage in ("data", "ml"):
        def list_decisions(req, ctx):
            return {"decisions": list(ctx.routine("get_payouts").values())}

        apis.append(ApiSpec("list_decisions", list_decisions, (), ("decisions",)))
        routines.append(RoutineSpec("get_payouts", lambda ctx: ctx.store_table("payouts")))
    return ServiceSpec("payout", apis=tuple(apis), routines=tuple(routines))


def _intake_service(stage: str) -> ServiceSpec:
    def submit_claim_min(req, ctx):
        ctx.routine("save_claim", dict(req))
        decision = ctx.call("rules", "check_flagged", {"flagged": req["flagged"]})["decision"]
        if not decision:
            decision = ctx.call("rules", "check_amount", {"amount": req["amount"]})["decision"]
        if not decision:
            decision = ctx.call(
                "rules",
                "check_kind",
                {"kind": req["kind"], "amount": req["amount"], "prior_claims": req["prior_claims"]},
            )["decision"]
        ctx.call("payout", "process", {"claim_id": req["claim_id"], "decision": decision})
        return {"claim_id": req["claim_id"], "decision": decision}

    def submit_claim_ml(req, ctx):
        ctx.routine("save_claim", dict(req))
        decision = ctx.call(
            "rules",
            "predict",
            {
                "kind": req["kind"],
                "amount": req["amount"],
                "prior_claims": req["prior_claims"],
                "flagged": req["flagged"],
            },
        )["decision"]
        ctx.call("payout", "process", {"claim_id": req["claim_id"], "decision": decision})
        return {"claim_id": req["claim_id"], "decision": decision}

    apis = [
        ApiSpec(
            "submit_claim",
            submit_claim_ml if stage == "ml" else submit_claim_min,
            ("claim_id", "kind", "amount", "prior_claims", "flagged"),
            ("claim_id", "decision"),
            logic_version="v2" if stage == "ml" else "v1",
        )
    ]
    routines = [
        RoutineSpec("save_claim", lambda ctx, doc: ctx.store_put("claims", str(doc["claim_id"]), doc)),
    ]
    if stage in ("data", "ml"):
        def export_dataset(req, ctx):
            claims = ctx.routine("get_claims")
            decisions = {
                str(d["claim_id"]): d["decision"]
                for d in ctx.call("payout", "list_decisions", {})["decisions"]
            }
            rows = []
            for key, claim in claims.items():
                decision = decisions.get(key)
                if decision is None:
                    continue
                rows.append(
                    {
                        "features": {f: claim[f] for f in FEATURE_FIELDS},
                        "key": claim["claim_id"],
                        "label": {"decision": decision},
                    }
                )
            return {"rows": rows}

        apis.append(ApiSpec("export_dataset", export_dataset, (), ("rows",)))
        routines.append(RoutineSpec("get_claims", lambda ctx: ctx.store_table("claims")))
    return ServiceSpec("intake", apis=tuple(apis), routines=tuple(routines))


def build_soa(stage: str, scenario: Scenario, model: TreeModel | None = None) -> SoaBuild:
    """The service build; the ml stage seeds `model` into the rules store
    (None: a structure-only build whose `predict` refuses to run)."""
    registry = ServiceRegistry()
    registry.register(_rules_service(stage, model is not None))
    registry.register(_payout_service(stage))
    registry.register(_intake_service(stage))
    if model is not None:
        registry.context_for("rules").routine("put_model", model.to_doc())

    export = None
    if stage in ("data", "ml"):
        def export(reg):
            from ..collection import DatasetRow

            docs = reg.call("sim", "intake", "export_dataset", {})["rows"]
            return [DatasetRow.from_doc(d) for d in docs]

    return SoaBuild(
        registry,
        routes={"claim": ApiRoute("intake", "submit_claim", obs_kind="decision")},
        export_dataset=export,
    )


# ----------------------------------------------------------------------
# World
# ----------------------------------------------------------------------


def random_claim(rng: SplitMix64) -> dict:
    """One claim from the workload distribution: mostly auto, banded
    amounts with clean gaps at the rule boundaries, few flags."""
    r = rng.random()
    kind = "auto" if r < 0.8 else ("home" if r < 0.9 else "health")
    r = rng.random()
    if r < 0.5:
        amount = AMOUNTS_LOW[rng.randrange(len(AMOUNTS_LOW))]
    elif r < 0.9:
        amount = AMOUNTS_MID[rng.randrange(len(AMOUNTS_MID))]
    else:
        amount = AMOUNTS_HIGH[rng.randrange(len(AMOUNTS_HIGH))]
    r = rng.random()
    if r < 0.45:
        prior = 0
    elif r < 0.75:
        prior = 1
    elif r < 0.9:
        prior = 2
    elif r < 0.97:
        prior = 3
    else:
        prior = 4
    flagged = rng.random() < 0.06
    return {"kind": kind, "amount": amount, "prior_claims": prior, "flagged": flagged}


class ClaimsWorld(World):
    """Poisson claim arrivals over banded amounts and skewed categories."""

    def __init__(self, scenario: Scenario):
        super().__init__(scenario)
        self.rng = SplitMix64(derive_seed(scenario.seed, "world", "insurance_claims"))
        self.claim_rate = float(scenario.params["claim_rate"])
        self.next_claim_id = 0

    def generate_events(self, tick: int) -> list[Event]:
        events = []
        for _ in range(self.rng.poisson(self.claim_rate)):
            claim = random_claim(self.rng)
            claim["claim_id"] = self.next_claim_id
            self.next_claim_id += 1
            events.append(Event(tick, "claim", claim))
        return events


def sample_claims(seed: int, count: int) -> list[dict]:
    """Fresh claims from the same distribution; used for held-out checks."""
    rng = SplitMix64(derive_seed(seed, "fresh-claims"))
    claims = []
    for i in range(count):
        claim = random_claim(rng)
        claim["claim_id"] = i
        claims.append(claim)
    return claims
