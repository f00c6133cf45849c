"""Streams-first dataflow runtime with a service-oriented baseline.

Subpackages
-----------
graph       typed streams, plain and fold nodes, wiring, traversal, DOT export
runtime     tick-based deterministic executor owning logs and fold state
collection  correlation-key dataset assembly and JSON-Lines persistence
mlkit       small dependency-free learners (linear, tree, bigram, quantile)
services    in-process request/response service framework (the baseline)
apps        four reference applications, six versions each
sim         seeded discrete-event harness driving every app version
metrics     component manifests, affected-components diff
cli         command-line front end
"""

__version__ = "0.1.0"
