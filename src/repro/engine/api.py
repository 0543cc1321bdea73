"""In-process request/response API mirroring the demo's web backend.

The original PivotE is a web application: a JavaScript front end issues
requests to a backend that runs the search and recommendation engines.  This
module provides that backend as an in-process handler speaking plain
dictionaries (the JSON a web layer would serialise), so that the full demo
behaviour is reproducible and testable without a network stack.

Every request is a dict with an ``"action"`` key; every response is a dict
with ``"status"`` (``"ok"`` or ``"error"``) plus action-specific payloads.
:meth:`PivotEApi.handle` never raises: malformed requests — unknown
actions, missing or mistyped fields, unknown sessions or entities — come
back as ``{"status": "error", "error": "<message>"}`` envelopes.

Request/response schema per action (all requests may carry extra keys,
which are ignored; every ok-response carries ``"status": "ok"``):

``search``
    Request: ``keywords`` (str), optional ``top_k`` (positive int, or a
    string of digits).  Response: ``hits`` — list of
    ``{"entity", "score", "label"}`` dicts.
``start_session``
    Request: optional ``session_id`` (str; generated when omitted).
    Response: ``session_id``.
``submit_keywords``
    Request: ``session_id``, ``keywords``.  Response: a query-response
    payload — ``hits`` plus, when seeds exist, ``recommendation`` and
    ``matrix`` dicts.
``select_entity`` / ``deselect_entity``
    Request: ``session_id``, ``entity``.  Response: query-response
    payload.
``pin_feature`` / ``unpin_feature``
    Request: ``session_id``, ``feature`` (the ``predicate::object``
    notation of :meth:`SemanticFeature.parse`).  Response:
    query-response payload.
``set_domain``
    Request: ``session_id``, ``domain`` (entity type IRI).  Response:
    query-response payload.
``pivot``
    Request: ``session_id``, ``entity``.  Response: query-response
    payload.
``investigate``
    Request: ``session_id``.  Response: query-response payload.
``lookup``
    Request: ``entity``, optional ``session_id`` (records the lookup in
    the session when given).  Response: ``profile`` dict.
``explain``
    Request: ``left``, ``right`` (entity ids).  Response: ``text`` and
    ``shared_features`` (list of feature notations).
``session_state``
    Request: ``session_id``.  Response: ``session`` dict (query state
    and history).
``revisit``
    Request: ``session_id``, ``step`` (int index into the session
    history).  Response: query-response payload.
``stats``
    Request: no fields.  Response: ``stats`` — the system's
    :meth:`~repro.stats.EngineStats.as_dict` introspection tree
    (caches, pruning counters, epochs, feature-index rebuild counters).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from ..exceptions import PivotEError
from ..features import SemanticFeature
from ..viz import (
    matrix_view_to_dict,
    profile_as_dict,
    recommendation_to_dict,
    session_to_dict,
)
from .pivote import PivotE, QueryResponse

Request = dict[str, Any]
Response = dict[str, Any]


class PivotEApi:
    """Dispatches UI requests to a :class:`PivotE` instance."""

    def __init__(self, system: PivotE) -> None:
        self._system = system
        self._handlers: dict[str, Callable[[Request], Response]] = {
            "search": self._handle_search,
            "start_session": self._handle_start_session,
            "submit_keywords": self._handle_submit_keywords,
            "select_entity": self._handle_select_entity,
            "deselect_entity": self._handle_deselect_entity,
            "pin_feature": self._handle_pin_feature,
            "unpin_feature": self._handle_unpin_feature,
            "set_domain": self._handle_set_domain,
            "pivot": self._handle_pivot,
            "investigate": self._handle_investigate,
            "lookup": self._handle_lookup,
            "explain": self._handle_explain,
            "session_state": self._handle_session_state,
            "revisit": self._handle_revisit,
            "stats": self._handle_stats,
        }

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def handle(self, request: Request) -> Response:
        """Handle one request; exceptions become error responses."""
        action = request.get("action")
        if not action or action not in self._handlers:
            return {"status": "error", "error": f"unknown action: {action!r}"}
        try:
            return self._handlers[action](request)
        except PivotEError as exc:
            return {"status": "error", "error": str(exc)}
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return {"status": "error", "error": f"{type(exc).__name__}: {exc}"}

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _session(self, request: Request):
        session_id = request.get("session_id")
        if not session_id:
            raise KeyError("missing 'session_id'")
        return self._system.session(session_id)

    def _query_response_payload(self, response: QueryResponse) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "hits": [hit.as_dict() for hit in response.hits],
        }
        if response.recommendation is not None:
            payload["recommendation"] = recommendation_to_dict(response.recommendation)
        if response.matrix is not None:
            payload["matrix"] = matrix_view_to_dict(response.matrix)
        return payload

    @staticmethod
    def _feature_from(request: Request) -> SemanticFeature:
        notation = request.get("feature")
        if not notation:
            raise KeyError("missing 'feature'")
        return SemanticFeature.parse(str(notation))

    @staticmethod
    def _as_int(value: object, key: str, minimum: int | None = None) -> int:
        """Coerce a request field to an int, with an envelope-safe error.

        Accepts ints and numeric strings; rejects booleans (JSON
        ``true`` is not a count) and anything ``int()`` cannot parse,
        raising ``ValueError`` so :meth:`handle` reports a clean error
        envelope instead of letting a ``TypeError`` escape.
        """
        if isinstance(value, bool):
            raise ValueError(f"{key!r} must be an integer, got {value!r}")
        try:
            coerced = int(value)  # type: ignore[call-overload]
        except (TypeError, ValueError):
            raise ValueError(f"{key!r} must be an integer, got {value!r}") from None
        if minimum is not None and coerced < minimum:
            raise ValueError(f"{key!r} must be >= {minimum}, got {coerced}")
        return coerced

    # ------------------------------------------------------------------ #
    # Handlers
    # ------------------------------------------------------------------ #
    def _handle_search(self, request: Request) -> Response:
        keywords = str(request.get("keywords", ""))
        top_k = request.get("top_k")
        if top_k is not None:
            top_k = self._as_int(top_k, "top_k", minimum=1)
        hits = self._system.search(keywords, top_k=top_k)
        return {"status": "ok", "hits": [hit.as_dict() for hit in hits]}

    def _handle_start_session(self, request: Request) -> Response:
        session = self._system.start_session(request.get("session_id"))
        return {"status": "ok", "session_id": session.session_id}

    def _handle_submit_keywords(self, request: Request) -> Response:
        session = self._session(request)
        keywords = str(request.get("keywords", ""))
        response = self._system.submit_keywords(session, keywords)
        return {"status": "ok", **self._query_response_payload(response)}

    def _handle_select_entity(self, request: Request) -> Response:
        session = self._session(request)
        response = self._system.select_entity(session, str(request["entity"]))
        return {"status": "ok", **self._query_response_payload(response)}

    def _handle_deselect_entity(self, request: Request) -> Response:
        session = self._session(request)
        response = self._system.deselect_entity(session, str(request["entity"]))
        return {"status": "ok", **self._query_response_payload(response)}

    def _handle_pin_feature(self, request: Request) -> Response:
        session = self._session(request)
        response = self._system.pin_feature(session, self._feature_from(request))
        return {"status": "ok", **self._query_response_payload(response)}

    def _handle_unpin_feature(self, request: Request) -> Response:
        session = self._session(request)
        response = self._system.unpin_feature(session, self._feature_from(request))
        return {"status": "ok", **self._query_response_payload(response)}

    def _handle_set_domain(self, request: Request) -> Response:
        session = self._session(request)
        response = self._system.set_domain(session, str(request.get("domain", "")))
        return {"status": "ok", **self._query_response_payload(response)}

    def _handle_pivot(self, request: Request) -> Response:
        session = self._session(request)
        response = self._system.pivot(session, str(request["entity"]))
        return {"status": "ok", **self._query_response_payload(response)}

    def _handle_investigate(self, request: Request) -> Response:
        session = self._session(request)
        response = self._system.investigate(session)
        return {"status": "ok", **self._query_response_payload(response)}

    def _handle_lookup(self, request: Request) -> Response:
        session_id = request.get("session_id")
        entity = str(request["entity"])
        if session_id:
            profile = self._system.lookup_in_session(self._system.session(session_id), entity)
        else:
            profile = self._system.lookup(entity)
        return {"status": "ok", "profile": profile_as_dict(profile)}

    def _handle_explain(self, request: Request) -> Response:
        explanation = self._system.explain(str(request["left"]), str(request["right"]))
        return {
            "status": "ok",
            "text": explanation.text,
            "shared_features": [feature.notation() for feature in explanation.shared_features],
        }

    def _handle_session_state(self, request: Request) -> Response:
        session = self._session(request)
        return {"status": "ok", "session": session_to_dict(session)}

    def _handle_revisit(self, request: Request) -> Response:
        session = self._session(request)
        step = self._as_int(request["step"], "step")
        session.revisit(step)
        response = self._system.investigate(session)
        return {"status": "ok", **self._query_response_payload(response)}

    def _handle_stats(self, request: Request) -> Response:
        return {"status": "ok", "stats": self._system.stats().as_dict()}
