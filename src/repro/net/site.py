"""A site: one logical host on the simulated internetwork.

A :class:`Site` owns a guid mint, a name service, and a registry of the
MROM objects living there, and speaks the request/response protocol over
:class:`~repro.net.transport.Network`:

* ``invoke`` — run a method on a registered object on behalf of a remote
  caller (the caller's principal travels with the request and is what the
  Match phase sees);
* ``get_data`` — ordinary remote value access;
* ``describe`` — visibility-filtered interrogation of a registered object;
* ``resolve`` — remote name lookup (federated naming);
* ``ping`` — liveness and clock exchange.

Higher layers (mobility, HADAS) register additional message kinds with
:meth:`Site.add_handler`; the site is deliberately a small kernel.

Identity is *claimed*, not authenticated: the companion papers [16, 17]
carry the paper's authentication story, and this reproduction models
authorization (ACLs, policies) on top of claimed principals.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from typing import Any, Callable, Mapping, Sequence

from ..core.acl import Principal
from ..core.errors import (
    MROMError,
    NamingError,
    NetworkError,
    OverloadError,
    RemoteInvocationError,
    StaleLeaseError,
)
from ..core.introspection import describe as describe_object
from ..core.items import ItemHandle
from ..core.mobject import MROMObject
from ..analysis import sanitizer as _sanitizer
from ..naming import GuidFactory, NameService
from ..telemetry import state as _telemetry
from ..telemetry.context import TraceContext
from .marshal import Reference, attach_trace, extract_trace
from .rmi import (
    AsyncCall,
    BatchFuture,
    BatchedRef,
    BlockingCall,
    RemoteRef,
    RequestBatch,
    RetryPolicy,
    SendQueue,
)
from .transport import Message, Network

__all__ = ["Site"]

Handler = Callable[[Message], Any]

#: scalars export and import hand back at once, matched by exact type;
#: a subclass takes the walks' ordinary tests
_PLAIN = frozenset((type(None), bool, int, float, str, bytes))


class Site:
    """One host: registry, naming, and the wire protocol."""

    def __init__(self, network: Network, site_id: str, domain: str = ""):
        self.network = network
        self.site_id = site_id
        self.domain = domain or site_id
        self.guids = GuidFactory(site_id)
        self.names = NameService(site_id)
        self.principal = Principal(
            guid=f"mrom://{site_id}/0.0", domain=self.domain, display_name=site_id
        )
        self._objects: dict[str, MROMObject] = {}
        self._handlers: dict[str, Handler] = {
            "invoke": self._handle_invoke,
            "get_data": self._handle_get_data,
            "describe": self._handle_describe,
            "resolve": self._handle_resolve,
            "ping": self._handle_ping,
            "batch": self._handle_batch,
        }
        #: in-flight calls (blocking or not) keyed by attempt msg_id; a
        #: reply settles the registered call's future
        self._async_calls: dict[int, AsyncCall] = {}
        self._served: OrderedDict[str, Any] = OrderedDict()
        self._served_cap = 1024
        #: request ids admitted but not yet replied to — the in-flight
        #: half of at-most-once. The served ledger only covers completed
        #: requests; with ``service_delay`` > 0 a duplicate can arrive
        #: inside the service window and would re-execute the handler
        #: (a double-applied increment). Such duplicates are swallowed:
        #: the original's reply is still on its way, and a retry landing
        #: after completion hits the ledger as usual.
        self._in_progress: set[str] = set()
        self.inflight_duplicates = 0
        self._request_seq = itertools.count(1)
        #: admission window: max requests admitted and not yet replied
        #: to (None = unbounded); beyond it, requests are shed with a
        #: structured OverloadError instead of queueing without bound
        self.inflight_limit: int | None = None
        #: simulated seconds between admission and execution of a
        #: request; 0.0 serves at delivery time (legacy semantics), >0
        #: models service latency so the inflight window can fill
        self.service_delay = 0.0
        #: requests admitted and not yet replied to
        self.inflight = 0
        self.shed_requests = 0
        #: default timeout/retry schedule for outgoing requests; None
        #: keeps the legacy fail-fast semantics (wait until the
        #: simulation drains, partitions raise at send time)
        self.retry_policy: RetryPolicy | None = None
        self.stale_replies = 0
        self.replayed_requests = 0
        self.replies_unsendable = 0
        #: >0 while a handler is executing (possibly pumping nested
        #: requests); the crash injector uses it to fail-stop the site
        #: only at a quiescent instant
        self.handling_depth = 0
        #: the durability plane, when one is attached
        #: (:class:`repro.persistence.journal.SiteJournal`); None keeps
        #: every hook a single attribute test
        self.journal = None
        #: back-pointer set by :class:`repro.mobility.transfer.
        #: MobilityManager` so the journal can snapshot transfer state
        self.mobility = None
        self.incarnation = network.register(self)

    # ------------------------------------------------------------------
    # object registry
    # ------------------------------------------------------------------

    def mint_guid(self) -> str:
        return self.guids.fresh_text()

    def create_object(self, display_name: str = "", **options: Any) -> MROMObject:
        """Create an object with a site-minted identity and this site's
        trust domain."""
        return MROMObject(
            guid=self.mint_guid(),
            domain=self.domain,
            display_name=display_name,
            **options,
        )

    def register_object(self, obj: MROMObject, name: str | None = None) -> MROMObject:
        """Make *obj* reachable from other sites (optionally bound to a
        name in this site's name service)."""
        if obj.guid in self._objects:
            raise NetworkError(f"object {obj.guid} already registered at {self.site_id}")
        self._objects[obj.guid] = obj
        obj.environment["site"] = self.site_id
        obj.environment.setdefault("domain", self.domain)
        if name is not None:
            self.names.bind(name, obj.guid)
        if self.journal is not None:
            self.journal.note_register(obj)
        return obj

    def unregister_object(self, guid: str) -> MROMObject:
        try:
            obj = self._objects.pop(guid)
        except KeyError:
            raise NetworkError(f"object {guid} is not registered at {self.site_id}") from None
        obj.environment.pop("site", None)
        if self.journal is not None:
            self.journal.note_unregister(guid)
        return obj

    def local_object(self, guid: str) -> MROMObject:
        try:
            return self._objects[guid]
        except KeyError:
            raise NetworkError(f"object {guid} is not at {self.site_id}") from None

    def has_object(self, guid: str) -> bool:
        return guid in self._objects

    def objects(self) -> tuple[MROMObject, ...]:
        return tuple(self._objects.values())

    def ref_to(self, obj_or_guid: "MROMObject | str", site: str | None = None) -> RemoteRef:
        """A reference usable locally and passable over the wire."""
        if isinstance(obj_or_guid, MROMObject):
            return RemoteRef(self, self.site_id, obj_or_guid.guid,
                             obj_or_guid.principal.display_name)
        return RemoteRef(self, site or self.site_id, obj_or_guid)

    # ------------------------------------------------------------------
    # protocol plumbing
    # ------------------------------------------------------------------

    def mint_request_id(self) -> str:
        """A fresh logical-request identifier, unique across this site's
        lifetime *and* its previous incarnations (crash-restart safe)."""
        return f"{self.site_id}#{self.incarnation}:{next(self._request_seq)}"

    def add_handler(self, kind: str, handler: Handler) -> None:
        if kind in self._handlers:
            raise NetworkError(f"handler for {kind!r} already installed")
        self._handlers[kind] = handler

    def witness_lamport(self, remote: int) -> None:
        self.guids.witness(remote)

    def receive(self, message: Message) -> None:
        """Transport delivery entry point.

        A reply settles the call registered under its ``reply_to``; a
        reply to a request this site no longer waits for (settled, timed
        out, or a previous incarnation's) is counted as stale and
        dropped. Requests carrying a ``request_id`` are executed **at
        most once**: the reply is recorded and replayed to any retry or
        duplicate delivery of the same logical request.

        Fresh requests pass admission first: with ``inflight_limit``
        set and the window full, the request is shed with a structured
        :class:`~repro.core.errors.OverloadError` (never recorded in the
        served ledger — a retry gets a fresh admission decision). With
        ``service_delay`` > 0, admitted requests execute that many
        simulated seconds after delivery, which is what lets the window
        actually fill under concurrent load.
        """
        if message.kind == "reply":
            call = self._async_calls.get(message.reply_to)
            if call is not None:
                call.on_reply(message)
            else:
                self.stale_replies += 1
            return
        if message.request_id and message.request_id in self._served:
            self._send_reply(
                message, self._replay(message.kind, message.request_id)
            )
            return
        if message.request_id and message.request_id in self._in_progress:
            # a duplicate of a request still in its service window: the
            # handler ran (or will run) exactly once for the original,
            # whose reply is already on its way — answer with silence
            self.inflight_duplicates += 1
            tel = _telemetry.ACTIVE
            if tel is not None:
                tel.metrics.counter("rmi.inflight_dups").inc()
            return
        handler = self._handlers.get(message.kind)
        if handler is None:
            self._reply(message, _unknown_kind(message.kind))
            return
        if not self.try_admit(message.kind, src=message.src):
            self._shed(message)
            return
        if message.request_id:
            self._in_progress.add(message.request_id)
        if self.service_delay > 0:
            self.network.simulator.schedule(
                self.service_delay,
                lambda: self._serve(message, handler),
                label=f"serve {message.kind} @ {self.site_id}",
            )
        else:
            self._serve(message, handler)

    # -- admission control ----------------------------------------------

    def try_admit(self, kind: str = "", src: str = "") -> bool:
        """Claim one slot of the inflight window (True = admitted).

        Every admission must be balanced by one :meth:`release`; the
        request paths do this when the reply goes out. The gateway
        claims a slot per external request through the same window, so
        TCP-borne and simulation-borne load share one budget.
        """
        if self.inflight_limit is not None and self.inflight >= self.inflight_limit:
            self.shed_requests += 1
            tel = _telemetry.ACTIVE
            if tel is not None:
                tel.metrics.counter("site.shed").inc()
                tel.events.emit(
                    "site.shed", time=self.network.now, site=self.site_id,
                    kind=kind, src=src, inflight=self.inflight,
                    limit=self.inflight_limit,
                )
            return False
        self.inflight += 1
        return True

    def release(self) -> None:
        """Return one admission slot (the request has been replied to)."""
        self.inflight -= 1

    def overloaded_error(self) -> OverloadError:
        return OverloadError(
            f"site {self.site_id} admission window full "
            f"({self.inflight}/{self.inflight_limit})"
        )

    def _shed(self, message: Message) -> None:
        """Refuse *message* with a structured overload reply.

        Deliberately bypasses the served ledger: nothing executed, so a
        retry of the same logical request deserves a fresh admission
        decision instead of an eternally replayed refusal.
        """
        self._send_reply(message, _error_envelope(self.overloaded_error()))

    def _serve(self, message: Message, handler: Handler) -> None:
        """Execute one admitted request and send its reply."""
        san = _sanitizer.ACTIVE
        hb_task = None
        if san is not None:
            # the serving activity happens-after the send that carried
            # the request; its final clock is published under the same
            # msg id so the requester's reply absorption closes the loop
            hb_task = san.begin_serve(
                message.msg_id, label=f"serve.{message.kind}@{self.site_id}"
            )
        try:
            self._execute(message, handler)
        finally:
            if san is not None:
                san.end_serve(message.msg_id, hb_task)
            if message.request_id:
                self._in_progress.discard(message.request_id)
            self.release()

    def _execute(
        self, message: Message, handler: Handler, batched: bool = False
    ) -> dict:
        """Run *handler* on one request and conclude it: its
        ``serve.<kind>`` span, ``handling_depth``, an
        :class:`~repro.core.errors.MROMError` turned into an error
        envelope, and the envelope recorded (and, unless *batched*,
        sent) by :meth:`_reply` inside the span. Returns the envelope."""
        tel = _telemetry.ACTIVE
        span = None
        if tel is not None:
            attrs = {
                "site": self.site_id,
                "src": message.src,
                "msg_id": message.msg_id,
                "sim_time": self.network.now,
                "verdict": message.verdict,
            }
            if batched:
                attrs["batched"] = True
            # re-activate the caller's wire context: the server span
            # parents to the remote rmi span, stitching the trace across
            # the site boundary (a batched request's own context, else
            # the frame's serve.batch span)
            span = tel.begin_span(
                f"serve.{message.kind}",
                attrs=attrs,
                parent=TraceContext.from_wire(extract_trace(message.payload)),
            )
            tel.metrics.counter("rmi.served").inc()
        self.handling_depth += 1
        error: BaseException | None = None
        try:
            try:
                envelope = {
                    "ok": True, "result": self.export_value(handler(message)),
                }
            except MROMError as exc:
                error = exc
                envelope = _error_envelope(exc)
            self._reply(message, envelope, send=not batched)
        except BaseException as exc:
            if error is None:
                error = exc
            raise
        finally:
            self.handling_depth -= 1
            if span is not None:
                if error is not None:
                    span.set(error=type(error).__name__)
                tel.end_span(span, status="ok" if error is None else "error")
        return envelope

    def _reply(self, request: Message, envelope: Any, send: bool = True) -> None:
        """Record *envelope* as *request*'s outcome, then send it.

        The served ledger and the journal both take it before the reply
        can reach the wire: even if the reply is lost, a retry replays
        the same outcome instead of re-executing the handler, also on
        the next incarnation (a request-id-less legacy request still
        journals the state it mutated). A batched request is not sent:
        its envelope travels in the frame's reply.
        """
        if request.request_id:
            self._remember(request.request_id, envelope)
        if self.journal is not None:
            self.journal.note_served(
                request.kind, request.request_id, envelope, request.payload
            )
        if send:
            self._send_reply(request, envelope)

    def _remember(self, request_id: str, envelope: Any) -> None:
        """Put one outcome in the served ledger, evicting the oldest
        beyond ``_served_cap``."""
        self._served[request_id] = envelope
        self._served.move_to_end(request_id)
        while len(self._served) > self._served_cap:
            self._served.popitem(last=False)

    def _replay(self, kind: str, request_id: str) -> Any:
        """The recorded outcome of an already-served request."""
        self.replayed_requests += 1
        tel = _telemetry.ACTIVE
        if tel is not None:
            tel.metrics.counter("rmi.dedup_hits").inc()
            tel.events.emit(
                "rmi.replay", time=self.network.now, site=self.site_id,
                kind=kind, request_id=request_id,
            )
        return self._served[request_id]

    def _send_reply(self, request: Message, payload: Any) -> None:
        try:
            self.network.send(
                self.site_id,
                request.src,
                "reply",
                payload,
                reply_to=request.msg_id,
                lamport=self.guids.tick(),
            )
        except NetworkError:
            # the requester's link died between request and reply; it
            # will time out and retry — never let a reply-path partition
            # unwind an unrelated caller's simulation pump
            self.replies_unsendable += 1

    def request(
        self,
        dst: str,
        kind: str,
        payload: Any,
        policy: RetryPolicy | None = None,
    ) -> Any:
        """Send a request and pump the simulator until its reply arrives.

        The request is one :class:`~repro.net.rmi.BlockingCall` — the
        same state machine as :meth:`request_async` — and a pump until
        it settles. With a :class:`RetryPolicy` (per-call, or the site's
        default ``retry_policy``), each attempt waits ``policy.timeout``
        simulated seconds and failed attempts (timeouts and sheds) back
        off exponentially. Every request carries a ``request_id``, shared
        by all its attempts, so the receiver executes it at most once.
        Without a policy: one attempt, pumped until the reply lands or
        the simulation drains.

        The reply is decoded by :meth:`_decode_reply`: remote failures
        raise :class:`~repro.core.errors.RemoteInvocationError`, except
        the typed refusals (:class:`~repro.core.errors.OverloadError`,
        :class:`~repro.core.errors.StaleLeaseError`).

        With telemetry enabled, the whole logical request is one client
        span (``rmi.<kind>``) carrying the ``rmi.timeout``/``rmi.retry``
        events, and the span's trace context is stamped into the request
        envelope (:data:`~repro.net.marshal.TRACE_FIELD`) so the serving
        site joins the same trace; every retry carries the identical
        context.
        """
        san = _sanitizer.ACTIVE
        if san is not None:
            # the pump parks this site on dst until the reply lands — a
            # sync-wait edge; outstanding edges forming a ring is the
            # dynamic witness the cycle.* rules must have predicted
            san.wait_begin(self.site_id, dst)
        tel = _telemetry.ACTIVE
        span = None
        if tel is not None:
            span = tel.begin_span(
                f"rmi.{kind}",
                attrs={"src": self.site_id, "dst": dst, "sim_time": self.network.now},
            )
            tel.metrics.counter("rmi.requests").inc()
            payload = attach_trace(payload, tel.context_of(span).to_wire())
        try:
            future: BatchFuture = BatchFuture()
            call = BlockingCall(
                self, dst, kind, self.export_value(payload),
                policy if policy is not None else self.retry_policy, future,
            )
            call.span = span
            call.start()
            try:
                self.network.run_while(lambda: not future.done)
            finally:
                if not future.done:  # drained, or the pump raised
                    call.abandon(NetworkError(
                        f"no reply for {kind!r} from {dst!r} (simulation drained)"
                    ))
            reply = future.result()
            if san is not None:
                # join the serving task's published clock: everything the
                # handler did happens-before this caller's next step
                san.absorb_reply(reply.reply_to)
            result = self._decode_reply(reply.payload)
        except BaseException as exc:
            if span is not None:
                span.set(error=type(exc).__name__)
                tel.end_span(span, status="error")
            raise
        finally:
            if san is not None:
                san.wait_end(self.site_id, dst)
        if span is not None:
            span.set(sim_time_done=self.network.now)
            tel.end_span(span)
        return result

    def request_async(
        self,
        dst: str,
        kind: str,
        payload: Any,
        policy: RetryPolicy | None = None,
    ) -> BatchFuture:
        """Send a request without pumping; returns a future.

        The future settles when the reply is delivered during *any*
        simulator pump — :meth:`wait`, a concurrent synchronous call, or
        an explicit ``network.run()``. With a :class:`RetryPolicy`
        (per-call, or the site's default), timeouts and retries are
        scheduled simulator events sharing one ``request_id``, exactly as
        deterministic as the blocking path. Remote failures settle the
        future with the typed rebuilt error (an
        :class:`~repro.core.errors.OverloadError` for shed requests).

        With telemetry enabled the call is counted and the *current*
        trace context (if any) is stamped into the envelope; no client
        span is opened — an async call is not an interval on this
        site's context stack.
        """
        policy = policy if policy is not None else self.retry_policy
        tel = _telemetry.ACTIVE
        if tel is not None:
            tel.metrics.counter("rmi.async.requests").inc()
            context = tel.current_context()
            if context is not None:
                payload = attach_trace(payload, context.to_wire())
        future: BatchFuture = BatchFuture()
        call = AsyncCall(
            self, dst, kind, self.export_value(payload), policy, future
        )
        call.start()
        return future

    def wait(self, future: BatchFuture) -> Any:
        """Pump the simulator until *future* settles; return its result.

        Raises :class:`~repro.core.errors.NetworkError` if the
        simulation drains without the reply (mirrors the policy-free
        blocking path); the call is unregistered, since no reply can
        reach it any more, and its future is left unsettled.
        """
        self.network.run_while(lambda: not future.done)
        if not future.done:
            self._abandon([future])
            raise NetworkError(
                "simulation drained before the request resolved"
            )
        return future.result()

    def wait_all(self, futures: Sequence[BatchFuture]) -> list:
        """Pump until every future settles; returns their results
        (raising the first stored failure encountered)."""
        self.network.run_while(
            lambda: any(not future.done for future in futures)
        )
        unresolved = [future for future in futures if not future.done]
        if unresolved:
            self._abandon(unresolved)
            raise NetworkError(
                f"simulation drained with {len(unresolved)} request(s) unresolved"
            )
        return [future.result() for future in futures]

    def _abandon(self, futures: Sequence[BatchFuture]) -> None:
        """Unregister the calls behind *futures* after a drain."""
        calls = {
            call for call in self._async_calls.values() if call.future in futures
        }
        for call in calls:
            call.abandon()

    def _decode_reply(self, body: Any) -> Any:
        """Decode one reply envelope as a blocking caller sees it."""
        if isinstance(body, Mapping) and body.get("ok") is False:
            if body.get("error") == "OverloadError":
                # a shed is a structured refusal, not a remote crash:
                # surface it under its own type so callers can back off
                raise OverloadError(body.get("message", "remote overloaded"))
            if body.get("error") == "StaleLeaseError":
                # a stale directory lease is likewise a pre-execution
                # refusal; the typed error carries the current placement
                # generation (embedded in the message) so the caller can
                # re-resolve and retry safely
                raise StaleLeaseError(body.get("message", "stale directory lease"))
            raise RemoteInvocationError(
                body.get("message", "remote failure"),
                remote_type=body.get("error", ""),
            )
        if isinstance(body, Mapping) and "result" in body:
            return self.import_value(body["result"])
        return self.import_value(body)

    # ------------------------------------------------------------------
    # value conversion at the boundary
    # ------------------------------------------------------------------

    def export_value(self, value: Any) -> Any:
        """Turn local object identities into wire references (recursively)."""
        if type(value) in _PLAIN:
            return value
        if isinstance(value, MROMObject):
            site = self.site_id if value.guid in self._objects else ""
            return Reference(value.guid, site)
        if isinstance(value, RemoteRef):
            return Reference(value.guid, value.site)
        if isinstance(value, ItemHandle):
            # handles are process-local capabilities; on the wire they
            # become tokens the owning object re-validates on use
            return value.token()
        if isinstance(value, (list, tuple)):
            export = self.export_value
            return [
                element if type(element) in _PLAIN else export(element)
                for element in value
            ]
        if isinstance(value, dict):
            export = self.export_value
            return {
                key: val if type(val) in _PLAIN else export(val)
                for key, val in value.items()
            }
        return value

    def import_value(self, value: Any) -> Any:
        """Turn wire references into local objects or remote proxies."""
        if type(value) in _PLAIN:
            return value
        if isinstance(value, Reference):
            if value.site == self.site_id and value.guid in self._objects:
                return self._objects[value.guid]
            return RemoteRef(self, value.site or self.site_id, value.guid)
        if isinstance(value, list):
            import_ = self.import_value
            return [
                element if type(element) in _PLAIN else import_(element)
                for element in value
            ]
        if isinstance(value, dict):
            import_ = self.import_value
            return {
                key: val if type(val) in _PLAIN else import_(val)
                for key, val in value.items()
            }
        return value

    # ------------------------------------------------------------------
    # caller principals on the wire
    # ------------------------------------------------------------------

    def _caller_payload(self, caller: Principal | None) -> dict:
        principal = caller if caller is not None else self.principal
        return {
            "guid": principal.guid,
            "domain": principal.domain,
            "name": principal.display_name,
        }

    @staticmethod
    def _caller_from(payload: Any) -> Principal:
        if not isinstance(payload, Mapping):
            return Principal(guid="mrom:anonymous")
        return Principal(
            guid=str(payload.get("guid", "mrom:anonymous")),
            domain=str(payload.get("domain", "")),
            display_name=str(payload.get("name", "")),
        )

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------

    def remote_invoke(
        self,
        dst: str,
        guid: str,
        method: str,
        args: Sequence[Any] = (),
        caller: Principal | None = None,
        policy: RetryPolicy | None = None,
    ) -> Any:
        return self.request(
            dst,
            "invoke",
            {
                "target": guid,
                "method": method,
                "args": list(args),
                "caller": self._caller_payload(caller),
            },
            policy=policy,
        )

    def remote_get_data(
        self,
        dst: str,
        guid: str,
        name: str,
        caller: Principal | None = None,
        policy: RetryPolicy | None = None,
    ) -> Any:
        return self.request(
            dst,
            "get_data",
            {"target": guid, "name": name, "caller": self._caller_payload(caller)},
            policy=policy,
        )

    def remote_describe(
        self,
        dst: str,
        guid: str,
        caller: Principal | None = None,
        policy: RetryPolicy | None = None,
    ) -> dict:
        return self.request(
            dst,
            "describe",
            {"target": guid, "caller": self._caller_payload(caller)},
            policy=policy,
        )

    def remote_invoke_async(
        self,
        dst: str,
        guid: str,
        method: str,
        args: Sequence[Any] = (),
        caller: Principal | None = None,
        policy: RetryPolicy | None = None,
    ) -> BatchFuture:
        return self.request_async(
            dst,
            "invoke",
            {
                "target": guid,
                "method": method,
                "args": list(args),
                "caller": self._caller_payload(caller),
            },
            policy=policy,
        )

    def remote_get_data_async(
        self,
        dst: str,
        guid: str,
        name: str,
        caller: Principal | None = None,
        policy: RetryPolicy | None = None,
    ) -> BatchFuture:
        return self.request_async(
            dst,
            "get_data",
            {"target": guid, "name": name, "caller": self._caller_payload(caller)},
            policy=policy,
        )

    def remote_describe_async(
        self,
        dst: str,
        guid: str,
        caller: Principal | None = None,
        policy: RetryPolicy | None = None,
    ) -> BatchFuture:
        return self.request_async(
            dst,
            "describe",
            {"target": guid, "caller": self._caller_payload(caller)},
            policy=policy,
        )

    def batch(self, dst: str, policy: RetryPolicy | None = None) -> RequestBatch:
        """A batch coalescing requests to *dst* into one frame per flush."""
        return RequestBatch(self, dst, policy=policy)

    def send_queue(self, policy: RetryPolicy | None = None) -> SendQueue:
        """A queue coalescing requests per destination (one frame each)."""
        return SendQueue(self, policy=policy)

    def batched_ref(self, ref: RemoteRef, batch: RequestBatch) -> BatchedRef:
        """Bind an existing reference to a batch (calls become futures)."""
        return BatchedRef(ref, batch)

    def remote_resolve(self, dst: str, path: str) -> RemoteRef:
        guid = self.request(dst, "resolve", {"path": path})
        return RemoteRef(self, dst, guid)

    def ping(self, dst: str) -> float:
        """Round-trip a tiny message; returns the simulated RTT."""
        start = self.network.now
        self.request(dst, "ping", {})
        return self.network.now - start

    def mount_remote_names(self, prefix: str, dst: str) -> None:
        """Federate: resolve ``prefix/...`` through site *dst*."""
        self.names.mount(prefix, _RemoteNames(self, dst))

    # ------------------------------------------------------------------
    # server side
    # ------------------------------------------------------------------

    def _handle_invoke(self, message: Message) -> Any:
        body = message.payload
        obj = self.local_object(str(body["target"]))
        caller = self._caller_from(body.get("caller"))
        args = self.import_value(body.get("args", []))
        san = _sanitizer.ACTIVE
        if san is not None:
            san.invoke(obj, str(body["method"]))
        return obj.invoke(str(body["method"]), args, caller=caller)

    def _handle_get_data(self, message: Message) -> Any:
        body = message.payload
        obj = self.local_object(str(body["target"]))
        caller = self._caller_from(body.get("caller"))
        san = _sanitizer.ACTIVE
        if san is not None:
            san.data_read(obj, str(body["name"]))
        return obj.get_data(str(body["name"]), caller=caller)

    def _handle_describe(self, message: Message) -> dict:
        body = message.payload
        obj = self.local_object(str(body["target"]))
        caller = self._caller_from(body.get("caller"))
        return describe_object(obj, viewer=caller).to_mapping()

    def _handle_resolve(self, message: Message) -> str:
        path = str(message.payload.get("path", ""))
        guid = self.names.try_resolve(path)
        if guid is None:
            raise NamingError(f"{self.site_id} cannot resolve {path!r}")
        return guid

    def _handle_ping(self, message: Message) -> dict:
        return {"site": self.site_id, "time": self.network.now}

    def _handle_batch(self, message: Message) -> dict:
        """Serve one coalesced frame of logical requests.

        Each inner request carries the same per-request ``request_id`` an
        individual send would, and shares the site's ``_served`` ledger:
        a logical request is executed **at most once** even when its
        frame is retried, duplicated, or its requests are later re-sent
        individually. Inner failures become per-request error envelopes —
        one bad request does not poison its neighbours. The frame itself
        is also deduplicated by :meth:`receive` via its own request_id.
        """
        body = message.payload
        entries = body.get("requests") if isinstance(body, Mapping) else None
        if not isinstance(entries, list):
            raise NetworkError("batch payload must carry a 'requests' list")
        tel = _telemetry.ACTIVE
        if tel is not None:
            tel.metrics.counter("rmi.batch.frames").inc()
            tel.metrics.counter("rmi.batch.served").inc(len(entries))
        return {
            "replies": [self._serve_batched(message, entry) for entry in entries]
        }

    def _serve_batched(self, frame: Message, entry: Any) -> dict:
        """Execute (or replay) one logical request of a batch frame."""
        if not isinstance(entry, Mapping):
            return _error_envelope(NetworkError(f"malformed batch entry {entry!r}"))
        kind = str(entry.get("kind", ""))
        request_id = str(entry.get("request_id", ""))
        if request_id and request_id in self._served:
            return self._replay(kind, request_id)
        inner = Message(
            kind=kind,
            src=frame.src,
            dst=frame.dst,
            payload=entry.get("payload"),
            msg_id=frame.msg_id,
            reply_to=None,
            lamport=frame.lamport,
            size=0,
            request_id=request_id,
            verdict=frame.verdict,
        )
        handler = self._handlers.get(kind)
        if handler is None or kind == "batch":  # no nested frames
            envelope = _unknown_kind(kind)
            self._reply(inner, envelope, send=False)
            return envelope
        return self._execute(inner, handler, batched=True)

    def __repr__(self) -> str:
        return (
            f"Site({self.site_id!r}, domain={self.domain!r}, "
            f"{len(self._objects)} objects)"
        )


def _error_envelope(error: Exception) -> dict:
    return {"ok": False, "error": type(error).__name__, "message": str(error)}


def _unknown_kind(kind: str) -> dict:
    return _error_envelope(NetworkError(f"unknown kind {kind!r}"))


class _RemoteNames:
    """Mount adapter: resolve names through a remote site."""

    __slots__ = ("_site", "_dst")

    def __init__(self, site: Site, dst: str):
        self._site = site
        self._dst = dst

    def resolve(self, path: str) -> str:
        return self._site.request(self._dst, "resolve", {"path": path})

    def list_bindings(self, prefix: str = "") -> list[tuple[str, str]]:
        # remote enumeration is deliberately not supported: a site
        # advertises resolution, not its whole directory
        return []
