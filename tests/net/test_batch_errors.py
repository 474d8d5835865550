"""Batched RMI error envelopes: a batched future fails as the same
request sent alone would.

Each inner reply of a batch frame is decoded by the blocking call's own
reply decoder, so the error type a caller catches does not depend on
whether the request rode in a frame. A frame whose reply cannot be
matched to its requests fails every future with a ``NetworkError``.
"""

from __future__ import annotations

import pytest

from repro.core import Principal, owner_only
from repro.core.errors import NetworkError, RemoteInvocationError

from ..faults.conftest import make_sites

pytestmark = pytest.mark.fastpath

OWNER = Principal("mrom://a/7.7", "a", "owner")


def guarded_service(site):
    obj = site.create_object(display_name="guarded")
    obj.define_fixed_data("hits", 0)
    obj.define_fixed_method(
        "bump",
        "n = self.get('hits') + 1\nself.set('hits', n)\nreturn n",
    )
    obj.define_fixed_method("secret", "return 42", acl=owner_only(OWNER))
    obj.seal()
    site.register_object(obj)
    return obj


def sync_error(site, dst, guid, method):
    with pytest.raises(RemoteInvocationError) as caught:
        site.remote_invoke(dst, guid, method)
    return caught.value


class TestBatchErrorEnvelopes:
    def test_a_denial_fails_only_its_own_future_like_the_sync_call(self):
        _network, sites = make_sites(seed=1)
        obj = guarded_service(sites["b"])
        expected = sync_error(sites["a"], "b", obj.guid, "secret")
        batch = sites["a"].batch("b")
        before = batch.invoke(obj.guid, "bump")
        denied = batch.invoke(obj.guid, "secret")
        after = batch.invoke(obj.guid, "bump")
        allowed = batch.invoke(obj.guid, "secret", caller=OWNER)
        batch.flush()
        assert before.result() == 1 and after.result() == 2
        assert allowed.result() == 42
        error = denied.error()
        assert type(error) is type(expected)
        assert error.remote_type == expected.remote_type == "AccessDeniedError"
        with pytest.raises(RemoteInvocationError):
            denied.result()

    def test_a_method_error_keeps_its_remote_type(self):
        _network, sites = make_sites(seed=2)
        obj = guarded_service(sites["b"])
        expected = sync_error(sites["a"], "b", obj.guid, "no_such")
        batch = sites["a"].batch("b")
        missing = batch.invoke(obj.guid, "no_such")
        batch.flush()
        assert type(missing.error()) is type(expected)
        assert missing.error().remote_type == "MethodNotFoundError"

    def test_a_malformed_frame_reply_fails_every_future(self):
        _network, sites = make_sites(seed=3)
        obj = guarded_service(sites["b"])
        # a server whose batch handler answers with the wrong shape
        sites["b"]._handlers["batch"] = lambda message: {"replies": [1]}
        batch = sites["a"].batch("b")
        futures = [batch.invoke(obj.guid, "bump") for _ in range(3)]
        with pytest.raises(NetworkError, match="malformed batch reply"):
            batch.flush()
        for future in futures:
            assert type(future.error()) is NetworkError
        assert obj.get_data("hits", caller=obj.owner) == 0

    def test_a_malformed_envelope_fails_only_its_future(self):
        _network, sites = make_sites(seed=4)
        obj = guarded_service(sites["b"])
        sites["b"]._handlers["batch"] = lambda message: {
            "replies": [{"ok": True, "result": 7}, "garbage"]
        }
        batch = sites["a"].batch("b")
        good = batch.invoke(obj.guid, "bump")
        bad = batch.invoke(obj.guid, "bump")
        batch.flush()
        assert good.result() == 7
        assert type(bad.error()) is NetworkError
