"""The four workloads: their worlds, their seeded op streams, their checks.

Every workload is a closed loop: a caller sends its next op only after
the previous one returned. An op is a tuple
``(fn, args, requests, kind, check, info)``: the loop times ``fn(*args)``
and, after the clock has stopped, calls ``check(result, info)``, which
returns False for a wrong result. ``requests`` is how many logical
requests the op carries (8 for an async window, else 1).

Op callables look the program's entry points up at call time (no bound
method of a traced class is captured in a table), so the tracer's
rebinding reaches every call.

Each stream is made from the seed alone and is replayed identically for
every set-up repetition, so the world the timed phase starts from is the
same on every run with that seed.
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import subprocess
import sys
import tempfile
from collections.abc import Mapping
from pathlib import Path

from repro.core import AccessControlList, Kind, MROMObject, Permission, Principal, allow_all
from repro.load.profile import DEFAULT_PROFILE
from repro.mobility import MobilityManager
from repro.net import LAN, Network, RemoteRef, RetryPolicy, Site, TcpGatewayClient
from repro.persistence import FileStore, WriteAheadLog, attach_journal, recover_site
from repro.sim import Simulator


#: op kinds, for the per-kind latency lines
KINDS = ("bump", "ext", "guarded", "tower", "mutate", "ping", "echo", "get_data",
         "describe", "window", "hop")
K = {name: code for code, name in enumerate(KINDS)}

BUMP_BODY = "self.set('count', self.get('count') + args[0])\nreturn self.get('count')"
ECHO_BODY = "return args[0]"
EXT_BODIES = ("return args[0] + 1", "return 1 + args[0]")
GUARDED_BODY = "return args[0] * 2"
GUARDED_PRE = "return args[0] >= 0"
GUARDED_POST = "return result >= 0"
# Figure 1's two meta-invoke levels: a counting level under an auditing
# level; both pass the result through unchanged
TOWER_LEVELS = (
    "self.set('invocations', self.get('invocations') + 1)\nreturn ctx.proceed()",
    "self.set('last_method', ctx.target)\nreturn ctx.proceed()",
)

OWNER = Principal("mrom://bench/owner", "bench", "owner")
OUTSIDER = "mrom://bench/outsider"
#: the remote mix, (kind, share), from the program's own traffic model
#: (DEFAULT_PROFILE, the HADAS usage model: invoke .70, get_data .20,
#: describe .08, migrate .02): its invoke share split evenly between
#: bump and echo, and its migrate share given to ping, as the remote
#: workloads that use this mix do not migrate
REMOTE_MIX = (
    ("bump", DEFAULT_PROFILE.invoke / 2 / DEFAULT_PROFILE.total),
    ("echo", DEFAULT_PROFILE.invoke / 2 / DEFAULT_PROFILE.total),
    ("get_data", DEFAULT_PROFILE.get_data / DEFAULT_PROFILE.total),
    ("describe", DEFAULT_PROFILE.describe / DEFAULT_PROFILE.total),
    ("ping", DEFAULT_PROFILE.migrate / DEFAULT_PROFILE.total),
)
#: on rmi_sim, the share of ops that are async windows, and their size
WINDOW_SHARE, WINDOW_SIZE = 0.25, 8
ECHO_MIN, ECHO_MAX = 16, 16 * 1024
PAYLOAD_POOL = 64


def zipf_draws(rng: random.Random, n: int, s: float, count: int) -> list[int]:
    """*count* indices in [0, n) in exactly the Zipf(s) shares of their
    ranks, over a seeded permutation of the ranks, in seeded order."""
    order = list(range(n))
    rng.shuffle(order)
    weights = [1.0 / rank ** s for rank in range(1, n + 1)]
    total = sum(weights)
    return stratified(rng, [(index, weight / total) for index, weight in zip(order, weights)],
                      count)


def payload_pool(rng: random.Random, count: int, low: int, high: int) -> list[bytes]:
    """*count* random payloads whose sizes are the log-uniform quantiles
    of [low, high]: every seed gets the same sizes in its own order, so
    seeds differ in content and order, not in how much data they move."""
    sizes = [int(low * (high / low) ** ((index + 0.5) / count)) for index in range(count)]
    rng.shuffle(sizes)
    return [rng.randbytes(size) for size in sizes]


def stratified(rng: random.Random, mix, count: int) -> list:
    """*count* kinds in exactly the shares of *mix*, in seeded order."""
    kinds = []
    for kind, share in mix:
        kinds += [kind] * round(share * count)
    kinds = (kinds + [mix[0][0]] * count)[:count]
    rng.shuffle(kinds)
    return kinds


def member_acl(callers_domain: str) -> AccessControlList:
    """16 named outsiders, then the callers' domain: a Match miss walks
    the whole list, the PERF-10 shape."""
    acl = AccessControlList()
    for index in range(16):
        acl.grant(f"mrom://bench/member{index}", Permission.INVOKE)
    return acl.grant(f"domain:{callers_domain}", Permission.INVOKE)


def counter_object(obj: MROMObject, blob: bytes = b"") -> MROMObject:
    """The served object of the remote workloads: a counter plus echo."""
    obj.define_fixed_data("count", 0)
    if blob:
        obj.define_fixed_data("blob", blob, kind=Kind.ANY)
    obj.define_fixed_method("bump", BUMP_BODY)
    obj.define_fixed_method("echo", ECHO_BODY)
    return obj.seal()


def invoke_on(obj: MROMObject, method: str, args: list, caller: Principal):
    return obj.invoke(method, args, caller=caller)


def peak_rss_kb() -> int:
    """This process's peak resident memory."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


class Workload:
    """A workload's constants and seed; ``build()`` makes its world."""

    name: str
    #: run the workload's processes on one CPU (see run.main)
    ONE_CPU = False

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root


class World:
    """What the runner needs of a built workload; the defaults fit a
    world that lives in this process."""

    #: how requests travel: None (in-process), "sim" or "tcp"
    wire: str | None = None
    network: Network | None = None

    def __init__(self):
        #: the caller's endless op stream (see run.run_segment)
        self.stream = None

    def all_objects(self) -> list[MROMObject]:
        """Every object served, for the invocation-cache census."""
        return []

    def counters(self) -> dict[str, int]:
        """Simulated messages sent and kernel events processed so far."""
        if self.network is None:
            return {"messages": 0, "events": 0}
        return {"messages": self.network.messages_sent,
                "events": self.network.simulator.events_processed}

    def maintain(self) -> None:
        """Work between timed rounds (the clock is stopped)."""

    def trace(self, on: bool) -> dict | None:
        """Start or stop tracing in other processes serving the workload."""
        return None

    def peak_rss_kb(self) -> int:
        """Peak resident memory of the processes serving the workload."""
        return peak_rss_kb()

    def verify(self) -> list[str]:
        raise NotImplementedError

    def close(self) -> None:
        pass


# -- checks (run after each op's clock stops) --------------------------------


def check_equal(result, expected) -> bool:
    return result == expected


def check_mapping(result, _info) -> bool:
    return isinstance(result, Mapping)


def check_int(result, _info) -> bool:
    return type(result) is int


def check_ping(result, _info) -> bool:
    return isinstance(result, (float, Mapping))


def check_describe(result, guid) -> bool:
    return isinstance(result, Mapping) and result.get("guid") == guid


def check_window(results, checks) -> bool:
    return all(check(result, info) for result, (check, info) in zip(results, checks))


class Acked:
    """Acked bump amounts per object; the counter totals must match."""

    def __init__(self):
        self.total: dict[str, int] = {}

    def check(self, result, info) -> bool:
        guid, amount = info
        self.total[guid] = self.total.get(guid, 0) + amount
        return type(result) is int and result >= amount

    def check_exact(self, result, info) -> bool:
        """One caller and no reordering: the reply is the new count."""
        guid, amount = info
        value = self.total.get(guid, 0) + amount
        self.total[guid] = value
        return result == value


def verify_counts(acked: Acked, counts: Mapping[str, int]) -> list[str]:
    return [
        f"{guid}: count {counts.get(guid)} != acked bumps {acked.total.get(guid, 0)}"
        for guid in counts
        if counts[guid] != acked.total.get(guid, 0)
    ]


def remote_draws(rng: random.Random, count: int, objects: int, windows: bool):
    """*count* ops of the remote mix as plain data: (kind, object index,
    argument), or ("window", [WINDOW_SIZE such draws]).

    With *windows*, WINDOW_SHARE of the ops are async windows. The sync
    requests and the windowed ones each follow the mix exactly, and each
    class cycles through the echo payloads evenly, so every seed asks
    for the same requests of each kind and size; the order and the
    targets differ.
    """
    pool = payload_pool(rng, PAYLOAD_POOL, ECHO_MIN, ECHO_MAX)
    shapes = stratified(rng, (("one", 1 - WINDOW_SHARE), ("window", WINDOW_SHARE)), count) \
        if windows else ["one"] * count

    def requests(total: int):
        kinds, payloads = stratified(rng, REMOTE_MIX, total), itertools.cycle(pool)
        for kind in kinds:
            target = rng.randrange(objects)
            if kind == "bump":
                yield kind, target, rng.randrange(1, 4)
            elif kind == "echo":
                yield kind, target, next(payloads)
            else:
                yield kind, target, None

    single = requests(shapes.count("one"))
    windowed = requests(WINDOW_SIZE * shapes.count("window"))
    return [("window", [next(windowed) for _ in range(WINDOW_SIZE)]) if shape == "window"
            else next(single) for shape in shapes]


# -- invoke_local ---------------------------------------------------------------


class InvokeLocal(Workload):
    """One caller thread invoking in-process on 64 objects.

    Why: core does almost all of the work and the wire none; a cache-tier
    change shows here, and the 2% mutations expose one that speeds reads
    at the cost of writes.
    """

    name = "invoke_local"
    OBJECTS = 56  # plus TOWERS objects carrying Figure 1's two-level tower
    TOWERS = 8
    #: the hottest object sees more (caller, method) pairs than its
    #: COMPILED_CAP of 256: about 440 of the 768 possible
    CALLERS = 256
    #: the Zipf exponent of objects and callers; the method is uniform
    SKEW = 1.1
    METHODS = ("bump", "ext", "guarded")
    MUTATION_SHARE = 0.02
    TABLE = SEGMENT_OPS = 1 << 13
    WARMUP_OPS = 10_000
    PROBE_OPS = 4_000

    def build(self) -> "LocalWorld":
        return LocalWorld(self)


class LocalWorld(World):
    def __init__(self, workload: InvokeLocal):
        super().__init__()
        self.acked = Acked()
        self.callers = [
            Principal(f"mrom://bench/caller{index}", "bench.callers", f"caller{index}")
            for index in range(workload.CALLERS)
        ]
        self.objects: list[MROMObject] = []
        self.mutations = []
        for index in range(workload.OBJECTS + workload.TOWERS):
            obj, mutations = self._make(index, tower=index >= workload.OBJECTS)
            self.objects.append(obj)
            self.mutations.append(mutations)
        self.stream = self._stream(workload)

    @staticmethod
    def _make(index: int, tower: bool):
        obj = MROMObject(
            guid=f"mrom:obj:bench{index}", domain="bench", display_name=f"obj{index}",
            owner=OWNER, extensible_meta=tower,
        )
        guarded_acl = member_acl("bench.callers")
        obj.define_fixed_data("count", 0)
        obj.define_fixed_data("invocations", 0)
        obj.define_fixed_data("last_method", "")
        obj.define_fixed_method("bump", BUMP_BODY, acl=member_acl("bench.callers"))
        obj.define_fixed_method(
            "guarded", GUARDED_BODY, pre=GUARDED_PRE, post=GUARDED_POST, acl=guarded_acl,
        )
        obj.seal()
        ext_acl = member_acl("bench.callers").grant(OWNER.guid, Permission.META)
        obj.invoke("addMethod", ["ext", EXT_BODIES[0], {"acl": ext_acl.describe()}],
                   caller=OWNER)
        if tower:
            for level in TOWER_LEVELS:
                obj.invoke(
                    "addMethod", ["invoke", level, {"acl": allow_all().describe()}],
                    caller=OWNER,
                )
        state = {"body": 0, "scratch": False, "granted": False}

        def set_method():
            _description, handle = obj.invoke("getMethod", ["ext"], caller=OWNER)
            state["body"] ^= 1
            return obj.invoke(
                "setMethod", [handle, {"body": EXT_BODIES[state["body"]]}], caller=OWNER,
            )

        def toggle_data():
            state["scratch"] = not state["scratch"]
            if state["scratch"]:
                return obj.invoke("addDataItem", ["scratch", index], caller=OWNER)
            return obj.invoke("deleteDataItem", ["scratch"], caller=OWNER)

        def edit_acl():
            state["granted"] = not state["granted"]
            if state["granted"]:
                guarded_acl.grant(OUTSIDER, Permission.INVOKE)
            else:
                guarded_acl.remove_subject(OUTSIDER)
            return {"acl_version": guarded_acl.version}

        return obj, (set_method, toggle_data, edit_acl)

    def _stream(self, workload: InvokeLocal):
        # the table's make-up (op kinds, object and caller ranks, methods,
        # their pairing, arguments) is the same for every seed, so every
        # seed loads the compiled tables alike; the seed picks which plain
        # object, tower object and caller holds each rank, and the order
        shape = random.Random("invoke_local")
        rng = random.Random(f"invoke_local:{workload.seed}")
        objects = (rng.sample(self.objects[:workload.OBJECTS], workload.OBJECTS)
                   + rng.sample(self.objects[workload.OBJECTS:], workload.TOWERS))
        callers = rng.sample(self.callers, workload.CALLERS)
        size = workload.TABLE
        kinds = stratified(shape, (("mutate", workload.MUTATION_SHARE),
                                   ("call", 1 - workload.MUTATION_SHARE)), size)
        calls = kinds.count("call")
        obj_ranks = iter(zipf_draws(shape, len(objects), workload.SKEW, calls))
        caller_ranks = iter(zipf_draws(shape, workload.CALLERS, workload.SKEW, calls))
        methods = iter(stratified(
            shape, [(method, 1 / len(workload.METHODS)) for method in workload.METHODS], calls))
        # setMethod, add/delete of a data item and an ACL edit take
        # turns: a third of the mutations each
        mutations = itertools.cycle((0, 1, 2))
        # every object is mutated equally often, in a seeded order
        targets = list(range(len(self.objects)))
        rng.shuffle(targets)
        targets = itertools.cycle(targets)
        table = []
        for kind in kinds:
            if kind == "mutate":
                mutate = self.mutations[next(targets)][next(mutations)]
                table.append((mutate, (), 1, K["mutate"], check_mapping, None))
                continue
            rank, method = next(obj_ranks), next(methods)
            obj = objects[rank]
            arg = shape.randrange(1, 4)
            if method == "bump":
                check, info = self.acked.check_exact, (obj.guid, arg)
            elif method == "ext":
                check, info = check_equal, arg + 1
            else:
                check, info = check_equal, arg * 2
            code = K["tower"] if rank >= workload.OBJECTS else K[method]
            args = (obj, method, [arg], callers[next(caller_ranks)])
            table.append((invoke_on, args, 1, code, check, info))
        rng.shuffle(table)
        return itertools.cycle(table)

    def all_objects(self) -> list[MROMObject]:
        return list(self.objects)

    def verify(self) -> list[str]:
        return verify_counts(self.acked, {
            obj.guid: obj.get_data("count", caller=OWNER) for obj in self.objects
        })


# -- rmi_sim ----------------------------------------------------------------------


class RmiSim(Workload):
    """One client Site and two server Sites on the simulated LAN.

    Why: codec, export/import, transport and kernel are most of a
    request; the sync/async split shows whether a change to one request
    path costs the other, and the smallest echoes show per-message cost.
    """

    name = "rmi_sim"
    SERVERS = 2
    PER_SERVER = 8
    TABLE = SEGMENT_OPS = 1 << 9  # 1408 requests
    WARMUP_OPS = 1 << 10
    PROBE_OPS = 360  # about 1000 requests

    def build(self) -> "SimWorld":
        return SimWorld(self)


class SimWorld(World):
    wire = "sim"

    def __init__(self, workload: RmiSim):
        super().__init__()
        self.network = Network(Simulator(workload.seed))
        self.client = Site(self.network, "c", "bench.client")
        self.client.retry_policy = RetryPolicy()
        self.servers = [
            Site(self.network, f"s{index}", f"bench.s{index}")
            for index in range(workload.SERVERS)
        ]
        self.targets: list[tuple[str, str]] = []
        for server in self.servers:
            self.network.topology.connect("c", server.site_id, *LAN)
            for index in range(workload.PER_SERVER):
                obj = counter_object(server.create_object(display_name=f"counter{index}"))
                server.register_object(obj)
                self.targets.append((server.site_id, obj.guid))
        self.acked = Acked()
        rng = random.Random(f"rmi_sim:{workload.seed}")
        draws = remote_draws(rng, workload.TABLE, len(self.targets), windows=True)
        self.stream = itertools.cycle([self._op(draw) for draw in draws])

    def _op(self, draw):
        client = self.client
        if draw[0] == "window":
            calls, checks = [], []
            for kind, target, arg in draw[1]:
                verb, args, check, info = self._async(kind, target, arg)
                calls.append((verb, args))
                checks.append((check, info))
            return (run_window, (client, calls), len(calls), K["window"],
                    check_window, checks)
        kind, target, arg = draw
        dst, guid = self.targets[target]
        if kind == "ping":
            return (client.ping, (dst,), 1, K[kind], check_ping, None)
        if kind == "bump":
            return (client.remote_invoke, (dst, guid, "bump", [arg]), 1, K[kind],
                    self.acked.check, (guid, arg))
        if kind == "echo":
            return (client.remote_invoke, (dst, guid, "echo", [arg]), 1, K[kind],
                    check_equal, arg)
        if kind == "get_data":
            return (client.remote_get_data, (dst, guid, "count"), 1, K[kind],
                    check_int, None)
        return (client.remote_describe, (dst, guid), 1, K[kind], check_describe, guid)

    def _async(self, kind, target, arg):
        dst, guid = self.targets[target]
        if kind == "ping":
            return "request_async", (dst, "ping", {}), check_ping, None
        if kind == "bump":
            return ("remote_invoke_async", (dst, guid, "bump", [arg]),
                    self.acked.check, (guid, arg))
        if kind == "echo":
            return "remote_invoke_async", (dst, guid, "echo", [arg]), check_equal, arg
        if kind == "get_data":
            return "remote_get_data_async", (dst, guid, "count"), check_int, None
        return "remote_describe_async", (dst, guid), check_describe, guid

    def all_objects(self) -> list[MROMObject]:
        return [obj for server in self.servers for obj in server.objects()]

    def verify(self) -> list[str]:
        counts = {}
        for server in self.servers:
            for obj in server.objects():
                counts[obj.guid] = obj.get_data("count")
        return verify_counts(self.acked, counts)


def run_window(client: Site, calls) -> list:
    """Issue a window of async requests, then wait for all of them."""
    futures = [getattr(client, verb)(*args) for verb, args in calls]
    return client.wait_all(futures)


# -- tcp_gateway --------------------------------------------------------------------


TCP_CALLER = {"guid": "mrom://bench/tcp-client", "domain": "bench.tcp", "name": "client"}


class TcpGatewayLoad(Workload):
    """The serving site behind a TcpGateway in a child process, driven
    over loopback by one blocking connection.

    Why: gateway framing, socket system calls and the codec dominate;
    the simulated transport is bypassed, so codec gains show here
    without kernel effects. One connection, on one CPU: a second one,
    or the two processes on two CPUs, made the throughput follow the
    host's scheduler (see README.md).
    """

    name = "tcp_gateway"
    ONE_CPU = True
    OBJECTS = 16
    TABLE = SEGMENT_OPS = 1 << 10
    WARMUP_OPS = 2_000
    PROBE_OPS = 1_000

    def build(self) -> "TcpWorld":
        return TcpWorld(self)


class TcpWorld(World):
    wire = "tcp"

    def __init__(self, workload: TcpGatewayLoad):
        super().__init__()
        child = Path(__file__).with_name("gateway_child.py")
        self.child = subprocess.Popen(
            [sys.executable, str(child), "--objects", str(workload.OBJECTS)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=workload.root,
        )
        self.client = None
        try:
            ready = self.command(None)
            self.guids = ready["guids"]
            self.client = TcpGatewayClient("127.0.0.1", ready["port"], timeout=60.0)
        except BaseException:
            self.close()
            raise
        self.acked = Acked()
        rng = random.Random(f"tcp_gateway:{workload.seed}")
        draws = remote_draws(rng, workload.TABLE, len(self.guids), windows=False)
        self.stream = itertools.cycle([self._op(draw) for draw in draws])

    def _op(self, draw):
        kind, target, arg = draw
        client, acked, guid = self.client, self.acked, self.guids[target]
        if kind == "ping":
            return (client.ping, (), 1, K[kind], check_ping, None)
        if kind == "bump":
            return (client.invoke, (guid, "bump", [arg], TCP_CALLER), 1, K[kind],
                    acked.check, (guid, arg))
        if kind == "echo":
            return (client.invoke, (guid, "echo", [arg], TCP_CALLER), 1, K[kind],
                    check_equal, arg)
        if kind == "get_data":
            return (client.get_data, (guid, "count", TCP_CALLER), 1, K[kind],
                    check_int, None)
        return (client.describe, (guid, TCP_CALLER), 1, K[kind], check_describe, guid)

    def command(self, line: str | None) -> dict:
        """Send one command line to the child (None: read its greeting)."""
        if line is not None:
            self.child.stdin.write(line + "\n")
            self.child.stdin.flush()
        reply = self.child.stdout.readline()
        if not reply:
            raise RuntimeError("gateway child exited")
        return json.loads(reply)

    def counters(self) -> dict[str, int]:
        return {}

    def trace(self, on: bool) -> dict | None:
        reply = self.command("trace on" if on else "trace off")
        return None if on else reply

    def peak_rss_kb(self) -> int:
        return self.command("rss")["peak_rss_kb"]

    def verify(self) -> list[str]:
        counts = {guid: self.client.get_data(guid, "count", TCP_CALLER)
                  for guid in self.guids}
        return verify_counts(self.acked, counts)

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.child.poll() is None:
            try:
                self.command("quit")
            except (OSError, RuntimeError, ValueError):
                pass
            try:
                self.child.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.child.kill()
                self.child.wait()
        for pipe in (self.child.stdin, self.child.stdout):
            pipe.close()


# -- migrate_durable ------------------------------------------------------------------


class MigrateDurable(Workload):
    """Three journaled sites with file-backed WALs; 16 objects of 1-64 KiB
    state hop between them, one hop per 8 journaled remote invokes.

    Why: mobility pack/unpack, the transfer handoff and WAL appends
    dominate, and caches arrive cold after every install; this is the
    write side, and no other workload reaches mobility or persistence.
    """

    name = "migrate_durable"
    SITES = 3
    OBJECTS = 16
    INVOKES_PER_HOP = 8
    BLOB_MIN, BLOB_MAX = 1 << 10, 64 << 10
    ECHO_MAX = 1 << 10
    COMPACT_BYTES = 4 << 20
    SEGMENT_OPS = 1152  # 8 blocks: 128 hops and 1024 invokes
    WARMUP_OPS = 288
    PROBE_OPS = 144  # one block

    def build(self) -> "DurableWorld":
        return DurableWorld(self)


class DurableWorld(World):
    wire = "sim"

    def __init__(self, workload: MigrateDurable):
        super().__init__()
        scratch = workload.root / ".perfbench_tmp"
        scratch.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="wal-", dir=scratch))
        self.network = Network(Simulator(workload.seed))
        self.client = Site(self.network, "c", "bench.client")
        self.client.retry_policy = RetryPolicy()
        self.site_ids = [f"s{index}" for index in range(workload.SITES)]
        self.sites = {sid: Site(self.network, sid, f"bench.{sid}") for sid in self.site_ids}
        for left in ["c", *self.site_ids]:
            for right in self.site_ids:
                if left < right:
                    self.network.topology.connect(left, right, *LAN)
        self.managers = {
            sid: MobilityManager(site, retry_policy=RetryPolicy())
            for sid, site in self.sites.items()
        }
        self.wals = {
            sid: WriteAheadLog(FileStore(self.tmp / f"{sid}.wal")) for sid in self.site_ids
        }
        self.journals = {
            sid: attach_journal(site, self.wals[sid]) for sid, site in self.sites.items()
        }
        rng = random.Random(f"migrate_durable:{workload.seed}")
        blobs = payload_pool(rng, workload.OBJECTS, workload.BLOB_MIN, workload.BLOB_MAX)
        self.where: dict[str, str] = {}
        for index, blob in enumerate(blobs):
            site = self.sites[self.site_ids[index % workload.SITES]]
            obj = counter_object(site.create_object(display_name=f"nomad{index}"), blob)
            site.register_object(obj)
            self.where[obj.guid] = site.site_id
        self.acked = Acked()
        self.stream = self._stream(workload, rng)

    def _stream(self, workload: MigrateDurable, rng: random.Random):
        guids = list(self.where)
        payloads = itertools.cycle(payload_pool(rng, PAYLOAD_POOL, ECHO_MIN, workload.ECHO_MAX))
        since = dict.fromkeys(guids, 0)
        where = self.where
        client = self.client
        # ops come in blocks in which every object appears INVOKES_PER_HOP
        # + 1 times, in seeded order: every block, so every round, moves
        # each object once and invokes it INVOKES_PER_HOP times
        block = guids * (workload.INVOKES_PER_HOP + 1)
        invokes = itertools.cycle(("bump", "echo"))
        while True:
            rng.shuffle(block)
            for guid in block:
                src = where[guid]
                if since[guid] == workload.INVOKES_PER_HOP:
                    since[guid] = 0
                    dst = rng.choice([sid for sid in self.site_ids if sid != src])
                    where[guid] = dst
                    yield (hop, (self, guid, src, dst), 1, K["hop"], check_hop, dst)
                    continue
                since[guid] += 1
                if next(invokes) == "bump":
                    amount = rng.randrange(1, 4)
                    yield (client.remote_invoke, (src, guid, "bump", [amount]), 1, K["bump"],
                           self.acked.check, (guid, amount))
                else:
                    payload = next(payloads)
                    yield (client.remote_invoke, (src, guid, "echo", [payload]), 1, K["echo"],
                           check_equal, payload)

    def all_objects(self) -> list[MROMObject]:
        return [obj for site in self.sites.values() for obj in site.objects()]

    def maintain(self) -> None:
        """Fold a long log into one snapshot (between timed rounds)."""
        for sid, journal in self.journals.items():
            if self.wals[sid].store.size_bytes() > MigrateDurable.COMPACT_BYTES:
                journal.checkpoint(compact=True)

    def verify(self) -> list[str]:
        problems = []
        counts = {}
        for guid, expected_site in self.where.items():
            owners = [sid for sid, site in self.sites.items() if site.has_object(guid)]
            if owners != [expected_site]:
                problems.append(f"{guid}: live owners {owners}, expected [{expected_site}]")
                continue
            counts[guid] = self.sites[expected_site].local_object(guid).get_data("count")
        problems += verify_counts(self.acked, counts)
        for sid, site in self.sites.items():
            recovered, _manager, report = recover_site(
                Network(Simulator()), sid, self.wals[sid], domain=f"bench.{sid}",
            )
            if report.damage:
                problems.append(f"{sid}: WAL damage {report.damage}")
            for guid in self.where:
                live, back = site.has_object(guid), recovered.has_object(guid)
                if live != back:
                    problems.append(f"{sid}: recovery has {guid}={back}, live={live}")
                elif live:
                    want = site.local_object(guid).get_data("count")
                    got = recovered.local_object(guid).get_data("count")
                    if want != got:
                        problems.append(f"{sid}: recovered {guid} count {got} != {want}")
        return problems

    def close(self) -> None:
        for journal in self.journals.values():
            journal.close()
        for wal in self.wals.values():
            wal.store.close()
        shutil.rmtree(self.tmp, ignore_errors=True)


def hop(world: DurableWorld, guid: str, src: str, dst: str) -> RemoteRef:
    """One migration hop, driven by the site that holds the object."""
    return world.managers[src].migrate(world.sites[src].local_object(guid), dst)


def check_hop(result, dst) -> bool:
    return isinstance(result, RemoteRef) and result.site == dst


WORKLOADS = {
    workload.name: workload
    for workload in (InvokeLocal, RmiSim, TcpGatewayLoad, MigrateDurable)
}
