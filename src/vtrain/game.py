"""Interactive verification game over a length-prefixed JSON wire protocol.

The trainer serves its Merkle tree; the auditor compares roots and, on a
mismatch, runs ``merkle.bisect`` with a fetch that makes one round trip
per level: a ``children_request`` names the disagreeing node and the
``children_response`` carries both its children. A level where that node
has one child costs nothing. The walk ends at the first divergent leaf
with the trainer's authentication path, which the auditor checks against
the announced root before it claims; its own path comes from its tree. A
judge can check the claim with constant work. A trainer that stops
answering within the timeout, or resets or closes the connection before
the verdict is decided, fails the audit; once it is decided, a send that
fails does not change it. A trainer that sends a malformed or
inconsistent reply raises ``GameProtocolError``.

Wire format (protocol version 3): 4-byte little-endian length prefix,
then a UTF-8 JSON object with a "type" field. Digests travel as lowercase
hex. Tree coordinates are (level, index) with level 0 the leaves. A path
is its leaf index, its leaf and a list with one sibling per level, leaf
first, ``null`` where the node was promoted; sides follow from the index.
The server refuses a ``hello`` whose version is not the integer 3, and
refuses, then goes on serving, a ``children_request`` for a leaf, for a
node it does not have, for a node with one child, or with a coordinate
that is not an integer.
"""

from __future__ import annotations

import contextlib
import json
import socket
import struct
from dataclasses import dataclass, field

from .merkle import DIGEST_LEN, MerklePath, MerkleTree, bisect, node, path, verify_path

PROTOCOL_VERSION = 3
DEFAULT_TIMEOUT = 30.0
SESSION_TIMEOUT = 30.0  # seconds the server waits on each read from a client

TRAINING_VERIFIED = "training_verified"
DISPUTE_AT_LEAF = "dispute_at_leaf"
TRAINER_UNRESPONSIVE = "trainer_unresponsive"
SCHEDULE_MISMATCH = "schedule_mismatch"


class GameProtocolError(RuntimeError):
    """The peer sent something the protocol does not allow."""


def _send(sock: socket.socket, msg: dict) -> bytes:
    data = json.dumps(msg, sort_keys=True, separators=(",", ":")).encode("utf-8")
    sock.sendall(struct.pack("<I", len(data)) + data)
    return data


def _recv_exact(sock: socket.socket, n: int) -> bytearray:
    """Read n bytes into one buffer, however many segments they come in."""
    buf = bytearray(n)
    with memoryview(buf) as view:
        got = 0
        while got < n:
            k = sock.recv_into(view[got:])
            if not k:
                raise ConnectionError("peer closed the connection")
            got += k
    return buf


def _reject_constant(name: str):
    # Python's json reads NaN and Infinity, which JSON does not have
    raise ValueError(f"{name} is not JSON")


def _recv(sock: socket.socket) -> dict:
    (length,) = struct.unpack("<I", _recv_exact(sock, 4))
    if length > 1 << 24:
        raise GameProtocolError("oversized message")
    data = _recv_exact(sock, length)
    try:
        msg = json.loads(data.decode("utf-8"), parse_constant=_reject_constant)
    except (ValueError, RecursionError) as e:  # bad UTF-8 or JSON, a constant, deep nesting
        raise GameProtocolError(f"undecodable message: {e}") from None
    if not isinstance(msg, dict) or "type" not in msg:
        raise GameProtocolError("message has no type")
    return msg


def _digest(value, what: str) -> bytes:
    """Decode a wire digest: a hex string of exactly 32 bytes."""
    try:
        digest = bytes.fromhex(value)
    except (TypeError, ValueError):
        digest = b""
    if len(digest) != DIGEST_LEN or len(value) != 2 * DIGEST_LEN:
        raise GameProtocolError(f"{what} is not a {DIGEST_LEN}-byte hex digest")
    return digest


def _path_to_wire(p: MerklePath) -> dict:
    return {
        "leaf_index": p.leaf_index,
        "leaf": p.leaf.hex(),
        "siblings": [None if d is None else d.hex() for d in p.siblings],
    }


@dataclass
class VerdictReport:
    outcome: str
    trainer_root: str | None = None
    auditor_root: str | None = None
    leaf_index: int | None = None
    trainer_path: MerklePath | None = None
    auditor_path: MerklePath | None = None
    node_requests: int = 0
    transcript: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "trainer_root": self.trainer_root,
            "auditor_root": self.auditor_root,
            "leaf_index": self.leaf_index,
            "trainer_path": _path_to_wire(self.trainer_path) if self.trainer_path else None,
            "auditor_path": _path_to_wire(self.auditor_path) if self.auditor_path else None,
            "node_requests": self.node_requests,
            "transcript": self.transcript,
        }


class GameServer:
    """Answers tree queries for one session at a time."""

    def __init__(self, tree: MerkleTree):
        self.tree = tree

    def handle_session(self, conn: socket.socket) -> None:
        """Answer one client; no frame it sends, no disconnect and no silence
        past ``SESSION_TIMEOUT`` stalls ``serve_forever``."""
        try:
            conn.settimeout(SESSION_TIMEOUT)
            while True:
                try:
                    msg = _recv(conn)
                except GameProtocolError:
                    _send(conn, {"type": "refuse", "reason": "malformed message"})
                    return
                kind = msg["type"]
                if kind == "hello":
                    version = msg.get("protocol_version")
                    if type(version) is not int or version != PROTOCOL_VERSION:
                        _send(conn, {"type": "refuse", "reason": "unsupported protocol version"})
                        return
                    _send(conn, {
                        "type": "root_announce",
                        "root": self.tree.root_hex,
                        "leaf_count": self.tree.leaf_count,
                    })
                elif kind == "children_request":
                    _send(conn, self._children(msg.get("level"), msg.get("index")))
                elif kind in ("accept", "verdict_claim"):
                    return
                else:
                    _send(conn, {"type": "refuse", "reason": f"unexpected message {kind!r}"})
                    return
        except OSError:  # the client went away, reset the connection or timed out
            return
        finally:
            conn.close()

    def _children(self, level, index) -> dict:
        """The ``children_response`` for node (level, index), or a ``refuse``."""
        if type(level) is not int or type(index) is not int:
            return {"type": "refuse", "reason": "node coordinates must be ints"}
        try:
            node(self.tree, level, index)
        except IndexError:
            return {"type": "refuse", "reason": "node out of range"}
        if level == 0:
            return {"type": "refuse", "reason": "a leaf has no children"}
        tree, below = self.tree, 2 * index
        try:
            left, right = node(tree, level - 1, below), node(tree, level - 1, below + 1)
        except IndexError:
            return {"type": "refuse", "reason": "node has one child"}
        return {"type": "children_response", "level": level, "index": index,
                "left": left.hex(), "right": right.hex()}

    def serve_forever(self, listener: socket.socket, max_sessions: int | None = None) -> None:
        served = 0
        while max_sessions is None or served < max_sessions:
            conn, _ = listener.accept()
            self.handle_session(conn)
            served += 1


def listen(address: tuple[str, int]) -> socket.socket:
    """Bind and listen, so clients can connect before any session is served.

    Port 0 picks a free port; ``getsockname()`` on the result tells which.
    """
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(address)
        listener.listen(1)
    except OSError:
        listener.close()
        raise
    return listener


def serve(tree: MerkleTree, listener: socket.socket, max_sessions: int | None = None) -> None:
    """Answer sessions sequentially on a listener from ``listen``, then close it."""
    with listener:
        GameServer(tree).serve_forever(listener, max_sessions=max_sessions)


class _Session:
    """Client-side transport that records a transcript."""

    def __init__(self, sock: socket.socket, transcript: list):
        self.sock = sock
        self.transcript = transcript

    def send(self, msg: dict) -> None:
        _send(self.sock, msg)
        self.transcript.append({"dir": "send", "msg": msg})

    def recv(self) -> dict:
        msg = _recv(self.sock)
        self.transcript.append({"dir": "recv", "msg": msg})
        return msg


def challenge(local_tree: MerkleTree, address: tuple[str, int],
              timeout: float = DEFAULT_TIMEOUT) -> VerdictReport:
    """Compare against a served tree and localize the first divergent leaf."""
    transcript: list = []
    local_root = local_tree.root_hex
    report = VerdictReport(outcome=TRAINING_VERIFIED, auditor_root=local_root,
                           transcript=transcript)
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.settimeout(timeout)
        try:
            sock.connect(address)
            session = _Session(sock, transcript)
            session.send({"type": "hello", "protocol_version": PROTOCOL_VERSION})
            announce = session.recv()
        except OSError:  # refused, timed out, reset or closed
            report.outcome = TRAINER_UNRESPONSIVE
            return report
        if announce["type"] != "root_announce":
            raise GameProtocolError(f"expected root_announce, got {announce['type']!r}")
        trainer_root = _digest(announce.get("root"), "announced root")
        leaf_count = announce.get("leaf_count")
        if type(leaf_count) is not int:
            raise GameProtocolError(f"bad leaf_count {leaf_count!r}")
        report.trainer_root = trainer_root.hex()
        if leaf_count != local_tree.leaf_count:
            report.outcome = SCHEDULE_MISMATCH
            return report
        if trainer_root == local_tree.root:
            # the verdict is decided; a trainer gone by now does not change it
            with contextlib.suppress(OSError):
                session.send({"type": "accept"})
            return report

        def fetch(level: int, index: int) -> tuple[bytes, bytes]:
            try:
                session.send({"type": "children_request", "level": level, "index": index})
                report.node_requests += 1
                resp = session.recv()
            except OSError:  # timed out, reset or closed
                raise TimeoutError from None
            if resp["type"] != "children_response":
                raise GameProtocolError(f"expected children_response, got {resp['type']!r}")
            return _digest(resp.get("left"), "left child"), _digest(resp.get("right"), "right child")

        try:
            trainer_path = bisect(local_tree, trainer_root, fetch)
        except TimeoutError:
            report.outcome = TRAINER_UNRESPONSIVE
            return report
        except ValueError as e:
            raise GameProtocolError(f"served tree is inconsistent: {e}") from None
        if not verify_path(trainer_path, trainer_root):
            raise GameProtocolError("served nodes do not hash to the announced root")

        report.outcome = DISPUTE_AT_LEAF
        report.leaf_index = trainer_path.leaf_index
        report.trainer_path = trainer_path
        report.auditor_path = path(local_tree, trainer_path.leaf_index)
        with contextlib.suppress(OSError):
            session.send({
                "type": "verdict_claim",
                "first_divergent_leaf": report.leaf_index,
                "trainer_path": _path_to_wire(trainer_path),
                "auditor_path": _path_to_wire(report.auditor_path),
            })
        return report


def judge_check(report: VerdictReport, trainer_root: bytes, auditor_root: bytes) -> bool:
    """Accept a dispute claim only if its evidence verifies.

    Constant work: two path verifications plus a digest comparison.
    """
    ok, _ = judge_check_reason(report, trainer_root, auditor_root)
    return ok


def judge_check_reason(report: VerdictReport, trainer_root: bytes,
                       auditor_root: bytes) -> tuple[bool, str]:
    if report.outcome != DISPUTE_AT_LEAF:
        return False, f"no dispute evidence in outcome {report.outcome!r}"
    tp, ap = report.trainer_path, report.auditor_path
    if tp is None or ap is None:
        return False, "missing authentication path"
    if tp.leaf_index != report.leaf_index or ap.leaf_index != report.leaf_index:
        return False, "paths disagree on the disputed leaf index"
    if tp.leaf == ap.leaf:
        return False, "claimed divergent leaves are identical"
    if not verify_path(tp, trainer_root):
        return False, "trainer path does not verify"
    if not verify_path(ap, auditor_root):
        return False, "auditor path does not verify"
    return True, "ok"
