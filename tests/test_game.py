"""Verification game: serve/challenge over sockets, judge checks."""

import hashlib
import json
import math
import random
import socket
import struct
import threading

import numpy as np
import pytest
from click.testing import CliRunner

from vtrain import game, merkle
from vtrain.cli import main

from harness import children_fetch, path_from_wire, two_child_levels


def leaf(i: int) -> bytes:
    return hashlib.sha256(f"game-leaf-{i}".encode()).digest()


def tree_of(n: int, flips=()) -> merkle.MerkleTree:
    leaves = [leaf(i) for i in range(n)]
    for f in flips:
        leaves[f] = hashlib.sha256(f"flipped-{f}".encode()).digest()
    return merkle.build(leaves)


@pytest.fixture
def served():
    """Start a one-session server for a tree; yields (address, set_tree)."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(("127.0.0.1", 0))
    listener.listen(4)
    addr = listener.getsockname()
    threads = []

    def launch(tree, sessions=1):
        server = game.GameServer(tree)
        t = threading.Thread(
            target=server.serve_forever, args=(listener,), kwargs={"max_sessions": sessions},
            daemon=True,
        )
        t.start()
        threads.append(t)
        server.thread = t
        return server

    yield addr, launch
    listener.close()
    for t in threads:
        t.join(timeout=5)


class TestChallenge:
    def test_matching_roots_verified(self, served):
        addr, launch = served
        tree = tree_of(8)
        launch(tree)
        report = game.challenge(tree, addr, timeout=5)
        assert report.outcome == game.TRAINING_VERIFIED
        assert report.node_requests == 0
        # the hello names the wire version and nothing the server does not read
        assert report.transcript[0] == {"dir": "send", "msg": {
            "type": "hello", "protocol_version": game.PROTOCOL_VERSION}}

    def test_dispute_at_flipped_leaf(self, served):
        addr, launch = served
        trainer = tree_of(8, flips=(5,))
        auditor = tree_of(8)
        launch(trainer)
        report = game.challenge(auditor, addr, timeout=5)
        assert report.outcome == game.DISPUTE_AT_LEAF
        assert report.leaf_index == 5
        assert report.node_requests == 3
        assert game.judge_check(report, trainer.root, auditor.root)

    @pytest.mark.parametrize("n, flip", [(2, 1), (5, 4), (8, 5), (13, 12), (70, 64), (4096, 77)])
    def test_one_children_request_per_level(self, served, n, flip):
        addr, launch = served
        trainer = tree_of(n, flips=(flip,))
        launch(trainer)
        report = game.challenge(tree_of(n), addr, timeout=5)
        assert report.leaf_index == flip
        sent = [e["msg"] for e in report.transcript if e["dir"] == "send"]
        requests = [m for m in sent if m["type"] == "children_request"]
        # one round trip per level whose on-path node has two children, top down
        assert len(requests) == report.node_requests == two_child_levels(trainer, flip)
        assert [m["level"] for m in requests] == sorted({m["level"] for m in requests},
                                                        reverse=True)
        assert {m["type"] for m in sent} == {"hello", "children_request", "verdict_claim"}
        received = [e["msg"]["type"] for e in report.transcript if e["dir"] == "recv"]
        assert received == ["root_announce"] + ["children_response"] * len(requests)

    def test_schedule_mismatch(self, served):
        addr, launch = served
        launch(tree_of(8))
        report = game.challenge(tree_of(9), addr, timeout=5)
        assert report.outcome == game.SCHEDULE_MISMATCH

    def test_silent_server_times_out(self):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        try:
            report = game.challenge(tree_of(4), listener.getsockname(), timeout=0.3)
        finally:
            listener.close()
        assert report.outcome == game.TRAINER_UNRESPONSIVE

    def test_silent_client_does_not_stall_the_next(self, monkeypatch):
        # at the default the server would wait 30 s on the silent client
        monkeypatch.setattr(game, "SESSION_TIMEOUT", 0.2, raising=False)
        tree = tree_of(4)
        listener = game.listen(("127.0.0.1", 0))
        addr = listener.getsockname()
        t = threading.Thread(target=game.serve, args=(tree, listener),
                             kwargs={"max_sessions": 2}, daemon=True)
        t.start()
        with socket.create_connection(addr):
            report = game.challenge(tree, addr, timeout=5)
        t.join(timeout=5)
        assert not t.is_alive()
        assert report.outcome == game.TRAINING_VERIFIED

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 16, 33, 64])
    def test_matches_linear_scan_all_sizes(self, served, n):
        addr, launch = served
        rng = np.random.default_rng(n)
        flip = int(rng.integers(0, n))
        trainer = tree_of(n, flips=(flip,))
        auditor = tree_of(n)
        launch(trainer)
        report = game.challenge(auditor, addr, timeout=5)
        oracle = next(
            i for i in range(n) if merkle.node(trainer, 0, i) != merkle.node(auditor, 0, i)
        )
        assert report.outcome == game.DISPUTE_AT_LEAF
        assert report.leaf_index == oracle == flip
        assert report.node_requests == two_child_levels(trainer, flip)
        assert game.judge_check(report, trainer.root, auditor.root)

    def test_multiple_flips_finds_first(self, served):
        addr, launch = served
        trainer = tree_of(32, flips=(9, 17, 30))
        auditor = tree_of(32)
        launch(trainer)
        report = game.challenge(auditor, addr, timeout=5)
        assert report.leaf_index == 9

    def test_transcript_deterministic(self, served):
        addr, launch = served
        trainer = tree_of(16, flips=(3,))
        auditor = tree_of(16)
        launch(trainer, sessions=2)
        r1 = game.challenge(auditor, addr, timeout=5)
        r2 = game.challenge(auditor, addr, timeout=5)
        dump = lambda r: json.dumps(r.transcript, sort_keys=True)
        assert dump(r1) == dump(r2)

    @pytest.mark.parametrize("flips, outcome, exit_code", [
        ((), game.TRAINING_VERIFIED, 0),
        ((3,), game.TRAINER_UNRESPONSIVE, 4),
    ], ids=["roots-equal", "roots-differ"])
    def test_trainer_reset_after_announce(self, monkeypatch, tmp_path, flips, outcome,
                                          exit_code):
        """The trainer announces, then resets the connection before the client
        reads the announcement, so the client's next send fails: the
        ``accept`` of equal roots keeps the verdict, and the first
        ``children_request`` of differing roots ends the game unanswered."""
        served, local = tree_of(8, flips=flips), tree_of(8)
        merkle.write_tree(local, tmp_path / "local.vtmt")
        listener = game.listen(("127.0.0.1", 0))
        reset = threading.Semaphore(0)

        def resetting_trainer():
            for _ in range(2):  # one session for game.challenge, one for vtrain dispute
                conn, _ = listener.accept()
                game._recv(conn)  # the hello
                game._send(conn, {"type": "root_announce", "root": served.root_hex,
                                  "leaf_count": served.leaf_count})
                # linger 0: close sends a reset, not a FIN
                conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
                conn.close()
                reset.release()

        real_recv = game._Session.recv

        def recv_after_reset(session):
            assert reset.acquire(timeout=5)
            return real_recv(session)

        monkeypatch.setattr(game._Session, "recv", recv_after_reset)
        trainer = threading.Thread(target=resetting_trainer, daemon=True)
        trainer.start()
        host, port = listener.getsockname()
        try:
            report = game.challenge(local, (host, port), timeout=5)
            result = CliRunner().invoke(main, [
                "dispute", str(tmp_path / "local.vtmt"), "--connect", f"{host}:{port}",
                "--timeout", "5"])
            trainer.join(timeout=5)
            assert not trainer.is_alive()
        finally:
            listener.close()
        assert report.outcome == outcome
        assert report.node_requests == 0
        assert result.exception is None or isinstance(result.exception, SystemExit), \
            result.exception
        assert result.exit_code == exit_code, result.output
        assert json.loads(result.output)["outcome"] == outcome


class TestServerBehavior:
    def _talk(self, addr, messages):
        out = []
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
            s.settimeout(5)
            s.connect(addr)
            for m in messages:
                game._send(s, m)
                out.append(game._recv(s))
        return out

    def test_hello_announces_root(self, served):
        addr, launch = served
        tree = tree_of(5)
        launch(tree)
        (resp,) = self._talk(addr, [
            {"type": "hello", "protocol_version": game.PROTOCOL_VERSION},
        ])
        assert resp["type"] == "root_announce"
        assert resp["root"] == tree.root_hex
        assert resp["leaf_count"] == 5

    def test_children_request_served(self, served):
        addr, launch = served
        tree = tree_of(4)
        launch(tree)
        resps = self._talk(addr, [
            {"type": "hello", "protocol_version": game.PROTOCOL_VERSION},
            {"type": "children_request", "level": 1, "index": 1},
            {"type": "children_request", "level": 2, "index": 0},
        ])
        assert resps[1] == {
            "type": "children_response", "level": 1, "index": 1,
            "left": leaf(2).hex(), "right": leaf(3).hex(),
        }
        assert resps[2] == {
            "type": "children_response", "level": 2, "index": 0,
            "left": merkle.node(tree, 1, 0).hex(), "right": merkle.node(tree, 1, 1).hex(),
        }

    def test_out_of_range_refused(self, served):
        addr, launch = served
        launch(tree_of(4))
        resps = self._talk(addr, [
            {"type": "hello", "protocol_version": game.PROTOCOL_VERSION},
            {"type": "children_request", "level": 1, "index": 9},
        ])
        assert resps[1] == {"type": "refuse", "reason": "node out of range"}

    @pytest.mark.parametrize("level, index, reason", [
        (0, 0, "a leaf has no children"),
        (0, 5, "node out of range"),
        (1, 3, "node out of range"),
        (4, 0, "node out of range"),
        (-1, 0, "node out of range"),
        (1, -1, "node out of range"),
        (1, 2, "node has one child"),
        (2, 1, "node has one child"),
        (1.0, 0, "node coordinates must be ints"),
        (1, True, "node coordinates must be ints"),
    ], ids=["leaf", "leaf-out-of-range", "inner-out-of-range", "above-root",
            "negative-level", "negative-index", "one-child-level-1", "one-child-level-2",
            "float-level", "bool-index"])
    def test_childless_request_refused_and_session_goes_on(self, served, level, index, reason):
        addr, launch = served
        tree = tree_of(5)  # levels of 5, 3, 2 and 1 nodes
        launch(tree)
        resps = self._talk(addr, [
            {"type": "hello", "protocol_version": game.PROTOCOL_VERSION},
            {"type": "children_request", "level": level, "index": index},
            {"type": "children_request", "level": 3, "index": 0},
        ])
        assert resps[1] == {"type": "refuse", "reason": reason}
        assert resps[2]["type"] == "children_response"
        assert resps[2]["right"] == merkle.node(tree, 2, 1).hex()

    def test_old_protocol_version_refused(self, served):
        addr, launch = served
        tree = tree_of(8)
        server = launch(tree, sessions=3)
        for old in (1, 2):
            (resp,) = self._talk(addr, [{"type": "hello", "protocol_version": old}])
            assert resp == {"type": "refuse", "reason": "unsupported protocol version"}
        report = game.challenge(tree, addr, timeout=5)
        assert report.outcome == game.TRAINING_VERIFIED
        server.thread.join(timeout=5)
        assert not server.thread.is_alive()

    @pytest.mark.parametrize("version", [float(game.PROTOCOL_VERSION), True,
                                         str(game.PROTOCOL_VERSION), None],
                             ids=["3.0", "true", "string", "null"])
    def test_non_int_protocol_version_refused(self, served, version):
        addr, launch = served
        launch(tree_of(8))
        (resp,) = self._talk(addr, [{"type": "hello", "protocol_version": version}])
        assert resp == {"type": "refuse", "reason": "unsupported protocol version"}

    def test_unknown_type_refused(self, served):
        addr, launch = served
        launch(tree_of(4))
        (resp,) = self._talk(addr, [{"type": "gibberish"}])
        assert resp["type"] == "refuse"

    def test_bad_frame_then_good_challenge(self, served):
        addr, launch = served
        tree = tree_of(8)
        server = launch(tree, sessions=2)
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
            s.settimeout(5)
            s.connect(addr)
            s.sendall((6).to_bytes(4, "little") + b"\xff\xfe\xfd\xfc\xfb\xfa")
            assert game._recv(s)["type"] == "refuse"
        report = game.challenge(tree, addr, timeout=5)
        assert report.outcome == game.TRAINING_VERIFIED
        server.thread.join(timeout=5)
        assert not server.thread.is_alive()

    def test_capped_frame_in_small_writes_refused(self, served):
        # a frame at the 16 MiB cap, sent 4 KiB at a time, is read whole and refused
        addr, launch = served
        tree = tree_of(8)
        server = launch(tree, sessions=2)
        body = b"\xff" * (1 << 24)
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
            s.settimeout(30)
            s.connect(addr)
            s.sendall(len(body).to_bytes(4, "little"))
            with memoryview(body) as view:
                for start in range(0, len(body), 4096):
                    s.sendall(view[start : start + 4096])
            assert game._recv(s) == {"type": "refuse", "reason": "malformed message"}
        report = game.challenge(tree, addr, timeout=5)
        assert report.outcome == game.TRAINING_VERIFIED
        server.thread.join(timeout=5)
        assert not server.thread.is_alive()

    def test_verdict_claim_recorded(self, served):
        # the claim is the last message the auditor sends
        addr, launch = served
        trainer = tree_of(8, flips=(2,))
        server = launch(trainer)
        report = game.challenge(tree_of(8), addr, timeout=5)
        assert report.outcome == game.DISPUTE_AT_LEAF
        server.thread.join(timeout=5)
        assert not server.thread.is_alive()
        last = report.transcript[-1]
        assert last["dir"] == "send" and last["msg"]["type"] == "verdict_claim"
        assert last["msg"]["first_divergent_leaf"] == 2


class TestJudge:
    def _dispute(self, served, n=16, flip=6):
        addr, launch = served
        trainer = tree_of(n, flips=(flip,))
        auditor = tree_of(n)
        launch(trainer)
        report = game.challenge(auditor, addr, timeout=5)
        return report, trainer, auditor

    def test_accepts_valid_claim(self, served):
        report, trainer, auditor = self._dispute(served)
        assert game.judge_check(report, trainer.root, auditor.root)

    def test_rejects_non_dispute(self, served):
        addr, launch = served
        tree = tree_of(4)
        launch(tree)
        report = game.challenge(tree, addr, timeout=5)
        ok, reason = game.judge_check_reason(report, tree.root, tree.root)
        assert not ok and "no dispute" in reason

    def test_rejects_tampered_sibling(self, served):
        report, trainer, auditor = self._dispute(served)
        siblings = report.trainer_path.siblings
        i = next(i for i, d in enumerate(siblings) if d is not None)
        siblings[i] = bytes(32)
        assert not game.judge_check(report, trainer.root, auditor.root)

    def test_rejects_relabelled_leaf(self, served):
        report, trainer, auditor = self._dispute(served, n=8, flip=5)
        assert game.judge_check(report, trainer.root, auditor.root)
        report.leaf_index = report.trainer_path.leaf_index = report.auditor_path.leaf_index = 2
        assert not game.judge_check(report, trainer.root, auditor.root)

    def test_rejects_mismatched_leaf_index(self, served):
        report, trainer, auditor = self._dispute(served)
        report.auditor_path.leaf_index += 1
        assert not game.judge_check(report, trainer.root, auditor.root)

    def test_rejects_equal_leaves(self, served):
        report, trainer, auditor = self._dispute(served)
        report.trainer_path.leaf = report.auditor_path.leaf
        assert not game.judge_check(report, trainer.root, auditor.root)

    def test_rejects_wrong_root(self, served):
        report, trainer, auditor = self._dispute(served)
        assert not game.judge_check(report, auditor.root, auditor.root)

    def test_fuzzed_evidence_tampering_rejected(self, served):
        report, trainer, auditor = self._dispute(served, n=32, flip=21)
        rng = np.random.default_rng(0)
        wire = game._path_to_wire(report.trainer_path)
        for _ in range(60):
            corrupted = json.loads(json.dumps(wire))
            which = rng.integers(0, 2)
            filled = [i for i, d in enumerate(corrupted["siblings"]) if d is not None]
            if which == 0 and filled:
                i = filled[int(rng.integers(0, len(filled)))]
                raw = bytearray(bytes.fromhex(corrupted["siblings"][i]))
                raw[rng.integers(0, 32)] ^= 1 << int(rng.integers(0, 8))
                corrupted["siblings"][i] = bytes(raw).hex()
            else:
                raw = bytearray(bytes.fromhex(corrupted["leaf"]))
                raw[rng.integers(0, 32)] ^= 1 << int(rng.integers(0, 8))
                corrupted["leaf"] = bytes(raw).hex()
            tampered = path_from_wire(corrupted)
            assert not merkle.verify_path(tampered, trainer.root)

    def test_report_json_roundtrip(self, served):
        report, trainer, auditor = self._dispute(served)
        doc = report.to_json_dict()
        text = json.dumps(doc)
        back = json.loads(text)
        assert back["outcome"] == game.DISPUTE_AT_LEAF
        assert back["leaf_index"] == report.leaf_index
        assert merkle.verify_path(path_from_wire(back["trainer_path"]), trainer.root)


def test_message_bound_all_sizes_one_to_sixtyfour(served):
    addr, launch = served
    rng = np.random.default_rng(99)
    for n in range(1, 65):
        flip = int(rng.integers(0, n))
        trainer = tree_of(n, flips=(flip,))
        auditor = tree_of(n)
        launch(trainer)
        report = game.challenge(auditor, addr, timeout=5)
        assert report.outcome == game.DISPUTE_AT_LEAF
        assert report.leaf_index == flip
        assert report.node_requests == two_child_levels(trainer, flip), n


def _frame(payload: bytes) -> bytes:
    return len(payload).to_bytes(4, "little") + payload


def _json_frame(doc) -> bytes:
    return _frame(json.dumps(doc).encode())  # writes NaN and Infinity as Python does


def fuzz_cases(rng: random.Random) -> list[tuple[str, bytes, list]]:
    """(label, bytes a client sends, response types the server must send back).

    No case sends anything after a frame the server ends the session on,
    so the server never closes with unread input.
    """
    hello = _json_frame({"type": "hello", "protocol_version": game.PROTOCOL_VERSION})
    request = _json_frame({"type": "children_request", "level": 1, "index": 0})
    refused = ["refuse"]
    cases = []
    for _ in range(3):
        cases.append(("truncated header", request[: rng.randrange(1, 4)], []))
        cases.append(("truncated payload", request[: rng.randrange(4, len(request))], []))
    for length in ((1 << 24) + 1, 2**32 - 1):
        cases.append(("oversized", length.to_bytes(4, "little"), refused))
    for doc in ([1, 2], 5, "hello", None, True):
        cases.append(("non-object", _json_frame(doc), refused))
    cases.append(("untyped", _json_frame({"level": 0, "index": 0}), refused))
    cases.append(("empty", _frame(b""), refused))
    cases.append(("random bytes", _frame(bytes(rng.randrange(256) for _ in range(24))), refused))
    cases.append(("deeply nested", _frame(b"[" * 100_000), refused))
    for kind in (5, ["hello"], None, {"type": "hello"}):
        cases.append(("wrong-typed type", _json_frame({"type": kind}), refused))
    for version in (float("nan"), float("inf"), float("-inf"), 3.0, True, 2, "3"):
        doc = {"type": "hello", "protocol_version": version}
        cases.append((f"version {version!r}", _json_frame(doc), refused))
    for value in (0, 1.0, 0.5, float("inf"), float("-inf"), float("nan"), "0", True, False,
                  [0], None, {"level": 0}, 10**30, -(10**30), 2**64, -1):
        for coord in ("level", "index"):
            if (coord, value) == ("index", 0):
                continue  # the node asked for
            doc = {"type": "children_request", "level": 1, "index": 0, coord: value}
            if isinstance(value, float) and not math.isfinite(value):
                # not JSON: a malformed message, which ends the session
                cases.append((f"{coord}={value!r}", hello + _json_frame(doc),
                              ["root_announce", "refuse"]))
                continue
            # a refused request ends nothing: the session answers the next one
            cases.append((f"{coord}={value!r}", hello + _json_frame(doc) + request,
                          ["root_announce", "refuse", "children_response"]))
    cases.append(("request before hello", request + hello,
                  ["children_response", "root_announce"]))
    cases.append(("second hello", hello + hello, ["root_announce", "root_announce"]))
    old_request = {"type": "node_request", "level": 0, "index": 0}  # protocol version 2
    cases.append(("node_request", hello + _json_frame(old_request), ["root_announce", "refuse"]))
    for doc in ({"type": "root_announce", "root": "00" * 32, "leaf_count": 8},
                {"type": "children_response", "level": 1, "index": 0,
                 "left": "00" * 32, "right": "00" * 32},
                {"type": "refuse", "reason": "no"}):
        cases.append((f"server-only {doc['type']}", hello + _json_frame(doc),
                      ["root_announce", "refuse"]))
    cases.append(("accept before hello", _json_frame({"type": "accept"}), []))
    rng.shuffle(cases)
    return cases


def _exchange(addr, data: bytes) -> list[dict]:
    """Send ``data``, close the sending side, and read every frame until the server closes."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.settimeout(5)
        s.connect(addr)
        s.sendall(data)
        s.shutdown(socket.SHUT_WR)
        received = b""
        while chunk := s.recv(65536):
            received += chunk
    frames = []
    while received:
        length = int.from_bytes(received[:4], "little")
        frames.append(json.loads(received[4 : 4 + length]))
        received = received[4 + length :]
    return frames


def test_frame_fuzzer_leaves_the_server_serving(served):
    addr, launch = served
    tree = tree_of(8)
    cases = fuzz_cases(random.Random(12))
    server = launch(tree, sessions=len(cases) + 1)
    for label, data, want in cases:
        got = [frame["type"] for frame in _exchange(addr, data)]
        assert got == want, label
    report = game.challenge(tree, addr, timeout=5)
    assert report.outcome == game.TRAINING_VERIFIED
    server.thread.join(timeout=5)
    assert not server.thread.is_alive()


DROP = object()  # a field value that leaves the field out


def client_fuzz_cases(rng: random.Random) -> list[tuple[str, int, object]]:
    """(label, k, edit): a trainer that answers honestly except its k-th
    answer (0 answers the hello; i answers the i-th children_request).

    A dict edit changes fields of the honest answer (``DROP`` deletes one)
    and the trainer then goes on answering; bytes are sent as they are,
    and the trainer then closes.
    """
    bad_digests = ["zz" * 32, "ab" * 31, "ab" * 33, "", " a" * 32, 7, None, ["ab"] * 32]
    cases = []
    for k in range(4):  # a dispute over 8 leaves makes 3 children requests
        fields = ["root"] if k == 0 else ["left", "right"]
        other = "children_response" if k == 0 else "root_announce"
        edits = [
            ("wrong type", {"type": rng.choice([other, "refuse", "hello", "", 7, None, ["x"]])}),
            ("no type", {"type": DROP}),
        ]
        for field in fields:
            edits += [
                (f"bad {field}", {field: rng.choice(bad_digests)}),
                (f"no {field}", {field: DROP}),
                (f"{field} not served", {field: rng.randbytes(32).hex()}),
            ]
        edits += [
            ("truncated length prefix", (40).to_bytes(4, "little")[: rng.randrange(4)]),
            ("oversized length prefix",
             ((1 << 24) + rng.randrange(1, 1 << 20)).to_bytes(4, "little") + b"{}"),
            ("length past the body", (2 + rng.randrange(1, 64)).to_bytes(4, "little") + b"{}"),
            ("non-JSON body", _frame(rng.choice(
                [b"\xff\xfe", b"{", b"NaN", b"[1, 2]", b'"root_announce"', b"", b"null",
                 b"[" * 100_000]))),
            ("early close", b""),
        ]
        if k == 0:
            edits += [("leaf_count not an int",
                       {"leaf_count": rng.choice(["8", 8.0, True, None, [8], float("nan")])}),
                      ("no leaf_count", {"leaf_count": DROP})]
        cases += [(f"answer {k}: {label}", k, edit) for label, edit in edits]
    return cases


def _fake_trainer(listener, served: merkle.MerkleTree, cases) -> None:
    """One session per case of ``client_fuzz_cases``, on ``served``'s tree."""
    for _, k, edit in cases:
        conn, _ = listener.accept()
        with conn:
            conn.settimeout(5)
            try:
                for i in range(5):  # a hello, 3 children requests, the verdict claim
                    msg = game._recv(conn)
                    if msg["type"] not in ("hello", "children_request"):  # the verdict claim
                        break
                    if msg["type"] == "hello":
                        doc = {"type": "root_announce", "root": served.root_hex,
                               "leaf_count": served.leaf_count}
                    else:
                        level, index = msg["level"], msg["index"]
                        left, right = children_fetch(served)(level, index)
                        doc = {"type": "children_response", "level": level, "index": index,
                               "left": left.hex(), "right": right.hex()}
                    if i != k:
                        game._send(conn, doc)
                    elif isinstance(edit, bytes):
                        conn.sendall(edit)
                        break
                    else:
                        edited = {**doc, **edit}
                        game._send(conn, {f: v for f, v in edited.items() if v is not DROP})
                # the client sees the end of the frames, and closes first
                conn.shutdown(socket.SHUT_WR)
                while conn.recv(65536):
                    pass
            except (OSError, game.GameProtocolError):  # the client hung up
                pass


def test_client_frame_fuzzer_ends_in_a_documented_outcome(tmp_path):
    local = tree_of(8)
    merkle.write_tree(local, tmp_path / "local.vtmt")
    cases = client_fuzz_cases(random.Random(21))
    listener = game.listen(("127.0.0.1", 0))
    host, port = listener.getsockname()
    # each case is served twice: to game.challenge, then to vtrain dispute
    served = tree_of(8, flips=(5,))
    trainer = threading.Thread(target=_fake_trainer, daemon=True, args=(
        listener, served, [case for case in cases for _ in range(2)]))
    trainer.start()
    outcomes = set()
    try:
        for label, _, _ in cases:
            try:
                report = game.challenge(local, (host, port), timeout=5)
                outcome = report.outcome
            except game.GameProtocolError:
                outcome = "protocol error"
            if outcome == game.DISPUTE_AT_LEAF:
                # an inner node the tree does not have, off the path it sends:
                # the claim still holds, with the evidence of the real tree
                assert report.leaf_index == 5, label
                assert game.judge_check(report, served.root, local.root), label
            else:
                assert outcome in ("protocol error", game.TRAINER_UNRESPONSIVE), label
            outcomes.add(outcome)
            result = CliRunner().invoke(main, [
                "dispute", str(tmp_path / "local.vtmt"), "--connect", f"{host}:{port}",
                "--timeout", "5"])
            assert isinstance(result.exception, SystemExit), (label, result.exception)
            if outcome == "protocol error":
                assert result.exit_code == 4, (label, result.output)
                assert result.output.count("protocol error: ") == 1, (label, result.output)
            else:
                assert result.exit_code == (1 if outcome == game.DISPUTE_AT_LEAF else 4), label
                assert json.loads(result.output)["outcome"] == outcome, label
        trainer.join(timeout=5)
        assert not trainer.is_alive()
    finally:
        listener.close()
    assert {"protocol error", game.TRAINER_UNRESPONSIVE} <= outcomes
