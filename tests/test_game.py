"""Verification game: serve/challenge over sockets, judge checks."""

import hashlib
import json
import random
import socket
import threading

import numpy as np
import pytest

from vtrain import game, merkle


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

    def test_dispute_at_flipped_leaf(self, served):
        addr, launch = served
        trainer = tree_of(8, flips=(5,))
        auditor = tree_of(8)
        launch(trainer)
        report = game.challenge(auditor, addr, timeout=5)
        assert report.outcome == game.DISPUTE_AT_LEAF
        assert report.leaf_index == 5
        assert report.node_requests <= 2 * int(np.ceil(np.log2(8))) + 2
        assert game.judge_check(report, trainer.root, auditor.root)

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
            i for i in range(n) if trainer.leaves[i] != auditor.leaves[i]
        )
        assert report.outcome == game.DISPUTE_AT_LEAF
        assert report.leaf_index == oracle == flip
        assert report.node_requests <= 2 * int(np.ceil(np.log2(max(n, 2)))) + 2
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
            {"type": "hello", "protocol_version": game.PROTOCOL_VERSION, "run_id": "x"},
        ])
        assert resp["type"] == "root_announce"
        assert resp["root"] == tree.root_hex
        assert resp["leaf_count"] == 5

    def test_node_request_served(self, served):
        addr, launch = served
        tree = tree_of(4)
        launch(tree)
        resps = self._talk(addr, [
            {"type": "hello", "protocol_version": game.PROTOCOL_VERSION, "run_id": "x"},
            {"type": "node_request", "level": 0, "index": 0},
        ])
        assert resps[1] == {
            "type": "node_response", "level": 0, "index": 0,
            "digest": tree.leaves[0].hex(),
        }

    def test_out_of_range_refused(self, served):
        addr, launch = served
        launch(tree_of(4))
        resps = self._talk(addr, [
            {"type": "hello", "protocol_version": game.PROTOCOL_VERSION, "run_id": "x"},
            {"type": "node_request", "level": 0, "index": 9},
        ])
        assert resps[1]["type"] == "refuse"

    def test_old_protocol_version_refused(self, served):
        addr, launch = served
        tree = tree_of(8)
        server = launch(tree, sessions=2)
        (resp,) = self._talk(addr, [{"type": "hello", "protocol_version": 1, "run_id": "x"}])
        assert resp == {"type": "refuse", "reason": "unsupported protocol version"}
        report = game.challenge(tree, addr, timeout=5)
        assert report.outcome == game.TRAINING_VERIFIED
        server.thread.join(timeout=5)
        assert not server.thread.is_alive()

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

    def test_verdict_claim_recorded(self, served):
        addr, launch = served
        trainer = tree_of(8, flips=(2,))
        server = launch(trainer)
        report = game.challenge(tree_of(8), addr, timeout=5)
        assert report.outcome == game.DISPUTE_AT_LEAF
        server.thread.join(timeout=5)
        assert server.last_claim is not None
        assert server.last_claim["first_divergent_leaf"] == 2


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
            tampered = game._path_from_wire(corrupted)
            assert not merkle.verify_path(tampered, trainer.root)

    def test_report_json_roundtrip(self, served):
        report, trainer, auditor = self._dispute(served)
        doc = report.to_json_dict()
        text = json.dumps(doc)
        back = json.loads(text)
        assert back["outcome"] == game.DISPUTE_AT_LEAF
        assert back["leaf_index"] == report.leaf_index
        assert merkle.verify_path(game._path_from_wire(back["trainer_path"]), trainer.root)


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
        assert report.node_requests <= 2 * int(np.ceil(np.log2(max(n, 2)))) + 2, n


def _frame(payload: bytes) -> bytes:
    return len(payload).to_bytes(4, "little") + payload


def _json_frame(doc) -> bytes:
    return _frame(json.dumps(doc).encode())  # writes NaN and Infinity as Python does


def fuzz_cases(rng: random.Random) -> list[tuple[str, bytes, list]]:
    """(label, bytes a client sends, response types the server must send back).

    No case sends anything after a frame the server ends the session on,
    so the server never closes with unread input.
    """
    hello = _json_frame({"type": "hello", "protocol_version": game.PROTOCOL_VERSION,
                         "run_id": "fuzz"})
    node_request = _json_frame({"type": "node_request", "level": 0, "index": 0})
    refused = ["refuse"]
    cases = []
    for _ in range(3):
        cases.append(("truncated header", node_request[: rng.randrange(1, 4)], []))
        cases.append(("truncated payload", node_request[: rng.randrange(4, len(node_request))],
                      []))
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
    for nonfinite in (float("nan"), float("inf"), float("-inf")):
        doc = {"type": "hello", "protocol_version": nonfinite, "run_id": "fuzz"}
        cases.append(("non-finite version", _json_frame(doc), refused))
    for value in (1.0, 0.5, float("inf"), float("-inf"), float("nan"), "0", True, False,
                  [0], None, {"level": 0}, 10**30, -(10**30), 2**64, -1):
        for coord in ("level", "index"):
            request = {"type": "node_request", "level": 0, "index": 0, coord: value}
            cases.append((f"{coord}={value!r}", hello + _json_frame(request),
                          ["root_announce", "refuse"]))
    cases.append(("request before hello", node_request + hello,
                  ["node_response", "root_announce"]))
    cases.append(("second hello", hello + hello, ["root_announce", "root_announce"]))
    for doc in ({"type": "root_announce", "root": "00" * 32, "leaf_count": 8},
                {"type": "node_response", "level": 0, "index": 0, "digest": "00" * 32},
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
