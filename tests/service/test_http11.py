"""The hand-framed HTTP/1.1 codec, from both ends and against the stdlib.

Three angles.  (a) Third-party clients — stdlib ``http.client`` and
``urllib.request`` (imported here only; the service itself must not load
them) and raw sockets — against the real ``ServiceServer``: keep-alive,
``Connection: close``, HTTP/1.0, ``Expect: 100-continue``, pipelining, a
request dribbled one byte per segment, the line/header limits, and the
hostile ``Content-Length`` values that hung or crashed the previous
transport.  (b) ``ServiceClient`` against a stdlib ``http.server`` stub that
splits, closes, truncates and mislabels its answers.  (c) The codec alone:
any segmentation of a valid byte stream parses to the same messages.
"""

from __future__ import annotations

import http.client
import http.server
import io
import json
import shutil
import socket
import subprocess
import sys
import threading
import time
import urllib.request

import pytest
from hypothesis import given, settings, strategies as st

from repro.service import ServiceClient, ServiceConfig, ServiceServer
from repro.service.errors import ServiceConnectionError
from repro.service.http11 import MAX_BODY, MAX_HEADERS, MAX_LINE, ProtocolError, frame, read_body, read_head

pytestmark = pytest.mark.filterwarnings("error")


def ping_body(request_id=7):
    return json.dumps({"jsonrpc": "2.0", "method": "service.ping", "id": request_id}).encode()


@pytest.fixture
def server():
    instance = ServiceServer(ServiceConfig(port=0, workers=2, idle_timeout=None)).start()
    yield instance
    instance.shutdown()


def ping_request(request_id=7, version="HTTP/1.1", extra=""):
    return frame(f"POST /rpc {version}", ping_body(request_id), "Host: test\r\n" + extra)


def raw_connection(server):
    sock = socket.create_connection((server.host, server.port), timeout=5.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock, sock.makefile("rb")


def read_answer(stream):
    (version, status, _reason), headers = read_head(stream)
    return version, int(status), headers, json.loads(read_body(stream, headers))


# -- (a) stdlib and raw clients against the new server --------------------------------


def test_stdlib_http_client_keeps_one_connection_alive(server):
    connection = http.client.HTTPConnection(server.host, server.port, timeout=5.0)
    try:
        for request_id in range(3):
            connection.request("POST", "/rpc", ping_body(request_id))
            response = connection.getresponse()
            answer = json.loads(response.read())
            assert response.status == 200 and not response.will_close
            assert answer["id"] == request_id and answer["result"]["ok"] is True
        connection.request("GET", "/healthz")
        assert json.loads(connection.getresponse().read()) == {"ok": True}
        connection.request("GET", "/nowhere")
        response = connection.getresponse()
        assert response.status == 404 and json.loads(response.read())["ok"] is False
    finally:
        connection.close()
    assert server.service.stats.connections_accepted == 1


def test_urllib_posts_and_gets(server):
    request = urllib.request.Request(
        f"{server.url}/rpc", data=ping_body(), headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=5.0) as response:
        assert json.loads(response.read())["result"]["ok"] is True
    with urllib.request.urlopen(f"{server.url}/healthz", timeout=5.0) as response:
        assert json.loads(response.read()) == {"ok": True}


def test_connection_close_is_echoed_and_honoured(server):
    sock, stream = raw_connection(server)
    with sock, stream:
        sock.sendall(ping_request(extra="Connection: close\r\n"))
        _version, status, headers, answer = read_answer(stream)
        assert status == 200 and headers["connection"] == "close" and answer["id"] == 7
        assert stream.read(1) == b""  # the server closed; it did not wait for a second request


def test_http_1_0_request_is_answered_then_closed(server):
    sock, stream = raw_connection(server)
    with sock, stream:
        sock.sendall(ping_request(version="HTTP/1.0"))
        _version, status, headers, answer = read_answer(stream)
        assert status == 200 and headers["connection"] == "close" and answer["result"]["ok"] is True
        assert stream.read(1) == b""


def test_expect_100_continue_gets_the_interim_answer_before_the_body(server):
    sock, stream = raw_connection(server)
    with sock, stream:
        head, _, body = ping_request(extra="Expect: 100-continue\r\n").partition(b"\r\n\r\n")
        sock.sendall(head + b"\r\n\r\n")
        assert stream.readline() == b"HTTP/1.1 100 Continue\r\n" and stream.readline() == b"\r\n"
        sock.sendall(body)
        assert read_answer(stream)[3]["result"]["ok"] is True


def test_two_pipelined_requests_in_one_segment_are_answered_in_order(server):
    sock, stream = raw_connection(server)
    with sock, stream:
        sock.sendall(ping_request(1) + ping_request(2))
        assert [read_answer(stream)[3]["id"] for _ in range(2)] == [1, 2]
    assert server.service.stats.connections_accepted == 1


def test_request_delivered_one_byte_per_segment(server):
    sock, stream = raw_connection(server)
    with sock, stream:
        for byte in ping_request(11):
            sock.sendall(bytes([byte]))
        _version, status, _headers, answer = read_answer(stream)
        assert status == 200 and answer["id"] == 11 and answer["result"]["ok"] is True


@pytest.mark.parametrize(
    "extra, status",
    [
        ("".join(f"X-{index}: v\r\n" for index in range(MAX_HEADERS - 3)), 200),  # 100 with Host + 2 framing
        ("".join(f"X-{index}: v\r\n" for index in range(MAX_HEADERS - 2)), 431),  # 101
        ("X-Long: " + "a" * MAX_LINE + "\r\n", 431),
    ],
)
def test_header_count_and_line_length_limits(server, extra, status):
    sock, stream = raw_connection(server)
    with sock, stream:
        sock.sendall(ping_request(extra=extra))
        _version, answered, headers, answer = read_answer(stream)
        assert answered == status
        if status != 200:
            assert headers["connection"] == "close" and answer["error"]["data"]["kind"] == "invalid_request"
            assert stream.read(1) == b""


def test_over_long_request_line_and_garbage_are_refused(server):
    for hostile in (
        b"GET /" + b"a" * (MAX_LINE + 1) + b" HTTP/1.1\r\n\r\n",
        b"garbage\r\n\r\n",
        b"GET / HTTP/2.0\r\n\r\n",
        b"POST /rpc HTTP/1.1\r\nContent-Length : 0\r\n\r\n",  # the request-smuggling spelling
        b"GET /healthz HTTP/1.1\r\nX-A: 1\r\n folded\r\n\r\n",
    ):
        sock, stream = raw_connection(server)
        with sock, stream:
            sock.sendall(hostile)
            _version, status, headers, _answer = read_answer(stream)
            assert status in (400, 431) and headers["connection"] == "close"


@pytest.mark.parametrize(
    "head, status",
    [
        ("Content-Length: -1\r\n", 400),  # parent: rfile.read(-1) parked the thread for 30 s
        ("Content-Length: 99999999999\r\n", 413),  # parent: MemoryError, socket dropped unanswered
        (f"Content-Length: {MAX_BODY + 1}\r\n", 413),
        ("Content-Length: " + "9" * 5000 + "\r\n", 413),
        ("Content-Length: abc\r\n", 400),
        ("Content-Length: 5\r\nContent-Length: 6\r\n", 400),
        ("Transfer-Encoding: chunked\r\n", 501),
    ],
)
def test_hostile_framing_gets_a_typed_answer_at_once(server, head, status):
    sock, stream = raw_connection(server)
    with sock, stream:
        started = time.monotonic()
        sock.sendall(b"POST /rpc HTTP/1.1\r\nHost: test\r\n" + head.encode() + b"\r\n")
        _version, answered, headers, answer = read_answer(stream)
        assert answered == status and headers["connection"] == "close"
        assert answer["error"]["data"]["kind"] == "invalid_request" and answer["id"] is None
        assert stream.read(1) == b""
        assert time.monotonic() - started < 1.0
    with ServiceClient(server.url, timeout=5.0) as client:  # and the server is none the worse
        assert client.ping()["ok"] is True


def test_body_at_the_limit_is_read_not_refused(server):
    sock, stream = raw_connection(server)
    with sock, stream:
        sock.sendall(frame("POST /rpc HTTP/1.1", b" " * (MAX_BODY - len(ping_body())) + ping_body(), "Host: test\r\n"))
        assert read_answer(stream)[3]["result"]["ok"] is True


# -- (b) the new client against a stdlib http.server stub -----------------------------


class StubHandler(http.server.BaseHTTPRequestHandler):
    """Answers by the server's ``script``: one behaviour name per request."""

    protocol_version = "HTTP/1.1"

    def log_message(self, *args):
        pass

    def do_POST(self):  # noqa: N802
        stub = self.server
        envelope = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        stub.seen.append((envelope["method"], self.client_address[1]))
        behaviour = stub.script.pop(0) if stub.script else "ok"
        answer_id = envelope["id"] + 1 if behaviour == "wrong_id" else envelope["id"]
        answer = {"jsonrpc": "2.0", "id": answer_id, "result": {"ok": True, "pad": "x" * 300}}
        if behaviour == "no_id":
            del answer["id"]
        body = json.dumps(answer).encode()
        self.send_response(500 if behaviour == "status_500" else 200)
        self.send_header("Content-Length", str(len(body)))
        if behaviour == "close":
            self.send_header("Connection", "close")
        self.end_headers()
        if behaviour == "split":
            for piece in (body[:1], body[1:150], body[150:]):
                self.wfile.write(piece)
                self.wfile.flush()
                time.sleep(0.02)
        elif behaviour == "truncate":
            self.wfile.write(body[:10])
            self.close_connection = True
        else:
            self.wfile.write(body)


@pytest.fixture
def stub():
    instance = http.server.ThreadingHTTPServer(("127.0.0.1", 0), StubHandler)
    instance.daemon_threads = True
    instance.script, instance.seen = [], []
    instance.url = "http://127.0.0.1:%d" % instance.server_address[1]
    thread = threading.Thread(target=instance.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True)
    thread.start()
    yield instance
    instance.shutdown()
    instance.server_close()
    thread.join(timeout=5)


def test_client_reassembles_a_body_split_across_segments(stub):
    stub.script = ["split", "ok"]
    with ServiceClient(stub.url, timeout=5.0, sleep=pytest.fail) as client:
        assert client.ping()["pad"] == "x" * 300
        assert client.ping()["ok"] is True
    assert len({port for _method, port in stub.seen}) == 1  # still the one connection


def test_connection_close_answer_then_transparent_reconnect(stub):
    stub.script = ["close", "ok"]
    with ServiceClient(stub.url, timeout=5.0, sleep=pytest.fail) as client:
        assert client.submit_transaction("s", "alice", "0x00")["ok"] is True
        assert client._connections[threading.get_ident()].sock is None  # closed on the server's say-so
        assert client.submit_transaction("s", "alice", "0x00")["ok"] is True
        assert client.retries_performed == 0
    assert [method for method, _port in stub.seen] == ["tx.submit"] * 2
    assert len({port for _method, port in stub.seen}) == 2


@pytest.mark.parametrize("behaviour", ["status_500", "truncate"])
def test_non_200_and_eof_mid_body_are_typed_errors(stub, behaviour):
    stub.script = [behaviour]
    with ServiceClient(stub.url, timeout=5.0, retries=0) as client:
        with pytest.raises(ServiceConnectionError):
            client.ping()
        assert client._connections[threading.get_ident()].sock is None
        assert client.ping()["ok"] is True  # the poisoned connection was replaced


@pytest.mark.parametrize("behaviour", ["wrong_id", "no_id"])
def test_answer_with_another_requests_id_is_refused(stub, behaviour):
    """Fails on the parent, which handed the caller whatever envelope arrived."""
    stub.script = [behaviour]
    slept = []
    with ServiceClient(stub.url, timeout=5.0, retries=2, sleep=slept.append) as client:
        started = time.monotonic()
        with pytest.raises(ServiceConnectionError, match="request id"):
            client.submit_transaction("s", "alice", "0x00")
        assert time.monotonic() - started < 1.0
        assert [method for method, _port in stub.seen] == ["tx.submit"]  # sent exactly once
        assert slept == [] and client.retries_performed == 0
        assert client._connections[threading.get_ident()].sock is None  # the stream is out of step: dropped
        # An idempotent verb takes the ordinary retry path, on a fresh connection.
        stub.script = [behaviour]
        assert client.session_status("s")["ok"] is True
        assert client.retries_performed == 1 and len(slept) == 1
    assert [method for method, _port in stub.seen][1:] == ["session.status"] * 2
    assert len({port for _method, port in stub.seen}) == 3


@pytest.mark.skipif(shutil.which("openssl") is None, reason="needs the openssl CLI to mint a certificate")
def test_https_url_is_served_through_a_lazily_imported_ssl(stub, tmp_path, monkeypatch):
    import ssl

    certificate, key = tmp_path / "cert.pem", tmp_path / "key.pem"
    subprocess.run(
        ["openssl", "req", "-x509", "-newkey", "rsa:2048", "-nodes", "-days", "2", "-subj", "/CN=127.0.0.1",
         "-addext", "subjectAltName=IP:127.0.0.1", "-keyout", str(key), "-out", str(certificate)],
        check=True, capture_output=True,
    )
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(certificate, key)
    stub.socket = context.wrap_socket(stub.socket, server_side=True)
    monkeypatch.setenv("SSL_CERT_FILE", str(certificate))  # what create_default_context() trusts
    with ServiceClient(stub.url.replace("http://", "https://"), timeout=5.0, retries=0) as client:
        assert client.ping()["ok"] is True and client.ping()["ok"] is True
    assert len({port for _method, port in stub.seen}) == 1
    monkeypatch.delenv("SSL_CERT_FILE")
    with ServiceClient(stub.url.replace("http://", "https://"), timeout=5.0, retries=0) as client:
        with pytest.raises(ServiceConnectionError):  # an untrusted certificate is a typed error too
            client.ping()


# -- (c) the codec alone ---------------------------------------------------------------


class Segmented(io.RawIOBase):
    """A raw stream that hands out ``data`` cut at the given offsets, the way
    a socket hands out TCP segments."""

    def __init__(self, data, cuts):
        edges = [0, *sorted(cuts), len(data)]
        self.segments = [data[a:b] for a, b in zip(edges, edges[1:]) if a < b]

    def readable(self):
        return True

    def readinto(self, buffer):
        if not self.segments:
            return 0
        segment = self.segments[0][: len(buffer)]
        self.segments[0] = self.segments[0][len(segment):]
        if not self.segments[0]:
            self.segments.pop(0)
        buffer[: len(segment)] = segment
        return len(segment)


def parse_all(stream):
    messages = []
    for head in iter(lambda: read_head(stream), None):
        messages.append((head[0], head[1], read_body(stream, head[1])))
    return messages


token = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=12)
messages_strategy = st.lists(
    st.tuples(
        st.sampled_from(["POST /rpc HTTP/1.1", "GET /healthz HTTP/1.0", "HTTP/1.1 200 OK", "HTTP/1.1 404 Not Found"]),
        st.dictionaries(token.map(lambda name: "X-" + name), token, max_size=4),
        st.binary(max_size=200),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=150, deadline=None)
@given(messages=messages_strategy, data=st.data())
def test_any_segmentation_parses_to_the_same_messages(messages, data):
    wire = b"".join(
        frame(start, body, "".join(f"{name}: {value}\r\n" for name, value in headers.items()))
        for start, headers, body in messages
    )
    cuts = data.draw(st.lists(st.integers(min_value=0, max_value=len(wire)), max_size=40))
    whole = parse_all(io.BufferedReader(Segmented(wire, [])))
    assert parse_all(io.BufferedReader(Segmented(wire, cuts))) == whole
    assert [(" ".join(start), body) for start, _headers, body in whole] == [
        (start, body) for start, _headers, body in messages
    ]
    for (_start, parsed, body), (_, sent, _body) in zip(whole, messages):
        assert parsed == {
            **{name.lower(): value for name, value in sent.items()},
            "content-type": "application/json",
            "content-length": str(len(body)),
        }


def test_truncated_streams_raise_never_return_a_short_message():
    wire = frame("HTTP/1.1 200 OK", b'{"ok": true}')
    for end in range(1, len(wire)):
        stream = io.BufferedReader(Segmented(wire[:end], []))
        with pytest.raises(ProtocolError):
            parse_all(stream)
    assert read_head(io.BytesIO(b"")) is None


# -- the import gate ---------------------------------------------------------------------


def test_service_import_and_a_round_trip_load_no_stdlib_http_machinery():
    probe = (
        "import sys\n"
        "heavy = ('http.client', 'http.server', 'email.parser', 'ssl', 'urllib.request')\n"
        "import repro.service\n"
        "assert not [name for name in heavy if name in sys.modules], 'on import'\n"
        "from repro.service import ServiceClient, ServiceConfig, ServiceServer\n"
        "server = ServiceServer(ServiceConfig(port=0, idle_timeout=None)).start()\n"
        "with ServiceClient(server.url, timeout=5.0) as client:\n"
        "    assert client.ping()['ok'] and client.healthz() == {'ok': True}\n"
        "server.shutdown()\n"
        "loaded = [name for name in heavy if name in sys.modules]\n"
        "assert not loaded, loaded\n"
        "print('light')\n"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert "light" in result.stdout
