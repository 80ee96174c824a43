"""Fake chat-completion server for the `corpus_http` workload.

    python3 bench/fakechat.py --latency-ms 10

binds 127.0.0.1 on a free port, prints the port on the first line of its
standard output, and serves until it is terminated. Each POST sleeps the
injected latency and answers with the text the mock backend gives for the
same prompt, with usage counts equal to the mock's, so verdicts and token
counts match a `mock` run. GET /stats returns the request, connection and
handling-time counters. HTTP/1.1 keep-alive is supported, so a client that
reuses connections shows it in `connections`.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ponzilens.detect import LlmConfig, PromptBundle, PromptParts, complete, estimate_tokens  # noqa: E402

MOCK = LlmConfig()


class Stats:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.requests = 0
        self.connections = 0
        self.busy_s = 0.0

    def snapshot(self) -> dict:
        with self.lock:
            return {"requests": self.requests, "connections": self.connections, "busy_s": self.busy_s}


class ChatHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    stats: Stats
    latency_s: float
    _counted = False

    def do_POST(self):  # noqa: N802
        started = time.perf_counter()
        raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        prompt = json.loads(raw)["messages"][0]["content"]
        reply = complete(
            PromptBundle("analysis", prompt, PromptParts(), "fake", estimate_tokens(prompt)),
            MOCK,
        )
        time.sleep(self.latency_s)
        body = json.dumps(
            {
                "choices": [{"message": {"content": reply.text}}],
                "usage": {
                    "prompt_tokens": reply.input_tokens,
                    "completion_tokens": reply.output_tokens,
                },
            }
        ).encode()
        self._send(body)
        with self.stats.lock:
            self.stats.requests += 1
            self.stats.connections += not self._counted
            self.stats.busy_s += time.perf_counter() - started
        self._counted = True

    def do_GET(self):  # noqa: N802
        self._send(json.dumps(self.stats.snapshot()).encode())

    def _send(self, body: bytes) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        self.wfile.flush()

    def log_message(self, *args):
        pass


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--latency-ms", type=float, required=True)
    args = ap.parse_args(argv)
    ChatHandler.stats = Stats()
    ChatHandler.latency_s = args.latency_ms / 1000.0
    server = ThreadingHTTPServer(("127.0.0.1", 0), ChatHandler)
    server.daemon_threads = True
    print(server.server_address[1], flush=True)
    server.serve_forever()
    return 0


if __name__ == "__main__":
    sys.exit(main())
