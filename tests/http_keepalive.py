"""Keep-alive transport helpers shared by the serving-tier HTTP tests.

``urllib`` opens a new connection per request, which hides transport
stalls that only a reused connection shows (a reply split across two
writes waits for the client's delayed ACK of the first).  Everything
here drives one ``http.client.HTTPConnection`` instead.
"""

import http.client
import json
import socket
import time


def keepalive_round_trips(server, payload, n_requests):
    """POST ``payload`` to ``/impute`` ``n_requests`` times on one connection.

    Returns ``(seconds, status, reply)`` per request.  Raises if the
    client had to reconnect, so every round trip after the first is a
    reused connection.
    """
    connection = http.client.HTTPConnection(server.host, server.port,
                                            timeout=30)
    body = json.dumps(payload)
    trips = []
    try:
        connection.connect()
        sock = connection.sock
        for _ in range(n_requests):
            started = time.perf_counter()
            connection.request("POST", "/impute", body,
                               {"Content-Type": "application/json"})
            response = connection.getresponse()
            reply = json.loads(response.read())
            trips.append((time.perf_counter() - started, response.status,
                          reply))
            assert connection.sock is sock, "server closed the connection"
    finally:
        connection.close()
    return trips


class _RecordingSocket(socket.socket):
    """Accepted socket that keeps every payload handed to the kernel."""

    def send(self, data, *flags):
        self.writes.append(bytes(data))
        return super().send(data, *flags)

    def sendall(self, data, *flags):
        self.writes.append(bytes(data))
        return super().sendall(data, *flags)


def record_transport(server, monkeypatch):
    """Serve ``server``'s next connections through a recording handler.

    Returns a list that gains one ``{"nodelay": int, "writes": [bytes]}``
    entry per accepted connection: the socket's ``TCP_NODELAY`` flag
    after handler set-up, and each payload written to it in order.
    """
    httpd = server._httpd
    connections = []

    class RecordingHandler(httpd.RequestHandlerClass):
        def setup(self):
            accepted = self.request
            self.request = _RecordingSocket(
                accepted.family, accepted.type, accepted.proto,
                fileno=accepted.detach())
            self.request.writes = []
            super().setup()
            connections.append({
                "nodelay": self.connection.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY),
                "writes": self.request.writes,
            })

        def finish(self):
            super().finish()
            # The server shuts down the detached original, not this one.
            self.request.close()

    monkeypatch.setattr(httpd, "RequestHandlerClass", RecordingHandler)
    return connections


def split_reply(write):
    """``(status_line, headers, body)`` of one raw HTTP reply."""
    head, _, body = write.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in header_lines)
    return status_line, headers, body
