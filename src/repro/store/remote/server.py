"""The shard backend: a :class:`StoreServer` any ArtifactStore can back.

One server owns one :class:`repro.store.ArtifactStore` (usually
disk-backed) and speaks the framed protocol of
:mod:`repro.store.remote.framing` over TCP.  The request set is small
and idempotent — content addressing makes PUT a blind overwrite of
identical bytes, so clients can retry anything without a dedup
handshake:

========  ===========================================================
``ping``  liveness + shard identity (used by breaker half-open probes)
``get``   one artefact by key; payload is the serial.py encoding
``put``   store one artefact; the server decodes (re-hash included)
          before it touches the store, so a corrupt frame never lands
``keys``  all keys the shard holds (reconciliation and fsck)
``stats`` the backing store's counters plus server request counters
``fsck``  run the store doctor on the shard's own directory
========  ===========================================================

Threading model: one accept loop plus one thread per connection, all
daemonic; a coarse lock serializes store access (the store's own
cross-process safety is for *processes*; in-process callers share one
object).  ``stop()`` closes the listener and every live connection.
"""

from __future__ import annotations

import socket
import threading
from typing import Any, Dict, Optional, Tuple

from repro.errors import FrameError, StoreError, TransportError
from repro.store.remote.framing import recv_frame, send_frame
from repro.store.serial import (
    decode_artifact,
    encode_artifact,
    pack_artifacts,
    unpack_artifacts,
)


class StoreServer:
    """Serve one ArtifactStore as a shard backend over TCP.

    Args:
        store: the backing :class:`repro.store.ArtifactStore` (or
            anything with get/put/keys/stats).
        host: bind address (default loopback).
        port: bind port; 0 picks a free one (see :attr:`address`).
        name: shard identity reported by ``ping`` (defaults to
            ``host:port`` once bound).
    """

    def __init__(self, store, host: str = "127.0.0.1", port: int = 0,
                 name: str = ""):
        self.store = store
        self._lock = threading.Lock()
        self._listener: Optional[socket.socket] = None
        self._threads: list = []
        self._conns: list = []
        self._running = False
        self.requests = 0
        self.errors = 0
        self._host = host
        self._port = port
        self._name = name

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        if self._listener is None:
            raise StoreError("server not started")
        return self._listener.getsockname()[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"tcp://{host}:{port}"

    def start(self) -> "StoreServer":
        if self._running:
            return self
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._port))
        listener.listen(16)
        self._listener = listener
        if not self._name:
            host, port = self.address
            self._name = f"{host}:{port}"
        self._running = True
        accept = threading.Thread(target=self._accept_loop,
                                  name=f"store-server:{self._name}",
                                  daemon=True)
        accept.start()
        self._threads.append(accept)
        return self

    def stop(self) -> None:
        """Stop accepting, close every connection, join the accept
        thread (idempotent — a double stop is a no-op)."""
        self._running = False
        if self._listener is not None:
            # A thread blocked in accept() is not reliably woken by
            # close() on Linux; poke it with a throwaway connection so
            # the join below returns immediately instead of timing out.
            try:
                host, port = self._listener.getsockname()[:2]
                if host == "0.0.0.0":
                    host = "127.0.0.1"
                socket.create_connection((host, port),
                                         timeout=0.5).close()
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        for conn in list(self._conns):
            try:
                conn.close()
            except OSError:
                pass
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join(timeout=2.0)
        self._threads = []

    def __enter__(self) -> "StoreServer":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False

    # -- the serve loop ------------------------------------------------------

    def _accept_loop(self) -> None:
        while self._running:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return                       # listener closed by stop()
            self._conns.append(conn)
            # Workers are daemonic and not retained: a long-running
            # serve process would otherwise grow the list without
            # bound, and shutdown only needs self._conns (closing a
            # connection unblocks its worker).
            worker = threading.Thread(target=self._serve_connection,
                                      args=(conn,), daemon=True)
            worker.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            while self._running:
                try:
                    header, payload = recv_frame(conn)
                except (FrameError, TransportError):
                    return               # peer went away or spoke garbage
                response, out_payload = self._handle(header, payload)
                try:
                    send_frame(conn, response, out_payload)
                except TransportError:
                    return
        finally:
            try:
                conn.close()
            except OSError:
                pass
            if conn in self._conns:
                self._conns.remove(conn)

    # -- request handlers ----------------------------------------------------

    def _handle(self, header: Dict[str, Any], payload: bytes
                ) -> Tuple[Dict[str, Any], bytes]:
        self.requests += 1
        op = header.get("op", "")
        key = header.get("key", "")
        try:
            if op == "ping":
                return {"ok": True, "shard": self._name}, b""
            if op == "get":
                return self._handle_get(key)
            if op == "put":
                return self._handle_put(key, payload)
            if op == "multi_get":
                return self._handle_multi_get(header)
            if op == "multi_put":
                return self._handle_multi_put(header, payload)
            if op == "keys":
                with self._lock:
                    keys = sorted(self.store.keys())
                return {"ok": True, "keys": keys}, b""
            if op == "stats":
                with self._lock:
                    stats = dict(self.store.stats())
                stats.update(server_requests=self.requests,
                             server_errors=self.errors,
                             shard=self._name)
                return {"ok": True, "stats": stats}, b""
            if op == "fsck":
                return self._handle_fsck(header)
            self.errors += 1
            return {"ok": False, "error": f"unknown op {op!r}"}, b""
        except StoreError as exc:
            self.errors += 1
            return {"ok": False, "error": str(exc)}, b""
        except Exception as exc:        # never let one request kill the shard
            self.errors += 1
            return {"ok": False,
                    "error": f"{type(exc).__name__}: {exc}"}, b""

    def _handle_get(self, key: str) -> Tuple[Dict[str, Any], bytes]:
        with self._lock:
            artifact = self.store.get(key)
        if artifact is None:
            return {"ok": True, "found": False}, b""
        return {"ok": True, "found": True}, encode_artifact(key, artifact)

    def _handle_put(self, key: str, payload: bytes
                    ) -> Tuple[Dict[str, Any], bytes]:
        # Decode first: the re-hash inside decode_artifact is the trust
        # boundary, so a corrupt frame is rejected before the store is
        # touched.
        _kind, artifact = decode_artifact(payload, expect_key=key)
        with self._lock:
            self.store.put(key, artifact)
        return {"ok": True, "stored": True}, b""

    def _handle_multi_get(self, header: Dict[str, Any]
                          ) -> Tuple[Dict[str, Any], bytes]:
        """Batched get: one frame in, every found artefact back.

        The response header carries parallel ``found``/``sizes`` lists
        and the payload is the encodings concatenated in that order;
        keys the shard does not hold are simply absent from ``found``.
        """
        keys = header.get("keys", [])
        if not isinstance(keys, list):
            raise StoreError("multi_get needs a 'keys' list")
        items = []
        with self._lock:
            for key in keys:
                artifact = self.store.get(str(key))
                if artifact is not None:
                    items.append((str(key), artifact))
        found, sizes, payload = pack_artifacts(items)
        return {"ok": True, "found": found, "sizes": sizes}, payload

    def _handle_multi_put(self, header: Dict[str, Any], payload: bytes
                          ) -> Tuple[Dict[str, Any], bytes]:
        """Batched put: decode the whole batch first, then store it.

        Decode-before-store keeps the trust boundary of the single
        ``put``: one corrupt item rejects the frame and nothing from
        the batch lands, so the client's retry replays it whole.
        """
        keys = header.get("keys", [])
        sizes = header.get("sizes", [])
        if not isinstance(keys, list) or not isinstance(sizes, list):
            raise StoreError("multi_put needs 'keys' and 'sizes' lists")
        items = unpack_artifacts([str(k) for k in keys],
                                 [int(s) for s in sizes], payload)
        with self._lock:
            for key, artifact in items:
                self.store.put(key, artifact)
        return {"ok": True, "stored": len(items)}, b""

    def _handle_fsck(self, header: Dict[str, Any]
                     ) -> Tuple[Dict[str, Any], bytes]:
        from repro.resilience.fsck import TMP_GRACE_SECONDS, fsck_store

        cache_dir = getattr(self.store, "cache_dir", None)
        if cache_dir is None:
            return {"ok": False,
                    "error": "shard store is memory-only; nothing to "
                             "fsck"}, b""
        grace = float(header.get("grace", TMP_GRACE_SECONDS))
        with self._lock:
            report = fsck_store(cache_dir, grace=grace)
        return {"ok": True,
                "report": {
                    "cache_dir": report.cache_dir,
                    "objects_checked": report.objects_checked,
                    "orphan_tmps_removed": report.orphan_tmps_removed,
                    "corrupt_objects_removed":
                        report.corrupt_objects_removed,
                    "stale_format_objects_removed":
                        report.stale_format_objects_removed,
                    "journal_bytes_truncated":
                        report.journal_bytes_truncated,
                    "journal_entries_dropped":
                        report.journal_entries_dropped,
                    "clean": report.clean,
                    "actions": list(report.actions),
                }}, b""

    def __repr__(self) -> str:
        state = "up" if self._running else "down"
        return f"StoreServer({self._name or 'unbound'}, {state})"


def serve_forever(cache_dir, host: str = "127.0.0.1",
                  port: int = 0) -> None:
    """Blocking entry point for ``pld store serve``."""
    from repro.store import ArtifactStore

    store = ArtifactStore(cache_dir=cache_dir)
    server = StoreServer(store, host=host, port=port).start()
    bound_host, bound_port = server.address
    print(f"pld store shard serving {cache_dir} on "
          f"tcp://{bound_host}:{bound_port}", flush=True)
    try:
        while True:
            threading.Event().wait(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
