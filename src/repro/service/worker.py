"""Worker loop: lease -> compute -> report, with heartbeat renewal.

A :class:`ServiceWorker` is a plain client of the HTTP surface — it owns no
scheduler state, so any number can point at one service from anywhere that
can reach it.  Cells are recomputed through the existing
:func:`repro.experiments.runners.compute_cell`, so backend resolution,
derived seeds and row normalisation are exactly the serial path's: a cell
computed by any worker is bit-for-bit the cell ``run_spec`` would have
produced.

Failure model (mirrors the scheduler's):

* a worker that is killed simply stops renewing; its lease expires and the
  cell is re-leased — nothing to clean up;
* a *computation* error is reported to the scheduler (``error=``), which
  requeues the cell up to its attempt budget;
* an unreachable server ends the loop with :class:`ServiceError` — the CLI
  prints it as a one-line message.

When the queue is empty the worker backs off with jittered sleeps (capped
exponential), so a fleet of idle workers does not synchronise into a
thundering herd of polls.
"""

from __future__ import annotations

import os
import random
import socket
import threading
import time
from typing import Any, Dict, Optional

from repro.api.spec import ExperimentCell, Placement
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import encode_embeddings

#: Environment variable holding a fault-injection delay (seconds) applied
#: between leasing and computing.  Used by the test-suite to hold a lease
#: open deterministically (e.g. to SIGKILL a worker mid-lease); unset in
#: normal operation.
FAULT_DELAY_ENV = "REPRO_SERVICE_FAULT_DELAY"


class _Heartbeat:
    """Background lease renewal while one cell computes.

    Renews at a third of the lease window so two consecutive renewals can
    fail (busy server, transient network) before the lease is actually at
    risk.  Renewal errors are swallowed: an expired lease just means the
    cell was re-leased, and the late report is still accepted.
    """

    def __init__(self, client: ServiceClient, lease_id: str, lease_seconds: float) -> None:
        self._client = client
        self._lease_id = lease_id
        self._interval = max(0.05, float(lease_seconds) / 3.0)
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"lease-heartbeat-{lease_id[:8]}", daemon=True
        )

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._stop.set()
        self._thread.join(timeout=5)

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                self._client.renew(self._lease_id)
            except ServiceError:
                return  # lease gone (expired/completed); stop heartbeating


class ServiceWorker:
    """Polls a service for leased cells, computes them, reports results.

    Parameters
    ----------
    server:
        Base URL of the service (``http://host:port``).
    name:
        Worker identity recorded on leases (defaults to ``host:pid``).
    poll_interval:
        Base idle backoff in seconds; actual sleeps are jittered and grow
        up to 8x while the queue stays empty.
    max_cells:
        Stop after computing this many cells (``None`` = unbounded).
    drain:
        Exit once a lease request comes back empty *and* the scheduler has
        no pending or leased cells left — i.e. the submitted work is done,
        not merely momentarily unavailable.
    lease_seconds:
        Per-worker lease window override (``None`` = server default).
    placement:
        Where this worker keeps its data (:class:`~repro.api.Placement`:
        on-disk graphs, the walk-corpus cache), applied to every leased
        cell.  It is the worker's own choice — the submitting client need
        not know this host's layout — and many cells of one spec share a
        graph, so a fleet with a shared artifact directory walks each corpus
        exactly once.  Reported rows and embeddings are bit-identical for
        every placement.
    """

    def __init__(
        self,
        server: str,
        name: Optional[str] = None,
        poll_interval: float = 1.0,
        max_cells: Optional[int] = None,
        drain: bool = False,
        lease_seconds: Optional[float] = None,
        placement: Placement = Placement(),
    ) -> None:
        self.client = server if isinstance(server, ServiceClient) else ServiceClient(server)
        self.name = name or f"{socket.gethostname()}:{os.getpid()}"
        self.poll_interval = float(poll_interval)
        self.max_cells = max_cells
        self.drain = bool(drain)
        self.lease_seconds = lease_seconds
        self.placement = placement
        self.completed = 0
        self.failed = 0
        self._stop = threading.Event()
        self._rng = random.Random(hash((self.name, os.getpid())) & 0xFFFFFFFF)

    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Ask the loop to exit after the in-flight cell (thread-safe)."""
        self._stop.set()

    def run_once(self) -> Optional[str]:
        """Lease and process at most one cell; returns its key (or None).

        Raises :class:`ServiceError` if the server is unreachable.
        """
        response = self.client.lease(
            worker=self.name, lease_seconds=self.lease_seconds
        )
        lease = response.get("lease")
        if lease is None:
            return None
        self._process(lease)
        return str(lease["cell_key"])

    def run(self) -> int:
        """Process cells until stopped/drained; returns cells completed."""
        idle_rounds = 0
        while not self._stop.is_set():
            response = self.client.lease(
                worker=self.name, lease_seconds=self.lease_seconds
            )
            lease = response.get("lease")
            if lease is None:
                if self.drain and int(response.get("outstanding") or 0) == 0:
                    break
                self._sleep_idle(idle_rounds)
                idle_rounds += 1
                continue
            idle_rounds = 0
            self._process(lease)
            if self.max_cells is not None and self.completed >= self.max_cells:
                break
        return self.completed

    # ------------------------------------------------------------------
    def _process(self, lease: Dict[str, Any]) -> None:
        from repro.experiments.runners import compute_cell

        cell_key = str(lease["cell_key"])
        lease_id = str(lease["lease_id"])
        fault_delay = float(os.environ.get(FAULT_DELAY_ENV) or 0.0)
        if fault_delay > 0:
            time.sleep(fault_delay)
        with _Heartbeat(self.client, lease_id, float(lease["lease_seconds"])):
            try:
                row, embeddings, wall = compute_cell(
                    ExperimentCell.from_dict(lease["cell"]),
                    bool(lease.get("store_embeddings")),
                    self.placement,
                )
            except ServiceError:
                raise
            except Exception as exc:  # noqa: BLE001 — a bad cell must not kill the worker
                self.failed += 1
                self.client.report(
                    cell_key, lease_id=lease_id, error=f"{type(exc).__name__}: {exc}"
                )
                return
        self.client.report(
            cell_key,
            row=row,
            embeddings_b64=encode_embeddings(embeddings),
            wall_time=wall,
            lease_id=lease_id,
        )
        self.completed += 1

    def _sleep_idle(self, idle_rounds: int) -> None:
        # Capped exponential backoff with +/-50% jitter: idle workers spread
        # their polls instead of hammering the server in lockstep.
        backoff = self.poll_interval * min(8.0, 2.0 ** min(idle_rounds, 3))
        self._stop.wait(backoff * self._rng.uniform(0.5, 1.5))
