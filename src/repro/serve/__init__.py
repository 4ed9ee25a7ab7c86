"""repro.serve — the long-lived inference service over a trained CATI.

``python -m repro serve --model DIR --port N`` starts a JSON-over-HTTP
daemon (stdlib only: ``http.server`` + threads) that keeps one verified
:class:`~repro.core.artifacts.ModelBundle` resident and answers typing
queries at interactive latency — the workload shape decompiler plugins
and decompiled-code pipelines assume.

The moving parts:

* :mod:`repro.serve.protocol` — the wire format: request/response JSON
  schemas and the :class:`~repro.codegen.binary.Binary` ↔ JSON codec
  (shared with ``python -m repro infer --json`` so offline and served
  outputs are diffable);
* :mod:`repro.serve.scheduler` — the dynamic micro-batching scheduler:
  concurrent requests' VUC windows coalesce into single
  :class:`~repro.core.engine.InferenceEngine` calls (a 5 ms wait, up
  to 4096 windows), behind a bounded admission queue with
  per-request deadlines;
* :mod:`repro.serve.host` — the resident model: thread-safe engine
  swap and ``POST /v1/reload`` verification off the serving threads;
* :mod:`repro.serve.server` — the HTTP daemon: ``POST /v1/infer``,
  ``POST /v1/reload``, ``GET /healthz``, ``GET /metricsz``, 503 +
  ``Retry-After`` on overload, SIGTERM drain;
* :mod:`repro.serve.router` / :mod:`repro.serve.worker` — the pre-fork
  scale-out path (``--workers N``): N worker processes, each a full
  daemon loading the bundle checksums-first like an offline load,
  behind a router doing least-loaded dispatch,
  admission control, generation-fenced rolling reloads, crash respawn,
  and merged ``/healthz``//``/metricsz``;
* :mod:`repro.serve.client` — the small blocking client behind
  ``python -m repro client``, with bounded retries on connection drops
  and :class:`SessionHandle` bindings for the session API;
* :mod:`repro.analysis` (sibling package) — stateful interactive
  sessions: ``POST /v1/session/open`` parses + encodes a binary once,
  then ``POST /v1/session/<id>/call`` answers ``cati-tool-call/1``
  tools (list_functions, disassemble, type_variable, explain,
  annotate_disassembly, struct_layouts) against the held state.
  ``python -m repro repl`` is the interactive client.

See docs/OPERATIONS.md §7 "Serving" and docs/DEPLOYMENT.md for the
operator story.
"""

from repro.serve.client import ServeClient, SessionHandle
from repro.serve.host import ModelHost
from repro.serve.router import RouterDaemon
from repro.serve.scheduler import MicroBatchScheduler
from repro.serve.server import ServeDaemon
from repro.serve.worker import WorkerHandle

__all__ = ["MicroBatchScheduler", "ModelHost", "RouterDaemon",
           "ServeClient", "ServeDaemon", "SessionHandle", "WorkerHandle"]
