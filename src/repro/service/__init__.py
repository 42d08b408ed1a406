"""repro.service -- desynchronization as a long-running service.

A persistent daemon over the :mod:`repro.engine` stage-DAG: clients
submit desynchronization jobs (a named design generator or raw
Verilog, a library variant, ``DesyncOptions``), a priority queue of
worker threads runs each flow on its own engine, and every engine
shares ONE content-addressed :class:`~repro.engine.cache.ArtifactCache`
-- so identical stage work is done once across all jobs and an
identical resubmission is served almost for free.  Results, status and
metrics are available in-process or over a local JSON HTTP API.

Typical embedded use::

    from repro.service import JobSpec, ServiceDaemon

    with ServiceDaemon(run_dir="svc", workers=4) as daemon:
        job, _ = daemon.submit(JobSpec(design="dlx",
                                       params={"registers": 8}))
        daemon.queue.wait(job.id)
        print(daemon.job_result(job.id)["summary"])

Or over HTTP (``repro serve`` on the command line)::

    from repro.service import ServiceClient

    client = ServiceClient("http://127.0.0.1:8642")
    ticket = client.submit({"design": "pipeline3"})
    client.wait(ticket["id"])
    print(client.result(ticket["id"])["summary"])
"""

from .client import ServiceClient, ServiceClientError
from .daemon import ServiceDaemon
from .jobs import (
    JobError,
    JobSpec,
    execute_job,
    job_key,
    known_designs,
    options_from_dict,
    options_to_dict,
    resolve_module,
    result_payload,
)
from .queue import Job, JobQueue, JobState, QueueClosed, QueueFull
from .server import ServiceServer, make_server

__all__ = [
    "Job",
    "JobError",
    "JobQueue",
    "JobSpec",
    "JobState",
    "QueueClosed",
    "QueueFull",
    "ServiceClient",
    "ServiceClientError",
    "ServiceDaemon",
    "ServiceServer",
    "execute_job",
    "job_key",
    "known_designs",
    "make_server",
    "options_from_dict",
    "options_to_dict",
    "resolve_module",
    "result_payload",
]
