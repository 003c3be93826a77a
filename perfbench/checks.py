"""Correctness checks the benchmark applies to every iteration.

Each check reads raw program outputs and returns a list of human-readable
failures; an empty list means the check passed.  They take plain values so
the self-test can doctor an output and watch the check fail.
"""

from __future__ import annotations


def conservation_failures(metrics, scheduled_bytes: int) -> list[str]:
    """The sum of per-node delivered bytes equals ``payload_delivered``,
    which equals the bytes the generator scheduled."""
    failures = []
    delivered = sum(metrics.delivered_bytes.values())
    if delivered != metrics.payload_delivered:
        failures.append(f"sum(delivered_bytes) {delivered} != "
                        f"payload_delivered {metrics.payload_delivered}")
    if metrics.payload_delivered != scheduled_bytes:
        failures.append(f"payload_delivered {metrics.payload_delivered} != "
                        f"scheduled bytes {scheduled_bytes}")
    return failures


def scenario_failures(evidence: dict) -> list[str]:
    failures = conservation_failures(evidence["metrics"], evidence["scheduled_bytes"])
    if not evidence["passed"]:
        failures.append("report.passed is false")
    if evidence["sends_done"] != evidence["sends_scheduled"]:
        failures.append(f"{evidence['sends_done']} of {evidence['sends_scheduled']} "
                        f"scheduled sends reported")
    return failures


def socket_failures(evidence: dict) -> list[str]:
    """Conservation, plus exactly-once delivery on every connection: each
    end received exactly the bytes its peer sent, and nothing is left queued."""
    failures = conservation_failures(evidence["metrics"], evidence["scheduled_bytes"])
    sent, received = evidence["sent"], evidence["received"]
    for client, server in evidence["pairs"]:
        for src, dst in ((client, server), (server, client)):
            if received[dst] != sent[src]:
                failures.append(f"handle {dst} received {received[dst]} bytes, "
                                f"peer {src} sent {sent[src]}")
    if evidence["queued"]:
        failures.append(f"{evidence['queued']} chunks never received")
    return failures


def repeat_failures(digests: list[str]) -> list[str]:
    """Every iteration of one run used the same inputs, so the simulated
    outputs must hash the same."""
    if len(set(digests)) > 1:
        return [f"simulated outputs differ across repeats: {sorted(set(digests))}"]
    return []
