#!/usr/bin/env python3
"""Cluster smoke: 2-node CLI bring-up, a node killed mid-stream, failover.

CI runs this after the unit suites.  Where ``tests/test_cluster.py``
drives in-process servers, this script exercises the real CLI surface —
``repro index build``, two ``repro node`` processes plus a standby
replica, and the ``repro cluster`` router — as *separate OS processes*
over localhost TCP, and walks one client connection through the full
failure story without ever reconnecting:

1. **healthy** — a request scatters to both nodes (on the default
   ``numpy`` engine) and the result is bit-identical to a serial
   ``session.analyze`` on the same index file over the ``python``
   register-level reference;
2. **kill mid-stream** — node 1's primary is SIGKILLed; the next request
   rides the retry path onto the replica and must still come back
   bit-identical;
3. **unretryable** — the replica is killed too; the next request must
   come back as a structured ``node_failed`` error frame on the same
   connection (never a bare reset, never a silent drop).

Exits 0 only if all three phases hold.
"""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.megis import wire

REPO = Path(__file__).resolve().parent.parent
TIMEOUT_S = 420

_ADDRESS = re.compile(r"on ([0-9.]+):(\d+)")


def spawn(args, env):
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *args],
        stderr=subprocess.PIPE, text=True, env=env, cwd=REPO,
    )


def await_address(proc, what):
    """Parse HOST:PORT from the server's startup line on stderr."""
    line = proc.stderr.readline()
    if not line:
        raise RuntimeError(f"{what} exited before announcing its address "
                           f"(rc={proc.poll()})")
    match = _ADDRESS.search(line)
    if not match:
        raise RuntimeError(f"{what} printed {line!r}, expected an address")
    print(f"  {what}: {line.strip()}")
    return match.group(1), int(match.group(2))


def roundtrip(sock, request):
    """One request frame out, one reply frame back, connection kept open."""
    sock.sendall((json.dumps(request) + "\n").encode("utf-8"))
    buf = bytearray()
    while b"\n" not in buf:
        chunk = sock.recv(65536)
        if not chunk:
            raise RuntimeError("router closed the connection mid-stream")
        buf.extend(chunk)
    return json.loads(bytes(buf[:buf.find(b"\n")]).decode("utf-8"))


def main():
    signal.alarm(TIMEOUT_S)  # hard watchdog: a hang fails, never wedges CI
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    sys.path.insert(0, str(REPO / "src"))
    from repro.megis.index import MegisIndex
    from repro.megis.session import AnalysisSession, MegisConfig
    from repro.sequences.io import references_to_fasta
    from repro.sequences.reads import Read
    from repro.workloads.cami import CamiDiversity, make_cami_sample

    tmp = Path(tempfile.mkdtemp(prefix="cluster_smoke_"))
    sample = make_cami_sample(CamiDiversity.MEDIUM, n_reads=90, n_genera=3,
                              species_per_genus=2, genome_length=900, seed=61)
    fasta = tmp / "refs.fasta"
    fasta.write_text(references_to_fasta(sample.references))
    index_path = tmp / "world.megis"
    subprocess.run(
        [sys.executable, "-m", "repro.cli", "index", "build", str(fasta),
         str(index_path)],
        check=True, env=env, cwd=REPO,
    )

    chunks = [sample.reads[i * 30:(i + 1) * 30] for i in range(3)]
    session = AnalysisSession(
        MegisIndex.open(index_path),
        MegisConfig(abundance_method="statistical", backend="python"),
    )
    expected = []
    for chunk in chunks:
        reference = session.analyze([
            Read(read_id=j, sequence=r.sequence, true_taxid=0)
            for j, r in enumerate(chunk)
        ])
        expected.append((
            sorted(int(t) for t in reference.candidates),
            {str(t): f
             for t, f in sorted(reference.profile.fractions.items())},
        ))

    placement = ["--nodes", "2", "--shards", "4"]
    procs = {}
    try:
        for name, node_id in (("node0", 0), ("node1", 1), ("replica1", 1)):
            procs[name] = spawn(
                ["node", "--index", str(index_path), "--node-id",
                 str(node_id), *placement],
                env,
            )
        addresses = {name: await_address(procs[name], name)
                     for name in ("node0", "node1", "replica1")}
        procs["router"] = spawn(
            ["cluster", "--index", str(index_path), *placement,
             "--node", "{}:{}".format(*addresses["node0"]),
             "--node", "{}:{}".format(*addresses["node1"]),
             "--replica", "1={}:{}".format(*addresses["replica1"]),
             "--heartbeat-ms", "200", "--node-timeout-ms", "5000",
             "--abundance", "statistical"],
            env,
        )
        router = await_address(procs["router"], "router")

        with socket.create_connection(router, timeout=60) as sock:
            sock.settimeout(60)

            frame = roundtrip(sock, wire.request_record(
                "healthy", [r.sequence for r in chunks[0]]))
            assert "error" not in frame, frame
            assert (frame["candidates"], frame["profile"]) == expected[0], (
                "healthy 2-node result must be bit-identical to serial"
            )
            print("  phase 1 ok: healthy scatter bit-identical")

            procs["node1"].kill()
            procs["node1"].wait()
            frame = roundtrip(sock, wire.request_record(
                "failover", [r.sequence for r in chunks[1]]))
            assert "error" not in frame, frame
            assert (frame["candidates"], frame["profile"]) == expected[1], (
                "retry-path result (replica) must be bit-identical to serial"
            )
            print("  phase 2 ok: killed primary, replica served "
                  "bit-identically")

            procs["replica1"].kill()
            procs["replica1"].wait()
            frame = roundtrip(sock, wire.request_record(
                "unretryable", [r.sequence for r in chunks[2]]))
            assert frame.get("id") == "unretryable", frame
            assert "node_failed: node=1 after 2 attempts" in \
                frame.get("error", ""), frame
            print("  phase 3 ok: structured node_failed frame on the "
                  "unretryable path")
            sock.shutdown(socket.SHUT_WR)
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in procs.values():
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
    print("cluster smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
