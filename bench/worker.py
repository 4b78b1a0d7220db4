"""Benchmark worker: runs ``wirediff.cli.main`` on argvs sent by the client.

Protocol: one JSON object per line on stdin, one reply per line on stdout.
  {"argv": [...]}  ->  {"rc": int, "seconds": float[, "trace": {...}]}
  {"end": true}    ->  {"maxrss_kb": int[, "spans": [...]]}, then exit.
The worker imports only ``wirediff`` (and, with ``--trace``, the tracer from
this directory), runs one op at a time and starts no threads.  Each op is
timed around the ``cli.main`` call alone: parse, compute, normalize,
serialize and the atomic write.  Anything ``cli.main`` prints goes to
stderr, so stdout carries the protocol only.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    trace = "--trace" in sys.argv[1:]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from wirediff import cli

    tracer = None
    if trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    channel = sys.stdout
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("end"):
            reply = {"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
            if tracer is not None:
                reply["spans"] = tracer.kept
            channel.write(json.dumps(reply) + "\n")
            channel.flush()
            return 0
        with contextlib.redirect_stdout(sys.stderr):
            if tracer is None:
                start = time.perf_counter()
                try:
                    rc = cli.main(request["argv"])
                except SystemExit as exc:  # argparse rejected the argv
                    rc = exc.code if isinstance(exc.code, int) else 1
                seconds = time.perf_counter() - start
                reply = {"rc": rc, "seconds": seconds}
            else:
                rc, seconds, summary = tracer.run_op(cli.main, request["argv"])
                reply = {"rc": rc, "seconds": seconds, "trace": summary}
        channel.write(json.dumps(reply) + "\n")
        channel.flush()
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
