"""Run ``repro serve`` in this process, optionally recording its spans.

    python3 perfbench/serve_launcher.py [--trace-out FILE] serve --fleet ...

Everything after the optional ``--trace-out FILE`` is the ``repro`` CLI's
own argument list.  ``repro serve`` always runs with ``repro.obs`` on and a
tracer that keeps its last 32 root spans.  With ``--trace-out``, SIGUSR1
swaps that tracer for one that keeps every root span, and back again; the
spans kept are written to FILE once the server has drained after SIGTERM.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main(argv: list[str]) -> int:
    from repro.cli import main as cli_main

    if argv[:1] != ["--trace-out"]:
        return cli_main(argv)
    trace_out, argv = Path(argv[1]), argv[2:]

    from repro import obs
    from repro.obs import Tracer

    import spans

    plain, recording = Tracer(), Tracer(keep_roots=None)

    def toggle(*_signal_args) -> None:
        obs.enable(tracer=plain if obs.get_tracer() is recording else recording)

    # `serve` keeps a tracer that is already enabled.
    obs.enable(tracer=plain)
    signal.signal(signal.SIGUSR1, toggle)
    try:
        return cli_main(argv)
    finally:
        spans.dump_spans(trace_out, spans.flatten(recording.roots))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
