"""One benchmark pass, run in a fresh interpreter.

    python3 child.py PASS.json

PASS.json holds ``src`` (the directory holding the ``qhc`` package to
measure), ``commands`` (a list of argv lists), ``trace`` (install the span
recorder first) and ``result`` (where to write the outcome).  Commands run
one after another through ``qhc.cli.main``, with the working directory the
caller chose; their stdout and stderr are captured, not checked here.
Untraced passes run the speed probe of ``speed.py``; the times they record
exclude its samples, and each command keeps the samples taken during it.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import qhc.cli

    if src not in Path(qhc.cli.__file__).resolve().parents:
        print(f"imported qhc from {qhc.cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import speed

    recorder = None
    if spec["trace"]:
        import tracer

        recorder = tracer.install()
    probe = speed.Probe()

    commands = []
    if recorder is None:
        probe.start()
    start = time.perf_counter()
    for argv in spec["commands"]:
        out, err = io.StringIO(), io.StringIO()
        first = len(probe.samples)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = qhc.cli.main(argv)  # looked up per call, so a traced main is used
        except Exception:  # an escaped exception is a failed command, not a failed pass
            code = None
            err.write(traceback.format_exc())
        t1 = time.perf_counter()
        loops = probe.samples[first:]
        commands.append({"code": code, "seconds": t1 - t0 - sum(loops), "probe": loops,
                         "stdout": out.getvalue(), "stderr": err.getvalue()})
    probe.stop()
    wall = time.perf_counter() - start - sum(probe.samples)
    if recorder is None and not probe.samples:  # a pass shorter than the probe's interval
        probe.samples.append(speed.loop())

    result = {
        "wall_s": wall,
        "probe": probe.samples,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "commands": commands,
    }
    if recorder is not None:
        result["spans"] = recorder.spans
        result["wrapped"] = recorder.wrapped
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
