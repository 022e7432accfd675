"""One ambitlab run in a fresh interpreter; bench/run.py starts it.

    python3 bench/child.py '{"overrides": [...], "workers": 2,
                             "outdir": DIR or null, "spans": FILE or null}'

Set-up is `import ambitlab` plus `config.load_config` of the overrides.  With
an outdir the child then times one `ambitlab.cli.run` call; with a span file
that call is traced (see spans.py).  The last line of stdout is a JSON report.
"""

import time

_T0 = time.perf_counter()

import ambitlab  # noqa: E402 - set-up time starts before the import
from ambitlab import cli, config  # noqa: E402

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main():
    req = json.loads(sys.argv[1])
    config.load_config(None, req["overrides"])
    report = {"setup_s": time.perf_counter() - _T0}
    if req["outdir"] is not None:
        out = Path(req["outdir"])
        tracer = None
        if req["spans"] is not None:
            import spans
            tracer = spans.Tracer()
            spans.install(tracer)
        with contextlib.redirect_stdout(sys.stderr):
            t0 = time.perf_counter()
            code = cli.run(None, req["overrides"], workers=req["workers"],
                           outdir=str(out))
            wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.dump(req["spans"])
        summary = out / "summary.json"
        report.update(
            exit_code=code, wall_s=wall,
            summary=(json.loads(summary.read_text()) if summary.exists()
                     else None),
            digests={name: _sha256(out / name)
                     for name in ("results.csv", "summary.json")
                     if (out / name).exists()})
    import numpy
    import scipy
    report["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["versions"] = {"python": platform.python_version(),
                          "numpy": numpy.__version__,
                          "scipy": scipy.__version__,
                          "ambitlab": ambitlab.__version__}
    print(json.dumps(report))


if __name__ == "__main__":
    main()
