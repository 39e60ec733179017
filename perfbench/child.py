"""One pass of a workload in a fresh interpreter; started by run.py.

Usage: python3 child.py < JOB_JSON   (or: python3 child.py --probe, to time set-up only)

The first thing timed is the import of ``chordenum.cli`` plus
``build_parser()``: nothing but ``sys`` and ``time`` is imported before
it, so ``setup_s`` includes every module the CLI pulls in.  The result is
one JSON object on stdout; the command outputs themselves are captured and
only their digests leave this process, except when the job asks for the
text (``verify``, whose CHECK lines are checked one by one).
"""

import sys
import time


def _setup():
    start = time.perf_counter()
    import chordenum.cli

    chordenum.cli.build_parser()
    return chordenum.cli, time.perf_counter() - start


def main(argv) -> int:
    cli, setup_s = _setup()

    import hashlib
    import io
    import json
    import resource
    from contextlib import redirect_stderr, redirect_stdout

    if argv[1:] == ["--probe"]:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import workloads

    job = json.load(sys.stdin)
    tracer = None
    if job["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer().install()

    results = []
    for index, request in enumerate(job["requests"]):
        out, err = io.StringIO(), io.StringIO()
        frame = tracer.begin_request(index) if tracer else None
        start = time.perf_counter()
        result = {"rc": 0}
        try:
            with redirect_stdout(out), redirect_stderr(err):
                if request["kind"] == "cli":
                    result["rc"] = cli.main(request["argv"])
                else:
                    result["value"] = workloads.crosscheck(request["name"])
        except SystemExit as exc:  # argparse refusing the argv
            result["rc"] = exc.code
        except Exception as exc:  # noqa: BLE001 - one failed request must not end the pass
            result["error"] = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if frame is not None:
            tracer.end_request(frame)
        text = out.getvalue()
        result.update(
            seconds=seconds,
            sha256=hashlib.sha256(text.encode()).hexdigest(),
            bytes=len(text.encode()),
            checks=sum(1 for line in text.splitlines() if line.startswith("CHECK ")),
        )
        if job.get("keep_text"):
            result["text"] = text
        results.append(result)

    report = {
        "setup_s": setup_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "requests": results,
    }
    if tracer is not None:
        post = time.perf_counter()
        tracer.uninstall()
        report["left_wrapped"] = tracing.wrapped_names()
        report["trace"] = tracer.summary()
        if job.get("spans_path"):
            tracer.write_spans(job["spans_path"])
        report["post_s"] = time.perf_counter() - post
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
