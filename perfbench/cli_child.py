"""Run the ``mahler`` command line and report on the process.

    python3 perfbench/cli_child.py REPORT.json plain|trace <mahler arguments>

Used by the ``cli_cold`` workload in place of ``python -m mahler.cli``.  The
child times the import of ``mahler.cli``, runs ``main`` (under the span
recorder with ``trace``), writes ``{"import_s": ..., "peak_kb": ...,
"spans": ...}`` to REPORT.json and exits with the command's exit code.
``PYTHONPATH`` must point at the sources.
"""

import json
import resource
import sys
import time


def peak_rss_kb() -> int:
    """Peak resident memory of this process's own address space, in KiB.

    ``ru_maxrss`` is no use for a child process: Linux carries the parent's
    peak across ``vfork`` and ``exec`` into it, so a child of a large process
    reads the parent's peak.  ``VmHWM`` starts afresh at ``exec``.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    report_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    t0 = time.perf_counter()
    import mahler.cli
    import_s = time.perf_counter() - t0

    recorder = None
    if mode == "trace":
        import spans
        recorder = spans.Recorder()
        recorder.install()
        recorder.active = True
    try:
        code = mahler.cli.main(argv)
    finally:
        if recorder is not None:
            recorder.restore()
        with open(report_path, "w") as fh:
            json.dump({"import_s": import_s, "peak_kb": peak_rss_kb(),
                       "spans": recorder.summary() if recorder is not None else {}}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
