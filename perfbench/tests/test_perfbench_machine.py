"""The machine-speed reference helper answers timings and stops with its owner."""

from machine import Reference


def test_reference_helper_times_the_job_and_exits():
    with Reference() as reference:
        first, second = reference.seconds(), reference.seconds()
        proc = reference._proc
    assert 0.0 < first < 5.0 and 0.0 < second < 5.0
    assert proc.poll() is not None  # the helper has exited and been reaped
