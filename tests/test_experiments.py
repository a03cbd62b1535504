import concurrent.futures
import json
import os

import pytest

from tasproc.experiments import _run_map, replicate_fig3, replicate_table1


def test_report_json_is_strict_and_round_trips(tmp_path):
    def reject(name):
        raise ValueError("non-finite JSON constant %s" % name)

    report = replicate_table1(replicates=2, seed=1, out_dir=tmp_path,
                              cells=[(0.8, 0.4)])
    blob = json.loads((tmp_path / "report.json").read_text(),
                      parse_constant=reject)
    assert blob == {"rows": report.rows, "metadata": report.metadata}


@pytest.mark.parametrize("jobs, n, cpus, started", [
    (5000, 2, 64, [2]),   # no more workers than replicates
    (3, 10, 2, [2]),      # nor than CPUs
    (4, 10, 8, [4]),
    (2, 1, 8, []),        # one replicate runs in this process
    (1, 5, 8, []),
    (2, 5, None, []),     # an unknown CPU count counts as one
])
def test_pool_never_outgrows_replicates_or_cpus(monkeypatch, jobs, n, cpus,
                                                started):
    # A pool forks all its workers at the first submit; this one forks none.
    pools = []

    class Pool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            return map(fn, args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert _run_map(abs, list(range(-n, 0)), jobs) == list(range(n, 0, -1))
    assert pools == started


def test_output_does_not_depend_on_jobs():
    serial = replicate_fig3(replicates=3, seed=2, jobs=1)[1]
    pooled = replicate_fig3(replicates=3, seed=2, jobs=2)[1]
    assert serial.tobytes() == pooled.tobytes()
