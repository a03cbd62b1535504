import json

from tasproc.experiments import replicate_table1


def test_report_json_is_strict_and_round_trips(tmp_path):
    def reject(name):
        raise ValueError("non-finite JSON constant %s" % name)

    report = replicate_table1(replicates=2, seed=1, out_dir=tmp_path,
                              cells=[(0.8, 0.4)])
    blob = json.loads((tmp_path / "report.json").read_text(),
                      parse_constant=reject)
    assert blob == {"rows": report.rows, "metadata": report.metadata}
