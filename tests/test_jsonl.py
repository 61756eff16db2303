"""The shared append-only log helpers: locked appends start on a fresh
line, and the reader drops only a torn final line."""

import pytest

from repro._jsonl import LogDamaged, locked_append, read_jsonl


@pytest.mark.parametrize("torn", ["", "x", '{"a": ' + "9" * 10000],
                         ids=["clean", "short", "longer_than_a_chunk"])
def test_append_cuts_a_torn_tail(tmp_path, torn):
    path = tmp_path / "log.jsonl"
    path.write_text('{"a": 1}\n' + torn)
    locked_append(path, '{"a": 2}\n')
    locked_append(path, '{"a": 3}\n')
    assert path.read_text() == '{"a": 1}\n{"a": 2}\n{"a": 3}\n'


def test_append_after_a_file_that_is_one_torn_line(tmp_path):
    path = tmp_path / "sub" / "log.jsonl"
    locked_append(path, '{"a": 1}\n')
    path.write_text('{"a": ' + "9" * 10000)
    locked_append(path, '{"a": 2}\n')
    assert path.read_text() == '{"a": 2}\n'


def test_reader_drops_only_a_torn_final_line(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"a": 1}\n{"a"')
    records = [r for _, _, r in read_jsonl(path)]
    assert records == [{"a": 1}]
    path.write_text('{"a"\n{"a": 1}\n')
    with pytest.raises(LogDamaged, match="log.jsonl, line 1"):
        list(read_jsonl(path))
