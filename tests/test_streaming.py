"""Hadoop Streaming interface: external-process mappers and reducers."""

import sys

import pytest

from repro.mapreduce import JobFailedError, MapReduceRuntime, RetryPolicy
from repro.mapreduce.streaming import (
    StreamingProcessError,
    parse_kv_line,
    run_streaming_process,
    streaming_job,
)

PY = sys.executable

IDENTITY_MAPPER = [PY, "-c", "import sys\nfor l in sys.stdin: print(l.strip()+'\\t1')"]
SUM_REDUCER = [
    PY,
    "-c",
    (
        "import sys, collections\n"
        "c = collections.Counter()\n"
        "for l in sys.stdin:\n"
        "    k, v = l.rstrip('\\n').split('\\t')\n"
        "    c[k] += int(v)\n"
        "for k in sorted(c): print(f'{k}\\t{c[k]}')"
    ),
]


def outputs(result):
    return {k: v for pairs in result.reduce_outputs.values() for k, v in pairs}


class TestProtocol:
    def test_parse_kv_line(self):
        assert parse_kv_line("key\tvalue") == ("key", "value")

    def test_parse_line_without_tab(self):
        assert parse_kv_line("lonely") == ("lonely", "")

    def test_parse_keeps_extra_tabs_in_value(self):
        assert parse_kv_line("k\ta\tb") == ("k", "a\tb")

    def test_run_process_cat(self):
        assert run_streaming_process(["/bin/cat"], ["x", "y"]) == ["x", "y"]

    def test_run_process_failure_raises(self):
        with pytest.raises(StreamingProcessError, match="exited 3"):
            run_streaming_process([PY, "-c", "import sys; sys.exit(3)"], ["x"])


class TestStreamingJobs:
    def test_wordcount(self, dfs):
        dfs.write_text("/in/p0", "b\na\nb")
        dfs.write_text("/in/p1", "a\nc")
        rt = MapReduceRuntime(dfs=dfs)
        result = rt.run_job(
            streaming_job("wc", ["/in/p0", "/in/p1"], IDENTITY_MAPPER, SUM_REDUCER)
        )
        assert outputs(result) == {"a": "2", "b": "2", "c": "1"}

    def test_cat_identity_mapper(self, dfs):
        """The classic `-mapper /bin/cat` smoke test."""
        dfs.write_text("/in/p0", "k1\tv1\nk2\tv2")
        rt = MapReduceRuntime(dfs=dfs)
        result = rt.run_job(
            streaming_job("cat", ["/in/p0"], ["/bin/cat"], ["/bin/cat"])
        )
        assert outputs(result) == {"k1": "v1", "k2": "v2"}

    def test_map_only_streaming(self, dfs):
        dfs.write_text("/in/p0", "hello\nworld")
        rt = MapReduceRuntime(dfs=dfs)
        result = rt.run_job(streaming_job("m", ["/in/p0"], IDENTITY_MAPPER))
        assert result.reduce_outputs == {}

    def test_multiple_reducers(self, dfs):
        dfs.write_text("/in/p0", "\n".join(f"w{i % 7}" for i in range(50)))
        rt = MapReduceRuntime(dfs=dfs)
        result = rt.run_job(
            streaming_job(
                "wc", ["/in/p0"], IDENTITY_MAPPER, SUM_REDUCER, num_reduce_tasks=3
            )
        )
        got = outputs(result)
        assert sum(int(v) for v in got.values()) == 50
        assert len(got) == 7

    def test_crashing_mapper_fails_job_after_retries(self, dfs):
        dfs.write_text("/in/p0", "data")
        rt = MapReduceRuntime(dfs=dfs)
        crash = [PY, "-c", "import sys; sys.exit(1)"]
        with pytest.raises(JobFailedError):
            rt.run_job(
                streaming_job(
                    "crash", ["/in/p0"], crash, retry=RetryPolicy(max_attempts=2)
                )
            )

    def test_empty_input_paths_rejected(self):
        with pytest.raises(ValueError):
            streaming_job("x", [], IDENTITY_MAPPER)

    def test_mapper_sees_whole_lines(self, dfs):
        """Records with spaces travel intact through the pipe."""
        dfs.write_text("/in/p0", "a b c\nd e")
        rt = MapReduceRuntime(dfs=dfs)
        grab_first_word = [
            PY, "-c",
            "import sys\nfor l in sys.stdin: print(l.split()[0]+'\\t'+l.strip())",
        ]
        result = rt.run_job(
            streaming_job("g", ["/in/p0"], grab_first_word, ["/bin/cat"])
        )
        assert outputs(result) == {"a": "a b c", "d": "d e"}
