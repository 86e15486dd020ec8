import contextlib
import csv
import hashlib
import io
import json
import math
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import permflow.cli
import permflow.core
import permflow.flow
import permflow.projection
from permflow import (
    Permutation,
    build_optimal,
    disorder_squared,
    estimate_sorting,
    tree_to_dict,
    vertex_of,
)
from permflow.cli import (
    CELL_LIMIT,
    EVENT_LIMIT,
    PAIR_LIMIT,
    SAMPLE_LIMIT,
    _json_reals,
    _seeded_shuffle,
    main,
)

from crossing_oracle import reference_crossing_events


def run(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse reports usage errors by raising
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestFlowEvents:
    def test_json_schema_and_values(self, capsys):
        code, out, err = run(["flow", "events", "--n", "3", "--start", "reverse"], capsys)
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert set(payload) == {"n", "start", "d0", "events", "t_eps", "estimate", "lemma_lb"}
        assert payload["n"] == 3
        assert payload["start"] == [3, 2, 1]
        assert payload["d0"] == 8.0
        assert len(payload["events"]) == 3
        for event in payload["events"]:
            assert set(event) == {"i", "j", "t"}
            assert event["t"] == 0.693147
        assert payload["t_eps"] == 1.03972
        assert payload["estimate"] == 3.11916
        assert payload["lemma_lb"] == 3.11916

    def test_events_sorted_by_time_then_pair(self, capsys):
        code, out, _ = run(["flow", "events", "--n", "5", "--start", "random:7"], capsys)
        assert code == 0
        events = json.loads(out)["events"]
        keys = [(e["t"], e["i"], e["j"]) for e in events]
        assert keys == sorted(keys)

    def test_sorted_start_has_no_events(self, capsys):
        for n in ("1", "4"):
            code, out, _ = run(["flow", "events", "--n", n, "--start", "sorted"], capsys)
            assert code == 0
            payload = json.loads(out)
            assert payload["events"] == []
            assert payload["d0"] == 0.0
            assert payload["t_eps"] == 0.0
            assert payload["estimate"] == 0.0
            assert payload["lemma_lb"] == 0.0

    def test_csv_layout(self, capsys):
        code, out, _ = run(
            ["flow", "events", "--n", "3", "--start", "reverse", "--format", "csv"], capsys
        )
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        assert lines[0] == "# n=3 start=3,2,1"
        assert lines[1] == (
            "# d0=8 crossings=3 t_eps=1.03972 estimate=3.11916 "
            "estimate_ceil=4 lemma_lb=3.11916"
        )
        assert lines[2] == "i,j,t,value"
        assert lines[3:] == ["1,2,0.693147,2", "1,3,0.693147,2", "2,3,0.693147,2"]

    def test_event_count_is_inversion_count(self, capsys):
        code, out, _ = run(["flow", "events", "--n", "4", "--start", "2,1,4,3"], capsys)
        assert code == 0
        assert len(json.loads(out)["events"]) == 2

    def test_seeded_start_is_reproducible(self, capsys):
        code, first, _ = run(["flow", "events", "--n", "6", "--start", "random:42"], capsys)
        assert code == 0
        assert json.loads(first)["start"] == [3, 6, 1, 5, 4, 2]
        code, second, _ = run(["flow", "events", "--n", "6", "--start", "random:42"], capsys)
        assert code == 0
        assert first == second

    def test_identical_invocations_identical_bytes(self, capsys):
        argv = ["flow", "events", "--n", "5", "--start", "reverse", "--format", "csv"]
        _, first, _ = run(argv, capsys)
        _, second, _ = run(argv, capsys)
        assert first == second

    def test_bad_start_specs(self, capsys):
        for spec in ["backwards", "1,2", "random:x", "1,2,2"]:
            code, out, err = run(["flow", "events", "--n", "3", "--start", spec], capsys)
            assert code == 2
            assert out == ""
            assert err.startswith("error:")

    # sha256 of stdout for fixed argv: the crossing schedule must keep its bytes
    GOLDEN = [
        (
            ["--n", "3", "--start", "reverse"],
            "55a7e54559bca001a673d84544c9184b0612acff3074819843847eafb387a605",
        ),
        (
            ["--n", "3", "--start", "reverse", "--precision", "17"],
            "372cb4271cd56c9981057f2d0fc86afbafe1b8846d234b3fc827d572837ae7d1",
        ),
        (
            ["--n", "3", "--start", "reverse", "--format", "csv"],
            "1f80b583834b9ba28319789a9e2b61a5cae20297b769fb8c8daaf2b771e5eca7",
        ),
        (
            ["--n", "3", "--start", "reverse", "--format", "csv", "--precision", "17"],
            "1a907440e6d849f6efd249bc08cbd1ee155eec8fdb812c7ff9a8d8488c71e8aa",
        ),
        (
            ["--n", "6", "--start", "random:42"],
            "3fa0e53280506ad9c4f9a5b5071f800857147302f4963902936eaa6787f507b3",
        ),
        (
            ["--n", "6", "--start", "random:42", "--precision", "17"],
            "dc1f7ff8c415dcb44be023001276a3f5d451920b4477506c497e7cf7728cef67",
        ),
        (
            ["--n", "6", "--start", "random:42", "--format", "csv"],
            "5d5b92d3b92eca5b02ae24848ed4c27c1077556291bcd14d807c37a140ba31f5",
        ),
        (
            ["--n", "6", "--start", "random:42", "--format", "csv", "--precision", "17"],
            "fe61501053777a3fad158474f98f45f738c6475463d89ef13ee530b8c04d55d7",
        ),
        (
            ["--n", "120", "--start", "random:1"],
            "fb16f011556568a6f8218e7468b08a089a607994fad92de277f56b7a329c4d21",
        ),
        (
            ["--n", "120", "--start", "random:1", "--precision", "17"],
            "91a96452306928c263c0b8c666c7afa92c75b320632fc472374aaf412bff7c9e",
        ),
        (
            ["--n", "120", "--start", "random:1", "--format", "csv"],
            "8c2daf7c1ea3ae5140b7666b418b9d3804d698b1e8749a8cdbca2b425baef817",
        ),
        (
            ["--n", "120", "--start", "random:1", "--format", "csv", "--precision", "17"],
            "7b114f16c25e2ec3b5c443110a4cdaea654c39daf65476a80842ee1f66b7fe07",
        ),
        # precisions 15 and 16 sit on either side of the digits that round-trip
        (
            ["--n", "120", "--start", "random:1", "--precision", "15"],
            "80c4bf87665053aa6ef075e06bb2ee1b08bfc1630539391c9cdef49e30935ffc",
        ),
        (
            ["--n", "120", "--start", "random:1", "--precision", "16"],
            "5e7dbcef2b64282ec2beda0bea5d42ca1a2fd1bb6e3701c2e6dd8cc27cac5fea",
        ),
    ]

    @pytest.mark.parametrize("args, digest", GOLDEN)
    def test_golden_bytes(self, args, digest, capsys):
        code, out, _ = run(["flow", "events", *args], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_event_limit_itself_is_printed(self, capsys):
        # reverse n = 707 has 707 * 706 / 2 = 249,571 <= EVENT_LIMIT events
        code, out, err = run(["flow", "events", "--n", "707"], capsys)
        assert code == 0 and err == ""
        assert len(json.loads(out)["events"]) == 249_571 <= EVENT_LIMIT

    def test_event_limit_fill_holds_floats_alone(self):
        # The fill's tuple holds the 249,571 times as floats. A fill over
        # their formatted JSON tokens, with the cell list built before the
        # tuple, peaked at 50.5 MB traced here; the float fill at 40.6 MB.
        out = io.StringIO()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(out):
                assert main(["flow", "events", "--n", "707"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.getvalue().count('"t": ') == 249_571 <= EVENT_LIMIT
        assert peak < 45_000_000

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_over_event_limit_exits_three_before_any_pair(self, fmt, capsys, monkeypatch):
        def no_events(*args, **kwargs):
            raise AssertionError("examined pairs of a request beyond the event limit")

        monkeypatch.setattr(permflow.cli, "crossing_events", no_events)
        # reverse n = 708 has 250,278 events
        code, out, err = run(["flow", "events", "--n", "708", "--format", fmt], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and f"{EVENT_LIMIT} events, got 250278" in err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_over_pair_limit_exits_three_before_any_pair(self, fmt, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("worked on a request beyond the pair limit")

        monkeypatch.setattr(permflow.cli, "crossing_events", refuse)
        monkeypatch.setattr(permflow.cli, "estimate_sorting", refuse)
        # sorted n = 10,001 has no events but 50,005,000 pairs
        code, out, err = run(
            ["flow", "events", "--n", "10001", "--start", "sorted", "--format", fmt], capsys
        )
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error:") and f"{PAIR_LIMIT} coordinate pairs, got 50005000" in err

    @pytest.mark.parametrize("n", [-10001, -10000, -5, 0])
    def test_nonpositive_n_exits_two_before_the_pair_limit(self, n, capsys):
        # n(n - 1)/2 of n <= -10,000 passes PAIR_LIMIT, but no such n is a size
        code, out, err = run(["flow", "events", "--n", str(n)], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: --n must be >= 1, got {n}\n"

    def test_pair_limit_admits_n_10000(self, monkeypatch):
        class Examined(Exception):
            pass

        def examined(x0):
            assert x0.n == 10_000 and x0.n * (x0.n - 1) // 2 <= PAIR_LIMIT
            raise Examined

        monkeypatch.setattr(permflow.cli, "crossing_events", examined)
        with pytest.raises(Examined):
            main(["flow", "events", "--n", "10000", "--start", "sorted"])


def reference_events_output(ranks, fmt, spec):
    """`flow events` stdout built from the per-pair loop, one dict or f-string per event."""
    p = Permutation.of(ranks)
    x0 = vertex_of(p)
    d0 = disorder_squared(x0)
    est = estimate_sorting(p)
    events = reference_crossing_events(x0.coords)
    if fmt == "json":
        payload = {
            "n": p.n,
            "start": list(p.ranks),
            "d0": float(f"{d0:{spec}}"),
            "events": [{"i": i, "j": j, "t": float(f"{t:{spec}}")} for t, i, j, _ in events],
            "t_eps": float(f"{est.continuous_time:{spec}}"),
            "estimate": float(f"{est.discrete_estimate:{spec}}"),
            "lemma_lb": float(f"{est.discrete_estimate:{spec}}"),
        }
        return json.dumps(payload) + "\n"
    lines = [
        f"# n={p.n} start={','.join(map(str, p.ranks))}",
        f"# d0={d0:{spec}} crossings={len(events)} t_eps={est.continuous_time:{spec}} "
        f"estimate={est.discrete_estimate:{spec}} "
        f"estimate_ceil={math.ceil(est.discrete_estimate)} "
        f"lemma_lb={est.discrete_estimate:{spec}}",
        "i,j,t,value",
    ]
    for t, i, j, value in events:
        lines.append(f"{i},{j},{t:{spec}},{value:{spec}}")
    return "\n".join(lines) + "\n"


@st.composite
def events_starts(draw):
    """(--n, --start, ranks): an explicit list, random:SEED, sorted or reverse."""
    n = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(["list", "random", "sorted", "reverse"]))
    if kind == "list":
        ranks = draw(st.permutations(range(1, n + 1)))
        return n, ",".join(map(str, ranks)), list(ranks)
    if kind == "random":
        seed = draw(st.integers(0, 2**32 - 1))
        return n, f"random:{seed}", list(_seeded_shuffle(n, seed).ranks)
    ranks = list(range(1, n + 1))
    return n, kind, ranks if kind == "sorted" else ranks[::-1]


class TestFlowEventsOracle:
    """The columnar writers print what per-event lines built from the per-pair loop print."""

    @settings(max_examples=120, deadline=None)
    @given(events_starts(), st.integers(1, 17), st.sampled_from(["json", "csv"]))
    @example((1, "sorted", [1]), 6, "json")
    @example((1, "sorted", [1]), 6, "csv")
    def test_matches_per_event_writer(self, start, precision, fmt):
        n, spec_arg, ranks = start
        argv = ["flow", "events", "--n", str(n), "--start", spec_arg,
                "--format", fmt, "--precision", str(precision)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        assert out.getvalue() == reference_events_output(ranks, fmt, f".{precision}g")

    @pytest.mark.parametrize("precision", [1, 2, 16])
    def test_fused_fill_falls_back(self, precision):
        # At 1 and 2 digits some times print as integers ("1", "2"), which
        # lack the ".0" json.dumps writes; above 15 digits no formatted time
        # is kept. Each refills the t cells from _json_reals.
        ranks = list(_seeded_shuffle(120, 1).ranks)
        argv = ["flow", "events", "--n", "120", "--start", "random:1",
                "--precision", str(precision)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        assert out.getvalue() == reference_events_output(ranks, "json", f".{precision}g")
        if precision < 16:
            times = [e["t"] for e in json.loads(out.getvalue())["events"]]
            assert any(t == int(t) for t in times)

    def test_empty_schedule(self, capsys):
        code, out, _ = run(["flow", "events", "--n", "1", "--start", "sorted"], capsys)
        assert code == 0
        assert '"events": []' in out
        assert json.loads(out)["events"] == []
        code, out, _ = run(
            ["flow", "events", "--n", "1", "--start", "sorted", "--format", "csv"], capsys
        )
        assert code == 0
        assert out.endswith("\ni,j,t,value\n")


class TestFlowTrace:
    def test_csv_header_and_endpoints(self, capsys):
        code, out, _ = run(
            [
                "flow", "trace", "--n", "3", "--start", "reverse",
                "--t-end", "2", "--samples", "5", "--format", "csv",
            ],
            capsys,
        )
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        assert lines[0] == "t,x1,x2,x3,disorder"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first == ["0", "3", "2", "1", "8"]
        last = lines[-1].split(",")
        assert last[0] == "2"

    def test_json_rows_decay(self, capsys):
        code, out, _ = run(
            ["flow", "trace", "--n", "4", "--start", "reverse", "--t-end", "3"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"n", "start", "projected", "rows"}
        assert payload["projected"] is False
        rows = payload["rows"]
        assert len(rows) == 11
        assert set(rows[0]) == {"t", "x", "disorder"}
        disorders = [r["disorder"] for r in rows]
        assert disorders == sorted(disorders, reverse=True)
        assert math.isclose(rows[0]["disorder"], 20.0, abs_tol=1e-9)

    def test_closed_form_decay_rate(self, capsys):
        code, out, _ = run(
            ["flow", "trace", "--n", "5", "--t-end", "1", "--samples", "3",
             "--precision", "12"],
            capsys,
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        d0 = rows[0]["disorder"]
        for row in rows:
            assert math.isclose(row["disorder"], d0 * math.exp(-2 * row["t"]), rel_tol=1e-9)

    def test_projected_mode(self, capsys):
        code, out, _ = run(
            ["flow", "trace", "--n", "4", "--start", "reverse", "--t-end", "2",
             "--projected", "--samples", "5"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["projected"] is True
        rows = payload["rows"]
        assert rows[0]["t"] == 0.0
        assert rows[-1]["t"] == 2.0
        disorders = [r["disorder"] for r in rows]
        assert all(b <= a + 1e-9 for a, b in zip(disorders, disorders[1:]))

    def test_validation(self, capsys):
        bad = [
            ["flow", "trace", "--n", "3", "--t-end", "0"],
            ["flow", "trace", "--n", "3", "--t-end", "2", "--samples", "1"],
            ["flow", "trace", "--n", "3", "--t-end", "2", "--projected", "--step", "0.5"],
            ["flow", "trace", "--n", "3", "--t-end", "2", "--projected", "--step", "0"],
        ]
        for argv in bad:
            code, _, err = run(argv, capsys)
            assert code == 2
            assert err.startswith("error:")

    def test_projected_time_off_grid(self, capsys):
        # 0.05 / 10 = 0.005 falls between the 0.01 Euler steps
        code, out, err = run(
            ["flow", "trace", "--projected", "--n", "4", "--t-end", "0.05", "--samples", "11"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err == (
            "error: sample time 0.005 is off the Euler grid (nearest step time 0, step 0.01); "
            "choose sample times at t_end or on multiples of the step\n"
        )

    @pytest.mark.parametrize("mode", [[], ["--projected"]])
    def test_times_that_round_together_are_not_increasing(self, mode, capsys):
        # at t_end = 5e-324 the middle sample time rounds to 0
        code, out, err = run(
            ["flow", "trace", *mode, "--n", "3", "--t-end", "5e-324", "--samples", "3"], capsys
        )
        assert code == 2
        assert out == ""
        assert err == "error: sample times must be strictly increasing\n"

    def test_last_projected_row_is_at_t_end(self, capsys):
        # the 140th step of 0.01 would end at 1.4000000000000001
        code, out, err = run(
            ["flow", "trace", "--projected", "--n", "4", "--t-end", "1.4", "--samples", "2",
             "--precision", "17"],
            capsys,
        )
        assert code == 0 and err == ""
        assert '"t": 1.4, ' in out
        assert [r["t"] for r in json.loads(out)["rows"]] == [0.0, 1.4]

    @staticmethod
    def refuse_states(monkeypatch):
        def no_state(*args, **kwargs):
            raise AssertionError("built an Euler state for a refused request")

        monkeypatch.setattr(permflow.projection, "_trace", no_state)

    def test_off_grid_time_rejected_before_integrating(self, capsys, monkeypatch):
        self.refuse_states(monkeypatch)
        code, out, err = run(
            ["flow", "trace", "--projected", "--n", "200", "--t-end", "50", "--samples", "7"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "off the Euler grid" in err

    # the two requests that once took the most Euler steps, one by one: at
    # their own samples x (n + 58) as the limit they run, one word under it
    # they are refused before any state is built
    @pytest.mark.parametrize(
        "n, t_end", [(5, "1000.01"), (100_000, "1000")]
    )
    def test_coordinate_limit_at_its_edge(self, n, t_end, capsys, monkeypatch):
        argv = ["flow", "trace", "--projected", "--n", str(n), "--t-end", t_end, "--samples", "2"]
        words = 2 * (n + 58)
        monkeypatch.setattr(permflow.core, "COORDINATE_LIMIT", words)
        code, out, err = run(argv, capsys)
        assert code == 0 and err == ""
        rows = json.loads(out)["rows"]
        assert [r["t"] for r in rows] == [0.0, float(t_end)]
        assert rows[1]["x"] == [float(k) for k in range(1, n + 1)]
        monkeypatch.setattr(permflow.core, "COORDINATE_LIMIT", words - 1)
        self.refuse_states(monkeypatch)
        code, out, err = run(argv, capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and f"{words - 1} words (samples x (n + 58))" in err

    def test_overflowing_step_count_exits_two_before_integrating(self, capsys, monkeypatch):
        # t_end / step is inf: a usage error, not an OverflowError traceback
        self.refuse_states(monkeypatch)
        code, out, err = run(
            ["flow", "trace", "--projected", "--n", "3", "--step", "1e-300", "--t-end", "1e300",
             "--samples", "2"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err == "error: t_end 1e+300 over step 1e-300 overflows a double\n"

    def test_tiny_step_still_contracts(self, capsys):
        # 1 - 1e-17 rounds to 1.0, yet the 1e17 steps to t = 1 contract the
        # start by e^-1, as the closed-form mode prints it
        base = ["flow", "trace", "--n", "3", "--t-end", "1", "--samples", "2", "--precision", "17"]
        code, out, err = run([*base, "--projected", "--step", "1e-17"], capsys)
        assert code == 0 and err == ""
        got = json.loads(out)["rows"]
        code, out, err = run(base, capsys)
        assert code == 0 and err == ""
        want = json.loads(out)["rows"]
        assert [r["t"] for r in got] == [0.0, 1.0]
        assert got[0]["x"] == want[0]["x"]
        assert got[1]["x"] == pytest.approx(want[1]["x"], rel=1e-15)
        assert got[1]["x"] != got[0]["x"]

    @pytest.mark.parametrize("mode", [[], ["--projected"]])
    def test_over_sample_limit_exits_three_before_sampling(self, mode, capsys, monkeypatch):
        def no_trace(*args, **kwargs):
            raise AssertionError("traced a request beyond the sample limit")

        monkeypatch.setattr(permflow.cli, "sample_trace", no_trace)
        monkeypatch.setattr(permflow.cli, "integrate_projected", no_trace)
        code, out, err = run(
            ["flow", "trace", *mode, "--n", "3", "--t-end", "1000",
             "--samples", str(SAMPLE_LIMIT + 1)],
            capsys,
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and f"{SAMPLE_LIMIT} samples" in err

    @pytest.mark.parametrize("mode", [[], ["--projected"]])
    @pytest.mark.parametrize("n, samples", [(200, 10_000), (200_000, 11), (2001, 500)])
    def test_over_cell_limit_exits_three_before_sampling(
        self, mode, n, samples, capsys, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("worked on a request beyond the cell limit")

        monkeypatch.setattr(permflow.cli, "_parse_start", refuse)
        monkeypatch.setattr(permflow.cli, "sample_trace", refuse)
        monkeypatch.setattr(permflow.cli, "integrate_projected", refuse)
        code, out, err = run(
            ["flow", "trace", *mode, "--n", str(n), "--t-end", "1", "--samples", str(samples)],
            capsys,
        )
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error:") and f"{CELL_LIMIT} coordinates" in err

    def test_cell_limit_itself_is_traced(self, monkeypatch):
        class Traced(Exception):
            pass

        def traced(x0, times):
            assert x0.n * len(times) == CELL_LIMIT
            raise Traced

        monkeypatch.setattr(permflow.cli, "sample_trace", traced)
        with pytest.raises(Traced):
            main(["flow", "trace", "--n", "2000", "--t-end", "1", "--samples", "500"])

    def test_sample_limit_itself_is_traced(self, monkeypatch):
        class Traced(Exception):
            pass

        def traced(x0, times):
            assert len(times) == SAMPLE_LIMIT
            raise Traced

        monkeypatch.setattr(permflow.cli, "sample_trace", traced)
        with pytest.raises(Traced):
            main(["flow", "trace", "--n", "3", "--t-end", "1", "--samples", str(SAMPLE_LIMIT)])

    def test_long_projected_run_at_n_1000(self, capsys):
        # what 4,000 steps leave of an offset (0.99**4000 * 999 = 3.5e-15)
        # rounds away at 6 digits
        code, out, err = run(
            ["flow", "trace", "--projected", "--n", "1000", "--t-end", "40", "--samples", "2"],
            capsys,
        )
        assert code == 0 and err == ""
        rows = json.loads(out)["rows"]
        assert [r["t"] for r in rows] == [0.0, 40.0]
        assert rows[1]["x"] == [float(k) for k in range(1, 1001)]

    # sha256 of stdout for fixed argv: projected traces must keep their bytes
    GOLDEN = [
        (
            ["--n", "6", "--start", "reverse", "--t-end", "2"],
            "58e46d7a98395f4aa051271b8aa62457fc390aa33caa23103d6db7b99fc0e22f",
        ),
        (
            ["--n", "9", "--start", "random:5", "--t-end", "1.5", "--format", "csv"],
            "b353e3d0a03cef8fcce671bd9862b9ff5caad46524ca9c4004aa60cfccf00dac",
        ),
        (
            ["--n", "12", "--start", "random:42", "--t-end", "1", "--step", "0.005",
             "--samples", "21"],
            "21e9cc572a81f7880a8b9dd7eeb1d393496aec672590a27bc50720193015d641",
        ),
        (
            ["--n", "40", "--start", "reverse", "--t-end", "3", "--format", "csv",
             "--precision", "17"],
            "111b3e61b18a97eb88a29218617daf26f3ea2d757da9e9f0ffa6517540d45abd",
        ),
        (
            ["--n", "25", "--start", "random:7", "--t-end", "0.8", "--step", "0.005",
             "--precision", "17"],
            "8b277c985d644050634694e10979bb8a5a8516daff2e591acbbcfafccebcc174",
        ),
        (
            ["--n", "30", "--start", "random:3", "--t-end", "0.5", "--samples", "6",
             "--precision", "16"],
            "1222965176b028d24ebea435e7dbb198f8cbeb24d6cee39d171ae703181bacaf",
        ),
    ]

    @pytest.mark.parametrize("args, digest", GOLDEN)
    def test_projected_golden_bytes(self, args, digest, capsys):
        code, out, _ = run(["flow", "trace", "--projected", *args], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # sha256 of stdout for fixed argv, recorded while JSON floats were
    # rounded by a recursive walk over the finished payload
    CLOSED_GOLDEN = [
        (
            ["--n", "5", "--start", "reverse", "--t-end", "2", "--precision", "1"],
            "0894269aeb14da064c6ed0f1168f0c80f2b0ec1ce36333d9eea657b854d0855f",
        ),
        (
            ["--n", "5", "--start", "reverse", "--t-end", "2", "--precision", "17"],
            "e3eca646fcd36666890c64132eeae0e6175383aa966cdcc5d6eacc7009aa1f8d",
        ),
        (
            ["--n", "5", "--start", "reverse", "--t-end", "2", "--format", "csv",
             "--precision", "1"],
            "a7207e8ae0ff9f5fb3278c0c90ec339a04547b4aa1952cd9b7c11f452f3d47dd",
        ),
        (
            ["--n", "5", "--start", "reverse", "--t-end", "2", "--format", "csv",
             "--precision", "17"],
            "0bb0daa7b87254a2c9f2d17b98f6498bbe60f23b453266226cbc8c6ce20c362b",
        ),
        (
            ["--n", "30", "--start", "random:3", "--t-end", "4", "--samples", "9",
             "--precision", "1"],
            "c7069a4c11200d04b89339134daa643f562534f0d11c73ddc436382989db64e9",
        ),
        (
            ["--n", "30", "--start", "random:3", "--t-end", "4", "--samples", "9",
             "--precision", "17"],
            "23529b150191af0094488ec0be675162e2ee27f3a3329645fd259e2ee12dea09",
        ),
        (
            ["--n", "30", "--start", "random:3", "--t-end", "4", "--samples", "9",
             "--format", "csv", "--precision", "1"],
            "4984eb976601f3194b5d3767f6150310c551f3e3fdd2209e2520baeb8675d8ae",
        ),
        (
            ["--n", "30", "--start", "random:3", "--t-end", "4", "--samples", "9",
             "--format", "csv", "--precision", "17"],
            "5ecbdc2af188878cda7166b4e5aaf49d8ae555146eda2895e1052ac36f54d511",
        ),
    ]

    @pytest.mark.parametrize("args, digest", CLOSED_GOLDEN)
    def test_closed_form_golden_bytes(self, args, digest, capsys):
        code, out, _ = run(["flow", "trace", *args], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("block", [1, 37, 200])
    @pytest.mark.parametrize(
        "args, digest", [(["--projected", *a], d) for a, d in GOLDEN] + CLOSED_GOLDEN
    )
    def test_golden_bytes_in_row_blocks(self, args, digest, block, capsys, monkeypatch):
        # 1 fills one row at a time; 37 and 200 fill several rows of the
        # narrower traces per block, with a shorter last block
        monkeypatch.setattr(permflow.cli, "_FILL_BLOCK", block)
        code, out, _ = run(["flow", "trace", *args], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestNonFiniteParameters:
    @pytest.mark.parametrize(
        "argv",
        [
            ["flow", "trace", "--n", "4", "--projected", "--t-end", "inf"],
            ["flow", "trace", "--n", "4", "--projected", "--t-end", "nan"],
            ["flow", "trace", "--n", "4", "--t-end", "nan"],
            ["flow", "trace", "--n", "4", "--t-end", "inf"],
            ["flow", "trace", "--n", "4", "--projected", "--t-end", "1", "--step", "nan"],
            ["flow", "events", "--n", "4", "--epsilon", "nan"],
            ["flow", "events", "--n", "4", "--epsilon", "inf"],
            ["flow", "events", "--n", "4", "--c", "inf"],
            ["flow", "events", "--n", "4", "--c", "nan"],
            # finite t_end, but t_end * (samples - 1) overflows to inf
            ["flow", "trace", "--n", "4", "--t-end", "1e308", "--samples", "3"],
            ["flow", "trace", "--n", "4", "--t-end", "1e308", "--samples", "3", "--format", "csv"],
        ],
    )
    def test_non_finite_parameters_exit_two(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


# subnormals and the ends of the range, then anything in between
finite_positive = st.one_of(
    st.sampled_from([5e-324, 1e-310, 1e-170, 1e-160, 1.0, 1e154, 1e308]),
    st.floats(5e-324, 1e308),
)


def reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


class TestFlowEventsFiniteOutput:
    def test_tiny_epsilon_gives_the_finite_time(self, capsys):
        for eps in ["1e-160", "1e-170"]:
            code, out, err = run(
                ["flow", "events", "--n", "20", "--epsilon", eps, "--precision", "17"], capsys
            )
            assert code == 0 and err == ""
            payload = json.loads(out, parse_constant=reject_constant)
            want = 0.5 * math.log(payload["d0"]) - math.log(float(eps))
            assert math.isclose(payload["t_eps"], want, rel_tol=1e-12)

    @pytest.mark.parametrize("c", ["1e-310", "5e-324"])
    def test_tiny_c_exits_two_naming_c(self, c, capsys):
        code, out, err = run(["flow", "events", "--n", "20", "--c", c], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: c is too small")

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 12),
        finite_positive,
        finite_positive,
    )
    def test_exit_two_or_strict_json(self, n, eps, c):
        out, err = io.StringIO(), io.StringIO()
        argv = ["flow", "events", "--n", str(n), "--epsilon", repr(eps), "--c", repr(c)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if code == 2:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error: c is too small")
        else:
            assert code == 0
            payload = json.loads(out.getvalue(), parse_constant=reject_constant)
            assert payload["t_eps"] >= 0.0


class TestDtree:
    def test_json_fields(self, capsys):
        code, out, _ = run(["dtree", "--n", "4"], capsys)
        assert code == 0
        assert json.loads(out) == {"n": 4, "info_bound": 5, "height": 5, "leaf_count": 24}

    def test_csv(self, capsys):
        code, out, _ = run(["dtree", "--n", "3", "--format", "csv"], capsys)
        assert code == 0
        assert out == "n,info_bound,height,leaf_count\n3,3,3,6\n"

    def test_emit_tree(self, capsys, tmp_path):
        path = tmp_path / "tree.json"
        code, out, _ = run(["dtree", "--n", "4", "--emit-tree", str(path)], capsys)
        assert code == 0
        assert json.loads(path.read_text()) == tree_to_dict(build_optimal(4).root)

    # sha256 of the tree JSON that --emit-tree writes, for every buildable n
    TREE_GOLDEN = [
        (1, "9623a3806160ac52aed0ca1fa51f859e6e511357dc62fdd71c79938c40bdcbeb"),
        (2, "2421655f3978707b38e10eada4a250bd72af9b406dd74aa65559094c2f62f8ff"),
        (3, "1a0c4ce1fcbc6a6df2859857ca81584d3a44ca05b9d0d5d4f49ffe44e2f985c3"),
        (4, "c78e7d90c0f389e888e6717dbc2e63463198a36a948c04e8e4df041d40dc9436"),
        (5, "72728183d3071a66871598fbba8ad7698b9eb15069290a5f4041de322c1d1d6e"),
    ]

    @pytest.mark.parametrize("n, digest", TREE_GOLDEN)
    def test_emitted_tree_golden_bytes(self, n, digest, capsys, tmp_path):
        path = tmp_path / "tree.json"
        code, _, _ = run(["dtree", "--n", str(n), "--emit-tree", str(path)], capsys)
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    # sha256 of stdout for every buildable n
    STDOUT_GOLDEN = [
        (1, "a53a8d6c7da0510059743dcaa63880828af31821918c8b9e4de1d02d1f98e514"),
        (2, "4294c3e4c6342503c070e21cb27d75c6cb912f18db75563047aaed3007c4d8d1"),
        (3, "08738f856d43373ea7dd0632033aabec12fab0797b24b9bde97d710301ebccfd"),
        (4, "8a6a59360ffac6ea82ddd871f8c3b02a8dd8b0a0c87b59d2fd74014782b1f7ab"),
        (5, "4e4cc68603e76e78cbeeccfc0b6d59d573a39f913fab6972ffbb4cd4d74931c6"),
    ]

    @pytest.mark.parametrize("n, digest", STDOUT_GOLDEN)
    def test_stdout_golden_bytes(self, n, digest, capsys):
        code, out, _ = run(["dtree", "--n", str(n)], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_five_keys_build(self, capsys):
        code, out, _ = run(["dtree", "--n", "5"], capsys)
        assert code == 0
        assert json.loads(out) == {"n": 5, "info_bound": 7, "height": 7, "leaf_count": 120}

    def test_hard_cap_is_exit_three(self, capsys):
        code, _, err = run(["dtree", "--n", "6"], capsys)
        assert code == 3
        assert err.startswith("error:")


class TestSlice:
    def test_constraint_counting(self, capsys):
        code, out, _ = run(["slice", "--n", "3", "--constraints", "1<2,2<3"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "n": 3,
            "constraints": [[1, 2], [2, 3]],
            "count": 1,
            "isolates_sorted": True,
            "contradictory": False,
        }

    def test_contradiction(self, capsys):
        code, out, _ = run(["slice", "--n", "3", "--constraints", "1<2,2<1"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 0
        assert payload["contradictory"] is True
        assert payload["isolates_sorted"] is False

    def test_empty_constraints(self, capsys):
        code, out, _ = run(["slice", "--n", "4", "--constraints", ""], capsys)
        assert code == 0
        assert json.loads(out)["count"] == 24

    def test_constraints_csv(self, capsys):
        code, out, _ = run(
            ["slice", "--n", "3", "--constraints", "1<2", "--format", "csv"], capsys
        )
        assert code == 0
        assert out == "n,count,isolates_sorted,contradictory\n3,3,false,false\n"

    def test_instrument_json(self, capsys):
        code, out, _ = run(
            ["slice", "--n", "3", "--instrument", "merge", "--input", "3,1,2"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["algorithm"] == "merge"
        assert payload["input"] == [3, 1, 2]
        assert payload["comparisons"] == 3
        assert payload["final_count"] == 1
        assert payload["isolates_sorted"] is True
        assert math.isclose(payload["total_bits"], math.log2(6), abs_tol=1e-4)
        assert payload["trace"] == [
            {"step": 1, "lo": 1, "hi": 2, "feasible_before": 6, "feasible_after": 3, "bits": 1.0},
            {"step": 2, "lo": 1, "hi": 3, "feasible_before": 3, "feasible_after": 2, "bits": 0.584963},
            {"step": 3, "lo": 2, "hi": 3, "feasible_before": 2, "feasible_after": 1, "bits": 1.0},
        ]

    def test_instrument_input_that_is_not_integers_exits_two(self, capsys):
        code, out, err = run(
            ["slice", "--n", "3", "--instrument", "merge", "--input", "3,x,1"], capsys
        )
        assert code == 2
        assert out == ""
        assert err == "error: --input must be a comma-separated permutation, got '3,x,1'\n"

    def test_instrument_csv(self, capsys):
        code, out, _ = run(
            ["slice", "--n", "3", "--instrument", "merge", "--input", "3,1,2",
             "--format", "csv"],
            capsys,
        )
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        assert lines[0].startswith("# algorithm=merge input=3,1,2 comparisons=3")
        assert "isolates_sorted=true" in lines[0]
        assert lines[1] == "step,lo,hi,feasible_before,feasible_after,bits"
        assert lines[2:] == ["1,1,2,6,3,1", "2,1,3,3,2,0.584963", "3,2,3,2,1,1"]

    # sha256 of stdout for fixed argv, recorded from the flat 2^n subset DP:
    # counting by components and down-sets must keep every byte
    GOLDEN = [
        (
            ["--n", "16", "--constraints", "1<2,3<4,5<6,7<8,9<10,11<12,13<14,15<16"],
            "b5db3cbe4d4420a6cb729b52daf8ae18cbab1efbbc5a50e5266172ff53dc9884",
        ),
        (
            ["--n", "16", "--constraints", "1<2,3<4,5<6,7<8,9<10,11<12,13<14,15<16",
             "--format", "csv"],
            "bff042c130a09a2122f22b6b9d8589924a25cde631beb98c1b56412cea4282ee",
        ),
        (
            ["--n", "16", "--constraints", "1<2,2<3,3<4,4<5,6<7,7<8,8<9,10<11,11<12,12<13,13<14"],
            "a65ec633575866e461f74b0e61ea636bc5ec708d35506e212b9b3be8968ba6ba",
        ),
        (
            ["--n", "16", "--constraints", "1<2,2<3,3<4,4<5,6<7,7<8,8<9,10<11,11<12,12<13,13<14",
             "--format", "csv"],
            "db93a83a889c2da88d86381175f7eff64c46dc20abd1015c3d9419c2ee2c6bb1",
        ),
        (
            ["--n", "16", "--constraints", "1<2,2<3,3<1,4<5,8<9"],
            "e2c0edee5d3e829baa0f944a3ae6aeb3606b14e4487f32311f3a9c16bf15d779",
        ),
        (
            ["--n", "16", "--constraints", "1<2,2<3,3<1,4<5,8<9", "--format", "csv"],
            "75dfd9e08c8ec0e3e2cacbe3e5607d4e61298622c995f7ee1a8fb58001af1c15",
        ),
        (
            ["--n", "16", "--constraints", "1<3,2<3,3<4,3<5,4<6,5<6,7<9,8<9,10<12"],
            "b5a7b3e47c4f45b0e8c851b492c9184945b1cd31855678fbb2c8b86c2073f8d6",
        ),
        (
            ["--n", "16", "--constraints", "1<3,2<3,3<4,3<5,4<6,5<6,7<9,8<9,10<12",
             "--format", "csv"],
            "dfd43ce7cbd718a94d81e53842f4e178445d4024521ce05e9b8a9e6d6a9b8cce",
        ),
        (
            ["--n", "16", "--constraints", ""],
            "2d95eff6037e469d5940bf097132debaeeb3e4e30cd6f26e149965cefd4fb5e6",
        ),
        (
            ["--n", "16", "--constraints", "", "--format", "csv"],
            "962867066a646aeb6b65781980525850450b48974c397bb33d496fb8e48f25bb",
        ),
        (
            ["--n", "8", "--instrument", "insertion", "--input", "5,8,2,7,1,4,6,3"],
            "e8bc4c4f3cccf415a38444afb75aca83718c713d3f4566d78bfccea910d81d51",
        ),
        (
            ["--n", "8", "--instrument", "insertion", "--input", "5,8,2,7,1,4,6,3",
             "--format", "csv"],
            "e4a66647711b12829dd89227a800c50cf479d0d143070fc8049e44a956d5703f",
        ),
        (
            ["--n", "8", "--instrument", "merge", "--input", "5,8,2,7,1,4,6,3"],
            "813d6eb31d25e149ef79eb509306660b2226ada180c45cd6bdd14b3c7d2671f4",
        ),
        (
            ["--n", "8", "--instrument", "merge", "--input", "5,8,2,7,1,4,6,3",
             "--format", "csv"],
            "b9dbf2def61f5f9ec46116578e4a359f4779d32f6350d836ada00b83efe83393",
        ),
        (
            ["--n", "8", "--instrument", "quick", "--input", "5,8,2,7,1,4,6,3"],
            "08e714df9fc15e2cbe950a7d5dff8fbefdd0ea9b0f58b86d87bf0a01238fbb0e",
        ),
        (
            ["--n", "8", "--instrument", "quick", "--input", "5,8,2,7,1,4,6,3",
             "--format", "csv"],
            "8de29e241fdbc0c086a2d6bad0571208fcf556e6138e2f60f7f95c90e47c1fbd",
        ),
        (
            ["--n", "8", "--instrument", "heap", "--input", "5,8,2,7,1,4,6,3"],
            "e9df01874a4b47be9343b9ac42155e8ac135d9210c86ee6efb42ddfd983c3780",
        ),
        (
            ["--n", "8", "--instrument", "heap", "--input", "5,8,2,7,1,4,6,3",
             "--format", "csv"],
            "8f45a5d32416df561dcf2126e9011c0a99c9074bb04b2d403478f194746713e2",
        ),
    ]

    @pytest.mark.parametrize("args, digest", GOLDEN)
    def test_golden_bytes(self, args, digest, capsys):
        code, out, _ = run(["slice", *args], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_instrument_requires_input(self, capsys):
        code, _, err = run(["slice", "--n", "3", "--instrument", "merge"], capsys)
        assert code == 2
        assert err.startswith("error:")

    def test_input_without_instrument(self, capsys):
        code, out, err = run(
            ["slice", "--n", "3", "--constraints", "1<2", "--input", "3,1,2"], capsys
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--instrument" in err

    def test_input_length_mismatch(self, capsys):
        code, _, err = run(
            ["slice", "--n", "4", "--instrument", "merge", "--input", "3,1,2"], capsys
        )
        assert code == 2

    def test_modes_are_mutually_exclusive(self, capsys):
        code, _, err = run(
            ["slice", "--n", "3", "--constraints", "1<2", "--instrument", "merge"], capsys
        )
        assert code == 2

    def test_instrument_size_cap(self, capsys):
        ranks = ",".join(str(k) for k in range(19, 0, -1))
        code, _, err = run(
            ["slice", "--n", "19", "--instrument", "merge", "--input", ranks], capsys
        )
        assert code == 3

    def test_counting_size_cap(self, capsys):
        code, _, err = run(["slice", "--n", "19", "--constraints", ""], capsys)
        assert code == 3

    def test_long_chain_reaches_the_size_cap(self, capsys):
        chain = ",".join(f"{k}<{k + 1}" for k in range(1, 8000))
        code, out, err = run(["slice", "--n", "8000", "--constraints", chain], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("error:")


class TestReport:
    def test_text_contains_required_lines(self, capsys):
        code, out, _ = run(["report"], capsys)
        assert code == 0
        assert "t1 = 0.693147" in out
        assert "crossings = 3" in out
        assert "info_bound = 3" in out
        deviations = [l for l in out.splitlines() if l.startswith("NOTED-DEVIATION:")]
        assert len(deviations) == 2

    def test_text_worked_values(self, capsys):
        _, out, _ = run(["report"], capsys)
        assert "d0 = 8" in out
        assert "t_total = 1.03972" in out
        assert "estimate = 3.11916" in out
        assert "estimate_ceiling = 4" in out

    def test_json_variant(self, capsys):
        code, out, _ = run(["report", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["t1"] == 0.693147
        assert payload["crossings"] == 3
        assert payload["info_bound"] == 3
        assert len(payload["deviations"]) == 2

    def test_csv_variant(self, capsys):
        code, out, _ = run(["report", "--format", "csv"], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["key", "value"]
        table = {key: value for key, value, *rest in rows[1:]}
        assert table["t1"] == "0.693147"
        assert table["crossings"] == "3"
        assert table["info_bound"] == "3"
        assert "deviation_1" in table and "deviation_2" in table

    @pytest.mark.parametrize("args", [[], ["--precision", "17"]])
    def test_text_format_is_the_default(self, args, capsys):
        default = run(["report", *args], capsys)
        assert run(["report", "--format", "text", *args], capsys) == default
        assert default[0] == 0

    # sha256 of stdout for fixed argv
    GOLDEN = [
        ([], "a7d06135eaa34e4f26728e8d06d5902df0fb5191a605674b76e0a0c3c334d549"),
        (
            ["--format", "json"],
            "04423377cca35acb1dc756640b0324a3b70e7fe909a9938798af1a2169fb2ddc",
        ),
        (
            ["--format", "csv"],
            "b12dba2d9e788bf857068fdcce4c093be9b883667ae80e17c34d5063946554f5",
        ),
        (
            ["--precision", "17"],
            "5cdaed23e50de32360eac7515fb62be0910c0a81d755a969f59492fdaac34bc3",
        ),
        (
            ["--format", "json", "--precision", "17"],
            "75d70913aaf15bcd4a3efaa2eabb2df4bbfc1274ddc8be11bef93a8b74dcc80f",
        ),
        (
            ["--format", "csv", "--precision", "17"],
            "c719d2f05d52dd81ea73b08070fd9bcf9f8155962d16009130234fe7eb233430",
        ),
    ]

    @pytest.mark.parametrize("args, digest", GOLDEN)
    def test_golden_bytes(self, args, digest, capsys):
        code, out, _ = run(["report", *args], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestOneOperationCount:
    """`estimate` and `lemma_lb` print one number, the flow's operation count."""

    @staticmethod
    def printed(out: str, key: str) -> list:
        """Every token printed for `key`: `key=x`, `key = x`, `key,x` or `"key": x`."""
        return re.findall(rf'(?:^|[\s"]){key}"?(?:=| = |,|: )([^\s,}}]+)', out, re.M)

    @pytest.mark.parametrize("precision", ["6", "16", "17"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["flow", "events", "--n", "3", "--format", "json"],
            ["flow", "events", "--n", "3", "--format", "csv"],
            ["flow", "events", "--n", "120", "--start", "random:1", "--format", "json"],
            ["flow", "events", "--n", "120", "--start", "random:1", "--format", "csv"],
            ["flow", "events", "--n", "9", "--epsilon", "0.5", "--c", "3", "--format", "csv"],
            ["report", "--format", "text"],
            ["report", "--format", "json"],
            ["report", "--format", "csv"],
        ],
    )
    def test_estimate_and_lemma_lb_print_the_same_token(self, argv, precision, capsys):
        code, out, err = run([*argv, "--precision", precision], capsys)
        assert code == 0 and err == ""
        estimate = self.printed(out, "estimate")
        assert len(estimate) == 1
        assert self.printed(out, "lemma_lb") == estimate


class TestBench:
    def test_csv_table(self, capsys):
        code, out, _ = run(
            ["bench", "--n-min", "2", "--n-max", "5", "--format", "csv"], capsys
        )
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        assert lines[0] == "n,d0,t,n_t,asymptote,ratio"
        assert len(lines) == 5
        assert lines[2] == "3,8,1.03972,3.11916,4.94376,0.63093"
        assert lines[4].startswith("5,40,")

    def test_json_d0_is_exact_integer(self, capsys):
        code, out, _ = run(["bench", "--n-min", "2", "--n-max", "4"], capsys)
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [r["d0"] for r in rows] == [2, 8, 20]
        assert all(isinstance(r["d0"], int) for r in rows)

    def test_ratio_approaches_one(self, capsys):
        # n*t = n * 0.5 * ln(n(n^2-1)/3) ~ 1.5 n ln n, so the ratio
        # climbs toward 1 from below
        code, out, _ = run(
            ["bench", "--n-min", "1000", "--n-max", "1000", "--precision", "12"], capsys
        )
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert 0.9 <= row["ratio"] <= 1.0

    def test_stride(self, capsys):
        code, out, _ = run(["bench", "--n-min", "2", "--n-max", "10", "--step", "4"], capsys)
        assert code == 0
        assert [r["n"] for r in json.loads(out)["rows"]] == [2, 6, 10]

    def test_validation(self, capsys):
        for argv in [
            ["bench", "--n-min", "1", "--n-max", "5"],
            ["bench", "--n-min", "6", "--n-max", "5"],
            ["bench", "--n-min", "2", "--n-max", str(10**6 + 1)],
            ["bench", "--n-min", "2", "--n-max", "5", "--step", "0"],
        ]:
            code, _, err = run(argv, capsys)
            assert code == 2
            assert err.startswith("error:")

    def test_sample_limit_rows_are_built(self, capsys):
        code, out, err = run(["bench", "--n-min", "2", "--n-max", "10001"], capsys)
        assert code == 0 and err == ""
        assert len(json.loads(out)["rows"]) == SAMPLE_LIMIT

    def test_over_sample_limit_exits_three_before_any_row(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built a row of a table beyond the sample limit")

        monkeypatch.setattr(permflow.cli, "reverse_disorder", refuse)
        code, out, err = run(["bench", "--n-min", "2", "--n-max", "10002"], capsys)
        assert code == 3
        assert out == ""
        assert err == f"error: growth tables are limited to {SAMPLE_LIMIT} rows, got 10001\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("n_min, n_max", [(2, 2001), (999_990, 1_000_000)])
    def test_t_is_time_to_epsilon_bit_for_bit(self, n_min, n_max, fmt, capsys):
        # 17 significant digits round-trip, so the printed t is the computed one
        code, out, _ = run(
            ["bench", "--n-min", str(n_min), "--n-max", str(n_max), "--precision", "17",
             "--format", fmt],
            capsys,
        )
        assert code == 0
        if fmt == "json":
            rows = [(r["d0"], r["t"]) for r in json.loads(out)["rows"]]
        else:
            rows = [(int(r["d0"]), float(r["t"])) for r in csv.DictReader(io.StringIO(out))]
        assert len(rows) == n_max - n_min + 1
        for d0, t in rows:
            assert t == permflow.flow.time_to_epsilon(float(d0), 1.0)

    def test_n_t_is_the_flow_events_estimate(self, capsys, monkeypatch):
        # one operation count: at 17 digits bench's n_t is the estimate that
        # `flow events` prints for the reversed start, n * t differed from it
        # in the last ulp at some n. The schedule is not what is compared, so
        # each start's events are those of the sorted start: none.
        code, out, _ = run(
            ["bench", "--n-min", "2", "--n-max", "300", "--precision", "17"], capsys
        )
        assert code == 0
        n_t = {r["n"]: r["n_t"] for r in json.loads(out)["rows"]}
        schedule = permflow.flow.crossing_events
        monkeypatch.setattr(permflow.cli, "crossing_events", lambda x: schedule(sorted(x)))
        for n in range(2, 301):
            argv = ["flow", "events", "--n", str(n), "--start", "reverse", "--precision", "17"]
            code, out, _ = run(argv, capsys)
            assert code == 0
            assert json.loads(out)["estimate"] == n_t[n], n

    # sha256 of stdout for fixed argv
    GOLDEN = [
        (
            ["--n-min", "2", "--n-max", "400", "--step", "3"],
            "f406a386ed399955098d6ea4fb23b091ec57db5177f5a752a9d578f89957c9eb",
        ),
        (
            ["--n-min", "2", "--n-max", "400", "--step", "3", "--format", "csv"],
            "e972b9b50697c15821f67256aed1a8207f756e0afe5b696538e36a7203bdc023",
        ),
        (
            ["--n-min", "999990", "--n-max", "1000000", "--precision", "17"],
            "61e293d6e5f524a609c3b0d393bd5ce4bd0b9d63c9bd0da73f04203fa29c5f4d",
        ),
        (
            ["--n-min", "999990", "--n-max", "1000000", "--precision", "17",
             "--format", "csv"],
            "cb393ea708c2ffb5833c1be9a272d2fe574e9c3ab8bb22fb86ac38347ab6f4fc",
        ),
        # n_t and asymptote print with a positive exponent at 6 digits
        (
            ["--n-min", "999990", "--n-max", "1000000"],
            "f099327e731ed5e28aa912ea95c498f1523ae8aa56a6bfd9863f358e3d6d6bf8",
        ),
        (
            ["--n-min", "999990", "--n-max", "1000000", "--precision", "15"],
            "37d37aae48861526d0c7d230023c5d6583c5079146acb59e1c6edeee7c0afb84",
        ),
    ]

    @pytest.mark.parametrize("args, digest", GOLDEN)
    def test_golden_bytes(self, args, digest, capsys):
        code, out, _ = run(["bench", *args], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestJsonReals:
    """`_json_reals` writes the token json.dumps writes for the rounded real."""

    @staticmethod
    def reference(x, k):
        return json.dumps(float(format(x, f".{k}g")))

    @settings(max_examples=2000, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False), st.integers(1, 17))
    def test_matches_json_dumps_of_rounded_float(self, x, k):
        assert _json_reals([x], f".{k}g") == [self.reference(x, k)]

    @pytest.mark.parametrize(
        "x, ks",
        [
            (-0.0, range(1, 18)),
            (0.0, range(1, 18)),
            (2.0, range(1, 18)),
            (123456.0, [6]),
            (999999.5, [6]),
            (1e15, [15, 16, 17]),
            (1e16, [15, 16, 17]),
            (1e17, [15, 16, 17]),
            (5e-324, range(1, 18)),
            (9.99995e-05, range(1, 18)),
        ],
    )
    def test_named_cases(self, x, ks):
        for k in ks:
            assert _json_reals([x], f".{k}g") == [self.reference(x, k)], k

    def test_tokens_that_are_not_the_formatted_digits(self):
        assert _json_reals([-0.0, 2.0, 123456.0], ".6g") == ["-0.0", "2.0", "123456.0"]
        assert _json_reals([999999.5, 1e15], ".6g") == ["1000000.0", "1000000000000000.0"]
        # a subnormal: 4.9e-324 is the same double as 5e-324
        assert _json_reals([5e-324], ".2g") == ["5e-324"]
        assert _json_reals([0.1], ".17g") == ["0.1"]

    def test_a_list_keeps_its_order(self):
        xs = [0.5, 2.0, 1e-5, 1e20, 5e-324, -3.25, 0.1]
        for k in range(1, 18):
            assert _json_reals(xs, f".{k}g") == [self.reference(x, k) for x in xs]
        assert _json_reals([], ".6g") == []


class TestCommonOptions:
    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "events.json"
        code, out, _ = run(
            ["flow", "events", "--n", "3", "--output", str(path)], capsys
        )
        assert code == 0
        assert out == ""
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text)["n"] == 3

    def test_precision_flag(self, capsys):
        code, out, _ = run(["flow", "events", "--n", "3", "--precision", "3"], capsys)
        assert code == 0
        assert json.loads(out)["events"][0]["t"] == 0.693

    def test_precision_out_of_range(self, capsys):
        for value in ["0", "18", "-2"]:
            code, _, err = run(["flow", "events", "--n", "3", "--precision", value], capsys)
            assert code == 2
            assert err.startswith("error:")

    def test_unknown_command_exits_two(self, capsys):
        code, _, err = run(["warp"], capsys)
        assert code == 2

    def test_missing_required_flag_exits_two(self, capsys):
        code, _, err = run(["dtree"], capsys)
        assert code == 2

    def test_no_command_exits_two(self, capsys):
        code, _, err = run([], capsys)
        assert code == 2

    @pytest.mark.parametrize("flag", ["--output", "--emit-tree"])
    def test_unwritable_path_exits_two(self, flag, capsys, tmp_path):
        path = tmp_path / "missing" / "x"
        code, out, err = run(["dtree", "--n", "3", flag, str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


class TestParserPath:
    """`main` builds only the commands argv names; what it prints must not change."""

    ARGVS = [
        ["--help"],
        ["flow", "--help"],
        ["flow", "events", "--help"],
        ["flow", "trace", "--help"],
        ["dtree", "--help"],
        ["slice", "--help"],
        ["report", "--help"],
        ["bench", "--help"],
        ["-h", "slice"],
        ["flow", "-h", "events"],
        [],
        ["nosuchcommand"],
        ["flow"],
        ["flow", "bogus"],
        ["dtree", "slice"],
        ["dtree"],
        ["flow", "trace", "--t-end", "1"],
        ["slice", "--n", "3"],
        ["slice", "--n", "3", "--constraints", "1<2", "--instrument", "merge"],
        ["slice", "--n", "3", "--instrument", "bubble"],
        ["dtree", "--n", "3", "--bogus"],
        ["--", "dtree", "--n", "3"],
        ["--", "flow", "events", "--n", "3"],
        ["flow", "events", "--n", "4"],
        ["flow", "trace", "--n", "3", "--t-end", "1"],
        ["dtree", "--n", "3"],
        ["slice", "--n", "4", "--constraints", "1<2"],
        ["slice", "--n", "4", "--instrument", "merge", "--input", "2,4,1,3"],
        ["report"],
        ["report", "--format", "csv"],
        ["bench", "--n-min", "2", "--n-max", "5"],
    ]

    @pytest.mark.parametrize("argv", ARGVS)
    def test_same_as_the_whole_tree(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        path = run(argv, capsys)
        build = permflow.cli._build_parser
        # argv naming no command builds every body
        monkeypatch.setattr(permflow.cli, "_build_parser", lambda _argv: build([]))
        assert path == run(argv, capsys)

    def test_other_commands_have_no_body(self, capsys):
        parser = permflow.cli._build_parser(["dtree", "--n", "3"])
        with pytest.raises(SystemExit):
            parser.parse_args(["slice", "--n", "3", "--constraints", ""])
        assert "unrecognized arguments: --n 3 --constraints" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, dest", [([], "command"), (["flow"], "flow_command")])
    def test_missing_command_names_its_level(self, argv, dest, capsys):
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: the following arguments are required: {dest}\n")

    # sha256 of --help at COLUMNS=80, recorded while every parser was built
    # on every call
    HELP_GOLDEN = [
        ([], "85f5fbd49613b930c05eaa88a1368fe7a29191d00deb387396022fa9da317c54"),
        (["flow"], "3a158a18397bf8dff14bca69101584c077a883d95eb829de461edc33ab6712f5"),
        (["flow", "events"], "816b7b3a08e75ea3580a635f9b4a98d46306c9d36e0da8023e5a23d7c8df48d3"),
        (["flow", "trace"], "4d7202203b0cd5fe3e79a0d29828ad1c640ccf16b8aefcd0815b8a87cfe7e5d8"),
        (["dtree"], "735f42401287f6e84eafd7b33c3ad1d5d56b9cb1eff6057f2bc5cb68b5324b03"),
        (["slice"], "d10511dea79398e028ca32242984aecede55ea7dffdaef2835057a8a7766306f"),
        (["report"], "cb60b215057f3f15a13493a37beb4e1e3036c9b158afa8b5af706a1b03634ab9"),
        (["bench"], "c973a235e9756230d6a969f9f433ebbd1ce6314ae0b1ee052f081a9e8973840e"),
    ]

    @pytest.mark.parametrize("command, digest", HELP_GOLDEN)
    def test_help_golden(self, command, digest, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run([*command, "--help"], capsys)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest
