import copy
import itertools
import math
import os
import pickle
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import permflow.core
import permflow.flow
import permflow.projection
from permflow import (
    FlowSample,
    Permutation,
    SizeLimitError,
    StateVector,
    Trace,
    crossing_events,
    disorder_squared,
    hyperplane_sum,
    in_hyperplane,
    instrument,
    integrate_projected,
    inversions,
    reverse_disorder,
    sample_trace,
    vertex_of,
)


class TestPermutation:
    def test_valid_construction(self):
        p = Permutation((3, 1, 2))
        assert p.n == 3
        assert p.ranks == (3, 1, 2)

    def test_keeps_its_own_tuple(self):
        # a list is copied into a tuple, so a later change to it does not
        # reach the permutation, which hashes and compares as the tuple's
        ranks = [3, 1, 2]
        p = Permutation(ranks)
        ranks[0] = 9
        assert p.ranks == (3, 1, 2)
        assert p == Permutation((3, 1, 2)) and hash(p) == hash(Permutation((3, 1, 2)))
        given = (2, 1)
        assert Permutation(given).ranks is given  # a tuple is not copied

    def test_integral_float_rank_is_refused(self):
        # `Permutation.of` takes integral floats; the constructor stores ints only
        with pytest.raises(ValueError) as err:
            Permutation((2.0, 1))
        assert str(err.value) == "ranks must be integers, got 2.0"

    def test_bool_rank_is_stored_as_int(self):
        p = Permutation((True, 2))
        assert p.ranks == (1, 2) and all(type(r) is int for r in p.ranks)

    def test_numpy_ranks_are_stored_as_ints(self):
        for ranks in (np.array([2, 1]), (np.int64(2), np.int32(1))):
            p = Permutation(ranks)
            assert p.ranks == (2, 1) and all(type(r) is int for r in p.ranks)
            assert p == Permutation((2, 1)) and hash(p) == hash(Permutation((2, 1)))

    @pytest.mark.parametrize("bad, named", [(("1", 2), "'1'"), ((2, None), "None")])
    def test_constructor_names_a_rank_that_is_no_integer(self, bad, named):
        with pytest.raises(ValueError) as err:
            Permutation(bad)
        assert str(err.value) == f"ranks must be integers, got {named}"

    def test_of_coerces_iterables(self):
        assert Permutation.of([2, 1]).ranks == (2, 1)
        assert Permutation.of(np.array([1, 3, 2])).ranks == (1, 3, 2)
        # integral floats too, stored as ints
        for ranks in ((2.0, 1.0), np.array([2.0, 1.0])):
            assert Permutation.of(ranks).ranks == (2, 1)
            assert all(type(r) is int for r in Permutation.of(ranks).ranks)

    @pytest.mark.parametrize(
        "ranks, named",
        [
            ([2.7, 1.2, 3.9], "2.7"),
            ([1, 2, 3.5], "3.5"),
            (["1", "2"], "'1'"),
            ([2, "1"], "'1'"),
            ([1, math.inf], "inf"),
            ([math.nan, 1], "nan"),
            ([None, 1], "None"),
        ],
    )
    def test_of_rejects_non_integral_ranks(self, ranks, named):
        with pytest.raises(ValueError, match=f"ranks must be integers, got {re.escape(named)}$"):
            Permutation.of(ranks)

    def test_non_integral_rank_is_refused_not_truncated(self):
        with pytest.raises(ValueError, match="got 2.9$"):
            vertex_of([2.9, 1.1])
        with pytest.raises(ValueError, match="got 2.5$"):
            instrument("merge", (2.5, 1.2, 3.9))

    def test_of_names_one_rank_at_large_n(self):
        with pytest.raises(ValueError) as err:
            Permutation.of([*range(1, 10_000), 0.5])
        assert str(err.value) == "ranks must be integers, got 0.5"

    @pytest.mark.parametrize("bad", [(), (0, 1), (1, 1), (1, 3), (2, 3, 4)])
    def test_rejects_non_permutations(self, bad):
        with pytest.raises(ValueError):
            Permutation(bad)

    @pytest.mark.parametrize(
        "bad, fault",
        [((1, 1), "rank 1 appears twice"), ((2, 0), "rank 0 is not one of them")],
    )
    def test_names_the_first_offending_rank(self, bad, fault):
        with pytest.raises(ValueError) as err:
            Permutation(bad)
        assert str(err.value) == f"ranks must contain each of 1..2 exactly once: {fault}"

    def test_non_permutation_message_stays_short_at_large_n(self):
        # the message names n and one rank, not all 10,000 of them
        with pytest.raises(ValueError) as err:
            inversions([1] * 10_000)
        assert len(str(err.value)) < 200
        assert str(err.value).endswith("1..10000 exactly once: rank 1 appears twice")

    def test_identity_and_reverse(self):
        assert Permutation.identity(4).ranks == (1, 2, 3, 4)
        assert Permutation.reverse(4).ranks == (4, 3, 2, 1)

    def test_equal_and_hashed_by_ranks(self):
        # permutations are dict keys: equal ranks are one key, other ranks another
        keys = {Permutation((3, 1, 2)): "a", Permutation.reverse(3): "b"}
        assert keys[Permutation.of([3, 1, 2])] == "a"
        assert keys[Permutation((3, 2, 1))] == "b"
        assert Permutation((2, 1)) != Permutation((1, 2))
        # a record, not a 1-tuple of its ranks
        assert Permutation((2, 1)) != ((2, 1),)
        assert Permutation((2, 1)) != (2, 1)
        assert not isinstance(Permutation((2, 1)), tuple)

    def test_repr_names_the_field(self):
        assert repr(Permutation((3, 1, 2))) == "Permutation(ranks=(3, 1, 2))"

    @pytest.mark.parametrize("name", ["ranks", "n", "other"])
    def test_assignment_raises_attribute_error(self, name):
        p = Permutation((2, 1))
        with pytest.raises(AttributeError, match=f"'{name}'"):
            setattr(p, name, (1, 2))
        with pytest.raises(AttributeError, match=f"'{name}'"):
            delattr(p, name)
        assert p.ranks == (2, 1)

    def test_pickle_and_copy_keep_it(self):
        p = Permutation((2, 3, 1))
        for twin in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
            assert type(twin) is Permutation and twin == p and hash(twin) == hash(p)


class TestStateVector:
    def test_coords_are_read_only(self):
        s = StateVector(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            s.coords[0] = 7.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            StateVector(np.array([]))

    @pytest.mark.parametrize("coords", [[[1.0, 2.0], [4.0, 3.0]], [[1.0], [2.0]], np.ones((1, 3))])
    def test_rejects_more_than_one_axis(self, coords):
        # a matrix is not flattened into a longer state
        shape = re.escape(str(np.shape(coords)))
        with pytest.raises(ValueError, match=f"one axis, got shape {shape}$"):
            StateVector(coords)
        with pytest.raises(ValueError, match=shape):
            in_hyperplane(coords)
        with pytest.raises(ValueError, match=shape):
            crossing_events(coords)

    def test_one_axis_and_a_scalar_are_kept(self):
        assert StateVector([3.0, 1.0, 2.0]).coords.tolist() == [3.0, 1.0, 2.0]
        assert StateVector(np.float64(1.0)).coords.tolist() == [1.0]
        assert StateVector(np.array(2.0)).n == 1

    def test_copies_input(self):
        raw = np.array([2.0, 1.0])
        s = StateVector(raw)
        raw[0] = 99.0
        assert s.coords[0] == 2.0


def test_hyperplane_sum_matches_vertices():
    for n in range(1, 8):
        assert hyperplane_sum(n) == sum(range(1, n + 1))
        assert in_hyperplane(vertex_of(Permutation.identity(n)))
        assert in_hyperplane(vertex_of(Permutation.reverse(n)))
    assert not in_hyperplane([1.0, 2.0, 4.0])
    # the absolute 1e-9 floor governs at small n
    assert not in_hyperplane([1.0, 2.0, 3.0 + 2e-9])
    assert in_hyperplane([1.0, 2.0, 3.0 + 5e-10])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not in_hyperplane([math.nan, 2.0, 4.0])
        assert not in_hyperplane([math.inf, -math.inf, 6.0])


def test_vertex_embedding():
    assert np.array_equal(vertex_of(Permutation.identity(3)).coords, [1.0, 2.0, 3.0])
    assert np.array_equal(vertex_of(Permutation.of((2, 3, 1))).coords, [2.0, 3.0, 1.0])
    assert np.array_equal(vertex_of([3, 1, 2]).coords, [3.0, 1.0, 2.0])


def reference_inversions(ranks):
    """The definition, pair by pair: the oracle for the merge count."""
    n = len(ranks)
    return sum(1 for i in range(n) for j in range(i + 1, n) if ranks[i] > ranks[j])


class TestInversions:
    def test_known_values(self):
        assert inversions(Permutation.identity(5)) == 0
        assert inversions(Permutation.reverse(5)) == 10
        assert inversions([2, 1]) == 1
        assert inversions([3, 1, 2]) == 2

    def test_reverse_maximizes(self):
        for n in range(1, 7):
            assert inversions(Permutation.reverse(n)) == n * (n - 1) // 2

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 300).flatmap(lambda n: st.permutations(range(1, n + 1))))
    def test_matches_pairwise_definition(self, ranks):
        assert inversions(ranks) == reference_inversions(ranks)

    def test_every_small_permutation(self):
        for n in range(1, 7):
            for ranks in itertools.permutations(range(1, n + 1)):
                assert inversions(ranks) == reference_inversions(ranks)

    def test_rejects_non_permutations(self):
        with pytest.raises(ValueError):
            inversions([1, 1, 2])


class TestDisorder:
    def test_worked_values(self):
        assert disorder_squared([3.0, 2.0, 1.0]) == 8.0
        assert disorder_squared(vertex_of(Permutation.identity(6))) == 0.0

    def test_returns_a_float(self):
        assert type(disorder_squared([3.0, 2.0, 1.0])) is float
        assert type(disorder_squared(np.array([1, 2, 3]))) is float

    def test_reverse_disorder_formula(self):
        # independent route: sum of squared displacements of the reversal
        for n in range(1, 30):
            direct = sum((n + 1 - 2 * i) ** 2 for i in range(1, n + 1))
            assert reverse_disorder(n) == direct

    def test_reverse_disorder_matches_measurement(self):
        for n in range(1, 10):
            measured = disorder_squared(vertex_of(Permutation.reverse(n)))
            assert measured == reverse_disorder(n)

    def test_reverse_disorder_validates(self):
        with pytest.raises(ValueError):
            reverse_disorder(0)

    def test_vertex_disorder_is_exact_past_2_to_the_53(self):
        # about 1e17 to 3e17: the integer sum rounded once; BLAS's np.dot
        # missed the shuffled one by an ulp, and the reverse one with one
        # thread
        n = 10**6
        assert disorder_squared(vertex_of(Permutation.reverse(n))) == float(reverse_disorder(n))
        ranks = np.random.default_rng(1).permutation(n) + 1
        exact = int(((ranks - np.arange(1, n + 1)) ** 2).sum())
        assert disorder_squared(vertex_of(Permutation.of(ranks))) == float(exact)

    def test_bits_do_not_depend_on_blas_threads(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        body = (
            f"import sys; sys.path.insert(0, {src!r})\n"
            "from permflow import Permutation, disorder_squared, vertex_of\n"
            "from permflow.cli import _seeded_shuffle\n"
            "n = 10**6\n"
            "for p in (Permutation.reverse(n), _seeded_shuffle(n, 1)):\n"
            "    exact = sum((r - k) ** 2 for k, r in enumerate(p.ranks, 1))\n"
            "    print(disorder_squared(vertex_of(p)).hex(), float(exact).hex())\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        runs = [
            subprocess.Popen(
                [sys.executable, "-c", body], env=e, stdout=subprocess.PIPE, text=True
            )
            for e in (env, {**env, "OPENBLAS_NUM_THREADS": "1"})
        ]
        outs = [run.communicate(timeout=120)[0] for run in runs]
        assert all(run.returncode == 0 for run in runs)
        assert outs[0] == outs[1]
        lines = [line.split() for line in outs[0].splitlines()]
        assert len(lines) == 2 and all(got == exact for got, exact in lines)


class TestTrace:
    EVALUATORS = {
        "closed-form": sample_trace,
        "euler": lambda x0, times: integrate_projected(x0, 1.0, times=times),
    }

    @pytest.mark.parametrize("evaluator", sorted(EVALUATORS))
    def test_both_evaluators_return_one_trace(self, evaluator):
        x0 = vertex_of(Permutation.of((3, 1, 4, 2)))
        trace = self.EVALUATORS[evaluator](x0, [0.0, 0.5, 1.0])
        assert type(trace) is Trace
        assert trace.final is trace.samples[-1].state
        assert [s.t for s in trace.samples] == [0.0, 0.5, 1.0]
        assert trace.samples[0].state.coords.tolist() == [3.0, 1.0, 4.0, 2.0]
        # the t = 0 sample is the start itself, bit for bit
        assert trace.samples[0].state is x0
        # every sample answers its disorder, whichever evaluator recorded it
        for s in trace.samples:
            assert s.disorder == pytest.approx(disorder_squared(s.state), rel=1e-12)

    @pytest.mark.parametrize("evaluator", sorted(EVALUATORS))
    def test_both_evaluators_read_a_generator_of_times(self, evaluator):
        # `times` is read once, so any iterable gives the trace of its list
        x0 = vertex_of(Permutation.of((3, 1, 4, 2)))
        want = self.EVALUATORS[evaluator](x0, [0.0, 0.5, 1.0])
        got = self.EVALUATORS[evaluator](x0, (k / 2 for k in range(3)))
        assert [(s.t, s.state.coords.tolist()) for s in got.samples] == [
            (s.t, s.state.coords.tolist()) for s in want.samples
        ]

    @pytest.mark.parametrize("evaluator", sorted(EVALUATORS))
    def test_both_evaluators_refuse_empty_times(self, evaluator):
        # one rule: no sample time is a ValueError, not a trace whose .final fails
        with pytest.raises(ValueError, match="^sample times must hold at least one time$"):
            self.EVALUATORS[evaluator](vertex_of(Permutation.of((3, 1, 4, 2))), [])

    @pytest.mark.parametrize("evaluator", sorted(EVALUATORS))
    def test_both_evaluators_record_one_sample_type(self, evaluator):
        # a sample stores its disorder, and half of it is the potential
        trace = self.EVALUATORS[evaluator]([2.0, 2.0, 2.0], [0.0, 1.0])
        assert [type(s) for s in trace.samples] == [FlowSample, FlowSample]
        first = trace.samples[0]
        assert (first.disorder, first.potential, first.active_block_count) == (2.0, 1.0, 1)

    @staticmethod
    def refuse_traces(monkeypatch):
        def no_trace(*args):
            raise AssertionError("built the samples of a refused trace")

        monkeypatch.setattr(permflow.flow, "_trace", no_trace)
        monkeypatch.setattr(permflow.projection, "_trace", no_trace)

    def test_both_evaluators_refuse_one_oversized_trace_alike(self, monkeypatch):
        # 11 samples at n = 4 take 11 x (4 + 58) = 682 words, one over a
        # limit of 681; 10 samples fit
        monkeypatch.setattr(permflow.core, "COORDINATE_LIMIT", 681)
        x0 = vertex_of(Permutation.of((3, 1, 4, 2)))
        times = [k / 10 for k in range(11)]
        for evaluator in sorted(self.EVALUATORS):
            assert len(self.EVALUATORS[evaluator](x0, times[:10]).samples) == 10
        self.refuse_traces(monkeypatch)
        refusals = []
        for evaluator in sorted(self.EVALUATORS):
            with pytest.raises(SizeLimitError) as refused:
                self.EVALUATORS[evaluator](x0, times)
            refusals.append(str(refused.value))
        assert refusals == [
            "traces are limited to 681 words (samples x (n + 58)): at most 10 samples at n = 4"
        ] * 2

    def test_closed_form_refuses_forty_million_samples_unread(self, monkeypatch):
        # at n = 1 they would hold about 18.6 GB; 677,968 samples are the
        # most that fit, and no time past the first one over is read
        self.refuse_traces(monkeypatch)
        read = 0

        def times():
            nonlocal read
            for k in range(40_000_000):
                read += 1
                yield float(k)

        with pytest.raises(SizeLimitError, match="at most 677968 samples at n = 1$"):
            sample_trace([1.0], times())
        assert read == 677_969
