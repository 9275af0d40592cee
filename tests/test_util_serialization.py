"""Tests for repro.util.serialization."""

import dataclasses
import json
import math

import numpy as np
import pytest

from repro.util.serialization import to_jsonable


@dataclasses.dataclass
class _Inner:
    value: float
    tags: list


@dataclasses.dataclass
class _Outer:
    name: str
    inner: _Inner
    table: dict


class TestToJsonable:
    def test_primitives_pass_through(self):
        for value in (None, True, 3, 2.5, "x"):
            assert to_jsonable(value) == value

    def test_numpy_scalars(self):
        assert to_jsonable(np.int64(5)) == 5
        assert to_jsonable(np.float64(2.5)) == 2.5
        assert to_jsonable(np.bool_(True)) is True

    def test_numpy_array(self):
        assert to_jsonable(np.array([1.0, 2.0])) == [1.0, 2.0]

    def test_nested_dataclasses(self):
        outer = _Outer("run", _Inner(1.5, ["a"]), {0.05: 3})
        data = to_jsonable(outer)
        assert data["__dataclass__"] == "_Outer"
        assert data["inner"]["value"] == 1.5
        assert data["table"] == {"0.05": 3}

    def test_tuple_keys_joined(self):
        assert to_jsonable({(2, 3): "x"}) == {"2,3": "x"}

    @pytest.mark.parametrize(
        "key, text",
        [
            (1, "1"),
            (0.05, "0.05"),
            (True, "True"),
            (np.int64(3), "3"),
            ((1, (2, 3)), "1,2,3"),
        ],
        ids=["int", "float", "bool", "numpy-int", "nested-tuple"],
    )
    def test_keys_become_strings(self, key, text):
        assert to_jsonable({key: 0}) == {text: 0}

    def test_sets_become_lists(self):
        assert sorted(to_jsonable({1, 2, 3})) == [1, 2, 3]

    def test_non_finite_floats_tokenized(self):
        assert to_jsonable(float("inf")) == "inf"
        assert to_jsonable(float("nan")) == "nan"

    def test_unserializable_rejected(self):
        with pytest.raises(TypeError):
            to_jsonable(object())
        with pytest.raises(TypeError):
            to_jsonable({object(): 1})

    def test_output_is_json_safe(self):
        outer = _Outer("run", _Inner(math.pi, [1, (2, 3)]), {(0, 1): [np.float32(1.0)]})
        json.dumps(to_jsonable(outer))  # must not raise


class TestResultsAsJson:
    """Results survive ``json.dumps`` / ``json.loads`` of ``to_jsonable``."""

    @staticmethod
    def round_trip(result):
        return json.loads(json.dumps(to_jsonable(result)))

    def test_round_trip(self):
        outer = _Outer("run", _Inner(1.25, ["a", "b"]), {0.1: 7})
        loaded = self.round_trip(outer)
        assert loaded["name"] == "run"
        assert loaded["inner"]["tags"] == ["a", "b"]
        assert loaded["table"]["0.1"] == 7

    def test_real_experiment_result_serializes(self):
        from repro.experiments import registry

        result = registry.execute(
            "table-6.3", points=[{"d_hat": 30, "delta": 0.01}]
        )
        loaded = self.round_trip(result)
        assert loaded["selections"][0]["d_low"] == 18

    def test_degree_mc_result_serializes(self):
        from repro.core.params import SFParams
        from repro.markov.degree_mc import DegreeMarkovChain

        solved = DegreeMarkovChain(SFParams(view_size=12, d_low=2), 0.05).solve()
        loaded = self.round_trip(solved)
        assert abs(sum(loaded["outdegree_pmf"].values()) - 1.0) < 1e-9
