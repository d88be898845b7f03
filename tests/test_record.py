"""The contract of the frozen value records (`nondiv._record.record`):
construction, validation, equality, hashing, immutability, repr, pickling."""

import pickle
from fractions import Fraction as F

import pytest

from nondiv._record import record
from nondiv.criterion import GroupConfig
from nondiv.linalg import Orthant, Subspace
from nondiv.rootdata import GroupSpec

from helpers import so21_config


@record
class Signs:
    """The fields of `Orthant`, in another class."""
    signs: tuple


class TestConstruction:
    def test_positional_and_keyword_construction(self):
        assert GroupSpec(2, 3) == GroupSpec(n=2, m=3) == GroupSpec(2, m=3)

    @pytest.mark.parametrize("args, kwargs", [
        ((2,), {}),                          # missing m
        ((), {"m": 3}),                      # missing n
        ((2, 3, 4), {}),                     # extra positional
        ((2, 3), {"rank": 1}),               # unknown keyword
        ((2, 3), {"n": 2}),                  # n given twice
    ])
    def test_wrong_arguments_raise_type_error(self, args, kwargs):
        with pytest.raises(TypeError):
            GroupSpec(*args, **kwargs)

    def test_post_init_validates_every_construction(self):
        with pytest.raises(ValueError, match="n must be at least 2"):
            GroupSpec(1, 1)
        with pytest.raises(ValueError, match="n must be at least 2"):
            GroupSpec(n=1, m=1)
        with pytest.raises(ValueError, match="orthant signs"):
            Orthant((1, 0))


class TestValueSemantics:
    def test_different_classes_with_equal_fields_are_unequal(self):
        s, o = Signs((1, -1)), Orthant((1, -1))
        assert s.signs == o.signs
        assert s != o and not s == o

    def test_equal_records_hash_as_their_field_tuple(self):
        a = Subspace.span(2, [(2, 2)])
        b = Subspace(2, ((F(1), F(1)),))
        assert a == b and a is not b
        assert hash(a) == hash(b) == hash((a.ambient_dim, a.basis))
        assert {a: "line"}[b] == "line"

    def test_fields_are_frozen(self):
        spec = GroupSpec(2, 3)
        with pytest.raises(AttributeError):
            spec.n = 4
        with pytest.raises(AttributeError):
            spec.rank_hint = 1
        with pytest.raises(AttributeError):
            del spec.m
        assert spec == GroupSpec(2, 3)

    def test_repr(self):
        assert repr(GroupSpec(2, 3)) == "GroupSpec(n=2, m=3)"
        assert repr(Orthant((1, -1))) == "Orthant(signs=(1, -1))"


class TestPickle:
    def test_round_trip_does_not_revalidate(self, monkeypatch):
        config = so21_config([tuple([F(0)] * 4 + [F(1), F(-1), F(0), F(0)])])
        data = pickle.dumps(config)

        def refuse(self):
            raise AssertionError("validate ran on unpickling")

        monkeypatch.setattr(GroupConfig, "validate", refuse)
        restored = pickle.loads(data)
        assert restored == config
        assert restored.centralizer_weyl == config.centralizer_weyl
