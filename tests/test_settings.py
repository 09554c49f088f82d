"""One type rule for every settings dataclass.

A numeric setting that is not a number, or not an integer where one is
required, is a ConfigError from validate() that names it; a bool is neither.
The fields are walked, so a setting added later cannot skip the rule.
"""

import dataclasses
import math

import pytest

from soundloc.backbone import BackboneConfig
from soundloc.config import TrainConfig
from soundloc.data import SyntheticSpec
from soundloc.decode import DecodeConfig
from soundloc.errors import ConfigError
from soundloc.model import ModelConfig

SETTINGS = [TrainConfig, ModelConfig, BackboneConfig, DecodeConfig,
            SyntheticSpec]


def numeric_settings(cls):
    """(name, default) per numeric field of cls: all but its nested configs
    and the method name."""
    obj = cls()
    for f in dataclasses.fields(cls):
        value = getattr(obj, f.name)
        if not (dataclasses.is_dataclass(value) or f.name == "method"):
            yield f.name, value


def bad_values(default):
    """Values the rule rejects for a setting of this default: a bool, a
    string, and NaN for a real or 1.5 for an integer. A tuple setting gets
    each as its first entry."""
    if isinstance(default, tuple):
        return [(v,) + default[1:] for v in bad_values(default[0])]
    assert type(default) in (int, float), default
    return [True, "1", math.nan if isinstance(default, float) else 1.5]


CASES = [(cls, name, value) for cls in SETTINGS
         for name, default in numeric_settings(cls)
         for value in bad_values(default)]


@pytest.mark.parametrize("cls", SETTINGS, ids=lambda cls: cls.__name__)
def test_defaults_pass(cls):
    cls().validate()


@pytest.mark.parametrize(
    "cls, name, value", CASES,
    ids=[f"{cls.__name__}.{name}={value!r}" for cls, name, value in CASES])
def test_not_a_number_rejected(cls, name, value):
    with pytest.raises(ConfigError, match=name):
        cls(**{name: value}).validate()

