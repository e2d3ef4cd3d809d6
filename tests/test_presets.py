"""The bundled presets: read-only mappings keyed by the catalog's names,
each a model's parameters with its fixed values kept apart."""

import copy
import pickle

import pytest

from echofit.catalog import CATALOG
from echofit.presets import (
    FIELD_7MK,
    FIELD_7MK_FIXED,
    PRESETS,
    SD_7MK_009T,
    SD_7MK_009T_FIXED,
    TEMP_009T,
    THREE_LEVEL_7MK_009T,
    THREE_LEVEL_7MK_009T_FIXED,
    Values,
    get_preset,
)
from echofit.values import _numbers, _parameters

# Every parameter set: its catalog model, its parameters, its fixed values.
SETS = {
    "FIELD_7MK": ("field", FIELD_7MK, FIELD_7MK_FIXED),
    "SD_7MK_009T": ("sd", SD_7MK_009T, SD_7MK_009T_FIXED),
    "TEMP_009T": ("temp", TEMP_009T, {}),
    **{name: (pre["model_id"], pre["params"], pre["fixed"]) for name, pre in PRESETS.items()},
}


@pytest.mark.parametrize("name", SETS)
def test_a_preset_holds_exactly_its_models_names(name):
    model_id, params, fixed = SETS[name]
    spec = CATALOG[model_id]
    assert tuple(params) == spec.param_names
    assert tuple(fixed) == spec.fixed_names


def test_the_three_level_set_is_echo3s_other_names():
    echo3 = CATALOG["echo3"]
    assert tuple(THREE_LEVEL_7MK_009T) + tuple(SD_7MK_009T) == echo3.param_names
    assert tuple(THREE_LEVEL_7MK_009T_FIXED) + tuple(SD_7MK_009T_FIXED) == echo3.fixed_names


@pytest.mark.parametrize("name", SETS)
def test_every_preset_passes_the_range_rule(name):
    model_id, params, fixed = SETS[name]
    spec = CATALOG[model_id]
    theta = _parameters(model_id, "parameter", spec.params, params)
    assert theta.tolist() == [params[n] for n in spec.param_names]
    values = _numbers(model_id, "fixed", spec.fixed_names, fixed)
    assert values.tolist() == [fixed[n] for n in spec.fixed_names]


@pytest.mark.parametrize("mapping", [
    FIELD_7MK, FIELD_7MK_FIXED, SD_7MK_009T, SD_7MK_009T_FIXED, TEMP_009T,
    THREE_LEVEL_7MK_009T, THREE_LEVEL_7MK_009T_FIXED, PRESETS,
    get_preset("field-7mK"), get_preset("3ppe-7mK-0.09T")["params"],
    get_preset("3ppe-7mK-0.09T")["fixed"],
], ids=lambda m: ",".join(m)[:30])
def test_a_preset_cannot_be_changed_through_a_callers_reference(mapping):
    before = dict(mapping)
    name = next(iter(mapping))
    with pytest.raises(TypeError):
        mapping[name] = 1.0
    with pytest.raises(TypeError):
        del mapping[name]
    for change in (lambda: mapping.update({name: 1.0}), lambda: mapping.pop(name),
                   mapping.popitem, mapping.clear, lambda: mapping.setdefault("new", 1.0)):
        with pytest.raises(TypeError):
            change()
    with pytest.raises(TypeError):
        mapping |= {name: 1.0}
    # a copy is the caller's own; copy and pickle keep it read-only
    dict(mapping)[name] = 1.0
    mapping.to_dict()[name] = 1.0
    assert dict(mapping) == before
    for same in (copy.copy(mapping), copy.deepcopy(mapping), pickle.loads(pickle.dumps(mapping))):
        assert type(same) is Values and same == mapping
        with pytest.raises(TypeError):
            same[name] = 1.0


def test_the_3ppe_preset_is_built_from_the_mappings_it_names():
    pre = PRESETS["3ppe-7mK-0.09T"]
    assert pre["model_id"] == "echo3"
    assert pre["params"] == {**THREE_LEVEL_7MK_009T, **SD_7MK_009T}
    assert pre["fixed"] == {**THREE_LEVEL_7MK_009T_FIXED, **SD_7MK_009T_FIXED}
    assert PRESETS["field-7mK"]["params"] is FIELD_7MK
    assert PRESETS["field-7mK"]["fixed"] is FIELD_7MK_FIXED


def test_an_unknown_preset_is_named():
    with pytest.raises(ValueError, match=r"^unknown preset 'x'; known: 3ppe-7mK-0\.09T, "
                                         r"field-7mK$"):
        get_preset("x")
