import re
from itertools import groupby

import pytest

from tricenter.config import _SCHEMA, echo_settings, load_settings
from tricenter.errors import ContractError
from tricenter.nn import config_fingerprint

DEFAULT = "[data]\npreset = skin7-like\n"

NON_DEFAULT = """\
[run]
method = two_stage
loss_family = quadruplet
centered = false
seed = 11

[data]
preset = skin7-like
holdout_fraction = 0
small_class_threshold = 9

[model]
embedding_dim = 24
hidden = 32
activation = relu

[stage1]
epochs = 3
m_per_class = 5
mining = random

[stage2]
epochs = 4
batch_size = 8
center_mode = trainable
alpha = 0.7
lr = 0.001
refresh_each_epoch = no

[hyper]
alpha = 0.6
beta = 0.3

[optimizer]
lr = 0.0005
beta1 = 0.8
beta2 = 0.95
epsilon = 1e-07

[baseline]
epochs = 7
batch_size = 16
focal_gamma = 1.5

[eval]
k_folds = 3
"""


def write(tmp_path, text, name="config.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


DEFAULT_ECHO = """\
[run]
method = two_stage
loss_family = triplet
centered = true
seed = 0

[data]
preset = skin7-like
holdout_fraction = 0.2
small_class_threshold = 20

[model]
embedding_dim = 128
hidden = 64,64
activation = tanh

[stage1]
epochs = 200
m_per_class = 10
mining = random_hard

[stage2]
epochs = 200
batch_size = 16
center_mode = computed
refresh_each_epoch = true

[hyper]
alpha = 0.5
beta = 0.25

[optimizer]
lr = 0.0001
beta1 = 0.9
beta2 = 0.99
epsilon = 1e-08

[baseline]
batch_size = 32
focal_gamma = 2.0

[eval]
k_folds = 5
"""


@pytest.mark.parametrize("text", [DEFAULT, NON_DEFAULT], ids=["default", "non_default"])
def test_echo_load_echo_is_a_fixpoint(tmp_path, text):
    settings = load_settings(write(tmp_path, text))
    echo = echo_settings(settings)
    reloaded = load_settings(write(tmp_path, echo, "echo.ini"))
    assert reloaded == settings
    assert echo_settings(reloaded) == echo


def test_default_echo_is_pinned(tmp_path):
    assert echo_settings(load_settings(write(tmp_path, DEFAULT))) == DEFAULT_ECHO


@pytest.mark.parametrize("text, fingerprint", [(DEFAULT, "8ad3cb3c041d1668"),
                                               (NON_DEFAULT, "ef55297acab5e97e")],
                         ids=["default", "non_default"])
def test_config_fingerprints_are_pinned(tmp_path, text, fingerprint):
    """Checkpoint headers carry this hash; a schema refactor must not move it."""
    assert config_fingerprint(load_settings(write(tmp_path, text)).train.to_dict()) == fingerprint


def test_non_default_config_is_read_as_written(tmp_path):
    settings = load_settings(write(tmp_path, NON_DEFAULT))
    t = settings.train
    assert (t.stage2.alpha, t.stage2.lr, t.baseline_epochs) == (0.7, 0.001, 7)
    assert settings.holdout_fraction == 0.0 and t.hyper.beta == 0.3 and t.hidden == (32,)
    assert t.centered is False and t.stage2.refresh_each_epoch is False


@pytest.mark.parametrize("text", [DEFAULT, NON_DEFAULT], ids=["default", "non_default"])
def test_an_ini_saved_with_a_byte_order_mark_reads_as_without_one(tmp_path, text):
    """Notepad and other editors save UTF-8 with a BOM; it used to put line 1
    before any [section] header."""
    bom = tmp_path / "bom.ini"
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert load_settings(bom) == load_settings(write(tmp_path, text))


@pytest.mark.parametrize("text, message", [
    ("[data]\npreset = skin7-like\n[stage3]\nepochs = 1\n", r"unknown config section \[stage3\]"),
    ("[data]\npreset = skin7-like\n[stage1]\nepoch = 1\n", r"unknown key\(s\) \['epoch'\]"),
], ids=["section", "key"])
def test_unknown_sections_and_keys_are_rejected(tmp_path, text, message):
    with pytest.raises(ContractError, match=message):
        load_settings(write(tmp_path, text))


def test_a_line_that_is_neither_a_section_nor_a_key_is_named_in_one_line(tmp_path):
    path = write(tmp_path, "[data]\npreset = skin7-like\ngarbage line\n")
    with pytest.raises(ContractError) as info:
        load_settings(path)
    assert str(info.value) == (f"{path}: line 3: 'garbage line' is not a [section] "
                               "or key = value line")


@pytest.mark.parametrize("section, key, value", [
    ("run", "centered", "maybe"),
    ("stage2", "refresh_each_epoch", "2"),
    ("run", "seed", "three"),
    ("stage1", "epochs", "2.5"),
    ("hyper", "alpha", "wide"),
    ("optimizer", "lr", "1e-4x"),
    ("hyper", "alpha", "-1"),
    ("hyper", "beta", "-0.1"),
    ("hyper", "p_norm", "2"),
    ("hyper", "alpha", "nan"),
    ("hyper", "beta", "inf"),
    ("stage2", "alpha", "nan"),
], ids=["bool", "bool_digit", "int", "int_float", "float", "float_suffix",
        "negative_alpha", "negative_beta", "removed_p_norm", "nan_alpha", "inf_beta",
        "nan_stage2_alpha"])
def test_bad_values_raise_contract_error(tmp_path, section, key, value):
    text = f"[data]\npreset = skin7-like\n[{section}]\n{key} = {value}\n"
    with pytest.raises(ContractError):
        load_settings(write(tmp_path, text))


def test_a_loaded_config_echoes_to_a_file_that_reloads_to_it(tmp_path):
    """Random text in any few schema keys: ``load_settings`` rejects the file
    with a ContractError, or the settings it returns survive echo and reload."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    text = st.one_of(
        st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\r\n"), max_size=12),
        st.sampled_from(["", "true", "no", "3,4", "1e400", "baseline:wfce", "pairwise",
                         "quadruplet", "random", "trainable", "learned", "relu", "x%y", "a ;b"]))
    numbers = {int: st.integers(-3, 300).map(str),
               float: st.one_of(st.floats().map(repr), st.sampled_from(["nan", "inf", "-0.0"]))}
    entry = st.sampled_from(_SCHEMA).flatmap(lambda row: st.tuples(
        st.just(row[:2]), st.one_of(text, numbers.get(row[3], text))))
    accepted = []

    @hypothesis.settings(max_examples=400, deadline=None, database=None)
    @hypothesis.given(st.lists(entry, max_size=3))
    @hypothesis.example([(("data", "source"), "x%%y")])  # a "%" reloads as written
    def check(entries):
        values = {("data", "preset"): "skin7-like", **dict(entries)}
        lines = []
        for section, rows in groupby(sorted(values.items()), key=lambda kv: kv[0][0]):
            lines += [f"[{section}]", *(f"{key} = {v}" for (_, key), v in rows)]
        path = tmp_path / "config.ini"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            settings = load_settings(path)
        except ContractError:
            return
        accepted.append(entries)
        assert load_settings(write(tmp_path, echo_settings(settings), "echo.ini")) == settings

    check()
    assert accepted


@pytest.mark.parametrize("section, key", [row[:2] for row in _SCHEMA if row[3] is float])
@pytest.mark.parametrize("value", ["nan", "-inf", "inf"])
def test_every_float_key_rejects_nan_and_minus_infinity(tmp_path, section, key, value):
    """Every float key rejects each non-finite value when the file loads.  A nan
    would also break the echo fixpoint: it never equals its reload."""
    sections = {"data": "preset = skin7-like\n"}
    sections[section] = sections.get(section, "") + f"{key} = {value}\n"
    path = write(tmp_path, "".join(f"[{name}]\n{body}" for name, body in sections.items()))
    with pytest.raises(ContractError, match=f"^{re.escape(str(path))}: "):
        load_settings(path)
