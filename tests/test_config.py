import pytest

from tricenter.config import echo_settings, load_settings
from tricenter.errors import ContractError

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
lambda_ce = 0.25

[stage2]
epochs = 4
batch_size = 8
center_mode = trainable
center_init = random
alpha = 0.7
lr = 0.001
refresh_each_epoch = no
freeze_layers = 1
final_centers = recomputed

[hyper]
alpha = 0.6
beta = 0.3
p_norm = 3

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


@pytest.mark.parametrize("text", ["[data]\npreset = skin7-like\n", NON_DEFAULT],
                         ids=["default", "non_default"])
def test_echo_load_echo_is_a_fixpoint(tmp_path, text):
    settings = load_settings(write(tmp_path, text))
    echo = echo_settings(settings)
    reloaded = load_settings(write(tmp_path, echo, "echo.ini"))
    assert reloaded == settings
    assert echo_settings(reloaded) == echo


def test_non_default_config_is_read_as_written(tmp_path):
    settings = load_settings(write(tmp_path, NON_DEFAULT))
    t = settings.train
    assert (t.stage2.alpha, t.stage2.lr, t.baseline_epochs) == (0.7, 0.001, 7)
    assert settings.holdout_fraction == 0.0 and t.hyper.p_norm == 3 and t.hidden == (32,)
    assert t.centered is False and t.stage2.refresh_each_epoch is False


@pytest.mark.parametrize("text, message", [
    ("[data]\npreset = skin7-like\n[stage3]\nepochs = 1\n", r"unknown config section \[stage3\]"),
    ("[data]\npreset = skin7-like\n[stage1]\nepoch = 1\n", r"unknown key\(s\) \['epoch'\]"),
], ids=["section", "key"])
def test_unknown_sections_and_keys_are_rejected(tmp_path, text, message):
    with pytest.raises(ContractError, match=message):
        load_settings(write(tmp_path, text))


@pytest.mark.parametrize("section, key, value", [
    ("run", "centered", "maybe"),
    ("stage2", "refresh_each_epoch", "2"),
    ("run", "seed", "three"),
    ("stage1", "epochs", "2.5"),
    ("hyper", "alpha", "wide"),
    ("optimizer", "lr", "1e-4x"),
], ids=["bool", "bool_digit", "int", "int_float", "float", "float_suffix"])
def test_bad_values_raise_contract_error(tmp_path, section, key, value):
    text = f"[data]\npreset = skin7-like\n[{section}]\n{key} = {value}\n"
    with pytest.raises(ContractError):
        load_settings(write(tmp_path, text))
