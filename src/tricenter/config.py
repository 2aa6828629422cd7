"""Run-configuration files: flat INI sections with key=value lines.

``_SCHEMA`` is the one place a key is declared: each row names an INI
``[section] key``, the dotted ``RunSettings`` attribute it sets and the
parser for that attribute's type; every default is the dataclass default.
Each dataclass checks its own fields when it is built, so a loaded config is
valid and a bad value names the file before any training.  Unknown sections
or keys are rejected so typos fail loudly.  The effective configuration
(defaults resolved) is echoed in schema order into every run's output.
"""

from __future__ import annotations

import configparser
import types
from dataclasses import dataclass, fields, is_dataclass
from functools import cache
from itertools import groupby
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import get_args, get_type_hints

from .errors import ContractError
from .losses import LossHyper
from .training import Stage1Config, Stage2Config, TrainConfig


@dataclass
class RunSettings:
    """Everything a CLI run needs: the train config plus data and eval options."""

    train: TrainConfig
    data_source: str | None = None  # csv path
    data_preset: str | None = None
    holdout_fraction: float = 0.2
    small_class_threshold: int = 20
    k_folds: int = 5

    def __post_init__(self):
        if not self.data_source and not self.data_preset:  # an empty value sets neither
            raise ContractError("config needs [data] source=<csv> or preset=<name>")
        if not 0.0 <= self.holdout_fraction < 1.0:
            raise ContractError("holdout_fraction must be in [0, 1)")
        if self.small_class_threshold < 1:
            raise ContractError("small_class_threshold must be >= 1")
        if self.k_folds < 2:
            raise ContractError("k_folds must be >= 2")


_hints = cache(get_type_hints)  # resolved field annotations of a dataclass


def _parse_bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got {text!r}") from None


def _parse_ints(text: str) -> tuple:
    return tuple(int(x) for x in text.split(",") if x.strip())


def _parser(attr: str):
    """The parser of a dotted RunSettings attribute, from its annotated type."""
    kind = RunSettings
    for name in attr.split("."):
        kind = _hints(kind)[name]
    if isinstance(kind, types.UnionType):  # ``X | None`` parses as X
        kind = next(k for k in get_args(kind) if k is not type(None))
    return {bool: _parse_bool, tuple: _parse_ints}.get(kind, kind)


def _rows(section: str, prefix: str, keys) -> list:
    """Rows of keys named like their attributes; a dataclass stands for its fields."""
    if is_dataclass(keys):
        keys = [f.name for f in fields(keys)]
    return [(section, key, prefix + key) for key in keys]


# (section, key, dotted RunSettings attribute, parser), in echo order.
_SCHEMA = tuple((section, key, attr, _parser(attr)) for section, key, attr in [
    *_rows("run", "train.", ["method", "loss_family", "seed"]),
    ("data", "source", "data_source"),
    ("data", "preset", "data_preset"),
    *_rows("data", "", ["holdout_fraction", "small_class_threshold"]),
    *_rows("model", "train.", ["embedding_dim", "hidden"]),
    *_rows("stage1", "train.stage1.", Stage1Config),
    *_rows("stage2", "train.stage2.", Stage2Config),
    *_rows("hyper", "train.hyper.", LossHyper),
    ("optimizer", "lr", "train.lr"),
    ("baseline", "epochs", "train.baseline_epochs"),
    ("baseline", "batch_size", "train.baseline_batch_size"),
    *_rows("eval", "", ["k_folds"]),
])
_KEYS_OF = {section: {key for _, key, _, _ in rows}
            for section, rows in groupby(_SCHEMA, key=itemgetter(0))}


def _read(path) -> configparser.ConfigParser:
    # No interpolation: a "%" is read as written, so every value echoes as it was read.
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except FileNotFoundError:
        raise ContractError(f"config file {path} not found") from None
    except OSError as exc:
        raise ContractError(f"{path}: cannot read config file ({exc.strerror})") from None
    except UnicodeDecodeError:
        raise ContractError(f"{path}: config file is not UTF-8 text") from None
    try:
        parser.read_string(text, source=str(path))
    except configparser.MissingSectionHeaderError as exc:  # its own text spans three lines
        raise ContractError(f"{path}: line {exc.lineno} comes before any [section] header") from None
    except configparser.ParsingError as exc:  # its own text puts each bad line on a line of its own
        lineno = exc.errors[0][0]
        # configparser counts lines at "\n" only; splitlines() also splits at "\x0c", "\x85", ...
        line = text.split("\n")[lineno - 1].strip()
        raise ContractError(
            f"{path}: line {lineno}: {line!r} is not a [section] or key = value line") from None
    except configparser.Error as exc:
        raise ContractError(f"{path}: malformed config: {exc}") from None
    for section in parser.sections():
        if section not in _KEYS_OF:
            raise ContractError(f"{path}: unknown config section [{section}]")
        unknown = set(parser[section]) - _KEYS_OF[section]
        if unknown:
            raise ContractError(
                f"{path}: unknown key(s) {sorted(unknown)} in section [{section}]")
    return parser


def _build(cls, values: dict, prefix: str = ""):
    """``cls`` from the ``values`` under ``prefix``; dataclass fields are built in turn."""
    kwargs = {}
    for name, kind in _hints(cls).items():
        if is_dataclass(kind):
            kwargs[name] = _build(kind, values, f"{prefix}{name}.")
        elif prefix + name in values:
            kwargs[name] = values[prefix + name]
    return cls(**kwargs)


def load_settings(path, data_source: str | None = None) -> RunSettings:
    """The settings of a UTF-8 INI file, with or without a byte-order mark;
    any failure is a ``ContractError`` that names the file.  A ``data_source``
    (the --data flag) overrides ``[data] source`` and may stand in for a
    missing ``[data]`` section."""
    parser = _read(path)
    values = {}
    for section, key, attr, parse in _SCHEMA:
        if not parser.has_option(section, key):
            continue
        text = parser.get(section, key)
        try:
            values[attr] = parse(text)
        except ValueError:
            raise ContractError(f"{path}: [{section}] {key}={text!r} is not a valid value") from None
    if data_source:
        values["data_source"] = data_source
    try:
        return _build(RunSettings, values)
    except ContractError as exc:
        raise ContractError(f"{path}: {exc}") from None


def _render(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (tuple, list)):
        return ",".join(str(v) for v in value)
    return str(value)


def echo_settings(settings: RunSettings) -> str:
    """Render the fully resolved configuration, suitable for re-loading.

    Keys whose value is None (an unset source, preset or override) are left out.
    """
    blocks = []
    for section, rows in groupby(_SCHEMA, key=itemgetter(0)):
        values = [(key, attrgetter(attr)(settings)) for _, key, attr, _ in rows]
        blocks.append("\n".join([f"[{section}]", *(f"{key} = {_render(value)}"
                                                   for key, value in values if value is not None)]))
    return "\n\n".join(blocks) + "\n"
