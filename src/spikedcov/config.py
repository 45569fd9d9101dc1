"""Experiment configuration files.

One INI-style file per experiment with two sections::

    [model]
    n = 1000
    N = 500
    M = 3
    spikes = 1*n^0.9, 0.5*n^0.9, 0.25*n^0.9   ; growth rules or literals
    law = gaussian                             ; gaussian | uniform | twopoint:<p>
    basis = identity                           ; identity | random_orthogonal:<seed>
    gamma_bound = 10

    [experiment]
    statistic = clt_oracle                     ; clt_* under clt, eigvec_* under eigvec
    nu = 1
    replicates = 400
    master_seed = 20260810
    x_mode = zero                              ; root | iter:<k0> | zero | auto (= absent)
    empirical = false
    eps0 = 0.1

Command-line flags override file values; precedence is flag > file > default.
A key left blank (``master_seed =``) counts as absent and takes its default.
``x_mode = auto`` is the certified root, else zero and an x_not_certified flag.
The statistic must belong to the command that runs it (clt_mixed,
clt_statistical, clt_oracle; eigvec_A/B/C1/C2; consistency), or the
command stops with a config error.
"""

from __future__ import annotations

import configparser

from .errors import ConfigInvalid
from .model import EntryLaw, SpikedModelSpec, random_orthogonal
from .montecarlo import ExperimentConfig


def parse_law(text: str) -> EntryLaw:
    text = text.strip().lower()
    if text == "gaussian":
        return EntryLaw.gaussian()
    if text in ("uniform", "uniformscaled", "uniform_scaled"):
        return EntryLaw.uniform_scaled()
    if text.startswith("twopoint"):
        _, _, p = text.partition(":")
        if not p:
            raise ConfigInvalid("twopoint law needs a parameter, e.g. twopoint:0.3")
        try:
            prob = float(p)
        except ValueError:
            raise ConfigInvalid(f"twopoint law parameter {p!r} is not a number") from None
        return EntryLaw.two_point(prob)
    raise ConfigInvalid(f"unknown law {text!r}")


def load_config(path) -> configparser.ConfigParser:
    # no interpolation: "%" is an ordinary character in every value
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    parser.optionxform = str  # n and N are distinct keys
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigInvalid(f"cannot parse config file {path}: {' '.join(str(exc).split())}") from None
    if not read:
        raise ConfigInvalid(f"cannot read config file {path}")
    if "model" not in parser:
        raise ConfigInvalid(f"config {path} lacks a [model] section")
    return parser


def build_spec(parser: configparser.ConfigParser) -> SpikedModelSpec:
    sec = parser["model"]
    try:
        n = sec.getint("n")
        N = sec.getint("N")
        M = sec.getint("M")
        spikes = [s.strip() for s in sec.get("spikes").split(",") if s.strip()]
        law = parse_law(sec.get("law", "gaussian"))
        gamma_bound = sec.getfloat("gamma_bound", 10.0)
        basis_text = sec.get("basis", "identity").strip().lower()
    except (ValueError, TypeError, AttributeError) as exc:
        raise ConfigInvalid(f"bad [model] section: {exc}") from exc
    if n is None or N is None or M is None:
        raise ConfigInvalid("[model] needs n, N and M")
    basis = None
    if basis_text not in ("identity", ""):
        if basis_text.startswith("random_orthogonal"):
            _, _, s = basis_text.partition(":")
            try:
                seed = int(s) if s else 0
            except ValueError:
                raise ConfigInvalid(f"basis seed {s!r} is not an integer") from None
            basis = random_orthogonal(N, seed)
        else:
            raise ConfigInvalid(f"unknown basis {basis_text!r}")
    return SpikedModelSpec(
        n=n, N=N, M=M, spikes=spikes, law=law, basis=basis, gamma_bound=gamma_bound
    )


def experiment_value(parser: configparser.ConfigParser, key: str, cast, default):
    """``[experiment] key`` read by ``cast``; ``default`` when the key is absent or blank."""
    sec = parser["experiment"] if "experiment" in parser else {}
    raw = sec.get(key, "")
    if not raw:
        return default
    if cast is bool:
        states = configparser.ConfigParser.BOOLEAN_STATES
        if raw.lower() not in states:
            raise ConfigInvalid(f"[experiment] {key} = {raw!r} is not one of {', '.join(states)}")
        return states[raw.lower()]
    try:
        return cast(raw)
    except ValueError:
        raise ConfigInvalid(f"[experiment] {key} = {raw!r} is not a valid {cast.__name__}") from None


def build_experiment(parser: configparser.ConfigParser, **overrides) -> ExperimentConfig:
    spec = build_spec(parser)

    def pick(key, default, cast):
        if overrides.get(key) is not None:
            return overrides[key]
        return experiment_value(parser, key, cast, default)

    return ExperimentConfig(
        spec=spec,
        nu=pick("nu", 1, int),
        replicates=pick("replicates", 1, int),
        master_seed=pick("master_seed", 0, int),
        statistic=pick("statistic", "clt_oracle", str),
        x_mode=pick("x_mode", "auto", str),
        empirical=pick("empirical", False, bool),
        eps0=pick("eps0", 0.1, float),
        workers=overrides.get("workers"),
    )
