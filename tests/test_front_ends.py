"""The two front ends of each experiment: kpi-lab subcommands and config sections.

Both read their keys from the tables in ``kpilab.experiments``. These tests
check that unknown or malformed input is rejected with its line, that the
same keys give the same bytes through either front end, and that README's
examples and key lists still match the tables and its module names resolve.
"""

import importlib
import json
import pkgutil
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kpilab as kl
from kpilab.cli import build_parser, main
from kpilab.errors import ConfigError
from kpilab.experiments import (
    ENGINES,
    REQUIRED,
    RUN_KEYS,
    ConfigEntry,
    profile_keys,
    profile_kind,
    random_field,
    read_config,
    read_section,
    seed,
    seeded_rng,
)
from kpilab.storage import write_field

README = Path(__file__).resolve().parents[1] / "README.md"


def _run(tmp_path, text):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text)
    return main(["--out", str(tmp_path / "out"), "run", str(cfg)])


# ---------------------------------------------------------------------------
# Strict input
# ---------------------------------------------------------------------------


def test_config_key_typo_names_its_line(tmp_path, capsys):
    text = "[floor]\ntype = gramian-floor\nk_windw = 4\n"
    with pytest.raises(ConfigError, match="'k_windw'") as info:
        read_config(text)
    assert info.value.line == 3
    assert _run(tmp_path, text) == 2
    assert capsys.readouterr().err.startswith("config error: line 3:")
    # every section is checked before anything runs or is written
    assert not (tmp_path / "out").exists()


def test_hum_steer_typo_is_not_ignored():
    text = "[s]\ntype = hum-steer\nnx = 32\nny = 8\nverify_step = 200\n"
    with pytest.raises(ConfigError, match="'verify_step'") as info:
        read_config(text)
    assert info.value.line == 5


def test_run_section_typo_names_its_line():
    with pytest.raises(ConfigError, match="'sed'") as info:
        read_config("[run]\nsed = 3\n")
    assert info.value.line == 2


def test_unknown_profile_in_config_exits_2_with_its_line(tmp_path, capsys):
    assert _run(tmp_path, "[s]\ntype = spectral-constant\nm_max = 2\nprofile = bogus\n") == 2
    assert capsys.readouterr().err.startswith("config error: line 4:")


@pytest.mark.parametrize(
    "argv",
    [
        ["spectral-constant", "--m-max", "2", "--format", "json"],
        ["--format", "json", "spectral-constant", "--m-max", "2"],
        ["spectral-constant", "--m-max", "2", "--seed", "9"],
        ["observe", "--input", "{field}", "--seed", "1"],
        ["--seed", "1", "observe", "--input", "{field}"],
        ["observe", "--input", "{field}", "--profile-nx", "32"],
        ["control", "--initial", "{field}", "--profile-nx", "32"],
    ],
)
def test_a_flag_that_would_change_nothing_is_a_usage_error(tmp_path, capsys, argv):
    # --seed and --format belong to the commands that read them; observe and control take
    # the profile on the field's own axis
    field = tmp_path / "u0.bin"
    write_field(random_field(kl.TorusGrid(32, 8), seeded_rng(1, "axis"), kmax=6, lmax=2), field)
    argv = [arg.format(field=field) for arg in argv]
    with pytest.raises(SystemExit) as info:
        main(["--out", str(tmp_path / "cli")] + argv)
    assert info.value.code == 2
    assert capsys.readouterr().err.startswith("usage: kpi-lab")
    assert not (tmp_path / "cli").exists()


def test_hum_steer_profile_nx_is_a_config_error(tmp_path, capsys):
    text = "[s]\ntype = hum-steer\nnx = 32\nny = 8\nkmax = 6\nlmax = 2\nprofile_nx = 32\n"
    with pytest.raises(ConfigError, match="'profile_nx'") as info:
        read_config(text)
    assert info.value.line == 7
    assert _run(tmp_path, text) == 2
    assert capsys.readouterr().err.startswith("config error: line 7:")
    assert not (tmp_path / "out").exists()


def test_dichotomy_subcommand_needs_alpha(capsys):
    with pytest.raises(SystemExit) as info:
        main(["dichotomy"])
    assert info.value.code == 2
    assert "--alpha" in capsys.readouterr().err


def test_one_row_dichotomy_is_rejected_before_writing(tmp_path, capsys):
    out = tmp_path / "cli"
    code = main(["--out", str(out), "dichotomy", "--alpha", "0.5", "--n-min", "4", "--n-max", "4"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (out / "dichotomy.csv").exists()
    assert _run(tmp_path, "[d]\ntype = dichotomy\nalpha = 0.5\nn_min = 4\nn_max = 4\n") == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "out" / "d.csv").exists()


TABLES = {"run": RUN_KEYS, **{etype: keys for etype, (_, keys) in ENGINES.items()}}
GOOD = {
    int: st.integers(-(10**6), 10**6).map(str),
    float: st.floats(allow_nan=False).map(repr),
    profile_kind: st.sampled_from(["smooth-exp", "hann-squared"]),
    seed: st.integers(0, 10**6).map(str),
    str: st.text("abcxyz./-_019", max_size=8),
}
BAD = {
    int: st.sampled_from(["fish", "1.5", "", "1e3", "0x10"]),
    float: st.sampled_from(["fish", "", "1,5", "--1", "pi"]),
    profile_kind: st.sampled_from(["bogus", "", "smooth", "Smooth-Exp"]),
    seed: st.sampled_from(["-1", "-5", "fish", "1.5", ""]),
}


@st.composite
def sections(draw):
    """A section of some table's type: known and unknown keys, good and bad values."""
    name = draw(st.sampled_from(sorted(TABLES)))
    keys = TABLES[name]
    known = draw(st.lists(st.sampled_from(sorted(keys)), unique=True))
    unknown = draw(
        st.lists(
            st.text("abkmnxz_", min_size=1, max_size=6).filter(lambda k: k not in keys),
            unique=True,
            max_size=2,
        )
    )
    entries, offending, line = {}, [], 0
    for key in draw(st.permutations(known + unknown)):
        line += draw(st.integers(1, 3))
        convert = keys[key][0] if key in keys else None
        bad = convert is None or (convert in BAD and draw(st.booleans()))
        value = draw(GOOD[convert]) if not bad else draw(BAD.get(convert, st.just("1")))
        entries[key] = ConfigEntry(value, line)
        if bad:
            offending.append(line)
    return name, keys, entries, offending


@settings(max_examples=300, deadline=None)
@given(sections())
def test_read_section_fuzz(case):
    name, keys, entries, offending = case
    missing = [k for k, (_, d) in keys.items() if d is REQUIRED and k not in entries]
    try:
        values = read_section(name, entries, keys)
    except ConfigError as exc:
        if offending:
            assert exc.line == offending[0]
        else:
            assert missing
            assert exc.line == min((e.line for e in entries.values()), default=None)
        return
    assert not offending and not missing
    for key, (convert, default) in keys.items():
        assert values[key] == (convert(entries[key].value) if key in entries else default)


# ---------------------------------------------------------------------------
# The options each front end accepts
# ---------------------------------------------------------------------------

PROFILE = {"profile", "support_a", "support_b"}
# every key of every config type; the subcommand twins take them as flags
KEYS = {
    "run": {"seed", "output"},
    "dichotomy": {"alpha", "n_min", "n_max", "horizon", "beta", "cutoff_big", "cutoff_small"},
    "frequency-scan": {"h", "n_min", "n_max", "epsilon0", "horizon", "trials", "alpha"}
    | PROFILE | {"profile_nx"},
    "weak-observability": {"h", "horizon", "trials", "alpha"} | PROFILE | {"profile_nx"},
    "gramian-floor": {"horizon", "alpha", "k_window", "l_window"} | PROFILE | {"profile_nx"},
    "spectral-constant": {"m_max"} | PROFILE | {"profile_nx"},
    # the profile lives on the field's axis
    "hum-steer": {"nx", "ny", "kmax", "lmax", "horizon", "alpha", "tol", "max_iter", "verify_steps"}
    | PROFILE,
}


def _flags(keys):
    return {"--" + key.replace("_", "-") for key in keys}


# every flag of the parser ("") and of each subcommand; --out is a path setting of every one
FLAGS = {
    "": {"--out"},
    "run": {"--out", "--seed"},
    "dispersion": {"--out", "--alpha", "--lam", "--xi-min", "--xi-max", "--count"},
    "evolve": {"--out", "--input", "--times", "--alpha", "--lam", "--format"},
    "observe": {"--out", "--input", "--horizon", "--alpha", "--lam", "--control", "--method"}
    | _flags(PROFILE),
    "gramian": {"--out"} | _flags(KEYS["gramian-floor"]),
    "control": {"--out", "--initial", "--target"}
    | _flags(KEYS["hum-steer"] - {"nx", "ny", "kmax", "lmax"}),
    "dichotomy": {"--out"} | _flags(KEYS["dichotomy"]),
    "spectral-constant": {"--out"} | _flags(KEYS["spectral-constant"]),
    "random-field": {"--out", "--nx", "--ny", "--kmax", "--lmax", "--seed"},
}


def _options(parser) -> set[str]:
    """The long flag of each optional argument of ``parser``, help aside."""
    return {
        action.option_strings[-1]
        for action in parser._actions
        if action.option_strings and action.dest != "help"
    }


def test_option_inventory_is_frozen():
    # a new flag or key is a deliberate edit of FLAGS or KEYS; before --seed and --format
    # moved to the commands that read them and profile_nx left observe, control and
    # hum-steer, the parser held 84 option slots and the config types 54 keys
    parser = build_parser()
    (commands,) = [a.choices for a in parser._actions if isinstance(a.choices, dict)]
    found = {"": _options(parser), **{name: _options(sub) for name, sub in commands.items()}}
    assert found == FLAGS
    assert {name: set(keys) for name, keys in TABLES.items()} == KEYS
    slots = sum(map(len, found.values()))
    keys = sum(map(len, KEYS.values()))
    print(f"option slots: 84 -> {slots}; config keys: 54 -> {keys}")
    assert (slots, keys) == (65, 53)


# ---------------------------------------------------------------------------
# The same keys give the same bytes through either front end
# ---------------------------------------------------------------------------


def test_spectral_constant_front_ends_agree(tmp_path):
    argv = ["spectral-constant", "--m-max", "4", "--profile-nx", "256"]
    assert main(["--out", str(tmp_path / "cli")] + argv) == 0
    assert _run(tmp_path, "[spec]\ntype = spectral-constant\nm_max = 4\nprofile_nx = 256\n") == 0
    cli = (tmp_path / "cli" / "spectral_constant.csv").read_bytes()
    assert cli == (tmp_path / "out" / "spec.csv").read_bytes()


def test_dichotomy_front_ends_agree(tmp_path):
    argv = ["dichotomy", "--alpha", "0.5", "--n-min", "4", "--n-max", "5"]
    assert main(["--out", str(tmp_path / "cli")] + argv) == 0
    assert _run(tmp_path, "[d]\ntype = dichotomy\nalpha = 0.5\nn_min = 4\nn_max = 5\n") == 0
    cli = (tmp_path / "cli" / "dichotomy.csv").read_bytes()
    assert cli == (tmp_path / "out" / "d.csv").read_bytes()
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())["d"]
    assert summary.pop("horizon") == 1.0
    assert json.loads((tmp_path / "cli" / "dichotomy.json").read_text()) == summary


def test_gramian_front_ends_agree(tmp_path, capsys):
    argv = ["gramian", "--k-window", "4", "--l-window", "1", "--profile-nx", "256"]
    assert main(["--out", str(tmp_path / "cli")] + argv) == 0
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    text = "[floor]\ntype = gramian-floor\nk_window = 4\nl_window = 1\nprofile_nx = 256\n"
    assert _run(tmp_path, text) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())["floor"]
    assert printed["lambda_min"] == summary["lambda_min"]
    assert printed["constant"] == summary["observability_constant"]


# ---------------------------------------------------------------------------
# README stays in step with the tables
# ---------------------------------------------------------------------------


def _fenced_blocks(lang: str | None = None) -> list[str]:
    return [
        body
        for tag, body in re.findall(r"```(\w*)\n(.*?)```", README.read_text(), re.S)
        if lang is None or tag == lang
    ]


def test_readme_examples_parse():
    configs = _fenced_blocks("ini")
    assert configs
    for text in configs:
        read_config(text)
    parser = build_parser()
    commands = [
        shlex.split(line, comments=True)
        for block in _fenced_blocks()
        for line in block.splitlines()
        if line.startswith("kpi-lab ")
    ]
    assert len(commands) >= 9
    for argv in commands:
        parser.parse_args(argv[1:])


def _documented(text: str) -> dict[str, str | None]:
    """First ``key = value`` or bare ``key`` span of each key in README text."""
    found = {}
    for key, value in re.findall(r"`(\w+)(?: = ([^`]+))?`", text):
        found.setdefault(key, value)
    return found


def test_readme_lists_every_key_with_its_default():
    text = README.read_text()
    profile_line = re.search(r"The profile keys are (.*?)\n\n", text, re.S).group(1)
    pi = {"pi/4": np.pi / 4, "3pi/4": 3 * np.pi / 4}
    lines = dict(re.findall(r"^- `([^`]+)`: (.*)$", text, re.M))
    for name, keys in TABLES.items():
        line = lines["[run]" if name == "run" else name]
        documented = _documented(line)
        if "the profile keys" in line:
            documented = {**_documented(profile_line), **documented}
        assert set(documented) == set(keys), name
        for key, (convert, default) in keys.items():
            value = documented[key]
            if default is REQUIRED:
                assert f"`{key}` (required)" in line, (name, key)
            elif default is None:
                assert not value, (name, key)
            else:
                assert (pi[value] if value in pi else convert(value)) == default, (name, key)
    assert set(profile_keys(None)) == set(_documented(profile_line))


def test_readme_names_only_what_the_modules_define():
    # every backticked `<module>.<name>` of a kpilab module, called or not; `observe.py` is a file
    modules = {m.name for m in pkgutil.iter_modules(kl.__path__)}
    names = [
        (module, name)
        for module, name in re.findall(r"`(\w+)\.(\w+)[`(]", README.read_text())
        if module in modules and name != "py"
    ]
    assert names
    for module, name in names:
        assert hasattr(importlib.import_module(f"kpilab.{module}"), name), f"{module}.{name}"
