import re
from pathlib import Path

import pytest

import fdjam.config
from fdjam import ValidationError, dbm_to_watts
from fdjam.cli import main
from fdjam.config import load_config, resolved_dict, sweep_values

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_INI = ROOT / "configs" / "default.ini"

FULL = """\
[system]
alpha = 4.0
d_ab_m = 10.0
lambda_e_per_m2 = 1e-4
epsilon = 0.1
sigma_b2_dbm = -90
sigma_e2_w = 2e-12
rho_db = -70
p_a_max_dbm = 10
p_b_max_w = 0.5

[grid]
mu_b_min_db = -95
mu_b_max_db = -55
mu_b_steps = 40
p_b_floor_dbm = -5

[sim]
r_cut_m = 1500

[sweep]
variable = lambda_e
min = 1e-6
max = 1e-4
steps = 5
scale = log
"""


def _write(tmp_path, text):
    path = tmp_path / "cfg.ini"
    path.write_text(text)
    return str(path)


def test_full_config_units_resolved(tmp_path):
    cfg = load_config(_write(tmp_path, FULL))
    s = cfg.system
    assert s.alpha == 4.0 and s.d_ab == 10.0
    assert s.sigma_b2 == pytest.approx(1e-12, rel=1e-12)
    assert s.sigma_e2 == 2e-12
    assert s.rho == pytest.approx(1e-7, rel=1e-12)
    assert s.p_a_max == pytest.approx(dbm_to_watts(10.0), rel=1e-12)
    assert s.p_b_max == 0.5
    assert cfg.grid.mu_b_min == pytest.approx(10 ** -9.5, rel=1e-12)
    assert cfg.grid.mu_b_steps == 40
    assert cfg.grid.p_b_floor == pytest.approx(dbm_to_watts(-5.0), rel=1e-12)
    assert cfg.r_cut == 1500.0
    assert cfg.sweep.variable == "lambda_e"
    values = sweep_values(cfg.sweep)
    assert values[0] == pytest.approx(1e-6) and values[-1] == pytest.approx(1e-4)
    header = resolved_dict(cfg)
    assert header["rho_db"] == pytest.approx(-70.0)
    assert header["sim_r_cut_m"] == 1500.0


def test_both_unit_spellings_rejected(tmp_path):
    text = FULL.replace("sigma_e2_w = 2e-12",
                        "sigma_e2_w = 2e-12\nsigma_e2_dbm = -90")
    with pytest.raises(ValidationError, match="sigma_e2"):
        load_config(_write(tmp_path, text))


def test_missing_field_named(tmp_path):
    text = FULL.replace("epsilon = 0.1\n", "")
    with pytest.raises(ValidationError, match="epsilon"):
        load_config(_write(tmp_path, text))


def test_non_numeric_value_named(tmp_path):
    text = FULL.replace("alpha = 4.0", "alpha = four")
    with pytest.raises(ValidationError, match="alpha"):
        load_config(_write(tmp_path, text))


def test_sweep_scale_rules(tmp_path):
    text = FULL.replace("variable = lambda_e", "variable = d_ab") \
               .replace("scale = log", "scale = dB")
    with pytest.raises(ValidationError, match="d_ab"):
        load_config(_write(tmp_path, text))
    text = FULL.replace("steps = 5", "steps = 1")
    with pytest.raises(ValidationError, match="steps"):
        load_config(_write(tmp_path, text))


def test_db_scale_converts_power_fields(tmp_path):
    text = FULL.replace("""variable = lambda_e
min = 1e-6
max = 1e-4
steps = 5
scale = log""", """variable = p_b_max
min = -10
max = 20
steps = 4
scale = dB""")
    cfg = load_config(_write(tmp_path, text))
    values = sweep_values(cfg.sweep)
    assert values[0] == pytest.approx(dbm_to_watts(-10.0), rel=1e-12)
    assert values[-1] == pytest.approx(dbm_to_watts(20.0), rel=1e-12)


SWEEP_BLOCK = """
[sweep]
variable = p_a_max
min = -10
max = 20
steps = 7
scale = dB
"""


@pytest.mark.parametrize("old, new, named", [
    ("alpha = 4.0", "alpha = 4%", "[system] alpha"),
    ("sigma_b2_dbm = -90", "sigma_b2_dbm = inf", "[system] sigma_b2_dbm"),
    ("p_a_max_dbm = 10", "p_a_max_dbm = 4000", "[system] p_a_max_dbm"),
    ("mu_b_steps = 60", "mu_b_steps = nan", "[grid] mu_b_steps"),
    ("mu_b_steps = 60", "mu_b_steps = 2.7", "[grid] mu_b_steps"),
    ("mu_b_max_db = -50", "mu_b_max = inf", "[grid] mu_b_max"),
    ("p_b_floor_dbm = -10", "p_b_floor_w = nan", "[grid] p_b_floor_w"),
    ("p_b_floor_dbm = -10", "p_b_floor_dbm = -10\np_b_steps = 60",
     "[grid] unknown keys: ['p_b_steps']"),
    ("r_cut_m = 2000", "r_cut_m = nan", "[sim] r_cut_m"),
    ("steps = 7", "steps = nan", "[sweep] steps"),
    ("rho_db = -70", "rho_db = -70\nrho = 0", "[system] give rho"),
    ("mu_b_steps = 60", "mu_b_steps = 0", "mu_b_steps must be >= 1: 0"),
    ("r_cut_m = 2000", "r_cut_m = 0", "[sim] r_cut_m must be > 0: 0.0"),
    ("r_cut_m = 2000", "r_cut_m = -5", "[sim] r_cut_m must be > 0: -5.0"),
    ("variable = p_a_max", "variable = r_cut",
     "sweep variable 'r_cut' is not a [system] field, mu_b or p_b"),
    ("variable = p_a_max\n", "", "[sweep] missing required key variable"),
    ("max = 20", "max = -10", "sweep requires min < max, got [-10.0, -10.0]"),
    ("scale = dB", "scale = octave", "sweep scale 'octave' not in linear/log/dB"),
    ("scale = dB", "scale = log", "log sweep requires min > 0: -10.0"),
])
def test_bad_value_exits_1_naming_its_key(tmp_path, capsys, old, new, named):
    text = DEFAULT_INI.read_text(encoding="utf-8") + SWEEP_BLOCK
    assert text.count(old) == 1
    assert main(["optimize", "--config", _write(tmp_path, text.replace(old, new))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("fdjam: validation error: ") and err.count("\n") == 1
    assert named in err


@pytest.mark.parametrize("text, message", [
    ("[sim]\nr_cut_m = 600\n", "config missing required [system] section"),
    (None, "cannot read config "),
], ids=["no_system_section", "unreadable"])
def test_config_without_a_scenario_exits_1(tmp_path, capsys, text, message):
    # an unreadable path is a directory: open() fails with an OSError
    path = str(tmp_path) if text is None else _write(tmp_path, text)
    with pytest.raises(ValidationError, match=re.escape(message)):
        load_config(path)
    assert main(["optimize", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"fdjam: validation error: {message}")
    assert err.count("\n") == 1


def test_unknown_fix_key_is_an_unknown_sweep_key(tmp_path, capsys):
    # a sweep reads every setting but the swept one from its own section,
    # as the artifact header records it: there are no fix_ overrides
    message = "[sweep] unknown keys: ['fix_epsilon']"
    path = _write(tmp_path, FULL + "fix_epsilon = 0.05\n")
    with pytest.raises(ValidationError, match=re.escape(message)):
        load_config(path)
    assert main(["sweep", "--config", path]) == 1
    assert capsys.readouterr().err == f"fdjam: validation error: {message}\n"


def test_unknown_section_exits_1_naming_it(tmp_path, capsys):
    # a misspelt [sim] must not run at the default r_cut
    path = _write(tmp_path, FULL.replace("[sim]", "[simulation]"))
    message = ("config has unknown section [simulation]; the sections are "
               "[system], [grid], [sim], [sweep]")
    with pytest.raises(ValidationError, match=re.escape(message)):
        load_config(path)
    assert main(["optimize", "--config", path]) == 1
    assert capsys.readouterr().err == f"fdjam: validation error: {message}\n"


def test_report_header_keys_and_order():
    # artifact bytes depend on this order: it is the table order
    assert list(resolved_dict(load_config(str(DEFAULT_INI)))) == [
        "alpha", "d_ab_m", "lambda_e_per_m2", "epsilon",
        "sigma_b2_w", "sigma_b2_dbm", "sigma_e2_w", "sigma_e2_dbm",
        "rho", "rho_db", "p_a_max_w", "p_a_max_dbm", "p_b_max_w", "p_b_max_dbm",
        "grid_mu_b_min", "grid_mu_b_max", "grid_mu_b_steps", "grid_p_b_floor_w",
        "sim_r_cut_m"]


def _accepted_keys():
    """(section, key) pairs the reader accepts, and the primary spellings."""
    accepted, primary = {("sweep", "variable"), ("sweep", "scale")}, set()
    for section, stem, unit in fdjam.config._FIELDS.values():
        if section is not None:
            keys = fdjam.config._spellings(stem, unit)
            accepted |= {(section, k) for k in keys}
            primary.add((section, keys[0]))
    return accepted, primary


def _readme_schema_keys():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    schema = text.split("## Configuration schema", 1)[1].split("\n## ", 1)[0]
    keys, section = set(), None
    for row in re.findall(r"^\|(.*)\|$", schema, flags=re.M)[2:]:
        cells = row.split("|")
        section = (re.findall(r"`\[(\w+)\]`", cells[0]) or [section])[0]
        keys |= {(section, k) for k in re.findall(r"`([^`]+)`", cells[1])}
    return keys


def _docstring_schema_keys():
    keys, section = set(), None
    for line in fdjam.config.__doc__.splitlines():
        head = re.match(r"\s+\[(\w+)\]", line)
        if head:
            section = head.group(1)
        elif section and re.match(r"\s+\w+\s+=", line):
            keys.add((section, line.split()[0]))
            keys |= {(section, k) for k in re.findall(r"; or (\w+)", line)}
    return keys


@pytest.mark.parametrize("listed", [_readme_schema_keys, _docstring_schema_keys],
                         ids=["readme", "docstring"])
def test_schema_docs_match_the_reader(listed):
    accepted, primary = _accepted_keys()
    keys = listed()
    assert sorted(primary - keys) == []
    assert sorted(keys - accepted) == []
