"""Tests for the flat `key = value` configuration parser."""

import dataclasses

import pytest

from graspfield.config import Config, config_from_pairs, load_config, parse_pairs
from graspfield.errors import ConfigError


def test_defaults_match_pipeline_settings():
    cfg = Config()
    assert cfg.finger_length == 0.06
    assert cfg.finger_thickness == 0.01
    assert cfg.finger_height == 0.02
    assert cfg.max_opening == 0.08
    assert cfg.base_depth == 0.02
    assert cfg.mu == 0.6
    assert cfg.distance_threshold == 0.02
    assert cfg.confidence_threshold == 0.6
    assert cfg.region_count == 64
    assert cfg.region_size == 256
    assert cfg.anchor_count == 8
    assert cfg.region_radius is None
    assert cfg.subsample_size == 20000
    assert cfg.min_closing_points == 50


def test_gripper_built_from_fields():
    cfg = Config(finger_length=0.05, max_opening=0.06)
    g = cfg.gripper()
    assert g.finger_length == 0.05
    assert g.max_opening == 0.06
    assert g.finger_thickness == cfg.finger_thickness


def test_region_radius_defaults_to_gripper():
    cfg = Config()
    # half the overall gripper width (max_opening + both fingers)
    assert cfg.resolved_region_radius() == pytest.approx(0.05)
    assert Config(region_radius=0.03).resolved_region_radius() == 0.03


def test_lines_echo_every_field():
    cfg = Config()
    lines = cfg.lines()
    assert len(lines) == len(dataclasses.fields(Config))
    assert all(" = " in ln for ln in lines)
    keys = [ln.split(" = ")[0] for ln in lines]
    assert keys == [f.name for f in dataclasses.fields(Config)]
    # the unset radius echoes its resolved value, not None
    radius = next(ln for ln in lines if ln.startswith("region_radius"))
    assert "None" not in radius


def test_digest_tracks_values():
    a, b = Config(), Config()
    assert a.digest() == b.digest()
    assert len(a.digest()) == 64
    assert Config(mu=0.7).digest() != a.digest()


def test_parse_pairs_basics():
    text = "\n".join(
        [
            "# full comment",
            "",
            "mu = 0.7",
            "region_count = 32  # trailing comment",
            "mu = 0.8",
        ]
    )
    pairs = parse_pairs(text)
    assert pairs == {"mu": "0.8", "region_count": "32"}


def test_parse_pairs_reports_line_numbers():
    with pytest.raises(ConfigError, match=r"settings.cfg:3: expected 'key = value'"):
        parse_pairs("mu = 0.7\n\nnot a pair\n", source="settings.cfg")


def test_parse_pairs_rejects_empty_key_or_value():
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_pairs("mu =\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_pairs("= 0.7\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key 'frobnicate'"):
        config_from_pairs({"frobnicate": "1"})


def test_unparseable_value_rejected():
    with pytest.raises(ConfigError, match="key 'mu': cannot parse 'sticky' as float"):
        config_from_pairs({"mu": "sticky"})
    with pytest.raises(ConfigError, match="cannot parse '6.5' as int"):
        config_from_pairs({"region_count": "6.5"})


def test_out_of_range_names_key_and_range():
    with pytest.raises(ConfigError, match=r"key 'mu': value -1.0 out of range \(valid: > 0\)"):
        config_from_pairs({"mu": "-1"})
    with pytest.raises(ConfigError, match=r"out of range \(valid: >= 1\)"):
        config_from_pairs({"region_count": "0"})
    with pytest.raises(ConfigError, match=r"out of range \(valid: 6 or 8\)"):
        config_from_pairs({"anchor_count": "7"})


def test_negative_weights_rejected():
    with pytest.raises(ConfigError, match="proposal_weight_center"):
        config_from_pairs({"proposal_weight_center": "-2"})


def test_overlay_applies_types():
    cfg = config_from_pairs({"mu": "0.9", "region_size": "128", "anchor_count": "6"})
    assert cfg.mu == 0.9
    assert cfg.region_size == 128
    assert cfg.anchor_count == 6
    # untouched keys keep their defaults
    assert cfg.distance_threshold == 0.02


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="config file not found"):
        load_config(tmp_path / "nope.cfg")


def test_load_config_empty_file_is_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("# nothing here\n")
    assert load_config(path) == Config()


def test_load_config_round_trip(tmp_path):
    cfg = Config(mu=0.45, region_count=16, subsample_size=5000)
    path = tmp_path / "pipeline.cfg"
    path.write_text("\n".join(cfg.lines()) + "\n")
    back = load_config(path)
    assert back.mu == cfg.mu
    assert back.region_count == cfg.region_count
    assert back.subsample_size == cfg.subsample_size
    assert back.digest() == cfg.digest()


def test_load_config_error_names_file(tmp_path):
    path = tmp_path / "broken.cfg"
    path.write_text("mu 0.7\n")
    with pytest.raises(ConfigError, match="broken.cfg:1"):
        load_config(path)


def test_load_config_layers_files_then_overrides(tmp_path):
    base = tmp_path / "base.cfg"
    base.write_text("mu = 0.3\nregion_count = 4\nmax_opening = 0.05\n")
    grip = tmp_path / "grip.cfg"
    grip.write_text("max_opening = 0.07\n")
    cfg = load_config(base, None, grip, overrides={"mu": 0.9, "region_count": None, "anchor_count": 6})
    assert (cfg.mu, cfg.region_count, cfg.max_opening, cfg.anchor_count) == (0.9, 4, 0.07, 6)
    assert load_config() == Config()


@pytest.mark.parametrize(
    "key, value",
    [
        ("mu", float("nan")),
        ("mu", float("inf")),
        ("distance_threshold", float("inf")),
        ("confidence_threshold", -1.0),
        ("confidence_threshold", float("inf")),
        ("anchor_count", 7),
        ("frobnicate", 1),
    ],
)
def test_load_config_overrides_pass_the_schema(key, value):
    with pytest.raises(ConfigError, match=f"key '{key}'"):
        load_config(overrides={key: value})


def test_load_config_override_floats_round_trip():
    mu = 0.1 + 0.2  # a float whose shortest repr needs 17 digits
    assert load_config(overrides={"mu": mu}).mu == mu
