import argparse

import pytest

from hera.errors import UsageError
from hera.workspace import ENV_VAR, Settings, load_workspace, parse_config_text


def args(**kw):
    return argparse.Namespace(**kw)


def test_parse_key_value_lines():
    text = "interval = 30\nhera_dir=flows\n\n# a comment\n  benign_label = ok \n"
    assert parse_config_text(text) == {
        "interval": "30",
        "hera_dir": "flows",
        "benign_label": "ok",
    }


def test_parse_rejects_line_without_equals():
    with pytest.raises(UsageError) as err:
        parse_config_text("interval 30\n", origin="ws.conf")
    assert "ws.conf:1" in str(err.value)


def test_parse_rejects_a_key_set_twice_naming_both_lines():
    with pytest.raises(UsageError) as err:
        parse_config_text("interval = 30\n# again\n interval=45\n", origin="ws.conf")
    assert str(err.value) == "ws.conf:3: key 'interval' is already set on line 1"


def test_parse_keeps_equals_in_value():
    assert parse_config_text("query=a=b\n") == {"query": "a=b"}


def test_load_workspace_absent_env_is_empty():
    assert load_workspace(environ={}) == {}


def test_load_workspace_reads_file(tmp_path):
    conf = tmp_path / "ws.conf"
    conf.write_text("interval = 15\n", encoding="utf-8")
    assert load_workspace(environ={ENV_VAR: str(conf)}) == {"interval": "15"}


def test_load_workspace_missing_file_is_usage_error(tmp_path):
    with pytest.raises(UsageError):
        load_workspace(environ={ENV_VAR: str(tmp_path / "nope.conf")})


# -- precedence ---------------------------------------------------------------


def test_flag_beats_config_beats_default():
    settings = Settings(args(interval=5.0), {"interval": "30"})
    assert settings.number("interval", 60.0) == 5.0
    settings = Settings(args(interval=None), {"interval": "30"})
    assert settings.number("interval", 60.0) == 30.0
    settings = Settings(args(interval=None), {})
    assert settings.number("interval", 60.0) == 60.0


def test_text_resolution():
    settings = Settings(args(benign_label=None), {"benign_label": "normal"})
    assert settings.text("benign_label", "Benign") == "normal"
    assert settings.text("missing") is None


def test_number_rejects_garbage():
    settings = Settings(args(), {"interval": "soon"})
    with pytest.raises(UsageError):
        settings.number("interval", 60.0)


def test_boolean_config_values():
    for raw, expected in [
        ("1", True), ("true", True), ("YES", True), ("on", True),
        ("0", False), ("false", False), ("No", False), ("off", False),
    ]:
        settings = Settings(args(), {"management": raw})
        assert settings.flag("management", default=not expected) is expected


def test_boolean_flag_overrides_config():
    settings = Settings(args(management=True), {"management": "off"})
    assert settings.flag("management") is True


def test_boolean_garbage_rejected():
    settings = Settings(args(), {"management": "maybe"})
    with pytest.raises(UsageError):
        settings.flag("management")


def test_boolean_default_used_when_unset():
    settings = Settings(args(), {})
    assert settings.flag("management", default=True) is True
    assert settings.flag("management", default=False) is False


def test_paths_from_flag_or_config():
    settings = Settings(args(pcaps=["a.pcap", "b.pcap"]), {"pcaps": "c.pcap"})
    assert settings.paths("pcaps") == ["a.pcap", "b.pcap"]
    settings = Settings(args(pcaps=None), {"pcaps": "c.pcap d.pcap"})
    assert settings.paths("pcaps") == ["c.pcap", "d.pcap"]
    settings = Settings(args(), {})
    assert settings.paths("pcaps") == []
