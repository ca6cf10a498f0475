import ast
import csv
import json
import math
import os
import re
import subprocess
import sys

import jsonschema
import numpy as np
import pytest
from click.testing import CliRunner

import pslab
from pslab import cli, hilbert, matgroup, patterson
from pslab.errors import ConfigInvalid


def base_config(**overrides):
    config = {"preset": "sl2-mild", "params": {"n": 3}}
    config.update(overrides)
    return config


def test_schema_loads_and_lists_all_commands():
    schema = cli.load_schema()
    jsonschema.Draft202012Validator.check_schema(schema)
    assert set(schema["properties"]["command"]["enum"]) == set(cli.HANDLERS)
    # hilbert.KleinFamily owns the family list; the schema repeats it
    assert tuple(schema["properties"]["params"]["properties"]["family"]["enum"]) \
        == hilbert.FAMILIES
    # and patterson.METHODS the exponent methods
    assert tuple(schema["properties"]["params"]["properties"]["method"]["enum"]) \
        == patterson.METHODS


def test_validate_config_reports_field_path():
    with pytest.raises(ConfigInvalid) as exc:
        cli.validate_config({"preset": "sl2-mild", "theta": [0]})
    assert exc.value.path == "theta.0"
    with pytest.raises(ConfigInvalid) as exc:
        cli.validate_config({"dimension": 2})
    assert exc.value.path == "(root)"
    with pytest.raises(ConfigInvalid) as exc:
        cli.validate_config({"preset": "sl2-mild", "bogus": 1})
    assert exc.value.path == "(root)"
    # closed-geodesic counting reads words shorter than an exponent fit needs
    cli.validate_config({"command": "count-geodesics", "preset": "parabolic",
                         "params": {"n_max": 3}})


def test_build_presentation_unknown_preset():
    with pytest.raises(ConfigInvalid) as exc:
        cli.build_presentation({"preset": "no-such"})
    assert exc.value.path == "preset"


def test_build_presentation_explicit_generators():
    config = {"dimension": 2, "generators": [[[2.0, 0.0], [0.0, 0.5]]]}
    P = cli.build_presentation(config)
    assert P.rank == 1
    with pytest.raises(ConfigInvalid) as exc:
        cli.build_presentation({"dimension": 2, "generators": [[[1.0, 0.0]]]})
    assert exc.value.path == "generators.0"


def test_build_phi_variants():
    phi = cli.build_phi({"alpha": 1}, 3)
    assert phi.coefficients == {1: 2.0, 2: -1.0}
    phi = cli.build_phi({"omega": 2}, 3)
    assert phi.coefficients == {2: 1.0}
    phi = cli.build_phi([0.5, -1.5], 3)
    assert phi.coefficients == {1: 0.5, 2: -1.5}
    assert cli.build_phi(None, 3).coefficients == {1: 2.0, 2: -1.0}


def test_fmt_float_and_bool():
    assert cli._fmt(True) == "true"
    assert cli._fmt(np.float64(0.1)) == "0.10000000000000001"
    assert cli._fmt("word") == "word"


def test_execute_writes_csv_and_manifest(tmp_path):
    config = base_config(command="kappa")
    manifest = cli.execute("kappa", config, str(tmp_path))
    csv_path = tmp_path / "kappa.csv"
    assert csv_path.exists()
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["word", "kappa_1", "kappa_2", "phi_kappa_theta"]
    assert len(rows) - 1 == manifest["results"]["ball_size"]
    on_disk = json.loads((tmp_path / "manifest.json").read_text())
    assert on_disk["command"] == "kappa"
    assert on_disk["config"] == config
    assert on_disk["artifacts"] == ["kappa.csv"]
    assert "pslab" in on_disk["versions"]


def test_execute_rejects_command_mismatch(tmp_path):
    with pytest.raises(ConfigInvalid) as exc:
        cli.execute("orbit", base_config(command="kappa"), str(tmp_path))
    assert exc.value.path == "command"


def test_execute_rerun_is_byte_identical(tmp_path):
    config = base_config(command="kappa", params={"n": 4})
    cli.execute("kappa", config, str(tmp_path / "a"))
    cli.execute("kappa", config, str(tmp_path / "b"))
    assert (tmp_path / "a" / "kappa.csv").read_bytes() == \
        (tmp_path / "b" / "kappa.csv").read_bytes()


@pytest.mark.parametrize("command, params, radii", [
    ("ps-measure", {"n": 5}, [5]),
    ("ps-measure", {"n": 3}, [4]),
    # the shadow constants and the shadow check enumerate radius-3 balls of their own
    ("shadow-check", {"n": 3, "mu_n": 5}, [5, 3, 3]),
])
def test_measure_commands_build_one_ball(command, params, radii, tmp_path, monkeypatch):
    # every ball, with or without its matrices, is one walk
    built = []

    class Counted(matgroup._BallWalk):
        def __init__(self, P, n, *args, **kwargs):
            built.append(n)
            super().__init__(P, n, *args, **kwargs)

    monkeypatch.setattr(matgroup, "_BallWalk", Counted)
    config = {"preset": "fuchsian-schottky-1", "theta": [1], "params": params}
    cli.execute(command, config, str(tmp_path))
    assert built == radii


def error_record(result):
    """The error record of a failed run: exactly one JSON line on stderr."""
    lines = result.stderr.splitlines()
    assert len(lines) == 1, result.stderr
    return json.loads(lines[0])


def test_cli_exit_codes(tmp_path):
    runner = CliRunner()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"preset": "sl2-mild", "theta": [0]}))
    result = runner.invoke(cli.main, ["kappa", "--config", str(bad)])
    assert result.exit_code == 2
    err = error_record(result)
    assert err["error"] == "ConfigInvalid" and err["path"] == "theta.0"

    # a letter outside +-1..+-rank names the word; an unknown or ill-typed
    # params key names params, also when the config omits the command
    for command, config, path in (
        ("entropy-drop", {"params": {"subgroup": [[0]]}}, "params.subgroup.0"),
        ("entropy-drop", {"params": {"subgroup": [[1], [5]]}}, "params.subgroup.1"),
        ("quasi-invariance", {"params": {"alpha": [7]}}, "params.alpha"),
        # quasi_invariance_residual does not read s
        ("quasi-invariance", {"params": {"alpha": [1], "s": 0.5}}, "params"),
        ("conicality", {"params": {"fixed_point_of": [3]}}, "params.fixed_point_of"),
        ("kappa", {"command": "kappa", "params": {"m": 2}}, "params"),
        ("kappa", {"params": {"m": 2}}, "params"),
        ("kappa", {"params": {"n": True}}, "params.n"),
        ("conicality", {"params": {"z": ["a", 1]}}, "params.z.0"),
        ("box-dim", {"params": {"scales": "x"}}, "params.scales"),
        ("box-dim", {"params": {"scales": [0.3, 0.1, 0.03, 0.01]}}, "params.scales"),
        # an empty word is a config error, not an identity element
        ("quasi-invariance", {"params": {"alpha": []}}, "params.alpha"),
        ("conicality", {"params": {"fixed_point_of": []}}, "params.fixed_point_of"),
        ("entropy-drop", {"params": {"subgroup": [[]]}}, "params.subgroup.0"),
        # the exponent fit needs four spheres; the path is the command's own key
        ("shadow-check", {"params": {"mu_n": 3}}, "params.mu_n"),
        ("critical-exponent", {"params": {"n_max": 3}}, "params.n_max"),
        ("box-dim", {"params": {"n_max": 3}}, "params.n_max"),
        ("concavity", {"params": {"n_max": 3}}, "params.n_max"),
        ("entropy-drop", {"params": {"subgroup": [[1]], "n_max": 3}}, "params.n_max"),
        ("critical-exponent", {"params": {"method": "bogus"}}, "params.method"),
        # a field the command does not read is a config error
        ("orbit", {"phi": {"alpha": 1}}, "phi"),
        ("orbit", {"theta": [1]}, "theta"),
        ("limit-set", {"phi": [1.0]}, "phi"),
        ("limit-cone", {"phi": {"omega": 1}}, "phi"),
        ("box-dim", {"phi": {"alpha": 2}}, "phi"),
        ("conicality", {"phi": {"alpha": 1}, "params": {"z": [1, 0]}}, "phi"),
        ("conicality", {"theta": [1], "params": {"z": [1, 0]}}, "theta"),
        # commands with a required params key need params
        ("quasi-invariance", {}, "(root)"),
        ("entropy-drop", {}, "(root)"),
        ("conicality", {}, "(root)"),
        # json.load reads NaN and Infinity, and the schema's "number" admits them
        ("box-dim", {"params": {"scales": [math.inf, 0.1, 0.05, 0.02, 0.01]}},
         "params.scales.0"),
        ("concavity", {"params": {"lambdas": [math.nan]}}, "params.lambdas.0"),
        ("critical-exponent", {"phi": [math.nan]}, "phi.0"),
        ("ps-measure", {"params": {"s": math.inf}}, "params.s"),
        ("conicality", {"params": {"r": math.inf, "z": [1, 0]}}, "params.r"),
        ("shadow-check", {"params": {"r": math.inf}}, "params.r"),
    ):
        bad.write_text(json.dumps({"preset": "fuchsian-schottky-1", **config}))
        result = runner.invoke(cli.main, [command, "--config", str(bad),
                                          "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        # no traceback: the run ended through the CLI's own exit, not a raise
        assert isinstance(result.exception, SystemExit)
        err = error_record(result)
        assert err["error"] == "ConfigInvalid" and err["path"] == path

    # a config's own generators: a label count other than the generator count,
    # a ragged matrix, a singular matrix with huge entries and huge matrices
    # of determinant 5, 1e100, 1e160 and 1e246 (whose column squares
    # overflow) are config errors; products whose entries overflow are one
    # domain error, wherever the product is made, so the huge generator of
    # determinant 1 passes
    two = [[[2, 0], [0, 0.5]], [[1, 1], [0, 1]]]
    huge = [[[1e100, 0], [0, 1e-100]]]
    overflow = (3, "DecompositionFailure", None)
    for command, config, code, error, path in (
        ("kappa", {"generators": two, "labels": ["a"]}, 2, "ConfigInvalid", "labels"),
        ("kappa", {"generators": two, "labels": []}, 2, "ConfigInvalid", "labels"),
        ("kappa", {"generators": [[[2, 0], [0]]]}, 2, "ConfigInvalid", "generators.0"),
        ("kappa", {"generators": [[[1e100, 0], [0, 0]]]}, 2, "ConfigInvalid", "generators"),
        ("kappa", {"generators": [[[1e100, 0], [0, 5e-100]]], "params": {"n": 1}}, 2,
         "ConfigInvalid", "generators"),
        ("kappa", {"generators": [[[1e200, 0], [0, 1e-100]]], "params": {"n": 1}}, 2,
         "ConfigInvalid", "generators"),
        ("kappa", {"generators": [[[1e160, 0], [0, 1]]], "params": {"n": 1}}, 2,
         "ConfigInvalid", "generators"),
        ("kappa", {"dimension": 3, "generators": [np.diag([1e200, 1e200, 1e-154]).tolist()],
                   "params": {"n": 1}}, 2, "ConfigInvalid", "generators"),
        ("kappa", {"generators": huge, "params": {"n": 5}}, *overflow),
        ("critical-exponent", {"generators": huge, "params": {"n_max": 5}}, *overflow),
        ("limit-set", {"generators": huge, "params": {"n": 5}}, *overflow),
        ("orbit", {"generators": huge, "params": {"n": 5}}, *overflow),
        ("conicality", {"generators": huge, "params": {"z": [1, 0], "n": 5}}, *overflow),
        ("count-geodesics", {"generators": huge, "params": {"n_max": 5}}, *overflow),
        ("limit-cone", {"generators": huge, "params": {"n": 5}}, *overflow),
        # the radius-2 ball is finite; only the word alpha = a^4 overflows
        ("quasi-invariance", {"generators": huge, "params": {"alpha": [1, 1, 1, 1], "n": 2}},
         *overflow),
    ):
        bad.write_text(json.dumps({"dimension": 2, **config}))
        result = runner.invoke(cli.main, [command, "--config", str(bad),
                                          "--out", str(tmp_path / "out")])
        assert result.exit_code == code, config
        assert isinstance(result.exception, SystemExit)
        err = error_record(result)
        assert err["error"] == error and err.get("path") == path

    # a file that is not JSON, not UTF-8, or holds an integer too long to
    # read, and a top level that is not an object
    notjson = tmp_path / "notjson.json"
    for content in (b"{", b"\xff\xfe{}", b"1" * 5000, b"[1, 2]", b'"kappa"', b"3"):
        notjson.write_bytes(content)
        result = runner.invoke(cli.main, ["kappa", "--config", str(notjson),
                                          "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, content
        assert isinstance(result.exception, SystemExit)
        err = error_record(result)
        assert err["error"] == "ConfigInvalid" and err["path"] == "(root)"

    # a domain failure inside the run maps to exit 3
    domain = tmp_path / "domain.json"
    domain.write_text(json.dumps({
        "preset": "fuchsian-schottky-1", "command": "ps-measure",
        "params": {"n": 4, "s": 0.01},
    }))
    result = runner.invoke(cli.main, ["ps-measure", "--config", str(domain),
                                      "--out", str(tmp_path / "out")])
    assert result.exit_code == 3
    err = error_record(result)
    assert err["error"] == "SubcriticalS"

    # a zero conicality direction names no boundary point
    domain.write_text(json.dumps({
        "preset": "fuchsian-schottky-1", "command": "conicality",
        "params": {"z": [0, 0], "n": 3},
    }))
    result = runner.invoke(cli.main, ["conicality", "--config", str(domain),
                                      "--out", str(tmp_path / "out")])
    assert result.exit_code == 3
    assert isinstance(result.exception, SystemExit)
    err = error_record(result)
    assert err["error"] == "BoundaryPoint"


def test_cli_success_prints_summary(tmp_path):
    runner = CliRunner()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(base_config(command="kappa")))
    result = runner.invoke(cli.main, ["kappa", "--config", str(cfg),
                                      "--out", str(tmp_path / "out")])
    assert result.exit_code == 0
    summary = json.loads(result.output.strip().splitlines()[-1])
    assert summary["command"] == "kappa"
    assert summary["results"]["ball_size"] == 53


def test_shipped_configs_validate():
    cfg_dir = os.path.join(os.path.dirname(__file__), "..", "configs")
    names = sorted(f for f in os.listdir(cfg_dir) if f.endswith(".json"))
    assert len(names) == len(cli.HANDLERS)
    for name in names:
        with open(os.path.join(cfg_dir, name)) as fh:
            config = json.load(fh)
        cli.validate_config(config)
        assert config["command"] == name[:-5]


def _imported_with_cli(module):
    """Whether a fresh interpreter has module loaded after `import pslab.cli`."""
    src = os.path.dirname(os.path.dirname(pslab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = f"import sys, pslab.cli; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    return out.stdout.strip() == "True"


def test_cli_import_leaves_scipy_out():
    # the library does not use scipy, whose import costs start-up time and RSS
    assert not _imported_with_cli("scipy")


def test_cli_import_leaves_jsonschema_out():
    # only config validation needs jsonschema, which it imports when called
    assert not _imported_with_cli("jsonschema")


def test_third_party_imports_match_declared_dependencies():
    # every third-party package the library imports is a declared
    # dependency, and every declared dependency is imported
    tomllib = pytest.importorskip("tomllib")
    pkg = os.path.dirname(pslab.__file__)
    imported = set()
    for name in os.listdir(pkg):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(pkg, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"pslab"}
    pyproject = os.path.join(os.path.dirname(os.path.dirname(pkg)), "pyproject.toml")
    with open(pyproject, "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[\w.-]+", dep)[0] for dep in deps}
    assert third_party == declared == {"numpy", "click", "jsonschema"}
