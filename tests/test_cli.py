import ast
import csv
import functools
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import threading
import warnings

import jsonschema
import numpy as np
import pytest
from click.testing import CliRunner

import pslab
from pslab import cli, flags, hilbert, matgroup, patterson, presets
from pslab.errors import ConfigInvalid
from conftest import traced_peak
import csv_oracle
from words import ball_words


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
    # a value nested deeper than the schema walk recurses
    deep = 4
    for _ in range(5000):
        deep = [deep]
    with pytest.raises(ConfigInvalid) as exc:
        cli.validate_config({"command": "kappa", "preset": "parabolic", "params": {"n": deep}})
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


# floats and labels that probe the CSV rules: signed zero, the float range's
# ends, non-finite values, and labels that the csv module quotes
ODD_FLOATS = [-0.0, math.inf, -math.inf, math.nan, 5e-324, 1.7976931348623157e308, 0.1]
ODD_LABELS = ["a,b", 'c"d', "e\nf", "g\rh", "", "\u00e9\u4e2d", 'q",\r\n"', "plain"]


def odd_table(rows):
    """A 4-column table of rows rows: labels, floats, integers and bools, each cycled."""
    labels = [ODD_LABELS[i % len(ODD_LABELS)] for i in range(rows)]
    ints = np.array([0, -7, 2**62, np.iinfo(np.int64).min, np.iinfo(np.int64).max])
    return (["word", "x,y", 'q"', "flag"],
            [labels, np.resize(np.array(ODD_FLOATS), rows), np.resize(ints, rows),
             np.resize(np.array([True, False, False]), rows)])


def assert_rows_match(path, header, columns, tmp_path):
    """path holds what the row-by-row oracle writes, from numpy and from Python scalars."""
    for cells in (columns, [col if isinstance(col, list) else col.tolist() for col in columns]):
        csv_oracle.write_csv(tmp_path / "oracle.csv", header, zip(*cells))
        assert path.read_bytes() == (tmp_path / "oracle.csv").read_bytes()


@pytest.mark.parametrize("header, columns", [
    # no rows (header only), one row, and more than one block of rows
    *(odd_table(rows) for rows in (0, 1, 11, 2 * matgroup.BLOCK_ROWS + 3)),
    # a table of one column writes an empty cell as ""
    (["word"], [ODD_LABELS]),
    ([""], [[]]),
    (["x"], [np.array(ODD_FLOATS)]),
    # integers and bools of other widths
    (["i", "u", "b"], [np.arange(-3, 3, dtype=np.int8), np.arange(6, dtype=np.uint32),
                       np.ones(6, dtype=bool)]),
], ids=["rows0", "rows1", "rows11", "two-blocks", "one-label-column", "empty-header-only",
        "one-float-column", "narrow-ints"])
def test_write_csv_matches_row_writer(header, columns, tmp_path):
    cli._write_csv(tmp_path / "table.csv", header, columns)
    assert_rows_match(tmp_path / "table.csv", header, columns, tmp_path)


def test_write_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        cli._write_csv(tmp_path / "table.csv", ["a", "b"], [["x"], np.zeros(2)])


def test_write_csv_bytes(tmp_path):
    path = tmp_path / "table.csv"
    cli._write_csv(path, ["word", "x", "n", "ok"],
                   [["a,b", 'c"d'], np.array([0.1, -0.0]), np.array([3, -4]),
                    np.array([True, False])])
    assert path.read_bytes() == (b'word,x,n,ok\r\n"a,b",0.10000000000000001,3,true\r\n'
                                 b'"c""d",-0,-4,false\r\n')


def test_write_csv_memory_is_one_block(tmp_path):
    rows = 100_000
    header, columns = odd_table(rows)
    # while it formats a block, the writer holds per cell of the block at
    # most: a slot in its column's cell list and in the block's row tuple
    # (8 B each); one new object, a float (24 B), an int (32 B), a bool's
    # "false" (54 B) or a quoted label (60 B for the longest,
    # '"q"",\r\n"""'); its format in the block's format string (at most
    # 6 B, "%.17g,"); and its text twice, as str, 2 B a character as the
    # block holds a character above U+00FF (at most 50 B for
    # "-1.7976931348623157e+308,"), and as the UTF-8 bytes the file writes
    # (at most 25 B).  That is 161 B, and 64 KiB more for the file buffer
    # and the header
    bound = matgroup.BLOCK_ROWS * len(columns) * 161 + 2**16
    # the whole table's text alone, at even 25 B a cell, would not fit
    assert rows * len(columns) * 25 > bound
    _, peak = traced_peak(cli._write_csv, tmp_path / "table.csv", header, columns)
    assert peak < bound


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
    assert on_disk["peak_rss_mb"] > 0 and on_disk["peak_rss_mb"] == manifest["peak_rss_mb"]


def test_deep_d3_measure_writes_no_warning(tmp_path):
    # the product's own smallest singular value rounds to 0 on deep words;
    # the spliced flags read only sigma_1 of the product and of its inverse
    config = {"preset": "sl3-zariski-dense", "theta": [1, 2], "phi": {"alpha": 1},
              "params": {"n": 7, "s_factor": 1.1}}
    manifest = cli.execute("ps-measure", config, str(tmp_path))
    assert manifest["warnings"] == []


def test_manifest_names_the_lapack_threads_of_every_shipped_config(tmp_path, three_ranges):
    # with every stack of 8 rows or more cut into row ranges, each shipped
    # config keeps its pinned CSV bytes, and its manifest names the count
    root = os.path.join(os.path.dirname(__file__), "..")
    with open(os.path.join(root, "perfbench", "expected_csv_sha256.json")) as fh:
        expected = json.load(fh)
    for command in cli.HANDLERS:
        with open(os.path.join(root, "configs", f"{command}.json")) as fh:
            manifest = cli.execute(command, json.load(fh), str(tmp_path / command))
        assert manifest["kernels"] == {"lapack_threads": 3}, command
        on_disk = json.loads((tmp_path / command / "manifest.json").read_text())
        assert on_disk["kernels"] == manifest["kernels"], command
        csv_bytes = (tmp_path / command / f"{command}.csv").read_bytes()
        assert hashlib.sha256(csv_bytes).hexdigest() == expected[command], command


def test_lapack_threads_are_the_cpus_of_the_process(tmp_path):
    manifest = cli.execute("kappa", base_config(command="kappa"), str(tmp_path))
    assert manifest["kernels"] == {"lapack_threads": len(os.sched_getaffinity(0))}


def test_a_warning_in_a_worker_range_reaches_the_manifest(tmp_path, three_ranges, monkeypatch):
    # the 17 rows of the radius-2 sl3-mild ball make three LAPACK ranges per
    # stack; only the threads started for the second and third warn
    svd = np.linalg.svd

    def warning_svd(a, *args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            warnings.warn("a worker range warned")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", warning_svd)
    config = {"preset": "sl3-mild", "theta": [1, 2], "params": {"n": 2}}
    manifest = cli.execute("kappa", config, str(tmp_path))
    assert manifest["results"]["ball_size"] == 17
    assert manifest["warnings"] == ["a worker range warned"]


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
    # the words and the products of a ball come from one walk
    ("kappa", {"n": 3}, [3]),
    ("orbit", {"n": 3}, [3]),
])
def test_measure_commands_build_one_ball(command, params, radii, tmp_path, monkeypatch):
    # every ball, its words and its products, is one walk
    built = []

    class Counted(matgroup._BallWalk):
        def __init__(self, P, n, *args, **kwargs):
            built.append(n)
            super().__init__(P, n, *args, **kwargs)

    monkeypatch.setattr(matgroup, "_BallWalk", Counted)
    config = {"preset": "fuchsian-schottky-1", "theta": [1], "params": params}
    if command == "orbit":
        del config["theta"]  # not read by the orbit command
    cli.execute(command, config, str(tmp_path))
    assert built == radii


def capture_tables(monkeypatch):
    """Every cli.HANDLERS entry, wrapped to keep what it returns: {command: (header, columns)}."""
    tables = {}

    def wrap(command, handler):
        def run(*args):
            header, columns, results = handler(*args)
            tables[command] = header, columns
            return header, columns, results
        return run

    for command, handler in list(cli.HANDLERS.items()):
        monkeypatch.setitem(cli.HANDLERS, command, wrap(command, handler))
    return tables


def test_shipped_config_tables_are_columns(tmp_path, monkeypatch):
    # each handler returns one column per header name, every column a 1-D
    # float, integer or bool array or a list of str, all of the CSV's row count
    tables = capture_tables(monkeypatch)
    cfg_dir = os.path.join(os.path.dirname(__file__), "..", "configs")
    for command in cli.HANDLERS:
        with open(os.path.join(cfg_dir, f"{command}.json")) as fh:
            cli.execute(command, json.load(fh), str(tmp_path / command))
        with open(tmp_path / command / f"{command}.csv", newline="") as fh:
            count = len(list(csv.reader(fh))) - 1
        header, columns = tables[command]
        assert len(columns) == len(header), command
        for col in columns:
            if isinstance(col, list):
                assert all(type(x) is str for x in col), command
            else:
                assert type(col) is np.ndarray and col.ndim == 1, command
                assert col.dtype.kind in "fiub", (command, col.dtype)
            assert len(col) == count, command
        assert count > 0, command


# labels that the csv module quotes
QUOTED_LABELS = ["a,b", 'c"d']


@pytest.mark.parametrize("command, n", [("kappa", 3), ("orbit", 3), ("limit-set", 3),
                                        ("ps-measure", 4)])
def test_labels_are_quoted_end_to_end(command, n, tmp_path, monkeypatch):
    tables = capture_tables(monkeypatch)
    P = presets.fuchsian_schottky(1.6)
    config = {"dimension": 2, "generators": [g.tolist() for g in P.generators],
              "labels": QUOTED_LABELS, "params": {"n": n}}
    cli.execute(command, config, str(tmp_path))
    path = tmp_path / f"{command}.csv"
    header, columns = tables[command]
    assert_rows_match(path, header, columns, tmp_path)
    with open(path, newline="", encoding="utf-8") as fh:
        labels = [row[0] for row in csv.reader(fh)][1:]
    if command == "limit-set":
        words = flags.sample_limit_set(P, (1,), n)[2].tolist()
    else:
        words = ball_words(matgroup.word_spheres(P, n))
        if command == "ps-measure":
            # every element but the identity is an atom of this measure
            words = words[1:]
    assert labels == [csv_oracle.word_label(QUOTED_LABELS, w) for w in words]
    assert b'"a,b' in path.read_bytes() and b'c""d' in path.read_bytes()


def test_limit_set_without_samples_writes_header_only(tmp_path):
    # every product of an identity generator fails the gap test
    config = {"dimension": 2, "generators": [[[1, 0], [0, 1]]], "labels": ["a,b"],
              "params": {"n": 2}}
    manifest = cli.execute("limit-set", config, str(tmp_path))
    assert manifest["results"]["sample_size"] == 0
    assert (tmp_path / "limit-set.csv").read_bytes() == b"word\r\n"


def error_record(result):
    """The error record of a failed run: exactly one JSON line on stderr."""
    lines = result.stderr.splitlines()
    assert len(lines) == 1, result.stderr
    return json.loads(lines[0])


@pytest.mark.parametrize("labels", [["", "b"], ["a", "a"]], ids=["empty", "duplicate"])
def test_labels_that_would_name_two_rows_alike_exit_2(labels, tmp_path):
    # an empty label would write its one-letter word as "e", the identity's
    # label, and two equal labels would write two words alike
    P = presets.fuchsian_schottky(1.6)
    cfg = tmp_path / "labels.json"
    cfg.write_text(json.dumps({"command": "kappa", "dimension": 2, "labels": labels,
                               "generators": [g.tolist() for g in P.generators],
                               "params": {"n": 2}}))
    result = CliRunner().invoke(cli.main, ["kappa", "--config", str(cfg),
                                           "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    err = error_record(result)
    assert err["error"] == "ConfigInvalid" and err["path"] == "labels"
    assert not (tmp_path / "out").exists()


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
        # a long list or a deeply nested one is named, not echoed (under the
        # test runner's deeper stack a list 950 deep already reports (root))
        ("kappa", {"params": {"n": list(range(100_000))}}, "params.n"),
        ("kappa", {"params": {"n": functools.reduce(lambda x, _: [x], range(900), 4)}},
         "params.n"),
        ("conicality", {"params": {"z": ["a", 1]}}, "params.z.0"),
        ("box-dim", {"params": {"scales": "x"}}, "params.scales"),
        ("box-dim", {"params": {"scales": [0.3, 0.1, 0.03, 0.01]}}, "params.scales"),
        # repeated scales leave the fit's log(1 / scale) column no spread
        ("box-dim", {"params": {"scales": [0.1] * 5}}, "params.scales"),
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
        assert len(err["message"]) < 100, err["message"]

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

    # a file that is not JSON, not UTF-8, holds an integer too long to read
    # or a list nested deeper than json.load recurses, and a top level that
    # is not an object (json.dump recurses too, so the deep file is a string)
    notjson = tmp_path / "notjson.json"
    deep = ('{"command": "kappa", "preset": "parabolic", "params": {"n": '
            + "[" * 5000 + "4" + "]" * 5000 + "}}").encode()
    for content in (b"{", b"\xff\xfe{}", b"1" * 5000, deep, b"[1, 2]", b'"kappa"', b"3"):
        notjson.write_bytes(content)
        result = runner.invoke(cli.main, ["kappa", "--config", str(notjson),
                                          "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, content
        assert isinstance(result.exception, SystemExit)
        err = error_record(result)
        assert err["error"] == "ConfigInvalid" and err["path"] == "(root)"

    # a domain failure inside the run maps to exit 3: a subcritical s, and a
    # phi so small that the regression's grid column is rounding noise
    # beside its offset column, so the fit has rank 1 and no slope
    domain = tmp_path / "domain.json"
    for config, error in (
        ({"command": "ps-measure", "params": {"n": 4, "s": 0.01}}, "SubcriticalS"),
        ({"command": "critical-exponent", "phi": [1e-16],
          "params": {"n_max": 8, "method": "sphere-regression"}}, "WindowEmpty"),
    ):
        domain.write_text(json.dumps({"preset": "fuchsian-schottky-1", **config}))
        result = runner.invoke(cli.main, [config["command"], "--config", str(domain),
                                          "--out", str(tmp_path / "out")])
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)
        assert error_record(result)["error"] == error

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
