"""JSON-config CLI: experiment orchestration and deterministic CSV/manifest output."""

import csv
import functools
import json
import math
import os
import sys
import time
import warnings
from importlib import resources

import click
import numpy as np

from . import (
    __version__,
    asymptotics,
    cartan,
    flags,
    hilbert,
    matgroup,
    patterson,
    presets,
)
from .errors import BadIndex, ConfigInvalid, NonUnimodular, PslabError

CSV_SCHEMA_VERSION = 1


def load_schema():
    with resources.files("pslab").joinpath("schema.json").open("rb") as fh:
        return json.load(fh)


def _fmt(x):
    """17 significant digits for floats; everything else verbatim."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return x


@functools.cache
def _validator():
    # the schema is checked once by the test suite, not on every run;
    # jsonschema is imported here, as its import costs every start-up and
    # only validation needs it
    import jsonschema

    return jsonschema.Draft202012Validator(load_schema())


def _floats(value, path):
    """(path, x) for every float x in a parsed JSON value, in document order."""
    if isinstance(value, float):
        yield path, value
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from _floats(item, path + (key,))


def validate_config(config):
    from jsonschema.exceptions import best_match

    error = best_match(_validator().iter_errors(config))
    if error is not None:
        path = ".".join(str(p) for p in error.absolute_path) or "(root)"
        # the schema's only "not" rejects a field the command does not read
        message = "not read by this command" if error.validator == "not" else error.message
        raise ConfigInvalid(path, message) from error
    # json.load reads NaN and Infinity, and the schema's "number" admits them
    for path, x in _floats(config, ()):
        if not math.isfinite(x):
            raise ConfigInvalid(".".join(map(str, path)), "must be a finite number")


def build_presentation(config):
    if "preset" in config:
        name = config["preset"]
        if name not in presets.PRESETS:
            raise ConfigInvalid("preset", f"unknown preset {name!r}")
        return presets.PRESETS[name]()
    d = config["dimension"]
    for i, g in enumerate(config["generators"]):
        if len(g) != d or any(len(row) != d for row in g):
            raise ConfigInvalid(f"generators.{i}", f"expected a {d}x{d} matrix")
    gens = [np.array(g, dtype=float) for g in config["generators"]]
    try:
        return matgroup.GroupPresentation(d, gens, labels=config.get("labels"))
    except NonUnimodular as exc:
        raise ConfigInvalid("generators", str(exc)) from exc


def build_theta(config, P):
    try:
        return cartan.validate_theta(config.get("theta"), P.dimension)
    except PslabError as exc:
        raise ConfigInvalid("theta", str(exc)) from exc


def build_phi(spec, d, field="phi"):
    if spec is None:
        spec = {"alpha": 1}
    if not isinstance(spec, dict) and len(spec) > d - 1:
        raise ConfigInvalid(field, f"at most {d - 1} weight coefficients")
    try:
        if isinstance(spec, dict):
            if "alpha" in spec:
                return cartan.Functional.alpha(spec["alpha"], d)
            return cartan.Functional.omega(spec["omega"], d)
        return cartan.Functional(d, {k + 1: c for k, c in enumerate(spec)})
    except PslabError as exc:
        raise ConfigInvalid(field, str(exc)) from exc


def _word(P, word, path):
    """A config word as a tuple, with its letters checked against P."""
    word = tuple(int(x) for x in word)
    try:
        for letter in word:
            P.letter_matrix(letter)
    except BadIndex as exc:
        raise ConfigInvalid(path, str(exc)) from exc
    return word


def run_kappa(P, theta, phi, params):
    n = int(params.get("n", 4))
    proj = cartan.projection_matrix(P.dimension, theta)
    ball = matgroup.word_spheres(P, n)
    ks = matgroup.batch_kappa(ball.mats, ball.inv_mats)
    # phi of the projected vectors, not ks @ theta_covector: the CSV keeps
    # the bits of this summation order
    values = phi(ks @ proj.T)
    header = ["word"] + [f"kappa_{i + 1}" for i in range(P.dimension)] + ["phi_kappa_theta"]
    rows = [[P.word_label(w), *k, v] for w, k, v in zip(ball.words(), ks, values)]
    return header, rows, {"ball_size": len(ball)}


def run_orbit(P, theta, phi, params):
    n = int(params.get("n", 6))
    fam = hilbert.KleinFamily(P, params.get("family", "so" if P.dimension == 2 else "sym2"))
    ball = matgroup.word_spheres(P, n)
    pts = fam.orbit_point(ball.mats)
    header = ["word", "x", "y"]
    rows = [[P.word_label(w), p[0], p[1]] for w, p in zip(ball.words(), pts)]
    return header, rows, {"ball_size": len(ball)}


def run_limit_set(P, theta, phi, params):
    n = int(params.get("n", 6))
    F, skipped, words = flags.sample_limit_set(P, theta, n)
    d = P.dimension
    m = d if len(F) else 0
    header = ["word"] + [f"frame_{i + 1}_{j + 1}" for i in range(d) for j in range(m)]
    rows = [[P.word_label(w), *f.ravel()] for w, f in zip(words.tolist(), F.frame)]
    return header, rows, {"sample_size": len(F), "skipped": skipped}


def run_critical_exponent(P, theta, phi, params):
    n_max = int(params.get("n_max", 10))
    method = params.get("method", "both")
    ests = patterson.critical_exponent(P, phi, n_max, theta, method=method)
    if not isinstance(ests, tuple):
        ests = (ests,)
    header = ["method", "delta_hat", "window_lo", "window_hi", "residual", "samples"]
    rows = [
        [e.method, e.delta_hat, e.window[0], e.window[1], e.residual, e.sample_count]
        for e in ests
    ]
    return header, rows, {"delta_hat": ests[0].delta_hat}


def run_ps_measure(P, theta, phi, params):
    n = int(params.get("n", 8))
    est, mu = patterson._exponent_and_measure(
        P, phi, max(n, 4), n, theta,
        lambda delta: params.get("s", delta * params.get("s_factor", 1.05)))
    header = ["word", "weight"]
    words = mu.ball.words()
    rows = [[P.word_label(words[i]), w] for i, w in zip(mu.atoms, mu.weights)]
    lengths = mu.ball.lengths()[mu.atoms]
    inner = sum(mu.weights[lengths <= lengths.max() // 2].tolist())
    return header, rows, {
        "s": mu.s, "delta_hat": est.delta_hat, "excluded": mu.excluded,
        "inner_half_mass": inner,
    }


def run_quasi_invariance(P, theta, phi, params):
    alpha = _word(P, params["alpha"], "params.alpha")
    n = int(params.get("n", 8))
    stats = patterson.quasi_invariance_residual(P, phi, alpha, None, n, theta)
    header = ["sphere", "min", "median", "max", "count"]
    rows = [[st["sphere"], st["min"], st["median"], st["max"], st["count"]] for st in stats]
    return header, rows, {"alpha": P.word_label(alpha)}


def run_shadow_check(P, theta, phi, params):
    fam = params.get("family", "so" if P.dimension == 2 else "sym2")
    n = int(params.get("n", 8))
    mu_n = int(params.get("mu_n", 12))
    est, mu = patterson._exponent_and_measure(
        P, phi, mu_n, mu_n, theta, lambda delta: delta * params.get("s_factor", 1.01))
    if params.get("outer_sphere", True):
        mu = patterson.outer_sphere_restriction(mu)
    r0, eps0 = hilbert.shadow_constants(P, mu, min(n, 3), fam)
    r = params.get("r", 2.0 * r0)
    report = hilbert.shadow_measure_check(P, mu, phi, est.delta_hat, r, n, fam, theta)
    header = ["sphere", "count", "rho_min", "rho_max", "spread"]
    rows = [
        [row.sphere, row.count, row.rho_min, row.rho_max, row.spread]
        for row in report.rows
    ]
    return header, rows, {
        "delta_hat": est.delta_hat, "s": mu.s, "r_0": r0, "eps_0": eps0, "r": r,
        "spread": report.spread,
        "bound": float(np.exp(2 * r * est.delta_hat) / eps0),
    }


def run_conicality(P, theta, phi, params):
    fam = params.get("family", "so" if P.dimension == 2 else "sym2")
    r = params.get("r", 2.0)
    n = int(params.get("n", 10))
    if "z" in params:
        z = params["z"]
    else:
        word = _word(P, params["fixed_point_of"], "params.fixed_point_of")
        family = hilbert.KleinFamily(P, fam)
        F = flags.attracting_fixed_flag(P.word_matrix(word), (1, P.dimension - 1)
                                        if P.dimension > 2 else (1,))
        z = family.boundary_point(F.frame)
    counts = hilbert.conicality_score(P, np.asarray(z, dtype=float), r, n, fam)
    header = ["sphere", "count"]
    rows = [[i + 1, c] for i, c in enumerate(counts)]
    return header, rows, {"r": r, "tail_count": counts[-1]}


def run_count_geodesics(P, theta, phi, params):
    t_max = params.get("t_max", 25.0)
    n_max = int(params.get("n_max", 10))
    table = asymptotics.count_closed_geodesics(
        P, phi, t_max, n_max=n_max, theta=theta,
        primitive_only=params.get("primitive_only", False),
        unoriented=params.get("unoriented", False),
    )
    header = ["T", "count", "prediction", "ratio", "certified"]
    rows = [
        [row.T, row.count, row.prediction, row.ratio, row.certified]
        for row in table.rows
    ]
    return header, rows, {
        "delta_hat": table.delta_hat,
        "t_certified": table.t_certified,
        "log_slope": asymptotics.count_log_slope(table),
    }


def run_box_dim(P, theta, phi, params):
    n_max = int(params.get("n_max", 8))
    report = asymptotics.hausdorff_vs_exponent_experiment(
        P, n_max, theta=theta, scale_grid=params.get("scales"),
    )
    header = ["scale", "cover_count"]
    rows = [[s, int(c)] for s, c in zip(report["scales"], report["counts"])]
    summary = {k: v for k, v in report.items() if k not in ("scales", "counts")}
    return header, rows, summary


def run_entropy_drop(P, theta, phi, params):
    words = [_word(P, w, f"params.subgroup.{i}") for i, w in enumerate(params["subgroup"])]
    n_max = int(params.get("n_max", 9))
    report = patterson.entropy_drop_experiment(P, words, phi, n_max, theta)
    header = ["delta_ambient", "delta_subgroup", "gap", "limit_set_separation"]
    rows = [[
        report["delta_ambient"].delta_hat,
        report["delta_subgroup"].delta_hat,
        report["gap"],
        report["limit_set_separation"],
    ]]
    return header, rows, {"gap": report["gap"]}


def run_concavity(P, theta, phi, params):
    phi2 = build_phi(params.get("phi2"), P.dimension, field="params.phi2")
    lambdas = params.get("lambdas", [round(0.1 * i, 1) for i in range(1, 10)])
    n_max = int(params.get("n_max", 9))
    report = patterson.concavity_experiment(P, phi, phi2, lambdas, n_max, theta)
    header = ["lambda", "delta_hat", "residual"]
    rows = [[row["lambda"], row["delta_hat"], row["residual"]] for row in report["rows"]]
    return header, rows, {
        "delta_phi1": report["delta_phi1"], "delta_phi2": report["delta_phi2"],
        "max_delta": max(row["delta_hat"] for row in report["rows"]),
    }


def run_limit_cone(P, theta, phi, params):
    n = int(params.get("n", 8))
    dirs = matgroup.limit_cone_sample(P, theta, n)
    header = [f"dir_{i + 1}" for i in range(dirs.shape[1])]
    rows = [list(v) for v in dirs]
    return header, rows, {"sample_size": len(rows)}


HANDLERS = {
    "kappa": run_kappa,
    "orbit": run_orbit,
    "limit-set": run_limit_set,
    "critical-exponent": run_critical_exponent,
    "ps-measure": run_ps_measure,
    "quasi-invariance": run_quasi_invariance,
    "shadow-check": run_shadow_check,
    "conicality": run_conicality,
    "count-geodesics": run_count_geodesics,
    "box-dim": run_box_dim,
    "entropy-drop": run_entropy_drop,
    "concavity": run_concavity,
    "limit-cone": run_limit_cone,
}


def execute(command, config, out_dir):
    """Run one subcommand; returns the manifest dict after writing artifacts."""
    if not isinstance(config, dict):
        raise ConfigInvalid("(root)", f"a config is a JSON object, not {type(config).__name__}")
    # the invoked command's params schema applies when the config names none
    validate_config({"command": command, **config})
    if "command" in config and config["command"] != command:
        raise ConfigInvalid("command", f"config names {config['command']!r}, "
                                       f"invoked as {command!r}")
    P = build_presentation(config)
    theta = build_theta(config, P)
    phi = build_phi(config.get("phi"), P.dimension)
    params = config.get("params", {})

    start = time.time()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        header, rows, results = HANDLERS[command](P, theta, phi, params)
    wall = time.time() - start

    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{command}.csv")
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])

    manifest = {
        "command": command,
        "csv_schema_version": CSV_SCHEMA_VERSION,
        "config": config,
        "results": {k: _fmt(v) if isinstance(v, float) else v
                    for k, v in results.items()},
        "versions": {
            "pslab": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "wall_time_s": round(wall, 3),
        "warnings": sorted({str(w.message) for w in caught}),
        "artifacts": [os.path.basename(csv_path)],
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


@click.group()
def main():
    """pslab experiment runner: JSON config in, CSV + manifest out."""


def _make_command(name):
    @click.option("--config", "config_path", required=True,
                  type=click.Path(exists=True, dir_okay=False))
    @click.option("--out", "out_dir", default=".", type=click.Path(file_okay=False))
    def _cmd(config_path, out_dir):
        try:
            with open(config_path, encoding="utf-8") as fh:
                config = json.load(fh)
        except ValueError as exc:  # not UTF-8, not JSON, or an integer too long to read
            click.echo(json.dumps({"error": "ConfigInvalid", "path": "(root)",
                                   "message": str(exc)}), err=True)
            raise SystemExit(2)
        try:
            manifest = execute(name, config, out_dir)
        except ConfigInvalid as exc:
            click.echo(json.dumps({"error": "ConfigInvalid", "path": exc.path,
                                   "message": exc.reason}), err=True)
            raise SystemExit(2)
        except PslabError as exc:
            click.echo(json.dumps({"error": type(exc).__name__,
                                   "message": str(exc)}), err=True)
            raise SystemExit(3)
        summary = {k: v for k, v in manifest["results"].items()
                   if not isinstance(v, (list, dict))}
        click.echo(json.dumps({"command": name, "results": summary}))

    _cmd.__name__ = name.replace("-", "_")
    return main.command(name=name)(_cmd)


for _name in HANDLERS:
    _make_command(_name)


if __name__ == "__main__":
    main()
