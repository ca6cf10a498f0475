"""End-to-end quantitative checks on the shipped presets.

Slow by design: several tests enumerate deep word balls.  Frozen reference
values were produced by independent oracle scripts and are asserted with the
tolerances they were validated at.
"""

import functools
import hashlib
import itertools
import json
import os

import numpy as np
import pytest

from pslab import (
    asymptotics,
    cartan,
    cli,
    cocycle,
    hilbert,
    matgroup,
    patterson,
    presets,
)
from conftest import random_sl2
from identities import apply_matrix, exterior_power_rep, gromov_product, hat_iota, make_flag
from words import random_words

ALPHA1_2 = cartan.Functional.alpha(1, 2)


def spliced_kappa(A, A_inv):
    """The Cartan projection that the commands compute, of one product and its inverse product."""
    return matgroup.batch_kappa(A[None], A_inv[None])[0]


@functools.lru_cache(maxsize=None)
def schottky_delta_hat():
    P = presets.fuchsian_schottky(1.6)
    return patterson.critical_exponent(P, ALPHA1_2, 12, (1,)).delta_hat


# -- 1: algebraic identities over random words --------------------------------

def test_identity_suite():
    rng = np.random.default_rng(2024)
    total = 0
    for P in (presets.sl2_mild(), presets.sl3_mild(), presets.sl4_mild()):
        d = P.dimension
        theta = cartan.full_theta(d)
        words = random_words(P.rank, 400, 12, rng)
        short = random_words(P.rank, 400, 3, rng)
        F = make_flag(theta, rng.normal(size=(d, d)))
        G = make_flag(theta, rng.normal(size=(d, d)))
        for w, v in zip(words, short):
            A = P.word_matrix(w)
            A_inv = P.word_matrix(matgroup.invert_word(w))
            B = P.word_matrix(v)
            B_inv = P.word_matrix(matgroup.invert_word(v))
            kA = spliced_kappa(A, A_inv)

            # kappa of the inverse is minus the reversed vector
            assert np.max(np.abs(spliced_kappa(A_inv, A) + hat_iota(kA))) < 1e-9

            # Jordan projection is homogeneous under powers (relative)
            nu = cartan.jordan_spliced(A, A_inv)
            nu3 = cartan.jordan_spliced(
                np.linalg.matrix_power(A, 3), np.linalg.matrix_power(A_inv, 3))
            scale = max(1.0, float(np.max(np.abs(3.0 * nu))))
            assert np.max(np.abs(nu3 - 3.0 * nu)) < 1e-6 * scale

            # and conjugation-invariant
            nu_conj = cartan.jordan_spliced(B @ A @ B_inv, B @ A_inv @ B_inv)
            assert np.max(np.abs(nu_conj - nu)) < 1e-8

            # Iwasawa cocycle identity
            lhs = cocycle.iwasawa(A @ B, F)
            rhs = cocycle.iwasawa(A, apply_matrix(B, F)) + cocycle.iwasawa(B, F)
            assert np.max(np.abs(lhs - rhs)) < 1e-8

            # Gromov product under the diagonal action
            glhs = gromov_product(
                apply_matrix(A, F), apply_matrix(A, G)
            ) - gromov_product(F, G)
            grhs = -cocycle.iwasawa(A, F) + hat_iota(cocycle.iwasawa(A, G))
            assert np.max(np.abs(glhs - grhs)) < 1e-8

            # omega_k subadditivity under products
            kB = spliced_kappa(B, B_inv)
            kAB = spliced_kappa(A @ B, B_inv @ A_inv)
            for k in range(1, d):
                assert kAB[:k].sum() <= kA[:k].sum() + kB[:k].sum() + 1e-9
            total += 1
    assert total >= 1000


# -- 2: exterior-power compatibility ------------------------------------------

def test_exterior_power_identity():
    P = presets.sl4_mild()
    rng = np.random.default_rng(7)
    a2 = cartan.Functional.alpha(2, 4)
    a1 = cartan.Functional.alpha(1, 6)
    for w in random_words(2, 500, 8, rng):
        A = P.word_matrix(w)
        A_inv = P.word_matrix(matgroup.invert_word(w))
        lhs = a2(spliced_kappa(A, A_inv))
        rhs = a1(spliced_kappa(exterior_power_rep(A, 2), exterior_power_rep(A_inv, 2)))
        assert abs(lhs - rhs) < 1e-9

    # regression comparison on a presentation whose alpha_2 gap grows
    # uniformly, so the certified window is nondegenerate
    S = presets.sym_power_presentation(presets.fuchsian_schottky(1.6), 4)
    S6 = matgroup.GroupPresentation(
        6, [exterior_power_rep(g, 2) for g in S.generators])
    est4 = patterson.critical_exponent(S, a2, 7)
    est6 = patterson.critical_exponent(S6, a1, 7)
    assert abs(est4.delta_hat - est6.delta_hat) < 1e-6


# -- 3: hyperbolic-plane compatibility ----------------------------------------

def test_hyperbolic_compatibility():
    a1 = cartan.Functional.alpha(1, 3)
    # the hyperboloid lift of the orbit point B b0 has last coordinate cosh d(b0, B b0)
    fam = hilbert.KleinFamily(presets.sl2_mild(), "so")
    for B in random_sl2(500, seed=11):
        sym = matgroup.symmetric_power_rep(B, 3)
        sym_inv = matgroup.symmetric_power_rep(np.linalg.inv(B), 3)
        dist = np.arccosh(max(np.trace(B.T @ B) / 2.0, 1.0))
        assert abs(a1(spliced_kappa(sym, sym_inv)) - dist) < 1e-8
        assert abs(np.arccosh(max(fam.lifted_orbit(B)[2], 1.0)) - dist) < 1e-8


# -- 4 and 5: reference critical exponents ------------------------------------

def test_parabolic_critical_exponent():
    est = patterson.critical_exponent(presets.parabolic(), ALPHA1_2, 1000, (1,))
    assert abs(est.delta_hat - 0.5) <= 0.05


def test_fuchsian_exponent_bound():
    for s in presets.FUCHSIAN_SCHOTTKY_PARAMS:
        P = presets.fuchsian_schottky(s)
        est = patterson.critical_exponent(P, ALPHA1_2, 9, (1,))
        assert 0.0 < est.delta_hat <= 1.05


# -- 6: entropy drop for subgroups --------------------------------------------

def test_entropy_drop():
    P = presets.fuchsian_schottky(1.6)
    for words in ([[1]], [[1], [2, 1, -2]]):
        report = patterson.entropy_drop_experiment(P, words, ALPHA1_2, 8, (1,))
        assert report["gap"] > 0.05
        assert report["limit_set_separation"] > 0.0


# -- 7: shadow mass ratios ----------------------------------------------------

def test_shadow_lemma_spread():
    P = presets.fuchsian_schottky(1.6)
    delta = schottky_delta_hat()
    assert abs(delta - 0.30764260671045124) < 1e-6

    s = 1.01 * delta
    mu = patterson.patterson_measure(P, ALPHA1_2, s, 12, (1,), delta_hat=delta)
    mu = patterson.outer_sphere_restriction(mu)
    r0, eps0 = hilbert.shadow_constants(P, mu, 3, "so")
    r = 2.0 * r0
    report = hilbert.shadow_measure_check(P, mu, ALPHA1_2, delta, r, 8, "so", (1,))

    spreads = [row.spread for row in report.rows if 4 <= row.sphere <= 8]
    assert len(spreads) == 5
    assert all(np.isfinite(sp) and sp <= 100.0 for sp in spreads)
    # no monotone growth across the deep spheres
    assert any(b <= a for a, b in zip(spreads, spreads[1:]))
    assert report.spread <= np.exp(2.0 * r * delta) / eps0


# -- 8: closed-geodesic counting ----------------------------------------------

def brute_force_class_lengths(P, n):
    """Independent enumeration: cyclic classes of reduced words, length <= n."""
    letters = [1, -1, 2, -2]
    classes = {}
    for length in range(1, n + 1):
        for word in itertools.product(letters, repeat=length):
            if any(word[i] == -word[i + 1] for i in range(length - 1)):
                continue
            if length >= 2 and word[0] == -word[-1]:
                continue
            canon = min(word[i:] + word[:i] for i in range(length))
            if canon in classes:
                continue
            M = np.eye(2)
            for letter in word:
                g = P.generators[abs(letter) - 1]
                M = M @ (g if letter > 0 else np.linalg.inv(g))
            lam = np.max(np.abs(np.linalg.eigvals(M)))
            classes[canon] = 2.0 * np.log(lam)
    return classes


def test_counting_oracle_and_growth_rate():
    P = presets.fuchsian_schottky(1.6)
    delta = schottky_delta_hat()

    oracle = brute_force_class_lengths(P, 6)
    lengths = np.sort(np.array(list(oracle.values())))
    word_lens = np.array([len(w) for w in oracle])
    t_cert = 6.0 * float(np.min(np.array(list(oracle.values())) / word_lens))
    distinct = np.unique(np.round(lengths[lengths <= t_cert], 9))
    t_values = np.concatenate([[distinct[0] / 2.0],
                               (distinct[:-1] + distinct[1:]) / 2.0])
    # the last row of a table is at T = t_max: one table per step of the staircase
    rows = [asymptotics.count_closed_geodesics(P, ALPHA1_2, T, n_max=6, theta=(1,),
                                               delta_hat=delta).rows[-1]
            for T in t_values]
    for row, T in zip(rows, t_values):
        assert row.T == T
        assert row.certified
        expected = int(np.count_nonzero(lengths <= row.T))
        assert row.count == expected  # exact, zero tolerance
        if row.count > 0:
            assert np.isfinite(row.ratio) and row.ratio > 0.0

    deep = asymptotics.count_closed_geodesics(
        P, ALPHA1_2, 40.0, n_max=12, theta=(1,), delta_hat=delta)
    t_star = deep.t_certified
    certified = [row for row in deep.rows if row.certified and row.count > 0]
    best = max(certified, key=lambda row: row.T)
    assert abs(np.log(best.count) / best.T - delta) <= 0.1
    assert t_star > 0.0


# -- 9: box dimension against the exponent ------------------------------------

def test_dimension_comparison():
    P = presets.schottky_so21()
    report = asymptotics.hausdorff_vs_exponent_experiment(P, 10)
    assert abs(report["delta_hat"] - report["box_dimension"]) <= 0.1


def test_dimension_cantor_control():
    # unit vectors at angles x, x in the middle-thirds Cantor set: the sine
    # of an angle below 0.1 is the angle within 0.2%
    digits = np.array(list(itertools.product([0, 2], repeat=12)), dtype=float)
    angles = digits @ 3.0 ** -np.arange(1, 13)
    points = np.c_[np.cos(angles), np.sin(angles)]
    box = asymptotics.box_counting_dimension(points, np.geomspace(0.1, 0.001, 8))
    assert abs(box.dimension - np.log(2.0) / np.log(3.0)) <= 0.05


# -- 10: concavity of the normalized exponent ---------------------------------

def test_concavity_along_segment():
    P = presets.sl3_zariski_dense()
    a1 = cartan.Functional.alpha(1, 3)
    a2 = cartan.Functional.alpha(2, 3)
    lambdas = [round(0.1 * i, 1) for i in range(1, 10)]
    report = patterson.concavity_experiment(P, a1, a2, lambdas, 9, (1, 2))
    for row in report["rows"]:
        assert row["delta_hat"] <= 1.05


# -- 11: determinism of the shipped configs -----------------------------------

def test_shipped_configs_deterministic(tmp_path):
    root = os.path.join(os.path.dirname(__file__), "..")
    cfg_dir = os.path.join(root, "configs")
    # the seed-0 CSV hashes the benchmark checks; read here, never written
    with open(os.path.join(root, "perfbench", "expected_csv_sha256.json")) as fh:
        expected = json.load(fh)
    names = sorted(f for f in os.listdir(cfg_dir) if f.endswith(".json"))
    for name in names:
        with open(os.path.join(cfg_dir, name)) as fh:
            config = json.load(fh)
        command = config["command"]
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / f"{command}-{run}"
            cli.execute(command, config, str(out))
            outputs.append((out / f"{command}.csv").read_bytes())
        assert outputs[0] == outputs[1], f"{name} not deterministic"
        assert hashlib.sha256(outputs[0]).hexdigest() == expected[command], \
            f"{name} CSV bytes moved"
