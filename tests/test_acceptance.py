"""Acceptance gate: every criterion from the build contract, one test each.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in captured
output).  The heavy scans are session fixtures shared between criteria.
"""

import json
import time

import numpy as np
import pytest

from conftest import g_oracle

from nonsig.behavior import (
    _correlators_from_tables,
    _tables_from_correlators,
    named,
    random_correlator_vectors,
)
from nonsig.boundary import (
    FeasibleSet,
    ScanConfig,
    ScanMode,
    _info_from_x,
    info_gradient,
    scan,
)
from nonsig.cli import dispatch
from nonsig.curves import curve_value
from nonsig.functionals import _mi_tables, _s_max_ab, mutual_information, s_max
from nonsig.membership import _arcsin_margin, normalized_covariance
from nonsig.quantum import _born_tables, _random_bloch, sample_tables

SEED = 1719
TSIRELSON = 2 * np.sqrt(2)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[acceptance {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# shared heavy artifacts


@pytest.fixture(scope="session")
def ns_max_full():
    cfg = ScanConfig(set=FeasibleSet.NS, mode=ScanMode.MAX, s_lo=0.0, s_hi=4.0,
                     grid_points=200, restarts=50, seed=SEED)
    t0 = time.time()
    curve = scan(cfg)
    return curve, time.time() - t0


@pytest.fixture(scope="session")
def ns_min_tail():
    cfg = ScanConfig(set=FeasibleSet.NS, mode=ScanMode.MIN, s_lo=TSIRELSON, s_hi=4.0,
                     grid_points=100, restarts=50, seed=SEED + 1)
    t0 = time.time()
    curve = scan(cfg)
    return curve, time.time() - t0


@pytest.fixture(scope="session")
def quad_scans():
    out = {}
    for set_ in (FeasibleSet.NS, FeasibleSet.SYM):
        for mode in (ScanMode.MIN, ScanMode.MAX):
            cfg = ScanConfig(set=set_, mode=mode, s_lo=2.0, s_hi=4.0, grid_points=100,
                             restarts=30, seed=SEED + 2)
            out[(set_.value, mode.value)] = scan(cfg)
    return out


@pytest.fixture(scope="session")
def quantum_cloud():
    return sample_tables(100_000, seed=SEED + 3)


@pytest.fixture(scope="session")
def fig6_runs(tmp_path_factory):
    runs = {}
    for points in (800, 2000):
        outdir = tmp_path_factory.mktemp(f"fig6_{points}")
        rc = dispatch(["repro", "fig6", "--seed", str(SEED + 4), "--points", str(points),
                       "--outdir", str(outdir)])
        assert rc == 0
        runs[points] = json.loads((outdir / "fig6_inflection.json").read_text())
    return runs


@pytest.fixture(scope="session")
def fig7_run(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("fig7")
    rc = dispatch(["repro", "fig7", "--seed", str(SEED + 5), "--outdir", str(outdir)])
    assert rc == 0
    return json.loads((outdir / "fig7_kinks.json").read_text())


def _curve_ab_stack(*curves):
    vecs = np.concatenate([c.argopt_vectors() for c in curves])
    return vecs[:, 4:].reshape(-1, 2, 2)


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_exact_points():
    cases = [
        ("pr", 4.0, 1.0),
        ("sc_tilde", 2.0, 1.0),
        ("ld_allones", 2.0, 0.0),
        ("noise", 0.0, 0.0),
        ("bell", TSIRELSON, 4 * g_oracle(1 / np.sqrt(2))),
    ]
    worst = 0.0
    for tag, s_ref, i_ref in cases:
        b = named(tag)
        worst = max(worst, abs(s_max(b) - s_ref), abs(mutual_information(b) - i_ref))
    _report(1, worst <= 1e-10, f"named (S, I) points exact, worst deviation {worst:.2e}")


def test_criterion_2_qtilde_cap(ns_max_full, ns_min_tail, quad_scans):
    t0 = time.time()
    n = 1_000_000
    vecs = random_correlator_vectors(n, np.random.default_rng([SEED + 6]))
    ab = vecs[:, 4:].reshape(-1, 2, 2)
    scan_ab = _curve_ab_stack(ns_max_full[0], ns_min_tail[0], *quad_scans.values())
    all_ab = np.concatenate([ab, scan_ab])
    passing = _arcsin_margin(all_ab) <= np.pi + 1e-9
    smax = _s_max_ab(all_ab)
    violators = int(np.sum(passing & (smax > TSIRELSON + 1e-6)))
    elapsed = time.time() - t0
    _report(
        2,
        violators == 0,
        f"no arcsin-passing behavior above 2*sqrt(2)+1e-6 over {len(all_ab)} "
        f"behaviors ({elapsed:.0f}s, target < 120s)",
    )


def test_criterion_3_scan_curve_agreement(ns_max_full, ns_min_tail):
    curve_max, t_max = ns_max_full
    curve_min, t_min = ns_min_tail
    err_max = max(abs(p.i - curve_value("ns_max", p.s)) for p in curve_max.points)
    err_min = max(abs(p.i - curve_value("bell_pr_min", p.s)) for p in curve_min.points)
    ok = err_max <= 2e-3 and err_min <= 2e-3
    _report(
        3,
        ok,
        f"NS MAX 200pt vs closed form err {err_max:.2e}, NS MIN 100pt vs "
        f"Bell-PR segment err {err_min:.2e} (tol 2e-3; {t_max + t_min:.0f}s, target < 600s)",
    )


def test_criterion_4_sym_sufficiency(quad_scans):
    err_min = np.max(np.abs(quad_scans[("ns", "min")].i - quad_scans[("sym", "min")].i))
    err_max = np.max(np.abs(quad_scans[("ns", "max")].i - quad_scans[("sym", "max")].i))
    ok = err_min <= 2e-3 and err_max <= 2e-3
    _report(4, ok, f"NS vs SYM pointwise: MIN err {err_min:.2e}, MAX err {err_max:.2e} (tol 2e-3)")


def _entangled_zero_marginal_tables(n: int, seed: int) -> np.ndarray:
    """Haar-rotated maximally entangled states with random measurements; the
    marginals vanish identically, exercising the correlation-space bound."""
    rng = np.random.default_rng([seed, 77])

    def haar2(m):
        z = (rng.standard_normal((m, 2, 2)) + 1j * rng.standard_normal((m, 2, 2))) / np.sqrt(2)
        q, r = np.linalg.qr(z)
        d = np.einsum("mii->mi", r)
        return q * (d / np.abs(d))[:, None, :]

    u, v = haar2(n), haar2(n)
    phi = np.zeros((n, 2, 2), dtype=complex)
    phi[:, 0, 0] = phi[:, 1, 1] = 1 / np.sqrt(2)
    psi = np.einsum("nij,njk,nlk->nil", u, phi, v)
    return _born_tables(psi.reshape(n, 4), _random_bloch(n, rng), _random_bloch(n, rng))


def test_criterion_5_quantum_dominance(quantum_cloud):
    a, b, ab = _correlators_from_tables(quantum_cloud)
    smax = _s_max_ab(ab)
    ok_tsirelson = bool(smax.max() <= TSIRELSON + 1e-9)

    degen = (np.abs(a).max(axis=1) >= 1 - 1e-9) | (np.abs(b).max(axis=1) >= 1 - 1e-9)
    f = normalized_covariance(a, b, ab)
    npa1_margin = _arcsin_margin(f)
    ok_npa1 = bool(np.all(degen | (npa1_margin <= np.pi + 1e-9)))

    def under_qc(tables, tag):
        aa, bb, cc = _correlators_from_tables(tables)
        near = (np.abs(aa).max(axis=1) < 1e-6) & (np.abs(bb).max(axis=1) < 1e-6)
        if not near.any():
            return True, f"{tag}: no near-zero-marginal samples"
        ii = _mi_tables(tables[near])
        ss = np.maximum(_s_max_ab(cc[near]), 2.0)
        excess = ii - curve_value("qc_max", ss)
        return bool(excess.max() <= 1e-6), f"{tag}: max excess over bound {excess.max():.2e}"

    ok_cloud, msg_cloud = under_qc(quantum_cloud, "haar cloud")
    ent = _entangled_zero_marginal_tables(20_000, SEED + 8)
    ok_ent, msg_ent = under_qc(ent, "maximally entangled cloud")
    ok = ok_tsirelson and ok_npa1 and ok_cloud and ok_ent
    _report(
        5,
        ok,
        f"1e5 samples: max S {smax.max():.6f} <= Tsirelson, NPA-1 all pass, "
        f"correlation-space bound held ({msg_cloud}; {msg_ent})",
    )


def test_criterion_5_cloud_satisfies_npa1(quantum_cloud):
    """Companion to criterion 5 that bites on every sample of the Haar cloud.

    The correlation-space bound above meets no near-zero-marginal sample in
    this cloud; the NPA-1 normalized-covariance bound applies to each sample
    whose marginals are not deterministic.
    """
    a, b, ab = _correlators_from_tables(quantum_cloud)
    keep = (np.abs(a).max(axis=1) < 1 - 1e-9) & (np.abs(b).max(axis=1) < 1 - 1e-9)
    slack = np.pi - _arcsin_margin(normalized_covariance(a[keep], b[keep], ab[keep]))
    ok = keep.sum() >= 0.999 * len(a) and slack.min() >= -1e-9
    _report(
        5,
        ok,
        f"NPA-1 arcsin slack >= -1e-9 on {int(keep.sum())} of {len(a)} Haar-cloud samples "
        f"with non-degenerate marginals: min slack {slack.min():.2e}",
    )


def test_criterion_6_inflection(fig6_runs):
    est = fig6_runs[2000]
    dev = abs(est["s_star"] - TSIRELSON)
    tightened = fig6_runs[2000]["uncertainty"] < fig6_runs[800]["uncertainty"]
    dev_coarse = abs(fig6_runs[800]["s_star"] - TSIRELSON)
    ok = dev <= 0.02 and tightened and dev_coarse <= fig6_runs[800]["uncertainty"] + 1e-9
    _report(
        6,
        ok,
        f"fig6 s_star {est['s_star']:.4f} within 2*sqrt(2) +- 0.02 (dev {dev:.4f}); "
        f"band tightens with resolution ({fig6_runs[800]['uncertainty']:.3f} -> "
        f"{est['uncertainty']:.3f})",
    )


def test_criterion_7_trajectory_kink(fig7_run):
    kinks = fig7_run["kinks"]
    ok = len(kinks) == 1 and abs(kinks[0] - TSIRELSON) <= 0.02
    detail = f"fig7 kinks at {[round(k, 4) for k in kinks]} (expect one at {TSIRELSON:.4f} +- 0.02)"
    _report(7, ok, detail)


def test_criterion_8_property_suites(ns_max_full):
    rng = np.random.default_rng([SEED + 9])
    # correlator round trip at 1e-14
    vecs = random_correlator_vectors(100_000, rng)
    a, b, ab = vecs[:, :2], vecs[:, 2:4], vecs[:, 4:].reshape(-1, 2, 2)
    tables = _tables_from_correlators(a, b, ab)
    a2, b2, ab2 = _correlators_from_tables(tables)
    roundtrip = max(
        np.abs(a2 - a).max(), np.abs(b2 - b).max(), np.abs(ab2 - ab).max()
    )
    ok_round = roundtrip <= 1e-14

    # I in [0, 1] and S-orbit invariance on 1e5 random behaviors
    ii = _mi_tables(tables)
    ok_range = bool(np.all((ii >= -1e-12) & (ii <= 1 + 1e-12)))
    smax = _s_max_ab(ab)
    orbit_dev = 0.0
    from nonsig.behavior import _FLIP_PATTERNS

    for eps, delta in _FLIP_PATTERNS[1:]:
        ab_r = ab * np.outer(eps, delta)
        orbit_dev = max(orbit_dev, np.abs(_s_max_ab(ab_r) - smax).max())
        i_r = _mi_tables(_tables_from_correlators(a * eps, b * delta, ab_r))
        orbit_dev = max(orbit_dev, np.abs(i_r - ii).max())
    ok_orbit = orbit_dev <= 1e-12

    # two evaluation paths agree on the correlation space
    ab_c = rng.uniform(-1, 1, size=(10_000, 2, 2))
    zeros = np.zeros((10_000, 2))
    tables_c = _tables_from_correlators(zeros, zeros, ab_c)
    from nonsig.functionals import g

    two_path = np.abs(_mi_tables(tables_c) - g(ab_c).sum(axis=(1, 2))).max()
    ok_two_path = two_path <= 1e-12

    # solver gradient vs central finite differences
    pts = 0.9 * random_correlator_vectors(100, rng)
    worst_rel = 0.0
    for v in pts:
        grad = info_gradient(v)
        fd = np.zeros(8)
        for k in range(8):
            vp, vm = v.copy(), v.copy()
            vp[k] += 1e-6
            vm[k] -= 1e-6
            fd[k] = (_info_from_x(vp[None])[0] - _info_from_x(vm[None])[0]) / 2e-6
        worst_rel = max(worst_rel, np.linalg.norm(grad - fd) / np.linalg.norm(fd))
    ok_grad = worst_rel <= 1e-5

    # membership implication chain with zero violations
    degen = (np.abs(a).max(axis=1) >= 1 - 1e-9) | (np.abs(b).max(axis=1) >= 1 - 1e-9)
    local = smax <= 2 + 1e-9
    npa1 = degen | (_arcsin_margin(normalized_covariance(a, b, ab)) <= np.pi + 1e-9)
    qtilde = _arcsin_margin(ab) <= np.pi + 1e-9
    chain_viol = int(np.sum(local & ~npa1) + np.sum(npa1 & ~qtilde))
    ok_chain = chain_viol == 0

    ok = ok_round and ok_range and ok_orbit and ok_two_path and ok_grad and ok_chain
    _report(
        8,
        ok,
        f"roundtrip {roundtrip:.1e} (1e-14), I range ok={ok_range}, orbit dev "
        f"{orbit_dev:.1e} (1e-12), two-path {two_path:.1e} (1e-12), grad rel "
        f"{worst_rel:.1e} (1e-5), chain violations {chain_viol}",
    )


def test_criterion_9_repro_determinism(tmp_path):
    specs = {
        "fig3": ["--points", "6", "--restarts", "4"],
        "fig4": ["--points", "40", "--restarts", "6"],
        "fig5": ["--n", "1000"],
        "fig6": ["--points", "150", "--k", "10", "--restarts", "4"],
        "fig7": ["--points", "120", "--k", "20", "--restarts", "4"],
    }
    mismatches = []
    for recipe, extra in specs.items():
        digests = []
        for run in (1, 2):
            outdir = tmp_path / f"{recipe}_{run}"
            rc = dispatch(["repro", recipe, "--seed", "99", "--outdir", str(outdir)] + extra)
            assert rc in (0, 2), f"{recipe} exited {rc}"
            csvs = sorted(p.name for p in outdir.glob("*.csv"))
            assert csvs, f"{recipe} wrote no CSV output"
            digests.append({name: (outdir / name).read_bytes() for name in csvs})
        if digests[0] != digests[1]:
            mismatches.append(recipe)
    _report(
        9,
        not mismatches,
        f"byte-identical CSVs for repeated recipes {sorted(specs)} (mismatches: {mismatches})",
    )
