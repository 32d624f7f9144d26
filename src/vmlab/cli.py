"""Command-line entry point.

Subcommands:
  simulate         run a scenario file, write diagnostics + snapshots + manifest
  verify           run inequality/identity suites, print JSON records
  fields-compare   reconstruct fields from a stored run history at probe
                   points and compare against the grid solver
  strichartz-check admissibility arithmetic for wave mixed-norm exponents

Exit codes: 0 success, 1 assertion/check failure, 2 usage or config error,
3 missing inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import sys
import time
from collections.abc import Callable
from fractions import Fraction

import numpy as np

from . import __version__
from . import inequalities as ineq
from . import maxwell as mx
from . import pic, retarded
from .phase import IneqReport, save_ensemble

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_MISSING = 3


def _config_hash(scn: pic.Scenario) -> str:
    canon = json.dumps(scn.to_canonical_dict(), sort_keys=True,
                       separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _write_manifest(out_dir, scn, outputs, t0, t1):
    manifest = {
        "config_hash": _config_hash(scn),
        "mode": scn.mode,
        "seed": scn.seed,
        "code_version": __version__,
        "wall_time_start": t0,
        "wall_time_end": t1,
        "outputs": sorted(outputs),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _bad_out_file(path) -> bool:
    """Whether a report file cannot be written at ``path``, which is then
    said on stderr; checked before any work is done."""
    folder = os.path.dirname(path) or "."
    why = ("is a directory" if os.path.isdir(path) else
           None if os.path.isdir(folder) else f"no directory {folder}")
    if why:
        print(f"error: --out {path}: {why}", file=sys.stderr)
    return why is not None


def cmd_simulate(args) -> int:
    try:
        scn = pic.load_scenario(args.scenario)
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.dt is not None:
            overrides["dt"] = args.dt
        if args.grid is not None:
            overrides["grid_n"] = args.grid
        if overrides:
            cfg = scn.to_canonical_dict()
            cfg.update(overrides)
            scn = pic.scenario_from_dict(cfg, path=args.scenario)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    out_dir = args.out or "."
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        print(f"error: --out {out_dir}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    t0 = time.time()
    try:
        # a floating-point fault ends the run as a non-finite state does
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            result = pic.run(scn)
    except (ValueError, FloatingPointError) as exc:
        print(f"error: run aborted: {exc}", file=sys.stderr)
        return EXIT_FAIL
    t1 = time.time()

    outputs = []
    diag = os.path.join(out_dir, "diagnostics.csv")
    result.series.save_csv(diag)
    outputs.append("diagnostics.csv")
    save_ensemble(result.ensemble, os.path.join(out_dir, "ensemble.csv"))
    outputs.append("ensemble.csv")
    # the clock of the last step, which the last diagnostics row holds
    mx.save_field(result.fields, result.series.column("time")[-1],
                  os.path.join(out_dir, "fields.csv"))
    outputs.append("fields.csv")
    if result.history is not None:
        result.history.save_npz(os.path.join(out_dir, "history.npz"))
        outputs.append("history.npz")
    with open(os.path.join(out_dir, "scenario.json"), "w") as fh:
        json.dump(scn.to_canonical_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    outputs.append("scenario.json")
    outputs.append("manifest.json")
    _write_manifest(out_dir, scn, outputs, t0, t1)

    report = pic.conservation_report(result)
    for key, val in sorted(report.items()):
        print(f"{key}: {val:.6g}")
    return EXIT_OK


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def _suite_identities(seed, count) -> tuple[list[IneqReport], bool]:
    reports = [ineq.flux_identity_suite(seed, count),
               ineq.null_coordinate_identity(seed, count)]
    return reports, all(r.passed for r in reports)


def _suite_geometry(seed, count) -> tuple[list[IneqReport], bool]:
    reports = list(ineq.geometry_bounds_check(seed, count).values())
    return reports, all(r.passed for r in reports)


def _suite_singular(seed, count) -> tuple[list[IneqReport], bool]:
    sweep = 1.0 - np.geomspace(1e-8, 1.0, 24)
    rng = np.random.default_rng(seed)
    reports = []
    for k in range(4):
        a = 7.0 + 4.0 * rng.random()
        c = 0.5 + rng.random()
        reports.append(ineq.singular_integral_lemma_check(
            lambda rho, a=a, c=c: (c + rho ** 2) ** (-a / 2.0), sweep,
            mode="2d"))
    for k in range(2):
        a = 8.0 + 4.0 * rng.random()
        b = 8.0 + 2.0 * rng.random()
        reports.append(ineq.singular_integral_lemma_check(
            (lambda rho, a=a: (1.0 + rho ** 2) ** (-a / 2.0),
             lambda p3, b=b: (1.0 + p3 ** 2) ** (-b / 2.0)), sweep,
            mode="2.5d"))
    return reports, all(r.passed for r in reports)


def _suite_interpolation(seed, count) -> tuple[list[IneqReport], bool]:
    rng = np.random.default_rng(seed)
    profiles = []
    for _ in range(4):
        a = 8.0 + 6.0 * rng.random()
        s = 0.5 + rng.random()
        profiles.append(
            lambda x, p, a=a, s=s: np.exp(-np.sum(x * x, axis=1) / (2 * s * s))[:, None]
            * (1.0 + np.sum(p * p, axis=1)[None, :]) ** (-a / 2.0))
    configs = [dict(S=1.0, M=2.0, q=4.0 / 3.0, d_p=2),
               dict(S=0.5, M=3.0, q=2.0, d_p=2),
               dict(S=2.0, M=2.0, q=1.0, d_p=2)]
    reports = ineq.interpolation_suite(profiles, configs)
    return reports, all(r.passed for r in reports)


def _suite_gronwall(seed, count) -> tuple[list[IneqReport], bool]:
    reports = [
        ineq.gronwall_check(lambda t: 1.0, 1.0, 3.0),
        ineq.gronwall_check(lambda t: 1.0 + t, 2.0, 3.0, n_grid=3000),
        ineq.gronwall_check(lambda t: 0.5 + 0.1 * t * t, 1.5, 2.0, n_grid=3000),
        ineq.gronwall_check(lambda t: 2.0, 3.0, 1.5, n_grid=3000),
    ]
    return reports, all(r.passed for r in reports)


def _suite_strichartz(seed, count) -> tuple[list[IneqReport], bool]:
    sets = {
        "moment_closure": (Fraction(336, 19), Fraction(32, 5),
                           Fraction(112, 31), Fraction(96, 17)),
        "force_term": (Fraction(72, 13), Fraction(16), Fraction(72, 11),
                       Fraction(48, 13)),
    }
    reports = []
    for name, exps in sets.items():
        reports.append(IneqReport(
            name=f"strichartz.{name}", n_samples=1, max_ratio=0.0,
            witness=[str(e) for e in exps],
            passed=ineq.strichartz_admissible(*exps)[0]))
    return reports, all(r.passed for r in reports)


def _suites() -> dict[str, Callable[[int, int],
                                    tuple[list[IneqReport], bool]]]:
    """Suite name -> function, looked up at each call, so that a wrapped
    ``_suite_*`` is the one that runs."""
    return {"identities": _suite_identities, "geometry": _suite_geometry,
            "singular": _suite_singular, "interpolation": _suite_interpolation,
            "gronwall": _suite_gronwall, "strichartz": _suite_strichartz}


def cmd_verify(args) -> int:
    suites = _suites()
    if args.suite != "all" and args.suite not in suites:
        print(f"error: unknown suite {args.suite!r}; choose from "
              f"{(*suites, 'all')}", file=sys.stderr)
        return EXIT_USAGE
    if args.count < 3:
        # flux_identity_suite checks a third of its draws on the planar ansatz
        print(f"error: --count must be at least 3, got {args.count}",
              file=sys.stderr)
        return EXIT_USAGE
    if args.seed < 0:
        print(f"error: --seed must be nonnegative, got {args.seed}",
              file=sys.stderr)
        return EXIT_USAGE
    if args.out and _bad_out_file(args.out):
        return EXIT_USAGE
    names = list(suites) if args.suite == "all" else [args.suite]
    all_ok = True
    records = []
    for name in names:
        reports, ok = suites[name](args.seed, args.count)
        all_ok = all_ok and ok
        for rep in reports:
            records.append(rep.to_dict())
    for rec in records:
        print(json.dumps(rec, sort_keys=True))
    print()
    print(f"{'check':40s} {'samples':>9s} {'max ratio':>12s} {'pass':>5s}")
    for rec in records:
        print(f"{rec['name']:40s} {rec['n_samples']:9d} "
              f"{rec['max_ratio']:12.4g} {str(rec['passed']):>5s}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(records, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK if all_ok else EXIT_FAIL


# --------------------------------------------------------------------------
# fields-compare
# --------------------------------------------------------------------------


def _probe_points(probes) -> list:
    """(t, x) of each probe record; raises ValueError naming the bad record
    and key."""
    if not isinstance(probes, list):
        raise ValueError("probes file must hold a JSON list of {t, x} records")
    out = []
    for i, pr in enumerate(probes):
        if not isinstance(pr, dict):
            raise ValueError(f"probe {i}: must be an object with keys t and x")
        if not pic.finite_number(pr.get("t")):
            raise ValueError(f"probe {i}: t must be a finite number, "
                             f"got {pr.get('t')!r}")
        x = pr.get("x")
        if not (isinstance(x, list) and len(x) == 2
                and all(map(pic.finite_number, x))):
            raise ValueError(f"probe {i}: x must be a list of 2 finite "
                             f"numbers, got {x!r}")
        out.append((float(pr["t"]), [float(v) for v in x]))
    return out


def cmd_fields_compare(args) -> int:
    if args.out and _bad_out_file(args.out):
        return EXIT_USAGE
    hist_path = os.path.join(args.rundir, "history.npz")
    if not os.path.exists(hist_path):
        print(f"error: no history.npz in {args.rundir}", file=sys.stderr)
        return EXIT_MISSING
    if not os.path.exists(args.probes):
        print(f"error: probes file {args.probes} not found", file=sys.stderr)
        return EXIT_MISSING
    try:
        with open(args.probes) as fh:
            probes = _probe_points(json.load(fh))
    except (ValueError, OSError) as exc:
        print(f"error: {args.probes}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        history = pic.RunHistory.load_npz(hist_path)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    # Probes sharing a t are reconstructed in one call.
    t_max = history.times.max()
    by_t = {}
    for i, (t, _) in enumerate(probes):
        if -retarded.TIME_MATCH <= t <= t_max + retarded.TIME_MATCH:
            by_t.setdefault(t, []).append(i)
    reports = {}
    try:
        for t, rows in by_t.items():
            reps = retarded.field_from_representation(
                history, t, [probes[i][1] for i in rows])
            reports.update(zip(rows, reps))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    records = [reports[i].to_dict() if i in reports else
               {"t": t, "x": x, "warning": "probe time outside stored history"}
               for i, (t, x) in enumerate(probes)]
    rel = retarded.relative_l2_error(reports[i] for i in sorted(reports))
    summary = {"n_probes": len(probes), "relative_l2_error": rel}
    out = {"summary": summary, "probes": records}
    text = json.dumps(out, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    print(json.dumps(summary, sort_keys=True))
    for rec in records:
        if "warning" in rec:
            print(f"warning: probe t={rec['t']} x={rec['x']}: {rec['warning']}")
    return EXIT_OK


# --------------------------------------------------------------------------
# strichartz-check
# --------------------------------------------------------------------------


def _parse_exponent(text: str):
    if text in ("inf", "infinity"):
        return math.inf
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational or 'inf': {text!r}")


def cmd_strichartz_check(args) -> int:
    ok, violated = ineq.strichartz_admissible(args.q1, args.r1, args.q2,
                                              args.r2)
    verdict = "admissible" if ok else "inadmissible"
    print(json.dumps({"q1": str(args.q1), "r1": str(args.r1),
                      "q2": str(args.q2), "r2": str(args.r2),
                      "verdict": verdict, "violated": violated},
                     sort_keys=True))
    return EXIT_OK if ok else EXIT_FAIL


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="vmlab",
                                description="planar relativistic "
                                "Vlasov-Maxwell laboratory")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("simulate", help="run a scenario")
    ps.add_argument("scenario", help="scenario JSON file")
    ps.add_argument("--out", default=None, help="output directory")
    ps.add_argument("--seed", type=int, default=None)
    ps.add_argument("--dt", type=float, default=None)
    ps.add_argument("--grid", type=int, default=None)
    ps.set_defaults(func=cmd_simulate)

    pv = sub.add_parser("verify", help="run verification suites")
    pv.add_argument("suite", help=f"one of {(*_suites(), 'all')}")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--count", type=int, default=100_000,
                    help="samples per suite, at least 3")
    pv.add_argument("--out", default=None, help="JSON report file")
    pv.set_defaults(func=cmd_verify)

    pf = sub.add_parser("fields-compare",
                        help="compare the retarded-integral reconstruction "
                        "against the grid solver")
    pf.add_argument("rundir", help="directory with history.npz")
    pf.add_argument("--probes", required=True, help="JSON probes file")
    pf.add_argument("--out", default=None, help="JSON report file")
    pf.set_defaults(func=cmd_fields_compare)

    pc = sub.add_parser("strichartz-check",
                        help="exact admissibility arithmetic")
    for name in ("q1", "r1", "q2", "r2"):
        pc.add_argument(name, type=_parse_exponent)
    pc.set_defaults(func=cmd_strichartz_check)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
