"""Command-line interface: ``repro-experiment``.

Usage::

    repro-experiment list
    repro-experiment run fig07 [--scale smoke|bench|paper] [--jobs N]
    repro-experiment run all   [--scale bench] [--cache-dir .repro-cache]
    repro-experiment run fig07 --verify[=every|sampled|commit]
    repro-experiment simulate --controller malthusian --terminals 200
    repro-experiment verify golden [--update]
    repro-experiment verify envelope [--scale smoke]

``--jobs N`` fans independent simulation runs out over N worker
processes; results are bit-identical to ``--jobs 1``.  ``--cache-dir``
enables the content-addressed on-disk result cache, so re-running a
figure (or running another figure that shares runs) is near-instant.

With ``run all``, ``--csv``/``--json`` name a *directory* and one file
per figure (``<figure_id>.csv`` / ``.json``) is written into it; with a
single figure they name the output file, as before.

Arguments are parsed before anything else is imported, and each
subcommand imports only the layers it uses: ``--help`` and argument
errors load no figure, ``run fig20`` loads one figure module, and
telemetry, verification and fault injection load only when asked for.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.errors import ReproError
from repro.experiments.figures import all_figures, get_figure

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


# `simulate --controller` choices.  Builders are resolved lazily in
# _simulate_command so parser construction stays import-light.
_CONTROLLER_CHOICES = ("hh", "fixed", "none", "tay", "malthusian",
                       "analytic")


def _add_execution_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=_positive_int, default=1,
                        metavar="N",
                        help=("run independent simulations in up to N "
                              "worker processes (default: 1, serial)"))
    parser.add_argument("--cache-dir", metavar="PATH", default=None,
                        help=("directory for the content-addressed on-disk "
                              "result cache (default: no cache)"))
    parser.add_argument("--telemetry-dir", metavar="PATH", default=None,
                        help=("export per-run telemetry (probes.jsonl, "
                              "decisions.jsonl, trace.jsonl, manifest.json, "
                              "profile.json) into PATH/<spec key>/ "
                              "(default: telemetry off)"))
    parser.add_argument("--probe-interval", type=_positive_float,
                        default=1.0, metavar="SECONDS",
                        help=("simulated seconds between telemetry probe "
                              "samples (default: 1.0; only used with "
                              "--telemetry-dir)"))
    parser.add_argument("--spans", action="store_true",
                        help=("also record per-transaction span timelines "
                              "and latency analytics (spans.jsonl, "
                              "latency.json per run; needs "
                              "--telemetry-dir; trajectory-invariant)"))
    parser.add_argument("--contention", action="store_true",
                        help=("also record per-page contention heat and "
                              "wait-for-graph statistics "
                              "(contention.jsonl, contention.json per "
                              "run; needs --telemetry-dir; "
                              "trajectory-invariant)"))
    parser.add_argument("--online", action="store_true",
                        help=("also run the streaming regime detectors "
                              "(EWMA/CUSUM) over the probe stream "
                              "(regimes.json per run plus regime_change "
                              "decision rows; needs --telemetry-dir; "
                              "trajectory-invariant)"))
    parser.add_argument("--perf", action="store_true",
                        help=("also attach the hot-path attribution "
                              "profiler (perf.json, flame.collapsed, "
                              "flame.speedscope.json, trace.json per "
                              "run; needs --telemetry-dir; "
                              "trajectory-invariant — wall-clock "
                              "artifacts only)"))
    parser.add_argument("--alloc", action="store_true",
                        help=("also capture tracemalloc allocation "
                              "sites and per-tick GC deltas inside "
                              "perf.json (needs --perf)"))
    parser.add_argument("--retries", type=int, default=0, metavar="N",
                        help=("retry each failed run up to N times with "
                              "exponential backoff (default: 0, fail "
                              "after the first attempt)"))
    parser.add_argument("--run-timeout", type=_positive_float,
                        default=None, metavar="SECONDS",
                        help=("wall-clock watchdog per run attempt; hung "
                              "workers are killed and the attempt counts "
                              "as failed (default: no timeout)"))
    parser.add_argument("--resume", action="store_true",
                        help=("resume an interrupted sweep: with "
                              "--cache-dir, completed runs are journaled "
                              "and only the remainder executes"))
    parser.add_argument("--inject", action="append", default=None,
                        metavar="KIND@INDEX[:ATTEMPTS[:DELAY]]",
                        help=("inject a deterministic harness fault at a "
                              "spec index, e.g. 'crash@1' or "
                              "'hang@0:2:1.5'; kinds: crash, hang, slow, "
                              "error, sigint; repeatable (for testing "
                              "the resilience machinery)"))
    parser.add_argument("--verify", nargs="?", const="sampled",
                        default=None, metavar="CADENCE",
                        choices=["every", "sampled", "commit"],
                        help=("run every simulation under the runtime "
                              "invariant checker and shadow lock table; "
                              "optional cadence: every, sampled "
                              "(default), or commit.  Observational: "
                              "results are bit-identical to an "
                              "unverified run, or the run fails with "
                              "the violated invariant"))
    parser.add_argument("--verify-evidence-dir", metavar="PATH",
                        default=None,
                        help=("with --verify: also write violation "
                              "evidence snapshots (JSON) into PATH"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiment",
        description=("Reproduce figures from 'Load Control for Locking: "
                     "The Half-and-Half Approach' (Carey, Krishnamurthi "
                     "& Livny, 1990)."))
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the reproducible figures")

    run_p = sub.add_parser("run", help="run one figure (or 'all')")
    run_p.add_argument("figure", help="figure id, e.g. fig07, or 'all'")
    run_p.add_argument("--scale", default="bench",
                       choices=["smoke", "bench", "paper"],
                       help="measurement scale (default: bench)")
    run_p.add_argument("--csv", metavar="PATH", default=None,
                       help=("also write the figure data as CSV (a "
                             "directory when running 'all')"))
    run_p.add_argument("--json", metavar="PATH", default=None,
                       help=("also write the figure data as JSON (a "
                             "directory when running 'all')"))
    _add_execution_flags(run_p)

    report_p = sub.add_parser(
        "report", help="run every figure and write EXPERIMENTS.md")
    report_p.add_argument("--scale", default="bench",
                          choices=["smoke", "bench", "paper"])
    report_p.add_argument("--out", default="EXPERIMENTS.md",
                          help="output path (default: EXPERIMENTS.md)")
    _add_execution_flags(report_p)

    tel_p = sub.add_parser(
        "telemetry",
        help="inspect telemetry directories written by --telemetry-dir")
    tel_sub = tel_p.add_subparsers(dest="telemetry_command", required=True)
    tel_report = tel_sub.add_parser(
        "report", help="render an ASCII dashboard for one or more runs")
    tel_report.add_argument("dir", help="a run directory or telemetry root")
    tel_validate = tel_sub.add_parser(
        "validate", help="validate manifest + JSONL streams against schemas")
    tel_validate.add_argument("dir",
                              help="a run directory or telemetry root")
    tel_latency = tel_sub.add_parser(
        "latency",
        help=("render the latency view (percentiles, critical path, "
              "blame) for runs recorded with --spans"))
    tel_latency.add_argument("dir",
                             help="a run directory or telemetry root")
    tel_sites = tel_sub.add_parser(
        "sites",
        help=("render the per-site view (availability timeline, "
              "per-site throughput, in-doubt 2PC counts) for "
              "distributed runs"))
    tel_sites.add_argument("dir",
                           help="a run directory or telemetry root")
    tel_sweep = tel_sub.add_parser(
        "sweep",
        help=("aggregate every run under a telemetry root into "
              "sweep_summary.json plus an ASCII report (per-run "
              "onsets, per-curve knees, sweep-wide hot pages)"))
    tel_sweep.add_argument("dir", help="a telemetry root (sweep output)")
    tel_sweep.add_argument("--jobs", type=_positive_int, default=1,
                           metavar="N",
                           help=("aggregate run directories in up to N "
                                 "worker processes; output is "
                                 "byte-identical to serial (default: 1)"))
    tel_sweep.add_argument("--out", metavar="PATH", default=None,
                           help=("where to write the summary JSON "
                                 "(default: <dir>/sweep_summary.json)"))

    sim_p = sub.add_parser(
        "simulate",
        help=("run one simulation under a named controller and print "
              "its summary line"))
    sim_p.add_argument("--controller", default="hh",
                       choices=sorted(_CONTROLLER_CHOICES),
                       help="load-control policy (default: hh)")
    sim_p.add_argument("--terminals", type=_positive_int, default=100,
                       metavar="N", help="number of terminals "
                       "(default: 100)")
    sim_p.add_argument("--db-size", type=_positive_int, default=1000,
                       metavar="PAGES",
                       help="database size in pages (default: 1000)")
    sim_p.add_argument("--write-prob", type=float, default=0.25,
                       metavar="W",
                       help="per-page write probability (default: 0.25)")
    sim_p.add_argument("--mpl", type=_positive_int, default=None,
                       metavar="N",
                       help=("admission limit for --controller fixed "
                             "(default: 50)"))
    sim_p.add_argument("--seed", type=int, default=42,
                       help="master random seed (default: 42)")
    sim_p.add_argument("--scale", default="smoke",
                       choices=["smoke", "bench", "paper"],
                       help="measurement scale (default: smoke)")
    sim_p.add_argument("--verify", nargs="?", const="sampled",
                       default=None, metavar="CADENCE",
                       choices=["every", "sampled", "commit"],
                       help=("run under the invariant checker and "
                             "shadow lock table (cadence as for "
                             "'run')"))

    ver_p = sub.add_parser(
        "verify",
        help=("correctness tooling: golden-run manifests and the "
              "analytic throughput envelope"))
    ver_sub = ver_p.add_subparsers(dest="verify_command", required=True)
    ver_golden = ver_sub.add_parser(
        "golden",
        help=("re-run the pinned bench configurations and diff their "
              "result/trace hashes against the golden manifest"))
    ver_golden.add_argument(
        "--update", action="store_true",
        help=("regenerate the manifest from the current code instead of "
              "checking (use after an intentional semantic change; "
              "commit the updated file)"))
    ver_golden.add_argument(
        "--path", metavar="PATH", default=None,
        help="manifest location (default: tests/goldens/golden_runs.json)")
    ver_env = ver_sub.add_parser(
        "envelope",
        help=("run the pinned bench configurations and check simulated "
              "throughput against the analytic mean-value model's "
              "predicted envelope"))
    ver_env.add_argument("--scale", default="smoke",
                         choices=["smoke", "full"],
                         help="bench scale to run at (default: smoke)")
    return parser


def _run_one(figure_id: str, scale_name: str,
             csv_path=None, json_path=None) -> None:
    from repro.experiments.reporting import format_figure
    from repro.experiments.scales import get_scale
    spec = get_figure(figure_id)
    scale = get_scale(scale_name)
    print(f"running {spec.figure_id} at scale '{scale.name}' ...",
          file=sys.stderr)
    start = time.time()
    result = spec.run(scale)
    elapsed = time.time() - start
    print(format_figure(result))
    print(f"paper claim: {spec.paper_claim}")
    print(f"[{elapsed:.1f}s]", file=sys.stderr)
    if csv_path:
        from repro.experiments.export import figure_to_csv
        figure_to_csv(result, csv_path)
        print(f"wrote {csv_path}", file=sys.stderr)
    if json_path:
        from repro.experiments.export import figure_to_json
        figure_to_json(result, json_path)
        print(f"wrote {json_path}", file=sys.stderr)


def _export_dir(path: Optional[str]) -> Optional[Path]:
    """For 'run all': interpret an export flag as a directory, create it."""
    if path is None:
        return None
    directory = Path(path)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ReproError(
            f"export directory {directory} collides with an existing "
            f"file") from exc
    return directory


def _run_command(args) -> None:
    if args.figure == "all":
        csv_dir = _export_dir(args.csv)
        json_dir = _export_dir(args.json)
        for spec in all_figures():
            _run_one(
                spec.figure_id, args.scale,
                csv_path=(csv_dir / f"{spec.figure_id}.csv"
                          if csv_dir else None),
                json_path=(json_dir / f"{spec.figure_id}.json"
                           if json_dir else None))
            print()
    else:
        _run_one(args.figure, args.scale,
                 csv_path=args.csv, json_path=args.json)


def _telemetry_config(args):
    """Build a TelemetryConfig from CLI flags, or None when disabled."""
    if args.telemetry_dir is None:
        for flag in ("spans", "contention", "online", "perf", "alloc"):
            if getattr(args, flag, False):
                raise ReproError(
                    f"--{flag} needs --telemetry-dir: its artifacts "
                    f"are exported through the telemetry session")
        return None
    if getattr(args, "alloc", False) and not getattr(args, "perf", False):
        raise ReproError(
            "--alloc needs --perf: allocation probes ride the "
            "attribution profiler's ticks")
    from repro.telemetry import TelemetryConfig
    return TelemetryConfig(root=str(args.telemetry_dir),
                           probe_interval=args.probe_interval,
                           spans=bool(getattr(args, "spans", False)),
                           contention=bool(
                               getattr(args, "contention", False)),
                           online=bool(getattr(args, "online", False)),
                           perf=bool(getattr(args, "perf", False)),
                           alloc=bool(getattr(args, "alloc", False)))


def _resilience_policy(args):
    """Build a ResiliencePolicy from CLI flags, or None for defaults."""
    if not args.retries and args.run_timeout is None:
        return None
    from repro.resilience import ResiliencePolicy
    return ResiliencePolicy(retries=args.retries,
                            backoff_base=0.5 if args.retries else 0.0,
                            run_timeout=args.run_timeout)


def _fault_plan(args):
    """Parse repeated ``--inject`` flags, or None when absent."""
    if not args.inject:
        return None
    from repro.faultinject import HarnessFaultPlan
    return HarnessFaultPlan.parse(args.inject)


def _verify_config(args):
    """Build a VerifyConfig from CLI flags, or None when disabled."""
    if args.verify is None:
        if args.verify_evidence_dir is not None:
            raise ReproError(
                "--verify-evidence-dir needs --verify: evidence "
                "snapshots are written by the invariant checker")
        return None
    from repro.verify import VerifyConfig
    return VerifyConfig.parse(args.verify,
                              evidence_dir=args.verify_evidence_dir)


def _make_cli_controller(name: str, params, mpl):
    """Build the controller the ``simulate`` subcommand asked for."""
    if name == "hh":
        from repro.core.half_and_half import HalfAndHalfController
        return HalfAndHalfController()
    if name == "fixed":
        from repro.control.fixed_mpl import FixedMPLController
        return FixedMPLController(mpl if mpl is not None else 50)
    if name == "none":
        from repro.control.no_control import NoControlController
        return NoControlController()
    if name == "tay":
        from repro.control.tay import TayRuleController
        return TayRuleController.from_params(params)
    if name == "malthusian":
        from repro.control.malthusian import MalthusianController
        return MalthusianController()
    if name == "analytic":
        from repro.control.analytic import AnalyticMPCController
        return AnalyticMPCController()
    raise ReproError(f"unknown controller {name!r}")


def _simulate_command(args) -> int:
    from repro.dbms.config import SimulationParameters
    from repro.experiments.runner import run_simulation
    from repro.experiments.scales import get_scale

    if args.mpl is not None and args.controller != "fixed":
        raise ReproError("--mpl only applies to --controller fixed")
    scale = get_scale(args.scale)
    params = scale.apply(SimulationParameters(
        num_terms=args.terminals, db_size=args.db_size,
        write_prob=args.write_prob, seed=args.seed))
    controller = _make_cli_controller(args.controller, params, args.mpl)
    verify = None
    if args.verify is not None:
        from repro.verify import VerifyConfig
        verify = VerifyConfig.parse(args.verify)
    results = run_simulation(params, controller, verify=verify)
    print(results.summary_line())
    if args.verify is not None:
        print("verification: no invariant violations", file=sys.stderr)
    return 0


def _envelope_command(args) -> int:
    from repro.verify.envelope import check_envelope
    results = check_envelope(scale=args.scale, raise_on_failure=False)
    for result in results:
        print(result.summary_line())
    failures = [r for r in results if not r.passed]
    if failures:
        print(f"{len(failures)}/{len(results)} bench entries escaped "
              f"the analytic envelope", file=sys.stderr)
        return 1
    print(f"{len(results)} bench entries inside the analytic envelope")
    return 0


def _verify_command(args) -> int:
    if args.verify_command == "envelope":
        return _envelope_command(args)
    from repro.verify import check_goldens, update_goldens
    if args.update:
        path = update_goldens(args.path)
        print(f"wrote {path}", file=sys.stderr)
        return 0
    try:
        problems = check_goldens(args.path)
    except FileNotFoundError as exc:
        raise ReproError(
            f"golden manifest not found ({exc}); generate it with "
            f"'verify golden --update'") from exc
    if problems:
        for problem in problems:
            print(f"golden mismatch: {problem}", file=sys.stderr)
        print(f"{len(problems)} golden mismatch(es); if the trajectory "
              f"change is intentional, regenerate with "
              f"'verify golden --update'", file=sys.stderr)
        return 1
    print("all golden runs reproduce bit-for-bit")
    return 0


def _execution_context(args):
    """The execution context the ``run``/``report`` flags describe."""
    if args.resume and args.cache_dir is None:
        raise ReproError(
            "--resume needs --cache-dir: the sweep journal lives next "
            "to the result cache")
    from repro.experiments.parallel import execution_context
    return execution_context(jobs=args.jobs, cache=args.cache_dir,
                             progress=True,
                             telemetry=_telemetry_config(args),
                             resilience=_resilience_policy(args),
                             faults=_fault_plan(args),
                             resume=args.resume,
                             verify=_verify_config(args))


def _telemetry_run_dirs(root: Path) -> List[Path]:
    """Run directories under ``root`` (or ``root`` itself if it is one)."""
    if (root / "manifest.json").exists():
        return [root]
    return sorted(d for d in root.iterdir()
                  if d.is_dir() and (d / "manifest.json").exists())


def _telemetry_command(args) -> int:
    root = Path(args.dir)
    if not root.is_dir():
        raise ReproError(f"not a directory: {root}")
    if args.telemetry_command == "report":
        from repro.telemetry import render_report
        print(render_report(root))
        return 0
    if args.telemetry_command == "latency":
        from repro.telemetry import render_latency_report
        print(render_latency_report(root))
        return 0
    if args.telemetry_command == "sites":
        from repro.telemetry import render_sites_report
        print(render_sites_report(root))
        return 0
    if args.telemetry_command == "sweep":
        from repro.telemetry import (render_sweep_report, summarize_sweep)
        from repro.telemetry.export import json_dump
        summary = summarize_sweep(root, jobs=args.jobs)
        out = (Path(args.out) if args.out
               else root / "sweep_summary.json")
        json_dump(summary, out)
        print(render_sweep_report(summary))
        print(f"wrote {out}", file=sys.stderr)
        return 0
    # validate: check every run directory (and, at a sweep root, the
    # sweep summary), reporting *all* failing files before exiting
    # non-zero.
    from repro.telemetry import validate_run_dir, validate_sweep_summary
    run_dirs = _telemetry_run_dirs(root)
    if not run_dirs:
        raise ReproError(f"no telemetry runs (manifest.json) under {root}")
    targets = [(run_dir.name, validate_run_dir(run_dir))
               for run_dir in run_dirs]
    sweep_path = root / "sweep_summary.json"
    if sweep_path.is_file():
        targets.append((sweep_path.name,
                        validate_sweep_summary(sweep_path)))
    failures = 0
    for name, errors in targets:
        if errors:
            failures += 1
            for error in errors:
                print(f"{name}: {error}", file=sys.stderr)
        else:
            print(f"{name}: ok")
    if failures:
        print(f"{failures}/{len(targets)} target(s) failed validation",
              file=sys.stderr)
        return 1
    print(f"{len(targets)} target(s) valid")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            from repro.experiments.reporting import format_figure_list
            print(format_figure_list(all_figures()))
        elif args.command == "run":
            with _execution_context(args):
                _run_command(args)
        elif args.command == "report":
            from repro.experiments.report import generate_report
            from repro.experiments.scales import get_scale
            with _execution_context(args):
                path = generate_report(get_scale(args.scale), args.out)
            print(f"wrote {path}", file=sys.stderr)
        elif args.command == "simulate":
            return _simulate_command(args)
        elif args.command == "telemetry":
            return _telemetry_command(args)
        elif args.command == "verify":
            return _verify_command(args)
    except KeyboardInterrupt:
        print("interrupted (completed runs are journaled; re-run with "
              "--resume to continue)", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # Reports piped into `head` close stdout early; exit quietly
        # instead of tracing back.  The dup2 stops the interpreter's
        # shutdown flush from raising a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
