"""Command-line front end.

Subcommands:

* ``analyze``: full undeterminedness report for a catalog or file spec.
* ``scan-cyclic``: validity and (n-2)-undeterminedness per cyclic n.
* ``qss``: seeded secret-sharing Monte Carlo run.
* ``bc-demo``: bit-commitment cheat statistics.
* ``verify-paper``: the twelve-claim regression suite.

Exit codes: 0 success, 1 input or validation error, 2 claim-check
failure.  Human diagnostics go to stderr whenever stdout carries JSON.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from qundet import claims, codes, report, undetermined as und
from qundet.codes import CodeValidationError
from qundet.protocols import QssConfig, bc_demo, qss_run


class _Parser(argparse.ArgumentParser):
    # bad arguments are input errors: exit 1, not argparse's default 2
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_json_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help="emit JSON ('-' or no value: stdout) instead of text",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="qundet", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_an = sub.add_parser("analyze", help="analyze one code")
    p_an.add_argument("--catalog", metavar="NAME", help=f"one of {', '.join(codes.CATALOG_NAMES)}")
    p_an.add_argument("--spec", metavar="PATH", help="JSON code-spec file")
    p_an.add_argument("--n", type=int, default=None, help="size for family catalog entries")
    p_an.add_argument("--max-trace", type=int, default=None, metavar="D",
                      help="tabulate the error-count condition for all sizes up to D")
    p_an.add_argument("--conditional", type=int, action="append", default=[], metavar="D'",
                      help="partition all D'-subsets (repeatable)")
    p_an.add_argument("--oracle", action="store_true",
                      help="cross-check every subset against the dense oracle")
    _add_json_flag(p_an)

    p_sc = sub.add_parser("scan-cyclic", help="scan the cyclic family")
    p_sc.add_argument("--from", dest="from_n", type=int, default=7)
    p_sc.add_argument("--to", dest="to_n", type=int, default=15)
    _add_json_flag(p_sc)

    p_qss = sub.add_parser("qss", help="secret-sharing Monte Carlo")
    p_qss.add_argument("--variant", choices=["original", "modified"], default="modified")
    p_qss.add_argument("--strategy", choices=["honest", "delay_discriminate"], default="honest")
    p_qss.add_argument("--rounds", type=int, default=100_000)
    p_qss.add_argument("--seed", type=int, default=0)
    p_qss.add_argument("--check-fraction", type=float, default=0.2)
    p_qss.add_argument("--parties", type=int, default=3)
    _add_json_flag(p_qss)

    p_bc = sub.add_parser("bc-demo", help="bit-commitment cheat demo")
    p_bc.add_argument("--samples", type=int, default=1000)
    p_bc.add_argument("--seed", type=int, default=0)
    _add_json_flag(p_bc)

    p_vp = sub.add_parser("verify-paper", help="run the twelve-claim suite")
    _add_json_flag(p_vp)

    return parser


def _load_target_spec(args) -> codes.CodeSpec:
    if bool(args.catalog) == bool(args.spec):
        raise ValueError("provide exactly one of --catalog or --spec")
    if args.spec and args.n is not None:
        raise ValueError("--n sizes a --catalog family; a --spec file gives its own n")
    if args.catalog:
        return codes.catalog(args.catalog, n=args.n)
    spec = codes.load_spec(args.spec)
    rep = codes.validate(spec)
    if not rep.ok:
        raise CodeValidationError(rep)
    return spec


def _render_analysis(rep: und.UndeterminedReport) -> str:
    if rep.w_min is None:
        w_min = d_min = "not computed"
    else:
        w_min, d_min = rep.w_min, rep.d_min if rep.d_min is not None else "none"
    lines = [
        f"code {rep.name}: [[{rep.n},{rep.k}]] rank {rep.rank}",
        f"  distance d = {rep.distance if rep.distance is not None else 'not computed'}",
        f"  difference-coset minimum weight = {w_min}",
        f"  minimal unconditional D = {d_min}",
    ]
    if rep.threshold_shares is not None:
        lines.append(f"  threshold-scheme share count n-D+1 = {rep.threshold_shares}")
    lines.append(f"  logical X set size = {rep.x_set_size}")
    for d, ed in rep.e_d_table:
        verdict = "pass" if ed.passed else "fail"
        lines.append(f"  E_{d} = {ed.e_d} vs C(n,{d}) = {ed.binomial}: {verdict}")
    for scan in rep.conditional:
        lines.append(
            f"  conditional D'={scan.d_prime}: {len(scan.undetermined)} undetermined, "
            f"{len(scan.determined)} determined"
        )
        for subset, witness in scan.determined[:8]:
            lines.append(f"    determined {list(subset)} witness {witness}")
        if len(scan.determined) > 8:
            lines.append(f"    ... {len(scan.determined) - 8} more")
    if rep.mixed is not None:
        lines.append(
            f"  mixed pair: D = {rep.mixed.d_mixed}, coset weight {rep.mixed.w_min} "
            f"(witness {rep.mixed.witness}), |X12| = {rep.mixed.x12_size}"
        )
    lines.append(f"  methods: {', '.join(rep.methods)}")
    lines.extend(f"  note: {note}" for note in rep.notes if note != und.X_SET_COUNTING_NOTE)
    return "\n".join(lines)


def _cmd_analyze(args) -> int:
    manifest = report.RunManifest(
        "analyze",
        {
            "catalog": args.catalog,
            "spec": args.spec,
            "n": args.n,
            "max_trace": args.max_trace,
            "conditional": sorted(set(args.conditional)),
            "oracle": args.oracle,
        },
    )
    spec = _load_target_spec(args)
    try:
        rep = und.analyze_code(
            spec, conditional=args.conditional, max_trace=args.max_trace, oracle=args.oracle
        )
    except RuntimeError as exc:
        # two of the engine's computations disagree: a symbolic/oracle mismatch is a claim failure
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report.emit(manifest.wrap(rep.as_dict()), args.json, _render_analysis(rep))
    return 0


def _cmd_scan_cyclic(args) -> int:
    manifest = report.RunManifest("scan-cyclic", {"from": args.from_n, "to": args.to_n})
    rows = und.scan_cyclic(args.from_n, args.to_n)
    claim_ok = all(row["n_minus_2_undetermined"] for row in rows if row["valid"])
    lines = []
    for row in rows:
        if row["valid"]:
            verdict = "ok" if row["n_minus_2_undetermined"] else "CLAIM FAILED"
            counts = row.get("note", f"w_min={row['w_min']}, D_min={row['d_min']}")
            lines.append(f"n={row['n']:2d}: valid, {counts}, (n-2)-undetermined: {verdict}")
        else:
            lines.append(f"n={row['n']:2d}: construction invalid ({'; '.join(row['failures'])})")
    doc = manifest.wrap({"rows": rows, "claim_ok": claim_ok})
    report.emit(doc, args.json, "\n".join(lines))
    return 0 if claim_ok else 2


def _cmd_qss(args) -> int:
    config = QssConfig(
        variant=args.variant,
        parties=args.parties,
        rounds=args.rounds,
        check_fraction=args.check_fraction,
        strategy=args.strategy,
        seed=args.seed,
    )
    manifest = report.RunManifest("qss", config.__dict__.copy(), seed=args.seed)
    stats = qss_run(config)
    lines = [
        f"{config.variant}/{config.strategy}, {stats.rounds} rounds, seed {config.seed}:",
        f"  keep rate          {stats.keep_rate:.4f}",
        f"  dealer +1 rate     {stats.dealer_plus_rate:.4f}",
        f"  key agreement      {stats.honest_key_agreement:.4f}",
        f"  check error rate   {stats.check_error_rate:.4f}",
    ]
    if stats.attacker_solo_accuracy is not None:
        lines.append(f"  attacker solo      {stats.attacker_solo_accuracy:.4f}")
        lines.append(f"  forged detection   {stats.per_forged_round_detection:.4f}")
    lines.append(f"  aborted            {stats.aborted}")
    report.emit(manifest.wrap(stats.as_dict()), args.json, "\n".join(lines))
    return 0


def _cmd_bc_demo(args) -> int:
    manifest = report.RunManifest("bc-demo", {"samples": args.samples}, seed=args.seed)
    result = bc_demo(args.samples, seed=args.seed)
    text = (
        f"{result.samples} random sender unitaries: "
        f"max receiver-marginal deviation {result.max_reduced_deviation:.2e}\n"
        f"open bit 0 success {result.sender_open_success[0]:.3f}, "
        f"open bit 1 success {result.sender_open_success[1]:.3f}"
    )
    report.emit(manifest.wrap(result.as_dict()), args.json, text)
    return 0


def _cmd_verify_paper(args) -> int:
    manifest = report.RunManifest("verify-paper", {})
    results = claims.run_all()
    for r in results:
        print(r.line(), file=sys.stderr)
    failed = [r for r in results if not r.passed]
    manifest.timings = {f"claim_{r.cid}": round(r.elapsed_s, 6) for r in results}
    doc = manifest.wrap(
        {"claims": [r.as_dict() for r in results], "all_passed": not failed}
    )
    summary = f"{len(results) - len(failed)}/{len(results)} claims passed"
    report.emit(doc, args.json, summary)
    return 2 if failed else 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "scan-cyclic": _cmd_scan_cyclic,
    "qss": _cmd_qss,
    "bc-demo": _cmd_bc_demo,
    "verify-paper": _cmd_verify_paper,
}


def run(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
