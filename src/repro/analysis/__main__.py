"""CLI: ``python -m repro.analysis {verify,dataflow,lint,report}``.

``verify``
    CFG-verify a SELF image (default: the instrumented distribution
    kernel). ``--self-check`` additionally runs the seeded attack corpus
    and requires every attack to be rejected with its expected check ID —
    the CI gate. ``--json`` writes the VerifierReport artifact.

``dataflow``
    Run the abstract-interpretation plane (V8 sensitive-taint, V9
    stack-balance, V10 static-budget) over a SELF image and print the
    proven StaticBudget. ``--self-check`` runs the dataflow attack
    corpus: every attack must pass V0–V7 *and* be rejected with exactly
    its expected dataflow check. ``--json`` writes the DataflowReport.

``lint``
    Run rules D1–D8 over paths (default: the installed ``repro``
    package). Exit 1 on any finding.

``report``
    One JSON document combining kernel verification (both planes), the
    attack-corpus self-checks, and the lint summary.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..hw.isa import scan_for_sensitive
from ..kernel.image import SelfImage, build_kernel_image
from ..kernel.instrument import instrument_image
from .lint import RULES, lint_paths
from .verifier import StaticVerifier


def _kernel_image() -> SelfImage:
    image, _ = instrument_image(build_kernel_image())
    return image


def _verify_payload(args) -> dict:
    verifier = StaticVerifier()
    if getattr(args, "image", None):
        image = SelfImage.deserialize(Path(args.image).read_bytes())
    else:
        image = _kernel_image()
    report = verifier.verify_image(image)
    payload = {"kernel": report.as_dict(),
               "kernel_digest": report.digest()}
    if getattr(args, "self_check", False):
        from .attacks import attack_corpus
        attacks = []
        for attack in attack_corpus():
            rep = verifier.verify_image(attack.image)
            scan_clean = not any(
                scan_for_sensitive(s.data)
                for s in attack.image.executable_sections())
            attacks.append({
                "name": attack.name,
                "expected_check": attack.expected_check,
                "failed_checks": rep.failed_checks,
                "rejected_as_expected":
                    attack.expected_check in rep.failed_checks,
                "byte_scan_clean": scan_clean,
                "byte_scan_as_expected":
                    scan_clean == attack.passes_byte_scan,
                "digest": rep.digest(),
            })
        payload["attacks"] = attacks
    return payload


def _dataflow_payload(args) -> dict:
    from .absint import DataflowVerifier
    verifier = DataflowVerifier()
    if getattr(args, "image", None):
        image = SelfImage.deserialize(Path(args.image).read_bytes())
    else:
        image = _kernel_image()
    report = verifier.verify_image(image)
    payload = {"kernel": report.as_dict(),
               "kernel_digest": report.digest()}
    if getattr(args, "self_check", False):
        from .attacks import dataflow_attack_corpus
        structural = StaticVerifier()
        attacks = []
        for attack in dataflow_attack_corpus():
            rep = verifier.verify_image(attack.image)
            v0_v7 = structural.verify_image(attack.image)
            attacks.append({
                "name": attack.name,
                "expected_check": attack.expected_check,
                "failed_checks": rep.failed_checks,
                "rejected_as_expected":
                    rep.failed_checks == [attack.expected_check],
                "passes_v0_v7": v0_v7.ok,
                "digest": rep.digest(),
            })
        payload["attacks"] = attacks
    return payload


def _cmd_dataflow(args) -> int:
    payload = _dataflow_payload(args)
    kernel = payload["kernel"]
    ok = kernel["ok"]
    budget = kernel["budget"] or {}
    print(f"kernel {kernel['image']}: "
          f"{'PROVEN' if ok else 'REJECTED'} "
          f"({kernel['instructions']} instrs, {kernel['iterations']} "
          f"fixpoint iterations, digest {payload['kernel_digest'][:16]})")
    for check in kernel["checks"]:
        mark = "ok" if check["passed"] else f"FAIL x{check['count']}"
        print(f"  {check['id']} {check['name']:<20} {mark}")
    if budget:
        print(f"  budget: emc<={budget['emc_per_activation']} "
              f"exits<={budget['exits_per_activation']} per activation, "
              f"emc<={budget['emc_per_kcycle']}/kcycle")
    for attack in payload.get("attacks", []):
        good = attack["rejected_as_expected"] and attack["passes_v0_v7"]
        ok = ok and good
        verdict = "ok" if good else "UNEXPECTED"
        print(f"  attack {attack['name']:<28} expected "
              f"{attack['expected_check']} got "
              f"{','.join(attack['failed_checks']) or '-'} "
              f"(V0-V7 {'clean' if attack['passes_v0_v7'] else 'DIRTY'}) "
              f"[{verdict}]")
    if args.json:
        Path(args.json).write_text(
            json.dumps(payload, sort_keys=True, indent=2) + "\n")
        print(f"report written to {args.json}")
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    payload = _verify_payload(args)
    kernel = payload["kernel"]
    ok = kernel["ok"]
    print(f"kernel {kernel['image']}: "
          f"{'CLEAN' if ok else 'REJECTED'} "
          f"({kernel['instructions']} instrs, {kernel['gate_sites']} gate "
          f"thunks, digest {payload['kernel_digest'][:16]})")
    for check in kernel["checks"]:
        mark = "ok" if check["passed"] else f"FAIL x{check['count']}"
        print(f"  {check['id']} {check['name']:<20} {mark}")
    for attack in payload.get("attacks", []):
        good = attack["rejected_as_expected"] and \
            attack["byte_scan_as_expected"]
        ok = ok and good
        verdict = "ok" if good else "UNEXPECTED"
        print(f"  attack {attack['name']:<28} expected "
              f"{attack['expected_check']} got "
              f"{','.join(attack['failed_checks']) or '-'} [{verdict}]")
    if args.json:
        Path(args.json).write_text(
            json.dumps(payload, sort_keys=True, indent=2) + "\n")
        print(f"report written to {args.json}")
    return 0 if ok else 1


def _cmd_lint(args) -> int:
    paths = args.paths or [str(Path(__file__).resolve().parents[1])]
    findings = lint_paths(paths)
    for f in findings:
        print(f)
    print(f"{len(findings)} finding(s) "
          f"(rules: {', '.join(sorted(RULES))})")
    return 1 if findings else 0


def _cmd_report(args) -> int:
    class _Args:
        image = None
        self_check = True
    payload = _verify_payload(_Args())
    payload["dataflow"] = _dataflow_payload(_Args())
    paths = args.paths or [str(Path(__file__).resolve().parents[1])]
    findings = lint_paths(paths)
    payload["lint"] = {
        "findings": [f.__dict__ for f in findings],
        "rules": RULES,
    }
    blob = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(blob)
        print(f"report written to {args.out}")
    else:
        print(blob, end="")
    ok = payload["kernel"]["ok"] and not findings and all(
        a["rejected_as_expected"] and a["byte_scan_as_expected"]
        for a in payload["attacks"])
    ok = ok and payload["dataflow"]["kernel"]["ok"] and all(
        a["rejected_as_expected"] and a["passes_v0_v7"]
        for a in payload["dataflow"]["attacks"])
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Erebor static analysis: CFG verifier + lints")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("verify", help="CFG-verify a SELF image")
    p.add_argument("--image", help="path to a serialized SELF image "
                   "(default: the instrumented distribution kernel)")
    p.add_argument("--self-check", action="store_true", dest="self_check",
                   help="also run the seeded attack corpus")
    p.add_argument("--json", help="write the report JSON here")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("dataflow",
                       help="dataflow-verify a SELF image (V8-V10)")
    p.add_argument("--image", help="path to a serialized SELF image "
                   "(default: the instrumented distribution kernel)")
    p.add_argument("--self-check", action="store_true", dest="self_check",
                   help="also run the dataflow attack corpus")
    p.add_argument("--json", help="write the report JSON here")
    p.set_defaults(fn=_cmd_dataflow)

    p = sub.add_parser("lint", help="run discipline rules D1-D8")
    p.add_argument("paths", nargs="*", help="files/dirs "
                   "(default: the repro package)")
    p.set_defaults(fn=_cmd_lint)

    p = sub.add_parser("report", help="combined verify+lint JSON")
    p.add_argument("paths", nargs="*")
    p.add_argument("--out", help="write the JSON here (default: stdout)")
    p.set_defaults(fn=_cmd_report)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
