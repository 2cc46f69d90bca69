"""Command-line frontend.

Subcommands: ``validate``, ``solve``, ``translate``, ``postulates`` and
``fuzz``.  Exit codes: 0 success / all checks passed, 1 a postulate
check failed, 2 a resource bound was hit or a check was inconclusive,
3 usage, parse or validation errors, cyclic supports included, or a
closed stdout.

``solve``, ``translate`` and ``postulates`` validate every file they read
first and exit 3 on input that ``validate`` rejects.  Under grounded
semantics only the rank-free restrictions are checked.  Bound flags must
be positive.  On a hit construction bound ``solve`` and ``translate``
exit 2 naming it, and ``postulates`` reports each postulate inconclusive
with that reason and still runs ``--against``.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from collections import Counter

from . import arguments as ar
from . import framework as fw
from . import generate as gen
from . import grounded as gr
from . import naive, postulates, textio
from .errors import InstanceError, JsbafError, ResourceLimitError
from .formulas import DEFAULT_ATOM_BOUND
from .system import MERGE_POLICIES, ArgumentationSystem, validate_system

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _directory(text: str) -> str:
    if not os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"not an existing directory: {text}")
    return text


def build_parser() -> argparse.ArgumentParser:
    # flags read by more than one subcommand; each subcommand takes the groups it reads
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"), default="text")
    bounds = argparse.ArgumentParser(add_help=False)
    bounds.add_argument("--max-args", type=_positive_int, default=ar.DEFAULT_MAX_ARGS,
                        help="argument construction bound")
    bounds.add_argument("--max-depth", type=_positive_int, default=ar.DEFAULT_MAX_DEPTH,
                        help="argument nesting bound")
    enum = argparse.ArgumentParser(add_help=False)
    enum.add_argument("--max-enum-args", type=_positive_int, default=fw.DEFAULT_MAX_ENUM_ARGS,
                      help="labeling enumeration bound")

    parser = argparse.ArgumentParser(prog="jsbaf")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an instance file")
    p.add_argument("path")
    p.add_argument("--kind", choices=("as", "jsbaf"))
    p.add_argument("--atom-bound", type=_positive_int, default=DEFAULT_ATOM_BOUND,
                   help="truth-table atom bound")
    p.set_defaults(run=_cmd_validate)

    p = sub.add_parser("solve", parents=[fmt, bounds, enum], help="compute labelings / extensions")
    p.add_argument("path")
    p.add_argument("--kind", choices=("as", "jsbaf"))
    p.add_argument("--semantics", choices=("admissible", "preferred", "grounded"), default="preferred")
    p.add_argument("--emit-jsbaf", action="store_true", help="also print the translated framework")
    p.add_argument("--oracle", action="store_true", help="cross-check admissible and preferred against the "
                   "naive enumeration, grounded against the unique minimal ground-complete labeling")
    p.set_defaults(run=_cmd_solve)

    p = sub.add_parser("translate", parents=[fmt, bounds], help="translate a rule system into a framework")
    p.add_argument("path")
    p.set_defaults(run=_cmd_translate)

    p = sub.add_parser("postulates", parents=[fmt, bounds, enum],
                       help="postulate checks on one instance or a disjoint pair")
    p.add_argument("path")
    p.add_argument("--against", help="second system for non-interference")
    p.add_argument("--merge-policy", choices=MERGE_POLICIES, default="raw")
    p.set_defaults(run=_cmd_postulates)

    p = sub.add_parser("fuzz", parents=[fmt, bounds, enum], help="randomised postulate checking")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--merge-policy", choices=MERGE_POLICIES, default="raw")
    p.add_argument("--checks", default="closure,consistency",
                   help="comma list of closure,consistency,non-interference")
    p.add_argument("--repro-dir", type=_directory, default=".")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=_cmd_fuzz)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        options = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        code = options.run(options)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; send what is left to devnull so that the exit flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except JsbafError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


def _load(options, path=None, kind=None, refuse=True):
    """An instance file's text, the system or framework it holds and its
    validation report.  Input outside the domain is refused with an
    InstanceError naming every failure, unless ``refuse`` is off."""
    path = path or options.path
    text = textio.read_instance(path)
    instance = textio.parse_instance(path, kind=kind or getattr(options, "kind", None), text=text)
    if isinstance(instance, ArgumentationSystem):
        report = validate_system(instance, atom_bound=getattr(options, "atom_bound", DEFAULT_ATOM_BOUND))
    elif getattr(options, "semantics", None) == "grounded":
        report = fw.validate_structure(instance)  # grounded ignores ranks
    else:
        report = fw.validate_jsbaf(instance)
    if refuse and not report.ok:
        raise InstanceError(f"{path} is invalid: " + "; ".join(report.failures))
    return text, instance, report


def _cmd_validate(options) -> int:
    _, _, report = _load(options, refuse=False)
    print(report)
    return EXIT_OK if report.ok else EXIT_USAGE


def _framework_for(options, instance):
    """(framework, the translation it came from or None for a framework file)."""
    if isinstance(instance, ArgumentationSystem):
        translation = ar.complete_translation(instance, max_args=options.max_args, max_depth=options.max_depth)
        return translation.framework, translation
    return instance, None


def _cmd_solve(options) -> int:
    text, instance, _ = _load(options)
    framework, translation = _framework_for(options, instance)
    chunks = []
    if options.emit_jsbaf and translation is not None:
        chunks.append(textio.format_framework(framework))

    if options.semantics == "grounded":
        if translation is None and any(framework.rank.values()):
            print("note: preference ranks are ignored under grounded semantics", file=sys.stderr)
        labeling = gr.grounded_labeling(framework, oracle=options.oracle, max_args=options.max_enum_args)
        labelings = [labeling]
        chunks.append(textio.format_labeling(labeling))
    else:
        enum = fw.enumerate_admissible if options.semantics == "admissible" else fw.enumerate_preferred
        labelings = enum(framework, max_args=options.max_enum_args)
        if options.oracle:
            _oracle_check(framework, labelings, options.semantics)
        chunks.append(textio.format_labelings(labelings))

    if translation is not None and options.semantics == "preferred":
        conclusions = ar.conclusion_sets(translation, framework.args, [lab.in_mask for lab in labelings])
        sets = sorted(tuple(sorted(map(str, c))) for c in conclusions)
        chunks.append("conclusions:\n" + "\n".join("{" + ", ".join(c) + "}" for c in sets) + "\n")

    if options.format == "json":
        payload = {
            "semantics": options.semantics,
            "labelings": [lab.as_dict() for lab in labelings],
        }
        sys.stdout.write(textio.wrap_json(textio.instance_digest(text), payload))
    else:
        sys.stdout.write("\n".join(chunks))
    return EXIT_OK


def _oracle_check(framework, labelings, semantics):
    enum = naive.naive_enumerate_admissible if semantics == "admissible" else naive.naive_enumerate_preferred
    if enum(framework) != labelings:
        raise JsbafError("oracle mismatch: naive enumeration disagrees with the engine")


def _cmd_translate(options) -> int:
    text, instance, _ = _load(options, kind="as")
    framework, translation = _framework_for(options, instance)
    if options.format == "json":
        payload = textio.framework_to_dict(framework)
        sys.stdout.write(textio.wrap_json(textio.instance_digest(text), payload))
    else:
        sys.stdout.write(textio.format_framework(framework))
        for aid in sorted(translation.argument_of):
            print(f"# {aid} concludes {translation.argument_of[aid].conclusion}")
    return EXIT_OK


def _bounds(options) -> dict:
    """The run's bounds, as keyword arguments of ``preferred_conclusions``."""
    return {
        "max_args": options.max_args,
        "max_depth": options.max_depth,
        "max_enum_args": options.max_enum_args,
    }


def _exit_code(verdicts) -> int:
    """1 if any verdict failed, else 2 if any was inconclusive, else 0."""
    verdicts = set(verdicts)
    if postulates.FAIL in verdicts:
        return EXIT_FAIL
    return EXIT_INCONCLUSIVE if postulates.INCONCLUSIVE in verdicts else EXIT_OK


def _emit_reports(reports, options) -> int:
    for report in reports:
        if options.format == "json":
            print(report.to_json())
        else:
            print(f"{report.postulate}: {report.verdict}" + (f" {report.witness}" if report.witness else ""))
    return _exit_code(report.verdict for report in reports)


def _cmd_postulates(options) -> int:
    _, system, _ = _load(options, kind="as")
    reports = postulates.conclusion_reports(system, **_bounds(options))
    if options.against:
        _, other, _ = _load(options, path=options.against, kind="as")
        cross_rules = gen.cross_closure_rules(system, other)
        reports.append(postulates.check_non_interference(system, other, options.merge_policy, cross_rules))
    return _emit_reports(reports, options)


def _cmd_fuzz(options) -> int:
    checks = [c.strip() for c in options.checks.split(",") if c.strip()]
    unknown = set(checks) - {"closure", "consistency", "non-interference"}
    if unknown or not checks:
        raise JsbafError(f"unknown checks {sorted(unknown)}" if unknown else "--checks names no check")
    if options.trials < 0:
        raise JsbafError(f"--trials must not be negative, got {options.trials}")
    rng = random.Random(options.seed)
    reports = []
    for trial in range(options.trials):
        for report, systems in _fuzz_trial(checks, rng, options):
            if report.verdict == postulates.FAIL:
                _dump_repro(report, systems, trial, options)
            reports.append(report)
    if options.format == "json":
        for report in reports:
            print(report.to_json())
    counts = Counter(report.verdict for report in reports)
    print(f"trials={options.trials} pass={counts['pass']} fail={counts['fail']} "
          f"inconclusive={counts['inconclusive']}")
    return _exit_code(counts)


def _fuzz_trial(checks, rng, options):
    """(report, the systems it was computed from) pairs of one trial."""
    results = []
    if "closure" in checks or "consistency" in checks:
        system = gen.generate_system(gen.FuzzProfile(), rng=rng)
        reports = postulates.conclusion_reports(system, checks, **_bounds(options))
        results += [(report, (system,)) for report in reports]
    if "non-interference" in checks:
        profile = gen.FuzzProfile(atom_count=(1, 2), defeasible_count=(1, 2),
                                  conjunction_probability=0.0)
        s1, s2 = gen.generate_disjoint_pair(profile, rng=rng)
        report = postulates.check_non_interference(
            s1, s2, merge=options.merge_policy,
            cross_rules=gen.cross_closure_rules(s1, s2),
        )
        results.append((report, (s1, s2)))
    return results


def postulate_fails_on(system, postulate, **bounds) -> bool:
    """Replay helper: does any preferred conclusion set of the system
    fail the given postulate?  Only that postulate's check family runs.
    Used for repro dumps and their shrinking."""
    checks = ("closure",) if postulate == "closure" else ("consistency",)
    return any(
        report.postulate == postulate and report.verdict == postulates.FAIL
        for report in postulates.conclusion_reports(system, checks, **bounds)
    )


def _dump_repro(report, systems, trial, options):
    if len(systems) == 1:
        def still_fails(system):
            return postulate_fails_on(system, report.postulate, **_bounds(options))
        systems = (postulates.shrink_failing_system(systems[0], still_fails),)
    for i, system in enumerate(systems):
        path = os.path.join(
            options.repro_dir,
            f"repro_{report.postulate}_{trial}_{i}_{report.instance_digest}.as",
        )
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(textio.format_system(system))
    print(f"fail reproduced in {options.repro_dir} (trial {trial})", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
