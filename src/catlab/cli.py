"""Command-line surface tying the modules into a reproducible toolchain.

Each flag is declared once, as a row of FLAGS, and each command once, as
a row of COMMANDS; the parser and the config merge are built from them.
Every command reads the same configuration stack (command-line flags
override config-file values override defaults), writes CSV/JSON to a
file or stdout, and emits optional SVG plots. Identical configuration
yields byte-identical output.

Exit codes: 0 success, 1 domain rejection, 2 usage error, 3 I/O error,
4 certification failure (a quantum-period, short-period modulus,
propagator, eigensystem, clustering or profile normalization check
exceeded its bound).
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from typing import IO, Callable

from . import arith, svg

# quantize, spectral and experiments load numpy, so only the commands that
# use them import them: classify, sequence and period start without it.

PROG = "catlab"
# CSV columns of the tables built here; the experiments module owns the rest.
SEQUENCE_FIELDS = ("k", "N_k", "t_k")
SPECTRUM_FIELDS = ("index", "re", "im", "phase", "cluster", "residual")
VERIFY_FIELDS = ("bound", "N", "value", "threshold", "ok")


class UsageError(Exception):
    """Malformed flags or configuration; maps to exit code 2."""


FORMATS = ("csv", "json", "binary")

# dest: (type, default, help) of every flag, which is also its config key.
# The matrix entries are -a..-d, every other flag is -- and its dest with
# - for _; --format takes FORMATS. A config value must have the type (a
# float takes an int, no int takes a bool), or be null where the default
# is None.
FLAGS = {
    "a": (int, 2, "matrix entry a"),
    "b": (int, 3, "matrix entry b"),
    "c": (int, 1, "matrix entry c"),
    "d": (int, 2, "matrix entry d"),
    "n": (int, None, "dimension N"),
    "n_min": (int, 3, None),
    "n_max": (int, 1001, None),
    "count": (int, 5, "number of pairs to emit"),
    "jmax": (int, 50, "largest power"),
    "epsilon": (float, 0.1, "slack in the bound checks"),
    "format": (str, "csv", None),
    "out": (str, None, "output path (default: stdout)"),
    "svg": (str, None, "also render an SVG plot to this path"),
    "records": (str, None, "scan CSV to verify instead of rescanning"),
    "jobs": (int, 1, "worker processes for scans, one BLAS thread each"),
}
# Flags every command takes, after --config and before its own.
_COMMON = ("a", "b", "c", "d", "format", "out")


def _option(dest: str) -> str:
    return "-" + dest if dest in ("a", "b", "c", "d") else "--" + dest.replace("_", "-")


def _check_config_value(dest: str, value):
    kind, default, _ = FLAGS[dest]
    allowed = (int, float) if kind is float else (kind,)
    name = kind.__name__
    if default is None:
        allowed += (type(None),)
        name += " | None"
    if not isinstance(value, allowed) or isinstance(value, bool):
        raise UsageError("config key %s must be %s, got %s" % (dest, name, json.dumps(value)))
    return value


def _merge_config(args: argparse.Namespace, config: dict) -> argparse.Namespace:
    """Flags given on the command line over config values over defaults.

    Config values must match their flag's type, else UsageError. The result
    holds every dest of FLAGS, and in `given` those set on the command line.
    """
    unknown = sorted(set(config) - set(FLAGS))
    if unknown:
        raise UsageError("unknown config keys: %s" % ", ".join(unknown))
    given = frozenset(dest for dest in FLAGS if getattr(args, dest, None) is not None)
    values = {dest: default for dest, (_, default, _) in FLAGS.items()}
    values.update(
        (dest, _check_config_value(dest, config[dest])) for dest in FLAGS if dest in config
    )
    values.update((dest, getattr(args, dest)) for dest in given)
    cfg = argparse.Namespace(given=given, **values)
    if not 0 < cfg.epsilon < 1:
        raise UsageError("epsilon must lie in (0, 1)")
    if cfg.jobs < 1:
        raise UsageError("jobs must be a positive integer")
    if cfg.format not in FORMATS:
        raise UsageError("format must be csv, json, or binary")
    return cfg


def _matrix(cfg: argparse.Namespace) -> arith.CatMatrix:
    return arith.CatMatrix(cfg.a, cfg.b, cfg.c, cfg.d)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError("cannot read config %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise UsageError("config %s is not valid JSON: %s" % (path, exc)) from exc
    if not isinstance(data, dict):
        raise UsageError("config %s must hold a flat JSON object" % path)
    return data


def _json_safe(value):
    """value with every inf or nan float written as its CSV cell ("inf",
    "-inf", "nan"): JSON has no token for them, and null already means an
    absent value."""
    if isinstance(value, float) and not math.isfinite(value):
        return arith._cell(value)
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return value


def _dump_json(payload) -> str:
    return json.dumps(_json_safe(payload), indent=2, allow_nan=False) + "\n"


def _write_text(cfg: argparse.Namespace, render: Callable[[IO[str]], None]) -> None:
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            render(fh)
        return
    try:
        render(sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (say, `| head`): stop writing quietly.
        # Point stdout at devnull so the flush at exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit(cfg: argparse.Namespace, payload, render: Callable[[IO[str]], None]) -> None:
    """Write payload as JSON under --format json, else what render writes
    (a CSV table, or classify's text report)."""
    if cfg.format == "json":
        _write_text(cfg, lambda fh: fh.write(_dump_json(payload)))
    else:
        _write_text(cfg, render)


def _write_svg(cfg: argparse.Namespace, render: Callable[[IO[str]], None]) -> None:
    """Render in memory first, so a failed render leaves no file."""
    if cfg.svg:
        plot = io.StringIO()
        render(plot)
        with open(cfg.svg, "w", encoding="utf-8", newline="") as fh:
            fh.write(plot.getvalue())


def _require_n(cfg: argparse.Namespace) -> int:
    if cfg.n is None:
        raise UsageError("this command requires --n")
    return cfg.n


def cmd_classify(cfg: argparse.Namespace) -> int:
    report = arith.validate_catmap(cfg.a, cfg.b, cfg.c, cfg.d)
    lines = [
        "matrix: [[%d, %d], [%d, %d]]" % (cfg.a, cfg.b, cfg.c, cfg.d),
        "trace: %d" % report.trace,
        "lambda: %s" % ("-" if report.lam is None else repr(report.lam)),
        "quantizable: %s" % ("yes" if report.is_quantizable else "no"),
        "short-period eligible: %s" % ("yes" if report.short_period_eligible else "no"),
    ]
    if report.failure_reasons:
        lines.append("failures: " + "; ".join(report.failure_reasons))
    if report.eligibility_failures:
        lines.append("eligibility failures: " + "; ".join(report.eligibility_failures))
    _emit(cfg, report.to_dict(), lambda fh: fh.write("\n".join(lines) + "\n"))
    return 0 if report.is_quantizable else 1


def cmd_sequence(cfg: argparse.Namespace) -> int:
    pairs = arith.short_period_sequence(_matrix(cfg), cfg.count)
    payload = [
        {"k": k, "N_k": modulus, "t_k": period}
        for k, (modulus, period) in enumerate(pairs, start=1)
    ]
    rows = (row.values() for row in payload)
    _emit(cfg, payload, lambda fh: arith.write_table(SEQUENCE_FIELDS, rows, fh))
    return 0


def cmd_period(cfg: argparse.Namespace) -> int:
    n = _require_n(cfg)
    payload = arith.quantum_period(_matrix(cfg), n).to_dict()
    rows = [payload.values()]
    _emit(cfg, payload, lambda fh: arith.write_table(payload.keys(), rows, fh))
    return 0


def cmd_propagator(cfg: argparse.Namespace) -> int:
    from . import quantize

    n = _require_n(cfg)
    prop = quantize.build_propagator(_matrix(cfg), n)
    if cfg.format == "binary":
        with open(cfg.out, "wb") as fh:
            quantize.write_matrix_binary(prop.entries, fh)
    elif cfg.format == "json":
        payload = {
            "N": prop.N,
            "unitarity_residual": prop.unitarity_residual,
            "entries": [
                [[float(v.real), float(v.imag)] for v in row] for row in prop.entries
            ],
        }
        _write_text(cfg, lambda fh: fh.write(_dump_json(payload)))
    else:
        _write_text(cfg, lambda fh: quantize.write_matrix_csv(prop.entries, fh))
    return 0


def cmd_spectrum(cfg: argparse.Namespace) -> int:
    from . import experiments, spectral

    n = _require_n(cfg)
    _, report = experiments.clustered_spectrum(_matrix(cfg), n)
    payload = spectral.report_to_dict(report)
    clusters = payload["clusters"]
    cluster_of = {i: cid for cid, c in enumerate(clusters) for i in c["indices"]}
    rows = (
        (i, re, im, clusters[cluster_of[i]]["phase"], cluster_of[i], report.residuals[i])
        for i, (re, im) in enumerate(payload["eigenvalues"])
    )
    _emit(cfg, payload, lambda fh: arith.write_table(SPECTRUM_FIELDS, rows, fh))
    return 0


def _warn_errors(records) -> None:
    failed = [r for r in records if getattr(r, "error", None)]
    if failed:
        print(
            "warning: %d record(s) failed (first: N=%d: %s)"
            % (len(failed), failed[0].N, failed[0].error),
            file=sys.stderr,
        )


def _scan(cfg: argparse.Namespace) -> list:
    """Scan and report failed records before any later step can fail."""
    from . import experiments

    records = experiments.scan_supnorms(_matrix(cfg), cfg.n_min, cfg.n_max, jobs=cfg.jobs)
    _warn_errors(records)
    return records


def cmd_scan(cfg: argparse.Namespace) -> int:
    from . import experiments

    records = _scan(cfg)
    payload = [r.to_dict() for r in records]
    _emit(cfg, payload, lambda fh: experiments.write_scan_csv(records, fh))
    _write_svg(cfg, lambda fh: svg.render_scan_svg(records, fh))
    return 0


def cmd_profile(cfg: argparse.Namespace) -> int:
    from . import experiments

    n = _require_n(cfg)
    profile = experiments.eigenfunction_profile(_matrix(cfg), n)
    payload = [{"i": i, "abs_u_i": float(v)} for i, v in enumerate(profile)]
    _emit(cfg, payload, lambda fh: experiments.write_profile_csv(profile, fh))
    _write_svg(cfg, lambda fh: svg.render_profile_svg(profile, fh))
    return 0


def cmd_dispersive(cfg: argparse.Namespace) -> int:
    from . import experiments

    n = _require_n(cfg)
    records = experiments.dispersive_scan(_matrix(cfg), n, cfg.jmax)
    _warn_errors(records)
    payload = [r.to_dict() for r in records]
    _emit(cfg, payload, lambda fh: experiments.write_dispersive_csv(records, fh))
    _write_svg(cfg, lambda fh: svg.render_dispersive_svg(records, fh))
    return 0


def cmd_verify(cfg: argparse.Namespace) -> int:
    """Check the envelope bounds on a rescan, or on --records.

    With --records, --n-min/--n-max set on the command line select the
    rows read, and --jobs, which only steers the rescan it replaces, is a
    usage error; config-file values of those three keys are ignored.
    """
    from . import experiments

    if cfg.records:
        if "jobs" in cfg.given:
            raise UsageError("--records replaces the rescan that --jobs would steer")
        with open(cfg.records, "r", encoding="utf-8") as fh:
            records = [
                r
                for r in experiments.read_scan_csv(fh)
                if ("n_min" not in cfg.given or r.N >= cfg.n_min)
                and ("n_max" not in cfg.given or r.N <= cfg.n_max)
            ]
    else:
        records = _scan(cfg)
    payload = experiments.verify_bounds(records, eps=cfg.epsilon).to_dict()
    rows = (
        (bound, *check.values()) for bound in ("lower", "upper") for check in payload[bound]
    )
    _emit(cfg, payload, lambda fh: arith.write_table(VERIFY_FIELDS, rows, fh))
    return 0


# (name, help, flags beyond _COMMON, handler) of every command.
COMMANDS = (
    ("classify", "classify a matrix", (), cmd_classify),
    ("sequence", "short-period modulus sequence", ("count",), cmd_sequence),
    ("period", "quantum period of one N", ("n",), cmd_period),
    ("propagator", "dump one propagator", ("n",), cmd_propagator),
    ("spectrum", "clustered eigensystem", ("n",), cmd_spectrum),
    ("scan", "sup-norm sweep over N", ("n_min", "n_max", "svg", "jobs"), cmd_scan),
    ("profile", "witness eigenfunction", ("n", "svg"), cmd_profile),
    ("dispersive", "power-norm decay", ("n", "jmax", "svg"), cmd_dispersive),
    (
        "verify", "check envelope bounds",
        ("n_min", "n_max", "epsilon", "records", "jobs"), cmd_verify,
    ),
)


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser: reports an argument it does not take with
    its own usage, where the root parser would show the top-level one."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: %s" % " ".join(extras))
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    """One subparser per row of COMMANDS, each with only the flags it reads.

    A config file may still set any key of FLAGS; commands ignore the keys
    they do not read.
    """
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Numerical laboratory for quantized hyperbolic torus maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for name, help_text, flags, handler in COMMANDS:
        command = sub.add_parser(name, help=help_text)
        command.set_defaults(handler=handler)
        command.add_argument("--config", help="flat JSON config file")
        for dest in (*_COMMON, *flags):
            kind, _, flag_help = FLAGS[dest]
            command.add_argument(
                _option(dest), dest=dest, type=kind, help=flag_help,
                choices=FORMATS if dest == "format" else None,
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args, _load_config(args.config))
        if cfg.format == "binary" and args.command != "propagator":
            raise UsageError("format binary applies only to propagator")
        if cfg.format == "binary" and not cfg.out:
            raise UsageError("binary output requires --out")
        return args.handler(cfg)
    except UsageError as exc:
        print("%s: usage error: %s" % (PROG, exc), file=sys.stderr)
        return 2
    except ValueError as exc:
        print("%s: %s" % (PROG, exc), file=sys.stderr)
        return 1
    except OSError as exc:
        print("%s: i/o error: %s" % (PROG, exc), file=sys.stderr)
        return 3
    except arith.CertificationError as exc:
        print("%s: certification failed: %s" % (PROG, exc), file=sys.stderr)
        return 4


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
