"""Command-line surface tying the modules into a reproducible toolchain.

Every command reads the same configuration stack (command-line flags
override config-file values override defaults), writes CSV/JSON to a
file or stdout, and emits optional SVG plots. Identical configuration
yields byte-identical output.

Exit codes: 0 success, 1 domain rejection, 2 usage error, 3 I/O error,
4 certification failure (a propagator, eigensystem, clustering or profile
normalization check exceeded its bound).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass
from typing import IO, Callable

from . import arith, experiments, quantize, spectral, svg

PROG = "catlab"
# CSV columns of the tables built here; the experiments module owns the rest.
SEQUENCE_FIELDS = ("k", "N_k", "t_k")
SPECTRUM_FIELDS = ("index", "re", "im", "phase", "cluster", "residual")
VERIFY_FIELDS = ("bound", "N", "value", "threshold", "ok")


class UsageError(Exception):
    """Malformed flags or configuration; maps to exit code 2."""


# Python types a config value may have for each annotation name; a float
# field takes an int, and no int field takes a bool.
_CONFIG_TYPES = {
    "int": (int,),
    "float": (int, float),
    "str": (str,),
    "bool": (bool,),
    "None": (type(None),),
}


def _check_config_value(field: dataclasses.Field, value):
    allowed = tuple(t for name in field.type.split(" | ") for t in _CONFIG_TYPES[name])
    if not isinstance(value, allowed) or (isinstance(value, bool) and bool not in allowed):
        raise UsageError(
            "config key %s must be %s, got %s" % (field.name, field.type, json.dumps(value))
        )
    return value


@dataclass(frozen=True)
class RunConfig:
    """Merged configuration for one command invocation."""

    a: int = 2
    b: int = 3
    c: int = 1
    d: int = 2
    n: int | None = None
    n_min: int = 3
    n_max: int = 1001
    count: int = 5
    jmax: int = 50
    epsilon: float = 0.1
    format: str = "csv"
    out: str | None = None
    svg: str | None = None
    records: str | None = None
    allow_even_n: bool = False
    jobs: int = 1

    @classmethod
    def from_sources(cls, cli: dict, config: dict) -> "RunConfig":
        """Flags (None when not given) over config values over defaults.

        Config values must match their field's type, else UsageError.
        """
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(config) - known)
        if unknown:
            raise UsageError("unknown config keys: %s" % ", ".join(unknown))
        values = {}
        for field in dataclasses.fields(cls):
            cli_value = cli.get(field.name)
            if cli_value is not None:
                values[field.name] = cli_value
            elif field.name in config:
                values[field.name] = _check_config_value(field, config[field.name])
        return cls(**values).validated()

    def validated(self) -> "RunConfig":
        if not 0 < self.epsilon < 1:
            raise UsageError("epsilon must lie in (0, 1)")
        if self.jobs < 1:
            raise UsageError("jobs must be a positive integer")
        if self.format not in ("csv", "json", "binary"):
            raise UsageError("format must be csv, json, or binary")
        return self

    def matrix(self) -> arith.CatMatrix:
        return arith.CatMatrix(self.a, self.b, self.c, self.d)


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


def _dump_json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _write_text(cfg: RunConfig, render: Callable[[IO[str]], None]) -> None:
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


def _emit(cfg: RunConfig, payload, render: Callable[[IO[str]], None]) -> None:
    """Write payload as JSON under --format json, else what render writes
    (a CSV table, or classify's text report)."""
    if cfg.format == "json":
        _write_text(cfg, lambda fh: fh.write(_dump_json(payload)))
    else:
        _write_text(cfg, render)


def _write_svg(cfg: RunConfig, render: Callable[[IO[str]], None]) -> None:
    if cfg.svg:
        with open(cfg.svg, "w", encoding="utf-8", newline="") as fh:
            render(fh)


def _require_n(cfg: RunConfig) -> int:
    if cfg.n is None:
        raise UsageError("this command requires --n")
    return cfg.n


def cmd_classify(cfg: RunConfig) -> int:
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


def cmd_sequence(cfg: RunConfig) -> int:
    pairs = arith.short_period_sequence(cfg.matrix(), cfg.count)
    payload = [
        {"k": k, "N_k": modulus, "t_k": period}
        for k, (modulus, period) in enumerate(pairs, start=1)
    ]
    rows = (row.values() for row in payload)
    _emit(cfg, payload, lambda fh: experiments.write_table(SEQUENCE_FIELDS, rows, fh))
    return 0


def cmd_period(cfg: RunConfig) -> int:
    n = _require_n(cfg)
    payload = arith.quantum_period(cfg.matrix(), n).to_dict()
    rows = [payload.values()]
    _emit(cfg, payload, lambda fh: experiments.write_table(payload.keys(), rows, fh))
    return 0


def cmd_propagator(cfg: RunConfig) -> int:
    n = _require_n(cfg)
    prop = quantize.build_propagator(cfg.matrix(), n, allow_even=cfg.allow_even_n)
    if cfg.format == "binary":
        if not cfg.out:
            raise UsageError("binary output requires --out")
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


def cmd_spectrum(cfg: RunConfig) -> int:
    n = _require_n(cfg)
    _, report = experiments.clustered_spectrum(cfg.matrix(), n, cfg.allow_even_n)
    payload = spectral.report_to_dict(report)
    clusters = payload["clusters"]
    cluster_of = {i: cid for cid, c in enumerate(clusters) for i in c["indices"]}
    rows = (
        (i, re, im, clusters[cluster_of[i]]["phase"], cluster_of[i], report.residuals[i])
        for i, (re, im) in enumerate(payload["eigenvalues"])
    )
    _emit(cfg, payload, lambda fh: experiments.write_table(SPECTRUM_FIELDS, rows, fh))
    return 0


def _warn_errors(records) -> None:
    failed = [r for r in records if getattr(r, "error", None)]
    if failed:
        print(
            "warning: %d record(s) failed (first: N=%d: %s)"
            % (len(failed), failed[0].N, failed[0].error),
            file=sys.stderr,
        )


def _scan(cfg: RunConfig) -> list[experiments.ScanRecord]:
    return experiments.scan_supnorms(
        cfg.matrix(), cfg.n_min, cfg.n_max, jobs=cfg.jobs, allow_even=cfg.allow_even_n
    )


def cmd_scan(cfg: RunConfig) -> int:
    records = _scan(cfg)
    payload = [r.to_dict() for r in records]
    _emit(cfg, payload, lambda fh: experiments.write_scan_csv(records, fh))
    _write_svg(cfg, lambda fh: svg.render_scan_svg(records, fh))
    _warn_errors(records)
    return 0


def cmd_profile(cfg: RunConfig) -> int:
    n = _require_n(cfg)
    profile = experiments.eigenfunction_profile(
        cfg.matrix(), n, allow_even=cfg.allow_even_n
    )
    payload = [{"i": i, "abs_u_i": float(v)} for i, v in enumerate(profile)]
    _emit(cfg, payload, lambda fh: experiments.write_profile_csv(profile, fh))
    _write_svg(cfg, lambda fh: svg.render_profile_svg(profile, fh))
    return 0


def cmd_dispersive(cfg: RunConfig) -> int:
    n = _require_n(cfg)
    records = experiments.dispersive_scan(cfg.matrix(), [n], cfg.jmax)
    payload = [r.to_dict() for r in records]
    _emit(cfg, payload, lambda fh: experiments.write_dispersive_csv(records, fh))
    _write_svg(cfg, lambda fh: svg.render_dispersive_svg(records, fh))
    _warn_errors(records)
    return 0


# verify flags that only steer the rescan --records replaces.
_RESCAN_ONLY = ("allow_even_n", "jobs")


def cmd_verify(cfg: RunConfig, flags: frozenset[str]) -> int:
    """Check the envelope bounds on a rescan, or on --records.

    flags names the fields set on the command line. With --records,
    --n-min/--n-max select the rows read, and a rescan-only flag is a
    usage error; config-file values of those keys are ignored.
    """
    if cfg.records:
        clash = ["--" + f.replace("_", "-") for f in _RESCAN_ONLY if f in flags]
        if clash:
            raise UsageError(
                "--records replaces the rescan that %s would steer" % ", ".join(clash)
            )
        with open(cfg.records, "r", encoding="utf-8") as fh:
            records = [
                r
                for r in experiments.read_scan_csv(fh)
                if ("n_min" not in flags or r.N >= cfg.n_min)
                and ("n_max" not in flags or r.N <= cfg.n_max)
            ]
    else:
        records = _scan(cfg)
    payload = experiments.verify_bounds(records, eps=cfg.epsilon).to_dict()
    rows = (
        (bound, *check.values()) for bound in ("lower", "upper") for check in payload[bound]
    )
    _emit(cfg, payload, lambda fh: experiments.write_table(VERIFY_FIELDS, rows, fh))
    return 0


# verify also reads which flags the command line set; main calls it directly.
_COMMANDS = {
    "classify": cmd_classify,
    "sequence": cmd_sequence,
    "period": cmd_period,
    "propagator": cmd_propagator,
    "spectrum": cmd_spectrum,
    "scan": cmd_scan,
    "profile": cmd_profile,
    "dispersive": cmd_dispersive,
}


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser: reports an argument it does not take with
    its own usage, where the root parser would show the top-level one."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: %s" % " ".join(extras))
        return namespace, extras


def _flag(*args, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one flag."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*args, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, each with only the flags it reads.

    A config file may still set any key; commands ignore the keys they
    do not read.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat JSON config file")
    for entry in "abcd":
        common.add_argument("-" + entry, type=int, dest=entry, help="matrix entry " + entry)
    common.add_argument("--format", choices=("csv", "json", "binary"))
    common.add_argument("--out", help="output path (default: stdout)")
    n = _flag("--n", type=int, help="dimension N")
    n_min = _flag("--n-min", type=int, dest="n_min")
    n_max = _flag("--n-max", type=int, dest="n_max")
    count = _flag("--count", type=int, help="number of pairs to emit")
    jmax = _flag("--jmax", type=int, help="largest power")
    epsilon = _flag("--epsilon", type=float, help="slack in the bound checks")
    records = _flag("--records", help="scan CSV to verify instead of rescanning")
    plot = _flag("--svg", help="also render an SVG plot to this path")
    even = _flag(
        "--allow-even-n",
        action="store_const",
        const=True,
        dest="allow_even_n",
        help="allow even dimensions (exploration only)",
    )
    jobs = _flag(
        "--jobs", type=int, help="worker processes for scans, one BLAS thread each"
    )

    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Numerical laboratory for quantized hyperbolic torus maps.",
    )
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_CommandParser
    )
    for command, help_text, flags in (
        ("classify", "classify a matrix", []),
        ("sequence", "short-period modulus sequence", [count]),
        ("period", "quantum period of one N", [n]),
        ("propagator", "dump one propagator", [n, even]),
        ("spectrum", "clustered eigensystem", [n, even]),
        ("scan", "sup-norm sweep over N", [n_min, n_max, plot, even, jobs]),
        ("profile", "witness eigenfunction", [n, plot, even]),
        ("dispersive", "power-norm decay", [n, jmax, plot]),
        (
            "verify",
            "check envelope bounds",
            [n_min, n_max, epsilon, records, even, jobs],
        ),
    ):
        sub.add_parser(command, parents=[common, *flags], help=help_text)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        cli_values = {
            key: value
            for key, value in vars(args).items()
            if key not in ("command", "config")
        }
        cfg = RunConfig.from_sources(cli_values, config)
        if cfg.format == "binary" and args.command != "propagator":
            raise UsageError("format binary applies only to propagator")
        if args.command == "verify":
            flags = frozenset(k for k, v in cli_values.items() if v is not None)
            return cmd_verify(cfg, flags)
        return _COMMANDS[args.command](cfg)
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
