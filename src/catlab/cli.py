"""Command-line surface tying the modules into a reproducible toolchain.

Every command reads the same configuration stack (command-line flags
override config-file values override defaults), writes CSV/JSON to a
file or stdout, and emits optional SVG plots. Identical configuration
yields byte-identical output.

Exit codes: 0 success, 1 domain rejection, 2 usage error, 3 I/O error,
4 certification failure (a propagator, eigensystem or clustering check
exceeded its bound).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from typing import IO, Callable

from . import arith, experiments, quantize, spectral, svg

PROG = "catlab"


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
    """Merged configuration for one command invocation.

    Round-trips losslessly through its flat JSON representation; see
    to_dict/from_dict.
    """

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
    tol_unitarity: float = 1e-9
    tol_cluster: float = 1e-7
    allow_even_n: bool = False
    jobs: int = 1

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        return cls.from_sources({}, data)

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
        if self.tol_unitarity <= 0 or self.tol_cluster <= 0:
            raise UsageError("tolerance overrides must be positive")
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
    else:
        render(sys.stdout)


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
    if cfg.format == "json":
        _write_text(cfg, lambda fh: fh.write(_dump_json(report.to_dict())))
    else:
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
        _write_text(cfg, lambda fh: fh.write("\n".join(lines) + "\n"))
    return 0 if report.is_quantizable else 1


def cmd_sequence(cfg: RunConfig) -> int:
    pairs = arith.short_period_sequence(cfg.matrix(), cfg.count)
    if cfg.format == "json":
        payload = [
            {"k": k, "N_k": modulus, "t_k": period}
            for k, (modulus, period) in enumerate(pairs, start=1)
        ]
        _write_text(cfg, lambda fh: fh.write(_dump_json(payload)))
    else:
        def render(fh):
            fh.write("k,N_k,t_k\n")
            for k, (modulus, period) in enumerate(pairs, start=1):
                fh.write("%d,%d,%d\n" % (k, modulus, period))

        _write_text(cfg, render)
    return 0


def cmd_period(cfg: RunConfig) -> int:
    n = _require_n(cfg)
    record = arith.quantum_period(cfg.matrix(), n)
    if cfg.format == "json":
        _write_text(cfg, lambda fh: fh.write(_dump_json(record.to_dict())))
    else:
        def render(fh):
            fh.write("N,T_N,n_N,rule\n")
            fh.write(
                "%d,%d,%d,%s\n"
                % (record.N, record.T_N, record.n_N, record.parity_rule_used.value)
            )

        _write_text(cfg, render)
    return 0


def cmd_propagator(cfg: RunConfig) -> int:
    n = _require_n(cfg)
    prop = quantize.build_propagator(
        cfg.matrix(),
        n,
        allow_even=cfg.allow_even_n,
        unitarity_tol=cfg.tol_unitarity,
    )
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
    _, report = experiments.clustered_spectrum(
        cfg.matrix(), n, cfg.tol_cluster, cfg.tol_unitarity, cfg.allow_even_n
    )
    payload = spectral.report_to_dict(report)
    if cfg.format == "json":
        _write_text(cfg, lambda fh: fh.write(_dump_json(payload)))
    else:
        cluster_of = {}
        for cid, cluster in enumerate(payload["clusters"]):
            for index in cluster["indices"]:
                cluster_of[index] = cid

        def render(fh):
            fh.write("index,re,im,phase,cluster,residual\n")
            for i, (re, im) in enumerate(payload["eigenvalues"]):
                fh.write(
                    "%d,%s,%s,%s,%d,%s\n"
                    % (
                        i,
                        repr(re),
                        repr(im),
                        repr(payload["clusters"][cluster_of[i]]["phase"]),
                        cluster_of[i],
                        repr(float(report.residuals[i])),
                    )
                )

        _write_text(cfg, render)
    return 0


def _emit_records(cfg: RunConfig, records, write_csv, to_json) -> None:
    if cfg.format == "json":
        _write_text(cfg, lambda fh: fh.write(_dump_json(to_json(records))))
    else:
        _write_text(cfg, lambda fh: write_csv(records, fh))


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
        cfg.matrix(),
        cfg.n_min,
        cfg.n_max,
        jobs=cfg.jobs,
        cluster_tol=cfg.tol_cluster,
        unitarity_tol=cfg.tol_unitarity,
        allow_even=cfg.allow_even_n,
    )


def cmd_scan(cfg: RunConfig) -> int:
    records = _scan(cfg)
    _emit_records(
        cfg, records, experiments.write_scan_csv, experiments.scan_records_to_json
    )
    _write_svg(cfg, lambda fh: svg.render_scan_svg(records, fh))
    _warn_errors(records)
    return 0


def cmd_profile(cfg: RunConfig) -> int:
    n = _require_n(cfg)
    profile = experiments.eigenfunction_profile(
        cfg.matrix(),
        n,
        cluster_tol=cfg.tol_cluster,
        unitarity_tol=cfg.tol_unitarity,
        allow_even=cfg.allow_even_n,
    )
    _emit_records(
        cfg,
        profile,
        experiments.write_profile_csv,
        experiments.profile_to_json,
    )
    _write_svg(cfg, lambda fh: svg.render_profile_svg(profile, fh))
    return 0


def cmd_dispersive(cfg: RunConfig) -> int:
    n = _require_n(cfg)
    records = experiments.dispersive_scan(
        cfg.matrix(), [n], cfg.jmax, unitarity_tol=cfg.tol_unitarity
    )
    _emit_records(
        cfg,
        records,
        experiments.write_dispersive_csv,
        experiments.dispersive_records_to_json,
    )
    _write_svg(cfg, lambda fh: svg.render_dispersive_svg(records, fh))
    _warn_errors(records)
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    if cfg.records:
        with open(cfg.records, "r", encoding="utf-8") as fh:
            records = experiments.read_scan_csv(fh)
    else:
        records = _scan(cfg)
    report = experiments.verify_bounds(records, eps=cfg.epsilon)
    if cfg.format == "json":
        _write_text(cfg, lambda fh: fh.write(_dump_json(report.to_dict())))
    else:
        def render(fh):
            fh.write("bound,N,value,threshold,ok\n")
            for bound, checks in (("lower", report.lower), ("upper", report.upper)):
                for check in checks:
                    fh.write(
                        "%s,%d,%s,%s,%s\n"
                        % (bound, check.N, repr(check.value), repr(check.threshold),
                           "true" if check.ok else "false")
                    )

        _write_text(cfg, render)
    return 0


_COMMANDS = {
    "classify": cmd_classify,
    "sequence": cmd_sequence,
    "period": cmd_period,
    "propagator": cmd_propagator,
    "spectrum": cmd_spectrum,
    "scan": cmd_scan,
    "profile": cmd_profile,
    "dispersive": cmd_dispersive,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat JSON config file")
    common.add_argument("-a", type=int, dest="a", help="matrix entry a")
    common.add_argument("-b", type=int, dest="b", help="matrix entry b")
    common.add_argument("-c", type=int, dest="c", help="matrix entry c")
    common.add_argument("-d", type=int, dest="d", help="matrix entry d")
    common.add_argument("--format", choices=("csv", "json", "binary"))
    common.add_argument("--out", help="output path (default: stdout)")
    common.add_argument("--svg", help="also render an SVG plot to this path")
    common.add_argument("--tol-unitarity", type=float, dest="tol_unitarity")
    common.add_argument("--tol-cluster", type=float, dest="tol_cluster")
    common.add_argument(
        "--allow-even-n",
        action="store_const",
        const=True,
        dest="allow_even_n",
        help="allow even dimensions (exploration only)",
    )
    common.add_argument(
        "--jobs", type=int, help="worker processes for scans, one BLAS thread each"
    )

    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Numerical laboratory for quantized hyperbolic torus maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("classify", parents=[common], help="classify a matrix")
    p = sub.add_parser(
        "sequence", parents=[common], help="short-period modulus sequence"
    )
    p.add_argument("--count", type=int, help="number of pairs to emit")
    p = sub.add_parser("period", parents=[common], help="quantum period of one N")
    p.add_argument("--n", type=int, help="dimension N")
    p = sub.add_parser("propagator", parents=[common], help="dump one propagator")
    p.add_argument("--n", type=int, help="dimension N")
    p = sub.add_parser("spectrum", parents=[common], help="clustered eigensystem")
    p.add_argument("--n", type=int, help="dimension N")
    p = sub.add_parser("scan", parents=[common], help="sup-norm sweep over N")
    p.add_argument("--n-min", type=int, dest="n_min")
    p.add_argument("--n-max", type=int, dest="n_max")
    p = sub.add_parser("profile", parents=[common], help="witness eigenfunction")
    p.add_argument("--n", type=int, help="dimension N")
    p = sub.add_parser("dispersive", parents=[common], help="power-norm decay")
    p.add_argument("--n", type=int, help="dimension N")
    p.add_argument("--jmax", type=int, help="largest power")
    p = sub.add_parser("verify", parents=[common], help="check envelope bounds")
    p.add_argument("--n-min", type=int, dest="n_min")
    p.add_argument("--n-max", type=int, dest="n_max")
    p.add_argument("--epsilon", type=float, help="slack in the bound checks")
    p.add_argument("--records", help="scan CSV to verify instead of rescanning")
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
    except experiments.CERTIFICATION_ERRORS as exc:
        print("%s: certification failed: %s" % (PROG, exc), file=sys.stderr)
        return 4


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
