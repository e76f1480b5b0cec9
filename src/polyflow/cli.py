"""Command-line front end: regularize, smooth, spectrum, classify.

Exit codes: 0 success/convergence, 2 iteration budget exhausted,
3 divergence, 64 usage error, 65 malformed input file, 66 missing file.
The flow's warning that a step may overshoot is one ``warning:`` line on
stderr and leaves the exit code as it is.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import os
import sys
import warnings

import numpy as np

from . import elements, flow, mesh as mesh_mod, sampling, spectral
from .sphere import DegenerateConfigurationError, pi

EXIT_OK = 0
EXIT_MAX_ITERS = 2
EXIT_DIVERGENCE = 3
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_NOINPUT = 66

_FIELD_NAMES = {"gradient": elements.GRADIENT, "y-variant": elements.Y_VARIANT}


class _Parser(argparse.ArgumentParser):
    """argparse with BSD-style usage exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="polyflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    reg = sub.add_parser("regularize", help="flow a single element to a singular shape")
    reg.add_argument("--type", required=True, choices=elements.KINDS)
    reg.add_argument("--field", default="gradient", choices=sorted(_FIELD_NAMES))
    src = reg.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="configuration JSON file")
    src.add_argument("--random", type=int, metavar="SEED",
                     help="seeded random start (see README for the generator)")
    reg.add_argument("--step", type=float, default=0.05)
    reg.add_argument("--max-iters", type=int, default=10 ** 5)
    reg.add_argument("--tol", type=float, default=1e-10)
    reg.add_argument("--normalization", default="psi", choices=("psi", "none"))
    reg.add_argument("--trajectory", metavar="FILE.csv")
    reg.add_argument("--output", metavar="FILE")

    smo = sub.add_parser("smooth", help="smooth a mesh by field averaging")
    smo.add_argument("--input", required=True, metavar="mesh.json")
    smo.add_argument("--output", metavar="out.json")
    smo.add_argument("--step", type=float, default=0.05)
    smo.add_argument("--max-iters", type=int, default=10 ** 4)
    smo.add_argument("--quality-tol", type=float, default=1e-10)
    smo.add_argument("--report", metavar="report.csv")

    spe = sub.add_parser("spectrum", help="eigenvalues of the projected field Jacobian")
    spe.add_argument("--type", required=True, choices=elements.KINDS)
    spe.add_argument("--field", default="gradient", choices=sorted(_FIELD_NAMES))
    spe.add_argument("--at", required=True,
                     help="'optimal', 'collinear' (tetrahedron only), or a JSON file")

    cla = sub.add_parser("classify", help="singularity class of a configuration")
    cla.add_argument("--type", required=True, choices=elements.KINDS)
    cla.add_argument("--input", required=True, metavar="FILE")
    cla.add_argument("--field", default="gradient", choices=sorted(_FIELD_NAMES))
    cla.add_argument("--tol", type=float, default=1e-10)
    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser of :func:`main`, built once per process on first use."""
    return _build_parser()


def _resolve_variant(parser, kind, field_name):
    variant = _FIELD_NAMES[field_name]
    if variant not in elements.VARIANTS_BY_KIND[kind]:
        parser.error(f"--field {field_name} is not defined for --type {kind}")
    return variant


def _load_configuration(path, kind) -> np.ndarray:
    """Read a configuration: bare {'vertices': ...} or a one-element mesh."""
    data = mesh_mod._read_json(path)
    if isinstance(data, dict) and "elements" in data:
        m = mesh_mod.mesh_from_dict(data)
        if len(m.elements) != 1 or m.elements[0][0] != kind:
            raise mesh_mod.MeshFormatError(
                f"expected a single {kind} element in {path}")
        p = m.vertices[list(m.elements[0][1])]
    elif isinstance(data, dict) and "vertices" in data:
        p = mesh_mod._parse_vertices(data["vertices"])
    else:
        raise mesh_mod.MeshFormatError("configuration JSON needs a 'vertices' key")
    if p.shape != (elements.VERTEX_COUNT[kind], 3):
        raise mesh_mod.MeshFormatError(
            f"{kind} expects {elements.VERTEX_COUNT[kind]} vertices, got {p.shape}")
    return p


def _flow_settings(**kwargs) -> flow.FlowSettings:
    """FlowSettings from command-line values; an invalid one is a usage error."""
    try:
        return flow.FlowSettings(**kwargs)
    except ValueError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        raise SystemExit(EXIT_USAGE) from exc


def _check_outputs(**paths) -> None:
    """A usage error unless each given output path can be written as a file.

    Run before any work, so that a bad path writes nothing: the path must
    not be a directory, and its parent directory must exist.
    """
    for flag, path in paths.items():
        if not path:
            continue
        if os.path.isdir(path):
            problem = "is a directory"
        elif not os.path.isdir(os.path.dirname(path) or "."):
            problem = "is in a directory that does not exist"
        else:
            continue
        sys.stderr.write(f"usage error: --{flag} {path} {problem}\n")
        raise SystemExit(EXIT_USAGE)


@contextlib.contextmanager
def _warnings_as_lines():
    """Write each UserWarning raised in the block as one ``warning:`` line on stderr.

    Any other warning is issued again, unchanged, when the block ends.
    """
    try:
        with warnings.catch_warnings(record=True) as caught:
            yield
    finally:
        for w in caught:
            if issubclass(w.category, UserWarning):
                sys.stderr.write(f"warning: {w.message}\n")
            else:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)


def _cmd_regularize(parser, args) -> int:
    variant = _resolve_variant(parser, args.type, args.field)
    settings = _flow_settings(step=args.step, max_iters=args.max_iters,
                              tol=args.tol, normalization=args.normalization)
    _check_outputs(output=args.output, trajectory=args.trajectory)
    if args.input is not None:
        p0 = _load_configuration(args.input, args.type)
    else:
        p0 = sampling.random_configuration(args.type, args.random, variant)
    try:
        with _warnings_as_lines():
            if args.trajectory:
                traj = flow.integrate(args.type, variant, p0, settings)
                end = (traj.p_final, traj.residual_final, traj.iterations, traj.converged,
                       traj.halvings, traj.monotone_breaks)
            else:  # no recorder: the kernel on a batch of one
                out = flow.integrate_batch(args.type, variant, p0[None], settings)
                end = (out["p"][0], float(out["residual"][0]), int(out["iterations"][0]),
                       bool(out["converged"][0]), out["halvings"], out["monotone_breaks"])
    except flow.FlowDivergenceError as exc:
        sys.stderr.write(f"divergence: {exc}\n")
        return EXIT_DIVERGENCE
    p, residual, iterations, converged, halvings, breaks = end
    cls = flow.classify(args.type, variant, p, tol=args.tol)
    result = {
        "type": args.type,
        "field": args.field,
        "vertices": [[float(x) for x in row] for row in p],
        "classification": cls.tag,
        "lambda": cls.lam,
        "residual": residual,
        "iterations": iterations,
        "converged": converged,
        "halvings": halvings,
        "monotone_breaks": breaks,
    }
    text = json.dumps(result, indent=2)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if args.trajectory:
        flow.trajectory_to_csv(traj, args.trajectory)
    return EXIT_OK if converged else EXIT_MAX_ITERS


def _cmd_smooth(args) -> int:
    settings = _flow_settings(step=args.step, max_iters=args.max_iters)
    if np.isnan(args.quality_tol):
        sys.stderr.write("usage error: quality_tol must be a number, got nan\n")
        return EXIT_USAGE
    _check_outputs(output=args.output, report=args.report)
    m = mesh_mod.load_mesh(args.input)
    try:
        smoothed, reports = mesh_mod.smooth(m, settings, max_iters=args.max_iters,
                                            quality_tol=args.quality_tol)
    except flow.FlowDivergenceError as exc:
        sys.stderr.write(f"divergence: {exc}\n")
        return EXIT_DIVERGENCE
    if args.output:
        mesh_mod.save_mesh(smoothed, args.output)
    if args.report:
        with open(args.report, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iter", "mesh_mean_volume", "min_q", "mean_q",
                            "inverted_count"])
            for it, rep in enumerate(reports):
                writer.writerow([it,
                                 format(rep.mesh_mean_volume, ".17g"),
                                 format(rep.min_q, ".17g"),
                                 format(rep.mean_q, ".17g"),
                                 rep.inverted_count])
    final = reports[-1]
    print(json.dumps({
        "iterations": len(reports) - 1,
        "mesh_mean_volume": final.mesh_mean_volume,
        "min_q": final.min_q,
        "mean_q": final.mean_q,
        "max_q": final.max_q,
        "inverted_count": final.inverted_count,
    }, indent=2))
    return EXIT_OK


def _cmd_spectrum(parser, args) -> int:
    variant = _resolve_variant(parser, args.type, args.field)
    if args.at == "optimal":
        p = elements.reference_optimal(args.type)
    elif args.at == "collinear":
        if args.type != "tetrahedron":
            parser.error("--at collinear is defined for --type tetrahedron")
        p = elements.collinear_tetrahedron()
    else:
        p = _load_configuration(args.at, args.type)
    spec = spectral.hessian_spectrum(args.type, variant, p)
    print(spec.to_json())
    if args.at == "collinear":
        pos, neg = spec.signature()
        print(json.dumps({"positive": pos, "negative": neg}))
    return EXIT_OK


def _cmd_classify(parser, args) -> int:
    variant = _resolve_variant(parser, args.type, args.field)
    p = _load_configuration(args.input, args.type)
    cls = flow.classify(args.type, variant, pi(p), tol=args.tol)
    print(json.dumps({
        "classification": cls.tag,
        "lambda": cls.lam,
        "residual": cls.residual,
    }, indent=2))
    return EXIT_OK


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "regularize":
            return _cmd_regularize(parser, args)
        if args.command == "smooth":
            return _cmd_smooth(args)
        if args.command == "spectrum":
            return _cmd_spectrum(parser, args)
        if args.command == "classify":
            return _cmd_classify(parser, args)
    except FileNotFoundError as exc:
        sys.stderr.write(f"missing file: {exc.filename}\n")
        return EXIT_NOINPUT
    except IsADirectoryError as exc:
        sys.stderr.write(f"not a file: {exc.filename}\n")
        return EXIT_NOINPUT
    except (mesh_mod.MeshFormatError, DegenerateConfigurationError) as exc:
        # a degenerate configuration is raised only for the input: a
        # collapse during a flow or a sweep is a FlowDivergenceError
        sys.stderr.write(f"malformed input: {exc}\n")
        return EXIT_DATA
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    parser.error(f"unknown command {args.command!r}")
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
