"""Command-line interface: run cases, sweep the crossing-fracture grid,
validate mesh documents.

Exit codes: 0 success, 2 mesh errors, 3 discretization/assembly errors,
4 solver errors (a singular or numerically singular system), 1 anything else.
Condition numbers have no size limit.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..errors import (
    AssemblyError,
    DiscretizationError,
    EliminationError,
    FracfvError,
    MeshError,
    SolverError,
    TransportError,
)
from .cases import CASE_IDS, CaseSpec, run_case, sweep_case11
from .export import report_envelope, write_report


def _parse_overrides(pairs):
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise FracfvError(f"override {pair!r} is not of the form key=value")
        key, value = pair.split("=", 1)
        try:
            out[key] = float(value)
        except ValueError:
            out[key] = value
    return out


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracfv",
        description="Mixed-dimensional finite-volume solver for fractured porous media",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a preset case")
    run.add_argument("case", choices=CASE_IDS)
    run.add_argument("--resolution", type=int, default=None, help="cells per axis")
    run.add_argument("--disc", choices=["tpfa", "mpfa", "hybrid"], default=None)
    run.add_argument("--elim", choices=["none", "schur", "star_delta"], default=None)
    run.add_argument("--out", type=Path, default=Path("fracfv-out"))
    run.add_argument("--override", action="append", metavar="KEY=VALUE")
    run.add_argument("--vtk", action="store_true", help="also write legacy VTK fields")

    sweep = sub.add_parser("sweep", help="crossing-fracture permeability sweep")
    sweep.add_argument("--resolution", type=int, default=8)
    sweep.add_argument("--values", default="1e-3,1,1e3", help="comma-separated permeabilities")
    sweep.add_argument("--out", type=Path, default=Path("fracfv-out"))

    validate = sub.add_parser("validate-mesh", help="check a mesh document")
    validate.add_argument("file", type=Path)
    return parser


def _cmd_run(args) -> int:
    spec = CaseSpec(
        case=args.case,
        resolution=args.resolution,
        discretization=args.disc,
        elimination=args.elim,
        overrides=_parse_overrides(args.override),
        out_dir=args.out,
        write_vtk=args.vtk,
    )
    result = run_case(spec)
    print(f"case {args.case} finished; report at {Path(args.out) / 'report.json'}")
    _summarize(result.report.get("results", {}))
    return 0


def _summarize(results: dict, indent: str = "  ") -> None:
    for key, value in results.items():
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _summarize(value, indent + "  ")
        elif isinstance(value, float):
            print(f"{indent}{key} = {value:.6g}")
        elif not isinstance(value, (list, tuple)):
            print(f"{indent}{key} = {value}")


def _cmd_sweep(args) -> int:
    values = [float(v) for v in args.values.split(",")]
    sweep = sweep_case11(values, args.resolution)
    report = report_envelope(
        {"id": "1.1-sweep", "resolution": args.resolution, "values": values}, sweep["matrices"]
    )
    path = write_report(report, args.out)
    print(f"sweep finished; report at {path}")
    return 0


def _cmd_validate(args) -> int:
    from ..mdmesh import load_mesh

    mesh = load_mesh(args.file)
    counts = [(g.dim, g.n_cells, g.n_faces, g.n_nodes) for g in mesh.subdomains]
    print(f"mesh OK: {len(mesh.subdomains)} subdomains, {len(mesh.interfaces)} interfaces")
    for dim, nc, nf, nn in counts:
        print(f"  dim {dim}: {nc} cells, {nf} faces, {nn} nodes")
    return 0


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_validate(args)
    except MeshError as exc:
        print(f"mesh error: {exc}", file=sys.stderr)
        return 2
    except (DiscretizationError, AssemblyError, EliminationError, TransportError) as exc:
        print(f"discretization error: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 4
    except FracfvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
