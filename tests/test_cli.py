"""End-to-end tests of the command-line interface."""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import sysconfig
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import polyflow as pf
from polyflow import cli, flow


def _json_docs(text):
    """Parse a stream of concatenated JSON documents."""
    decoder = json.JSONDecoder()
    docs, idx = [], 0
    while idx < len(text):
        doc, end = decoder.raw_decode(text, idx)
        docs.append(doc)
        idx = end
        while idx < len(text) and text[idx].isspace():
            idx += 1
    return docs


@pytest.fixture
def cube_config(tmp_path):
    path = tmp_path / "cube.json"
    path.write_text(json.dumps(
        {"vertices": pf.reference_optimal("hexahedron").tolist()}))
    return path


@pytest.fixture
def pyramid_mesh(tmp_path):
    # the same configuration wrapped in the single-element mesh schema
    path = tmp_path / "pyr_mesh.json"
    v = pf.reference_optimal("pyramid")
    pf.save_mesh(pf.Mesh(vertices=v,
                         elements=(("pyramid", (0, 1, 2, 3, 4)),),
                         fixed=frozenset()), path)
    return path


@pytest.fixture
def perturbed_cube_mesh(tmp_path):
    rng = np.random.default_rng(11)
    v = pf.reference_optimal("hexahedron") + rng.uniform(-0.1, 0.1, (8, 3))
    path = tmp_path / "mesh.json"
    pf.save_mesh(pf.Mesh(vertices=v,
                         elements=(("hexahedron", tuple(range(8))),),
                         fixed=frozenset()), path)
    return path


# The seven (kind, field) pairs of the command line.
CLI_PAIRS = [(kind, "gradient") for kind in pf.KINDS] + [
    ("prism", "y-variant"), ("hexahedron", "y-variant")]


class TestRegularize:
    def test_random_seed(self, capsys):
        rc = cli.main(["regularize", "--type", "tetrahedron",
                       "--random", "42"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["classification"] == "optimal_positive"
        assert doc["converged"] is True
        assert doc["residual"] < 1e-10
        assert doc["iterations"] > 0

    def test_non_gradient_field_reports_guard_counts(self, capsys):
        # prism y is not a gradient: the q_c monitor counts breaks; the
        # flow takes every step at full length and reports no halvings
        rc = cli.main(["regularize", "--type", "prism", "--field", "y-variant",
                       "--random", "0"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert "halvings" not in doc and doc["monotone_breaks"] > 0

    def test_cube_is_already_optimal(self, capsys, cube_config):
        rc = cli.main(["regularize", "--type", "hexahedron",
                       "--field", "y-variant", "--input", str(cube_config)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["iterations"] == 0
        assert doc["classification"] == "optimal_positive"

    def test_y_variant_needs_supporting_kind(self, capsys):
        rc = cli.main(["regularize", "--type", "tetrahedron",
                       "--field", "y-variant", "--random", "1"])
        assert rc == 64
        assert "y-variant" in capsys.readouterr().err

    def test_budget_exhausted(self, capsys):
        rc = cli.main(["regularize", "--type", "tetrahedron",
                       "--random", "42", "--max-iters", "3"])
        assert rc == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["converged"] is False
        assert doc["iterations"] == 3

    @pytest.mark.parametrize("trajectory", [False, True])
    def test_overshoot_warning_is_one_line(self, capsys, tmp_path, trajectory):
        # the library warns; the CLI prints that warning as one line and
        # keeps the exit code of the run (here: budget exhausted)
        argv = ["regularize", "--type", "tetrahedron", "--random", "0",
                "--step", "5", "--max-iters", "3"]
        if trajectory:
            argv += ["--trajectory", str(tmp_path / "t.csv")]
        rc = cli.main(argv)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("warning: step 5.0 times field scale estimate")
        assert err.endswith("may overshoot\n")
        assert len(err.splitlines()) == 1, err

    def test_non_finite_step_diverges(self, monkeypatch, capsys):
        # a zero psi divisor makes the step non-finite: one divergence line
        def zero_root(x_norm, out):
            out[...] = 0.0
            return out

        monkeypatch.setattr(flow, "_psi_divisor", zero_root)
        rc = cli.main(["regularize", "--type", "tetrahedron", "--random", "2"])
        assert rc == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("divergence:") and len(err.splitlines()) == 1, err

    @pytest.mark.parametrize("run", ["converged", "budget", "trajectory"])
    @pytest.mark.parametrize("kind,field", CLI_PAIRS)
    def test_json_text_is_json_dumps(self, capsys, tmp_path, kind, field, run):
        # the text has the bytes of json's indent=2
        flags = {"converged": [], "budget": ["--max-iters", "3"],
                 "trajectory": ["--trajectory", str(tmp_path / "t.csv")]}[run]
        rc = cli.main(["regularize", "--type", kind, "--field", field, "--random", "3"]
                      + flags)
        assert rc == (2 if run == "budget" else 0)
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    @pytest.mark.parametrize("trajectory", [False, True])
    def test_final_state_is_not_measured_again(self, monkeypatch, capsys, tmp_path, trajectory):
        # the flow's own final residual and lambda classify the result
        def measured_again(*args):
            raise AssertionError("regularize measured its final state again")

        monkeypatch.setattr(flow, "singularity_residual", measured_again)
        flags = ["--trajectory", str(tmp_path / "t.csv")] if trajectory else []
        assert cli.main(["regularize", "--type", "pyramid", "--random", "4"] + flags) == 0
        assert json.loads(capsys.readouterr().out)["classification"] == "optimal_positive"

    @pytest.mark.parametrize("flags", [[], ["--max-iters", "3"], ["--tol", "1e-6"]],
                             ids=["converged", "budget", "tol"])
    @pytest.mark.parametrize("trajectory", [False, True])
    @pytest.mark.parametrize("kind,field", CLI_PAIRS)
    def test_classification_is_classify_at_the_printed_vertices(self, capsys, tmp_path, kind,
                                                                field, trajectory, flags):
        # regularize classifies from the flow's own final residual and lambda:
        # classify at the printed vertices, with --tol as given, agrees
        tol = float(flags[1]) if flags[:1] == ["--tol"] else flow.FlowSettings.tol
        if trajectory:
            flags = flags + ["--trajectory", str(tmp_path / "t.csv")]
        for seed in range(5):
            cli.main(["regularize", "--type", kind, "--field", field,
                      "--random", str(seed)] + flags)
            doc = json.loads(capsys.readouterr().out)
            cls = flow.classify(kind, cli._FIELD_NAMES[field], np.array(doc["vertices"]), tol)
            assert (doc["classification"], doc["lambda"], doc["residual"]) == (
                cls.tag, cls.lam, cls.residual), seed

    def test_output_and_trajectory_files(self, capsys, tmp_path):
        out = tmp_path / "result.json"
        traj1 = tmp_path / "t1.csv"
        traj2 = tmp_path / "t2.csv"
        argv = ["regularize", "--type", "pyramid", "--random", "7",
                "--output", str(out)]
        assert cli.main(argv + ["--trajectory", str(traj1)]) == 0
        assert cli.main(argv + ["--trajectory", str(traj2)]) == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert doc["type"] == "pyramid"
        assert len(doc["vertices"]) == 5
        # repeated runs are byte-identical
        assert traj1.read_bytes() == traj2.read_bytes()
        header = traj1.read_text().splitlines()[0]
        assert header == "iteration,f,residual,lambda,edge_spread"

    def test_mesh_style_input(self, capsys, pyramid_mesh):
        rc = cli.main(["regularize", "--type", "pyramid",
                       "--input", str(pyramid_mesh)])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["iterations"] == 0

    def test_wrong_kind_for_mesh_input(self, capsys, pyramid_mesh):
        rc = cli.main(["regularize", "--type", "prism",
                       "--input", str(pyramid_mesh)])
        assert rc == 65


class TestSmooth:
    def test_perturbed_cube(self, capsys, tmp_path, perturbed_cube_mesh):
        out = tmp_path / "out.json"
        report = tmp_path / "report.csv"
        rc = cli.main(["smooth", "--input", str(perturbed_cube_mesh),
                       "--output", str(out), "--report", str(report)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["min_q"] >= 0.99
        assert doc["inverted_count"] == 0
        smoothed = pf.load_mesh(out)
        assert pf.quality_report(smoothed).min_q >= 0.99
        lines = report.read_text().splitlines()
        assert lines[0] == "iter,mesh_mean_volume,min_q,mean_q,inverted_count"
        assert len(lines) == doc["iterations"] + 2

    def test_all_fixed_identity_with_warning(self, tmp_path):
        path = tmp_path / "fixed.json"
        v = pf.reference_optimal("hexahedron")
        pf.save_mesh(pf.Mesh(vertices=v,
                             elements=(("hexahedron", tuple(range(8))),),
                             fixed=frozenset(range(8))), path)
        out = tmp_path / "out.json"
        proc = subprocess.run(
            [sys.executable, "-m", "polyflow.cli", "smooth",
             "--input", str(path), "--output", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stderr == "warning: all vertices fixed; smoothing is the identity\n"
        m2 = pf.load_mesh(out)
        assert m2.vertices.tobytes() == v.tobytes()

    def test_missing_input(self, capsys, tmp_path):
        rc = cli.main(["smooth", "--input", str(tmp_path / "absent.json")])
        assert rc == 66
        assert "missing file" in capsys.readouterr().err

    def test_malformed_input(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"vertices": [[0, 0, 0],\n')
        rc = cli.main(["smooth", "--input", str(path)])
        assert rc == 65
        assert "line" in capsys.readouterr().err

    @pytest.mark.parametrize("nodes,fixed,needle", [
        ([0, 1, 2.7, 3], [], "2.7"),
        ("0123", [], "nodes"),
        ([0, 1, 2, 3], [True], "True"),
    ])
    def test_non_integer_indices(self, capsys, tmp_path, nodes, fixed, needle):
        path = tmp_path / "mesh.json"
        path.write_text(json.dumps({
            "vertices": pf.reference_optimal("tetrahedron").tolist(),
            "elements": [{"type": "tetrahedron", "nodes": nodes}],
            "fixed": fixed}))
        rc = cli.main(["smooth", "--input", str(path)])
        assert rc == 65
        err = capsys.readouterr().err
        assert err.startswith("malformed input:") and needle in err

    @pytest.mark.parametrize("bad_vertex", [[0.0, 0.0, 0.0], [float("nan"), 0.0, 0.0]])
    def test_degenerate_input_element(self, capsys, tmp_path, bad_vertex):
        # element 1 collapses to a point, or carries a non-finite coordinate
        v = np.vstack([pf.reference_optimal("tetrahedron"), np.zeros((3, 3)),
                       [bad_vertex]])
        path = tmp_path / "mesh.json"
        pf.save_mesh(pf.Mesh(vertices=v,
                             elements=(("tetrahedron", (0, 1, 2, 3)),
                                       ("tetrahedron", (4, 5, 6, 7))),
                             fixed=frozenset()), path)
        rc = cli.main(["smooth", "--input", str(path)])
        assert rc == 65
        err = capsys.readouterr().err
        assert "element 1" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("vertex,elements,needle", [
        (["a", 0.0, 0.0], None, "not a number"),
        ([None, 0.0, 0.0], None, "not a number"),
        ([True, 0.0, 0.0], None, "not a number"),
        ([10 ** 400, 0.0, 0.0], None, "out of range"),
        ([0.0, 0.0, 0.0], [], "elements is empty"),
        ([0.0, 0.0, 0.0], {}, "elements must be a list"),
    ])
    def test_malformed_schema(self, capsys, tmp_path, vertex, elements, needle):
        path = tmp_path / "mesh.json"
        path.write_text(json.dumps({
            "vertices": [vertex] + pf.reference_optimal("tetrahedron")[1:].tolist(),
            "elements": ([{"type": "tetrahedron", "nodes": [0, 1, 2, 3]}]
                         if elements is None else elements)}))
        rc = cli.main(["smooth", "--input", str(path)])
        assert rc == 65
        err = capsys.readouterr().err
        assert err.startswith("malformed input:") and needle in err
        assert len(err.splitlines()) == 1

    def test_divergence_during_smoothing(self, capsys, tmp_path, perturbed_cube_mesh):
        # the input is sound; the first sweep's volumes overflow
        rc = cli.main(["smooth", "--input", str(perturbed_cube_mesh),
                       "--step", "1e150"])
        assert rc == 3
        assert "divergence" in capsys.readouterr().err


    def test_overflowing_step_prints_one_line(self, perturbed_cube_mesh):
        # the step overflows and the state it leads to is not finite: one
        # divergence line, and no numpy warning before it
        proc = subprocess.run(
            [sys.executable, "-m", "polyflow.cli", "smooth",
             "--input", str(perturbed_cube_mesh), "--step", "1.7e308"],
            capture_output=True, text=True)
        assert proc.returncode == 3
        assert proc.stderr.startswith("divergence:")
        assert len(proc.stderr.splitlines()) == 1, proc.stderr

    @pytest.mark.parametrize("case,code", [("directory", 66), ("not utf-8", 65),
                                           ("nan quality-tol", 64)])
    def test_input_boundary(self, capsys, tmp_path, perturbed_cube_mesh, case, code):
        # each ends in its documented exit code with a one-line message
        argv = ["smooth", "--input", str(perturbed_cube_mesh)]
        if case == "directory":
            argv[2] = str(tmp_path)
        elif case == "not utf-8":
            path = tmp_path / "latin1.json"
            path.write_bytes('{"vertices": [], "name": "Möbius"}'.encode("latin-1"))
            argv[2] = str(path)
        else:
            argv += ["--quality-tol", "nan"]
        assert cli.main(argv) == code
        assert len(capsys.readouterr().err.splitlines()) == 1


class TestSpectrum:
    def test_optimal_tetrahedron(self, capsys):
        rc = cli.main(["spectrum", "--type", "tetrahedron", "--at", "optimal"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["zero_count"] == 6
        nonzero = [e for e in doc["eigenvalues"]
                   if abs(e["value"]) > 1e-6]
        assert len(nonzero) == 1
        assert nonzero[0]["value"] == pytest.approx(-np.sqrt(8.0 / 3.0),
                                                    abs=1e-4)
        assert nonzero[0]["multiplicity"] == 6

    def test_collinear_signature(self, capsys):
        rc = cli.main(["spectrum", "--type", "tetrahedron",
                       "--at", "collinear"])
        assert rc == 0
        docs = _json_docs(capsys.readouterr().out)
        assert docs[1] == {"positive": 2, "negative": 2}

    def test_collinear_rejected_for_other_kinds(self, capsys):
        rc = cli.main(["spectrum", "--type", "pyramid", "--at", "collinear"])
        assert rc == 64

    @pytest.mark.parametrize("k", [700, -700])
    def test_spectrum_does_not_depend_on_the_scale(self, capsys, tmp_path, k):
        # pi(2^k p) = pi(p) bit for bit: the spectrum's bytes at 2^k p are
        # those at p
        p = pf.reference_optimal("prism") + np.random.default_rng(5).uniform(-0.1, 0.1, (6, 3))
        texts = []
        for at in (p, np.ldexp(p, k)):
            path = tmp_path / "at.json"
            path.write_text(json.dumps({"vertices": at.tolist()}))
            assert cli.main(["spectrum", "--type", "prism", "--at", str(path)]) == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]

    def test_configuration_file(self, capsys, cube_config):
        rc = cli.main(["spectrum", "--type", "hexahedron",
                       "--field", "y-variant", "--at", str(cube_config)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["zero_count"] == 6


# The commands that read one element's configuration, less the file's path.
over_config_commands = pytest.mark.parametrize("command", [
    ["spectrum", "--type", "tetrahedron", "--at"],
    ["classify", "--type", "tetrahedron", "--input"],
    ["regularize", "--type", "tetrahedron", "--input"],
], ids=["spectrum", "classify", "regularize"])


class TestDegenerateConfiguration:
    @over_config_commands
    @pytest.mark.parametrize("vertices,needle", [
        ([[1.0, 2.0, 3.0]] * 4, "coincide"),
        ([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [float("nan"), 1.0, 0.0],
          [0.0, 0.0, 1.0]], "finite"),
        ([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], ["a", 1.0, 0.0],
          [0.0, 0.0, 1.0]], "not a number"),
    ], ids=["coincident", "nan", "non-numeric"])
    @pytest.mark.parametrize("as_mesh", [False, True], ids=["bare", "mesh"])
    def test_exit_65(self, capsys, tmp_path, command, vertices, needle, as_mesh):
        doc = {"vertices": vertices}
        if as_mesh:
            doc["elements"] = [{"type": "tetrahedron", "nodes": [0, 1, 2, 3]}]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        rc = cli.main(command + [str(path)])
        assert rc == 65
        err = capsys.readouterr().err
        assert err.startswith("malformed input:") and needle in err
        assert len(err.splitlines()) == 1


    @over_config_commands
    def test_huge_finite_configuration_normalizes(self, capsys, tmp_path, command):
        # the squared norm overflows, the configuration does not
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"vertices": [
            [1e308, 0.0, 0.0], [-1e308, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}))
        assert cli.main(command + [str(path)]) == 0
        assert capsys.readouterr().err == ""

    @over_config_commands
    @pytest.mark.parametrize("doc,message", [
        ({"foo": 1}, "configuration JSON needs a 'vertices' key"),
        ([1, 2], "configuration JSON needs a 'vertices' key"),
        ({"vertices": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]},
         "tetrahedron expects 4 vertices, got (3, 3)"),
    ], ids=["no vertices", "list", "three vertices"])
    def test_unreadable_configuration(self, capsys, tmp_path, command, doc, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert cli.main(command + [str(path)]) == 65
        assert capsys.readouterr().err == f"malformed input: {message}\n"


_TET = '[[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, %s]]'


class TestParserLimits:
    # JSON that the parser itself gives up on: too deep for its recursion,
    # or an integer beyond Python's digit limit for int()
    @pytest.mark.parametrize("command", [
        ["smooth", "--input"],
        ["spectrum", "--type", "tetrahedron", "--at"],
        ["classify", "--type", "tetrahedron", "--input"],
        ["regularize", "--type", "tetrahedron", "--input"],
    ], ids=["smooth", "spectrum", "classify", "regularize"])
    @pytest.mark.parametrize("text,needle", [
        ("[" * 2000 + "]" * 2000, "nested too deeply"),
        ('{"vertices": %s}' % (_TET % ("1" * 5000)), "digits"),
        ('{"vertices": %s, "elements": [{"type": "tetrahedron", "nodes": [0, 1, 2, %s]}]}'
         % (_TET % 1, "3" * 5000), "digits"),
    ], ids=["deep", "long coordinate", "long node index"])
    def test_exit_65(self, capsys, tmp_path, command, text, needle):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert cli.main(command + [str(path)]) == 65
        err = capsys.readouterr().err
        assert err.startswith("malformed input:") and needle in err
        assert len(err.splitlines()) == 1


class TestClassify:
    def test_reference_pyramid(self, capsys, tmp_path):
        path = tmp_path / "pyr.json"
        path.write_text(json.dumps(
            {"vertices": pf.reference_optimal("pyramid").tolist()}))
        rc = cli.main(["classify", "--type", "pyramid",
                       "--input", str(path)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["classification"] == "optimal_positive"
        assert doc["residual"] < 1e-10

    def test_flat_pyramid(self, capsys, tmp_path):
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(
            {"vertices": pf.level0_pyramid().tolist()}))
        rc = cli.main(["classify", "--type", "pyramid",
                       "--input", str(path)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["classification"] == "level0_singular"

    @pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf"])
    def test_tol_must_be_positive(self, capsys, tmp_path, tol):
        # residual >= nan is False: a NaN tol would call any shape optimal
        path = tmp_path / "tet.json"
        path.write_text(json.dumps({"vertices": [[0, 0, 0], [1, 0, 0], [0.2, 1, 0],
                                                 [0.3, 0.1, 0.5]]}))
        rc = cli.main(["classify", "--type", "tetrahedron", "--input", str(path),
                       f"--tol={tol}"])
        assert rc == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage error:") and "tol" in err
        assert len(err.splitlines()) == 1


class TestUsage:
    def test_no_arguments(self, capsys):
        assert cli.main([]) == 64

    def test_unknown_subcommand(self, capsys):
        assert cli.main(["polish"]) == 64

    def test_bad_type(self, capsys):
        assert cli.main(["spectrum", "--type", "cube",
                         "--at", "optimal"]) == 64

    def test_parser_built_once_per_process(self, monkeypatch, capsys):
        # the parser is reused across calls: after a usage error the next
        # call prints what a fresh process prints
        argvs = [["spectrum", "--type", "cube", "--at", "optimal"],
                 ["spectrum", "--type", "tetrahedron", "--at", "optimal"]]
        fresh = [subprocess.run([sys.executable, "-m", "polyflow.cli"] + argv,
                                capture_output=True, text=True) for argv in argvs]
        assert [proc.returncode for proc in fresh] == [64, 0]
        builds = []
        build = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", lambda: builds.append(1) or build())
        cli._parser.cache_clear()
        try:
            for argv, proc in zip(argvs, fresh):
                assert cli.main(argv) == proc.returncode
                assert capsys.readouterr() == (proc.stdout, proc.stderr)
        finally:
            cli._parser.cache_clear()
        assert len(builds) == 1

    def test_defaults_are_the_settings_defaults(self):
        # each flag's default is read from its settings type
        parser = cli._build_parser()
        reg = parser.parse_args(["regularize", "--type", "tetrahedron", "--random", "1"])
        assert pf.FlowSettings(step=reg.step, max_iters=reg.max_iters, tol=reg.tol,
                               normalization=reg.normalization) == pf.FlowSettings()
        smo = parser.parse_args(["smooth", "--input", "mesh.json"])
        assert pf.SmoothSettings(step=smo.step, max_iters=smo.max_iters,
                                 quality_tol=smo.quality_tol) == pf.SmoothSettings()
        cla = parser.parse_args(["classify", "--type", "tetrahedron", "--input", "p.json"])
        assert cla.tol == pf.FlowSettings.tol

    def test_top_level_help_is_plain_text(self, capsys):
        assert cli.main(["-h"]) == 0
        out = capsys.readouterr().out
        assert "exit codes:" in out and "``" not in out

    def test_warnings_as_lines_reissues_other_warnings(self, capsys):
        # only a UserWarning becomes a line; a RuntimeWarning is issued again
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with cli._warnings_as_lines():
                warnings.warn("overflow in multiply", RuntimeWarning)
        assert [(w.category, str(w.message), w.filename) for w in caught] == [
            (RuntimeWarning, "overflow in multiply", __file__)]
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv", [
        ["regularize", "--type", "tetrahedron", "--random", "1"],
        ["smooth", "--input", "{mesh}", "--max-iters", "3"],
        ["spectrum", "--type", "tetrahedron", "--at", "optimal"],
        ["classify", "--type", "hexahedron", "--input", "{cube}"],
        ["spectrum", "--type", "tetrahedron", "--at", "optimal", "--fie", "gradient"],
        ["spectrum", "--type", "cube", "--at", "optimal"],
        ["spectrum", "--type", "tetrahedron", "--at", "optimal", "--bogus"],
        ["spectrum", "--type", "tetrahedron", "--at", "optimal", "extra"],
        ["regularize", "--", "--type", "tetrahedron"],
        ["spectrum", "-h"],
        [],
        ["polish"],
        ["-h"],
    ], ids=lambda argv: " ".join(argv) or "no arguments")
    def test_dispatch_is_invisible(self, monkeypatch, capsys, perturbed_cube_mesh,
                                   cube_config, argv):
        # a command parsed by its own subparser gives what parse_args gives:
        # the same namespace, or the same exit code and output
        monkeypatch.setenv("COLUMNS", "80")  # one help width in and out of process
        argv = [a.format(mesh=perturbed_cube_mesh, cube=cube_config) for a in argv]
        parser = cli._parser()

        def parsed(parse):
            try:
                return parse(argv), capsys.readouterr()
            except SystemExit as exc:
                return exc.code, capsys.readouterr()

        assert parsed(lambda a: cli._parse(parser, a)) == parsed(parser.parse_args)
        proc = subprocess.run([sys.executable, "-m", "polyflow.cli"] + argv,
                              capture_output=True, text=True)
        assert cli.main(argv) == proc.returncode
        assert capsys.readouterr() == (proc.stdout, proc.stderr)

    @pytest.mark.parametrize("flags,needle", [
        (["--step", "-1"], "step"),
        (["--step", "0"], "step"),
        (["--step", "nan"], "step"),
        (["--step", "inf"], "step"),
        (["--max-iters", "0"], "max_iters"),
        (["--tol", "0"], "tol"),
        (["--tol", "nan"], "tol"),
        (["--tol", "inf"], "tol"),
    ])
    def test_invalid_flow_settings(self, capsys, flags, needle):
        rc = cli.main(["regularize", "--type", "tetrahedron", "--random", "1"] + flags)
        assert rc == 64
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and needle in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("flags", [["--step", "-1"], ["--step", "nan"],
                                       ["--max-iters", "0"], ["--max-iters", "-3"]])
    def test_invalid_smoothing_settings(self, capsys, perturbed_cube_mesh, flags):
        rc = cli.main(["smooth", "--input", str(perturbed_cube_mesh)] + flags)
        assert rc == 64
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and len(err.splitlines()) == 1

    def test_smooth_makes_at_least_one_sweep(self, capsys, perturbed_cube_mesh):
        # the smoother takes a budget of 0; the command does not
        rc = cli.main(["smooth", "--input", str(perturbed_cube_mesh), "--max-iters", "0"])
        assert rc == 64
        assert capsys.readouterr() == (
            "", "usage error: max_iters must be an integer of at least 1, got 0\n")

    @pytest.mark.parametrize("where", ["directory", "missing directory"])
    @pytest.mark.parametrize("command,flag", [
        ("smooth", "--output"), ("smooth", "--report"),
        ("regularize", "--output"), ("regularize", "--trajectory")])
    def test_output_path_checked_before_the_run(self, capsys, tmp_path, perturbed_cube_mesh,
                                                command, flag, where):
        # an output path that cannot be a file is a usage error before any
        # work: one stderr line names the flag and the path, and no output
        # file is written, not even the command's other, valid one
        argv, flags = {
            "smooth": (["smooth", "--input", str(perturbed_cube_mesh)],
                       ["--output", "--report"]),
            "regularize": (["regularize", "--type", "tetrahedron", "--random", "1"],
                           ["--output", "--trajectory"]),
        }[command]
        paths = {f: tmp_path / f"out{f}" for f in flags}
        if where == "directory":
            paths[flag] = tmp_path / "dir"
            paths[flag].mkdir()
        else:
            paths[flag] = tmp_path / "absent" / "out"
        for f in flags:
            argv = argv + [f, str(paths[f])]
        assert cli.main(argv) == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage error:") and f"{flag} {paths[flag]}" in err
        assert len(err.splitlines()) == 1
        assert not any(paths[f].exists() for f in flags if f != flag)
        assert where == "missing directory" or not any(paths[flag].iterdir())


# Values a mutation may put where the schema expects a coordinate, a node
# index or a flag value.
_ODD_VALUES = [float("nan"), float("inf"), -1e308, 1e308, 10 ** 400, 1e-320,
               0, -1, 2.7, True, None, "a", "1.0", [], {}]
_FLAG_VALUES = {"--step": ["0.05", "0.5", "1e300", "-1", "0", "nan", "inf", "x"],
                "--max-iters": ["3", "0", "-2", "1.5", "x"],
                "--tol": ["1e-10", "0", "-1", "nan", "inf"],
                "--quality-tol": ["1e-10", "-1", "nan"]}
_COMMANDS = {  # command -> (argv before the file, flags it takes)
    "regularize": (["regularize", "--type", "tetrahedron", "--input"],
                   ["--step", "--max-iters", "--tol"]),
    "smooth": (["smooth", "--input"], ["--step", "--max-iters", "--quality-tol"]),
    "spectrum": (["spectrum", "--type", "tetrahedron", "--at"], []),
    "classify": (["classify", "--type", "tetrahedron", "--input"], ["--tol"]),
}


_HUGE_VERTICES = [[1e308, 0, 0], [1, 0, 0], [0, 1, 0], [-1e308, 0, 1]]


@st.composite
def _mutated_run(draw):
    """A one-tetrahedron mesh and argv, each with a few random mutations."""
    doc = {"vertices": pf.reference_optimal("tetrahedron").tolist(),
           "elements": [{"type": "tetrahedron", "nodes": [0, 1, 2, 3]}],
           "fixed": []}
    odd = st.sampled_from(_ODD_VALUES)
    for _ in range(draw(st.integers(0, 3))):
        what = draw(st.sampled_from(["coordinate", "row", "node", "type", "fixed",
                                     "unused"]))
        i = draw(st.integers(0, 3))
        row = doc["vertices"][i]
        if what == "coordinate" and isinstance(row, list) and len(row) == 3:
            row[draw(st.integers(0, 2))] = draw(odd)
        elif what == "row":
            doc["vertices"][i] = draw(odd)
        elif what == "node":
            doc["elements"][0]["nodes"][i] = draw(odd)
        elif what == "type":
            doc["elements"][0]["type"] = draw(st.sampled_from(["cube", 3, [], None]))
        elif what == "fixed":
            doc["fixed"] = [draw(odd)]
        elif what == "unused":
            # a vertex that no element names, with a non-finite coordinate
            doc["vertices"].append([float("nan"), 0.0, 0.0])
    shape = draw(st.sampled_from(["mesh", "bare", "no elements", "no vertices",
                                  "odd vertices", "odd nodes", "odd fixed", "huge"]))
    if shape == "huge":
        # finite, but the differences to the last vertex overflow
        doc["vertices"] = _HUGE_VERTICES
    elif shape == "bare":
        doc = {"vertices": doc["vertices"]}
    elif shape == "no elements":
        doc["elements"] = []
    elif shape == "no vertices":
        del doc["vertices"]
    elif shape == "odd vertices":
        doc["vertices"] = draw(odd)
    elif shape == "odd nodes":
        doc["elements"][0]["nodes"] = draw(odd)
    elif shape == "odd fixed":
        doc["fixed"] = draw(odd)
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    head, flags = _COMMANDS[command]
    tail = []
    for flag in flags:
        # a valid --max-iters stays small so that every run is quick
        tail += [flag, draw(st.sampled_from(_FLAG_VALUES[flag]))]
    return doc, head, tail


@settings(max_examples=50, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(run=_mutated_run())
@example(run=({"vertices": _HUGE_VERTICES},
              _COMMANDS["classify"][0], []))
@example(run=({"vertices": pf.reference_optimal("tetrahedron").tolist(),
               "elements": [{"type": "tetrahedron", "nodes": [0, 1, 2, 3]}]},
              _COMMANDS["smooth"][0], ["--step", "1e300", "--max-iters", "3"]))
@example(run=({"vertices": pf.reference_optimal("tetrahedron").tolist()
               + [[float("nan"), 0.0, 0.0]],
               "elements": [{"type": "tetrahedron", "nodes": [0, 1, 2, 3]}]},
              _COMMANDS["smooth"][0], []))
def test_fuzz_cli_boundary(tmp_path_factory, run):
    # every input ends in a documented exit code with a message, never a
    # traceback or a numpy RuntimeWarning; a non-finite coordinate on any
    # vertex is malformed input, unless a flag is already a usage error
    doc, head, tail = run
    vertices = doc.get("vertices") if isinstance(doc, dict) else None
    non_finite = isinstance(vertices, list) and any(
        isinstance(x, float) and not np.isfinite(x)
        for row in vertices if isinstance(row, list) for x in row)
    path = tmp_path_factory.mktemp("fuzz") / "input.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(head + [str(path)] + tail)
    assert rc in (0, 2, 3, 64, 65, 66), (rc, err.getvalue())
    if non_finite:
        assert rc in (64, 65), (rc, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert "RuntimeWarning" not in err.getvalue()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], \
        [str(w.message) for w in caught]


# The console script exists only where the package is installed; look in
# this interpreter's scripts directory first, then on PATH.
POLYFLOW_SCRIPT = shutil.which(
    "polyflow",
    path=sysconfig.get_path("scripts") + os.pathsep + os.environ.get("PATH", ""))


@pytest.mark.skipif(POLYFLOW_SCRIPT is None,
                    reason="the 'polyflow' console script is not installed")
def test_console_script_roundtrip(tmp_path):
    # the installed entry point behaves like the module main
    proc = subprocess.run(
        [POLYFLOW_SCRIPT, "regularize", "--type", "tetrahedron", "--random", "42",
         "--output", str(tmp_path / "r.json")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["classification"] == "optimal_positive"
