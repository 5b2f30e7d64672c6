import json
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

from conftest import holomorphic_graph, touching_contours
from curvebound import generators as gen
from curvebound.cli import main
from curvebound.contour import load_contour, save_contour
from curvebound.curvature import total_mean_curvature
from curvebound.criteria import verify_cone_separator
from curvebound.doubling import build_double
from curvebound.mesh import MeshError, SurfaceMesh, load_mesh, save_mesh, validate


@pytest.fixture
def disk_obj(tmp_path, unit_disk):
    path = tmp_path / "disk.obj"
    save_mesh(unit_disk, path)
    return str(path)


@pytest.fixture
def antipodal_contour(tmp_path, antipodal_microcircles):
    path = tmp_path / "antipodal.contour.json"
    save_contour(antipodal_microcircles, path)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


class TestVerifyBound:
    def test_flat_disk(self, capsys, disk_obj, tmp_path):
        out_json = str(tmp_path / "report.json")
        code, out = run(capsys, ["verify-bound", disk_obj, "--json", out_json])
        assert code == 0
        assert "d <= bound: True" in out
        doc = json.loads(open(out_json).read())
        assert doc["modes"]["proven"]["holds"]
        assert doc["total_mean_curvature"] < 1e-6

    def test_closed_mesh_takes_the_closed_bound(self, capsys, tmp_path):
        # Topping's closed bound int|H|/ct, not the doubled 2*int|H|/ct
        mesh = gen.icosphere(3)
        save_mesh(mesh, tmp_path / "sphere.mesh.json")
        out_json = str(tmp_path / "report.json")
        code, out = run(capsys, ["verify-bound", str(tmp_path / "sphere.mesh.json"),
                                 "--json", out_json])
        assert code == 0
        doc = json.loads(open(out_json).read())
        assert doc["closed"] and doc["boundary_length"] == 0.0
        curvature = total_mean_curvature(mesh)
        for mode, ct in (("proven", np.pi / 16), ("conjectural", np.pi)):
            rec = doc["modes"][mode]
            assert abs(rec["bound"] - curvature / ct) <= 1e-9 * curvature / ct, mode
            assert rec["holds"], mode
            assert f"[{mode}] bound = int|H|/{ct:.12g} = {rec['bound']:.12g};" in out
        assert abs(doc["modes"]["proven"]["bound"] - 63.70) < 0.01

    def test_missing_file(self, capsys):
        code, _ = run(capsys, ["verify-bound", "/nonexistent.obj"])
        assert code == 1

    @pytest.mark.parametrize("command", ["verify-bound", "double"])
    @pytest.mark.parametrize("doc", [
        '{"dimension": 3, "vertices": [], "triangles": []}',
        '{"dimension": 3, "vertices": [[0, 0, 0], [1, 0, 0], [0, Infinity, 0]], '
        '"triangles": [[0, 1, 2]]}',
        '{"dimension": 3, "vertices": [[0, 0, 0], [1, 0, 0], [0, NaN, 0]], '
        '"triangles": [[0, 1, 2]]}',
        # valid JSON, but three triangles on the edge (0, 1): validate rejects it
        '{"dimension": 3, "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, -1, 0], '
        '[0, 0, 1]], "triangles": [[0, 1, 2], [1, 0, 3], [0, 1, 4]]}',
    ])
    def test_malformed_mesh_exit_code(self, capsys, tmp_path, command, doc):
        path = tmp_path / "bad.mesh.json"
        path.write_text(doc)
        code = main([command, str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err

    @pytest.mark.parametrize("command, message", [
        ("verify-bound", "the diameter bound applies to connected surfaces"),
        ("double", "doubling applies to connected surfaces")])
    def test_disconnected_mesh_is_an_error(self, capsys, tmp_path, command, message):
        # two disks 100 apart: no number is printed for a surface the bound does not cover
        disk = gen.flat_disk(1.0, 8, 32)
        path = tmp_path / "two_disks.mesh.json"
        save_mesh(SurfaceMesh(np.vstack([disk.vertices, disk.vertices + [100.0, 0.0, 0.0]]),
                              np.vstack([disk.triangles, disk.triangles + disk.n_vertices])),
                  path)
        code = main([command, str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: mesh is not connected; {message}\n"

    def test_obj_relative_indices(self, capsys, tmp_path, disk_obj):
        # the same disk with every face index written relative to the end
        lines = open(disk_obj).read().splitlines()
        n = sum(line.startswith("v ") for line in lines)
        rel = tmp_path / "rel.obj"
        rel.write_text("\n".join(
            line if not line.startswith("f ") else
            "f " + " ".join(str(int(i) - n - 1) for i in line.split()[1:])
            for line in lines) + "\n")
        _, ref = run(capsys, ["verify-bound", disk_obj])
        code, out = run(capsys, ["verify-bound", str(rel)])
        assert code == 0
        assert out.replace(str(rel), disk_obj) == ref

    @pytest.mark.parametrize("face", ["f 0 1 2", "f 1 2 4", "f -4 -2 -1"])
    def test_obj_bad_face_index_exit_code(self, capsys, tmp_path, face):
        path = tmp_path / "bad.obj"
        path.write_text(f"v 0 0 0\nv 1 0 0\nv 0 1 0\n{face}\n")
        code = main(["verify-bound", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err

    @pytest.mark.parametrize("vertex", ["v 0 1", "v 0 one 0"])
    def test_obj_bad_vertex_line_exit_code(self, capsys, tmp_path, vertex):
        path = tmp_path / "bad.obj"
        path.write_text(f"v 0 0 0\nv 1 0 0\n{vertex}\nf 1 2 3\n")
        code = main(["verify-bound", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert vertex in captured.err

    @pytest.mark.parametrize("face", ["f 1 2 x", "f 1 2"])
    def test_obj_bad_face_line_exit_code(self, capsys, tmp_path, face):
        path = tmp_path / "bad.obj"
        path.write_text(f"v 0 0 0\nv 1 0 0\nv 0 1 0\n{face}\n")
        code = main(["verify-bound", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert captured.err.rstrip().endswith(face)


class TestTeardropCommand:
    def test_bad_k_leaves_stdout_empty(self, capsys, tmp_path):
        export = tmp_path / "curves"
        code = main(["teardrop", "--k", "5,0", "--export", str(export)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert not export.exists()

    def test_table_and_export(self, capsys, tmp_path):
        export = str(tmp_path / "curves")
        code, out = run(capsys, ["teardrop", "--k", "10,100", "--export", export])
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("k ")]
        devs = [float(l.split()[3]) for l in lines]
        assert devs[0] > devs[1]
        body = open(tmp_path / "curves" / "teardrop_k10.txt").read()
        assert body.startswith("# teardrop k=10")


class TestCheckContour:
    def test_certified_exit_code(self, capsys, antipodal_contour, tmp_path):
        out_json = str(tmp_path / "crit.json")
        code, out = run(capsys, ["check-contour", antipodal_contour,
                                 "--json", out_json])
        assert code == 2
        assert "nonexistence-certified" in out
        doc = json.loads(open(out_json).read())
        assert doc["certified_any"]

    def test_silent_exit_code(self, capsys, tmp_path):
        path = tmp_path / "stadium.contour.json"
        save_contour(gen.stadium_contour(10.0, 1.0), path)
        code, out = run(capsys, ["check-contour", str(path), "--mode", "conjectural"])
        assert code == 0
        assert "not-triggered" in out

    @pytest.mark.parametrize("name", list(touching_contours()))
    def test_touching_components_exit_code(self, capsys, tmp_path, name):
        path = tmp_path / "touch.contour.json"
        save_contour(touching_contours()[name], path)
        code = main(["check-contour", str(path), "--json", str(tmp_path / "r.json")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: components 0 and 1 touch")
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("doc", [
        '{"dimension": 3, "components": [{"verts": [[0, 0, 0]]}]}',
        '{"dimension": 3}',
        '{"dimension": 3, "components": [{"vertices": '
        '[[0, 0, 0], [1, 0, 0], [NaN, 1, 0]]}]}',
    ])
    def test_malformed_contour_exit_code(self, capsys, tmp_path, doc):
        path = tmp_path / "bad.contour.json"
        path.write_text(doc)
        code = main(["check-contour", str(path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_empty_contour_document(self, capsys, tmp_path):
        path = tmp_path / "empty.contour.json"
        path.write_text('{"dimension": 3, "components": []}')
        code = main(["check-contour", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: contour document has no components\n"

    def test_certificate_read_back_from_json(self, capsys, tmp_path):
        # a saved report's certificate is what verify_cone_separator reads
        path = tmp_path / "coaxial.contour.json"
        save_contour(gen.coaxial_circles_contour(1.0, 2.0, segments=180), path)
        code = main(["check-contour", str(path), "--json", str(tmp_path / "r.json")])
        assert code == 2
        doc = json.loads((tmp_path / "r.json").read_text())
        entry = next(e for e in doc["criteria"] if e["name"] == "cone")
        assert entry["verdict"] == "nonexistence-certified"
        ok, worst = verify_cone_separator(load_contour(path), entry["certificate"])
        assert ok
        assert worst / doc["diameter"] == entry["margin"] == entry["certificate"]["margin"]

    def test_repeat_run_byte_identical(self, capsys, antipodal_contour):
        _, out1 = run(capsys, ["--seed", "0", "check-contour", antipodal_contour])
        _, out2 = run(capsys, ["--seed", "0", "check-contour", antipodal_contour])
        assert out1 == out2

    def test_thread_count_byte_identical(self, capsys, tmp_path, antipodal_contour):
        # the cone search runs in one thread, so repeated runs agree in every
        # byte, the JSON report included
        reports = []
        for i in range(2):
            path = tmp_path / f"report{i}.json"
            run(capsys, ["check-contour", antipodal_contour, "--json", str(path)])
            reports.append(path.read_bytes())
        assert reports[0] == reports[1]


class TestDoubleCommand:
    def test_table_csv_and_exports(self, capsys, disk_obj, tmp_path):
        csv_path = str(tmp_path / "table.csv")
        out_dir = str(tmp_path / "doubles")
        code, out = run(capsys, ["double", disk_obj, "--k-list", "10,25",
                                 "--csv", csv_path, "--out-dir", out_dir])
        assert code == 0
        rows = open(csv_path).read().splitlines()
        assert rows[0].startswith("k,epsilon")
        assert len(rows) == 3
        sigma = load_mesh(tmp_path / "doubles" / "double_k10.mesh.json")
        assert sigma.n_vertices > 0
        prov = json.loads(open(tmp_path / "doubles" /
                               "double_k10.provenance.json").read())
        assert "copy-1" in prov and "tube-0" in prov

    def test_each_double_built_once(self, capsys, tmp_path, monkeypatch):
        from curvebound import doubling

        path = tmp_path / "disk.mesh.json"
        save_mesh(gen.flat_disk(1.0, 8, 32), path)
        built = []

        def counting_build_double(*args, **kwargs):
            built.append(args[1])
            return build_double(*args, **kwargs)

        monkeypatch.setattr(doubling, "build_double", counting_build_double)
        out_dir = tmp_path / "doubles"
        code, _ = run(capsys, ["double", str(path), "--k-list", "10,25",
                               "--out-dir", str(out_dir)])
        assert code == 0
        assert built == [10, 25]
        monkeypatch.undo()
        for k in (10, 25):
            fresh = tmp_path / f"fresh_k{k}.mesh.json"
            save_mesh(build_double(load_mesh(path), k).sigma, fresh)
            assert (out_dir / f"double_k{k}.mesh.json").read_bytes() == fresh.read_bytes()

    def test_tubes_come_from_build_tube(self, capsys, tmp_path, monkeypatch):
        from curvebound import doubling

        path = tmp_path / "cylinder.mesh.json"
        save_mesh(gen.open_cylinder(1.0, 2.0, segments=24, rings=4), path)
        calls = []
        original = doubling.build_tube

        def counting_build_tube(frame, profile, epsilon):
            calls.append((profile.k, tuple(frame.loop_indices)))
            return original(frame, profile, epsilon)

        monkeypatch.setattr(doubling, "build_tube", counting_build_tube)
        code, _ = run(capsys, ["double", str(path), "--k-list", "10,25"])
        assert code == 0
        loops = [tuple(loop.vertex_indices) for loop in load_mesh(path).boundary_loops]
        assert len(loops) == 2
        assert calls == [(k, loop) for k in (10, 25) for loop in loops]

    def test_closed_mesh_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "sphere.obj"
        save_mesh(gen.icosphere(2), path)
        code, _ = run(capsys, ["double", str(path)])
        assert code == 1

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_loop_that_doubles_back_is_an_error(self, capsys, tmp_path, n):
        # a valid immersed fan whose boundary loop runs 1 -> 2 -> 3 = 1 -> 4: no tangent at 2
        v = [(0.3, 0.3, 1), (0, 0, 0), (1, 0, 0), (0, 0, 0), (0, 1, 0)]
        mesh = SurfaceMesh(np.column_stack([v, np.zeros((5, n - 3))]),
                           [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 1]])
        assert validate(mesh).is_valid
        path = tmp_path / "fan.mesh.json"
        save_mesh(mesh, path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["double", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == ("error: degenerate tangent: the boundary loop doubles back "
                                "at vertex 2\n")

    def test_embedding_in_r4_commutes(self, capsys, tmp_path):
        disk = gen.flat_disk(1.0, 8, 32)
        save_mesh(disk, tmp_path / "disk.mesh.json")
        save_mesh(gen.embed_in_r4(disk), tmp_path / "disk4.mesh.json")
        tables = [run(capsys, ["double", str(tmp_path / name), "--k-list", "10,50,200"])
                  for name in ("disk.mesh.json", "disk4.mesh.json")]
        assert tables[0] == tables[1]
        assert tables[0][0] == 0


class TestHigherCodimension:
    """The graph (z, z^2/2, z^3/2) over the disk 8x32: a minimal surface in R^6."""

    @pytest.fixture
    def graph_r6(self, tmp_path):
        path = tmp_path / "graph6.mesh.json"
        save_mesh(holomorphic_graph(gen.flat_disk(1.0, 8, 32), (2, 3)), path)
        return str(path)

    def test_verify_bound_takes_the_pi_over_32_constant(self, capsys, graph_r6):
        code, out = run(capsys, ["verify-bound", graph_r6])
        assert code == 0
        assert "dimension = 6, closed = False" in out
        assert "[proven] bound = (2*int|H| + (pi/2)*l)/0.0981747704247 = " in out

    def test_double(self, capsys, graph_r6, tmp_path):
        code, out = run(capsys, ["double", graph_r6, "--out-dir", str(tmp_path / "doubles")])
        assert code == 0
        assert len(out.splitlines()) == 5
        assert load_mesh(tmp_path / "doubles" / "double_k50.mesh.json").dimension == 6

    def test_obj_export_rejected(self, graph_r6, tmp_path):
        with pytest.raises(MeshError, match="save this R\\^6 mesh as .mesh.json$"):
            save_mesh(load_mesh(graph_r6), tmp_path / "graph6.obj")


class TestGenCommand:
    @pytest.mark.parametrize("name,params,kind", [
        ("disk", ["radius=1", "rings=8", "segments=32"], "mesh"),
        ("icosphere", ["subdivisions=2"], "mesh"),
        ("hemisphere", ["rings=8", "segments=32"], "mesh"),
        ("capped-cylinder", ["radius=1", "length=8", "segments=32",
                             "rings_cap=6"], "mesh"),
        ("stadium", ["a=10", "r=1"], "contour"),
        ("coaxial-circles", ["radius=1", "half_gap=2", "segments=64"], "contour"),
    ])
    def test_generators_write_loadable_files(self, capsys, tmp_path, name,
                                             params, kind):
        suffix = ".mesh.json" if kind == "mesh" else ".contour.json"
        out = str(tmp_path / f"{name}{suffix}")
        argv = ["gen", name, "--out", out]
        for p in params:
            argv += ["--param", p]
        code, _ = run(capsys, argv)
        assert code == 0
        if kind == "mesh":
            assert load_mesh(out).n_vertices > 0
        else:
            assert load_contour(out).n_components >= 1

    def test_net_generation(self, capsys, tmp_path):
        out = str(tmp_path / "net.contour.json")
        code, text = run(capsys, ["gen", "net", "--param", "epsilon=0.2",
                                  "--param", "segments=16", "--out", out])
        assert code == 0
        assert "covering" in text
        assert load_contour(out).n_components > 50

    def test_unknown_shape(self, capsys, tmp_path):
        code, _ = run(capsys, ["gen", "moebius", "--out", str(tmp_path / "x.obj")])
        assert code == 1

    @pytest.mark.parametrize("param", ["normal=1", "center=1"])
    def test_vector_parameter_rejected(self, capsys, tmp_path, param):
        out = tmp_path / "x.json"
        code = main(["gen", "circle", "--param", param, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "(accepted: radius, segments)" in captured.err
        assert "Traceback" not in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["disk", "net", "sphere-circles"])
    def test_unknown_parameter(self, capsys, tmp_path, name):
        out = tmp_path / "x.json"
        code = main(["gen", name, "--param", "foo=1", "--out", str(out)])
        assert code == 1
        assert "foo" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_mesh_is_an_error(self, capsys, tmp_path):
        out = tmp_path / "disk.mesh.json"
        code = main(["gen", "disk", "--param", "radius=0", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: mesh INVALID: ")
        assert "  error: degenerate triangle 0 (area 0.000e+00)\n" in captured.err
        assert not out.exists()

    def test_net_failure_leaves_stdout_empty(self, capsys, tmp_path):
        out = tmp_path / "net.contour.json"
        code = main(["gen", "net", "--param", "epsilon=0.2", "--param", "segments=8",
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "segments" in captured.err and "Traceback" not in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("name,param", [
        ("open-cylinder", "rings=0"),
        ("icosphere", "subdivisions=1.5"),
        ("icosphere", "subdivisions=-1"),
        ("disk", "rings=2.5"),
        ("disk", "segments=abc"),
        ("hemisphere", "rings=0"),
        ("capped-cylinder", "segments=abc"),
        ("coaxial-circles", "segments=10.5"),
        ("net", "segments=16.5"),
        ("sphere-circles", "segments=20.5"),
    ])
    def test_bad_count_parameter(self, capsys, tmp_path, name, param):
        out = tmp_path / "x.json"
        code = main(["gen", name, "--param", param, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: " + param.split("=")[0])
        assert "Traceback" not in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("name,param", [
        ("disk", "radius=abc"),
        ("net", "epsilon=abc"),
        ("icosphere", "radius=x"),
        ("stadium", "a=abc"),
    ])
    def test_non_numeric_parameter(self, capsys, tmp_path, name, param):
        out = tmp_path / "x.json"
        code = main(["gen", name, "--param", param, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: " + param.split("=")[0])
        assert "Traceback" not in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("half_gap", ["0", "-0.5"])
    def test_coaxial_circles_need_a_gap(self, capsys, tmp_path, half_gap):
        # at half_gap 0 the two circles coincide; the file must not be written
        out = tmp_path / "x.contour.json"
        code = main(["gen", "coaxial-circles", "--param", f"half_gap={half_gap}",
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: half_gap")
        assert "Traceback" not in captured.err
        assert not out.exists()


class TestUsage:
    @pytest.mark.parametrize("argv", [
        ["check-contour", "x.json", "--bogus"],
        ["check-contour", "x.json", "--budget", "abc"],
        ["--threads", "4", "check-contour", "x.json"],
        [],
    ], ids=["unknown-option", "bad-budget", "removed-threads", "no-subcommand"])
    def test_usage_error_exits_1(self, capsys, argv):
        # 2 is the "certified" exit code of check-contour
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "usage:" in captured.err

    @pytest.mark.parametrize("argv", [["--help"], ["check-contour", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        code, out = run(capsys, argv)
        assert code == 0
        assert "usage:" in out


def test_cli_import_leaves_scipy_optimize_unloaded():
    # the cone search imports linprog when it runs, so start-up stays lean
    code = "import sys, curvebound.cli; print('scipy.optimize' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "False"


def test_doubling_commands_leave_scipy_unloaded(tmp_path):
    # verify-bound, double, teardrop and gen for meshes never import scipy;
    # gen for contours, check-contour and audit import it when they run
    code = textwrap.dedent("""
        import sys
        from curvebound.cli import main

        def scipy_modules():
            return [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]

        for argv in (["gen", "disk", "--out", "disk.mesh.json"],
                     ["verify-bound", "disk.mesh.json"],
                     ["double", "disk.mesh.json", "--k-list", "10", "--out-dir", "doubles"],
                     ["teardrop", "--k", "10"]):
            assert main(argv) == 0, argv
        loaded = scipy_modules()
        pools = [m for m in ("multiprocessing", "concurrent.futures.process")
                 if m in sys.modules]
        for argv in (["gen", "stadium", "--out", "stadium.contour.json"],
                     ["check-contour", "stadium.contour.json"],
                     ["audit", "--quick", "--probes", "1"]):
            assert main(argv) == 0, argv
        print(loaded, pools, "scipy.sparse.csgraph" in scipy_modules())
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, cwd=tmp_path, check=True).stdout
    assert out.splitlines()[-1] == "[] [] True"
    assert os.listdir(tmp_path / "doubles")


class TestAuditCommand:
    def test_quick_audit(self, capsys, tmp_path):
        json_path = str(tmp_path / "audit.json")
        csv_path = str(tmp_path / "audit.csv")
        code, out = run(capsys, ["audit", "--quick", "--probes", "3",
                                 "--json", json_path, "--csv", csv_path])
        assert code == 0
        assert "audit all hold: True" in out
        doc = json.loads(open(json_path).read())
        assert doc["all_hold"]
        assert len(open(csv_path).read().splitlines()) > 5

    def test_zero_probes_rejected_before_output(self, capsys):
        code = main(["audit", "--quick", "--probes", "0"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "probes_per_shape" in captured.err

    def test_seeded_reruns_identical(self, capsys, tmp_path):
        _, out1 = run(capsys, ["--seed", "7", "audit", "--quick", "--probes", "2"])
        _, out2 = run(capsys, ["--seed", "7", "audit", "--quick", "--probes", "2"])
        assert out1 == out2

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                        or len(os.sched_getaffinity(0)) < 2,
                        reason="needs sched_setaffinity and two CPUs")
    def test_one_cpu_output_identical(self, tmp_path):
        # the audit pinned to one CPU, against this process's CPU set and,
        # given three CPUs, three of them: one process, the same bytes
        cpus = sorted(os.sched_getaffinity(0))

        def pin_to(n):
            return lambda: os.sched_setaffinity(0, set(cpus[:n]))

        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        runs = []
        pins = [("one", pin_to(1)), ("all", None)]
        if len(cpus) >= 3:
            pins.append(("three", pin_to(3)))
        for name, preexec in pins:
            out = subprocess.run(
                [sys.executable, "-m", "curvebound.cli", "--seed", "1", "audit", "--quick",
                 "--probes", "3", "--json", f"{name}.json"],
                capture_output=True, env=env, cwd=tmp_path, preexec_fn=preexec, check=True)
            runs.append((out.stdout, (tmp_path / f"{name}.json").read_bytes()))
        assert all(run == runs[0] for run in runs[1:])
        assert runs[0][0].splitlines()[-1] == b"audit all hold: True"


class TestFormatting:
    def test_twelve_significant_digits(self, capsys, disk_obj):
        _, out = run(capsys, ["verify-bound", disk_obj])
        assert "6.28206390178" in out  # boundary length of the 96-gon disk
