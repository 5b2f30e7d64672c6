import json
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

from conftest import holomorphic_graph, touching_contours
from curvebound import cli
from curvebound import generators as gen
from curvebound.cli import main
from curvebound.contour import load_contour, save_contour
from curvebound.curvature import total_mean_curvature
from curvebound.criteria import verify_cone_separator
from curvebound.doubling import build_double
from curvebound.mesh import MeshError, SurfaceMesh, load_mesh, save_mesh, validate
from curvebound.teardrop import build_sweep_profile


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

    @pytest.mark.parametrize("name", ["hemisphere", "flat_disk"])
    def test_scaling_by_a_power_of_two_scales_every_length(self, capsys, tmp_path, name):
        # degeneracy is relative to edge length, so small copies validate; 2^k is exact
        mesh = gen.hemisphere(8, 32) if name == "hemisphere" else gen.flat_disk(1.0, 8, 32)
        docs = {}
        for k in (-60, -40, -20, -16, 0, 10, 20):
            scaled = SurfaceMesh(mesh.vertices * 2.0 ** k, mesh.triangles)
            assert validate(scaled).is_valid
            save_mesh(scaled, tmp_path / f"m{k}.mesh.json")
            out_json = tmp_path / f"r{k}.json"
            code, _ = run(capsys, ["verify-bound", str(tmp_path / f"m{k}.mesh.json"),
                                   "--json", str(out_json)])
            assert code == 0
            docs[k] = json.loads(out_json.read_text())
        base = docs[0]
        for k, doc in docs.items():
            for key in ("diameter", "total_mean_curvature", "boundary_length"):
                assert doc[key] == 2.0 ** k * base[key], (k, key)
            for mode, entry in doc["modes"].items():
                for key in ("bound", "margin"):
                    assert entry[key] == 2.0 ** k * base["modes"][mode][key], (k, mode, key)
                assert entry["holds"] == base["modes"][mode]["holds"]

    @pytest.mark.parametrize("k", [260, 300])
    def test_coordinates_beyond_the_limit(self, capsys, tmp_path, k):
        # once printed int|H| = 1.5e85 (about 1.0e79 is right) at 2^260, and nan
        # at 2^300, both at exit 0: the corner-Gram products overflowed
        mesh = gen.hemisphere(8, 32)
        path = tmp_path / "scaled.mesh.json"
        path.write_text(json.dumps({"dimension": 3, "vertices": (mesh.vertices * 2.0**k).tolist(),
                                    "triangles": mesh.triangles.tolist()}))
        code = main(["verify-bound", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: vertex coordinates must be at most 2^240 in absolute value\n"

    def test_largest_coordinates_scale_every_length(self, capsys, tmp_path):
        # the hemisphere's largest coordinate is 1, so 2^240 is the limit itself
        mesh = gen.hemisphere(8, 32)
        docs = {}
        for k in (0, 240):
            save_mesh(SurfaceMesh(mesh.vertices * 2.0**k, mesh.triangles), tmp_path / "m.mesh.json")
            code, _ = run(capsys, ["verify-bound", str(tmp_path / "m.mesh.json"),
                                   "--json", str(tmp_path / "r.json")])
            assert code == 0
            docs[k] = json.loads((tmp_path / "r.json").read_text())
        for key in ("diameter", "total_mean_curvature", "boundary_length"):
            assert docs[240][key] == 2.0**240 * docs[0][key], key
        for mode, entry in docs[240]["modes"].items():
            assert entry["bound"] == 2.0**240 * docs[0]["modes"][mode]["bound"]
            assert entry["holds"] == docs[0]["modes"][mode]["holds"]

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
    @pytest.mark.parametrize("k", ["0", "4294967297", "1" + "0" * 399],
                             ids=["zero", "above-k-max", "400-digits"])
    def test_bad_k_leaves_stdout_empty(self, capsys, tmp_path, k):
        export = tmp_path / "curves"
        code = main(["teardrop", "--k", f"5,{k}", "--export", str(export)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: k must be an integer from 1 to 4294967296\n"
        assert not export.exists()

    def test_table_and_export(self, capsys, tmp_path):
        export = str(tmp_path / "curves")
        code, out = run(capsys, ["teardrop", "--k", "10,100,4294967296", "--export", export])
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("k ")]
        devs = [float(l.split()[3]) for l in lines]
        assert devs[0] > devs[1] > devs[2]
        for line, k in zip(lines, (10, 100, 4294967296)):
            # the swept profile's own measures, at the 12 digits printed
            prof = build_sweep_profile(k)
            turn = prof.turning()
            assert line.split() == [str(k)] + ["%.12g" % v for v in (
                prof.total_length, turn, abs(turn - np.pi), 1.0 + 1.0 / k)]
            with open(tmp_path / "curves" / f"teardrop_k{k}.txt") as fh:
                assert fh.readline() == f"# teardrop k={k} length={line.split()[1]}\n"
            assert np.loadtxt(tmp_path / "curves" / f"teardrop_k{k}.txt").shape == (177, 3)


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
        '{"dimension": 3, "components": [{"vertices": "[[0, 0, 0], [1, 0, 0], [0, 1, 0]]"}]}',
        '{"dimension": 3, "components": [{"vertices": 5}]}',
        '{"dimension": 3, "components": [{"vertices": [[0, 0, 0], [1, 0], [0, 1, 0]]}]}',
    ])
    def test_malformed_contour_exit_code(self, capsys, tmp_path, doc):
        path = tmp_path / "bad.contour.json"
        path.write_text(doc)
        code = main(["check-contour", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err

    @pytest.mark.parametrize("k, code", [(239, 2), (240, 1), (510, 1)])
    def test_coordinate_limit(self, capsys, tmp_path, k, code):
        # the 2048-gons' largest coordinate is 2; at 2^510 the check ended in an
        # IndexError, and past 2^240 it is refused before any number is printed
        c = gen.coaxial_circles_contour(1.0, 2.0, 64)
        path = tmp_path / "scaled.contour.json"
        path.write_text(json.dumps({"dimension": 3, "components": [
            {"vertices": (a * 2.0**k).tolist()} for a in c.components]}))
        assert main(["check-contour", str(path)]) == code
        captured = capsys.readouterr()
        if code == 1:
            assert captured.out == ""
            assert captured.err == ("error: component 0 has a coordinate beyond 2^240 "
                                    "in absolute value\n")

    @pytest.mark.parametrize("scale, code", [(2.0**-507, 2), (2.0**-508, 1), (1e-200, 1)])
    def test_segment_limit(self, capsys, tmp_path, scale, code):
        # the 64-gons' segments are about 2^-3.35 long; below 2^-511 their squared
        # lengths and the squared distances at their scale underflow, and the
        # contour is refused before any number is printed
        c = gen.coaxial_circles_contour(1.0, 2.0, 64)
        path = tmp_path / "scaled.contour.json"
        path.write_text(json.dumps({"dimension": 3, "components": [
            {"vertices": (a * scale).tolist()} for a in c.components]}))
        assert main(["check-contour", str(path)]) == code
        captured = capsys.readouterr()
        if code == 1:
            assert captured.out == ""
            assert captured.err == "error: component 0 has a segment shorter than 2^-511\n"

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

    @pytest.mark.parametrize("s", [-60, -40, -30, -20, 0])
    def test_small_copies_double(self, capsys, tmp_path, s):
        # the frame and tube-cell thresholds are relative to the loop and the cell
        path = tmp_path / "hemisphere.mesh.json"
        save_mesh(SurfaceMesh(gen.hemisphere(8, 32).vertices * 2.0 ** s,
                              gen.hemisphere(8, 32).triangles), path)
        code, _ = run(capsys, ["double", str(path), "--k-list", "10",
                               "--out-dir", str(tmp_path / "doubles")])
        assert code == 0
        report = validate(load_mesh(tmp_path / "doubles" / "double_k10.mesh.json"))
        assert report.is_valid and report.closed and report.connected

    def test_each_double_built_once(self, capsys, tmp_path, monkeypatch):
        from curvebound import doubling

        path = tmp_path / "disk.mesh.json"
        save_mesh(gen.flat_disk(1.0, 8, 32), path)
        built, framed = [], []
        double, frames = doubling.build_double, doubling.build_boundary_frames

        def counting_double(mesh, k):
            built.append(k)
            return double(mesh, k)

        def counting_frames(mesh):
            framed.append(mesh)
            return frames(mesh)

        monkeypatch.setattr(doubling, "build_double", counting_double)
        monkeypatch.setattr(doubling, "build_boundary_frames", counting_frames)
        out_dir = tmp_path / "doubles"
        code, _ = run(capsys, ["double", str(path), "--k-list", "10,25",
                               "--out-dir", str(out_dir)])
        assert code == 0
        # the input is validated and framed once, and each double built once
        assert built == [10, 25] and len(framed) == 1
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

    def test_large_copy_rejected_by_the_double_validation(self, capsys, tmp_path):
        # at 2^20 the absolute 1/(2k) amplitude flattens tube cells, and the
        # double's validate, the one degeneracy check, names them
        path = tmp_path / "hemisphere.mesh.json"
        hemi = gen.hemisphere(8, 32)
        save_mesh(SurfaceMesh(hemi.vertices * 2.0 ** 20, hemi.triangles), path)
        code = main(["double", str(path), "--k-list", "10"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: doubling produced a bad surface:\n")
        assert "  error: degenerate triangle " in captured.err

    def test_out_dir_gets_every_double_or_none(self, capsys, tmp_path):
        # at 2^8 the k = 10 double validates and the k = 1000 one does not: the
        # first one's files, written before the second is built, must go too
        out_dir = tmp_path / "doubles"
        path = tmp_path / "hemisphere.mesh.json"
        hemi = gen.hemisphere(8, 32)
        save_mesh(SurfaceMesh(hemi.vertices * 2.0 ** 8, hemi.triangles), path)
        code = main(["double", str(path), "--k-list", "10,1000", "--out-dir", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: doubling produced a bad surface:\n")
        assert not out_dir.exists() or not os.listdir(out_dir)

    @pytest.mark.parametrize("k", ["0", "4294967297", "1" + "0" * 399],
                             ids=["zero", "above-k-max", "400-digits"])
    def test_bad_k_rejected_before_any_double(self, capsys, tmp_path, k):
        out_dir = tmp_path / "doubles"
        path = tmp_path / "disk.mesh.json"
        save_mesh(gen.flat_disk(1.0, 8, 32), path)
        code = main(["double", str(path), "--k-list", f"10,{k}", "--out-dir", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: k must be an integer from 1 to 4294967296\n"
        assert not out_dir.exists()

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

    @pytest.mark.parametrize("name,params", [
        ("net", ["epsilon=0.3", "radius=-1"]),
        ("sphere-circles", ["radius=-0.2"]),
        ("sphere-circles", ["radius=0"]),
    ])
    def test_nonpositive_circle_radius(self, capsys, tmp_path, name, params):
        out = tmp_path / "x.contour.json"
        code = main(["gen", name] + [a for p in params for a in ("--param", p)]
                    + ["--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: radius ")
        assert "must be positive" in captured.err
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


@pytest.mark.parametrize("argv", [
    ["verify-bound", "{disk}", "--json", "{bad}"],
    ["double", "{disk}", "--k-list", "10", "--csv", "{bad}"],
    ["double", "{disk}", "--k-list", "10", "--out-dir", "{bad}"],
    ["teardrop", "--k", "10", "--export", "{bad}"],
    ["check-contour", "{contour}", "--json", "{bad}"],
    ["audit", "--quick", "--probes", "2", "--csv", "{bad}"],
    ["audit", "--quick", "--probes", "2", "--json", "{bad}"],
], ids=["verify-bound-json", "double-csv", "double-out-dir", "teardrop-export",
        "check-contour-json", "audit-csv", "audit-json"])
def test_unwritable_output_leaves_stdout_empty(capsys, tmp_path, disk_obj, antipodal_contour,
                                               argv):
    # every file is written before the report is printed
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    paths = {"disk": disk_obj, "contour": antipodal_contour, "bad": str(blocker / "out")}
    code = main([a.format(**paths) for a in argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


class TestUsage:
    @pytest.mark.parametrize("argv", [
        ["check-contour", "x.json", "--bogus"],
        ["check-contour", "x.json", "--budget", "abc"],
        ["--threads", "4", "check-contour", "x.json"],
        ["double", "x.obj", "--epsilon", "0.01"],
        ["check-contour", "x.json", "--no-cone"],
        ["teardrop", "--samples-per-unit", "400"],
        [],
    ], ids=["unknown-option", "bad-budget", "removed-threads", "removed-epsilon",
            "removed-no-cone", "removed-samples-per-unit", "no-subcommand"])
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

    def test_one_parser_serves_every_command(self, capsys, monkeypatch):
        # main builds its parser once per process, and reusing it changes no output
        built, build = [], cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        runs = []
        for argv in 2 * [["--help"], ["check-contour", "--help"],
                         ["check-contour", "x.json", "--bogus"], ["double", "x.obj", "--k-list"],
                         ["teardrop", "--k", "10"]]:
            code = main(argv)
            captured = capsys.readouterr()
            runs.append((code, captured.out, captured.err))
        cli._parser.cache_clear()
        assert built == [1]
        assert runs[:5] == runs[5:]
        assert [code for code, _, _ in runs[:5]] == [0, 0, 1, 1, 0]


def test_cli_import_leaves_scipy_optimize_unloaded():
    # no command needs scipy.optimize, and importing the CLI must not load it
    code = "import sys, curvebound.cli; print('scipy.optimize' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "False"


def test_certified_cone_leaves_scipy_optimize_unloaded(tmp_path, antipodal_microcircles):
    # the cone certifies on the antipodal micro-circles, so its apex LPs run:
    # the search solves them itself
    save_contour(antipodal_microcircles, tmp_path / "in.contour.json")
    code = textwrap.dedent("""
        import json, sys
        from curvebound.cli import main

        assert main(["check-contour", "in.contour.json", "--json", "report.json"]) == 2
        cone = json.load(open("report.json"))["criteria"][-1]
        print(cone["name"], cone["verdict"], "scipy.optimize" in sys.modules)
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, cwd=tmp_path, check=True).stdout
    assert out.splitlines()[-1] == "cone nonexistence-certified False"


def test_contour_commands_leave_scipy_unloaded(tmp_path):
    # the nets' packing and covering radii and White's bottleneck run on the kd
    # pair search and the union-find of curvebound.mesh, not on scipy
    code = textwrap.dedent("""
        import sys
        from curvebound.cli import main

        for argv, rc in ((["gen", "net", "--param", "epsilon=0.1", "--out", "net.contour.json"], 0),
                         (["gen", "sphere-circles", "--out", "antipodal.contour.json"], 0),
                         (["gen", "coaxial-circles", "--out", "coaxial.contour.json"], 0),
                         (["check-contour", "coaxial.contour.json"], 2),
                         (["check-contour", "net.contour.json"], 0)):
            assert main(argv) == rc, argv
        print([m for m in sys.modules if m == "scipy" or m.startswith("scipy.")])
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, cwd=tmp_path, check=True).stdout
    assert out.splitlines()[-1] == "[]"


def test_doubling_commands_leave_scipy_unloaded(tmp_path):
    # verify-bound, double, teardrop and gen never import scipy, nor does
    # check-contour; audit imports it when it runs (Dijkstra)
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
