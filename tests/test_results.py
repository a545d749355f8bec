"""Result writers: CSV field tables, VTK frames, run logs."""

import numpy as np
import pytest

from hamfe2.fem import FieldState
from hamfe2.homogenization import EffectiveResponse
from hamfe2.mesh import generate_rectangle_mesh
from hamfe2.results import (read_history_csv, write_history_csv,
                            write_history_vtk, write_response_table,
                            write_results, write_round_log, write_step_log)
from hamfe2.scheduler import RoundRecord
from hamfe2.solver import History


def small_history(n_nodes, n_times=2, seed=0):
    rng = np.random.default_rng(seed)
    history = History()
    for k in range(n_times):
        state = FieldState(rng.uniform(0, 30, n_nodes),
                           rng.uniform(0.1, 0.9, n_nodes), time=k * 1800.0)
        history.append(state, iterations=k + 1, wall=0.25 * (k + 1))
    return history


class TestCsv:

    def test_two_frames_give_two_data_columns(self, tmp_path):
        history = small_history(5, n_times=2)
        write_history_csv(history, str(tmp_path))
        lines = (tmp_path / "theta.csv").read_text().splitlines()
        assert lines[0] == "node,0,0.5"
        assert len(lines) == 1 + 5
        assert all(len(ln.split(",")) == 3 for ln in lines)

    def test_round_trip_is_exact(self, tmp_path):
        history = small_history(7, n_times=3, seed=4)
        write_results(history, "csv", str(tmp_path))
        back = read_history_csv(str(tmp_path))
        assert np.array_equal(back.theta_array(), history.theta_array())
        assert np.array_equal(back.phi_array(), history.phi_array())
        assert back.times == pytest.approx(history.times, abs=1e-12)

    def test_empty_history_is_an_error(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            write_results(History(), "csv", str(tmp_path))

    def test_writer_is_deterministic(self, tmp_path):
        history = small_history(6, n_times=2, seed=9)
        a, b = tmp_path / "a", tmp_path / "b"
        write_history_csv(history, str(a))
        write_history_csv(history, str(b))
        for name in ("theta.csv", "phi.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_unknown_format_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            write_results(small_history(3), "hdf5", str(tmp_path))

    @pytest.mark.parametrize("name, line, row, message", [
        ("theta", 3, "1,20", "expected 3"),
        ("theta", 3, "1,20,21,22", "expected 3"),
        ("theta", 3, "x,20,21", "rows must be ordered"),
        ("phi", 4, "2,0.5,nan", "non-finite"),
        ("phi", 4, "2,inf,0.5", "non-finite")],
        ids=["short", "long", "node", "nan", "inf"])
    def test_bad_row_names_the_file_and_line(self, tmp_path, name, line, row,
                                             message):
        write_history_csv(small_history(3), str(tmp_path))
        path = tmp_path / f"{name}.csv"
        lines = path.read_text().splitlines()
        lines[line - 1] = row
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"{name}\\.csv:{line}: {message}"):
            read_history_csv(str(tmp_path))


class TestVtk:

    def test_one_file_per_frame_with_both_fields(self, tmp_path):
        mesh = generate_rectangle_mesh(1.0, 1.0, 2, 2)
        history = small_history(mesh.n_nodes, n_times=2)
        paths = write_results(history, "vtk", str(tmp_path), mesh=mesh)
        assert len(paths) == 2
        text = (tmp_path / "frame_0000.vtk").read_text()
        assert f"POINTS {mesh.n_nodes} double" in text
        assert f"CELLS {mesh.n_triangles} {4 * mesh.n_triangles}" in text
        assert "SCALARS theta double 1" in text
        assert "SCALARS phi double 1" in text
        # all cells are linear triangles
        assert text.count("\n5") >= mesh.n_triangles

    def test_vtk_needs_a_mesh(self, tmp_path):
        with pytest.raises(ValueError, match="mesh"):
            write_results(small_history(9), "vtk", str(tmp_path))

    def test_node_count_mismatch_is_rejected(self, tmp_path):
        mesh = generate_rectangle_mesh(1.0, 1.0, 2, 2)
        with pytest.raises(ValueError, match="node count"):
            write_history_vtk(small_history(4), mesh, str(tmp_path))

    def test_values_survive_with_full_precision(self, tmp_path):
        mesh = generate_rectangle_mesh(1.0, 1.0, 2, 2)
        history = small_history(mesh.n_nodes, n_times=1, seed=2)
        write_history_vtk(history, mesh, str(tmp_path))
        lines = (tmp_path / "frame_0000.vtk").read_text().splitlines()
        start = lines.index("SCALARS theta double 1") + 2
        values = np.array([float(v) for v in lines[start:start + 9]])
        assert np.array_equal(values, history.states[0].theta)


class TestLogs:

    def test_step_log_lists_every_step(self, tmp_path):
        history = small_history(4, n_times=3)
        path = tmp_path / "steps.csv"
        write_step_log(history, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "step,t_hours,iterations,wall_s"
        assert len(lines) == 4
        assert lines[2].startswith("1,0.5,2,")

    def test_round_log_round_trips_records(self, tmp_path):
        records = [RoundRecord(0, 0, 12, 0.5), RoundRecord(0, 1, 13, 0.6)]
        path = tmp_path / "rounds.csv"
        write_round_log(records, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "round,worker,points,seconds"
        assert lines[1] == "0,0,12,0.5"

    def test_response_table_has_eleven_columns(self, tmp_path):
        response = EffectiveResponse(q_heat=np.array([1.0, 2.0]),
                                     q_moist=np.array([3e-7, 4e-7]),
                                     s_t=5.0, s_f=6e-6,
                                     m_t=np.array([0.1, 0.2]),
                                     m_f=np.array([0.3, 0.4]))
        path = tmp_path / "table.csv"
        write_response_table([(1.0, response), (2.0, response)], str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert all(len(ln.split(",")) == 11 for ln in lines)
        row = lines[1].split(",")
        assert float(row[0]) == 1.0 and float(row[1]) == 1.0
        assert float(row[4]) == 4e-7
