"""Unit tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_evd_defaults(self):
        args = build_parser().parse_args(["evd"])
        assert args.n == 300 and args.method == "proposed"

    def test_invalid_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evd", "--method", "jacobi2"])

    @pytest.mark.parametrize("command", ["evd", "plan"])
    def test_solver_flag_removed(self, command):
        # Divide and conquer is the one tridiagonal solver.
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--solver", "dc"])


class TestCommands:
    def test_evd_runs(self, capsys):
        assert main(["evd", "--n", "80", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "residual" in out and "eigenvalue" in out

    def test_evd_no_vectors(self, capsys):
        assert main(["evd", "--n", "60", "--no-vectors"]) == 0
        out = capsys.readouterr().out
        assert "residual" not in out

    def test_tridiag_runs(self, capsys):
        assert main(["tridiag", "--n", "70", "--method", "dbbr",
                     "--bandwidth", "4", "--second-block", "8"]) == 0
        out = capsys.readouterr().out
        assert "spectrum error" in out and "BC pipeline" in out

    def test_tridiag_direct(self, capsys):
        assert main(["tridiag", "--n", "50", "--method", "direct"]) == 0
        out = capsys.readouterr().out
        assert "bandwidth: 1" in out

    @pytest.mark.parametrize("name", ["table1", "fig5", "fig9", "fig15"])
    def test_figures_render(self, capsys, name):
        assert main(["figure", name]) == 0
        out = capsys.readouterr().out
        assert "vs" in out and len(out.splitlines()) > 5

    def test_unknown_figure(self):
        with pytest.raises(KeyError):
            main(["figure", "fig99"])

    def test_simulate_bc(self, capsys):
        assert main(["simulate-bc", "--n", "8192", "--bandwidth", "32",
                     "--sweeps", "64"]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out and "throughput" in out

    def test_simulate_bc_naive_4090(self, capsys):
        assert main(["simulate-bc", "--n", "4096", "--device", "4090",
                     "--naive"]) == 0
        assert "naive" in capsys.readouterr().out

    def test_devices(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "H100" in out and "4090" in out


class TestVerifyCommand:
    def test_save_then_verify_ok(self, capsys, tmp_path):
        path = str(tmp_path / "r.npz")
        assert main(["evd", "--n", "60", "--save", path]) == 0
        assert main(["verify", path]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "check residual: pass" in out

    def test_verify_fails_on_corrupted_result(self, capsys, tmp_path):
        import numpy as np

        from repro.core.serialization import load_evd, save_evd

        path = str(tmp_path / "r.npz")
        assert main(["evd", "--n", "40", "--save", path]) == 0
        res, A = load_evd(path)
        V = res.eigenvectors.copy()
        V[0, 0] += 0.5
        res.eigenvectors = V
        bad = str(tmp_path / "bad.npz")
        save_evd(bad, res, A=A)
        capsys.readouterr()
        assert main(["verify", bad]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_verify_without_matrix_needs_flag(self, capsys, tmp_path):
        import numpy as np

        import repro
        from repro.core.serialization import save_evd

        rng = np.random.default_rng(3)
        A = rng.standard_normal((24, 24))
        A = (A + A.T) / 2
        path = str(tmp_path / "r.npz")
        save_evd(path, repro.eigh(A))  # no embedded matrix
        assert main(["verify", path]) == 2
        mat = str(tmp_path / "A.npy")
        np.save(mat, A)
        assert main(["verify", path, "--matrix", mat]) == 0


class TestFaultInjectionFlags:
    def test_faults_flag_fails_without_fallback(self, capsys):
        # n above the D&C leaf size (128), so there is a merge to fault.
        assert main(["evd", "--n", "160",
                     "--faults", "dc.merge:convergence"]) == 1
        assert "ConvergenceError" in capsys.readouterr().err

    def test_faults_flag_recovers_with_chain(self, capsys):
        assert main(["evd", "--n", "160", "--faults", "dc.merge:convergence",
                     "--fallback", "chain"]) == 0
        assert "residual" in capsys.readouterr().out

    def test_faults_flag_fails_when_no_fault_fired(self, capsys):
        # n at or below the leaf size never merges: the fault cannot fire,
        # so the run tests nothing and must not pass as a recovery.
        assert main(["evd", "--n", "40", "--faults", "dc.merge:convergence",
                     "--fallback", "chain"]) == 1
        assert "no injected fault fired" in capsys.readouterr().err

    def test_env_hook_arms_faults(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "dc.merge:convergence")
        try:
            assert main(["evd", "--n", "160"]) == 1
        finally:
            from repro.resilience import clear_faults

            clear_faults()
