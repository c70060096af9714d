"""End-to-end command-line tests via click's test runner."""

import csv
import dataclasses
import hashlib
import os

import numpy as np
import pytest
from click.testing import CliRunner

from dscnopt import baselines, benders, cli, oracle, scenario as scn
from dscnopt.cli import main
from dscnopt.model import (
    Association, InfeasibleInstanceError, ModelError, PowerVector,
    total_transmission_time,
)


@pytest.fixture()
def runner():
    return CliRunner()


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def long_fields(rows):
    out = {}
    for field, index, value in rows[1:]:
        out.setdefault(field, []).append((index, value))
    return out


class TestGenerate:
    def test_writes_loadable_instance(self, runner, tmp_path):
        out = tmp_path / "inst.txt"
        result = runner.invoke(main, ["generate", "--seed", "3", "--out", str(out)])
        assert result.exit_code == 0
        inst = scn.load(str(out))
        assert inst.scenario.user_count == 6

    def test_matches_library_generation(self, runner, tmp_path):
        out = tmp_path / "inst.txt"
        runner.invoke(main, ["generate", "--seed", "3", "--out", str(out)])
        direct = scn.generate(scn.desk_scale(), 3)
        loaded = scn.load(str(out))
        assert np.array_equal(
            loaded.scenario.channel_gains, direct.scenario.channel_gains
        )


class TestSolve:
    def test_ucwt_solve_and_trace(self, runner, tmp_path):
        out = tmp_path / "res.csv"
        result = runner.invoke(
            main, ["solve", "--seed", "0", "--alpha", "0.5", "--out", str(out)]
        )
        assert result.exit_code == 0
        rows = read_csv(str(out))
        assert rows[0] == ["field", "index", "value"]
        fields = long_fields(rows)
        assert fields["algorithm"][0][1] == "ucwt"
        assert fields["converged"][0][1] == "1"
        assert len(fields["assigned_sbs"]) == 6
        assert len(fields["power_w"]) == 3
        trace = (tmp_path / "res.csv.trace.csv").read_text().splitlines()
        assert trace[0] == "t,psi_lower,psi_upper,subproblem_status,M,N,omega"
        assert len(trace) >= 2

    def test_oracle_agrees_with_ucwt(self, runner, tmp_path):
        values = {}
        for alg in ("ucwt", "oracle"):
            out = tmp_path / f"{alg}.csv"
            result = runner.invoke(
                main,
                ["solve", "--seed", "1", "--algorithm", alg,
                 "--alpha", "0.3", "--out", str(out)],
            )
            assert result.exit_code == 0
            values[alg] = float(long_fields(read_csv(str(out)))["weighted"][0][1])
        assert values["ucwt"] == pytest.approx(values["oracle"], rel=1e-6)

    def test_solve_from_instance_file(self, runner, tmp_path):
        inst_path = tmp_path / "inst.txt"
        runner.invoke(main, ["generate", "--seed", "2", "--out", str(inst_path)])
        out = tmp_path / "res.csv"
        result = runner.invoke(
            main, ["solve", "--instance", str(inst_path), "--out", str(out)]
        )
        assert result.exit_code == 0
        out2 = tmp_path / "res2.csv"
        runner.invoke(main, ["solve", "--seed", "2", "--out", str(out2)])
        assert read_csv(str(out)) == read_csv(str(out2))

    def test_instance_with_paper_scale_exits_2(self, runner, tmp_path):
        inst_path = tmp_path / "inst.txt"
        runner.invoke(main, ["generate", "--seed", "2", "--out", str(inst_path)])
        out = tmp_path / "res.csv"
        result = runner.invoke(
            main,
            ["solve", "--instance", str(inst_path), "--paper-scale", "--out", str(out)],
        )
        assert result.exit_code == 2
        assert "--instance and --paper-scale are exclusive" in result.output
        assert not out.exists()

    def test_baseline_algorithms_run(self, runner, tmp_path):
        # seed 3 admits a feasible association for both heuristics
        for alg in ("doa", "ema"):
            out = tmp_path / f"{alg}.csv"
            result = runner.invoke(
                main, ["solve", "--seed", "3", "--algorithm", alg, "--out", str(out)]
            )
            assert result.exit_code == 0
            fields = long_fields(read_csv(str(out)))
            assert fields["algorithm"][0][1] == alg
            assert fields["iterations"][0][1] == "0"

    def test_usage_errors_exit_2(self, runner, tmp_path):
        out = tmp_path / "res.csv"
        bad_alpha = runner.invoke(main, ["solve", "--alpha", "1.5", "--out", str(out)])
        assert bad_alpha.exit_code == 2
        bad_alg = runner.invoke(
            main, ["solve", "--algorithm", "nope", "--out", str(out)]
        )
        assert bad_alg.exit_code == 2

    def test_corrupt_instance_exits_2(self, runner, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not an instance\n")
        result = runner.invoke(
            main, ["solve", "--instance", str(path), "--out", str(tmp_path / "o.csv")]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("header, row", [
        ("[matrix max_power_w 3 1]", None),
        ("[matrix max_power_w 3 1]", "-1"),
        ("[matrix demand_theta 6 8]", "0.5 0.5 0 0 0 0 0 0"),
        ("[matrix max_power_w 3 1]", "nan"),
    ])
    def test_invalid_instance_exits_2(self, runner, tmp_path, header, row):
        # a non-integer dimension, a negative power budget, a non-binary
        # demand, a power budget that is not a number
        lines = scn.dumps(scn.generate(scn.desk_scale(), 0)).splitlines()
        k = lines.index(header)
        if row is None:
            lines[k] = header.replace(" 3 1]", " x 1]")
        else:
            lines[k + 1] = row
        path = tmp_path / "inst.txt"
        path.write_text("\n".join(lines) + "\n")
        result = runner.invoke(
            main, ["solve", "--instance", str(path), "--out", str(tmp_path / "o.csv")]
        )
        assert result.exit_code == 2
        assert "cannot load instance" in result.output
        assert "Traceback" not in result.output

    def test_iteration_budget_exits_1(self, runner, tmp_path, monkeypatch):
        # desk B=5, U=16, seed 0 at alpha 1 proposes a feasible association
        # first and needs more than two iterations to close the gap; with
        # the energy floor every desk B=3 run at alpha 1 takes one
        monkeypatch.setattr(benders, "DEFAULT_MAX_ITERS", 2)
        path = tmp_path / "inst.txt"
        scn.save(scn.generate(scn.desk_scale(sbs_count=5, user_count=16), 0), str(path))
        out = tmp_path / "o.csv"
        result = runner.invoke(
            main,
            ["solve", "--instance", str(path), "--alpha", "1", "--out", str(out)],
        )
        assert result.exit_code == 1
        fields = long_fields(read_csv(str(out)))
        assert fields["converged"][0][1] == "0"
        assert fields["iterations"][0][1] == "2"

    def test_unconverged_incumbent_says_why(self, runner, tmp_path, monkeypatch):
        # the instance of test_iteration_budget_exits_1: the incumbent is
        # written, and stderr names the gap left and the iterations spent
        monkeypatch.setattr(benders, "DEFAULT_MAX_ITERS", 2)
        path = tmp_path / "inst.txt"
        scn.save(scn.generate(scn.desk_scale(sbs_count=5, user_count=16), 0), str(path))
        out = tmp_path / "o.csv"
        result = runner.invoke(
            main,
            ["solve", "--instance", str(path), "--alpha", "1", "--out", str(out)],
        )
        assert result.exit_code == 1
        assert result.stdout == ""
        (line,) = result.stderr.splitlines()
        assert line.startswith("not converged: gap ")
        assert line.endswith(" after 2 iterations")
        assert long_fields(read_csv(str(out)))["converged"][0][1] == "0"

    def test_budget_without_incumbent_exits_1(self, runner, tmp_path, monkeypatch):
        # running out of iterations before a feasible proposal is
        # non-convergence, not infeasibility
        monkeypatch.setattr(benders, "DEFAULT_MAX_ITERS", 1)
        out = tmp_path / "o.csv"
        result = runner.invoke(
            main,
            ["solve", "--instance", first_proposal_infeasible(tmp_path),
             "--alpha", "0.5", "--out", str(out)],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "not converged: no power-feasible association" in result.output
        assert "infeasible" not in result.output
        assert not out.exists()

    def test_infeasible_instance_exits_3(self, runner, tmp_path):
        # shrink every SBS's power budget until no association is feasible
        inst = scn.generate(scn.desk_scale(), 0)
        text = scn.dumps(inst)
        lines = text.splitlines()
        k = lines.index("[matrix max_power_w 3 1]")
        for t in range(k + 1, k + 4):
            lines[t] = "1e-12"
        path = tmp_path / "inst.txt"
        path.write_text("\n".join(lines) + "\n")
        result = runner.invoke(
            main,
            ["solve", "--instance", str(path), "--out", str(tmp_path / "o.csv")],
        )
        assert result.exit_code == 3

    @pytest.mark.parametrize("algorithm", ["ucwt", "oracle", "doa", "ema"])
    def test_stranded_user_exits_3(self, runner, tmp_path, algorithm):
        # every algorithm proves the instance infeasible with the same error
        out = tmp_path / "o.csv"
        result = runner.invoke(
            main,
            ["solve", "--instance", stranded_instance(tmp_path),
             "--algorithm", algorithm, "--out", str(out)],
        )
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)
        assert "infeasible: " in result.output
        assert "Traceback" not in result.output
        assert not out.exists()

    def test_repair_failure_exits_1(self, runner, tmp_path):
        # desk seed 0 is feasible (ucwt and ema answer it), but doa's
        # repair gives up: no answer, and no proof of infeasibility
        out = tmp_path / "o.csv"
        result = runner.invoke(
            main, ["solve", "--seed", "0", "--algorithm", "doa", "--out", str(out)]
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "no answer: infeasibility repair failed" in result.output
        assert "infeasible:" not in result.output
        assert not out.exists()

    def test_oracle_over_enumeration_cap_exits_2(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["solve", "--paper-scale", "--algorithm", "oracle",
             "--out", str(tmp_path / "o.csv")],
        )
        assert_cap_usage_error(result)


    def test_solver_fault_exits_4(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(benders, "_min_power", raise_solver_fault)
        result = runner.invoke(main, ["solve", "--out", str(tmp_path / "o.csv")])
        assert_solver_fault(result)


def first_proposal_infeasible(tmp_path):
    """Desk U=8 seed 31, noise and power caps 40 dB lower: ucwt's first
    proposal at alpha 0 and 0.5 is infeasible, at alpha 1 feasible.

    At the desk's own levels the energy floor steers the alpha 0.5 master
    to a feasible first proposal. 40 dB lower, energy is 10^-4 of it, so
    that proposal is the least-delay one, as at alpha 0.
    """
    path = tmp_path / "inst.txt"
    config = scn.desk_scale(
        user_count=8, noise_density_dbm_hz=-132.0, max_power_dbm=-14.0
    )
    scn.save(scn.generate(config, 31), str(path))
    return str(path)


def stranded_instance(tmp_path):
    """Desk seed 0 with its last user moved 10 km away, out of every SBS's reach."""
    inst = scn.generate(scn.desk_scale(), 0)
    s = inst.scenario
    users = s.user_positions.copy()
    users[-1] += 1e4
    dist = np.linalg.norm(users[:, None, :] - s.sbs_positions[None, :, :], axis=2)
    far = dataclasses.replace(
        s, user_positions=users, channel_gains=dist ** -s.pathloss_exponent
    )
    reach = benders.reachable_sbs(far, inst.demands)
    assert reach[:-1].any(axis=1).all() and not reach[-1].any()
    path = tmp_path / "stranded.txt"
    scn.save(dataclasses.replace(inst, scenario=far), str(path))
    return str(path)


def unconverged_ucwt(monkeypatch):
    """Make every ucwt run report that it did not converge."""
    ucwt = benders.ucwt

    def run(*args, **kwargs):
        result = ucwt(*args, **kwargs)
        result.trace.converged = False
        return result

    monkeypatch.setattr(benders, "ucwt", run)


def raise_solver_fault(*args):
    raise benders.SolverFault("power subproblem: no certificate is available")


def assert_solver_fault(result):
    """An internal fault has its own exit code and is not called infeasible."""
    assert result.exit_code == 4
    assert isinstance(result.exception, SystemExit)
    assert "solver fault: power subproblem" in result.output
    assert "infeasible" not in result.output
    assert "Traceback" not in result.output


def assert_cap_usage_error(result):
    """The oracle's enumeration cap is a usage error: exit 2, no traceback."""
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "exceed the cap" in result.output
    assert "infeasible" not in result.output
    assert "Traceback" not in result.output


class TestSweepAlpha:
    def test_oracle_sweep_schema_and_pareto(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        result = runner.invoke(
            main,
            ["sweep-alpha", "--seed", "0", "--grid", "0,0.5,1", "--out", str(out)],
        )
        assert result.exit_code == 0
        rows = read_csv(str(out))
        assert rows[0] == [
            "alpha", "replication", "energy_joules", "delay_seconds", "weighted"
        ]
        assert len(rows) == 4
        energies = [float(r[2]) for r in rows[1:]]
        delays = [float(r[3]) for r in rows[1:]]
        assert energies == sorted(energies, reverse=True)
        assert delays == sorted(delays)

    def test_ucwt_matches_oracle_sweep(self, runner, tmp_path):
        outs = {}
        for alg in ("oracle", "ucwt"):
            out = tmp_path / f"{alg}.csv"
            result = runner.invoke(
                main,
                ["sweep-alpha", "--seed", "1", "--algorithm", alg,
                 "--grid", "0,1", "--out", str(out)],
            )
            assert result.exit_code == 0
            outs[alg] = read_csv(str(out))
        for a, b in zip(outs["oracle"][1:], outs["ucwt"][1:]):
            assert float(a[4]) == pytest.approx(float(b[4]), rel=1e-6)

    def test_replications_use_distinct_seeds(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        result = runner.invoke(
            main,
            ["sweep-alpha", "--grid", "0.5", "--replications", "2",
             "--out", str(out)],
        )
        assert result.exit_code == 0
        rows = read_csv(str(out))
        assert [r[1] for r in rows[1:]] == ["0", "1"]
        assert rows[1][2] != rows[2][2]

    def test_bad_grid_exits_2(self, runner, tmp_path):
        result = runner.invoke(
            main, ["sweep-alpha", "--grid", "0.5,nope", "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("epsilon", ["-1", "nan", "inf"])
    def test_bad_epsilon_exits_2(self, runner, tmp_path, epsilon):
        # ucwt stops on exact evidence and takes no tolerance; a script
        # that still sets one fails loudly, on both commands that once
        # took one, whatever the value
        for command in (["solve"], ["sweep-alpha", "--algorithm", "ucwt", "--grid", "0.5"]):
            out = tmp_path / "o"
            result = runner.invoke(main, [*command, "--epsilon", epsilon, "--out", str(out)])
            assert result.exit_code == 2
            assert "No such option '--epsilon'" in result.output
            assert not out.exists()

    def test_oracle_over_enumeration_cap_exits_2(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["sweep-alpha", "--paper-scale", "--algorithm", "oracle",
             "--grid", "0.5", "--out", str(tmp_path / "o.csv")],
        )
        assert_cap_usage_error(result)

    def test_instance_with_paper_scale_exits_2(self, runner, tmp_path):
        inst_path = tmp_path / "inst.txt"
        runner.invoke(main, ["generate", "--seed", "2", "--out", str(inst_path)])
        out = tmp_path / "o.csv"
        result = runner.invoke(
            main,
            ["sweep-alpha", "--instance", str(inst_path), "--paper-scale",
             "--grid", "0.5", "--out", str(out)],
        )
        assert result.exit_code == 2
        assert "--instance and --paper-scale are exclusive" in result.output
        assert not out.exists()

    def test_paper_scale_warns_once(self, runner, tmp_path, monkeypatch):
        def nearest_sbs(s, demands, cache, alpha, master=None):
            assoc = Association.from_assignment(
                s.channel_gains.argmax(axis=1), s.sbs_count
            )
            trace = benders.BendersTrace(converged=True)
            return benders.UcwtResult(assoc, PowerVector(np.zeros(s.sbs_count)), trace)

        monkeypatch.setattr(benders, "ucwt", nearest_sbs)
        out = tmp_path / "o.csv"
        result = runner.invoke(
            main,
            ["sweep-alpha", "--paper-scale", "--algorithm", "ucwt", "--grid", "0.5",
             "--replications", "2", "--out", str(out)],
        )
        assert result.exit_code == 0
        assert [r[1] for r in read_csv(str(out))[1:]] == ["0", "1"]
        assert result.stderr.count(cli._PAPER_SCALE_WARNING) == 1

    def test_budget_without_incumbent_exits_1(self, runner, tmp_path, monkeypatch):
        # alphas without an incumbent get empty cells, the others their
        # unconverged incumbent; the sweep goes on and exits 1
        monkeypatch.setattr(benders, "DEFAULT_MAX_ITERS", 1)
        out = tmp_path / "o.csv"
        result = runner.invoke(
            main,
            ["sweep-alpha", "--instance", first_proposal_infeasible(tmp_path),
             "--algorithm", "ucwt", "--grid", "0,0.5,1", "--out", str(out)],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        rows = read_csv(str(out))[1:]
        assert [r[:2] for r in rows] == [["0", "0"], ["0.5", "0"], ["1", "0"]]
        assert rows[0][2:] == rows[1][2:] == ["", "", ""]
        assert all(float(v) > 0.0 for v in rows[2][2:])

    def test_unconverged_alpha_says_why(self, runner, tmp_path, monkeypatch):
        # desk B=5, U=16, seed 0 keeps an unconverged incumbent at alpha 1
        # after two iterations; its row is written and stderr says why
        monkeypatch.setattr(benders, "DEFAULT_MAX_ITERS", 2)
        path = tmp_path / "inst.txt"
        scn.save(scn.generate(scn.desk_scale(sbs_count=5, user_count=16), 0), str(path))
        out = tmp_path / "o.csv"
        result = runner.invoke(
            main,
            ["sweep-alpha", "--instance", str(path), "--algorithm", "ucwt",
             "--grid", "1", "--out", str(out)],
        )
        assert result.exit_code == 1
        (line,) = result.stderr.splitlines()
        assert line.startswith("not converged: replication 0 (seed 0), alpha 1: gap ")
        assert line.endswith(" after 2 iterations")
        (row,) = read_csv(str(out))[1:]
        assert all(float(v) > 0.0 for v in row[2:])

    @pytest.mark.parametrize("algorithm", ["oracle", "ucwt"])
    def test_infeasible_replication_writes_empty_cells(
        self, runner, tmp_path, monkeypatch, algorithm
    ):
        # replication 1 (seed 1) is called infeasible, by ucwt from alpha 0.5 on
        stranded = scn.generate(scn.desk_scale(), 1).scenario.channel_gains
        solve_ucwt, sweep = benders.ucwt, oracle.brute_force_sweep

        def ucwt_on_seed(s, demands, cache, alpha, master=None):
            if np.array_equal(s.channel_gains, stranded) and alpha > 0.0:
                raise InfeasibleInstanceError("no association")
            return solve_ucwt(s, demands, cache, alpha)

        def sweep_on_seed(s, demands, cache, alphas):
            if np.array_equal(s.channel_gains, stranded):
                raise InfeasibleInstanceError("no association")
            return sweep(s, demands, cache, alphas)

        monkeypatch.setattr(benders, "ucwt", ucwt_on_seed)
        monkeypatch.setattr(oracle, "brute_force_sweep", sweep_on_seed)
        out = tmp_path / "o.csv"
        result = runner.invoke(
            main,
            ["sweep-alpha", "--algorithm", algorithm, "--grid", "0,0.5,1",
             "--replications", "3", "--out", str(out)],
        )
        assert result.exit_code == 0
        rows = read_csv(str(out))[1:]
        assert [r[:2] for r in rows] == [
            [a, rep] for rep in "012" for a in ("0", "0.5", "1")
        ]
        empty = {(rep, a) for rep, a in (("1", "0.5"), ("1", "1"))}
        if algorithm == "oracle":
            empty.add(("1", "0"))
        for row in rows:
            blank = (row[1], row[0]) in empty
            assert all((v == "") == blank for v in row[2:])
        assert result.stderr.splitlines() == [
            "infeasible: replication 1 (seed 1): no association"
        ]

    @pytest.mark.parametrize("algorithm", ["oracle", "ucwt"])
    def test_solver_fault_exits_4(self, runner, tmp_path, monkeypatch, algorithm):
        monkeypatch.setattr(benders, "_min_power", raise_solver_fault)
        result = runner.invoke(
            main,
            ["sweep-alpha", "--algorithm", algorithm, "--grid", "0.5",
             "--out", str(tmp_path / "o.csv")],
        )
        assert_solver_fault(result)


class TestCompareCaching:
    def test_schema_and_hit_ratio_ordering(self, runner, tmp_path):
        out = tmp_path / "caching.csv"
        result = runner.invoke(
            main,
            ["compare-caching", "--seeds", "3", "--capacity-grid", "0.25,1.0",
             "--out", str(out)],
        )
        assert result.exit_code == 0
        rows = read_csv(str(out))
        assert rows[0] == [
            "policy", "capacity_fraction", "seed", "hit_ratio",
            "energy_joules", "delay_seconds",
        ]
        table = {(r[0], r[1], r[2]): float(r[3]) for r in rows[1:]}
        for frac in ("0.25", "1"):
            for s in ("0", "1", "2"):
                assert table[("lpf", frac, s)] >= table[("gpc", frac, s)] - 1e-12
                assert table[("lpf", frac, s)] >= table[("rc", frac, s)] - 1e-12
        # full capacity: every policy caches everything
        for policy in ("lpf", "gpc", "rc"):
            for s in ("0", "1", "2"):
                assert table[(policy, "1", s)] == pytest.approx(1.0)

    def test_capacity_fraction_changes_only_the_capacity(self):
        # compare-caching and the capacity sweep generate each seed once and
        # give each fraction the capacity that generation at it would give
        assert scn.desk_scale().cache_fraction == 0.4
        for seed in range(20):
            inst = scn.generate(scn.desk_scale(), seed)
            for fraction in (0.1, 0.25, 0.5, 1.0):
                at = scn.generate(scn.desk_scale(cache_fraction=fraction), seed)
                replaced = dataclasses.replace(
                    inst, scenario=cli._with_capacity(inst.scenario, fraction))
                assert scn.dumps(replaced) == scn.dumps(at)

    def test_solver_fault_exits_4(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(benders, "_min_power", raise_solver_fault)
        result = runner.invoke(
            main,
            ["compare-caching", "--seeds", "1", "--capacity-grid", "0.5",
             "--out", str(tmp_path / "o.csv")],
        )
        assert_solver_fault(result)

    def test_unconverged_ucwt_writes_empty_cells(self, runner, tmp_path, monkeypatch):
        unconverged_ucwt(monkeypatch)
        out = tmp_path / "o.csv"
        result = runner.invoke(
            main,
            ["compare-caching", "--seeds", "1", "--capacity-grid", "0.5",
             "--seed", "3", "--out", str(out)],
        )
        assert result.exit_code == 0
        rows = read_csv(str(out))[1:]
        assert sorted(r[0] for r in rows) == ["gpc", "lpf", "rc"]
        assert all(r[3] != "" and r[4:] == ["", ""] for r in rows)

    def test_model_error_writes_empty_cells(self, runner, tmp_path, monkeypatch):
        def give_up(*args, master=None):
            raise InfeasibleInstanceError("ucwt: no answer")

        monkeypatch.setattr(benders, "ucwt", give_up)
        out = tmp_path / "o.csv"
        result = runner.invoke(
            main,
            ["compare-caching", "--seeds", "1", "--capacity-grid", "0.5",
             "--out", str(out)],
        )
        assert result.exit_code == 0
        rows = read_csv(str(out))[1:]
        assert sorted(r[0] for r in rows) == ["gpc", "lpf", "rc"]
        assert all(r[3] != "" and r[4:] == ["", ""] for r in rows)


class TestCompareAlgorithms:
    def test_users_sweep_schema(self, runner, tmp_path):
        out = tmp_path / "algos.csv"
        result = runner.invoke(
            main,
            ["compare-algorithms", "--seeds", "2", "--grid", "4,5",
             "--out", str(out)],
        )
        assert result.exit_code == 0
        rows = read_csv(str(out))
        assert rows[0] == [
            "sweep", "value", "seed", "algorithm", "energy_joules",
            "delay_seconds",
        ]
        assert {r[0] for r in rows[1:]} == {"users"}
        assert {r[3] for r in rows[1:]} <= {"ucwt", "doa", "ema"}
        # ucwt rows must exist for every (value, seed) cell
        cells = {(r[1], r[2]) for r in rows[1:] if r[3] == "ucwt"}
        assert len(cells) == 4

    def test_sampled_backhaul_is_deterministic(self, runner, tmp_path):
        args = [
            "compare-algorithms", "--seeds", "1", "--grid", "4",
            "--sample-backhaul", "--samples", "50",
        ]
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            result = runner.invoke(main, args + ["--out", str(out)])
            assert result.exit_code == 0
            outs.append(read_csv(str(out)))
        assert outs[0] == outs[1]
        assert outs[0][0][-1] == "sampled_delay_seconds"

    @pytest.mark.parametrize("grid", ["nan", "inf", "2.5", "0"])
    def test_bad_user_count_exits_2(self, runner, tmp_path, grid):
        result = runner.invoke(
            main,
            ["compare-algorithms", "--seeds", "1", "--grid", grid,
             "--out", str(tmp_path / "o.csv")],
        )
        assert result.exit_code == 2
        assert "user counts must be positive integers" in result.output

    @pytest.mark.parametrize("sweep, grid, message", [
        ("users", "4,5,0", "user counts must be positive integers"),
        ("capacity", "0.1,1.5", "capacity fractions must lie in [0, 1]"),
    ])
    def test_bad_grid_value_exits_2_before_any_solve(
        self, runner, tmp_path, monkeypatch, sweep, grid, message
    ):
        # the bad value comes after good ones, and no solver runs for those
        solves = []
        run = cli._run

        def counted(*args, **kwargs):
            solves.append(args[0])
            return run(*args, **kwargs)

        monkeypatch.setattr(cli, "_run", counted)
        out = tmp_path / "o.csv"
        result = runner.invoke(
            main,
            ["compare-algorithms", "--seeds", "2", "--sweep", sweep, "--grid", grid,
             "--out", str(out)],
        )
        assert result.exit_code == 2
        assert message in result.output
        assert solves == []
        assert not out.exists()

    def test_solver_fault_exits_4(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(benders, "_min_power", raise_solver_fault)
        result = runner.invoke(
            main,
            ["compare-algorithms", "--seeds", "1", "--grid", "4",
             "--out", str(tmp_path / "o.csv")],
        )
        assert_solver_fault(result)

    def test_repair_failure_writes_empty_row(self, runner, tmp_path, monkeypatch):
        def give_up(*args):
            raise baselines.RepairFailedError("doa: repair found no feasible association")

        monkeypatch.setattr(baselines, "doa", give_up)
        out = tmp_path / "o.csv"
        result = runner.invoke(
            main,
            ["compare-algorithms", "--seeds", "1", "--grid", "4",
             "--sample-backhaul", "--samples", "10", "--out", str(out)],
        )
        assert result.exit_code == 0
        rows = {r[3]: r for r in read_csv(str(out))[1:]}
        assert sorted(rows) == ["doa", "ema", "ucwt"]
        assert rows["doa"] == ["users", "4", "0", "doa", "", "", ""]
        assert all(cell != "" for cell in rows["ucwt"])

    def test_sampled_backhaul_matches_the_per_miss_loop(self):
        def per_miss_loop(inst, cache, assoc, rng, samples):
            s = inst.scenario
            files = inst.demands.requested_file
            assigned = assoc.assigned_sbs
            base = total_transmission_time(s, inst.demands)
            total = 0.0
            for _ in range(samples):
                draw = base
                for i in range(s.user_count):
                    j = int(assigned[i])
                    if not cache.y[j, int(files[i])]:
                        draw += float(rng.exponential(s.backhaul_mean[j]))
                total += draw
            return total / samples

        checked = set()
        for fraction in (0.0, 0.25, 1.0):
            for seed in range(3):
                inst = scn.generate(scn.desk_scale(cache_fraction=fraction), seed)
                _, cache = cli._pipeline(inst)
                s = inst.scenario
                for j in range(s.sbs_count):
                    assoc = Association.from_assignment(
                        (np.arange(s.user_count) + j) % s.sbs_count, s.sbs_count)
                    rngs = [np.random.default_rng((seed, j)) for _ in range(2)]
                    want = per_miss_loop(inst, cache, assoc, rngs[0], 200)
                    got = cli.sampled_backhaul_delay(inst, cache, assoc, rngs[1], 200)
                    assert got.hex() == want.hex()
                    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
                    fresh = np.random.default_rng((seed, j)).bit_generator.state
                    checked.add(rngs[1].bit_generator.state == fresh)
        # some associations miss nothing and draw nothing, the others draw
        assert checked == {True, False}

    def test_unconverged_ucwt_writes_empty_row(self, runner, tmp_path, monkeypatch):
        unconverged_ucwt(monkeypatch)
        out = tmp_path / "o.csv"
        result = runner.invoke(
            main,
            ["compare-algorithms", "--seeds", "1", "--grid", "4",
             "--sample-backhaul", "--samples", "10", "--out", str(out)],
        )
        assert result.exit_code == 0
        rows = {r[3]: r for r in read_csv(str(out))[1:]}
        assert rows["ucwt"] == ["users", "4", "0", "ucwt", "", "", ""]
        assert all(cell != "" for cell in rows["ema"])


class TestFailureTaxonomy:
    def test_solver_fault_is_not_a_model_error(self):
        assert not issubclass(benders.SolverFault, ModelError)

    @pytest.mark.parametrize("command", [
        ["solve"],
        ["sweep-alpha", "--algorithm", "ucwt", "--grid", "0.5"],
        ["compare-caching", "--seeds", "1", "--capacity-grid", "0.5"],
        ["compare-algorithms", "--seeds", "1", "--grid", "4"],
    ], ids=lambda command: command[0])
    def test_stray_model_error_exits_4(self, runner, tmp_path, monkeypatch, command):
        # a model error that no command expects is a fault, not infeasibility
        def stray(*args, master=None):
            raise ModelError("cut list shrank from 3 to 2 cuts")

        monkeypatch.setattr(benders, "ucwt", stray)
        out = tmp_path / "o.csv"
        result = runner.invoke(main, command + ["--out", str(out)])
        assert result.exit_code == 4
        assert isinstance(result.exception, SystemExit)
        assert "solver fault: cut list shrank from 3 to 2 cuts" in result.output
        assert "infeasible" not in result.output
        assert "Traceback" not in result.output
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["generate", "--out", "MISSING"],
        ["solve", "--out", "MISSING"],
        ["sweep-alpha", "--grid", "0.5", "--out", "MISSING"],
        ["compare-caching", "--seeds", "1", "--capacity-grid", "0.5", "--out", "MISSING"],
        ["compare-algorithms", "--seeds", "1", "--grid", "4", "--out", "MISSING"],
        ["solve", "--out", "OUT", "--trace-out", "MISSING"],
    ], ids=lambda args: args[0] + "-" + args[-2][2:])
    def test_unwritable_output_exits_2(self, runner, tmp_path, args):
        # an output path under a missing directory is a usage error that
        # names the path, not a traceback with the non-convergence code
        missing = str(tmp_path / "missing" / "o.csv")
        paths = {"MISSING": missing, "OUT": str(tmp_path / "o.csv")}
        result = runner.invoke(main, [paths.get(a, a) for a in args])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert f"cannot write {missing}" in result.output
        assert "Traceback" not in result.output

    def test_unwritable_trace_leaves_no_output(self, runner, tmp_path):
        # the result CSV is written first; an unwritable trace path is a
        # usage error, and a usage error leaves no output file behind
        out = tmp_path / "ok.csv"
        missing = str(tmp_path / "missing" / "t.csv")
        result = runner.invoke(
            main, ["solve", "--seed", "0", "--out", str(out), "--trace-out", missing]
        )
        assert result.exit_code == 2
        assert f"cannot write {missing}" in result.output
        assert not out.exists()
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("args", [
        ["generate", "--seed", "-1"],
        ["solve", "--seed", "-1"],
        ["sweep-alpha", "--seed", "-1"],
        ["sweep-alpha", "--replications", "0"],
        ["compare-caching", "--seed", "-1"],
        ["compare-caching", "--seeds", "0"],
        ["compare-algorithms", "--seed", "-1"],
        ["compare-algorithms", "--seeds", "0"],
        ["compare-algorithms", "--samples", "0"],
    ], ids=" ".join)
    def test_out_of_range_count_or_seed_exits_2(self, runner, tmp_path, args):
        # a negative seed is a usage error, not a numpy traceback with the
        # non-convergence code
        out = tmp_path / "o.csv"
        result = runner.invoke(main, args + ["--out", str(out)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert f"Invalid value for '{args[1]}'" in result.output
        assert "Traceback" not in result.output
        assert not out.exists()


# SHA-256 over each command's arguments, exit code, stdout and stderr, then
# the name and bytes of every file it writes, in command order
CLI_DIGEST = "303ea754a7543a151e8c856d9ff86e14cddec0f0889a7e8854e28d89f77f519d"

DIGEST_COMMANDS = [
    *(["solve", "--seed", str(seed), "--algorithm", algorithm,
       "--out", f"solve-{seed}-{algorithm}.csv"]
      for seed in (0, 1) for algorithm in ("ucwt", "oracle", "doa", "ema")),
    *(["sweep-alpha", "--algorithm", algorithm, "--replications", "2",
       "--out", f"sweep-{algorithm}.csv"] for algorithm in ("ucwt", "oracle")),
    ["compare-caching", "--seeds", "2", "--out", "caching.csv"],
    ["compare-algorithms", "--seeds", "2", "--sample-backhaul", "--samples", "20",
     "--out", "sampled.csv"],
    ["compare-algorithms", "--seeds", "2", "--sweep", "capacity",
     "--out", "capacity.csv"],
    ["generate", "--seed", "0", "--out", "inst.txt"],
]


def cli_fingerprint(runner):
    """The digest of ``DIGEST_COMMANDS``, run in an empty directory.

    Every output name is relative, so no temporary path enters the digest.
    """
    digest = hashlib.sha256()
    with runner.isolated_filesystem():
        for args in DIGEST_COMMANDS:
            before = set(os.listdir("."))
            result = runner.invoke(main, args)
            digest.update(repr(
                (args, result.exit_code, result.stdout, result.stderr)).encode())
            for name in sorted(set(os.listdir(".")) - before):
                with open(name, "rb") as fh:
                    digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def test_cli_outputs_are_pinned(runner):
    """Every CSV, trace, instance file, output line and exit code, bit for bit.

    The digest was recorded before the commands shared one run path and one
    exit table. A change that moves a command's output on purpose
    re-records it and says why.
    """
    assert cli_fingerprint(runner) == CLI_DIGEST
