import json
import math
import os
import warnings

import pytest

from ellrank.cli import main


def test_ap_writes_and_reuses_cache(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["--out", out, "--set", "p_max=100", "ap"]) == 0
    first = open(os.path.join(out, "ap_11a.csv"), "rb").read()
    assert first.decode().splitlines()[0] == "p,kind,ap"
    assert len(first.decode().strip().splitlines()) == 26  # header + 25 primes
    # the file does not name the curve, so it is never reused: a curve
    # relabelled 11a (15a, with a_2 = -1) gets its own table
    assert main(["--out", out, "--set", "p_max=50", "--set", "curve1.ainvs=1,1,1,-10,-10",
                 "--set", "curve1.conductor=15", "ap"]) == 0
    rows = open(os.path.join(out, "ap_11a.csv")).read().splitlines()
    assert rows[1] == "2,good,-1" and len(rows) == 16  # header + 15 primes
    # a truncated file is overwritten, not read
    with open(os.path.join(out, "ap_11a.csv"), "w") as fh:
        fh.write("p,kind,ap\n3,go")
    assert main(["--out", out, "--set", "p_max=100", "ap"]) == 0
    assert open(os.path.join(out, "ap_11a.csv"), "rb").read() == first


def test_ap_csv_content(tmp_path):
    out = str(tmp_path)
    main(["--out", out, "--set", "p_max=12", "ap"])
    rows = open(os.path.join(out, "ap_11a.csv")).read().strip().splitlines()
    assert rows[1] == "2,good,-2"
    assert rows[-1] == "11,split-multiplicative,1"


def test_ap_one_label_for_two_curves(tmp_path, capsys):
    # the same model twice is one table and one line
    out = str(tmp_path / "same")
    assert main(["--out", out, "--set", "p_max=200", "--set", "curve2.label=11a",
                 "--set", "curve2.ainvs=0,-1,1,-10,-20", "--set", "curve2.conductor=11",
                 "ap"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{os.path.join(out, 'ap_11a.csv')}: wrote 46 rows"]
    assert os.listdir(out) == ["ap_11a.csv"]
    # two models under one label: a usage error that names it, no file
    out = str(tmp_path / "clash")
    assert main(["--out", out, "--set", "p_max=200", "--set", "curve2.label=11a", "ap"]) == 2
    assert "'11a'" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_verify_only_and_report(tmp_path, capsys):
    out = str(tmp_path)
    rc = main(["--out", out, "--only", "epstein_residue", "verify"])
    assert rc == 0
    rep = json.load(open(os.path.join(out, "report.json")))
    assert rep["all_passed"] is True
    assert [r["name"] for r in rep["checks"]] == ["epstein_residue"]
    rec = rep["checks"][0]
    assert set(rec) >= {"name", "lhs", "rhs", "diff", "lhs_err", "rhs_err", "tolerance", "passed",
                        "pipelines"}
    assert os.path.exists(os.path.join(out, "timing.json"))
    capsys.readouterr()
    assert main(["--out", out, "report"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_lvalue_rows(tmp_path, capsys):
    assert main(["lvalue", "-s", "2.0"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "pipeline,s,value,error"
    assert len(out) == 3
    assert out[1].startswith("direct-series,2,")
    assert out[2].startswith("afe,2,")
    # the two rows agree at the direct pipeline's accuracy
    v1 = float(out[1].split(",")[2])
    v2 = float(out[2].split(",")[2])
    assert abs(v1 - v2) < 1e-3 * abs(v2)


def test_lvalue_at_the_direct_series_edge(capsys):
    # s = 1.3 is the first s with a finite direct-series tail bound: both
    # pipelines give a row, and the AFE value lies within the direct bound
    assert main(["lvalue", "-s", "1.3"]) == 0
    rows = {line.split(",")[0]: line.split(",")
            for line in capsys.readouterr().out.strip().splitlines()[1:]}
    assert set(rows) == {"direct-series", "afe"}
    direct, err = float(rows["direct-series"][2]), float(rows["direct-series"][3])
    assert abs(float(rows["afe"][2]) - direct) <= err


def test_lvalue_pole_warning(capsys):
    # isogenous pair at s = 1: pole notice, exit 0
    rc = main(["--set", "curve2.label=11a", "--set", "curve2.ainvs=0,-1,1,-10,-20",
               "--set", "curve2.conductor=11", "lvalue", "-s", "1.0"])
    assert rc == 0
    assert "pole" in capsys.readouterr().out


def test_petersson_command(capsys):
    rc = main(["--set", "curve2.label=11a", "--set", "curve2.ainvs=0,-1,1,-10,-20",
               "--set", "curve2.conductor=11", "--set", "depth=1", "petersson"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "0.0039" in out


def test_eisenstein_command(capsys):
    rc = main(["eisenstein", "--z", "0.0,1.0", "-s", "2.0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "6.02681" in out
    # 1e19 is an integer in double precision, so 1e19 + i is the point i
    assert main(["eisenstein", "--z", "1e19,1", "-s", "2.0"]) == 0
    assert capsys.readouterr().out == out
    # a tall point below the lattice sum's vector cap prints both rows,
    # E = pi^2 E* at s = 2
    assert main(["eisenstein", "--z", "0,1e10", "-s", "2.0"]) == 0
    star, lat = (float(line.split("=")[1].split("+-")[0])
                 for line in capsys.readouterr().out.splitlines())
    assert abs(lat / (math.pi**2 * star) - 1.0) < 1e-10


def test_eisenstein_bad_input_exits_2(capsys):
    # one line each, and no numpy warning: below y = sqrt(tiny) the
    # reduction's |z|^2 can underflow, so that --z is refused too
    for argv, msg in ((["--z", "0,-1"], "upper half-plane"),
                      (["--z", "1,2,3"], "x,y"),
                      (["--z", "0.1,abc"], "x,y"),
                      (["--z", "0,1e-300"], "--z '0,1e-300' is too deep"),
                      # too tall at the reduced point: the lattice sum's
                      # vector cap, and y^s of E* past a double
                      (["--z", "0,1e20"], "--z '0,1e20' is too tall"),
                      (["--z", "0,1e-150", "-s", "2.5"], "--z '0,1e-150' is too tall"),
                      (["-s", "1"], "poles"),
                      (["-s", "nan"], "finite")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["eisenstein", *argv]) == 2, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and msg in err[0], argv


def test_eisenstein_deep_point(capsys):
    # the lattice sum runs at the SL2(Z)-reduced point, so a point at
    # height 1e-40 costs what its image in F costs; E = pi^2 E* at s = 2
    assert main(["eisenstein", "--z", "0.1,1e-40", "-s", "2"]) == 0
    star, lat = (float(line.split("=")[1].split("+-")[0])
                 for line in capsys.readouterr().out.splitlines())
    assert abs(lat / (math.pi**2 * star) - 1.0) < 1e-10


def test_usage_errors(tmp_path):
    assert main(["--set", "nonsense", "ap"]) == 2
    assert main(["--only", "not_a_check", "verify"]) == 2
    assert main(["--out", str(tmp_path), "report"]) == 2
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this line has no equals sign\n")
    assert main(["--config", str(cfg), "ap"]) == 2
    assert main(["--config", str(tmp_path / "missing.cfg"), "ap"]) == 2
    # a report without record status (written before status existed)
    (tmp_path / "report.json").write_text(json.dumps(
        {"checks": [{"name": "ap", "diff": 0.0, "tolerance": 0.5, "passed": True}],
         "all_passed": True}))
    assert main(["--out", str(tmp_path), "report"]) == 2
    # s outside [-0.5, 25], where no pipeline gives L(s)
    for s in ("-1", "nan", "26"):
        assert main(["lvalue", "-s", s]) == 2, s
    # verify has no --json-indent: argparse refuses it
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--json-indent", "2"])
    assert exc.value.code == 2


def test_verify_ap_check_uses_p_max(tmp_path, monkeypatch):
    import ellrank.curves

    seen = []
    real = ellrank.curves.ap_table

    def recording(curve, p_max, **kw):
        seen.append(p_max)
        return real(curve, p_max, **kw)

    monkeypatch.setattr(ellrank.curves, "ap_table", recording)
    rc = main(["--out", str(tmp_path), "--only", "ap", "--set", "p_max=200", "verify"])
    assert rc == 0
    assert seen == [200, 200]


def test_ap_record_counts_the_primes_it_compared(tmp_path, monkeypatch):
    import types

    import ellrank.curves

    def read_ap():
        rep = json.load(open(os.path.join(tmp_path, "report.json")))
        (rec,) = rep["checks"]
        return rec

    argv = ["--out", str(tmp_path), "--only", "ap", "--set", "p_max=200", "verify"]
    assert main(argv) == 0
    rec = read_ap()
    assert rec["status"] == "pass"
    assert rec["extra"]["primes_checked"] == 2 * 46       # 46 primes <= 200, two curves
    assert rec["extra"]["primes_failed"] == 0
    # one a_p past the Hasse bound on each curve: two failures
    real = ellrank.curves.ap_table

    def broken(curve, p_max):
        table = dict(real(curve, p_max))
        table[199] = types.SimpleNamespace(prime=199, kind="good", ap=29)
        return table

    monkeypatch.setattr(ellrank.curves, "ap_table", broken)
    assert main(argv) == 1
    rec = read_ap()
    assert rec["status"] == "fail"
    assert (rec["extra"]["primes_checked"], rec["extra"]["primes_failed"]) == (92, 2)


_ISOGENOUS_PAIR = ["--set", "curve2.label=11a", "--set", "curve2.ainvs=0,-1,1,-10,-20",
                   "--set", "curve2.conductor=11"]


def test_skipped_check_is_reported_as_skip(tmp_path, capsys):
    # the triple product is over non-isogenous curves: with 11a/11a it is
    # skipped, which is neither a pass nor a failure
    out = str(tmp_path)
    rc = main(["--out", out, *_ISOGENOUS_PAIR, "--only", "triple_product", "verify"])
    assert rc == 0
    rep = json.load(open(os.path.join(out, "report.json")))
    (rec,) = rep["checks"]
    assert rec["status"] == "skip" and rec["passed"] is False
    assert "SKIP: triple_product" in capsys.readouterr().out
    assert main(["--out", out, "report"]) == 0
    assert "SKIP" in capsys.readouterr().out


def test_bad_number_exits_2(capsys):
    for setting, message in (("depth=abc", "depth = 'abc' is not a number"),
                             ("depth=-1", "depth = '-1' is below 0"),
                             ("depth=5", "depth = '5' is above 4"),
                             ("n_max=1", "n_max = '1' is below 2"),
                             ("p_max=1", "p_max = '1' is below 2")):
        assert main(["--set", setting, "verify"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_short_n_max_exits_2(capsys):
    # the form commands need the q-series length at the lowest height a form
    # is evaluated at, sqrt(3)/(2L) for the larger level L (14 here)
    from ellrank.modular import FORM_TOL, series_length

    need = series_length(math.sqrt(3.0) / 28, FORM_TOL)
    for n_max, command in (("40", "verify"), ("2", "petersson")):
        assert main(["--set", f"n_max={n_max}", command]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: n_max = '{n_max}' is below {need},")


def test_non_squarefree_conductor_exits_2(capsys):
    rc = main(["--set", "curve2.label=36a", "--set", "curve2.ainvs=0,0,0,0,1",
               "--set", "curve2.conductor=36", "verify"])
    assert rc == 2
    assert "conductor 36 is not square-free" in capsys.readouterr().err


def test_ainvs_not_matching_conductor_exits_2(capsys):
    rc = main(["--set", "curve1.ainvs=0,-1,1,-10,-21", "petersson"])
    assert rc == 2
    assert "do not have conductor 11" in capsys.readouterr().err


def test_full_verify_sweeps_each_grid_once(tmp_path, monkeypatch):
    import ellrank.domain
    import ellrank.lseries

    swept = []
    real = ellrank.domain.sweep_pair_family

    def counting(fe, ge, N, grid, **kw):
        swept.append((fe.level, ge.level, N, grid.depth))
        return real(fe, ge, N, grid, **kw)

    residues = []
    real_residue = ellrank.lseries.residue_at_1

    def counting_residue(rs):
        residues.append(rs.N)
        return real_residue(rs)

    monkeypatch.setattr(ellrank.domain, "sweep_pair_family", counting)
    monkeypatch.setattr(ellrank.lseries, "residue_at_1", counting_residue)
    out = str(tmp_path)
    assert main(["--out", out, "--set", "depth=1", "verify"]) == 0
    rep = json.load(open(os.path.join(out, "report.json")))
    assert [r["name"] for r in rep["checks"]] == [
        "ap", "unfolding", "epstein", "epstein_residue", "kronecker",
        "rankin_selberg", "rankin_selberg_isogenous", "residue_law", "orthogonality",
        "cnf_a_vs_b", "cnf_c_ratio", "cnf_nonvanishing", "pole_orders", "sym2",
        "modular_degree_curve1", "modular_degree_curve2", "triple_product"]
    assert all(r["status"] == "pass" for r in rep["checks"])
    assert len(swept) == len(set(swept)) == 2
    # residue_law, pole_orders and sym2 read one (f, f) residue
    assert residues == [11]
    timing = json.load(open(os.path.join(out, "timing.json")))
    assert list(timing) == [
        "ap", "unfolding", "epstein", "epstein_residue", "kronecker", "sweep_pair_family",
        "rankin_selberg", "residue_law", "orthogonality", "class_number_formula",
        "pole_orders", "sym2", "modular_degree", "triple_product"]


def test_benchmark_tracer_still_binds():
    # the benchmark wraps package layers by rebinding module names; run in a
    # subprocess because installing the wrappers changes the package
    import subprocess
    import sys
    import textwrap
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    code = textwrap.dedent("""
        import contextlib, io, sys, tempfile
        import tracer, worker
        from ellrank import cli
        tracer.install(tracer.Tracer())
        probe = {"primes": 0, "seconds": 0.0}
        worker._ap_probe(probe)
        with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["--out", out, "--only", "ap", "--set", "p_max=100",
                           "--set", "n_max=100", "verify"])
        assert rc == 0, rc
        # 25 primes up to 100 per curve, tabulated for each form and again
        # by the ap check: the probe must see all four tables
        assert probe["primes"] == 100 and probe["seconds"] > 0, probe
    """)
    paths = [str(root / "perfbench"), str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_tracer_reads_the_arguments_it_counts():
    # the benchmark's counters bind the arguments of petersson (fe, ge, N,
    # grid), RankinSeries.build (fe, ge, k_max) and afe_weight (rs, sigma,
    # T) by name: a renamed argument must fail here, not in a traced run
    import subprocess
    import sys
    import textwrap
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    code = textwrap.dedent("""
        import contextlib, io
        import tracer
        from ellrank import cli
        tr = tracer.Tracer()
        tracer.install(tr)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["--set", "depth=0", "petersson"]) == 0
            assert cli.main(["lvalue", "-s", "1.5"]) == 0
        # the AFE sums no longer go through afe_weight: call it as a client would
        from ellrank import checks, lseries
        lseries.afe_weight(checks.RunContext(dict(cli.DEFAULT_CONFIG)).rs, 0.5, 1.0)
        for key in ("domain.petersson.calls", "domain.sweep_pair_family.calls",
                    "lseries.RankinSeries.build.calls", "lseries.afe_weight.calls"):
            assert tr.counters.get(key, 0) >= 1, (key, tr.counters)
    """)
    paths = [str(root / "perfbench"), str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_verify_with_short_coefficient_tables(tmp_path, capsys):
    # n_max=100 gives 101-entry tables: unfolding sums the 100 terms both
    # tables have, and the run ends in its report (exit 1: the isogenous
    # Rankin-Selberg series fails on its 100-term tail), not a traceback
    out = str(tmp_path)
    assert main(["--out", out, "--set", "n_max=100", "--set", "depth=0", "verify"]) == 1
    recs = {r["name"]: r for r in json.load(open(os.path.join(out, "report.json")))["checks"]}
    assert recs["unfolding"]["status"] == "pass"
    assert recs["rankin_selberg_isogenous"]["status"] == "fail"
    for name in ("cnf_a_vs_b", "pole_orders", "triple_product"):
        assert recs[name]["status"] == "skip" and "too small" in recs[name]["extra"]["skipped"]


def test_benchmark_qlog_counters_read_the_deep_mask():
    # the benchmark counts the cyclotomic kernel's points from args[0] and its
    # eta-fallback points from result[1]; a cnf sweep at N = 154, depth 0, runs
    # the family route and never calls the kernel, so the sweep leaves no
    # kernel counter, and the kernel called directly on the sweep's cusp
    # classes (no node on the fallback) and on one deep point is counted
    import subprocess
    import sys
    import textwrap
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    code = textwrap.dedent("""
        import math
        import numpy as np
        import tracer
        from ellrank import curves, domain, halfplane, modular
        tr = tracer.Tracer()
        tracer.install(tr)
        fe, ge = (modular.CuspFormEval.from_curve(curves.curve_by_label(c), 1000)
                  for c in ("11a", "14a"))
        N = 154
        grid = domain.build_grid(N, depth=0)
        domain.sweep_pair_family(fe, ge, N, grid, want_cnf=True)
        layer = "modular.cyclotomic_qlog_sum_array"
        assert f"{layer}.points" not in tr.counters, tr.counters
        assert tr.counters["domain.sweep_pair_family.nodes"] == len(grid.xs) * len(grid.reps)
        classes = {halfplane.hermite(N // math.gcd(r.c, N), r.a, r.b, r.c, r.d)
                   for r in grid.reps}
        for alpha, beta, delta in classes:
            modular.cyclotomic_qlog_sum_array((alpha * grid.xs + beta) / delta,
                                              alpha * grid.ys / delta, N)
        assert tr.counters[f"{layer}.points"] == len(grid.xs) * len(classes), tr.counters
        assert tr.counters[f"{layer}.deep_points"] == 0, tr.counters
        modular.cyclotomic_qlog_sum_array(np.array([0.1, 0.2]), np.array([1e-3, 1.0]), N)
        assert tr.counters[f"{layer}.points"] == len(grid.xs) * len(classes) + 2, tr.counters
        assert tr.counters[f"{layer}.deep_points"] == 1, tr.counters
    """)
    paths = [str(root / "perfbench"), str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


_CURVES = {"11a": "0,-1,1,-10,-20", "14a": "1,0,1,4,-6", "15a": "1,1,1,-10,-10"}


def _pair(a, b):
    return ["--set", f"curve1.label={a}", "--set", f"curve1.ainvs={_CURVES[a]}",
            "--set", f"curve1.conductor={a[:2]}",
            "--set", f"curve2.label={b}", "--set", f"curve2.ainvs={_CURVES[b]}",
            "--set", f"curve2.conductor={b[:2]}"]


def test_lvalue_loop_tabulates_each_curve_once(monkeypatch, capsys):
    # 24 lvalue calls in one interpreter over N = 154, 165, 210, a third
    # of them repeats: each curve's a_p are tabulated once
    import ellrank.modular

    tabulated = []
    real = ellrank.modular.ap_table

    def counting(curve, p_max):
        tabulated.append((curve.ainvs, p_max))
        return real(curve, p_max)

    monkeypatch.setattr(ellrank.modular, "_FORM_CACHE", {})
    monkeypatch.setattr(ellrank.modular, "ap_table", counting)
    pairs = [("11a", "14a"), ("11a", "15a"), ("14a", "15a")]
    s_values = [-0.35, 0.2, 0.45, 0.8, 1.35, 2.1, 0.2, 1.35]
    for i in range(24):
        assert main(_pair(*pairs[i % 3]) + ["lvalue", "-s", str(s_values[i % 8])]) == 0
    assert "afe," in capsys.readouterr().out
    assert sorted(tabulated) == sorted((tuple(int(t) for t in _CURVES[c].split(",")), 4200)
                                       for c in _CURVES)


def test_lvalue_loop_computes_each_afe_kernel_once(monkeypatch, capsys):
    # 24 lvalue calls at the default split (T = 1) over N = 154, 165, 210:
    # one Rankin series and one 48 x 180 AFE kernel per level
    from ellrank import lseries

    kernels = []
    real = lseries.xk1_fast

    def counting(x):
        kernels.append(x.shape)
        return real(x)

    for name in ("_SERIES_CACHE", "_AFE_ROWS"):
        monkeypatch.setattr(lseries, name, {})
    monkeypatch.setattr(lseries, "xk1_fast", counting)
    pairs = [("11a", "14a"), ("11a", "15a"), ("14a", "15a")]
    s_values = [-0.35, 0.2, 0.45, 0.8, 1.35, 2.1, 0.2, 1.35]
    for i in range(24):
        assert main(_pair(*pairs[i % 3]) + ["lvalue", "-s", str(s_values[i % 8])]) == 0
    assert "afe," in capsys.readouterr().out
    assert kernels == [(lseries._W_NODES, 180)] * 3
    assert sorted(key[:3] for key in lseries._AFE_ROWS) == [(154, 4200, 1.0), (165, 4200, 1.0),
                                                          (210, 4200, 1.0)]
    assert sorted(rs.N for rs in lseries._SERIES_CACHE.values()) == [154, 165, 210]


def test_triple_product_on_14a_15a(tmp_path, monkeypatch):
    # the third curve is the first built-in one whose level is coprime to
    # 14 and 15 (11a); the check runs no sweep
    import ellrank.curves
    import ellrank.domain

    swept = []
    monkeypatch.setattr(ellrank.domain, "sweep_pair_family", lambda *a, **kw: swept.append(a))
    full = ellrank.curves._REGISTRY
    with_37a = ["--set", "curve2.label=37a", "--set", "curve2.ainvs=0,0,1,-1,0",
                "--set", "curve2.conductor=37"]
    for i, (pair, registry, status, reason) in enumerate((
            (_pair("14a", "15a"), full, "pass", None),
            (_pair("14a", "15a"), {k: full[k] for k in ("14a", "15a")}, "skip", "no built-in curve"),
            # 11a/37a: the AFE covers level 407 at the default n_max, but the
            # third curve (14a) makes the (37a, 14a) level 518, where it does not
            (with_37a, full, "skip", "k_max=4200 too small for the AFE tail"))):
        monkeypatch.setattr(ellrank.curves, "_REGISTRY", registry)
        out = str(tmp_path / str(i))
        assert main(["--out", out, *pair, "--only", "triple_product", "verify"]) == 0
        (rec,) = json.load(open(os.path.join(out, "report.json")))["checks"]
        assert rec["status"] == status
        assert reason is None or rec["extra"]["skipped"].startswith(reason)
    assert swept == []
    assert rec["extra"]["skipped"].endswith("at level 518")


def test_lvalue_non_coprime_levels_exit_2(capsys):
    # 14a and 21a share the level factor 7 and are not isogenous
    rc = main(["--set", "curve1.label=14a", "--set", "curve1.ainvs=1,0,1,4,-6",
               "--set", "curve1.conductor=14", "--set", "curve2.label=21a",
               "--set", "curve2.ainvs=1,0,0,-4,-1", "--set", "curve2.conductor=21",
               "lvalue", "-s", "0.5"])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "levels 14 and 21" in err[0]


def test_conductor_with_wrong_exponents_exits_2(tmp_path, capsys):
    # the right primes, the wrong exponents: 11a at 121 (multiplicative at
    # 11) and 36a at 6 (additive at 2 and 3)
    out = str(tmp_path)
    assert main(["--out", out, "--set", "curve1.conductor=121", "ap"]) == 2
    assert "do not have conductor 121" in capsys.readouterr().err
    assert main(["--out", out, "--set", "curve2.label=36a", "--set", "curve2.ainvs=0,0,0,0,1",
                 "--set", "curve2.conductor=6", "verify"]) == 2
    assert "do not have conductor 6" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_p_max_past_the_counting_bound_exits_2(tmp_path, capsys, monkeypatch):
    # 1000001 only: a huge p_max would make the sieve allocate, and the
    # bound is checked before any sieve is built
    import ellrank.curves

    monkeypatch.setattr(ellrank.curves, "primes_up_to", lambda n: pytest.fail("sieve built"))
    assert main(["--out", str(tmp_path), "--set", "p_max=1000001", "ap"]) == 2
    assert capsys.readouterr().err == "error: p_max = '1000001' is above 1000000\n"


def test_ap_tables_ignore_hash_randomization(tmp_path):
    # the BSGS draws come from an integer hash of (p, draw), so the tables
    # are the same bytes under any PYTHONHASHSEED
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    code = "import sys\nfrom ellrank.cli import main\nsys.exit(main(sys.argv[1:]))"
    tables = []
    for seed in ("1", "2"):
        out = tmp_path / seed
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        subprocess.run([sys.executable, "-c", code, "--out", str(out), "--set", "p_max=20000",
                        "ap"], env=env, check=True, capture_output=True, timeout=300)
        tables.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert list(tables[0]) == ["ap_11a.csv", "ap_14a.csv"]
    assert tables[0] == tables[1]


def test_conductor_with_large_wrong_prime_exits_2(tmp_path, capsys):
    # 11 * 1009: 1009 is above the counted range and does not divide the
    # discriminant of 11a's model
    rc = main(["--out", str(tmp_path), "--set", "curve1.conductor=11099", "verify"])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "do not have conductor 11099" in err[0]


def test_unknown_config_key_exits_2(tmp_path, capsys):
    # a key nothing reads is refused rather than silently ignored
    assert main(["--set", "manin_c2=3", "ap"]) == 2
    assert capsys.readouterr().err.startswith("error: unknown config key(s) manin_c2")
    # the grid's cusp cut is no config key
    assert main(["--set", "y_cut=12", "verify"]) == 2
    assert capsys.readouterr().err.startswith("error: unknown config key(s) y_cut")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("deg_phi2 = 5\n")
    assert main(["--config", str(cfg), "eisenstein"]) == 2
    assert "deg_phi2" in capsys.readouterr().err


def test_afe_checks_skip_levels_sharing_a_factor(tmp_path, capsys):
    # 15a and 30a share the level factor 15 and are not isogenous: the AFE
    # gives no Phi there, so the checks built on it are skipped with the reason
    pair = ["--set", "depth=1", "--set", "curve1.label=15a",
            "--set", "curve1.ainvs=1,1,1,-10,-10", "--set", "curve1.conductor=15",
            "--set", "curve2.label=30a", "--set", "curve2.ainvs=1,0,1,1,2",
            "--set", "curve2.conductor=30"]
    for only, names in (("class_number_formula", ["cnf_a_vs_b", "cnf_c_ratio", "cnf_nonvanishing"]),
                        ("pole_orders", ["pole_orders"]), ("triple_product", ["triple_product"])):
        out = str(tmp_path / only)
        rc = main(["--out", out, *pair, "--only", only, "verify"])
        captured = capsys.readouterr()
        assert rc == 0, only
        assert "Traceback" not in captured.err
        assert f"SKIP: {names[0]}" in captured.out
        rep = json.load(open(os.path.join(out, "report.json")))
        assert [r["name"] for r in rep["checks"]] == names
        for rec in rep["checks"]:
            assert rec["status"] == "skip" and rec["passed"] is False
            assert "share the factor 15" in rec["extra"]["skipped"]
        assert main(["--out", out, "report"]) == 0
        assert "SKIP" in capsys.readouterr().out


def test_lvalue_at_0_regulator_row(capsys, monkeypatch):
    # L'_{f,g}(0) = Phi(0) by the AFE against the regulator integral of one
    # depth-1 sweep, whose depth-doubling error covers their difference
    import ellrank.domain

    swept = []
    real = ellrank.domain.sweep_pair_family

    def counting(*args, **kw):
        swept.append(args[2])
        return real(*args, **kw)

    monkeypatch.setattr(ellrank.domain, "sweep_pair_family", counting)
    assert main(["--set", "depth=1", "lvalue", "-s", "0"]) == 0
    assert swept == [154]
    rows = {line.split(",")[0]: line.split(",")
            for line in capsys.readouterr().out.strip().splitlines()[1:]}
    assert set(rows) == {"afe", "regulator"}
    afe, reg, reg_err = float(rows["afe"][2]), float(rows["regulator"][2]), float(rows["regulator"][3])
    assert abs(afe - reg) < 1e-3 * abs(afe)
    assert math.isfinite(reg_err) and abs(afe - reg) <= reg_err


def test_isogenous_pair_skips_orthogonality_and_pole_orders(tmp_path, capsys):
    # on 11a/11a f = g, so (f, g) is the norm and the pair's L(H^2) has the
    # isogenous order: both checks are skipped with the reason
    for only in ("orthogonality", "pole_orders"):
        out = str(tmp_path / only)
        rc = main(["--out", out, "--set", "depth=1", *_pair("11a", "11a"), "--only", only, "verify"])
        captured = capsys.readouterr()
        assert rc == 0, only
        assert f"SKIP: {only}" in captured.out
        rep = json.load(open(os.path.join(out, "report.json")))
        [rec] = rep["checks"]
        assert rec["name"] == only and rec["status"] == "skip" and rec["passed"] is False
        assert "isogenous" in rec["extra"]["skipped"]


def test_repeated_main_calls_share_no_arguments(monkeypatch):
    # the parser is built once per process: a later call must see neither
    # an earlier call's --set items nor its -s in place of a default
    import ellrank.cli as cli

    seen = []
    monkeypatch.setattr(cli, "cmd_ap", lambda cfg: seen.append(cfg["p_max"]) or 0)
    monkeypatch.setattr(cli, "cmd_lvalue", lambda cfg, s: seen.append(s) or 0)
    monkeypatch.setattr(cli, "cmd_eisenstein", lambda cfg, z, s: seen.append((z, s)) or 0)
    assert main(["--set", "p_max=12", "ap"]) == 0
    assert main(["ap"]) == 0
    assert main(["lvalue", "-s", "0.7"]) == 0
    assert main(["eisenstein"]) == 0
    assert seen == ["12", "1000", 0.7, ("0.0,1.0", 2.0)]


def test_lvalue_does_not_import_numpy_ma():
    # numpy.ma is heavy to import (np.unique loads it): one lvalue call
    # in a fresh interpreter must not need it
    import subprocess
    import sys

    import ellrank

    src = os.path.dirname(os.path.dirname(os.path.abspath(ellrank.__file__)))
    code = ("import contextlib, io, sys\n"
            "from ellrank.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['lvalue', '-s', '1.7']) == 0\n"
            "print('numpy.ma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _verify_record(tmp_path, only, name, *settings):
    """exit code and the `name` record of `verify --only only` at depth 1"""
    out = str(tmp_path / only)
    rc = main(["--out", out, "--set", "depth=1", *settings, "--only", only, "verify"])
    recs = {r["name"]: r for r in json.load(open(os.path.join(out, "report.json")))["checks"]}
    return rc, recs[name]


def test_cnf_c_ratio_is_held_to_one_half(tmp_path, monkeypatch):
    # the cyclotomic route scaled by 2/3 gives (c)/(a) = 1/3, a fraction of
    # small denominator, but not the stated 1/2
    import ellrank.domain
    from ellrank.specialfn import EvalResult

    real = ellrank.domain.sweep_pair_family

    def scaled(*args, **kw):
        fam = real(*args, **kw)
        if "cnf" in fam:
            cnf = fam["cnf"]
            fam = dict(fam, cnf=EvalResult(cnf.value * 2.0 / 3.0, cnf.abs_error_bound))
        return fam

    monkeypatch.setattr(ellrank.domain, "sweep_pair_family", scaled)
    rc, rec = _verify_record(tmp_path, "class_number_formula", "cnf_c_ratio")
    assert rc == 1 and rec["status"] == "fail"
    assert rec["rhs"] == 0.5 and abs(rec["lhs"] - 1.0 / 3.0) < 1e-4


def test_sym2_is_held_to_the_stated_ratio(tmp_path, monkeypatch):
    # the (f, f) residue 1% high moves the ratio off sum_{d|11} mu(d)/d = 10/11
    from ellrank import lseries
    from ellrank.specialfn import EvalResult

    real = lseries.residue_at_1

    def scaled(rs):
        res = real(rs)
        r = res["residue"]
        return dict(res, residue=EvalResult(1.01 * r.value, 1.01 * r.abs_error_bound))

    monkeypatch.setattr(lseries, "residue_at_1", scaled)
    rc, rec = _verify_record(tmp_path, "sym2", "sym2")
    assert rc == 1 and rec["status"] == "fail"
    assert rec["rhs"] == 10 / 11 and abs(rec["lhs"] - 1.01 * 10 / 11) < 1e-4


def test_modular_degree_fails_on_an_index_2_lattice(tmp_path, monkeypatch):
    # an index-2 superlattice has half the area, which doubles
    # 4 pi^2 psi(N) (f, f) / area: both degrees read 2 against Cremona's 1
    from ellrank import curves

    real = curves.period_lattice

    def halved(curve):
        lat = real(curve)
        return curves.PeriodLattice(lat.omega1, lat.omega2 / 2.0, lat.area / 2.0)

    monkeypatch.setattr(curves, "period_lattice", halved)
    out = str(tmp_path)
    assert main(["--out", out, "--set", "depth=1", "--only", "modular_degree", "verify"]) == 1
    recs = json.load(open(os.path.join(out, "report.json")))["checks"]
    assert [r["name"] for r in recs] == ["modular_degree_curve1", "modular_degree_curve2"]
    for rec in recs:
        assert rec["status"] == "fail" and rec["rhs"] == 1
        assert abs(rec["diff"] - 1.0) < 1e-3


def test_modular_degree_reads_the_model_not_the_label(tmp_path, capsys):
    # 11a3 and 11a2 under the label 11a have 11a1's form but 5 and 1/5 times
    # its period area (Manin constant 5 for 11a3, degree 5 for 11a2); a
    # label-keyed degree would fail them, so the first record is a skip
    from ellrank.checks import curve_from_config
    from ellrank.cli import DEFAULT_CONFIG
    from ellrank.curves import period_lattice

    def run(name, *settings):
        out = str(tmp_path / name)
        assert main(["--out", out, "--set", "depth=1", *settings, "verify"]) == 0
        return {r["name"]: r for r in json.load(open(os.path.join(out, "report.json")))["checks"]}

    base = run("11a1")
    estimate = base["modular_degree_curve1"]["lhs"] * base["modular_degree_curve1"]["extra"][
        "period_area"]
    for name, ainvs, degree in (("11a3", "0,-1,1,0,0", 0.2), ("11a2", "0,-1,1,-7820,-263580", 5)):
        capsys.readouterr()
        recs = run(name, "--set", f"curve1.ainvs={ainvs}")
        assert "Traceback" not in capsys.readouterr().err
        rec = recs.pop("modular_degree_curve1")
        assert rec["status"] == "skip"
        assert rec["extra"]["skipped"] == (f"11a [{ainvs.replace(',', ', ')}] is not a registry "
                                           "curve, so its modular degree is not known")
        assert recs == {k: r for k, r in base.items() if k != "modular_degree_curve1"}
        curve = curve_from_config(dict(DEFAULT_CONFIG, **{"curve1.ainvs": ainvs}), 1)
        assert abs(estimate / period_lattice(curve).area - degree) < 1e-4 * degree


def test_orders_fail_when_the_pair_vanishes_at_1(tmp_path, monkeypatch):
    # Phi_{f,g}(1) = 0 for 11a/14a: L(H^2) of the pair loses a pole at
    # s = 2, and L(H^4) one at s = 3
    from ellrank import lseries
    from ellrank.specialfn import EvalResult

    real = lseries.afe_eval

    def vanishing(rs, s, split=1.0):
        val = real(rs, s, split)
        if s == 1.0 and (rs.N1, rs.N2) == (11, 14):
            return EvalResult(0.0, val.abs_error_bound)
        return val

    monkeypatch.setattr(lseries, "afe_eval", vanishing)
    rc, rec = _verify_record(tmp_path, "pole_orders", "pole_orders")
    assert rc == 1 and rec["status"] == "fail" and rec["lhs"] == 1.0
    assert rec["extra"]["isogenous"]["nonzero"] and not rec["extra"]["pair"]["nonzero"]
    rc, rec = _verify_record(tmp_path, "triple_product", "triple_product")
    assert rc == 1 and rec["status"] == "fail"
    assert (rec["lhs"], rec["rhs"]) == (-2.0, -3)
    assert rec["extra"]["pairwise_orders"] == [1, 0, 0]
