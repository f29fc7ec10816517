import json
import math
import os

from ellrank.cli import main


def test_ap_writes_and_reuses_cache(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["--out", out, "--set", "p_max=100", "ap"]) == 0
    first = open(os.path.join(out, "ap_11a.csv"), "rb").read()
    assert first.decode().splitlines()[0] == "p,kind,ap"
    assert len(first.decode().strip().splitlines()) == 26  # header + 25 primes
    capsys.readouterr()
    # rerun: identical bytes, cache reused
    assert main(["--out", out, "--set", "p_max=100", "ap"]) == 0
    assert "reusing" in capsys.readouterr().out
    assert open(os.path.join(out, "ap_11a.csv"), "rb").read() == first
    # smaller p_max: cache reused, no recompute
    assert main(["--out", out, "--set", "p_max=50", "ap"]) == 0
    assert "reusing" in capsys.readouterr().out
    assert open(os.path.join(out, "ap_11a.csv"), "rb").read() == first


def test_ap_csv_content(tmp_path):
    out = str(tmp_path)
    main(["--out", out, "--set", "p_max=12", "ap"])
    rows = open(os.path.join(out, "ap_11a.csv")).read().strip().splitlines()
    assert rows[1] == "2,good,-2"
    assert rows[-1] == "11,split-multiplicative,1"


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


def test_verify_json_indent_same_content(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    main(["--out", out1, "--only", "epstein_residue", "verify"])
    main(["--out", out2, "--only", "epstein_residue", "verify", "--json-indent", "2"])
    r1 = json.load(open(os.path.join(out1, "report.json")))
    r2 = json.load(open(os.path.join(out2, "report.json")))
    r1["config"].pop("out"); r2["config"].pop("out")
    assert r1["checks"] == r2["checks"]
    raw1 = open(os.path.join(out1, "report.json")).read()
    raw2 = open(os.path.join(out2, "report.json")).read()
    assert raw1 != raw2          # pretty-printing changed the bytes only


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


def test_eisenstein_bad_input_exits_2(capsys):
    for argv, msg in ((["--z", "0,-1"], "upper half-plane"),
                      (["--z", "1,2,3"], "x,y"),
                      (["--z", "0.1,abc"], "x,y"),
                      (["-s", "1"], "poles"),
                      (["-s", "nan"], "finite")):
        assert main(["eisenstein", *argv]) == 2, argv
        assert msg in capsys.readouterr().err, argv


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
                             ("y_cut=0.5", "y_cut = '0.5' is not a finite number above 1"),
                             ("y_cut=nan", "y_cut = 'nan' is not a finite number above 1"),
                             ("n_max=1", "n_max = '1' is below 2"),
                             ("p_max=1", "p_max = '1' is below 2")):
        assert main(["--set", setting, "verify"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


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

    swept = []
    real = ellrank.domain.sweep_pair_family

    def counting(fe, ge, N, grid, **kw):
        swept.append((fe.level, ge.level, N, grid.depth))
        return real(fe, ge, N, grid, **kw)

    monkeypatch.setattr(ellrank.domain, "sweep_pair_family", counting)
    out = str(tmp_path)
    assert main(["--out", out, "--set", "depth=1", "verify"]) == 0
    rep = json.load(open(os.path.join(out, "report.json")))
    assert [r["name"] for r in rep["checks"]] == [
        "ap", "unfolding", "epstein", "epstein_residue", "kronecker",
        "rankin_selberg", "rankin_selberg_isogenous", "residue_law", "orthogonality",
        "cnf_a_vs_b", "cnf_c_ratio", "cnf_nonvanishing", "pole_orders", "sym2",
        "triple_product"]
    assert all(r["status"] == "pass" for r in rep["checks"])
    assert len(swept) == len(set(swept)) == 2
    timing = json.load(open(os.path.join(out, "timing.json")))
    assert list(timing) == [
        "ap", "unfolding", "epstein", "epstein_residue", "kronecker", "sweep_pair_family",
        "rankin_selberg", "residue_law", "orthogonality", "class_number_formula",
        "pole_orders", "sym2", "triple_product"]


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
