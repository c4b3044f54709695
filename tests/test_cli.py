import json
import re

import pytest

from regsob import cli
from regsob.cli import DEFAULT_CONFIG, load_config, main
from regsob.errors import ConfigError
from regsob.field import make_grid, save_field, synthesize_profile
from regsob.kernel import KernelParams, build_kernel_table, save_table

MINI = {
    "solver": {"schedule": [8, 10], "R_max": 8.0, "max_iters": 5},
    "verify": {
        "lambda_schedule": [2.0],
        "batches": 2,
        "samples_per_batch": 2000,
        "max_rel_stderr": 1.0,
    },
    "boundary": {"alpha": [0.02, 0.02, 0.02]},
}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    cfg = d / "mini.json"
    cfg.write_text(json.dumps(MINI))
    theta = str(d / "theta.rsob")
    g0 = str(d / "g0.json")
    out = str(d / "verify")
    assert main(["solve", "--config", str(cfg), "--out", theta]) == 0
    assert main(["gamma0", "--theta", theta, "--config", str(cfg), "--out", g0]) == 0
    rc = main(
        ["verify", "--theta", theta, "--gamma0", g0, "--config", str(cfg), "--out", out]
    )
    return d, cfg, theta, g0, out, rc


def test_pipeline_runs_and_writes_manifests(pipeline):
    d, cfg, theta, g0, out, rc = pipeline
    assert rc == 0
    man = json.loads((d / "verify.manifest.json").read_text())
    assert man["command"] == "verify"
    assert man["wall_time_s"] > 0
    assert {o["path"] for o in man["outputs"]} == {out + ".json", out + ".csv"}
    assert all(len(o["sha256"]) == 64 for o in man["outputs"])
    assert set(man["input_hashes"]) == {theta, g0}


def test_verify_csv_columns(pipeline):
    d = pipeline[0]
    lines = (d / "verify.csv").read_text().splitlines()
    assert lines[0] == (
        "lambda,measured_quotient,stderr,predicted_bound,"
        "curvature_term,F_term,pass"
    )
    assert len(lines) == 2
    assert lines[1].split(",")[-1] in ("0", "1")


def test_verify_verdict_failure_exit_code(pipeline, tmp_path):
    d, cfg, theta, g0, out, _ = pipeline
    bad = json.loads(open(g0).read())
    bad["value"] = 1e6
    g0bad = tmp_path / "g0bad.json"
    g0bad.write_text(json.dumps(bad))
    rc = main(
        [
            "verify",
            "--theta",
            theta,
            "--gamma0",
            str(g0bad),
            "--config",
            str(cfg),
            "--out",
            str(tmp_path / "v"),
        ]
    )
    assert rc == 2


def test_print_config_round_trips(capsys):
    assert main(["print-config"]) == 0
    assert json.loads(capsys.readouterr().out) == DEFAULT_CONFIG


def test_config_merge_and_unknown_key(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"solver": {"n": 3}}))
    cfg = load_config(str(p))
    assert cfg["solver"]["n"] == 3
    assert cfg["solver"]["sigma"] == 0.75
    p.write_text(json.dumps({"sliver": {}}))
    with pytest.raises(ConfigError):
        load_config(str(p))
    # each value has the kind of its default; integers in real keys become
    # floats, and a null default takes null or a list
    p.write_text(json.dumps({
        "solver": {"R_max": 8, "grading": [1, 2], "schedule": [8, 10]},
        "gamma0": {"grids": [8, 10], "schedule": [2, 3.5]},
        "boundary": {"g_coeffs": [1]},
    }))
    cfg = load_config(str(p))
    s = cfg["solver"]
    assert [type(x) for x in (s["R_max"], *s["grading"])] == [float] * 3
    assert cfg["gamma0"] == {"grids": [8, 10], "schedule": [2.0, 3.5]}
    assert cfg["boundary"]["g_coeffs"] == [1.0]
    assert load_config(None) == DEFAULT_CONFIG
    bad = [
        ({"solver": {"max_iters": "abc"}}, "solver.max_iters", "an integer"),
        ({"solver": {"max_iters": 2.9}}, "solver.max_iters", "an integer"),
        ({"solver": {"schedule": [8, 9.7]}}, "solver.schedule", "a list of integers"),
        ({"solver": {"schedule": 8}}, "solver.schedule", "a list of integers"),
        ({"boundary": {"R0": "four"}}, "boundary.R0", "a number"),
        ({"boundary": {"alpha": [0.1, True]}}, "boundary.alpha", "a list of numbers"),
        ({"solver": {"init": 3}}, "solver.init", "a string"),
        ({"threads": True}, "threads", "an integer"),
        ({"threads": 2.5}, "threads", "an integer"),
        ({"verify": [1]}, "verify", "an object"),
        ({"gamma0": {"grids": [8, 10.5]}}, "gamma0.grids", "null or a list of integers"),
        ({"gamma0": {"schedule": "x"}}, "gamma0.schedule", "null or a list of numbers"),
        ({"kernel_table": {"N": None}}, "kernel_table.N", "an integer"),
    ]
    for raw, key, kind in bad:
        p.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match=re.escape(f"{key!r} must be {kind}")):
            load_config(str(p))


def test_invalid_json_reports_location(tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_text("{\n  broken\n}")
    rc = main(["solve", "--config", str(p), "--out", str(tmp_path / "x")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "line 2" in err


def test_unknown_suite_is_config_error(capsys):
    assert main(["check", "--suite", "nope"]) == 1
    assert "unknown suite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "suite", ["rearrangement", "kernel", "appendix-scaling", "taylor-bounds"]
)
def test_check_suite_passes(suite, capsys):
    assert main(["check", "--suite", suite]) == 0
    assert f"suite {suite}: 0 violations" in capsys.readouterr().out


@pytest.mark.parametrize("grading", [[2.0], [2.0, 2.0, 2.0]], ids=["one", "three"])
def test_kernel_table_grading_checked(grading, tmp_path, capsys):
    # a grading of the wrong length fails before the manifest is written
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"kernel_table": {"N": 6, "grading": grading}}))
    out = tmp_path / "tab.rsob"
    assert main(["kernel-table", "--config", str(p), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "InvalidGrading" in err and repr(grading) in err
    assert not out.exists()
    assert not (tmp_path / "tab.rsob.manifest.json").exists()


def test_solver_grading_checked(tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"solver": {"grading": [2.0, 2.0, 2.0]}}))
    assert main(["solve", "--config", str(p), "--out", str(tmp_path / "t")]) == 1
    assert "grading must hold exactly two numbers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "solver, error",
    [
        ({"grading": [2.0, 2.0, 2.0]}, "InvalidGrading"),
        ({"schedule": [3]}, "InvalidParams"),
        ({"sigma": 0.3}, "InvalidParams"),
        ({"n": 1}, "InvalidParams"),
        ({"init": "bogus", "schedule": [8]}, "UnknownKind"),
    ],
    ids=["grading", "schedule", "sigma", "n", "init"],
)
def test_solve_rejected_config_leaves_no_manifest(solver, error, tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"solver": solver}))
    out = tmp_path / "t"
    assert main(["solve", "--config", str(p), "--out", str(out)]) == 1
    assert f"error: {error}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [p]


def test_solve_negative_seed_leaves_no_manifest(tmp_path, capsys):
    # the config's integer check lets -1 through to SolverConfig, which
    # rejects it before the manifest is written and before any table
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"seed": -1}))
    out = tmp_path / "t"
    assert main(["solve", "--config", str(p), "--out", str(out)]) == 1
    assert "error: InvalidParams: seed must be an integer >= 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [p]


def test_kernel_table_order_checked(tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"kernel_table": {"order": "energi"}}))
    out = tmp_path / "tab.rsob"
    assert main(["kernel-table", "--config", str(p), "--out", str(out)]) == 1
    assert "kernel_table.order" in capsys.readouterr().err
    assert not out.exists()


def test_kernel_table_ignores_cache_dir(tmp_path, monkeypatch):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"kernel_table": {"N": 6, "R_max": 4.0}}))
    cache = tmp_path / "cache"
    monkeypatch.setenv("REGSOB_CACHE_DIR", str(cache))
    builds = []

    def counted(*args):
        builds.append(args)
        return build_kernel_table(*args)

    monkeypatch.setattr(cli, "build_kernel_table", counted)
    first, second = tmp_path / "a.rsob", tmp_path / "b.rsob"
    for out in (first, second):
        assert main(["kernel-table", "--config", str(p), "--out", str(out)]) == 0
    # each run builds its table and writes nothing but --out and its manifest
    assert len(builds) == 2
    assert not cache.exists() or not any(cache.iterdir())
    assert second.read_bytes() == first.read_bytes()


def test_gamma0_rejects_kernel_table_file(tmp_path, capsys):
    tab = tmp_path / "tab.rsob"
    g = make_grid(4, 2.0, 6, 6)
    save_table(build_kernel_table(g, KernelParams.energy(4, 0.75)), tab)
    out = tmp_path / "g0.json"
    assert main(["gamma0", "--theta", str(tab), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "UnknownKind" in err and str(tab) in err
    assert not out.exists()


@pytest.fixture
def small_theta(tmp_path):
    path = tmp_path / "theta.rsob"
    save_field(synthesize_profile("envelope", make_grid(4, 4.0, 6, 6), 0.75), path)
    return str(path)


def _verify_with_report(tmp_path, theta, text):
    report = tmp_path / "g0.json"
    if text is not None:
        report.write_text(text)
    out = tmp_path / "v"
    rc = main(["verify", "--theta", theta, "--gamma0", str(report), "--out", str(out)])
    assert not (tmp_path / "v.manifest.json").exists()
    return rc, str(report)


def test_verify_report_missing_key_is_config_error(tmp_path, small_theta, capsys):
    text = json.dumps(
        {"value": 1.0, "lambda_schedule": [2.0], "sign_verdict": "positive"}
    )
    rc, report = _verify_with_report(tmp_path, small_theta, text)
    err = capsys.readouterr().err
    assert rc == 1
    assert "config error" in err and report in err
    assert "grid_extrapolation_error" in err and "truncation_tail_bound" in err


_REPORT = {
    "value": 1.0,
    "grid_extrapolation_error": 0.1,
    "truncation_tail_bound": 0.2,
    "lambda_schedule": [2.0],
    "sign_verdict": "positive",
}


def _verify_with_config(tmp_path, theta, config):
    report = tmp_path / "g0.json"
    report.write_text(json.dumps(_REPORT))
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    argv = ["verify", "--theta", theta, "--gamma0", str(report)]
    return main(argv + ["--config", str(cfg), "--out", str(tmp_path / "v")])


def test_threads_come_from_config_only(tmp_path, small_theta, monkeypatch, capsys):
    monkeypatch.setenv("REGSOB_THREADS", "7")
    for bad in (0, -1):
        assert _verify_with_config(tmp_path, small_theta, {"threads": bad}) == 1
        assert "'threads'" in capsys.readouterr().err
        assert not (tmp_path / "v.manifest.json").exists()
    workers = []

    def fake_verify(theta, rep, bg, lams, mc):
        workers.append(mc.workers)
        return []

    monkeypatch.setattr(cli, "verify_upper_bound", fake_verify)
    assert _verify_with_config(tmp_path, small_theta, {"threads": 2}) == 0
    assert workers == [2]


def test_verify_empty_schedule_exits_1(tmp_path, small_theta, capsys):
    config = {"verify": {"lambda_schedule": []}}
    assert _verify_with_config(tmp_path, small_theta, config) == 1
    assert "InvalidParams" in capsys.readouterr().err
    assert not (tmp_path / "v.manifest.json").exists()


def test_gamma0_empty_schedule_exits_1(tmp_path, small_theta, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"gamma0": {"schedule": [], "grids": [4, 6]}}))
    out = str(tmp_path / "g0.json")
    argv = ["gamma0", "--theta", small_theta, "--config", str(cfg), "--out", out]
    assert main(argv) == 1
    assert "InvalidGamma" in capsys.readouterr().err
    assert not (tmp_path / "g0.json.manifest.json").exists()


@pytest.mark.parametrize(
    "key, bad",
    [
        ("value", "abc"),
        ("value", float("nan")),
        ("value", float("inf")),
        ("grid_extrapolation_error", float("nan")),
        ("truncation_tail_bound", -1.0),
        ("truncation_tail_bound", True),
        ("lambda_schedule", [2.0, 0.0]),
        ("lambda_schedule", [float("nan")]),
        ("lambda_schedule", 2.0),
        ("sign_verdict", "maybe"),
    ],
)
def test_verify_report_bad_value_is_config_error(
    key, bad, tmp_path, small_theta, capsys
):
    text = json.dumps({**_REPORT, key: bad})
    rc, report = _verify_with_report(tmp_path, small_theta, text)
    err = capsys.readouterr().err
    assert rc == 1
    assert "config error" in err and report in err and f"{key} must" in err


def test_verify_report_invalid_json_is_config_error(tmp_path, small_theta, capsys):
    rc, report = _verify_with_report(tmp_path, small_theta, '{"value": 1.0,')
    err = capsys.readouterr().err
    assert rc == 1
    assert "config error" in err and report in err and "invalid JSON" in err


def test_verify_report_missing_file_exits_1(tmp_path, small_theta, capsys):
    rc, report = _verify_with_report(tmp_path, small_theta, None)
    assert rc == 1
    assert report in capsys.readouterr().err


def test_gamma0_missing_theta_exits_1(tmp_path, capsys):
    theta = str(tmp_path / "absent.rsob")
    out = tmp_path / "g0.json"
    assert main(["gamma0", "--theta", theta, "--out", str(out)]) == 1
    assert theta in capsys.readouterr().err
    assert not out.exists()


def test_gamma0_report_round_trips():
    rep = cli.Gamma0Report(1.0, 0.1, 0.2, [2.0, 3.0], "positive")
    assert rep.lambda_schedule == (2.0, 3.0) and rep.theta_provenance == ""
    assert cli.Gamma0Report(**rep.to_json()) == rep
    # a one-grid estimate_gamma0 reports an infinite grid error
    rep = cli.Gamma0Report(1.0, float("inf"), 0.2, [2.0], "indeterminate")
    assert cli.Gamma0Report(**rep.to_json()) == rep
