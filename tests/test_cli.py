import argparse
import hashlib
import json
import os

import numpy as np
import pytest

from rankdiff.cli import build_parser, main
from rankdiff.harness import ExperimentConfig


def run(args):
    return main(args)


def read_lines(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def test_simulate_writes_documented_path_csv(tmp_path):
    code = run(["simulate", "--system", "B", "--g", "1", "--h", "1", "--rho", "1",
                "--sigma", "0", "--x1", "0.2", "--x2", "0", "--T", "1", "--steps", "50",
                "--seed", "7", "--out-dir", str(tmp_path)])
    assert code == 0
    lines = read_lines(tmp_path / "path_000.csv")
    assert lines[0].startswith("# rankdiff-csv/1 table=path_000")
    assert lines[1] == "t,X1,X2,R1,R2,Y,L"
    assert len(lines) == 2 + 51


def test_simulate_gap_only_export(tmp_path):
    code = run(["simulate", "--system", "gap", "--g", "1", "--h", "0.5", "--rho", "0.8",
                "--sigma", "0.6", "--T", "0.5", "--steps", "20", "--seed", "3",
                "--out-dir", str(tmp_path)])
    assert code == 0
    lines = read_lines(tmp_path / "gap_path_000.csv")
    assert lines[1] == "t,Y,L,W"


def test_simulate_multiple_paths(tmp_path):
    code = run(["simulate", "--system", "V", "--g", "1", "--h", "1", "--rho", "1",
                "--sigma", "0", "--T", "0.2", "--steps", "10", "--paths", "3",
                "--seed", "1", "--out-dir", str(tmp_path)])
    assert code == 0
    assert {f"path_{i:03d}.csv" for i in range(3)} <= set(os.listdir(tmp_path))


def test_sample_and_density_outputs(tmp_path):
    code = run(["sample", "--g", "1", "--h", "1", "--rho", "1", "--sigma", "0",
                "--x1", "0.5", "--x2", "0", "--T", "1", "--paths", "200", "--seed", "2",
                "--out-dir", str(tmp_path)])
    assert code == 0
    lines = read_lines(tmp_path / "terminal_draws.csv")
    assert lines[1] == "x1,x2"
    assert len(lines) == 2 + 200

    code = run(["density", "--g", "1", "--h", "1", "--rho", "1", "--sigma", "0",
                "--x1", "0.5", "--x2", "0", "--T", "1", "--xi-n", "11",
                "--svg", "heat.svg", "--out-dir", str(tmp_path)])
    assert code == 0
    meta = json.loads((tmp_path / "joint_density.meta.json").read_text())
    assert 0 < meta["atom_mass"] < 1
    assert meta["atom_axis"] == "x2"
    assert "front_jump_formula_params" in meta
    svg = (tmp_path / "heat.svg").read_text()
    assert svg.startswith("<svg") and "atom mass" in svg
    lines = read_lines(tmp_path / "joint_density.csv")
    assert lines[1] == "xi1,xi2,value"
    assert len(lines) == 2 + 11 * 11


def test_density_gap_law(tmp_path):
    code = run(["density", "--law", "gap", "--g", "1", "--h", "1", "--rho", "1",
                "--sigma", "0", "--x1", "0.3", "--x2", "0", "--out-dir", str(tmp_path)])
    assert code == 0
    assert read_lines(tmp_path / "gap_density.csv")[1] == "xi,value"


def test_classify_single_and_enumerate(tmp_path, capsys):
    code = run(["classify", "--rho", "0.8", "--sigma", "0.6", "--eps", "1",
                "--delta", "-1", "--phi", "0", "--vartheta", "-1.5707963267948966",
                "--out-dir", str(tmp_path)])
    assert code == 0
    assert "strong=0" in capsys.readouterr().out

    code = run(["classify", "--rho", "0.8", "--sigma", "0.6", "--enumerate",
                "--format", "json", "--out-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "total=64 strong=56" in out
    data = json.loads((tmp_path / "classify.json").read_text())
    assert data["meta"]["strong"] == 56
    assert len(data["rows"]) == 64


def test_classify_requires_config_or_enumerate(tmp_path, capsys):
    code = run(["classify", "--rho", "0.8", "--sigma", "0.6", "--out-dir", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == ("rankdiff classify: need --enumerate or all of "
                                       "--eps --delta --phi --vartheta\n")


def test_reverse_emits_drift_profile(tmp_path, capsys):
    code = run(["reverse", "--mode", "steady", "--lam", "2", "--rho", "1", "--sigma", "0",
                "--T", "1", "--steps", "100", "--paths", "1500", "--seed", "5",
                "--out-dir", str(tmp_path)])
    assert code == 0
    lines = read_lines(tmp_path / "backward_drift.csv")
    assert lines[1] == "tau,xi,q,b_hat"
    assert "reversed-vs-forward KS" in capsys.readouterr().out


def test_config_file_and_flag_override(tmp_path):
    doc = {"g": 1.0, "h": 1.0, "rho": 1.0, "sigma": 0.0, "x1": 0.1, "x2": 0.0, "seed": 11}
    cfg_path = tmp_path / "params.json"
    cfg_path.write_text(json.dumps(doc))
    code = run(["simulate", "--system", "B", "--config", str(cfg_path), "--T", "0.5",
                "--steps", "10", "--out-dir", str(tmp_path)])
    assert code == 0
    header = read_lines(tmp_path / "path_000.csv")[0]
    assert "seed=11" in header


def test_full_config_document_and_flag_override(tmp_path):
    doc = ExperimentConfig(command="simulate", x1=0.1, horizon=0.25, steps=10, seed=13)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(doc.to_json())
    code = run(["simulate", "--system", "B", "--config", str(cfg_path), "--steps", "8",
                "--out-dir", str(tmp_path)])
    assert code == 0
    lines = read_lines(tmp_path / "path_000.csv")
    assert "seed=13" in lines[0]
    assert len(lines) == 2 + 9  # --steps 8 overrides the document's 10
    assert lines[-1].startswith("0.25,")  # the document's horizon
    # the document's paths is null, so simulate writes its default of one path
    assert sorted(os.listdir(tmp_path)) == ["config.json", "path_000.csv"]


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"g": 1.0, "bogus": 2}))
    code = run(["simulate", "--config", str(bad), "--out-dir", str(tmp_path)])
    assert code == 2
    assert "bogus" in capsys.readouterr().err


def test_bad_parameters_are_usage_error(tmp_path, capsys):
    code = run(["sample", "--g", "0", "--h", "0", "--rho", "1", "--sigma", "0",
                "--paths", "10", "--out-dir", str(tmp_path)])
    assert code == 2
    assert "g+h>0" in capsys.readouterr().err


def test_argparse_usage_error_is_exit_2():
    with pytest.raises(SystemExit) as exc:
        run(["density", "--law", "nonsense"])
    assert exc.value.code == 2


SHARED = ["--config", "--seed", "--out-dir", "--format"]
MODEL = ["--g", "--h", "--rho", "--sigma", "--x1", "--x2", "--T", "--steps", "--paths"]
# each subcommand's options: the shared four, the model flags its handler reads, its own
OPTIONS = {
    "simulate": SHARED + MODEL + ["--system", "--eps", "--delta", "--phi", "--vartheta"],
    "sample": SHARED + ["--g", "--h", "--rho", "--sigma", "--x1", "--x2", "--T", "--paths"],
    "density": SHARED + ["--g", "--h", "--rho", "--sigma", "--x1", "--x2", "--T",
                         "--law", "--xi-min", "--xi-max", "--xi-n", "--svg"],
    "classify": SHARED + ["--g", "--h", "--rho", "--sigma",
                          "--eps", "--delta", "--phi", "--vartheta", "--enumerate"],
    "reverse": SHARED + ["--g", "--h", "--rho", "--sigma", "--T", "--steps", "--paths",
                         "--mode", "--lam", "--y0"],
    "validate": SHARED + ["--workers", "--scale"],
    "tanaka": SHARED + ["--T", "--drive", "--f", "--dts", "--reps"],
}


def subparser_options():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: [a.option_strings[0] for a in sp._actions if not isinstance(a, argparse._HelpAction)]
            for name, sp in sub.choices.items()}


def test_each_subcommand_declares_only_the_flags_it_reads():
    got = subparser_options()
    assert {name: sorted(opts) for name, opts in got.items()} == \
        {name: sorted(opts) for name, opts in OPTIONS.items()}
    assert sum(len(opts) for opts in got.values()) == 88  # 115 when every subcommand took MODEL
    assert len(UNREAD) == 27


# the 27 (subcommand, model flag) pairs that were parsed and then dropped; "--h" once
# also matched --help as an abbreviation
UNREAD = [[cmd, flag, "1"] for cmd in OPTIONS for flag in MODEL if flag not in OPTIONS[cmd]]


@pytest.mark.parametrize("argv", UNREAD + [["validate", "--g", "0", "--h", "0"]], ids=" ".join)
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("doc", [{"steps": "ten"}, {"steps": True}, {"fmt": "xml"}, {"rho": "1"}, [1, 2]])
def test_config_document_of_the_wrong_shape_is_usage_error(tmp_path, capsys, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = run(["simulate", "--config", str(bad), "--steps", "5", "--out-dir", str(out)])
    assert code == 2
    assert "rankdiff simulate:" in capsys.readouterr().err
    assert not out.exists()


def test_validate_reads_scale_and_workers_from_the_config_document(tmp_path, monkeypatch):
    from rankdiff import cli

    seen = []
    monkeypatch.setattr(cli, "run_validation_suite", lambda cfg: seen.append(cfg) or [])
    doc = tmp_path / "battery.json"
    doc.write_text(json.dumps({"scale": 0.002, "workers": 2, "seed": 9}))
    assert run(["validate", "--config", str(doc), "--out-dir", str(tmp_path)]) == 0
    assert run(["validate", "--config", str(doc), "--workers", "3", "--out-dir", str(tmp_path)]) == 0
    assert [(c.scale, c.workers, c.seed) for c in seen] == [(0.002, 2, 9), (0.002, 3, 9)]


@pytest.mark.parametrize("scale", [float("nan"), float("inf"), 0.0, -1.0])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_a_scale_that_is_not_finite_and_positive_is_usage_error(tmp_path, capsys, scale, source):
    if source == "flag":
        args = ["--scale", str(scale)]
    else:  # json writes NaN and Infinity, which json.loads reads back
        (tmp_path / "doc.json").write_text(json.dumps({"scale": scale}))
        args = ["--config", str(tmp_path / "doc.json")]
    out = tmp_path / "out"
    assert run(["validate"] + args + ["--out-dir", str(out)]) == 2
    assert "rankdiff validate: scale must be finite and > 0" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_takes_paths_from_the_config_document_and_else_writes_one(tmp_path):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"paths": 3, "steps": 5}))
    assert run(["simulate", "--config", str(doc), "--out-dir", str(tmp_path / "three")]) == 0
    assert sorted(os.listdir(tmp_path / "three")) == [f"path_{i:03d}.csv" for i in range(3)]
    doc.write_text(json.dumps({"steps": 5}))
    assert run(["simulate", "--config", str(doc), "--out-dir", str(tmp_path / "one")]) == 0
    assert os.listdir(tmp_path / "one") == ["path_000.csv"]


@pytest.mark.parametrize("argv,doc,message", [
    (["simulate", "--paths", "-5"], None, "paths must be >= 1 for simulate"),
    (["simulate", "--paths", "0"], None, "paths must be >= 1 for simulate"),
    (["simulate"], {"paths": 0}, "paths must be >= 1 for simulate"),
    (["reverse", "--paths", "5"], None, "paths must be >= 1000 for reverse"),
    (["density", "--xi-n", "1", "--svg", "h.svg"], None, "xi-n must be >= 2"),
    (["classify", "--eps", "1", "--delta", "1", "--phi", "nan", "--vartheta", "0"], None,
     "root angles must be finite"),
    (["simulate", "--system", "custom", "--phi", "inf", "--steps", "5"], None, "root angles must be finite"),
], ids=["simulate-paths-5", "simulate-paths0", "simulate-doc-paths0", "reverse-paths5",
        "density-xi-n1-svg", "classify-phi-nan", "simulate-custom-phi-inf"])
def test_a_value_out_of_range_is_usage_error_and_writes_nothing(tmp_path, capsys, argv, doc, message):
    if doc is not None:
        (tmp_path / "doc.json").write_text(json.dumps(doc))
        argv = argv + ["--config", str(tmp_path / "doc.json")]
    out = tmp_path / "out"
    assert run(argv + ["--out-dir", str(out)]) == 2
    assert f"rankdiff {argv[0]}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_validate_quick_pass_fail_and_fault_injection(tmp_path, capsys, monkeypatch):
    from rankdiff import validation

    args = ["validate", "--scale", "0.002", "--seed", "20240601", "--out-dir", str(tmp_path)]
    # at this scale the exit code is 1 on every run (small-sample Monte Carlo
    # rows fail), so the contract is read from the normalization row: PASS as
    # built, FAIL once the transition density the battery integrates is off by 1%
    assert run(args) == 1
    assert "PASS normalization/transition-density-grid" in capsys.readouterr().out
    density = validation.bangbang.transition_density
    monkeypatch.setattr(validation.bangbang, "transition_density",
                        lambda *a, **k: 1.01 * density(*a, **k))
    assert run(args) == 1
    assert "FAIL normalization/transition-density-grid" in capsys.readouterr().out


@pytest.mark.parametrize("failing,code", [
    ((), 0), (("local-time/reversal-halving",), 0),
    (("normalization/isotropic",), 1), (("local-time/reversal-halving", "normalization/isotropic"), 1),
], ids=["none", "known-red", "other", "both"])
def test_validate_exits_1_only_for_a_failing_row_outside_known_red(tmp_path, monkeypatch, failing, code):
    from rankdiff import cli
    from rankdiff.harness import GofReport
    from rankdiff.validation import KNOWN_RED

    assert KNOWN_RED == {"local-time/reversal-halving"}
    names = ["local-time/reversal-halving", "normalization/isotropic", "reversal/steady-drift-exact"]
    reports = [GofReport("sup", n, 1.0 if n in failing else 0.0, 0.5, 1) for n in names]
    monkeypatch.setattr(cli, "run_validation_suite", lambda cfg: reports)
    assert run(["validate", "--out-dir", str(tmp_path)]) == code
    lines = read_lines(tmp_path / "validation_reports.csv")
    assert lines[1] == "kind,name,statistic,tolerance,mode,n,p_value,passed,note"
    assert [line.split(",")[7] for line in lines[2:]] == ["0" if n in failing else "1" for n in names]


def test_tanaka_cli_labels_output_illustrative(tmp_path, capsys):
    code = run(["tanaka", "--dts", "8e-3,4e-3", "--reps", "5", "--seed", "3",
                "--out-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "illustrative" in out
    lines = read_lines(tmp_path / "tanaka_coalescence.csv")
    assert "label=illustrative" in lines[0]
    assert lines[1] == "dt,median_sup,mean_sup,reps"


def test_tanaka_bad_dts_usage_error(tmp_path, capsys):
    code = run(["tanaka", "--dts", "abc", "--out-dir", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == "rankdiff tanaka: --dts must be comma-separated floats\n"


@pytest.mark.parametrize("argv", [
    ["classify", "--enumerate", "--out-dir", "{file}/sub"],
    ["density", "--xi-n", "5", "--out-dir", "{dir}", "--svg", "{file}/h.svg"],
], ids=["classify-out-dir", "density-svg"])
def test_an_output_path_under_a_regular_file_is_an_io_error_on_one_line(tmp_path, capsys, argv):
    (tmp_path / "file").write_text("")
    code = run([a.format(file=tmp_path / "file", dir=tmp_path / "out") for a in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"rankdiff {argv[0]}: ") and err.count("\n") == 1
    assert "Traceback" not in err and str(tmp_path / "file") in err


@pytest.mark.parametrize("flag", ["--reps=0", "--dts=0", "--dts=-1e-2"])
def test_tanaka_bad_reps_or_step_is_usage_error(tmp_path, capsys, flag):
    code = run(["tanaka", flag, "--out-dir", str(tmp_path)])
    assert code == 2
    assert "rankdiff tanaka:" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_svg_golden_file(tmp_path):
    import numpy as np
    from rankdiff import densities
    from rankdiff.core import InitialState, validate_params
    from rankdiff.svgplot import emit_svg_heatmap

    p = validate_params(1.0, 1.0, 1.0, 0.0)
    s0 = InitialState(0.5, 0.0)
    grid = densities.density_grid(p, s0, 1.0, np.linspace(-2.0, 4.0, 4), np.linspace(-2.0, 4.0, 4))
    text = emit_svg_heatmap(grid, str(tmp_path / "heat.svg"), title="degenerate joint density")
    golden = os.path.join(os.path.dirname(__file__), "golden", "heatmap_4x4.svg")
    with open(golden, "rb") as fh:
        want = fh.read()
    # the file is written a column at a time and the text joined apart from it
    assert want == text.encode("utf-8")
    assert want == (tmp_path / "heat.svg").read_bytes()


def test_svg_empty_atom_has_no_overlay(tmp_path):
    from rankdiff import densities
    from rankdiff.core import InitialState, validate_params
    from rankdiff.svgplot import emit_svg_heatmap

    p = validate_params(1.0, 1.0, 1.0, 0.0)
    grid = densities.density_grid(p, InitialState(0.0, 0.0), 1.0,
                                  np.linspace(-2, 2, 6), np.linspace(-2, 2, 6))
    assert grid.atom is None
    emit_svg_heatmap(grid, str(tmp_path / "heat.svg"))
    text = (tmp_path / "heat.svg").read_text(encoding="utf-8")
    assert "atom" not in text
    assert "dasharray" not in text


@pytest.mark.parametrize("n1,n2", [(1, 3), (3, 1), (0, 3)])
def test_svg_rejects_an_axis_of_fewer_than_two_points(tmp_path, n1, n2):
    from rankdiff import densities
    from rankdiff.core import InitialState, ParameterError, validate_params
    from rankdiff.svgplot import emit_svg_heatmap

    p = validate_params(1.0, 1.0, 1.0, 0.0)
    grid = densities.density_grid(p, InitialState(0.5, 0.0), 1.0,
                                  np.linspace(-1, 1, n1), np.linspace(-1, 1, n2))
    with pytest.raises(ParameterError, match="heatmap axis needs >= 2 points"):
        emit_svg_heatmap(grid, str(tmp_path / "heat.svg"))
    assert not (tmp_path / "heat.svg").exists()


def test_reverse_lambda_alias_and_report_file(tmp_path):
    code = run(["reverse", "--mode", "steady", "--lambda", "2", "--rho", "1", "--sigma", "0",
                "--T", "1", "--steps", "50", "--paths", "1200", "--seed", "5",
                "--out-dir", str(tmp_path)])
    assert code == 0
    lines = read_lines(tmp_path / "reverse_report.csv")
    assert lines[1] == "mode,t_check,ks,n_paths,steps"
    assert lines[2].startswith("steady_state,")


UNEQUAL = ["--g", "1", "--h", "0.5", "--rho", "0.8", "--sigma", "0.6"]
DEGENERATE = ["--g", "1", "--h", "1", "--rho", "1", "--sigma", "0"]
EXPORT_CASES = {
    "simulate-B": ["simulate", "--system", "B", "--paths", "2", "--steps", "2000"] + UNEQUAL,
    "simulate-custom": ["simulate", "--system", "custom", "--eps", "-1", "--delta", "1",
                        "--phi", "0.7", "--vartheta", "2.1", "--paths", "2",
                        "--steps", "2000"] + UNEQUAL,
    "simulate-gap": ["simulate", "--system", "gap", "--paths", "2", "--steps", "2000"],
    "simulate-json": ["simulate", "--system", "B", "--steps", "300", "--format", "json"] + UNEQUAL,
    "sample": ["sample", "--paths", "5000"],
    "density-degenerate-svg": ["density", "--x1", "0.5", "--x2", "0", "--xi-n", "41",
                               "--svg", "heatmap.svg"] + DEGENERATE,
    "density-unequal": ["density", "--x1", "0.4", "--x2", "0", "--xi-n", "61"] + UNEQUAL,
    "density-gap": ["density", "--law", "gap", "--xi-n", "2001"],
    "density-json": ["density", "--x1", "0.4", "--x2", "0", "--xi-n", "21",
                     "--format", "json"] + UNEQUAL,
    "classify": ["classify", "--enumerate"] + UNEQUAL,
    "reverse-even": ["reverse", "--mode", "transient", "--lam", "2", "--y0", "0.3",
                     "--paths", "2000", "--steps", "200"],
    "tanaka": ["tanaka", "--reps", "5"],
}
# sha256 of every file each invocation writes at seed 20240601, recorded with
# the per-cell CSV writer, the per-cell SVG loop and the scalar Tanaka loop;
# "classify" re-pinned when quarter-turn angles began to give exact 0/+-1
# blocks (17 ip_sum_norm cells lost their trig residue; verdicts unchanged);
# "reverse-even" reverse_report.csv re-pinned when the time-T draws came to be
# taken from the triple law (ks 0.021 -> 0.020); "sample" and "reverse-even"
# reverse_report.csv re-pinned when the exact sampler's envelope became the
# analytic peak of its ratio and its rejection rounds came to be sized from the
# acceptance rate, with upper-tail proposals; "simulate-custom" re-pinned when
# the single path's 2x2 matmul gave way to the batch's two products and a sum;
# "density-unequal" and "density-json" re-pinned when the unequal-variance side
# term came to form its exponent as a square (density values moved by at most
# 3.5e-14 relative)
EXPORT_GOLDEN = {
    "classify": {
        "classify.csv":
            "a799049941cef7161ff5f9b9062056204e7a1560cbb99a6b9d609da470b5fe16",
    },
    "density-degenerate-svg": {
        "heatmap.svg":
            "850eb8c3fe9c85e7d31d289b3ecc1e5cec2806545c2d575155bc2c113d1cc0f3",
        "joint_density.csv":
            "a160b63a971b3c3663dc1522c6c95a8f47989b9ceeade4bd7c9148311bfa24cb",
        "joint_density.meta.json":
            "34c9c08d38817406efc85c6cf5cc62f93698ec255f0f59c4d3aafedaa3a94353",
    },
    "density-gap": {
        "gap_density.csv":
            "a6027625ae5f1c2ae34ecade5117b9efe5ecf4a0e501c0bada0b222fd801440b",
    },
    "density-json": {
        "joint_density.json":
            "b993dd97b2a69f851318768789410e89ae54f205bedc2b656788613c6baff67c",
        "joint_density.meta.json":
            "0fb89a03d8d8888c0fcd24c355ed541cad2b6f379f8758cfdb198601fe215f9c",
    },
    "density-unequal": {
        "joint_density.csv":
            "105daa7e424460a20b18ce7481cc61d257d56bcc5fe55397b2783a0829b479c6",
        "joint_density.meta.json":
            "0fb89a03d8d8888c0fcd24c355ed541cad2b6f379f8758cfdb198601fe215f9c",
    },
    "reverse-even": {
        "backward_drift.csv":
            "e5a7bd82110e97b9eb73fb7ce0fb7b40d33fed0221caa6b6c6ea0de5edd016a8",
        "reverse_report.csv":
            "9ce76ced7f28b0cf55ce65fae37e951f3cd7e500a1b819f94636d6559e03b4f5",
    },
    "sample": {
        "terminal_draws.csv":
            "f8d9898e9737bd9294943b93738d9718ab650316b1b714fc43eb98ed3937b351",
    },
    "simulate-B": {
        "path_000.csv":
            "311829d9486882ff20da3d0899770fb21c3f13184a25be3aab560a844344252a",
        "path_001.csv":
            "ef45d497b694e9b77ae9684c45ce8ed66f267c1068973431241d7fe7f3b0a9af",
    },
    "simulate-custom": {
        "path_000.csv":
            "954c8ca60e814aff590792f61cb7a3de9e1b78b0d9ca5327efb34e7e06d905bf",
        "path_001.csv":
            "0d88455dd1855788555a093cbcb6332d9e1d78c5f96b6837253d048d2a1d92f8",
    },
    "simulate-gap": {
        "gap_path_000.csv":
            "3132222983cb999b51e0579ca558f1cc717eaee04c2fffc75fd4796a23175519",
        "gap_path_001.csv":
            "194a4c1c846c9f5cc3f40d5329fd8bfe7c3902d2ef4d5973bf735b3e1386300b",
    },
    "simulate-json": {
        "path_000.json":
            "535c2000f290c59b29013d3823681048c140f6470b8d0ae53a2ea0352601284b",
    },
    "tanaka": {
        "tanaka_coalescence.csv":
            "59d14936f8a8589c34cf4d71f8d58b9428fc4994eac82aaafb670c3cc63c78df",
    },
}


def sha256_dir(d):
    return {f: hashlib.sha256((d / f).read_bytes()).hexdigest() for f in sorted(os.listdir(d))}


@pytest.mark.parametrize("case", sorted(EXPORT_CASES))
def test_export_bytes_golden(tmp_path, case):
    assert run(EXPORT_CASES[case] + ["--seed", "20240601", "--out-dir", str(tmp_path)]) == 0
    assert sha256_dir(tmp_path) == EXPORT_GOLDEN[case]


@pytest.mark.parametrize("steps", [1, 5, 501])
def test_reverse_compares_both_laws_at_the_same_time(tmp_path, monkeypatch, steps):
    # odd steps: the forward loop runs steps // 2 steps, so the backward path
    # must be read steps - steps // 2 steps back from T, not at round(steps / 2)
    from rankdiff import timereversal

    recorded = []
    simulate_backward = timereversal.simulate_backward

    def spy(*args, **kwargs):
        times, values = simulate_backward(*args, **kwargs)
        recorded.append(times)
        return times, values

    monkeypatch.setattr(timereversal, "simulate_backward", spy)
    code = run(["reverse", "--mode", "transient", "--lam", "2", "--y0", "0.3", "--T", "1",
                "--steps", str(steps), "--paths", "1000", "--seed", "1",
                "--out-dir", str(tmp_path)])
    assert code == 0
    k = steps // 2
    t_check = float(read_lines(tmp_path / "reverse_report.csv")[2].split(",")[1])
    assert t_check == k / steps
    assert len(recorded) == 1
    assert round(recorded[0][-1] * steps) == steps - k


def test_svg_colors_match_scalar_rule():
    from rankdiff.svgplot import _VIRIDIS, _colors

    def color(v):  # the per-value rule the vectorised map replaced
        v = min(max(v, 0.0), 1.0)
        x = v * (len(_VIRIDIS) - 1)
        i = min(int(x), len(_VIRIDIS) - 2)
        f = x - i
        rgb = (1.0 - f) * _VIRIDIS[i] + f * _VIRIDIS[i + 1]
        return "#%02x%02x%02x" % tuple(int(round(c)) for c in rgb)

    v = np.concatenate([np.linspace(-0.5, 1.5, 20001), np.arange(9) / 8.0,
                        (np.arange(64) + 0.5) / 64, [-0.0, 5e-324, 1 - 2 ** -53]])
    assert ["#%06x" % c for c in _colors(v).tolist()] == [color(x) for x in v]
