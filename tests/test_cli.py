import json

import pytest

from pltl_learn.benchgen import reach_chain, write_sample
from pltl_learn.cli import main
from pltl_learn.dtmc import Sample, dtmc_to_json, dtmc_to_prism, parse_json_dtmc


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture
def safety_dir(tmp_path, capsys):
    out = tmp_path / "safety"
    rc, stdout, _ = run(capsys, "benchgen", "--name", "safety", "--out", str(out))
    assert rc == 0
    assert stdout.strip() == str(out / "manifest.json")
    return out


# ---------------------------------------------------------------------------
# learn


def test_learn_safety_bundle(safety_dir, capsys):
    rc, out, err = run(capsys, "learn", "--sample", str(safety_dir / "manifest.json"))
    assert rc == 0
    assert out == "P>0.605957 [G(!h)]  margin=0.430664\n"
    assert err == ""


def test_learn_reach_bundle_reports_both_winners(tmp_path, capsys):
    rc, _, _ = run(capsys, "benchgen", "--name", "reach", "--out", str(tmp_path / "r"))
    assert rc == 0
    rc, out, _ = run(capsys, "learn", "--sample", str(tmp_path / "r" / "manifest.json"))
    assert rc == 0
    assert out.splitlines() == [
        "P>0.65 [F(a)]  margin=0.700000",
        "P>0.65 [X(a)]  margin=0.700000",
    ]


def test_learn_all_minimal_flag(safety_dir, capsys):
    rc, out, _ = run(
        capsys, "learn", "--sample", str(safety_dir / "manifest.json"), "--all-minimal"
    )
    assert rc == 0
    assert out.splitlines() == [
        "P>0.605957 [G(!h)]  margin=0.430664",
        "P>0.765625 [X(!h)]  margin=0.281250",
    ]


def test_learn_flag_overrides_manifest_params(safety_dir, capsys):
    # params say K=4; the flag forces a space with no solution
    rc, out, err = run(
        capsys, "learn", "--sample", str(safety_dir / "manifest.json"), "-K", "1"
    )
    assert rc == 1
    assert out == ""
    assert "no formula in the search space (K=1, D=2, delta=0.05)" in err


def test_learn_exhaustion_exit_code(tmp_path, capsys):
    m = reach_chain(0.3)
    write_sample(Sample.build([m], [m]), tmp_path)
    rc, out, err = run(
        capsys, "learn", "--sample", str(tmp_path / "manifest.json"), "-K", "4"
    )
    assert rc == 1
    assert out == ""
    assert "no formula in the search space (K=4, D=2, delta=0.05)" in err


def test_learn_requires_some_size_bound(tmp_path, capsys):
    m = reach_chain(0.3)
    write_sample(Sample.build([reach_chain(1.0)], [m]), tmp_path)
    rc, _, err = run(capsys, "learn", "--sample", str(tmp_path / "manifest.json"))
    assert rc == 2
    assert "size bound is required" in err


def test_learn_stats_go_to_stderr(safety_dir, capsys):
    rc, out, err = run(
        capsys, "learn", "--sample", str(safety_dir / "manifest.json"), "--stats"
    )
    assert rc == 0
    assert "stats" not in out
    assert "stats: constructed=8" in err
    assert "stats[size 1]: constructed=2" in err
    assert "stats[size 2]: constructed=6" in err
    assert "stats[phase]:" in err


def test_learn_jobs_flag_is_unknown(safety_dir, capsys):
    with pytest.raises(SystemExit) as e:
        main(["learn", "--sample", str(safety_dir / "manifest.json"), "--jobs", "2"])
    assert e.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_learn_missing_manifest(tmp_path, capsys):
    rc, _, err = run(capsys, "learn", "--sample", str(tmp_path / "nope.json"))
    assert rc == 2
    assert err.startswith("error:")


def test_learn_manifest_missing_side(tmp_path, capsys):
    (tmp_path / "manifest.json").write_text(json.dumps({"positive": []}))
    rc, _, err = run(capsys, "learn", "--sample", str(tmp_path / "manifest.json"))
    assert rc == 2
    assert "manifest lacks a 'negative' list" in err


def test_learn_manifest_empty_side(tmp_path, capsys):
    (tmp_path / "pos_0.json").write_text(dtmc_to_json(reach_chain(1.0)))
    doc = {
        "positive": [{"format": "json", "path": "pos_0.json"}],
        "negative": [],
        "params": {"max_size": 2},
    }
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    rc, _, err = run(capsys, "learn", "--sample", str(tmp_path / "manifest.json"))
    assert rc == 2
    assert "each side" in err


def test_learn_manifest_unknown_chain_format(tmp_path, capsys):
    doc = {
        "positive": [{"format": "dot", "path": "x.dot"}],
        "negative": [],
        "params": {"max_size": 2},
    }
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    rc, _, err = run(capsys, "learn", "--sample", str(tmp_path / "manifest.json"))
    assert rc == 2
    assert "unknown chain format 'dot'" in err


def test_learn_manifest_bad_json(tmp_path, capsys):
    (tmp_path / "manifest.json").write_text("{broken")
    rc, _, err = run(capsys, "learn", "--sample", str(tmp_path / "manifest.json"))
    assert rc == 2
    assert err.startswith("error:")


_ONE_STATE = {"states": 1, "init": 0, "ap": [], "labels": {}, "transitions": [[0, 0, 1.0]]}
_ENTRY = {"format": "json", "path": "chain.json"}
_PRISM_ENTRY = {"format": "prism-explicit", "tra": "chain.tra", "lab": "chain.lab"}


def _manifest(params):
    # valid but for params: the search would run and exit 1
    return {"ap": ["a"], "positive": [_ENTRY], "negative": [_ENTRY], "params": params}


@pytest.mark.parametrize(
    "command, doc",
    [
        ("check", 5),
        ("check", {**_ONE_STATE, "labels": {"0": 5}}),
        ("check", {**_ONE_STATE, "transitions": [5]}),
        ("check", {**_ONE_STATE, "ap": 7}),
        ("check", {**_ONE_STATE, "init": [0]}),
        ("learn", {"positive": [5], "negative": [_ENTRY]}),
        ("learn", {"positive": [_ENTRY], "negative": [_ENTRY], "params": [1]}),
        ("learn", {"positive": [_ENTRY], "negative": [_ENTRY], "ap": 7}),
        ("learn", {"positive": [{"path": 5}], "negative": [_ENTRY]}),
        ("learn", {"positive": [_PRISM_ENTRY | {"tra": 5}], "negative": [_ENTRY]}),
        ("learn", {"positive": [_PRISM_ENTRY | {"tra": "chain.json", "lab": [1]}], "negative": [_ENTRY]}),
        ("learn", _manifest({"max_size": [1]})),
        ("learn", _manifest({"max_size": True})),
        ("learn", _manifest({"max_size": 2.7})),
        ("learn", _manifest({"max_size": 1, "delta": [1]})),
        ("learn", _manifest({"max_size": 1, "delta": True})),
        ("learn", _manifest({"max_size": 1, "max_depth": 1.5})),
        ("learn", _manifest({"max_size": 1, "bool_limit": "3"})),
        ("learn", {**_manifest({"max_size": 1}), "ap": [[1]]}),
        ("learn", {**_manifest({"max_size": 1}), "ap": [1]}),
    ],
    ids=[
        "model-int",
        "label-int",
        "row-int",
        "ap-int",
        "init-list",
        "entry-int",
        "params-list",
        "manifest-ap-int",
        "entry-path-int",
        "entry-tra-int",
        "entry-lab-list",
        "max-size-list",
        "max-size-bool",
        "max-size-float",
        "delta-list",
        "delta-bool",
        "max-depth-float",
        "bool-limit-str",
        "manifest-ap-nested-list",
        "manifest-ap-int-name",
    ],
)
def test_malformed_json_exits_two(tmp_path, capsys, command, doc):
    (tmp_path / "chain.json").write_text(json.dumps(_ONE_STATE))
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    if command == "check":
        argv = ("check", "--model", str(path), "--formula", "F(a)")
    else:
        argv = ("learn", "--sample", str(path))
    rc, _, err = run(capsys, *argv)
    assert rc == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# check


@pytest.fixture
def branch_json(tmp_path):
    path = tmp_path / "branch.json"
    path.write_text(dtmc_to_json(reach_chain(0.3)))
    return path


def test_check_reach_formula(branch_json, capsys):
    rc, out, err = run(
        capsys, "check", "--model", str(branch_json), "--formula", "F(a)"
    )
    assert rc == 0
    assert out.splitlines() == [
        "state 0: 0.300000000",
        "state 1: 1.000000000",
        "state 2: 0.000000000",
        "v_I = 0.300000000",
    ]
    assert err == ""


def test_check_complement_formula(branch_json, capsys):
    rc, out, _ = run(
        capsys, "check", "--model", str(branch_json), "--formula", "G(!a)"
    )
    assert rc == 0
    assert out.splitlines()[-1] == "v_I = 0.700000000"


def test_check_sure_reachability(tmp_path, capsys):
    retry = tmp_path / "retry.json"
    retry.write_text(
        json.dumps(
            {
                "states": 2,
                "init": 0,
                "ap": ["a"],
                "labels": {"1": ["a"]},
                "transitions": [[0, 0, 0.5], [0, 1, 0.5], [1, 1, 1.0]],
            }
        )
    )
    rc, out, _ = run(capsys, "check", "--model", str(retry), "--formula", "F(a)")
    assert rc == 0
    assert out.splitlines()[-1] == "v_I = 1.000000000"


def test_check_prism_autodetects_lab(tmp_path, capsys):
    tra, lab = dtmc_to_prism(reach_chain(0.3))
    (tmp_path / "m.tra").write_text(tra)
    (tmp_path / "m.lab").write_text(lab)
    rc, out, _ = run(
        capsys, "check", "--model", str(tmp_path / "m.tra"), "--formula", "X(a)"
    )
    assert rc == 0
    assert out.splitlines()[-1] == "v_I = 0.300000000"


def test_check_prism_explicit_lab_flag(tmp_path, capsys):
    tra, lab = dtmc_to_prism(reach_chain(0.3))
    (tmp_path / "m.tra").write_text(tra)
    (tmp_path / "labels.txt").write_text(lab)
    rc, out, _ = run(
        capsys,
        "check",
        "--model",
        str(tmp_path / "m.tra"),
        "--formula",
        "F(a)",
        "--lab",
        str(tmp_path / "labels.txt"),
    )
    assert rc == 0
    assert out.splitlines()[-1] == "v_I = 0.300000000"


def test_check_rejects_bad_formula(branch_json, capsys):
    rc, _, err = run(
        capsys, "check", "--model", str(branch_json), "--formula", "!(a U b)"
    )
    assert rc == 2
    assert err.startswith("error:")
    assert "(a U b)" in err


@pytest.mark.parametrize(
    "formula",
    ["X(" * 3000 + "a" + ")" * 3000, "!" * 3000 + "a", "F(" * 900 + "a" + ")" * 900],
    ids=["next-3000", "not-3000", "finally-900"],
)
def test_check_rejects_deeply_nested_formula(branch_json, capsys, formula):
    rc, _, err = run(capsys, "check", "--model", str(branch_json), "--formula", formula)
    assert rc == 2
    assert err.startswith("error: formula nested too deeply")
    assert "Traceback" not in err


def test_check_rejects_bad_model(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"states": 1}')
    rc, _, err = run(capsys, "check", "--model", str(bad), "--formula", "F(a)")
    assert rc == 2
    assert "missing key" in err


def test_check_missing_model_file(tmp_path, capsys):
    rc, _, err = run(
        capsys, "check", "--model", str(tmp_path / "ghost.json"), "--formula", "F(a)"
    )
    assert rc == 2
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# benchgen


def test_benchgen_writes_loadable_chains(tmp_path, capsys):
    out = tmp_path / "u"
    rc, stdout, _ = run(capsys, "benchgen", "--name", "until", "--out", str(out))
    assert rc == 0
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["generator"] == {"name": "until", "seed": 0}
    assert doc["params"] == {"max_size": 4, "max_depth": 2, "delta": 0.05}
    for side in ("positive", "negative"):
        assert len(doc[side]) == 2
        for entry in doc[side]:
            parse_json_dtmc((out / entry["path"]).read_text())


def test_benchgen_prism_format(tmp_path, capsys):
    out = tmp_path / "g"
    rc, _, _ = run(
        capsys, "benchgen", "--name", "reach", "--out", str(out), "--format", "prism"
    )
    assert rc == 0
    doc = json.loads((out / "manifest.json").read_text())
    entry = doc["positive"][0]
    assert entry["format"] == "prism-explicit"
    assert (out / entry["tra"]).exists() and (out / entry["lab"]).exists()


def test_benchgen_seed_changes_files(tmp_path, capsys):
    rc, _, _ = run(capsys, "benchgen", "--name", "reach", "--out", str(tmp_path / "s0"))
    assert rc == 0
    rc, _, _ = run(
        capsys, "benchgen", "--name", "reach", "--out", str(tmp_path / "s7"), "--seed", "7"
    )
    assert rc == 0
    a = (tmp_path / "s0" / "neg_0.json").read_text()
    b = (tmp_path / "s7" / "neg_0.json").read_text()
    assert a != b


def test_benchgen_rejects_unknown_name(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["benchgen", "--name", "mystery", "--out", str(tmp_path)])
    assert "invalid choice" in capsys.readouterr().err


def test_benchgen_learn_pipeline_until(tmp_path, capsys):
    out = tmp_path / "u"
    run(capsys, "benchgen", "--name", "until", "--out", str(out))
    rc, stdout, _ = run(capsys, "learn", "--sample", str(out / "manifest.json"))
    assert rc == 0
    assert stdout == "P>0.65625 [(!a U b)]  margin=0.437500\n"


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as e:
        main(["learn"])
    assert e.value.code == 2
