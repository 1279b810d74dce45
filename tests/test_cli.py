import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pltl_learn.benchgen import reach_chain, write_sample
from pltl_learn import cli
from pltl_learn.cli import build_parser, main
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


def test_learn_huge_depth_bound_reports_exhaustion(tmp_path, capsys):
    m = reach_chain(0.5)
    write_sample(Sample.build([m], [m]), tmp_path)
    rc, out, err = run(
        capsys, "learn", "--sample", str(tmp_path / "manifest.json"),
        "-K", "4", "-D", "1000000000",
    )
    assert rc == 1
    assert out == ""
    assert "no formula in the search space (K=4, D=1000000000, delta=0.05)" in err


def test_learn_threshold_on_a_value_reports_exhaustion(tmp_path, capsys):
    # F(a) and X(a) read 1 - 2**-53 on the negatives, whose midpoint
    # with 1 rounds to 1.0: no threshold, so no atom, sits there.
    negative = reach_chain(1 - 2**-53)
    write_sample(Sample.build([reach_chain(1.0)], [negative, negative]), tmp_path)
    rc, out, err = run(
        capsys, "learn", "--sample", str(tmp_path / "manifest.json"), "-K", "2", "-D", "1"
    )
    assert rc == 1
    assert out == ""
    assert err == "no formula in the search space (K=2, D=1, delta=0.05)\n"


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


def test_learn_stats_print_on_exit_one(safety_dir, capsys):
    rc, out, err = run(
        capsys, "learn", "--sample", str(safety_dir / "manifest.json"), "-K", "1", "--stats"
    )
    assert rc == 1
    assert out == ""
    lines = err.splitlines()
    assert lines[:-1] == [
        "no formula in the search space (K=1, D=2, delta=0.05)",
        "stats: constructed=2 pruned_temporal=0 pruned_boolean=0 checked=2 discarded=0"
        " pooled=0 combos_tried=0 engine_calls=8",
        "stats[size 1]: constructed=2 pruned_temporal=0 pruned_boolean=0 checked=2 discarded=0 pooled=0",
    ]
    assert lines[-1].startswith("stats[phase]: ")


_STATS = {
    "reach": [
        "stats: constructed=8 pruned_temporal=0 pruned_boolean=0 checked=8 discarded=0"
        " pooled=0 combos_tried=0 engine_calls=16",
        "stats[size 1]: constructed=2 pruned_temporal=0 pruned_boolean=0 checked=2 discarded=0 pooled=0",
        "stats[size 2]: constructed=6 pruned_temporal=0 pruned_boolean=0 checked=6 discarded=0 pooled=0",
    ],
    "safety": [
        "stats: constructed=8 pruned_temporal=0 pruned_boolean=0 checked=8 discarded=0"
        " pooled=0 combos_tried=0 engine_calls=32",
        "stats[size 1]: constructed=2 pruned_temporal=0 pruned_boolean=0 checked=2 discarded=0 pooled=0",
        "stats[size 2]: constructed=6 pruned_temporal=0 pruned_boolean=0 checked=6 discarded=0 pooled=0",
    ],
    "conjunction": [
        "stats: constructed=252 pruned_temporal=12 pruned_boolean=32 checked=208 discarded=46"
        " pooled=69 combos_tried=4 engine_calls=832",
        "stats[size 1]: constructed=4 pruned_temporal=0 pruned_boolean=0 checked=4 discarded=0 pooled=0",
        "stats[size 2]: constructed=12 pruned_temporal=0 pruned_boolean=0 checked=12 discarded=4 pooled=4",
        "stats[size 3]: constructed=72 pruned_temporal=12 pruned_boolean=32 checked=28 discarded=8 pooled=10",
        "stats[size 4]: constructed=164 pruned_temporal=0 pruned_boolean=0 checked=164 discarded=34 pooled=55",
    ],
    "until": [
        "stats: constructed=88 pruned_temporal=12 pruned_boolean=32 checked=44 discarded=4"
        " pooled=2 combos_tried=0 engine_calls=176",
        "stats[size 1]: constructed=4 pruned_temporal=0 pruned_boolean=0 checked=4 discarded=0 pooled=0",
        "stats[size 2]: constructed=12 pruned_temporal=0 pruned_boolean=0 checked=12 discarded=4 pooled=2",
        "stats[size 3]: constructed=72 pruned_temporal=12 pruned_boolean=32 checked=28 discarded=0 pooled=0",
    ],
    "gridworld": [
        "stats: constructed=16 pruned_temporal=0 pruned_boolean=0 checked=16 discarded=0"
        " pooled=0 combos_tried=0 engine_calls=32",
        "stats[size 1]: constructed=4 pruned_temporal=0 pruned_boolean=0 checked=4 discarded=0 pooled=0",
        "stats[size 2]: constructed=12 pruned_temporal=0 pruned_boolean=0 checked=12 discarded=0 pooled=0",
    ],
}


@pytest.mark.parametrize("name", sorted(_STATS))
def test_learn_stats_lines_per_family(tmp_path, capsys, name):
    # Conjunction is the one family whose search pools and combines.
    rc, _, _ = run(capsys, "benchgen", "--name", name, "--out", str(tmp_path))
    assert rc == 0
    rc, _, err = run(capsys, "learn", "--sample", str(tmp_path / "manifest.json"), "--stats")
    assert rc == 0
    lines = err.splitlines()
    assert lines[-1].startswith("stats[phase]: ")
    assert lines[:-1] == _STATS[name]


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name", sorted(_STATS))
def test_learn_prism_manifest_matches_json(tmp_path, capsys, name, seed):
    # Everything learn prints but the phase times, from each format's manifest.
    outputs = []
    for fmt in ("json", "prism"):
        out = tmp_path / fmt
        argv = ("benchgen", "--name", name, "--out", str(out), "--seed", str(seed), "--format", fmt)
        assert run(capsys, *argv)[0] == 0
        rc, stdout, err = run(capsys, "learn", "--sample", str(out / "manifest.json"), "--stats")
        assert rc == 0
        assert err.splitlines()[-1].startswith("stats[phase]: ")
        outputs.append((stdout, err.splitlines()[:-1]))
    assert outputs[0] == outputs[1]


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
    assert err.startswith("error: bad manifest JSON: Expecting property name")


def _labelled_chain(names, p):
    # State 1 holds every name and is reached from state 0 with mass p.
    return {
        "states": 3,
        "init": 0,
        "ap": names,
        "labels": {"1": names},
        "transitions": [[0, 1, p], [0, 2, 1.0 - p], [1, 1, 1.0], [2, 2, 1.0]],
    }


def _write_labelled_sample(tmp_path, names, ap=None):
    (tmp_path / "pos.json").write_text(json.dumps(_labelled_chain(names, 0.75)))
    (tmp_path / "neg.json").write_text(json.dumps(_labelled_chain(names, 0.25)))
    doc = {
        "positive": [{"format": "json", "path": "pos.json"}],
        "negative": [{"format": "json", "path": "neg.json"}],
        "params": {"max_size": 2},
    }
    if ap is not None:
        doc["ap"] = ap
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    return tmp_path / "manifest.json"


@pytest.mark.parametrize("name", ["a&b", "F", "x y"])
def test_learn_rejects_a_proposition_a_formula_cannot_name(tmp_path, capsys, name):
    # F(a&b) would print for the state labelled "a&b", and read back as
    # F((a & b)); F(F) would not read back at all.
    rc, out, err = run(capsys, "learn", "--sample", str(_write_labelled_sample(tmp_path, [name])))
    assert rc == 2
    assert out == ""
    assert err == f"error: proposition {name!r} is not a name a formula can use\n"


def test_learn_projects_a_bad_name_away(tmp_path, capsys):
    manifest = _write_labelled_sample(tmp_path, ["a&b", "b"], ap=["b"])
    rc, out, _ = run(capsys, "learn", "--sample", str(manifest))
    assert rc == 0
    assert out.splitlines() == ["P>0.5 [F(b)]  margin=0.500000", "P>0.5 [X(b)]  margin=0.500000"]


_ONE_STATE = {"states": 1, "init": 0, "ap": [], "labels": {}, "transitions": [[0, 0, 1.0]]}
# Eleven states, so label keys that int() reads as 3, 5 or 10 name one.
_RING = {
    "states": 11,
    "init": 0,
    "ap": ["a"],
    "labels": {},
    "transitions": [[s, (s + 1) % 11, 1.0] for s in range(11)],
}
_ENTRY = {"format": "json", "path": "chain.json"}
# Past the 4300 digits int() converts from a string by default.
_HUGE = "1" * 5000
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
        ("learn", _manifest({"max_size": None})),
        ("learn", _manifest({"max_size": 1, "max_depth": None})),
        ("learn", _manifest({"max_size": 1, "delta": None})),
        ("learn", _manifest({"max_size": 1, "bool_limit": None})),
        ("learn", {**_manifest({"max_size": 1}), "ap": [[1]]}),
        ("learn", {**_manifest({"max_size": 1}), "ap": [1]}),
        ("learn", _manifest({"max_size": 4, "max_depht": 0, "detla": 0.09})),
        ("learn", {"positive": [{"format": "json"}], "negative": [_ENTRY]}),
        ("learn", {"positive": [{"format": "prism-explicit", "tra": "chain.json"}], "negative": [_ENTRY]}),
        ("check", {**_ONE_STATE, "states": 10**15}),
        ("check", {**_ONE_STATE, "transitions": [[0.9, 0, 1.0]]}),
        ("check", {**_ONE_STATE, "transitions": [[False, 0, 1.0]]}),
        ("check", {**_ONE_STATE, "transitions": [[0, False, 1.0]]}),
        ("check", {**_ONE_STATE, "transitions": [[0, 0, "1"]]}),
        ("check", {**_ONE_STATE, "transitions": [[0, 0, True]]}),
        ("check", {**_ONE_STATE, "transitions": [[0, 0, 10**400]]}),
        ("check", {**_ONE_STATE, "ap": [1]}),
        ("check", {**_ONE_STATE, "ap": ["1"], "labels": {"0": [1]}}),
        ("check", {**_ONE_STATE, "labels": {"0": [], "00": []}}),
        ("check", {**_RING, "labels": {"1_0": ["a"]}}),
        ("check", {**_RING, "labels": {" 3 ": ["a"]}}),
        ("check", {**_RING, "labels": {"+5": ["a"]}}),
        ("check", {**_RING, "labels": {"03": ["a"]}}),
        ("check", {**_RING, "labels": {"\uff13": ["a"]}}),
        ("check", {**_RING, "labels": {"1" * 5000: ["a"]}}),
        ("check", json.dumps(_ONE_STATE).replace('"states": 1,', f'"states": {_HUGE},')),
        ("check", json.dumps(_ONE_STATE).replace("[0, 0, 1.0]", f"[0, 0, {_HUGE}]")),
        ("check", "[" * 200_000),
        ("learn", "[" * 200_000),
        ("check", b"\xff\xfe"),
        ("learn", b"\xff\xfe"),
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
        "max-size-null",
        "max-depth-null",
        "delta-null",
        "bool-limit-null",
        "manifest-ap-nested-list",
        "manifest-ap-int-name",
        "params-unknown-key",
        "entry-path-missing",
        "entry-lab-missing",
        "states-huge",
        "row-float-src",
        "row-bool-src",
        "row-bool-dst",
        "row-str-prob",
        "row-bool-prob",
        "row-prob-past-float-range",
        "chain-ap-int-name",
        "label-int-name",
        "label-state-twice",
        "label-key-underscore",
        "label-key-spaces",
        "label-key-plus",
        "label-key-leading-zero",
        "label-key-fullwidth-digit",
        "label-key-too-long-for-int",
        "states-past-digit-limit",
        "row-prob-past-digit-limit",
        "chain-nested",
        "manifest-nested",
        "chain-not-utf8",
        "manifest-not-utf8",
    ],
)
def test_malformed_json_exits_two(tmp_path, capsys, command, doc):
    (tmp_path / "chain.json").write_text(json.dumps(_ONE_STATE))
    path = tmp_path / "doc.json"
    # A string is the file's raw text, and bytes its raw bytes.
    if isinstance(doc, bytes):
        path.write_bytes(doc)
    else:
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    if command == "check":
        argv = ("check", "--model", str(path), "--formula", "F(a)")
    else:
        argv = ("learn", "--sample", str(path))
    rc, _, err = run(capsys, *argv)
    assert rc == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("key", ["path", "tra", "lab"])
def test_chain_entry_missing_key_is_named(tmp_path, capsys, key):
    entry = _ENTRY if key == "path" else _PRISM_ENTRY
    doc = {"positive": [{k: v for k, v in entry.items() if k != key}], "negative": [_ENTRY]}
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    rc, _, err = run(capsys, "learn", "--sample", str(tmp_path / "manifest.json"))
    assert rc == 2
    assert err == f"error: chain entry lacks {key!r}\n"


def test_key_error_inside_learn_escapes_main(safety_dir, monkeypatch):
    # A KeyError from inside the search is a bug, not bad input: main
    # must not turn it into exit 2.
    def broken(sample, config):
        raise KeyError("bug")

    monkeypatch.setattr(cli, "learn", broken)
    with pytest.raises(KeyError, match="bug"):
        main(["learn", "--sample", str(safety_dir / "manifest.json")])


def test_prism_state_count_above_transitions_exits_two(tmp_path, capsys):
    # Rejected before one label set per declared state is built.
    (tmp_path / "m.tra").write_text("1000000000000000 1\n0 0 1.0\n")
    (tmp_path / "m.lab").write_text('0="init"\n0: 0\n')
    rc, _, err = run(capsys, "check", "--model", str(tmp_path / "m.tra"), "--formula", "F(a)")
    assert rc == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "tra, lab, message",
    [
        ("2 2\n0 1 0.2_5\n1 1 1.0\n", '0="init"\n0: 0\n', "bad .tra line '0 1 0.2_5'"),
        ("2 2\n0 1 1.0\n1 1 1.0\n", '0="init" 1="a"\n0: 0\nx: 1\n', "bad .lab line 'x: 1'"),
        (
            "2 2\n0 1 1.0\n1 1 1.0\n",
            '0="init" 1="a" 1="b"\n0: 0\n',
            "label id 1 declared twice in '0=\"init\" 1=\"a\" 1=\"b\"'",
        ),
    ],
    ids=["prob-underscore", "state-word", "id-twice"],
)
def test_malformed_prism_exits_two_naming_the_line(tmp_path, capsys, tra, lab, message):
    (tmp_path / "m.tra").write_text(tra)
    (tmp_path / "m.lab").write_text(lab)
    rc, out, err = run(capsys, "check", "--model", str(tmp_path / "m.tra"), "--formula", "F(a)")
    assert rc == 2
    assert out == ""
    assert err == f"error: {message}\n"


# State 0 leaves its self-loop with mass 2e-13, so its row of the linear
# system for F(a) has no pivot above the solver's 1e-12.
_NEAR_ABSORBING = {
    "states": 3,
    "init": 0,
    "ap": ["a"],
    "labels": {"1": ["a"]},
    "transitions": [[0, 0, 0.9999999999998], [0, 1, 1e-13], [0, 2, 1e-13], [1, 1, 1.0], [2, 2, 1.0]],
}


def test_check_singular_system_exits_two(tmp_path, capsys):
    (tmp_path / "chain.json").write_text(json.dumps(_NEAR_ABSORBING))
    rc, out, err = run(capsys, "check", "--model", str(tmp_path / "chain.json"), "--formula", "F(a)")
    assert rc == 2
    assert out == ""
    assert err == "error: no usable pivot in column 0\n"


def test_learn_engine_failure_exits_two(tmp_path, capsys):
    (tmp_path / "chain.json").write_text(json.dumps(_NEAR_ABSORBING))
    (tmp_path / "one.json").write_text(json.dumps(_ONE_STATE))
    doc = {"positive": [_ENTRY], "negative": [{"format": "json", "path": "one.json"}]}
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    rc, out, err = run(capsys, "learn", "--sample", str(tmp_path / "manifest.json"), "-K", "2")
    assert rc == 2
    assert out == ""
    assert err == "error: engine failure on F(a) over positive chain 0: no usable pivot in column 0\n"


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


def test_text_io_names_its_encoding(tmp_path):
    # With an unnamed text encoding an error, every file read and written
    # must name UTF-8 rather than fall back to the locale's codec.
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    python = [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning"]
    js, pr = tmp_path / "json", tmp_path / "prism"
    for argv in [
        ("benchgen", "--name", "safety", "--out", str(js)),
        ("benchgen", "--name", "safety", "--out", str(pr), "--format", "prism"),
        ("learn", "--sample", str(js / "manifest.json")),
        ("learn", "--sample", str(pr / "manifest.json")),
        ("check", "--model", str(js / "pos_0.json"), "--formula", "G(!h)"),
        ("check", "--model", str(pr / "pos_0.tra"), "--formula", "G(!h)"),
    ]:
        proc = subprocess.run(
            [*python, "-m", "pltl_learn.cli", *argv],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, (argv, proc.stderr)


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as e:
        main(["learn"])
    assert e.value.code == 2


def test_main_builds_its_parser_once(monkeypatch, capsys, tmp_path):
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    try:
        for k in range(2):
            rc, _, _ = run(capsys, "benchgen", "--name", "safety", "--out", str(tmp_path / str(k)))
            assert rc == 0
        with pytest.raises(SystemExit) as e:
            main(["learn"])
        assert e.value.code == 2
        rc, out, _ = run(capsys, "learn", "--sample", str(tmp_path / "0" / "manifest.json"))
        assert (rc, out) == (0, "P>0.605957 [G(!h)]  margin=0.430664\n")
        assert built == [1]
    finally:
        cli._parser.cache_clear()


@pytest.mark.parametrize("command", [[], ["learn"], ["check"], ["benchgen"]])
def test_help_text_matches_a_fresh_parser(capsys, command):
    with pytest.raises(SystemExit) as e:
        build_parser().parse_args([*command, "--help"])
    assert e.value.code == 0
    fresh = capsys.readouterr().out
    assert "usage: pltl-learn" in fresh
    for _ in range(2):
        with pytest.raises(SystemExit) as e:
            main([*command, "--help"])
        assert e.value.code == 0
        assert capsys.readouterr().out == fresh
