"""Command-line interface: formats, exit codes, manifests, determinism."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import pytest

import fsglab
from fsglab import predictors
from fsglab.cli import main
from fsglab.gadgets import build_gadget, desk_params


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with open("p3.json", "w") as fh:
        json.dump({"n": 3, "edges": [[0, 1], [1, 2]]}, fh)
    with open("edge12.json", "w") as fh:
        json.dump({"n": 2, "edges": [[0, 1]], "mult": [1, 2]}, fh)
    with open("iso.json", "w") as fh:
        json.dump({
            "model": "gnp", "n": 6, "p_grid": [0.0, 0.5, 1.0],
            "trials": 3, "base_seed": 11, "statistic": "isolated-vertex",
        }, fh)
    return tmp_path


def test_components_fs(workdir, capsys):
    assert main(["components", "--x", "p3.json", "--y", "p3.json",
                 "--variant", "fs"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["components"] == [3, 3]


def test_components_fsm_fig3(workdir, capsys):
    assert main(["components", "--x", "p3.json", "--y", "edge12.json",
                 "--variant", "fsm"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["components"] == [3]


def test_components_generators_and_budget(workdir, capsys):
    assert main(["components", "--x", "path:3", "--y", "cycle:3"]) == 0
    capsys.readouterr()
    assert main(["components", "--x", "path:6", "--y", "path:6",
                 "--budget", "100"]) == 3


@pytest.mark.parametrize("variant, x, y, digest", [
    ("fs", "path:7", "cycle:7",
     "26fef189efa411708060acc792e466e821ed636a0166ff8ea2d2bf53e662e47c"),
    ("fsm", "cycle:7", {"n": 3, "edges": [[0, 1], [1, 2]], "mult": [3, 2, 2]},
     "1328f34abb2132577072e99d5b89047c0aed5e3d9764add4552759630c09a11d"),
    ("fsmm", {"n": 3, "edges": [[0, 1], [1, 2]], "mult": [2, 2, 2]},
     {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]], "mult": [3, 1, 1, 1]},
     "cda87c2ac63eb3d3b8d5236c741c18345ac1a70cdc7bfe0f9e1b0adc9fbeceae"),
])
def test_components_dump_ids_golden_digest(workdir, capsys, variant, x, y, digest):
    args = []
    for flag, g in (("--x", x), ("--y", y)):
        if isinstance(g, dict):
            with open(f"{flag[2:]}.json", "w") as fh:
                json.dump(g, fh)
            g = f"{flag[2:]}.json"
        args += [flag, g]
    assert main(["components", *args, "--variant", variant, "--dump-ids"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_components_dump_ids_streams_to_out_and_manifest(workdir):
    # FS(P7, C7) has 5,040 members, written in two pieces
    assert main(["components", "--x", "path:7", "--y", "cycle:7",
                 "--dump-ids", "--out", "ids.json"]) == 0
    digest = hashlib.sha256(open("ids.json", "rb").read()).hexdigest()
    assert digest == \
        "26fef189efa411708060acc792e466e821ed636a0166ff8ea2d2bf53e662e47c"
    manifest = json.load(open("ids.json.manifest.json"))
    assert manifest["output_digest"] == "sha256:" + digest


def test_components_bad_json(workdir):
    with open("bad.json", "w") as fh:
        fh.write("{nope")
    assert main(["components", "--x", "bad.json", "--y", "p3.json"]) == 2


def test_predict_cor511(workdir, capsys):
    assert main(["predict", "--theorem", "cor511", "--x", "edge12.json",
                 "--check"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["agree"] is True


def test_predict_path_count_check(workdir, capsys):
    assert main(["predict", "--theorem", "path-count", "--x", "edge12.json",
                 "--check"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["predicted"] == 1 and out["oracle"] == 1


def test_predict_thm16(workdir, capsys):
    with open("star.json", "w") as fh:
        json.dump({"n": 3, "edges": [[0, 1], [0, 2]], "mult": [2, 1, 1]}, fh)
    assert main(["predict", "--theorem", "thm16", "--x", "path:4",
                 "--star", "star.json", "--check"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["predicted"] is False and out["agree"] is True


@pytest.mark.parametrize("theorem, x, expected", [
    ("thm14", "path:4", False),
    ("thm16", "star:4", True),
    ("cor511", "cycle:5", False),
    ("path-count", "path:4", 8),
    ("cycle-count", "cycle:5", 20),
    ("cycle-count", "path:4", 4),
])
def test_predict_check_every_theorem(workdir, capsys, theorem, x, expected):
    argv = ["predict", "--theorem", theorem, "--x", x, "--check"]
    if theorem == "thm16":
        with open("star.json", "w") as fh:
            json.dump({"n": 3, "edges": [[0, 1], [0, 2]], "mult": [2, 1, 1]}, fh)
        argv += ["--star", "star.json"]
    assert main(argv) == 0
    payload = {"theorem": theorem, "predicted": expected, "oracle": expected,
               "agree": True}
    assert capsys.readouterr().out == json.dumps(payload, sort_keys=True) + "\n"


def test_predict_check_disagreement_exits_4(workdir, capsys, monkeypatch):
    theorem = predictors.THEOREMS["path-count"]
    monkeypatch.setitem(predictors.THEOREMS, "path-count",
                        dataclasses.replace(theorem, predict=lambda x: 0))
    assert main(["predict", "--theorem", "path-count", "--x", "edge12.json",
                 "--check"]) == 4
    out = capsys.readouterr()
    assert out.err == "disagreement between predictor and oracle\n"
    assert json.loads(out.out) == {"theorem": "path-count", "predicted": 0,
                                   "oracle": 1, "agree": False}


def test_predict_unknown_theorem(workdir):
    with pytest.raises(SystemExit):
        main(["predict", "--theorem", "thm99", "--x", "p3.json"])


def test_verify_bundled_family(workdir, capsys):
    assert main(["verify", "thm51-small", "--out", "verdicts.jsonl"]) == 0
    rows = [json.loads(line) for line in open("verdicts.jsonl")]
    assert rows and all(r["agree"] for r in rows)


def test_verify_spec_file(workdir, capsys):
    with open("fam.json", "w") as fh:
        json.dump({"family": "thm14-small", "max_n": 3, "total_max": 4}, fh)
    assert main(["verify", "fam.json", "--out", "v.jsonl"]) == 0


@pytest.mark.parametrize("family, verdicts, digest", [
    ("thm51-small", 281,
     "f664fed5d24010ae5cbd362418964e711f0d6d5c84343f72d348555292bc8d0b"),
    ("thm55-small", 277,
     "c2ccf5cefa797e0b3478c8776c28c476b0309ef3c5f329d580ccf3dfeac46427"),
    ("cor511-small", 277,
     "fc054022a13120b81874f7c5bdde0a9b6a2fa06d607820f43da82ef19acd5870"),
    ({"family": "thm51-small", "total_max": 8}, 1058,
     "a2118acdc259aab54a62df295d6e941eb13d755b55754c4113cd04c49b47a151"),
    ({"family": "thm55-small", "total_max": 7}, 570,
     "35f82c7f7b89310e9644d08fdcbb08342f7655733af981f8928cbd474fbcdca5"),
    ({"family": "thm55-small", "total_max": 8}, 1054,
     "3bac9a5fe59572d80e27dc04fe805e6d81493acb0e85ff6626fed90f3cec1cad"),
], ids=["thm51-small", "thm55-small", "cor511-small", "thm51-total8", "thm55-total7",
        "thm55-total8"])
def test_verify_stdout_golden_digest(workdir, capsys, family, verdicts, digest):
    if isinstance(family, dict):
        with open("fam.json", "w") as fh:
            json.dump(family, fh)
        family = "fam.json"
    assert main(["verify", family]) == 0
    out = capsys.readouterr().out
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == verdicts and all(r["agree"] for r in rows)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_verify_missing_spec(workdir):
    assert main(["verify", "nonexistent.json"]) == 2


@pytest.mark.parametrize("spec", [
    [{"family": "thm14-small"}],
    {"family": "thm16-small", "total_max": 3},
    {"family": "cut-bound-small", "max_n": 3},
    {"family": "thm14-small", "max_n": 0},
    {"family": "thm14-small", "max_n": None},
    {"family": "thm14-small", "maxn": 3},
    {"family": "thm14-small", "max_n": True},
    {"family": "thm14-small", "total_max": "3"},
], ids=["list", "thm16-total_max", "cut-bound-max_n", "zero", "null",
        "misspelled", "bool", "string"])
def test_verify_rejects_bad_spec(workdir, capsys, spec):
    with open("fam.json", "w") as fh:
        json.dump(spec, fh)
    assert main(["verify", "fam.json"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def _two_counterexamples(monkeypatch):
    """A spec file whose two verdicts both disagree: the path-count
    predictor is patched to answer 0."""
    theorem = predictors.THEOREMS["path-count"]
    monkeypatch.setitem(predictors.THEOREMS, "path-count",
                        dataclasses.replace(theorem, predict=lambda x: 0))
    with open("fam.json", "w") as fh:
        json.dump({"family": "thm51-small", "max_n": 1, "total_max": 2}, fh)


def test_verify_counterexamples_beside_out(workdir, monkeypatch):
    _two_counterexamples(monkeypatch)
    os.mkdir("runs")
    assert main(["verify", "fam.json", "--out", "runs/v.jsonl"]) == 4
    rows = [json.loads(line) for line in open("runs/v.jsonl")]
    assert len(rows) == 2 and not any(r["agree"] for r in rows)
    assert sorted(os.listdir("runs")) == [
        "v.jsonl", "v.jsonl.counterexample-0.json",
        "v.jsonl.counterexample-1.json", "v.jsonl.manifest.json",
    ]
    assert json.load(open("runs/v.jsonl.counterexample-1.json")) == rows[1]
    assert not [f for f in os.listdir(".") if f.startswith("counterexample")]


def test_verify_counterexamples_in_working_directory_without_out(
        workdir, monkeypatch, capsys):
    _two_counterexamples(monkeypatch)
    assert main(["verify", "fam.json"]) == 4
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(rows) == 2
    assert sorted(f for f in os.listdir(".") if f.startswith("counterexample")) == [
        "counterexample-0.json", "counterexample-1.json"]
    assert json.load(open("counterexample-1.json")) == rows[1]


def test_sweep_deterministic_bytes(workdir):
    assert main(["sweep", "--config", "iso.json", "--out", "a.csv"]) == 0
    assert main(["sweep", "--config", "iso.json", "--out", "b.csv"]) == 0
    assert open("a.csv", "rb").read() == open("b.csv", "rb").read()
    manifest = json.loads(open("a.csv.manifest.json").read())
    assert manifest["subcommand"] == "sweep"
    assert manifest["output_digest"].startswith("sha256:")
    b = json.loads(open("b.csv.manifest.json").read())
    assert manifest["output_digest"] == b["output_digest"]


def test_sweep_bad_config(workdir):
    with open("bad.json", "w") as fh:
        json.dump({"model": "weird"}, fh)
    assert main(["sweep", "--config", "bad.json"]) == 2


ISO = {"model": "gnp", "n": 6, "p_grid": [0.0, 0.5, 1.0], "trials": 3,
       "base_seed": 11, "statistic": "isolated-vertex"}


@pytest.mark.parametrize("config, named", [
    ([1, 2], "JSON object"),
    ({**ISO, "p_grid": 0.5}, "'p_grid'"),
    ({**ISO, "p_grid": [0.5, "1"]}, "'p_grid'"),
    ({**ISO, "trials": "3"}, "'trials'"),
    ({**ISO, "trials": True}, "'trials'"),
    ({**ISO, "n": 6.0}, "'n'"),
    ({**ISO, "n": -2}, "'n'"),
    ({**ISO, "trials": 0}, "'trials'"),
    # a negative budget would censor every trial
    ({**ISO, "node_budget": -1}, "'node_budget' must be nonnegative"),
    ({**ISO, "state_budget": -1}, "'state_budget' must be nonnegative"),
    ({**ISO, "p_grid": [0.5, 1.5]}, "'p_grid'"),
    ({**ISO, "trails": 3}, "'trails'"),
    ({k: v for k, v in ISO.items() if k != "statistic"}, "'statistic'"),
], ids=["list", "p_grid-number", "p_grid-string", "trials-string",
        "trials-bool", "n-float", "n-negative", "trials-zero",
        "node_budget-negative", "state_budget-negative",
        "p_grid-range", "misspelled", "missing"])
def test_sweep_rejects_bad_config(workdir, capsys, config, named):
    with open("bad.json", "w") as fh:
        json.dump(config, fh)
    assert main(["sweep", "--config", "bad.json", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad sweep config: ") and named in err


def test_gadget_validate_pass_and_infeasible(workdir, capsys):
    assert main(["gadget", "--rho", "1", "--m", "8", "--validate"]) == 5
    capsys.readouterr()
    code = main(["gadget", "--rho", "1", "--m", "16", "--validate",
                 "--p3-samples", "20", "--out", "gadget.json"])
    payload = json.loads(open("gadget.json").read())
    checks = payload["validation"]["checks"]
    structural = [n for n in checks if n != "p4_edge_budget"]
    assert all(checks[n]["passed"] for n in structural)
    # the literal edge budget is incompatible with deletion robustness (see
    # test_c11_gadget_edge_budget_as_stated for the bound), so full
    # validation reports the disagreement exit code
    assert code == 4 and not checks["p4_edge_budget"]["passed"]


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_gadget_validate_rejects_fewer_than_one_p3_sample(workdir, capsys, samples):
    assert main(["gadget", "--rho", "1", "--m", "16", "--validate",
                 "--p3-samples", samples]) == 2
    assert "p3_samples must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("flags, seed", [
    (["--validate"], 0),
    (["--validate", "--seed", "7"], 7),
    ([], None),
])
def test_gadget_manifest_records_validation_seed(workdir, flags, seed):
    main(["gadget", "--rho", "2", "--m", "16", "--p3-samples", "5",
          "--out", "g.json"] + flags)
    assert json.load(open("g.json.manifest.json"))["seed"] == seed


@pytest.mark.parametrize("rho, digest", [
    (1, "970b7bc0e880fe120796a4dfae8e23d11654fd84181c65ef4ad560ed43fd3bcc"),
    (2, "e986f0a4fd04064fb7419955288ffb6038e9706cc98f5667a5d75c435d56d54c"),
    (3, "b51ec79000e36f21a26a979aece7b5a423d4722beeb091d5e74c6474db9a7c2f"),
    (4, "457bb9cc8da16bb71d3808aec642d6856c33f2ed42e6111108d3d64d9f43665f"),
])
def test_gadget_validate_golden_digest(tmp_path, monkeypatch, capsys, rho, digest):
    monkeypatch.chdir(tmp_path)
    assert main(["gadget", "--rho", str(rho), "--m", "16", "--validate",
                 "--seed", "0"]) == 4
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_stdout_run_writes_manifest_only_when_asked(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["components", "--x", "path:3", "--y", "path:3"]) == 0
    assert main(["predict", "--theorem", "thm14", "--x", "path:3"]) == 0
    assert os.listdir(".") == []
    assert main(["components", "--x", "path:3", "--y", "path:3",
                 "--manifest", "m.json"]) == 0
    assert os.listdir(".") == ["m.json"]
    out = capsys.readouterr().out.splitlines()[-1] + "\n"
    assert json.load(open("m.json"))["output_digest"] == \
        "sha256:" + hashlib.sha256(out.encode("utf-8")).hexdigest()


def test_gadget_dump(workdir):
    assert main(["gadget", "--rho", "3", "--m", "16", "--dump", "--out", "g.json"]) == 0
    payload = json.load(open("g.json"))
    assert payload["dump"] == build_gadget(desk_params(3, 16)).to_json_dict()
    assert len(payload["dump"]["g_edges"]) == payload["g_edges"]


def test_module_entry_point_prints_version():
    src = os.path.dirname(os.path.dirname(os.path.abspath(fsglab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run([sys.executable, "-m", "fsglab.cli", "--version"],
                         capture_output=True, text=True, env=env, timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (0, fsglab.__version__ + "\n", "")


def test_gadget_asymptotic_mode_infeasible_small(workdir):
    assert main(["gadget", "--rho", "1", "--m", "64", "--asymptotic"]) == 5


def test_manifest_written_next_to_output(workdir):
    assert main(["components", "--x", "p3.json", "--y", "p3.json",
                 "--out", "r.json"]) == 0
    m = json.loads(open("r.json.manifest.json").read())
    assert m["config"]["x"] == "p3.json"
    assert m["tool_version"]


def _json_error(text):
    try:
        json.loads(text)
    except json.JSONDecodeError as e:
        return str(e)


@pytest.mark.parametrize("argv, err", [
    (["components", "--x", "missing.json", "--y", "p3.json"],
     "error: graph input not found: missing.json\n"),
    (["predict", "--theorem", "thm16", "--x", "path:4"],
     "error: thm16 needs --star\n"),
    (["verify", "malformed.json"],
     f"error: bad family spec: {_json_error('{nope')}\n"),
    (["sweep", "--config", "malformed.json"],
     f"error: bad sweep config: {_json_error('{nope')}\n"),
    (["predict", "--theorem", "thm14", "--x", "edgeless:3"],
     "precondition violated: label graph must be connected\n"),
    (["predict", "--theorem", "thm16", "--x", "edge12.json", "--star", "star:3"],
     "error: thm16 takes a simple position graph for --x\n"),
], ids=["missing-graph", "thm16-without-star", "malformed-spec",
        "malformed-config", "precondition", "thm16-multiplicity-x"])
def test_bad_input_exits_2_with_one_stderr_line(workdir, capsys, argv, err):
    with open("malformed.json", "w") as fh:
        fh.write("{nope")
    assert main(argv + ["--out", "o.txt"]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", err)
    assert sorted(os.listdir(".")) == ["edge12.json", "iso.json",
                                        "malformed.json", "p3.json"]
