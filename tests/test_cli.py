"""End-to-end checks of the command-line interface.

Golden-file equality pins the exact ``--format json`` output of every
subcommand over the two shipped example configs, and further tests nail
down the exit-code contract (0 success, 1 validation or relation failure,
2 usage or parse errors) plus output determinism.
"""

import itertools
import json
import os
import pathlib
import shlex
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from twistcat.algebra import cyclic_group, point_gset
from twistcat.cli import SessionConfig, main
from twistcat.cohomology import UnitCochain
from twistcat.sixj import fusion_context

from sixj_dense import corrupted_fusion, dense_biedenharn_elliott

HERE = pathlib.Path(__file__).parent
GOLDEN = HERE / "golden"
EXAMPLES = HERE.parent / "docs" / "examples"

# (config stem, command line) -> golden file stem is derived mechanically.
BATTERY = [
    ("z2", "validate"),
    ("z2", "spherical"),
    ("z2", "classify M"),
    ("z2", "trace M"),
    ("z2", "trace B"),
    ("z2", "equiv M M"),
    ("z2", "enumerate-modcats regG --fusion F"),
    ("z2", "deligne B --inverse"),
    ("z2", "deligne BF --inverse"),
    ("z2", "classify-simple M M"),
    ("z2", "adjoint idM"),
    ("z2", "sixj-table fusion F"),
    ("z2", "verify orthogonality"),
    ("z2", "verify biedenharn-elliott"),
    ("z3", "validate"),
    ("z3", "enumerate-modcats reg"),
    ("z3", "classify-simple M M"),
    ("z3", "sixj-table s act0"),
    ("z3", "trace M"),
    ("z3", "verify orthogonality"),
    ("z3", "verify biedenharn-elliott"),
]


def _golden_path(cfg: str, cmd: str) -> pathlib.Path:
    slug = cmd.replace(" --", "_").replace(" ", "_").replace("-", "_")
    return GOLDEN / f"{cfg}_{slug}.json"


def _invoke(cfg_path, *args):
    runner = CliRunner()
    return runner.invoke(main, ["--config", str(cfg_path), *args],
                         catch_exceptions=False)


@pytest.mark.parametrize("cfg,cmd", BATTERY,
                         ids=[f"{c}:{m}" for c, m in BATTERY])
def test_golden_json_output(cfg, cmd):
    result = _invoke(EXAMPLES / f"{cfg}.json", "--format", "json",
                     *shlex.split(cmd))
    assert result.exit_code == 0, result.output
    expected = _golden_path(cfg, cmd).read_text()
    assert result.output == expected
    doc = json.loads(result.output)
    assert doc["ok"] is True
    assert doc["seed"] == 0


def test_module_entry_point_runs_cleanly():
    # ``python -m twistcat.cli`` must not import cli.py a second time as
    # twistcat.cli, which runpy reports on stderr
    src = str(HERE.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "twistcat.cli", "--config",
         str(EXAMPLES / "z2.json"), "--format", "json", "validate"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout == _golden_path("z2", "validate").read_text()


def test_every_config_kind_validates_in_process():
    # the fixture declares each documented kind the example configs leave
    # out: a table group, cosets and table G-sets, the cochain carrier and
    # slots fields, psi trivial, table and ref, from_deligne, equivariant
    # functors with both lam specs and a bimodule_explicit functor whose
    # matrices hold scalar objects
    fixtures = HERE / "fixtures"
    result = _invoke(fixtures / "every_kind.json", "--format", "json",
                     "validate")
    assert result.exit_code == 0, result.output
    assert result.output == (fixtures / "every_kind_validate.json").read_text()


def test_table_format_is_deterministic():
    first = _invoke(EXAMPLES / "z2.json", "validate")
    second = _invoke(EXAMPLES / "z2.json", "validate")
    assert first.exit_code == 0
    assert first.output == second.output
    assert "10 entities, 0 failures" in first.output


def test_seed_is_echoed():
    result = _invoke(EXAMPLES / "z3.json", "--format", "json", "--seed", "7",
                     "trace", "M")
    assert result.exit_code == 0
    assert json.loads(result.output)["seed"] == 7


# ---------------------------------------------------------------------------
# exit-code contract
# ---------------------------------------------------------------------------

def test_missing_config_file_exits_2(tmp_path):
    result = _invoke(tmp_path / "nope.json", "validate")
    assert result.exit_code == 2
    assert "parse error" in result.stderr


def test_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{{{")
    result = _invoke(bad, "validate")
    assert result.exit_code == 2
    assert "not valid JSON" in result.stderr


def test_unknown_section_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"widgets": {}}))
    result = _invoke(bad, "validate")
    assert result.exit_code == 2
    assert "unknown config sections" in result.stderr


def test_unresolved_reference_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "groups": {"G": {"type": "cyclic", "n": 2}},
        "gsets": {"X": {"type": "regular", "group": "NOPE"}},
    }))
    result = _invoke(bad, "validate")
    assert result.exit_code == 2
    assert "NOPE" in result.stderr


def test_non_cocycle_omega_exits_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "groups": {"G": {"type": "cyclic", "n": 2}},
        "cochains": {"w": {"type": "table", "group": "G", "degree": 3,
                           "root_order": 4,
                           "exponents": [0, 0, 0, 0, 0, 0, 0, 1]}},
        "fusions": {"F": {"group": "G", "omega": "w"}},
    }))
    result = _invoke(bad, "validate")
    assert result.exit_code == 1
    assert "not a 3-cocycle" in result.stderr
    assert "(g, h, k, l) = (1, 1, 1, 1)" in result.stderr


def _run_cli(cfg_path, *args) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter, so an uncaught error shows on stderr."""
    src = str(HERE.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run(
        [sys.executable, "-m", "twistcat.cli", "--config", str(cfg_path),
         *args], capture_output=True, text=True, env=env, timeout=120)


# a fusion over Z/3 and a regular G-set over Z/2
FOREIGN_CARRIER = {
    "groups": {"G": {"type": "cyclic", "n": 3},
               "H": {"type": "cyclic", "n": 2}},
    "gsets": {"regH": {"type": "regular", "group": "H"}},
    "cochains": {"omega1": {"type": "cyclic_rep", "group": "G", "s": 1}},
    "fusions": {"F": {"group": "G", "omega": "omega1"}},
}


@pytest.mark.parametrize("path", ["solve", "enumerate"])
def test_carrier_over_another_group_exits_1(tmp_path, path):
    doc = dict(FOREIGN_CARRIER)
    if path == "solve":
        doc["modcats"] = {"M": {"fusion": "F", "gset": "regH",
                                "psi": {"type": "solve"}}}
        args = ["validate"]
    else:
        args = ["enumerate-modcats", "regH"]
    cfg = tmp_path / "foreign.json"
    cfg.write_text(json.dumps(doc))
    proc = _run_cli(cfg, *args)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("validation error:")
    assert "carrier G-set is over the wrong group" in proc.stderr


def test_from_deligne_over_another_group_exits_1(tmp_path):
    # Z/12 x Z/12 against a module category over Z/2: the groups are compared
    # before any product twist over the 144 elements is built
    cfg = tmp_path / "mismatch.json"
    cfg.write_text(json.dumps({
        "groups": {"Z2": {"type": "cyclic", "n": 2},
                   "Z12": {"type": "cyclic", "n": 12}},
        "gsets": {"reg": {"type": "regular", "group": "Z2"}},
        "cochains": {"w2": {"type": "cyclic_rep", "group": "Z2", "s": 0},
                     "w12": {"type": "cyclic_rep", "group": "Z12", "s": 1}},
        "fusions": {"F2": {"group": "Z2", "omega": "w2"},
                    "F12": {"group": "Z12", "omega": "w12"}},
        "modcats": {"M": {"fusion": "F2", "gset": "reg",
                          "psi": {"type": "regular"}}},
        "bimodcats": {"B": {"type": "from_deligne", "modcat": "M",
                            "left": "F12", "right": "F12"}},
    }))
    proc = _run_cli(cfg, "validate")
    assert proc.returncode == 1
    assert proc.stderr == ("validation error: entity 'B': module category is "
                           "not over the product group\n")


@pytest.mark.parametrize("carrier", ["Z2", "Z6"])
def test_explicit_bimodcat_over_another_group_exits_1(tmp_path, carrier):
    # Z/2 x Z/3 against a point over Z/2, too small to restrict to the
    # factors, and over Z/6, of the right order but not the product encoding
    table = {"root_order": 1, "exponents": [0]}
    cfg = tmp_path / "carrier.json"
    cfg.write_text(json.dumps({
        "groups": {"Z2": {"type": "cyclic", "n": 2},
                   "Z3": {"type": "cyclic", "n": 3},
                   "Z6": {"type": "cyclic", "n": 6}},
        "gsets": {"pt": {"type": "point", "group": carrier}},
        "cochains": {"w2": {"type": "cyclic_rep", "group": "Z2", "s": 0},
                     "w3": {"type": "cyclic_rep", "group": "Z3", "s": 0}},
        "fusions": {"F2": {"group": "Z2", "omega": "w2"},
                    "F3": {"group": "Z3", "omega": "w3"}},
        "bimodcats": {"B": {"type": "explicit", "left": "F2", "right": "F3",
                            "gset": "pt", "psi": table, "phi": table,
                            "omega_mid": table}},
    }))
    proc = _run_cli(cfg, "validate")
    assert proc.returncode == 1
    assert proc.stderr == ("validation error: entity 'B': carrier must be a "
                           "G x H set (product encoding)\n")


@pytest.mark.parametrize("subgroup", [[0, 1], [0, 0], [0, 4]])
def test_cosets_of_a_non_subgroup_exit_1(tmp_path, subgroup):
    cfg = tmp_path / "cosets.json"
    cfg.write_text(json.dumps({
        "groups": {"Z4": {"type": "cyclic", "n": 4}},
        "gsets": {"cos": {"type": "cosets", "group": "Z4",
                          "subgroup": subgroup}},
    }))
    result = _invoke(cfg, "validate")
    assert result.exit_code == 1
    assert result.stderr == (f"validation error: entity 'cos': {subgroup} "
                             f"is not a subgroup\n")


def test_verify_prints_the_exact_failure_total(monkeypatch, tmp_path):
    # a config whose fusion carries a random, non-cocycle omega (constructed
    # past validation, which a parsed config never skips) fails more
    # Biedenharn-Elliott tuples than the report keeps as samples; the total
    # is counted with single-tuple sweeps of the dense reference
    grp = cyclic_group(3)
    exps = np.random.default_rng(3).integers(0, 3, size=(3, 3, 3, 1))
    bad = corrupted_fusion(grp, UnitCochain(3, point_gset(grp), 3, exps),
                           UnitCochain.trivial(1, point_gset(grp), 1))
    monkeypatch.setattr("twistcat.cli.parse_config",
                        lambda path: SessionConfig(fusions={"F": bad}))
    ctx = fusion_context(bad)
    total = sum(not dense_biedenharn_elliott(ctx, [tup]).ok
                for tup in itertools.product(range(3), repeat=5))
    assert total > 20

    table = _invoke(tmp_path / "bad.json", "verify", "biedenharn-elliott")
    assert table.exit_code == 1
    lines = table.output.splitlines()
    assert lines[0] == f"F: checked 243 identities, {total} failures"
    assert lines[-1] == f"checked 243 identities, {total} failures"
    doc = json.loads(_invoke(tmp_path / "bad.json", "--format", "json",
                             "verify", "biedenharn-elliott").output)
    assert doc["failures"] == total
    assert len(doc["results"][0]["failures"]) == 20


def _example_with(stem, edit):
    doc = json.loads((EXAMPLES / f"{stem}.json").read_text())
    edit(doc)
    return doc


# (config with one malformed scalar field, the entity the message names)
MALFORMED = {
    "root_order": (_example_with("z2", lambda d: d.update(root_order="x")),
                   "root_order"),
    "cyclic n": (_example_with(
        "z2", lambda d: d["groups"]["G"].update(n="x")), "'G'"),
    "exponent": (_example_with(
        "z2", lambda d: d["bimodcats"]["B"]["psi"].update(
            exponents=["a"] * 16)), "'B'"),
    "cosets subgroup": (_example_with("z2", lambda d: d["gsets"].update(
        cos={"type": "cosets", "group": "G", "subgroup": 5})), "'cos'"),
    "solve index": (_example_with(
        "z3", lambda d: d["modcats"]["M"]["psi"].update(index="q")), "'M'"),
    "matrix entry": (_example_with(
        "z2", lambda d: d["functors"]["idM"]["a"].update(
            {"1,1,1": [["1/0"]]})), "'idM'"),
    "A key": (_example_with(
        "z2", lambda d: d["functors"]["idM"]["a"].update(
            {"0,0,x": [[1]]})), "'idM'"),
    "scalar without coeffs": (_example_with(
        "z2", lambda d: d["functors"]["idM"]["a"].update(
            {"1,1,1": [[{"root_order": 2}]]})), "'idM'"),
    "scalar without root_order": (_example_with(
        "z2", lambda d: d["functors"]["idM"]["a"].update(
            {"1,1,1": [[{"coeffs": [1]}]]})), "'idM'"),
    "root_order below 1": (_example_with(
        "z2", lambda d: d.update(root_order=-1)), "root_order"),
    # past the bounds a root order or a cyclic group stalls the parse
    "scalar root_order too large": (_example_with(
        "z2", lambda d: d["functors"]["idM"]["a"].update(
            {"1,1,1": [[{"root_order": 10007, "coeffs": [1]}]]})), "'idM'"),
    "cochain root_order too large": (_example_with(
        "z2", lambda d: d["cochains"]["omega0H"].update(root_order=10007)),
        "'omega0H'"),
    "cyclic n too large": (_example_with(
        "z2", lambda d: d["groups"]["H"].update(n=100000)), "'H'"),
    # past its bound a fusion's omega check grows as |G|^4
    # the product group GH is made Z/2 x Z/2 in these two, so that its own
    # bound leaves the fusion's to be reached
    "cyclic fusion too large": (_example_with(
        "z2", lambda d: (d["groups"]["G"].update(n=37),
                         d["groups"]["GH"].update(left="H"))), "'F'"),
    "product fusion too large": (_example_with(
        "z2", lambda d: (d["groups"]["H"].update(n=19),
                         d["groups"]["GH"].update(right="G"))), "'FF'"),
    # past its bound a product group's table check grows as |G|^3
    "product group too large": (_example_with(
        "z2", lambda d: d["groups"]["H"].update(n=19)), "'GH'"),
    # past its bound a group table's associativity check grows as |G|^3
    "group table too large": ({"groups": {"T": {"type": "table", "table": [
        [(g + h) % 257 for h in range(257)] for g in range(257)]}}}, "'T'"),
    # past their bounds a cochain table and a G-set's check run out of memory
    "cochain table too large": ({
        "groups": {"G": {"type": "cyclic", "n": 256}},
        "cochains": {"c": {"type": "trivial", "degree": 4, "group": "G",
                           "root_order": 1}}}, "'c'"),
    "nested union too large": ({
        "groups": {"G": {"type": "cyclic", "n": 2}},
        "gsets": {"U0": {"type": "regular", "group": "G"}, **{
            f"U{i}": {"type": "union", "parts": [f"U{i - 1}"] * 2}
            for i in range(1, 25)}}}, "'U18'"),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_scalar_field_exits_2_naming_the_entity(case, tmp_path):
    doc, entity = MALFORMED[case]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    src = str(HERE.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "twistcat.cli", "--config", str(bad),
         "validate"], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("parse error:")
    assert entity in proc.stderr


@pytest.mark.parametrize("base", [99, -1])
def test_action_functor_base_point_out_of_range_exits_1(tmp_path, base):
    cfg = tmp_path / "base.json"
    cfg.write_text(json.dumps(_example_with(
        "z2", lambda d: d["functors"]["act0"].update(base=base))))
    result = _invoke(cfg, "validate")
    assert result.exit_code == 1
    assert result.stderr == (f"validation error: entity 'act0': base point "
                             f"{base} is outside 0..1\n")


@pytest.mark.parametrize("block,message", [
    ([[]], "matrix must have positive dimensions"),
    ([[1, 0], [1]], "rows have inconsistent lengths"),
])
def test_malformed_matrix_block_exits_1_naming_the_entity(tmp_path, block,
                                                          message):
    cfg = tmp_path / "block.json"
    cfg.write_text(json.dumps(_example_with(
        "z2", lambda d: d["functors"]["idM"]["a"].update({"0,0,0": block}))))
    result = _invoke(cfg, "validate")
    assert result.exit_code == 1
    assert result.stderr == f"validation error: entity 'idM': {message}\n"


def test_unknown_entity_argument_exits_2():
    result = _invoke(EXAMPLES / "z2.json", "classify", "NOPE")
    assert result.exit_code == 2
    assert "NOPE" in result.stderr


def test_unknown_sixj_kind_exits_2():
    result = _invoke(EXAMPLES / "z2.json", "sixj-table", "frobenius", "F")
    assert result.exit_code == 2
    assert "unknown kind" in result.stderr


def test_kind_not_offered_by_context_exits_2():
    # Fusion contexts have no bimodule-only symbol kinds.
    result = _invoke(EXAMPLES / "z2.json", "sixj-table", "m", "F")
    assert result.exit_code == 2
    assert "not defined for context" in result.stderr


def _clash_config(tmp_path):
    """z2.json with functor idM renamed to B, the name of its bimodcat."""
    doc = json.loads((EXAMPLES / "z2.json").read_text())
    doc["functors"]["B"] = doc["functors"].pop("idM")
    path = tmp_path / "clash.json"
    path.write_text(json.dumps(doc))
    return path


def test_sweep_checks_each_section_of_a_shared_id(tmp_path):
    # the bimodcat B (1536 checks) and the functor B (24 checks) each run
    # once, so the total is z2.json's
    result = _invoke(_clash_config(tmp_path), "--format", "json",
                     "verify", "orthogonality")
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert [(r["context"], r["checked"]) for r in doc["results"]
            if r["context"] == "B"] == [("B", 1536), ("B", 24)]
    assert doc["checked"] == 6448


def test_shared_id_as_explicit_ref_exits_2(tmp_path):
    result = _invoke(_clash_config(tmp_path), "verify", "orthogonality", "B")
    assert result.exit_code == 2
    assert "bimodcats and functors" in result.stderr


def test_missing_config_option_exits_2():
    runner = CliRunner()
    result = runner.invoke(main, ["validate"], catch_exceptions=False)
    assert result.exit_code == 2


def test_adjoint_rejects_bimodule_functor():
    result = _invoke(EXAMPLES / "z2.json", "adjoint", "BF")
    assert result.exit_code == 2
    assert "deligne" in result.stderr


# Runs in a fresh interpreter: every golden command and the three exit-code
# cases through CliRunner, then reports which numpy modules got imported.
_NUMPY_FREE_SCRIPT = """
import json, sys
from click.testing import CliRunner
from twistcat.cli import main
cases = json.load(sys.stdin)
results = []
for argv in cases:
    res = CliRunner().invoke(main, argv)
    results.append([res.exit_code, res.stdout, res.stderr])
print(json.dumps({"results": results,
                  "numpy": sorted(m for m in sys.modules
                                  if m.split(".")[0] == "numpy")}))
"""


def test_cli_commands_never_import_numpy(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "groups": {"G": {"type": "cyclic", "n": 2}},
        "cochains": {"w": {"type": "table", "group": "G", "degree": 3,
                           "root_order": 4,
                           "exponents": [0, 0, 0, 0, 0, 0, 0, 1]}},
        "fusions": {"F": {"group": "G", "omega": "w"}},
    }))
    cases = [["--config", str(EXAMPLES / f"{cfg}.json"), "--format", "json",
              *shlex.split(cmd)] for cfg, cmd in BATTERY]
    cases += [["--config", str(tmp_path / "missing.json"), "validate"],
              ["--config", str(EXAMPLES / "z2.json"), "classify", "NOPE"],
              ["--config", str(bad), "validate"]]
    src = str(HERE.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _NUMPY_FREE_SCRIPT],
                          input=json.dumps(cases), capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    results = doc["results"]
    for (cfg, cmd), (code, out, _) in zip(BATTERY, results):
        assert code == 0, (cfg, cmd)
        assert out.encode() == _golden_path(cfg, cmd).read_bytes(), (cfg, cmd)
    missing, unknown, not_cocycle = results[len(BATTERY):]
    assert missing[0] == 2 and "parse error" in missing[2]
    assert unknown[0] == 2 and "NOPE" in unknown[2]
    assert not_cocycle[0] == 1 and "not a 3-cocycle" in not_cocycle[2]
    assert doc["numpy"] == []
