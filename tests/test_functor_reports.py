"""Recorded reports of the functor validators and the functor 6j sweeps.

A seeded corpus of identity functors -- the identity bimodule functors of
product bimodules over Z/2 x Z/2 and Z/3 x Z/3, and the identity module
functors of the regular Z/3 and Z/4 categories -- each valid and with one to
three coherence blocks of A or B scaled by a root of unity or replaced by a
singular block.  For every case the (checked, failed, samples) triples of
``validate_modfun`` or ``validate_bimodfun``, ``verify_orthogonality`` and
``verify_biedenharn_elliott`` must reproduce ``fixtures/functor_reports.json``
byte for byte.  Over Z/3 the acting element l^-1 of a B label differs from l,
so a B side acting through the wrong element shows there.

Rewrite the fixture (only when a report change is intended) with

    PYTHONPATH=src python3 tests/test_functor_reports.py
"""
import json
import pathlib
import random

import pytest

from twistcat._matrix import SMatrix
from twistcat.algebra import cyclic_group, point_gset
from twistcat.cohomology import UnitCochain, omega_cyclic
from twistcat.fusion import FusionData
from twistcat.modcat import (product_fusion, bimod_to_deligne,
                             deligne_to_bimod, regular_module_category)
from twistcat.modfun import (BimoduleFunctorData, ModuleFunctorData,
                             deligne_to_bimodfun, identity_functor,
                             validate_bimodfun, validate_modfun)
from twistcat.scalar import Scalar, Unit
from twistcat.sixj import (functor_context, verify_biedenharn_elliott,
                           verify_orthogonality)

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "functor_reports.json"
TWISTS = ((1, 0), (0, 1), (1, 2), (0, 0))
CORRUPTED_VARIANTS = 3


def _fusion(n: int, s: int) -> FusionData:
    grp = cyclic_group(n)
    return FusionData(grp, omega_cyclic(n, s % n),
                      UnitCochain.trivial(1, point_gset(grp), 1))


def _identity_bimodule_functor(n: int, sg: int, sh: int):
    left, right = _fusion(n, sg), _fusion(n, sh)
    bim = deligne_to_bimod(regular_module_category(
        product_fusion(left, right)), left, right)
    return deligne_to_bimodfun(identity_functor(bimod_to_deligne(bim)),
                               bim, bim)


def _bases():
    for n in (2, 3):
        for sg, sh in TWISTS:
            yield (f"Z{n}xZ{n} s=({sg},{sh})",
                   _identity_bimodule_functor(n, sg, sh))
    for n in (3, 4):
        yield f"Z{n} reg", identity_functor(
            regular_module_category(_fusion(n, 1)))


def _corrupt(f, rng: random.Random):
    """f with one to three distinct A or B blocks each scaled by a root of
    unity or made singular, and a label naming what changed."""
    tables = {"A": dict(f.a)}
    if isinstance(f, BimoduleFunctorData):
        tables["B"] = dict(f.b)
    blocks = [(side, key) for side in sorted(tables)
              for key in sorted(tables[side])]
    changes = []
    for side, key in rng.sample(blocks, rng.randint(1, 3)):
        if rng.random() < 0.3:
            tables[side][key] = SMatrix([[Scalar.zero()]])
            changes.append(f"{side}{list(key)}=0")
        else:
            u = Unit(12, rng.randrange(1, 12))
            tables[side][key] = tables[side][key].scale(u)
            changes.append(f"{side}{list(key)}*{u!r}")
    if "B" in tables:
        bad = BimoduleFunctorData(f.source, f.target, f.mult, tables["A"],
                                  tables["B"])
    else:
        bad = ModuleFunctorData(f.source, f.target, f.mult, tables["A"])
    return " ".join(changes), bad


def _cases() -> dict:
    rng = random.Random(8)
    out = {}
    for name, f in _bases():
        out[f"{name} valid"] = f
        for _ in range(CORRUPTED_VARIANTS):
            label, bad = _corrupt(f, rng)
            out[f"{name} {label}"] = bad
    return out


CASES = _cases()


def _triple(report) -> list:
    return [report.checked, report.failed, report.failures]


def _reports(f) -> dict:
    validate = (validate_bimodfun if isinstance(f, BimoduleFunctorData)
                else validate_modfun)
    ctx = functor_context(f)
    return {"validate": _triple(validate(f)),
            "orthogonality": _triple(verify_orthogonality(ctx)),
            "biedenharn-elliott": _triple(verify_biedenharn_elliott(ctx))}


def _line(name: str) -> str:
    """The fixture line of one case: its name and its reports as JSON."""
    return (f"{json.dumps(name)}: "
            f"{json.dumps(_reports(CASES[name]), sort_keys=True)}")


def _fixture_lines() -> dict:
    lines = FIXTURE.read_text().splitlines()[1:-1]
    return {json.loads(line.split(": ", 1)[0]): line.rstrip(",")
            for line in lines}


def test_fixture_lists_exactly_the_corpus():
    assert list(_fixture_lines()) == list(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_reports_match_the_fixture_byte_for_byte(name):
    assert _line(name) == _fixture_lines()[name]


if __name__ == "__main__":
    FIXTURE.write_text("{\n" + ",\n".join(map(_line, CASES)) + "\n}\n")
