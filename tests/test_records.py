"""The result records: plain NamedTuples, immutable, with pinned JSON bytes.

Only the classes that check their fields when built are dataclasses.
"""

import dataclasses
import hashlib
import inspect

import pytest

from bicoef import bounds, caratheodory, cli, harness, operators, series
from bicoef.bounds import BoundReport, IdentityReport, bounds_for, corollary_check
from bicoef.cli import main
from bicoef.harness import (CampaignSummary, CoefficientSummary, EmpiricalExtremum,
                            extremal_search, falsify)
from bicoef.operators import (AlphaParams, BetaParams, CoefficientTuple, MembershipGrid,
                              MembershipReport, membership)
from bicoef.series import NormalizedFunction

_MODULES = (series, caratheodory, operators, bounds, harness, cli)


def test_the_only_dataclasses_are_the_checked_params_and_grid():
    found = {obj for m in _MODULES for obj in vars(m).values()
             if inspect.isclass(obj) and obj.__module__.startswith("bicoef")
             and dataclasses.is_dataclass(obj)}
    assert found == {AlphaParams, BetaParams, MembershipGrid}


def _records():
    params = BetaParams(0.5, 2, 0.5)
    f = NormalizedFunction.from_tail([0.05, 0.01], order=4)
    summary = falsify(params, 200, seed=1)
    extremum = extremal_search(params, "a2", 200, seed=1)
    return {BoundReport: bounds_for(params),
            IdentityReport: corollary_check("c4"),
            bounds._Corollary: bounds._COROLLARIES["c4"],
            CoefficientTuple: extremum.best_tuple,
            MembershipReport: membership(f, params, MembershipGrid(n_angles=8)),
            CoefficientSummary: summary.a2,
            CampaignSummary: summary,
            EmpiricalExtremum: extremum}


def test_every_record_is_immutable():
    for cls, rec in _records().items():
        assert type(rec) is cls and isinstance(rec, tuple)
        for name in cls._fields:
            with pytest.raises(AttributeError):
                setattr(rec, name, None)


# sha256 of the stdout bytes, taken when the records were dataclasses written
# through dataclasses.asdict: _asdict must write the same bytes
_STDOUT_SHA256 = {
    ("bound", "--family", "alpha", "--alpha", "0.5", "--lambda", "1", "--mu", "1", "--json"):
        "2480c80a1f1befe8d3c39110164fa2a97b9e125be61fa7a722f6e84e43f6d231",
    ("bound", "--family", "beta", "--beta", "0.5", "--lambda", "2", "--mu", "0.5", "--json"):
        "beb9df9c209c489ed4428d5c1528b2c435247a198be59eca483b2a4ec6ac34a3",
    ("corollary-check", "--json"):
        "0fe83b9eae0eb0cadbefde17dc9f3ef05e2c7cb8c9a93300e8ee121fd8b4c43e",
}


@pytest.mark.parametrize("argv", list(_STDOUT_SHA256), ids=["bound-alpha", "bound-beta",
                                                           "corollary-check"])
def test_json_stdout_bytes_are_pinned(capsysbinary, argv):
    assert main(list(argv)) == 0
    out = capsysbinary.readouterr().out
    assert hashlib.sha256(out).hexdigest() == _STDOUT_SHA256[argv]
