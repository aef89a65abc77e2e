"""The ``report --format json --no-timing`` bytes of five zoo entries are
the ones recorded in ``perfbench/digests.json``: a change that moves a
single bit of their certification output fails here, in process.  The
half-space entries' recorded digests there are older than their current
quadrature chunks, so theirs, and that of the ``dense_family.ini``
report, are pinned here instead.  The file is read, never written."""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from curvcert import config, report, zoo

DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"
DENSE_INI = DIGESTS.parent / "dense_family.ini"

# The whole-row chunk values of the half-space entries, and the INI
# report with its label (the config's path) set to the file name.
PINNED = {
    "half_space":
        "d8791db0f0cbc4ec7e324132b395d84c6787eba957303d6cef4178b96cbc0c42",
    "gaussian_half_space":
        "593038aab26edacc02d8f8095ba73c3cc83cb574e5e22e7968c94fcd2d2b8912",
    DENSE_INI.name:
        "7894879cc634876ff68438e0d8541439e74af671fd6a51e3d2226be9461b02f4",
}


def _digest(target) -> str:
    text = report.render_json(report.run_suite(target))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", ["ball", "annulus", "hemisphere",
                                  "poincare_cap", "ball3"])
def test_report_digest_is_recorded(name):
    recorded = json.loads(DIGESTS.read_text())["sha256"][name]
    assert _digest(zoo.load(name)) == recorded


@pytest.mark.parametrize("name", ["half_space", "gaussian_half_space"])
def test_half_space_digest_is_pinned(name):
    assert _digest(zoo.load(name)) == PINNED[name]


def test_dense_family_report_digest_is_pinned():
    target = config.load_config(str(DENSE_INI))
    target = dataclasses.replace(target, label=DENSE_INI.name)
    assert _digest(target) == PINNED[DENSE_INI.name]
