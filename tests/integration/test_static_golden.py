"""Golden stdout of the static corner studies (Fig. 5 and Fig. 10).

Both reports come from :func:`~repro.analysis.static_scaling.run_corner_gain_study`,
which classifies the suite once and evaluates it at every corner.  The
digests below pin the byte-exact stdout of ``repro --no-cache --cycles 20000
run <id>``, recorded when every corner still classified the suite on its own
through the scalar kernels, so any change in how the suite is classified or
shared across corners that moves a single digit fails here.
"""

import hashlib

import pytest

from repro.cli import main

GOLDEN_SHA256 = {
    "fig5": "1f3a6508abd44dd2391e4334e5c28da37821ac74585df81c1b45e9b9f66efae5",
    "fig10": "0160c33e13896c9925086df88ad1c2494404ea0bc4a9bfbdee879d8d959ed39e",
}


@pytest.mark.parametrize("identifier", sorted(GOLDEN_SHA256))
def test_corner_study_stdout_matches_golden_digest(identifier, capsys):
    assert main(["--no-cache", "--cycles", "20000", "run", identifier]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == GOLDEN_SHA256[identifier]
