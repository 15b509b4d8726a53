"""Pinned ``check-controlled`` and ``pos`` reports.

The controlled map, its witnesses and the positive-letter witnesses come
from the ``Presentation`` hooks; these digests were recorded from the CLI
of the commit before those hooks existed, when the same data came from
per-family functions in ``presets.py``.
"""

import hashlib

import pytest

from wqlat.cli import main

from test_acceptance import LAMBDA_SUITE, SIGMA_SUITE

# Criterion 5's radii: graph products and HNN extensions at 3, the rest at 4.
RADII = {"hnn+:x,y@x,y": 3, "hnn-:x,y@x,y": 3, "graph:path3": 3, "graph:noedge2": 3}

# (preset, --mode or None for the default) -> (sha256 of stdout, exit code) of
# ``wqlat check-controlled P --radius R --json [--mode M]``; the non-default
# mode is the other one, so the chain presets also pin their failing sigma run.
CONTROLLED_DIGESTS = {
    ("free:2", None): ("e2701dc3ea96918b4c8cf856c2dd39586f5416aebf81de9053c1de0c923a316d", 0),
    ("free:2", "lambda"): ("c6a5408142f06403e97ae4e26a22a4186ed5f1559ef6adfc946d7b1c3f1ed583", 0),
    ("scarparo", None): ("0332b1f713668ab792964b6156c45a4fa6878875aec0c55ea67712b1784f3860", 0),
    ("scarparo", "lambda"): ("7cf3ba14a8bb4d85453fdba3276c5d8272bf300ab92a6c4c170d6afcc0a750b6", 0),
    ("bs:1,2", None): ("a5c38a9b148198635d33b3ca1be59cd4c64e34c717d04a9209ebf4a33a894fe2", 0),
    ("bs:1,2", "lambda"): ("ea0951ee25a5fb6d69d92f7b43f47f62604785a4cb2f5072961f694e750f2c8e", 0),
    ("bs:2,3", None): ("4d26d48b6d27da21231dd64e0539ca57f70eaea22dec0e27ccd970d4b149e3af", 0),
    ("bs:2,3", "lambda"): ("8d5aa96d9436888584b4bb305f9d861031930185e226fb2c79af0f6bca295647", 0),
    ("hnn+:x,y@x,y", None): ("8711689d15199de9cba649fe2bcd357dcaae0ae202f83793d3fd28e4a1de92fd", 0),
    ("hnn+:x,y@x,y", "lambda"): ("2ce576de2f43bcbb5268e775ff702e08f2c6d92ced787f19478bb9749dd45338", 0),
    ("graph:path3", None): ("1b39415469a9c5aacec2ba579223b292097f960ae5a8808cadc6c4851405290b", 0),
    ("graph:path3", "lambda"): ("848005d2a0c699a5fed6c69bd0e28323842421e7122e6601805678e3ca9281b1", 0),
    ("graph:noedge2", None): ("ec13c0242c39ddb31fb762f6810609db34f67d8210022538f002fedad1713cd2", 0),
    ("graph:noedge2", "lambda"): ("156e28904d8d1e801ed1ba9a99aadc1357bd3ba1094ac252abf5fffd802fff66", 0),
    ("sd:swap2", None): ("22719caa8f028a9580c3e0ae7553c0e6b018388fddedcf3b45fe0ff64ad87d52", 0),
    ("sd:swap2", "lambda"): ("8b0d85ca11771a31fe13e6024009d8c84000591cdef8fc8534039579f262c517", 0),
    ("sd:perm3", None): ("e2cf46af4284827e586d539af04cd3a625ae4809b43a0e97a1e0ad556983b2e5", 0),
    ("sd:perm3", "lambda"): ("6ac1010e78b524f035730b003ad4773896a1251860432cff26da18dc925d9266", 0),
    ("sd:phi-ab", None): ("ef3657227dcf130c1ecfcb47b649c16acde6082e4d80aa2455f00f4fd07fed36", 0),
    ("sd:phi-ab", "lambda"): ("7f3321dcf46943e62cd7d277fd45790c7f0c22c0815d7bbd360b8a0aa477171c", 0),
    ("bs:2,-3", None): ("ea07df1cb2bb80f7a42b3c156c650420b6c906e4ef04462f8cfd84e54468cca9", 0),
    ("bs:2,-3", "sigma"): ("6d42657ec089376eaf81de15097e86468df05389d55e0878f49e6f113cc54641", 2),
    ("bs:1,-1", None): ("c20cf3a0843f5e9491e50a6aaf75aade0a91f42737a7c0b0b1d3cd481c456089", 0),
    ("bs:1,-1", "sigma"): ("a9d38c703b89b2eb96e2efdb09787a65916af5282b5b53d375eb1e127aa7fffb", 2),
    ("hnn-:x,y@x,y", None): ("5a48def06235492f3ad58a29e1513d3dda4ba65acf8fb24b487ba0a79b97a181", 0),
    ("hnn-:x,y@x,y", "sigma"): ("c2b6a959ddab8241382e6b3fc6d6ccbad19e3ed7c02ee73edcfe8c159f84dd6b", 2),
}

# (preset, element) -> (sha256 of stdout, exit code) of ``wqlat pos P x --json``;
# the graph and semidirect entries pin the absence of a witness.
POS_DIGESTS = {
    ("free:2", "a b^2 a"): ("fc90b89bd7305e23bb948fedd90d67af1582ddb9cfc4ce6cbf2fdb27b48e1135", 0),
    ("free:2", "a b^-1"): ("3daf6f2f6bca09d3b704ac8a3a78a32ae7e848e6bd111b973b12bce065b4633d", 0),
    ("scarparo", "b a^2 b"): ("79f8535fc2d8f05089152af9435b915c34d4d35859e51f22dbe0f6dee0879fbd", 0),
    ("scarparo", "a b"): ("fa57b225ff7885b78bdf8b172a0cffeaba800bea90557b1c24c9d58090645c8f", 0),
    ("bs:2,-3", "a b^-7"): ("06e2a91c6cd5da1a90621ad5fb0a9cb8f5ca55b8ed1291a7a00f91e8d22dc665", 0),
    ("bs:2,-3", "b^-1 a"): ("c7dfb0cd9a7a91b1824868f174e846b3a03670b8eeb5f0640385f0f851df3f7a", 0),
    ("bs:2,-3", "a^-1"): ("29f6a5792c2aaf24a90b4e183660817000bc4c838467b866da12ad927c1595e8", 0),
    ("hnn+:x,y@x,y", "x t y t x"): ("3e8b86ab50501f350ec9bb80c0053ccc42329748b8083f53857f71d35398cf93", 0),
    ("hnn+:x,y@x,y", "t^-1 x"): ("70adb5f9707615da480e99d9d7c7ba82f543c7ee54957b91f76ab332c8088358", 0),
    ("hnn-:x,y@x,y", "x t y^-1"): ("8ad860db766ca28d3cee449108c0acd5694ebe029a31028cee1ed7be3ab98a74", 0),
    ("hnn-:x,y@x,y", "t x t y^-2"): ("2ff7681c2d3b1babc0353a673a0072aee935b1887578b95d974c935eec87cafe", 0),
    ("hnn-:x,y@x,y", "t^-1"): ("a9d692122a451a7371050d5dbeb68ab95647b7170b81868ab313f3087fc8c8aa", 0),
    ("graph:path3", "[v0: a] [v1: a]"): ("cb2574c0429e6b78fbb348adece37738465e4a8583e0772b19ea8a200fd589b1", 0),
    ("sd:phi-ab", "a s b"): ("f4d4ae02276143deb20f67185a7191a95a4fd7a36214fd2320abc38da0e564e0", 0),
}


def digest(capsys, argv):
    code = main(argv)
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest(), code


def test_digests_cover_criterion_5():
    other = {p: "sigma" if p in LAMBDA_SUITE else "lambda" for p in SIGMA_SUITE + LAMBDA_SUITE}
    assert set(CONTROLLED_DIGESTS) == {(p, m) for p in other for m in (None, other[p])}


@pytest.mark.parametrize("name,mode", sorted(CONTROLLED_DIGESTS, key=str))
def test_check_controlled_report_digest(capsys, name, mode):
    argv = ["check-controlled", name, "--radius", str(RADII.get(name, 4)), "--json"]
    if mode is not None:
        argv += ["--mode", mode]
    assert digest(capsys, argv) == CONTROLLED_DIGESTS[(name, mode)]


@pytest.mark.parametrize("name,element", sorted(POS_DIGESTS))
def test_pos_report_digest(capsys, name, element):
    assert digest(capsys, ["pos", name, element, "--json"]) == POS_DIGESTS[(name, element)]
