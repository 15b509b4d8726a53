"""The join contract: one positivity guard, and pinned ``join`` reports.

``Presentation.join`` checks both operands once and hands positive pairs to
the family rule ``_join``.  The digests were recorded from the CLI of the
commit before that contract, when each family module carried its own guard.
"""

import hashlib
import json

import pytest

from wqlat.cli import main
from wqlat.order import PresentationError
from wqlat.presets import get_presentation

from test_order_kernel import SQUARE4

# One non-positive and one positive element per family, keyed by preset prefix.
OPERANDS = {
    "free:": ("a^-1", "a"),
    "scarparo": ("a", "b"),
    "bs:": ("a^-1", "a"),
    "hnn": ("t^-1", "t"),
    "graph:": ("[v0: a^-1]", "[v0: a]"),
    "sd:": ("s^-1", "s"),
}

# (preset, x, y) -> (sha256 of stdout, exit code) of ``wqlat join P x y --json``,
# for the 16 README presets; x and y are distinct radius-3 ball elements drawn
# with ``random.Random(preset)``.
JOIN_DIGESTS = {
    ("free:2", "b a", "a^2"): ("6808098be2170454590a107809fda44ec713fe8c6f189e4589ffc5477b5754a4", 0),
    ("free:2", "b^2 a", "a^2"): ("95b0bc7fe8ff30eea224b8f2df0309b0857db218d9f0cfecdd4ce53129c65ad4", 0),
    ("free:2", "a^2 b", "b a"): ("a434a57c928505951f4c54efa900639fbb06ff780f8d64fbe22886e4062fedc9", 0),
    ("free:2", "a^3", "a^2"): ("984ea4b495959312788661c0444c43724f8bccf83f66fe15f9aadbbf9311b4c3", 0),
    ("scarparo", "b^2", "b^2 a"): ("6920217f9c10e5bea9f2bc4f129711b6666abab9714edf9d2f4c7e38c5cce24d", 0),
    ("scarparo", "b^3", "b a b"): ("23d66a5ce3200357b8eca7db8cc57d2363f68f027d241306cb5b7fcae70bb6e0", 0),
    ("scarparo", "b a", "b^3"): ("91531cf5dfaef5d59d4e9ae118b363fc2a8dcb081a4e484e83969b308ebac9df", 0),
    ("scarparo", "b", "b a^2"): ("bfc9edd284eb5c9cec72ccbe67f0f5f420f84ffd6ae8b3132252726072587d3d", 0),
    ("bs:1,2", "a a b", "b a"): ("5b7d864505ab33593dc69a008b929fd8bc81c7f3f9ce60ba204e35e87d5992d6", 0),
    ("bs:1,2", "b a", "b^2"): ("960f5b42bd6f4b2a397f4e5f2ea6f6f548e3f9473d5321479d735dc54bcc5df2", 0),
    ("bs:1,2", "b^3", "a a a"): ("506df37bd7e917255805bbe9ae4e15c9e1e74241bede345de74a3c1a488e9ca7", 0),
    ("bs:1,2", "a", "b"): ("aec21126d1d57f754199fb1063fe969cf94e54c242c1d639eec37b7ead2330dd", 0),
    ("bs:2,3", "b^2", "a b"): ("f45f1ac512b3bdb193bd26a030db55adabf10dfd8a5135807a61d4c22cd8ac7b", 0),
    ("bs:2,3", "b^2 a", "b a b"): ("e79458076e1138597560b4e0ed823d660dd670734d09ef907294f5311171d173", 0),
    ("bs:2,3", "a", "a a a"): ("98df62ef32df656d535cf9c1dab5c19682c29c9f65d40dd7a2f00e7c359a538d", 0),
    ("bs:2,3", "b a", "a"): ("e20c5082b6cd5339cf596331d2247bc4e2134753a1b5b3ab9f934010253301bd", 0),
    ("bs:2,-3", "a b", "b a a"): ("4894f04c51a5f29f1c4094346848e9988239554067a1944cd6a4d3fbf5179fc9", 0),
    ("bs:2,-3", "a b a", "b^3"): ("2947d5bfc8fbf09604262c25d87b2cb881b9ba9ec9e332d780079a0e6b2c9957", 0),
    ("bs:2,-3", "a", "a b^2"): ("9ad86da91770816d9db50b2d617b4f46fb52c02307ae82831d2a6f55d94f69d0", 0),
    ("bs:2,-3", "a", "b a"): ("d75100c702fb3fa8e4b698e39b9fbdb1234a1a8ad5b4a9dd9222bc1779f00b10", 0),
    ("bs:1,-1", "a b^-1", "a a b^-1"): ("e37aadecf619d324ac8225b6578d6321a4bc1248838b08a724a4f7019f094c8b", 0),
    ("bs:1,-1", "a b^-2", "a"): ("31c566246884d4b2b675966738cddd455d6c95818fabd5b9c9ec0a81f13f5d54", 0),
    ("bs:1,-1", "a", "a a a"): ("c0af1c1ff79d0b3e7663061129c7b05733a37f46f62688a68823ec333a058c52", 0),
    ("bs:1,-1", "b", "a a b"): ("9b4d50b40be71da095db97070e10e05dfad76a3b870c19296b268feaac7cc2e4", 0),
    ("hnn+:x,y@x,y", "y^2 t", "t"): ("97c105144af20e2190b12baea1fe1e722d99a7030426f78b379a6fa0ab34db39", 0),
    ("hnn+:x,y@x,y", "y t t", "x y t"): ("4fc2a00f9b98798d1b4ebd35f81e2d9b1faa55f160f2d958d80168841b4d33e4", 0),
    ("hnn+:x,y@x,y", "t t x", "y t"): ("882f81e7419278c6c4b808165e4948974702d63f8058ace69e36f8b1cfee2396", 0),
    ("hnn+:x,y@x,y", "y t y", "y x^2"): ("9213eeecfed74f013d2a142589483958000c462415b2dd1cde2be2c06c754906", 0),
    ("hnn-:x,y@x,y", "t x", "t x y"): ("5e549c60979b24b69410ecf97a0d804d62bce69ae29d10b5a1df9ba56b275718", 0),
    ("hnn-:x,y@x,y", "t t x", "x y^2"): ("2a9a74b22fbaee07b0708e236e7f4dc1cbc524c491e03b4db0ebfeae43034769", 0),
    ("hnn-:x,y@x,y", "y^2 t", "t t y"): ("e44a3f28164aeb7d31ac211904c31e2c0a6f88b991ea1fa58859a63c05126d3b", 0),
    ("hnn-:x,y@x,y", "t t y", "t t t"): ("b993210e264a572b6b3d17ec963d617806f494e48e69e2d75fac73241a5fa0a2", 0),
    ("graph:path3", "[v1: a^2] [v2: a]", "[v0: a^3]"): ("e8f45363e6524bf0721e85c13bc4f452da52bf265ae3dec59541fe4f7e1b414b", 0),
    ("graph:path3", "[v2: a] [v0: a] [v2: a]", "[v2: a]"): ("3debbbc1f104059eaf8e6285b42f092af333ed546c557c6fadc370df882e3e71", 0),
    ("graph:path3", "[v0: a] [v2: a] [v0: a]", "[v2: a^2] [v0: a]"): ("6e4120ecb427953fa8ae2823c73596105d09e5f1a7c59aa0a4d02329affc856c", 0),
    ("graph:path3", "[v0: a^2] [v2: a]", "[v0: a^2] [v1: a]"): ("0f407b7b1265fd508962dd2b41b29bb5b2323480e8ba5cf849b3ff35c617f208", 0),
    ("graph:noedge2", "[v1: a^2] [v0: a]", "[v1: a] [v0: a^2]"): ("ee31351d2f686e27a4ad43f03dd05c0181f3f34bdf9424b1aa18fd64764882da", 0),
    ("graph:noedge2", "[v1: a] [v0: a] [v1: a]", "[v1: a] [v0: a^2]"): ("889ffbe4e7fc78526b71fd17ce21bc90e3ecbac7c139365ed969712e68412f07", 0),
    ("graph:noedge2", "[v1: a^2]", "[v1: a] [v0: a]"): ("c268c09d2a3e4e28bda4dc205bcaa929b2c42de0f62603919a43adc38ce2702a", 0),
    ("graph:noedge2", "[v0: a] [v1: a] [v0: a]", "[v0: a]"): ("617a43d7625b4b544dea917b8b7799f44e695331cf0ca79e4d8c768e2d5514b0", 0),
    ("graph:complete2", "[v1: a^2]", "[v0: a^2] [v1: a]"): ("cec6a3bdbff9b4878e50034413890efc4d826cf76ed34e15b519489aacfbd235", 0),
    ("graph:complete2", "[v0: a^2]", "[v0: a]"): ("bc6aea0a76e29a384abf496864f85881ac43afaf08e665173bcb9936a82aebaa", 0),
    ("graph:complete2", "[v0: a] [v1: a^2]", "[v1: a^2]"): ("06481cbaeedd841623f34dd48e750885a6dd8acfc3220bf67e4cfddad8df7cd1", 0),
    ("graph:complete2", "[v1: a]", "[v1: a^2]"): ("d79cf169dfd03ee703c138cd6102ee6b73a61b7f3f6d61e69bd429dd1ae417c8", 0),
    ("graph:square4.json", "[v1: a]", "[v0: a] [v3: a]"): ("076e2b40de993e5bdf219ba73cab2123772729ff4e032664af76948606bbd229", 0),
    ("graph:square4.json", "[v1: a] [v2: a] [v3: a]", "[v0: a] [v2: a]"): ("a8ecf8d45c36074847ec339a072817025f1366be6d0c41f9b63f45ea2b45a2ee", 0),
    ("graph:square4.json", "[v0: a] [v1: a]", "[v0: a] [v1: a^2]"): ("9396793e9372bf15c059cb18f17c9d74724655736b47b1ff3194c2de2780a893", 0),
    ("graph:square4.json", "[v2: a] [v3: a^2]", "[v0: a^2] [v2: a]"): ("b4deb55be12ed17a03da16a7ebbdeb2ec369c48a796e3e4941d7be12a5c2d9a5", 0),
    ("sd:swap2", "a", "a^2 s"): ("6001d82584a16484f6aac348bd6d921828dbf0e6772b2c96b31d8fa27f0c3e18", 0),
    ("sd:swap2", "a b^2", "b s"): ("db74a64b2bf9fe82684e86232f23e9bf7fbe911f3d844c3376729d3fb90600c8", 0),
    ("sd:swap2", "b^2", "b s^2"): ("7be96de9be634e4e02793e8c3d0b7c0c97c16b821fcd4050bfad9f84360b0ed1", 0),
    ("sd:swap2", "b a b", "a^2 s"): ("853d8a6891c41b72ba7a618dd0d2a66780a0f29ebe7bb45de8446de066eb1dd3", 0),
    ("sd:perm3", "c", "c a s"): ("4e4454b4bc3b2ca8e24213ba4d15feb0f8d1fd0b800c40ae4d9f2d787890d741", 0),
    ("sd:perm3", "a c a", "c^2 b"): ("cc7589cb39e65de85c7fa5d0a13ab5410c9661a2c79c2f0b28b21f8c9ff695ef", 0),
    ("sd:perm3", "a c a", "b c b"): ("952d5b0d4fe61f0b9c1e85b01f00ccd67f821d3a22eaaabe2a61332d6d4c05c6", 0),
    ("sd:perm3", "b s^2", "a b c"): ("3d0af691b42e77342e0fab6348d5040acac2da131a47a0addc75f6c738c16a5e", 0),
    ("sd:phi-ab", "a s^2", "a b a b s"): ("40d9034563f975638a9f8e6cbf51860bc8dba6c1eaac10792326c2206d862b0a", 0),
    ("sd:phi-ab", "a^2 b s", "a s^2"): ("0cc539455583ea929a14f2781ed45981af39064a197c67e05e3b056dd4708929", 0),
    ("sd:phi-ab", "s", "s^2"): ("ea8925543c0266a2ead1635af0e81fffc63f29128c92d2d6fe1b7c06e27d0713", 0),
    ("sd:phi-ab", "s^3", "b a^2"): ("6afd86321a3e6d43e5c511f5259c3e49b543f0b4c7052ba1aa823611ed9db173", 0),
    ("sd:nonexample", "a s", "a b a"): ("ed2571c19b69baff796535eeab7d1060cd8aeb74a4c55e9335106fe6b9eaaadb", 0),
    ("sd:nonexample", "b^2 a b a s", "s"): ("df3cfd98bcf2a487aeabb13443cc1a5fde7438efb5b3d654063189e5e08bda81", 0),
    ("sd:nonexample", "a b s", "a s^2"): ("34dc4c0fd1af26a4a0eea6ab9a667725ec0d3b8349562fd5050466c8283d5bb8", 3),
    ("sd:nonexample", "b a b", "a s^2"): ("13f40d9b9e1cc9ce52a556ad211891ef23e29fdb6bf304586a92be3ce0a5f8f9", 3),
}
README_PRESETS = sorted({name for name, _, _ in JOIN_DIGESTS})


def preset_arg(name, tmp_path):
    if not name.endswith(".json"):
        return name
    path = tmp_path / name[len("graph:"):]
    path.write_text(json.dumps(SQUARE4))
    return f"graph:{path}"


def operands(name):
    return next(pair for prefix, pair in OPERANDS.items() if name.startswith(prefix))


def test_digests_cover_the_readme_presets():
    assert len(README_PRESETS) == 16
    assert all(sum(key[0] == name for key in JOIN_DIGESTS) == 4 for name in README_PRESETS)


@pytest.mark.parametrize("name", README_PRESETS)
def test_join_of_non_positive_operand_is_a_usage_error(name, capsys, tmp_path):
    preset = preset_arg(name, tmp_path)
    pres = get_presentation(preset)
    neg, pos = (pres.parse(text) for text in operands(name))
    assert not pres.is_positive(neg) and pres.is_positive(pos)
    for x, y in ((neg, pos), (pos, neg)):
        with pytest.raises(PresentationError) as info:
            pres.join(x, y)
        assert str(info.value).endswith("is not positive")
    code = main(["join", preset, *operands(name)])
    captured = capsys.readouterr()
    assert code == 64 and captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.endswith("is not positive\n")


@pytest.mark.parametrize("name,x,y", sorted(JOIN_DIGESTS))
def test_join_report_digest(name, x, y, capsys, tmp_path):
    code = main(["join", preset_arg(name, tmp_path), x, y, "--json"])
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest(), code) == JOIN_DIGESTS[name, x, y]
