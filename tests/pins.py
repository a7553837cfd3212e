"""Every digest the tests compare against, and the one way they hash.

``digest(value)`` is the sha256 of ``value``'s one JSON form
(:func:`repro.analysis.experiments.result_json`, keys sorted), so a pin
holds what was measured, not how it was printed.  A pin is captured at
the parent commit before a refactor; one that moves is named in
CHANGES.md with its old digest, its new digest and the reason.
"""

import hashlib
import json

from repro.analysis.experiments import result_json


def digest(value) -> str:
    """sha256 of ``value`` as strict JSON with sorted keys."""
    return hashlib.sha256(
        json.dumps(result_json(value), sort_keys=True).encode()
    ).hexdigest()


def row_data(result: dict) -> dict:
    """A registry row's result without its printed table."""
    return {key: value for key, value in result.items() if key != "rendered"}


PINS = {
    #: every registry row at ``ci`` scale: ``digest(row_data(result))``
    "rows_ci": {
        "F1": "3b0d7ab2ac7993a5595962f76da9c081dd59e4a955a368fd38a0b25e5d1bb1de",
        "E1": "131f2a5dd26e2da107c07768b70e65d5bcafc25de85eae5a217632cf49ba9a2e",
        "E2": "b30d5408826f0d4fdcffd70ec55957bf93d9388af2bb9f1d21835ffdceb7f561",
        "E3": "fc4d50f628597aa519c8501e4c59ec052ec0380d1de83b63293d209a362f36cb",
        "E4": "6bbd1521bbda4ff5a8e27107e25ca38b2a577769754d61277b7be3b8c7b8c666",
        "E5": "0461e90704f8f4fff670d46d862f248b685a0e7e45716c8978b6c39b861b45dc",
        "E6": "c6fb535a29bb618baa60866ae1fc1f713fcb7d434230fedcba408ba997412a2d",
        "E7": "5128404d086bc17b5e268964e26b21487cdce13be6f4db63cbc19223ebf8ac40",
        "E8": "b11468968bf46eadd85f620121232f371511e09a90a3c7cc7d714842b90a4b31",
        "E9": "c8629ba7baec25d3cf05e0fc95d8a3c0d49dfc1000898c4ff3e0f3435b564608",
        "E10": "114c8e22255abc1d831440e23aefcc430d6d456537a49d96d109550d2122659b",
        "E11": "3221536eb66c81231a5b89d61e1abd645b8a6c1ee21999395e3892dca98b43a4",
        "E12": "d493cda6e019fd00778cd3c158489a4e5ecb729dee1e66aaef92c87146d3da5d",
        "E13": "d1cfc0052640c96350a2e0eeb59d64aa41ba9bb33f6af4cc52b1469b9085dafc",
        "E14": "7e9d868f66c067a4d665d2d6880fc7507f0e0566d3ad6d948aff700a261edd5b",
        "E15": "d74b9d6de7ca5d9b09ad443a172a693581c478aa6c1e9305bef816b661102770",
        "E16": "4b978afa660bd26f838e683da053dee8ffc41323e2b71dcdd968e4357dd084e0",
        "E17": "f47f5c704f429c254e0b156f71e931ecf28b672ac92af6c164ae4c8ef2dccd64",
        "E18": "579047c3d3ee294874d0632cd1555dcc37088d27c04fb97706585b1272e46435",
        "E19": "95903b5d34f57427072a221da69c1f452fc95067900f211ec3b0aa6e9eec3131",
        "A1": "1632ce0dfbe42565261d3946bbac65185bc5a544d65f76f5376b375465067461",
        "A2": "87dd2af7b118e45478d09dd651b30e8ff2fa8d4e9dc8b9bc1fd7489a1b96371a",
        "A3": "e543efce7014d2de8b699413b51a3ab3c6a6354e7536b3289e7d92997bfa9aaa",
        "A4": "2a569a41f5b01c6d6141144869e064ad793d465e7a862e325550021914630804",
        "A5": "27498779483548e51e2730fc9e128b7c3fc59b37355386a83fdf78778c524c74",
        "A6": "3cd655294cb7774c98185434794fb4b19811b76b1ca99eee6ddb4f83acbaec48",
        "A7": "862ae7b794b6563a9139e926ce47ec5dbaacf99087ffc7980d7f06bd6b884976",
        "A8": "5400c914a2ff0752bc8bbae8acca84dde92c10bb6a376eeaa6dca6dcde67d37c",
        "A9": "1ec8a0b5a29639df78c4c13adb0fb5393aaf7a9810405d600dfae7b143b571e4",
        "A10": "d9e06fa0e75dc8d1823dd0e50dc963eeedf51de5cfea7c55d688aa3abee4dc2a",
    },
    #: the rows whose runner defaults are the scale EXPERIMENTS.md
    #: quotes, at those defaults
    "rows_full": {
        "F1": "812e1cb6b03e41e9ce3b64e7b7b2b6132552bda77f727124041ce1b87fcb37b6",
        "E2": "42d3ea6c22a2f57e52c90416423a2de5513f0650d21cefed9c5f12aa6067b81c",
        "E6": "db1c191d686ce87f13756f02c23ac76b5f0b0c55f527b0283cfac0fbe6fb0c58",
    },
    #: campaign runs at ``ci`` scale, ``runner/arm/seed``: the
    #: scorecard's ``to_json()`` plus the ``(time, core, kind)`` event
    #: triples, captured before the four runners moved onto the kernel
    "runs": {
        "serving/unhardened/0": "2bb8194ddd0f9ba3586142c1370f258baf601846a66274399b8a550ba1f7b7bd",
        "serving/unhardened/1": "68a05e04b23d84f67c8dfe722e3259cff3ce05f15be35206dc866308a058c938",
        "serving/hardened/0": "fd0ad883ec854eb72cb03b538652202ee50f61d4b95739fdd2fb336dd729402f",
        "serving/hardened/1": "0dac5336fcd37da68aea6c4520b773341459b8c7641ac49fccfd0b9fec4b4034",
        "serving/validator_only/0":
            "690c20e02aaf3a104916dbcefa1b5c72972195e37882b2aeed31b121fc53127f",
        "serving/validator_only/1":
            "d893fbff1f74fb96abe46a51316cf6ecd1eb367060696c3084bb5429f00748f5",
        "scale/baseline/0": "fee068e29ca3f035001425142a94ce5c96427236b70ac438f83e3f33ce807946",
        "scale/baseline/1": "3677b9f4a609958088201d704fd5e6daadb2dfbff1f9712f9da356e0e8db2585",
        "scale/retries_breakers/0":
            "5473d7a277edc6ce5fe85564dbdc24ead29cf5588871f443ff501f6155f7a328",
        "scale/retries_breakers/1":
            "a5514c60351744b5f01065cfebb9f50930dda1026919a19f98513f527964f894",
        "scale/full/0": "19f7c7c447d5aa1aca468408ad706dde604d23913c1fa538052844ed592213ae",
        "scale/full/1": "9b1d96ee9d547eed7e2b19e449350881c5697748c70802c4d6cfc2eb5e65f2b0",
        "storage/unprotected/0":
            "dd4c91a14191ec7aabb412d7baa649306cea59d4e496e86e1f096efddec85787",
        "storage/unprotected/1":
            "cf12b6afd32c74597861376209264f927bafca3939619658437f8cebc08e93ee",
        "storage/quorum_only/0":
            "5f146315b5edfbf14dc9244c848ca2d214527dd988be77394c27ae3a90919369",
        "storage/quorum_only/1":
            "e821688eba3720471a92f0e51168efd7bff676f47142005cee45b94dd7ac4e6f",
        "storage/no_encrypt_verify/0":
            "f25f8e5cff87f12804e9f8dbe839cb4bc596f38047ef20e079b3737ed10631d0",
        "storage/no_encrypt_verify/1":
            "ee35b6892ff8fd0293c0277c2f3a8a73ead5a96b730680f93b42cfbc665759c7",
        "storage/generic_weights/0":
            "b23016643a432230e4d24e7c171ee11797d49f17ee9991885174409ea57a933b",
        "storage/generic_weights/1":
            "e75222555710fee9d0ffabaaed2fb7a383fb0d3b1a12870f8ce517e6bc501613",
        "storage/protected/0": "c808f29972f7743769f633dad5efc3a5f0f6a7fd35ca5a0210db2b23332d2fa1",
        "storage/protected/1": "d318092078e2a3e2695629e4e67c5ea7d9b21b79af9d5b81ab33a2ed2825b491",
        "instrcheck/screen/0": "f3d14bc71dd86ffb9fd661b8ca06ffffb0cf3f6bd5be30c1bc214b7647c46920",
        "instrcheck/screen/1": "a4f82868b7ad31c54019e4734a6c90e1ecd764aa28b445b35a66a8863d359291",
        "instrcheck/ithica/0": "dd4d878aa345b8c9aac826f938e51d3bfee31232e3d03e97f7b11b1980b69d80",
        "instrcheck/ithica/1": "ec03b269e623f5989cc2d59ede11b718573b4b3578f07c82598117bdabe66765",
        "instrcheck/reptfd/0": "8711b8c24177b1e412451177821c93af33ecfe1ed4309efaf16fa154a39931ad",
        "instrcheck/reptfd/1": "c80276d5dcc8ec98b61cc3b2adde1525eb5d717be53f820ebeb1df05388b4dda",
        "instrcheck/meek/0": "439d96794f7b574cb45d812dab225c16d0b7e29da7c8121c62e16babe669b9bc",
        "instrcheck/meek/1": "1e9094909aa47e411ae04837d5eef254e5794f82a7fe2048205ec65a46c26fcd",
        "instrcheck/e2e/0": "eb5c76353988851e71a079513adc1596df17da30244163d3aa143ee8718382dd",
        "instrcheck/e2e/1": "cfa5b845c892dc931806b2db0c82f32b1f5d552289ae3c5148c6626ce4a9e80e",
        "serving/machine-quarantine/0":
            "127612fda8cb584f9c214b68399f8b047e8d78fe453d5520794f7097efbca978",
        "scale/machine-quarantine/0":
            "1d995abfeaf19425ad97ec60ded28bf821a98ba279f5cd3f266e77597837d04c",
        "storage/machine-quarantine/0":
            "c11960f142e213bde205f4c9c32f8e371e528c8fe43f7fd5b70ecd4fbab6f326",
    },
    #: each public fleet builder's variants, ``builder/variant``: core
    #: ids, per-core RNG states and defect tuples
    "fleets": {
        "serving/0": "c3d998340e4152672c6702951390be9e1f70b3f3ebfc7af0a425083195a75d3e",
        "serving/1": "8fb0593d171ed5100c5392bcaf2b506bab13606b64d78440536cf2e8277e0cd3",
        "serving/2": "e32ff29d9510ad6f2c5d8200cd863f7f884187f67c974deb798fec4d9d285200",
        "scale/0": "e2f6941eaaee0a94397aacc1d4fc1519517f8f95edee9fbf803298c6043bf0e2",
        "scale/1": "a62046c26610f90a964b575d8a907f2cd69aa15c3dfd3dc508691fb3d701434b",
        "scale/2": "bed383a31d8e073e3f1931595acddeaba6a5722e4a29f615512615c90146b75d",
        "storage/0": "b07c3aef75e3eaf7cd3095611aff0e8d1875bd6815f3dcee22927540b9800c42",
        "storage/1": "5e3a03960c11f313cab1a738e64184a9024c9c4942773513b935532381776dfe",
        "storage/2": "1f369b545c99b604f171a83ce82ca4a1313833468301cf9cadcef585b879ce78",
        "instrcheck/0": "40c45b03191e53a61df7507d2e25b00149adfc2da98d3ffa828fb86cd6ea896c",
        "instrcheck/1": "8004c4a30d73c104a7032940e6d988a39e93c677fc6a60a946817233a2b1ac3c",
        "instrcheck/2": "60bac3fb77c8f27a66330a1413ad6f6fa00d20312a597771a45f2a950725d512",
    },
    #: the event stream of both ticks on the parity fleet (150
    #: machines, x40 prevalence, build seed 11, sim seed 3)
    "fleet_events": {
        "production": "cd01d4e99202ddddc57abdea19735cabef8c6eebe1b201a9d5550305bb847e48",
        "reference": "ec600510c372a79d57e4cb86191c8e0fd6e8d3cdc1912bacc5d9341301c31e9a",
    },
    #: whole results of both ticks, ``(build seed, boost, tick)``
    "fleet_results": {
        (11, 20.0, "production"):
            "b479fc3c434e22adba59dd4666923138bc49f0cf4e2de08aa91cf86ad01e7f77",
        (11, 20.0, "reference"):
            "cb5be6085ad0d6581f9477fc703e4cb6b8582f5c25361b9ede89e383fc4ea468",
        (11, 60.0, "production"):
            "196e9f42b8dc9584d3d2a673b228d2498a6238ff54652645208252f4ef1e3a9e",
        (11, 60.0, "reference"):
            "d883aa1f7f31abe7cc1dfa4157f9e92eccd25768d7e304a262987f63f8e88f7d",
        (23, 20.0, "production"):
            "a678e9ce586bd4dc31f8463f9493cbc805f215db8bf1725337b3cc14c0e70f1f",
        (23, 20.0, "reference"):
            "ccbebc6f97142019979cb5d9bf7043c2ebe56cebfe7778802363a5108e6ef631",
        (23, 60.0, "production"):
            "74046f8f54198aaca31ab12c800fa234e04a4fa4eace2e7a935e0eb416f5c50a",
        (23, 60.0, "reference"):
            "6ee73a9d996e5b74148d8c8a67b6284ab8facb5a90ef850cf411120bf9fc44bd",
    },
    #: every span's ``to_json()`` of the traced E15/E17 arm at seed 0
    "spans": {
        "E15": "4caafbd5cb7152a85ec676b43b8efda8a9c3a9a963c40eb335abd336fad5d9a7",
        "E17": "ec38cead230e3ff86c47c4e6e36e7b938bfaaf75f3b47e1e61b4631b7351b826",
    },
    #: the sorted declared obs names, per frozenset
    "names": {
        "METRIC_NAMES": "99a9d3d293de3a50e791fd9dcb6eb052d6bd437e3feffe4100c1ece621310a63",
        "SPAN_NAMES": "9f05a5dd99802bcae314fe13dd63b450af51be263441d6213dec8ad46a9a0e06",
    },
    #: the sorted ``module.qualname:param`` defaulted parameters
    "keyword_defaults": "c31d46a0cf602575ea8ecb4d87e280e3263cb94bcf16288faa347d439931dbbb",
    #: ``blended_op_mix()``'s (op, share) pairs in dict order
    "blended_mix": "526c22bfe34acd66a87c95e00d4ef809c840c6a64cd420a26c629c15a014d960",
}
