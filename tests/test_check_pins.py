"""Check-only reports of a fixed suite of vector pairs, pinned by sha256.

Per m = 1..5: a passing pair and one pair per failure kind feasible with one
atom, with 0-3 atoms in turn (at least one for the jump kinds) and d = 1 or
2 in turn, so m = 4, d = 2 is among them, and m = 5 draws random sign
patterns; one pair more samples with a non-default ``samples``, ``ladder``
and ``box``.  Each affine pair also runs as its black-box twin.  A checker
change that moves one bit of a verdict, a witness or a margin fails here.
"""

import dataclasses
import hashlib
import json

import pytest

from jumpcompare.cli import RunReport, report_to_dict
from jumpcompare.conditions import check_theorem31
from jumpcompare.model import SampleDomain

from suitegen import feasible_kinds, sized_problem, strip_affine


def _suite():
    out = []
    for m in range(1, 6):
        for i, kind in enumerate([None] + feasible_kinds(m, 1)):
            n_atoms = i % 4
            if kind is not None and kind.startswith("jump"):
                n_atoms = max(n_atoms, 1)
            out.append((f"m{m}-{i}-{kind or 'pass'}", m, 1 + i % 2, n_atoms, kind,
                        1000 * m + i))
    return out


SUITE = _suite()

PINNED_CHECK_REPORTS = {
    "m1-0-pass": "f32e9d5513b1447c20950c0747b1d660532d21cf3dc2719e6332b69545ff230d",
    "m1-0-pass-bb": "78b03cf3c090d891921188414d0a008b8a2fed3c98982976bee81d4c34f23d71",
    "m1-1-sigma-gap": "ebf2642e7f947dc368066025eb5c25190743d888b0367a3c157e4d73e4960fc9",
    "m1-1-sigma-gap-bb": "9797a41005323a6b944018cab8bcbea85140ab278fa85af77b3810194f4686f1",
    "m1-2-jump-row-gap": "80a59d750cbd701331b583326d1978d4280fe56de1793dc2d532aa438c9589a9",
    "m1-2-jump-row-gap-bb": "9084ac999f8b9778554b61afbed9102f6a31d7613144807063716b442e16dc4e",
    "m1-3-jump-own-coef": "68d35e05cb83667c3faf0a012f04bb11e782febcaafcfa5319de4c02c753d268",
    "m1-3-jump-own-coef-bb": "de50febd47aecdad839e4973053fdbe2d11f1621301dc6c05cdd339ca4e88d30",
    "m1-4-jump-const-gap": "eb9a2e18c5dd67a8c4197f76b435808213ebbf0a3a1b9a09a82c0312a2dde7e1",
    "m1-4-jump-const-gap-bb": "5671004d87f33e75f24dfd973c56d734e7e0352a521e61ba1d86267a587cf6da",
    "m1-5-drift-row-gap": "6cab0922fb994d53404e428207ccc67b36645bcb328c79a70ad6f571a0eed502",
    "m1-5-drift-row-gap-bb": "d0f51a44e4c6dfbbec343bc7935f1bce876f69c13ac6942ea630664a534eeb72",
    "m1-6-drift-const-gap": "e580166f3b924c2d0406a58cd0da988e19778defd5666fcc6178881da1bad1cf",
    "m1-6-drift-const-gap-bb": "cc9c4aaa3e9b2ff38034b8ce46255b26c321290818c3425dc68742672da24f15",
    "m2-0-pass": "55ad18de456d343d133b7a5005ad5712c1cba82dc081d54f286dc41a174af0c9",
    "m2-0-pass-bb": "6141b67391072b1eda89d19f4ad49ff314a97b767f78bd635548f90af53a90aa",
    "m2-1-sigma-gap": "15e6375bd95c036715f137a27c68c08bb37435859a3a9090f7ff1518125a36ca",
    "m2-1-sigma-gap-bb": "7997e2eb5b68cd605ec48da28e6841dafd0b1c3e4f61140df204c91d7b2a36f2",
    "m2-2-sigma-coupling": "2d8127316ff685cbc5c615e07bfc20869d8c93551b1eb6b2d05c06e7a88f4dac",
    "m2-2-sigma-coupling-bb": "12a6d3b2ed11720dffcce2f2c4c2b54d3a9142309f001372f00f882225af1f6f",
    "m2-3-jump-row-gap": "bb80c26cb2e2b2a6ff512eebfcc2c9f55eb0024227f63805e73f92900b501a13",
    "m2-3-jump-row-gap-bb": "60984eb41ff0587e1ccd9a7a235acbf83bf0750436838409c3d3e7fb58408512",
    "m2-4-jump-own-coef": "cb2ed263ac6c85cd5ba8ea796e26c96d89fe971a1220b58f8e3ae4adc870bb54",
    "m2-4-jump-own-coef-bb": "dbbfac2cfe396960f7f66391a0f3d1ac8acace15b869f2bf5d8afe27e61961fc",
    "m2-5-jump-cross-coef": "77894eace616e363a87c82c965b414b4cb4d07f1bffcb19c03e727664f7f3606",
    "m2-5-jump-cross-coef-bb": "93b536147906f1a3959998a870bac44de06f72bf08fb67a1fb23e19171cc3ce5",
    "m2-6-jump-const-gap": "b7c3f80c5206fa17bb33a9ac9bf0ba6da236b2ba1090131c2a6660141c27ec6e",
    "m2-6-jump-const-gap-bb": "72d35517b0e607540c31b03cbb8b18c83b78e71423f44c73762cd5ded5200528",
    "m2-7-drift-offdiag": "be5b996b82c27abe43ccecc2c2487cd200f7d75503f201818d1b6787e79fecc7",
    "m2-7-drift-offdiag-bb": "c5f4bd2cc7dbfefae3b509e7812690697eb7ce282bc1fcd136fed46daba8bb35",
    "m2-8-drift-row-gap": "beeedd956ea6e792dc07aa01d6972a715dde0ea85cd49a5ca15a4e4c31a64a59",
    "m2-8-drift-row-gap-bb": "ae5b78da514977545e818fb519957c6b9ef57ce72e442ec634c5a8bdcb837987",
    "m2-9-drift-const-gap": "6e830092df0ede1c1864993a36a7ec13a9d7e625b5b3a14ad234ec98303dc8e3",
    "m2-9-drift-const-gap-bb": "b679e2139d5ae953fb633287ad9f6e60c109661af97092281158a5ce6c0aaf13",
    "m3-0-pass": "929a6409f74c47326c4ae3767f1b1a884ac636e21880c8e0a28c165561ccc559",
    "m3-0-pass-bb": "ae09ff3d868c285a06daa111b437abddc7c7e4c35249dea5e84f58fb0d11dbd3",
    "m3-1-sigma-gap": "f01843ae48df7734833b477bea775bfc386f3a0c77fd19e4016515fe7d4e8ea3",
    "m3-1-sigma-gap-bb": "8cf992fcb4b656dd5204666e5fe520403d224aae1781a7acb7083ccfbed34545",
    "m3-2-sigma-coupling": "ac64ca2a2fea9b800732e39e47f5288e4e91482710dcbf5ba1f033b22b198dcc",
    "m3-2-sigma-coupling-bb": "ed49da39be79c8f23cd5527488d70a582971f6ec42ac6a9d1be363c1f3d575c2",
    "m3-3-jump-row-gap": "f16b21b629cc15692ae299a2bc0e15f360cbadf57a927fde709938f556fffab5",
    "m3-3-jump-row-gap-bb": "b293063258796b0622337ca0f35bd7409f98898a6d253a30d6601a833d7ee37d",
    "m3-4-jump-own-coef": "b15958fd6e57bc53e204ec83eb3432be90b55f17c406bd7fe8ffb4054bbd803d",
    "m3-4-jump-own-coef-bb": "fd9e77e2caad7514e52d665ed6d05fedbb0da9c4f4e8da3bc404ce83ef19b56f",
    "m3-5-jump-cross-coef": "e9c4e208887ce92ec0155a54c2cdd17b11d2d713e5c0151e3b37f96b1625919b",
    "m3-5-jump-cross-coef-bb": "f839cf346cd7060f92901298e6fb8f78d3633052964b4239190d376868c49243",
    "m3-6-jump-const-gap": "525e2ef3b36cd1899752338e3ca6ed161dfc217b17d395123de21e3dd10be78b",
    "m3-6-jump-const-gap-bb": "2cdbb4d8bf603b1f5ba9f0ea369713cbe560ed93e6b8928c7d6925d2322d9cec",
    "m3-7-drift-offdiag": "734563d478202dda45e0d570eb4767c2d448537a743129d29006bc06350bcfbf",
    "m3-7-drift-offdiag-bb": "0c0967b433448ebf21e84e09a1475c6330ae92b469ca07b44df2939e8ac3a073",
    "m3-8-drift-row-gap": "f832515d7eaa25c19eea5039c7f2b3ea2dc33414848917bd7afe2ddd70d0b780",
    "m3-8-drift-row-gap-bb": "22cbd2081c07d1f73baebed328dbf1b8cd427548e536a15b836bf74dd674e9f9",
    "m3-9-drift-const-gap": "39d2a979e5c92dceba64914157d39d9ba922c1198d64141fb97b5804890d48b0",
    "m3-9-drift-const-gap-bb": "b13693d5675d43711893662e979a04a37be4795ed8342ce136c1a0524d7c564c",
    "m4-0-pass": "4aad8cdf6cc438faa135fd89aa6fc3b7b13b7d5f4125de4f47de4e4eb516ada4",
    "m4-0-pass-bb": "6511364202655e6705fc2ba160b63c136c54e8776b96bc88b160fd3e5dc0f78f",
    "m4-1-sigma-gap": "6a727feae530c2d932e05cd2c638d9c11c33f3d03d8a3d212b3fea28d3010b30",
    "m4-1-sigma-gap-bb": "e79e28c76cac286316feb6c0546aa2aec4a11a2b95220fab8068cfe15c5a08a4",
    "m4-2-sigma-coupling": "2b948adeaeb5bd91be02a74bba02a2f6cc0f0bd7a80035f04d94b979c23bc85f",
    "m4-2-sigma-coupling-bb": "a345af0d85c901c887c81a3a4f25b151c6d0080a9c2a751872fa6a567808ec2c",
    "m4-3-jump-row-gap": "d99290228fb447b09474bd653e1c98816b0993a17a90111c850da4a2199c6ba0",
    "m4-3-jump-row-gap-bb": "5cc9942b07ea4df9ae244b82e82b1fee8aae4702c59d9e9853d5e108f4620174",
    "m4-4-jump-own-coef": "b776847c20eebbf5f54ef1b7774c6fc536cc223ce7f4bd6cb8f5249faa8faa69",
    "m4-4-jump-own-coef-bb": "d890372e3c043a39001450ec4be05a7267f782227091b1d1b500910df68816e9",
    "m4-5-jump-cross-coef": "1aa57181c564d990c0514d1d741ab6827046c4cdbe55d70080abb057fa658086",
    "m4-5-jump-cross-coef-bb": "b7c213595c377e658767cd46af089a441d206046949190ed5adab458e8e471ad",
    "m4-6-jump-const-gap": "9d212aeb3845524bb4e5d0ce0e8d668ee499985c9770dfa2e65318462dc29214",
    "m4-6-jump-const-gap-bb": "3dd75afe7fb6a699ba223f95d2258fbed29691b9898bf1512e428d93400181e4",
    "m4-7-drift-offdiag": "e030daba08ba6566c474a014bddc2405b7746d1d329ddece679f0c3b80e7fd46",
    "m4-7-drift-offdiag-bb": "7482f27c184d165cc6abd52a8b2e944b5c1c9ed7a730d007e8c429ebe19dd095",
    "m4-8-drift-row-gap": "bbeab2184d94ba841b15a6cc4f792c8b72e38b6568a7b1c8c5d85f158ba94e41",
    "m4-8-drift-row-gap-bb": "c1438890630d4856e5ece5893d58bfa7fed1a410a881c79e875520c2bebff3cc",
    "m4-9-drift-const-gap": "b7c45655c22a7bcf56e3bdce6edb689cadecf36cea8b47f2b5ee9d78fdd8e101",
    "m4-9-drift-const-gap-bb": "43981ad7dc86d77545f22196af1e405aa97e8373a401d379faa82d64d46b8b7f",
    "m5-0-pass": "9c60b09caf7d99b45308135695c36aa3eb210184ba95e73f538d2743e00e101c",
    "m5-0-pass-bb": "4f90f385a62178cc2ba89effae0559eb7222c3f4a7f9bd793e3c2760d2c7806a",
    "m5-1-sigma-gap": "cc84a6218e0f616c9ac1cf0247900d22e2373477ca484520ea3fbb29562902cc",
    "m5-1-sigma-gap-bb": "ba0c2a5f05b8f01b88e2fb304218567432b98f05d3eaca99d77578c6c73ba4ce",
    "m5-2-sigma-coupling": "a58fdee8c8efa288e5d4d951253786d71c6daa72f38831e4f072e12538ee8b8e",
    "m5-2-sigma-coupling-bb": "cf7bd5b5640172f84df99d8f2c7afa9e9c32f6abd0e279b7e6f320a9fc603dc6",
    "m5-3-jump-row-gap": "fa0d7c72d92a5aa9343676213f593088265ce7c0e4202372bff45b6f237f25c0",
    "m5-3-jump-row-gap-bb": "e530954b675cb623c2cdb20fe7d2567f492edb63669e1e8dc5149955cea7c9ff",
    "m5-4-jump-own-coef": "c11eff7e5d40aef30c4cb08a0d2146daa7b1a9ae7487e491d50379cd538cbcda",
    "m5-4-jump-own-coef-bb": "7adcad6d0d1f70106b905177783051521819aa875b2f0cbefc6cb2cd948b4761",
    "m5-5-jump-cross-coef": "ef836d6ba8fcc1f39f7997a6e6d2f34a89a95030ff8dbf97c28a5dc97af6bd0a",
    "m5-5-jump-cross-coef-bb": "8b8bb7c8edc95bc189a294878772d1f56d5062cf81f6b0e2cc2c39b68f763de1",
    "m5-6-jump-const-gap": "2d92aabccc75e0cad99fe82993573ef1eb728fb4d465739dbda71bf27699f8ac",
    "m5-6-jump-const-gap-bb": "157525182d68abbff114cfe871922970011fdbb07ca1796bf7829024ca0e2ee6",
    "m5-7-drift-offdiag": "d559a25d31d4508f0004517b6f848ac21b024728ff75e786d7723eb1547c3211",
    "m5-7-drift-offdiag-bb": "5b058e8ce07143775bb0a5c40f2c2408deb4b1b2f9eacbc423a8ab75e2c3977a",
    "m5-8-drift-row-gap": "43e7c6ac06aa9a864ab92a81378f220d53376633a6173d777ccae8fe3cf79797",
    "m5-8-drift-row-gap-bb": "01ca5dc98119b9f876e59077689f3b562305e6ee083163028c0bb3638d754213",
    "m5-9-drift-const-gap": "a4bd65b135e2ea97ef61f8702cc98996a5f05e2796ed2869335182cdc66e469f",
    "m5-9-drift-const-gap-bb": "de152afbc14e84b70d6e65a5f45d02ee3cfbb3a9083aae23ef7a6bc5fba88c84",
    "m3-sampling": "a75f2bef4c0b98d5ad5fe8e5b2a52c82d144eb290d76ff93f2329ccd5b84b1cb",
    "m3-sampling-bb": "e621db5ff212b2b5a473df8cd2e4aaa14685c4483e8945da6bba5a1a6e65f84d",
}


def check_report_sha256(name: str, problem) -> str:
    report = RunReport(scenario_id=name, kind="vector", config_echo={},
                       check=check_theorem31(problem))
    text = json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("blackbox", [False, True], ids=["affine", "bb"])
@pytest.mark.parametrize("name, m, d, n_atoms, kind, seed", SUITE,
                         ids=[case[0] for case in SUITE])
def test_check_report_is_pinned(name, m, d, n_atoms, kind, seed, blackbox):
    problem = sized_problem(seed, m, d, n_atoms, kind)
    if blackbox:
        problem = strip_affine(problem)
        name += "-bb"
    assert check_report_sha256(name, problem) == PINNED_CHECK_REPORTS[name]


# an m = 3 pair with two atoms that fails cond-c at one coordinate, sampled
# with its own samples, ladder and box
SAMPLING = SampleDomain(box=3.0, count=200, ladder=(1e-3, 0.25, 2.0), seed=3005)


@pytest.mark.parametrize("blackbox", [False, True], ids=["affine", "bb"])
def test_non_default_sampling_is_pinned(blackbox):
    problem = dataclasses.replace(sized_problem(3005, 3, 2, 2, "drift-offdiag"),
                                  sampling=SAMPLING)
    name = "m3-sampling"
    if blackbox:
        problem = strip_affine(problem)
        name += "-bb"
    assert check_report_sha256(name, problem) == PINNED_CHECK_REPORTS[name]
