"""The checker's probe streams, pinned by sha256.

Report pins see only witnesses, so a passing branch could draw other
probes and still pin the same report.  These pins see every probe:

* the (t, x, x') blocks ``check_ii_prime`` hands to ``geometry.generator``,
  for m = 1..5 (m >= 4 draws random sign patterns) and one non-default
  ``samples``/``ladder``/``box``/horizon, at several block sizes, and the
  same blocks against the stream drawn a probe at a time;
* on black-box pairs, every coefficient call point (coefficient, t, x,
  atom), in call order, of each sampled branch of the vector checker.
"""

import dataclasses
import hashlib
import itertools

import numpy as np
import pytest

from jumpcompare import conditions
from jumpcompare.conditions import (
    check_condition_a,
    check_condition_b,
    check_condition_c,
    check_ii_prime,
    check_sigma_equal,
)
from jumpcompare.model import SampleDomain

from oracles import check_corollary_1d
from suitegen import (
    _assemble,
    _passing_ingredients,
    random_marks,
    random_problem,
    sized_problem,
    strip_affine,
)


def problem_for(case):
    """(m, non-default sampling?) -> a passing pair with 1-3 atoms."""
    m, custom = case
    problem = sized_problem(9000 + m, m, 1 + m % 2, 1 + m % 3)
    if custom:
        problem = dataclasses.replace(
            problem, t0=0.5, T=2.0,
            sampling=SampleDomain(box=3.0, count=1000, ladder=(1e-3, 0.25, 2.0), seed=77))
    return problem


CASES = [(m, False) for m in range(1, 6)] + [(4, True)]
CASE_IDS = [f"m{m}" + ("-custom" if custom else "") for m, custom in CASES]

PINNED_II_PRIME_STREAMS = {
    "m1": ("113dbccf93b2f3ad3d39379db3a0e1d95726a447e37f00504ca886924faa028c", 402),
    "m2": ("72f1260e7999a1b8509ab8e30b1dc9b324fd3b24d7716ce54e676beb58c2fd31", 474),
    "m3": ("cb967bedfa6e92a644dc27d645bb273b33aade9e3edb6e860926b68aa0df59c8", 540),
    "m4": ("b1b1a965a2037f2e9ce43b9577eaebc53744dd68cb1db485630f6dd054c3bc24", 960),
    "m5": ("3dd93fce2d4a2615ce6b71a863bc6fc5316df3eda5053452e04a86a681194c4e", 1176),
    "m4-custom": ("46c059272c2517e6e1005046cc254a2ed8489d239addc14b687fd5a6d2c7cdde", 1216),
}


def ii_prime_stream_sha256(problem, monkeypatch):
    """sha256 of the t, x and x' bytes of every probe ``check_ii_prime``
    evaluates, in order, and the probe count."""
    blocks = []
    generator = conditions.generator

    def recording(cone, problem, t, x, xp):
        blocks.append((t, x, xp))
        return generator(cone, problem, t, x, xp)

    monkeypatch.setattr(conditions, "generator", recording)
    verdict = check_ii_prime(problem)
    monkeypatch.undo()
    t, x, xp = (np.concatenate(a).astype(float) for a in zip(*blocks))
    assert verdict.samples_used == t.size
    return hashlib.sha256(t.tobytes() + x.tobytes() + xp.tobytes()).hexdigest(), t.size


@pytest.mark.parametrize("block", [512, 7, 1])
@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_ii_prime_stream_is_pinned(case, block, monkeypatch):
    """The stream does not depend on the block size it is drawn in."""
    monkeypatch.setattr(conditions, "_BLOCK", block)
    got = ii_prime_stream_sha256(problem_for(case), monkeypatch)
    assert got == PINNED_II_PRIME_STREAMS[CASE_IDS[CASES.index(case)]]


def loop_sign_patterns(m, rng, cap=48):
    if 3**m <= cap:
        return [np.array(p) for p in itertools.product((-1.0, 0.0, 1.0), repeat=m)]
    base = [np.full(m, -1.0), np.full(m, 1.0), np.zeros(m)]
    for k in range(m):
        e = np.zeros(m)
        e[k] = 1.0
        base.append(e)
        base.append(-e)
    while len(base) < cap:
        base.append(rng.choice([-1.0, 0.0, 1.0], size=m))
    return base


def loop_ii_prime_probes(problem, rng):
    """The ii-prime probe stream drawn a probe at a time: the reference that
    ``conditions._ii_prime_probes`` must give bit for bit, in blocks."""
    m, box = problem.m, problem.sampling.box
    scales = problem.sampling.scales()
    patterns = loop_sign_patterns(m, rng)
    reps = max(2, problem.sampling.count // max(1, len(patterns) * len(scales)))
    for pattern in patterns:
        for scale in scales:
            for r in range(reps):
                u = rng.uniform(0.5, 1.0, m)
                xp = np.zeros(m) if r == 0 else rng.uniform(-box, box, m)
                yield float(rng.uniform(problem.t0, problem.T)), scale * pattern * u, xp
    for k in range(m):
        for scale in scales:
            bases = []
            for mag in (1.0, box):
                delta = mag * rng.uniform(0.2, 1.0, m)
                delta[k] = 0.0
                bases.append(delta)
                for i in range(m):
                    if i != k:
                        e = np.zeros(m)
                        e[i] = mag
                        bases.append(e)
            ek = np.zeros(m)
            ek[k] = scale
            for delta in bases:
                for use_zero_xp in (True, False):
                    xp = np.zeros(m) if use_zero_xp else rng.uniform(-box, box, m)
                    yield float(rng.uniform(problem.t0, problem.T)), delta - ek, xp


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_blocks_are_the_loop_bit_for_bit(case, seed, monkeypatch):
    """Every value, and the generator state after the stream, at block sizes
    that split the groups of probes anywhere."""
    problem = problem_for(case)
    problem = dataclasses.replace(problem, sampling=dataclasses.replace(
        problem.sampling, seed=problem.sampling.seed + seed))
    rng_loop = conditions._rng_for(problem, 0x11)
    want = [np.array(a) for a in zip(*loop_ii_prime_probes(problem, rng_loop))]
    for block in (512, 13):
        monkeypatch.setattr(conditions, "_BLOCK", block)
        rng = conditions._rng_for(problem, 0x11)
        blocks = list(conditions._ii_prime_probes(problem, rng))
        assert max(len(b[0]) for b in blocks) == min(block, len(want[0]))
        for got, ref in zip(zip(*blocks), want):
            assert np.concatenate(got).tobytes() == ref.tobytes()
        assert rng.bit_generator.state == rng_loop.bit_generator.state


class CallRecorder:
    """A ``strip_affine`` hook that hashes each call point: which model's
    coefficient, t, the bytes of x and the atom."""

    def __init__(self):
        self.digest = hashlib.sha256()
        self.calls = 0
        self._models = itertools.count()

    def __call__(self, fn):
        label = f"{next(self._models) // 3 + 1}.{fn.__name__}"

        def recorded(t, x, *atom):
            self.calls += 1
            self.digest.update(f"{label} {float(t)!r} {np.asarray(x, float).tobytes().hex()} "
                               f"{atom}\n".encode())
            return fn(t, x, *atom)

        return recorded


BRANCHES = {
    "sigma": check_sigma_equal,
    "cond-a": check_condition_a,
    "cond-b": check_condition_b,
    "cond-c": check_condition_c,
    "ii-prime": check_ii_prime,
}

PINNED_CALL_POINTS = {
    "m1:cond-a": ("4bfdd90f04ac7a39a6fe74c8d732fce35c22c4c6b7398a3efadb7d5e052adfb6", 8),
    "m1:cond-b": ("ade0cd76b063ec715ebf6487143caf9968f4373720642ec8a044d757710cea91", 544),
    "m1:cond-c": ("ded85019b11aec12a8d2810c1ca45626bd16d4e66052a5f2ee6e6b0d8a6f6719", 1172),
    "m1:ii-prime": ("cf476a2bb4f3655ffcc32ab2a9c1782d197b215ebce1c05b0926cc520759f9bb", 3224),
    "m1:sigma": ("0728a1df13e5aea7038d3a241d54d98d487844e9b8402ff49a68ffb843a23b71", 214),
    "m2:cond-a": ("ad30921675df4db52268503d67970f188c2ef1df5a17357e47334c1bdb390ea3", 778),
    "m2:cond-b": ("d6903b68bb3b531017fbceeccc239af3c5a4262ffd89aba00d8c28cdbde2e83e", 526),
    "m2:cond-c": ("540c306eed0c3819ecfece1add8f9d53201e9d2a6a5c8b39a24e1675b89b4f88", 1770),
    "m2:ii-prime": ("84692694c0bcb10b773be19b313eb2b92e70095a2075a3ca6f22925694143cce", 4750),
    "m2:sigma": ("58e23ff0bb2a2660674e2192cb155d875ac8594bbe120e4b96cc1777813b2075", 216),
    "m3:cond-a": ("4a6b116a77038efc4ec5734e9b2bb42df47457d66ff1f7e1069a47ca377aaeea", 726),
    "m3:cond-b": ("fb1eb51acfb191d718a590e3d90a2d35cb08c9ffd2cabef632f54f2813c33ecd", 370),
    "m3:cond-c": ("718663dbbba7f2d17029eee3183caf01719b5ee4336eb20092a303ef9729ddc6", 1038),
    "m3:ii-prime": ("473552dc8bf7031dd244e649fd426a85906629484266cfc05a8ff5f8286d9ccd", 3246),
    "m3:sigma": ("dbac508bf84715791169c3144093a40dad3cc69db5d73504f0306f0b5849c606", 212),
    "m4:cond-a": ("0ca3234e905a8bff44373a828cbe40c4c949461f8433b6c94acae38923eea797", 728),
    "m4:cond-b": ("0219216448e786bd37f880a4e21a6cf8ada3080e1d25ed0c43de384d2189de4d", 448),
    "m4:cond-c": ("cba9820152d8537203f1ede7551d01c663c60faac356009253c0318f9907af45", 2072),
    "m4:ii-prime": ("982722074d24484376bc7c8991a122442f058f352eea93be38a544f65e2bd19b", 7688),
    "m4:sigma": ("56ec7fd3a6ce4bec6328ff403dbc6f02376e4040acf02207193280d060792b97", 214),
    "m5:cond-a": ("ed0c8e88cf8ff30190dfd42cc0fb023b9a5f1a87dc1cc16faa596baf8cb6715d", 730),
    "m5:cond-b": ("e0b850cb6abd4209545e6068a53e4fb83c541549443ba59a1ba01ae78b200e83", 598),
    "m5:cond-c": ("df383e479ff678cc5219c6e04a89ce9d988edbd31f58a31dcc2508160eb69678", 3450),
    "m5:ii-prime": ("9006ff638a0947f0feac0cffa573041728232f19518d11d2e991a70cb2aea77b", 11770),
    "m5:sigma": ("5cfdb156197c90e10902c673cb4ec58454c81700e8fb23e2d22079022e888937", 216),
    "m4-custom:cond-a": ("5505a8c7f2d3e62d85225325b5671c57394d907429d1e8322560b057fffa5d35", 1928),
    "m4-custom:cond-b": ("192d06413bb4cf8de40efe7185211a10dbf85cd3b74b488408019df2c30e1c45", 784),
    "m4-custom:cond-c": ("82ac9b501001afeadef68e424896dca6926af9982573d38c9478673d24709a6f", 3512),
    "m4-custom:ii-prime": ("a6a768c29be30bc255c31efbf4a6d17ca9227439b6b0df78964aaedc361ed680", 9736),
    "m4-custom:sigma": ("6a3f11d26cf1f3b0e60d731aa90f7e7c5324fe9e63a93a4148b2cef38cb8df6d", 518),
}


def call_points(problem, branch):
    recorder = CallRecorder()
    BRANCHES[branch](strip_affine(problem, recorder))
    return recorder.digest.hexdigest(), recorder.calls


@pytest.mark.parametrize("branch", sorted(BRANCHES))
@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_call_points_are_pinned(case, branch):
    name = f"{CASE_IDS[CASES.index(case)]}:{branch}"
    assert call_points(problem_for(case), branch) == PINNED_CALL_POINTS[name]


def zero_jump_pair(seed):
    """A passing m = 1 pair with two atoms and zero jumps, so the variant 3.5
    precondition calls the jump coefficients."""
    rng = np.random.default_rng(seed)
    marks = random_marks(rng, min_atoms=2, max_atoms=2)
    return _assemble(_passing_ingredients(rng, 1, 1, marks, zero_gamma=True), seed)


# variant: a passing m = 1 pair with two atoms that meets its precondition
COROLLARY_PAIRS = {
    "3.3": lambda: random_problem(9100, failing=False, m=1)[0],
    "3.4": lambda: random_problem(9100, failing=False, m=1, shared_gamma=True)[0],
    "3.5": lambda: zero_jump_pair(9100),
}

PINNED_COROLLARY_CALL_POINTS = {
    "3.3": ("3438d877597c543dd62cdc8d5b0b7dced5cec17f72df3260cde9120a8d9782b2", 1908),
    "3.4": ("eec8ed2e1d81c7c66ca212c756d1b9e53f08d5b87a93ef1868d2498f14a780db", 1392),
    "3.5": ("eee5c4281040b9051a36e404baef5ae6b1481f0c0e2c2a91e8606d49f57aa3b5", 856),
}


@pytest.mark.parametrize("variant", sorted(COROLLARY_PAIRS))
def test_corollary_call_points_are_pinned(variant):
    problem = COROLLARY_PAIRS[variant]()
    assert problem.marks.n_atoms == 2
    recorder = CallRecorder()
    check_corollary_1d(strip_affine(problem, recorder), variant)
    got = (recorder.digest.hexdigest(), recorder.calls)
    assert got == PINNED_COROLLARY_CALL_POINTS[variant]
