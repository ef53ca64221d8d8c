"""Monte Carlo outputs pinned to literal values.

``test_replay_is_bit_identical`` shows that a run repeats within one version
of the code; these cases show that a change of the code keeps the very same
results. Each expected record holds the exact integer counts and the
``float.hex`` of every statistic, recorded before the race tally settled
scalar chains from bound tables. A change that moves one of them changes
what the lab reports, not only how fast: re-record only with a deliberate
change of the drawing contract, say which cases moved and why, and never to
hide a defect. The verify epsilons were re-recorded when epsilon became the
half-width of the gain, from the best deviation's and the baseline's half-widths;
every other field kept its bits. When verify came to sum each level row's win
co-counts over its chains before converting them to floats (one integer
co-moment per row, where there was one per pair of chains), the rounding of the
variance moved one epsilon, ``logistic:0.7-a0.5``, by one ulp (``...7f9f0p-7`` to
``...7f9f1p-7``); every other field, every mean and every ``simulate`` record
kept its bits. When ``simulate`` came to tally the chains that race one pair of
signals as one group (one integer co-moment per pair of groups, where there was
one per pair of chains), the payoff half-widths of the five scalar-signal
``alpha`` 0.5 cases with two or more chains moved by one ulp each:
``normal:0.6-n2-a0.5``, ``logistic:0.7-n3-a0.5``, ``laplace:1.3-n2-a0.5``,
``uniform:0.8-n2-a0.5`` and ``uniform:0.8-n3-a0.5`` (eight values, all rounded up
one ulp); every other field, and every ``verify`` record, kept its bits.
"""

import pytest

from seqlab.cost import CostModel
from seqlab.equilibrium import MarketConfig, solve_equilibrium
from seqlab.montecarlo import SimulationSpec, simulate, verify_best_response
from seqlab.noise import parse_noise

POWER_TWO = CostModel.power(2.0)
LAWS = ("normal:0.6", "logistic:0.7", "laplace:1.3", "uniform:0.8")
TRIALS = 200_000


def _simulate_cases():
    cases = {}
    for i, law in enumerate(LAWS):
        for n in (1, 2, 3):
            for alpha in (1.0, 0.5):
                # alpha 0.5 races equal signals, alpha 1 a small lead
                signals = (0.3, 0.3) if alpha == 0.5 else (0.45, 0.4)
                cases[f"{law}-n{n}-a{alpha:g}"] = (law, n, alpha, signals, 1_000 + 10 * i + 2 * n + (alpha == 0.5))
    # per-chain signals: a distinct gap on every chain
    cases["normal:0.6-n3-per-chain"] = ("normal:0.6", 3, 0.5, ((0.5, 0.2, 0.4), (0.3, 0.3, 0.6)), 1_100)
    # a subnormal half-width leaves about 4,000 distinct noise values, so
    # exact ties (decided by the slot-2 coin) occur in about 1 race in 4,000
    cases["uniform:1e-320-n2-ties"] = ("uniform:1e-320", 2, 1.0, (0.0, 0.0), 1_101)
    cases["uniform:1e-320-n1-subnormal-gap"] = ("uniform:1e-320", 1, 1.0, (5e-322, 0.0), 1_102)
    return cases


SIMULATE_CASES = _simulate_cases()
VERIFY_CASES = {f"{law}-a{alpha:g}": (law, alpha, 2_000 + i) for i, (law, alpha) in
                enumerate(zip(LAWS, (1.0, 0.5, 0.5, 1.0)))}


def _hex(values):
    return tuple(float(x).hex() for x in values)


def simulate_record(case):
    law, n, alpha, signals, seed = case
    stats = simulate(SimulationSpec(signals, MarketConfig(1.0, n, alpha), POWER_TWO, parse_noise(law),
                                    trials=TRIALS, seed=seed))
    return (stats.capture_counts, stats.per_chain_win_counts, _hex(stats.mean_payoff),
            _hex(stats.payoff_ci_halfwidth), _hex(stats.capture_ci_halfwidth))


def verify_record(case):
    law, alpha, seed = case
    market, noise = MarketConfig(1.0, 2, alpha), parse_noise(law)
    candidate = solve_equilibrium(market, POWER_TWO, noise).signal
    check = verify_best_response(candidate, market, POWER_TWO, noise, mode="montecarlo", trials=20_000, seed=seed)
    return (float(candidate).hex(), float(check.max_gain).hex(), _hex(check.argmax_deviation),
            check.is_epsilon_equilibrium, float(check.epsilon).hex(), float(check.baseline_payoff).hex())


EXPECTED_SIMULATE = {
    "normal:0.6-n1-a1": (
        (106428, 93572), ((106428,), (93572,)),
        ("0x1.518d25edd0529p-2", "0x1.3b3fa6defc7a3p-2"),
        ("0x1.1ea18230e91b4p-9", "0x1.1ea18230e91b4p-9"),
        ("0x1.1ea1533ab97b9p-9", "0x1.1ea1533ab97b9p-9")),
    "normal:0.6-n1-a0.5": (
        (99973, 100027), ((99973,), (100027,)),
        ("0x1.babf7bab72093p-2", "0x1.bb0313b0b6ec9p-2"),
        ("0x1.124cbdd1432b6p-9", "0x1.124cbdd1432b6p-9"),
        ("0x1.1f39636e33645p-9", "0x1.1f39636e33645p-9")),
    "normal:0.6-n2-a1": (
        (56706, 43720), ((106266, 106720), (93734, 93280)),
        ("-0x1.f18a86d71f362p-4", "-0x1.9f559b3d07c8ap-4"),
        ("0x1.02e93b1b9dab5p-9", "0x1.dad6144327b7bp-10"),
        ("0x1.02e910b015e01p-9", "0x1.dad5c6770df7ep-10")),
    "normal:0.6-n2-a0.5": (
        (50129, 49957), ((99995, 100177), (100005, 99823)),
        ("0x1.d985fddb6291dp-4", "0x1.d6516044e4359p-4"),
        ("0x1.d483fca076ed1p-10", "0x1.d3f6ea1d96ba5p-10"),
        ("0x1.f1e9faccd740fp-10", "0x1.f1581c820b436p-10")),
    "normal:0.6-n3-a1": (
        (30537, 20402), ((106805, 106907, 106571), (93195, 93093, 93429)),
        ("-0x1.d1bb05faebc41p-2", "-0x1.830fcf80dc33ap-2"),
        ("0x1.9d3d873dd4bd1p-10", "0x1.5bba463423441p-10"),
        ("0x1.9d3d438940c6ap-10", "0x1.5bba0d3b5d8fep-10")),
    "normal:0.6-n3-a0.5": (
        (24950, 24913), ((100431, 99914, 99810), (99569, 100086, 100190)),
        ("-0x1.3e9b5a63f9a49p-4", "-0x1.3f143393ab42fp-4"),
        ("0x1.6001003b23e6fp-10", "0x1.5fc1f6090af75p-10"),
        ("0x1.7ba2cda8ba1a6p-10", "0x1.7b64fa29a9b14p-10")),
    "logistic:0.7-n1-a1": (
        (102967, 97033), ((102967,), (97033,)),
        ("0x1.3fd4bf0995aafp-2", "0x1.4cf80dc33721dp-2"),
        ("0x1.1f193412a0008p-9", "0x1.1f193412a0008p-9"),
        ("0x1.1f190508d4019p-9", "0x1.1f190508d4019p-9")),
    "logistic:0.7-n1-a0.5": (
        (100424, 99576), ((100424,), (99576,)),
        ("0x1.bcf404493adc7p-2", "0x1.b8ce8b12ee195p-2"),
        ("0x1.124c1ce27b22dp-9", "0x1.124c1ce27b22dp-9"),
        ("0x1.1f38baea392fdp-9", "0x1.1f38baea392fdp-9")),
    "logistic:0.7-n2-a1": (
        (53246, 46847), ((103275, 103124), (96725, 96876)),
        ("-0x1.1c33721d53cdep-3", "-0x1.5f4b1ee24356fp-4"),
        ("0x1.fbcc288f06d10p-10", "0x1.e694e766ac5d7p-10"),
        ("0x1.fbcbd55c6ded9p-10", "0x1.e69497adef163p-10")),
    "logistic:0.7-n2-a0.5": (
        (50159, 49909), ((100387, 99863), (99613, 100137)),
        ("0x1.da10e02214270p-4", "0x1.d5681ecd4aa11p-4"),
        ("0x1.d49d32610d048p-10", "0x1.d3d019ebca203p-10"),
        ("0x1.f2035a74fa92fp-10", "0x1.f12f48cc6abc8p-10")),
    "logistic:0.7-n3-a1": (
        (27875, 22376), ((103692, 103607, 103682), (96308, 96393, 96318)),
        ("-0x1.df5c28f5c28f6p-2", "-0x1.78f47304039afp-2"),
        ("0x1.8de82c6686eb6p-10", "0x1.6a279aeece3f7p-10"),
        ("0x1.8de7eb35147a5p-10", "0x1.6a275f98ead25p-10")),
    "logistic:0.7-n3-a0.5": (
        (25102, 25010), ((100276, 100224, 99956), (99724, 99776, 100044)),
        ("-0x1.3bc5733c37beap-4", "-0x1.3cd0a096e3dcap-4"),
        ("0x1.60eb8bdcf8af0p-10", "0x1.604b7a8a988f4p-10"),
        ("0x1.7ca00fbe0883bp-10", "0x1.7c06e9edc6e62p-10")),
    "laplace:1.3-n1-a1": (
        (103418, 96582), ((103418,), (96582,)),
        ("0x1.4223e18698351p-2", "0x1.4aa8eb463497bp-2"),
        ("0x1.1f0e9c6ed3bc3p-9", "0x1.1f0e9c6ed3bc3p-9"),
        ("0x1.1f0e6d66c403dp-9", "0x1.1f0e6d66c403dp-9")),
    "laplace:1.3-n1-a0.5": (
        (100050, 99950), ((100050,), (99950,)),
        ("0x1.bb1fddebd9019p-2", "0x1.baa2b1704ff43p-2"),
        ("0x1.124cbc39c1a52p-9", "0x1.124cbc39c1a52p-9"),
        ("0x1.1f3961c37e778p-9", "0x1.1f3961c37e778p-9")),
    "laplace:1.3-n2-a1": (
        (53945, 46353), ((103871, 103721), (96129, 96279)),
        ("-0x1.150b0f27bb2ffp-3", "-0x1.69691a75cd0c1p-4"),
        ("0x1.fde6aaa328aecp-10", "0x1.e4ca117589648p-10"),
        ("0x1.fde6571855194p-10", "0x1.e4c9c207f91a6p-10")),
    "laplace:1.3-n2-a0.5": (
        (49744, 50426), ((99391, 99927), (100609, 100073)),
        ("0x1.d26cf77a1f80ep-4", "0x1.df22cd8a61ee4p-4"),
        ("0x1.d34446b52e582p-10", "0x1.d5730882dd290p-10"),
        ("0x1.f0a28aedb8e22p-10", "0x1.f2e449131f8a9p-10")),
    "laplace:1.3-n3-a1": (
        (28132, 22251), ((103947, 103889, 103848), (96053, 96111, 96152)),
        ("-0x1.de0b4e11dbca9p-2", "-0x1.79984a0e410b9p-2"),
        ("0x1.8f70404ab013ap-10", "0x1.6944ceedd99d1p-10"),
        ("0x1.8f6ffed900af1p-10", "0x1.694493bd1ec00p-10")),
    "laplace:1.3-n3-a0.5": (
        (24909, 24974), ((100172, 99969, 99840), (99828, 100031, 100160)),
        ("-0x1.3f494269311c2p-4", "-0x1.3dfd7002c75a8p-4"),
        ("0x1.5fbfe6c31eaf7p-10", "0x1.6020f88a0bbb0p-10"),
        ("0x1.7b5e4a02d69b5p-10", "0x1.7bcade97ef3b3p-10")),
    "uniform:0.8-n1-a1": (
        (106296, 93704), ((106296,), (93704,)),
        ("0x1.50e0221426fe7p-2", "0x1.3becaab8a5ce5p-2"),
        ("0x1.1ea7b22c73272p-9", "0x1.1ea7b22c73272p-9"),
        ("0x1.1ea7833540025p-9", "0x1.1ea7833540024p-9")),
    "uniform:0.8-n1-a0.5": (
        (100044, 99956), ((100044,), (99956,)),
        ("0x1.bb185b4098769p-2", "0x1.baaa341b907f4p-2"),
        ("0x1.124cbcbb884fap-9", "0x1.124cbcbb884fap-9"),
        ("0x1.1f39624b62830p-9", "0x1.1f39624b62830p-9")),
    "uniform:0.8-n2-a1": (
        (56412, 44183), ((105904, 106325), (94096, 93675)),
        ("-0x1.f78feef5ec80cp-4", "-0x1.95da272862f5fp-4"),
        ("0x1.0280f842a511ap-9", "0x1.dca2e3e26c1f2p-10"),
        ("0x1.0280cde8324f2p-9", "0x1.dca295cad2886p-10")),
    "uniform:0.8-n2-a0.5": (
        (50272, 50043), ((100225, 100004), (99775, 99996)),
        ("0x1.dc664685f64eap-4", "0x1.d821b6332d53fp-4"),
        ("0x1.d4f05146f34a9p-10", "0x1.d4350ee08fa49p-10"),
        ("0x1.f262bec65d7acp-10", "0x1.f1a12111deec4p-10")),
    "uniform:0.8-n3-a1": (
        (29883, 20951), ((106233, 106079, 105761), (93767, 93921, 94239)),
        ("-0x1.d5143bf727137p-2", "-0x1.804039abf338ap-2"),
        ("0x1.99944f8d5963ap-10", "0x1.5fd60b7dd687fp-10"),
        ("0x1.99940c72533a6p-10", "0x1.5fd5d1d8be503p-10")),
    "uniform:0.8-n3-a0.5": (
        (24860, 25087), ((99825, 100016, 99831), (100175, 99984, 100169)),
        ("-0x1.4001421f5f40dp-4", "-0x1.3bf5e4f40aff2p-4"),
        ("0x1.5f6facc05edeep-10", "0x1.60d06e55a5ea4p-10"),
        ("0x1.7b0c4b2af0282p-10", "0x1.7c871efa454b6p-10")),
    "normal:0.6-n3-per-chain": (
        (20280, 26532), ((126120, 86898, 73934), (73880, 113102, 126066)),
        ("-0x1.ecee0a3436688p-3", "-0x1.2be6347cdf4ecp-2"),
        ("0x1.3988b17984eb4p-10", "0x1.5ec8f9cb39951p-10"),
        ("0x1.5acda2e9173fbp-10", "0x1.85b6b56d5a597p-10")),
    "uniform:1e-320-n2-ties": (
        (50091, 49943), ((99719, 100429), (100281, 99571)),
        ("0x1.007746887a8d6p-2", "0x1.ff6a93f290abbp-3"),
        ("0x1.f1ca210e710d9p-10", "0x1.f14c86f396cdep-10"),
        ("0x1.f1c9cf7f9b98ap-10", "0x1.f14c3579557bbp-10")),
    "uniform:1e-320-n1-subnormal-gap": (
        (104934, 95066), ((104934,), (95066,)),
        ("0x1.0ca18bd66277cp-1", "0x1.e6bce8533b107p-2"),
        ("0x1.1ee004d3f7ccap-9", "0x1.1ee004d3f7ccap-9"),
        ("0x1.1edfd5d38a4cep-9", "0x1.1edfd5d38a4cep-9")),
}

EXPECTED_VERIFY = {
    "normal:0.6-a1": (
        "0x1.546e455db8299p-3", "0x1.18837c0c9c500p-10", ("0x1.60ec1e1f8a21cp-3", "0x1.60ec1e1f8a21cp-3"),
        True, "0x1.18628767ec98dp-7", "0x1.964c60c4e2ee1p-3"),
    "logistic:0.7-a0.5": (
        "0x1.e0e5c5fd28774p-4", "0x1.b62deaf3c7800p-13", ("0x1.f00006f9ea546p-4", "0x1.f00006f9ea546p-4"),
        True, "0x1.134b36bb7f9f1p-7", "0x1.d2fb1b719d168p-3"),
    "laplace:1.3-a0.5": (
        "0x1.02627edbe9b4ep-3", "0x1.a0c6c70b3d800p-13", ("0x1.05d717812481cp-3", "0x1.05d717812481cp-3"),
        True, "0x1.12b2e2a428dccp-7", "0x1.cbd6e477edcd5p-3"),
    "uniform:0.8-a1": (
        "0x1.4000000000000p-3", "0x1.c542d53379000p-11", ("0x1.5245b66ba6c57p-3", "0x1.5245b66ba6c57p-3"),
        True, "0x1.15099f0710cb7p-7", "0x1.8f67a0f9096bcp-3"),
}


@pytest.mark.parametrize("name", SIMULATE_CASES)
def test_simulate_matches_recorded_values(name):
    assert simulate_record(SIMULATE_CASES[name]) == EXPECTED_SIMULATE[name]


@pytest.mark.parametrize("name", VERIFY_CASES)
def test_montecarlo_verify_matches_recorded_values(name):
    assert verify_record(VERIFY_CASES[name]) == EXPECTED_VERIFY[name]


def test_recorded_cases_cover_every_law_chain_count_and_alpha():
    seen = {(law.partition(":")[0], n, alpha) for law, n, alpha, _, _ in SIMULATE_CASES.values()}
    assert seen >= {(law.partition(":")[0], n, a) for law in LAWS for n in (1, 2, 3) for a in (1.0, 0.5)}
    assert {law for law, _, _ in VERIFY_CASES.values()} == set(LAWS)
    assert sum(1 for c in SIMULATE_CASES.values() if c[3] == (0.3, 0.3)) == 12
