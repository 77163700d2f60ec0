"""Synthetic nine-gas generator: determinism, class structure, and the
statistical shape the discretization experiments rely on."""

import json

import numpy as np
import pytest
from scipy.stats import mannwhitneyu

from roughcut import (
    FAULT_GASES,
    GAS_NAMES,
    GasDistribution,
    GasProfile,
    SplitSpec,
    default_profile,
    efb_cuts,
    evaluate_pipeline,
    generate,
    load_profile,
    profile_from_json,
    profile_to_json,
    split,
)


def test_generate_shape_and_class_mix():
    table = generate(default_profile(), 2000, seed=0)
    assert table.attribute_names == GAS_NAMES
    assert table.values.shape == (2000, 9)
    zeros, ones = table.class_counts()
    assert zeros + ones == 2000
    assert abs(ones / 2000 - 0.5) <= 0.03


def test_generate_is_deterministic():
    profile = default_profile()
    assert generate(profile, 100, seed=9) == generate(profile, 100, seed=9)
    assert generate(profile, 100, seed=9) != generate(profile, 100, seed=10)


def test_generate_rejects_tiny_n():
    with pytest.raises(ValueError, match="at least"):
        generate(default_profile(), 5, seed=0)


def test_generate_reads_n_and_seed_as_integers():
    # unchecked, each raised numpy's TypeError
    for n, seed, message in ((20.5, 1, r"^n 20\.5 is not an integer$"), ("20", 1, "^n '20' is not an integer$"),
                             (20, 1.5, r"^seed 1\.5 is not an integer$")):
        with pytest.raises(ValueError, match=message):
            generate(default_profile(), n, seed)
    assert generate(default_profile(), 20.0, np.int64(1)) == generate(default_profile(), 20, 1)


def test_generate_always_emits_both_classes():
    profile = profile_from_json(profile_to_json(default_profile()))
    skewed = GasProfile(gases=profile.gases, fault_fraction=0.02, latent_weight=0.5)
    for seed in range(30):
        table = generate(skewed, 10, seed=seed)
        zeros, ones = table.class_counts()
        assert zeros > 0 and ones > 0


def test_generate_gives_up_when_one_class_is_out_of_reach():
    profile = default_profile()
    hopeless = GasProfile(gases=profile.gases, fault_fraction=1e-12, latent_weight=0.5)
    with pytest.raises(ValueError, match="both classes"):
        generate(hopeless, 10, seed=0)


def test_fault_gases_separate_and_inert_gases_do_not():
    table = generate(default_profile(), 2000, seed=7)
    healthy = table.decisions == 0
    faulty = table.decisions == 1
    for gas in FAULT_GASES:
        col = table.values[:, GAS_NAMES.index(gas)]
        assert np.median(col[faulty]) > np.median(col[healthy])
        assert mannwhitneyu(col[healthy], col[faulty]).pvalue < 1e-6
    for gas in ("n2", "o2"):
        col = table.values[:, GAS_NAMES.index(gas)]
        assert mannwhitneyu(col[healthy], col[faulty]).pvalue > 0.01


def test_latent_factor_correlates_gases_within_class():
    table = generate(default_profile(), 2000, seed=3)
    healthy = table.decisions == 0
    log_h2 = np.log(table.values[healthy, GAS_NAMES.index("h2")])
    log_ch4 = np.log(table.values[healthy, GAS_NAMES.index("ch4")])
    corr = np.corrcoef(log_h2, log_ch4)[0, 1]
    assert corr > 0.8


def test_default_profile_supports_the_binning_baseline():
    # the shipped profile is tuned so the plain 2-cut equal-frequency
    # pipeline already classifies well, leaving the searched cuts headroom
    table = generate(default_profile(), 2000, seed=1)
    train, test = split(table, SplitSpec(train_fraction=0.7, seed=1))
    report = evaluate_pipeline(train, test, efb_cuts(train, 2))
    assert 0.75 <= report.accuracy <= 0.95


def test_profile_json_roundtrip(tmp_path):
    profile = default_profile()
    payload = profile_to_json(profile)
    assert profile_from_json(payload) == profile
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(payload))
    assert load_profile(path) == profile


def test_profile_requires_exact_gas_set():
    profile = default_profile()
    gases = dict(profile.gases)
    del gases["o2"]
    with pytest.raises(ValueError, match="gases"):
        GasProfile(gases=gases, fault_fraction=0.5, latent_weight=0.9)
    reordered = dict(reversed(list(profile.gases.items())))
    with pytest.raises(ValueError, match="gases"):
        GasProfile(gases=reordered, fault_fraction=0.5, latent_weight=0.9)


def test_profile_parameter_bounds():
    gases = default_profile().gases
    for fraction in (0.0, 1.0):
        with pytest.raises(ValueError, match="fault_fraction"):
            GasProfile(gases=gases, fault_fraction=fraction, latent_weight=0.9)
    for weight in (-0.1, 1.0):
        with pytest.raises(ValueError, match="latent_weight"):
            GasProfile(gases=gases, fault_fraction=0.5, latent_weight=weight)


def test_gas_distribution_must_be_positive():
    with pytest.raises(ValueError, match="positive"):
        GasDistribution(0.0, 1.0, 2.0, 1.0)
    with pytest.raises(ValueError, match="positive"):
        GasDistribution(1.0, 1.0, 2.0, -0.5)


def test_fault_fraction_shifts_class_mix():
    profile = default_profile()
    rare = GasProfile(gases=profile.gases, fault_fraction=0.2, latent_weight=profile.latent_weight)
    table = generate(rare, 1000, seed=2)
    _, ones = table.class_counts()
    assert abs(ones / 1000 - 0.2) <= 0.05
