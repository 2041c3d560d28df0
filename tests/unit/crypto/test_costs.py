"""The crypto cost model."""

from repro.crypto.costs import CryptoCosts


def test_signature_dwarfs_mac():
    """The asymmetry that drives the paper's Table 1."""
    costs = CryptoCosts()
    assert costs.sign_ns > 50 * costs.mac_ns
    assert costs.verify_ns > costs.mac_ns


def test_digest_cost_grows_with_size():
    costs = CryptoCosts()
    assert costs.digest_cost(4096) > costs.digest_cost(64) > 0


def test_authenticator_cost_is_per_replica():
    costs = CryptoCosts()
    assert costs.authenticator_cost(4) == 4 * costs.mac_ns
