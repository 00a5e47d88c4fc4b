"""Golden records: SHA-256 pins of sampled count records.

A given (seed, M, replication) must give the same record bit for bit, across
refactors of the sampler.  The hashes were computed with the sequential-search
sampler over little-endian int64 counts; a change that moves any of them
changes every downstream estimate, and must say so.
"""

import hashlib
import math

import numpy as np
import pytest

from kennedyrx.montecarlo import SimConfig, run_discrimination, sample_counts, stream
from kennedyrx.photonstats import DetectorPlaneAmplitudes

GAMMAS = {"0": 0.0, "0.5": 0.5, "pi/4": math.pi / 4}
AMPS = {"sqrt2": (math.sqrt(2.0), math.sqrt(2.0)), "1,0.5": (1.0, 0.5), "3": (3.0, 3.0)}

# (gamma, (a, b), M, replication, sha256 of the counts) at phi* = 0.3, seed 11
GOLDEN = [
    ("0", "sqrt2", 100, 0, "a72845eb9808600314780b7b2a72452bf1c280d19dc55f5a88ab2ab5018da595"),
    ("0", "sqrt2", 100, 7, "905e9371c00abc6558a6cb93522f317aff14d5e28754f72dc57550499e680373"),
    ("0", "sqrt2", 30000, 0, "d46645533ba87c81c04c1b49c0f1540266714a8c15a928b592442727e93509fb"),
    ("0", "sqrt2", 30000, 7, "b9981ba7f806cad6f1407d09e2f7782d16d3a59c9cd2c2d6f988b384409f7f11"),
    ("0", "1,0.5", 100, 0, "097536242a671c6f5909261fdcb9a90180e357f5d33046df584d7fa6f2097a6e"),
    ("0", "1,0.5", 100, 7, "76d0c00d6fc479d83840ceaf1ade5b4ea5ed973e80e380fdbf9f06d8f98df32d"),
    ("0", "1,0.5", 30000, 0, "24b75dd792a95c7d0336ddfd76754299d80755fb5124a964dabe2e7c21b5ad5c"),
    ("0", "1,0.5", 30000, 7, "d4f490961d02bdb88e36691f618d6620b3df4b9dd41cc3174a182019bcf72524"),
    ("0", "3", 100, 0, "439306c15a976408366eef4b3ec9d9e10e4633f832b48c1c8773fad57bc34eb4"),
    ("0", "3", 100, 7, "5432396adbb32c93f7a90be93d65d3224ef98c1cdd8fb5a7cb712a8971c17ffd"),
    ("0", "3", 30000, 0, "0b96a733b72f3f81e600a60f1e660fa19683525801209816d40df3f92197ada0"),
    ("0", "3", 30000, 7, "369bf96601d695be661ec13ab29678e19a41789bbb35e305ebcc77c4259cbcc2"),
    ("0.5", "sqrt2", 100, 0, "c03fb21645196ec6d213e6380688997b8b8fc243c4b93ade4ccb83ca9bb165f3"),
    ("0.5", "sqrt2", 100, 7, "6627dd9d4d4f0b53c06978a7896dd3d4c8df1e521215dd352c53477aff2213cc"),
    ("0.5", "sqrt2", 30000, 0, "b466b3a48088efc3fdfd540b137874020243d597af23500f24ce86b2ad4c09d8"),
    ("0.5", "sqrt2", 30000, 7, "33372482ca6a9c33640f7a8751be7f53c8751c8604deeb8adeb7dc3ffb2ab020"),
    ("0.5", "1,0.5", 100, 0, "5018ab9966c65cfa942ff06c842ef05104bad5091bc7986f6775689f0bd914df"),
    ("0.5", "1,0.5", 100, 7, "2327ce92618c78467a4d9415469a6a63484700a1422421335340d1e8def72bdc"),
    ("0.5", "1,0.5", 30000, 0, "8fca1606ee914e995a9a9e596bd8c35e0f170bbefa23ff46a2796ed5c7e98524"),
    ("0.5", "1,0.5", 30000, 7, "40dfa4397b7e8bee94cb4f473c25113f16142538815d6850a828a3bc62dc8200"),
    ("0.5", "3", 100, 0, "76567361cc0a1d34e7e07d4d83d09dd17f3325336e220b85003886526882b0fe"),
    ("0.5", "3", 100, 7, "76dcebc54df48e2aa6b70630c853e439b5f06578ab721f21c69c6f487810d101"),
    ("0.5", "3", 30000, 0, "61fe81972da21f11b5541ff6597f027bcc839a35a623167f9a7bc7a90d3ee541"),
    ("0.5", "3", 30000, 7, "8710a3dddac0d7612e503f471faee83bd530fd68810056a5e9b27a3298fef101"),
    ("pi/4", "sqrt2", 100, 0, "c85d89c0d399a6a11e55706fe8f73bdf48d4cd6b634b3ca207fae68f8f1f91e7"),
    ("pi/4", "sqrt2", 100, 7, "2785062b1d2ab079a3826082ffb4e9171228f9120acb65895ee8bf8fb73ab19a"),
    ("pi/4", "sqrt2", 30000, 0, "7da34aa8ad17505d917c1d6e019d9b10d376739e503893cba0c6518c39a9c6dd"),
    ("pi/4", "sqrt2", 30000, 7, "fd91dee29e2575bcb9f15f21a59ea255d23268f8c553255c9b196fede5f9eda3"),
    ("pi/4", "1,0.5", 100, 0, "3ef3d5a4d1dbf8db3a65787fc91d4d25c10c874f05880edca5e5b2f656f3def9"),
    ("pi/4", "1,0.5", 100, 7, "80838d0ed249cc77191a4670415e208630549844133af2899ed33716f9756895"),
    ("pi/4", "1,0.5", 30000, 0, "f0396e852a83e037090a15fdfa0f84a4a895156fd11bd4dbd0cd376a9fd935bc"),
    ("pi/4", "1,0.5", 30000, 7, "bc638a26afa3bca80574464c9abe0e585f3c190d09e377154bc1a1a3c70cf178"),
    ("pi/4", "3", 100, 0, "87d4ccf85921f162b889f14d000d106394a0f6ae1deda133cda151d3aac5ae8e"),
    ("pi/4", "3", 100, 7, "c82def0c7917e1e7565043bc7e42d6aff9ea4dec11db64e17c398af7b298907a"),
    ("pi/4", "3", 30000, 0, "e4b7aaf591835b1b728b9fd8cfb642f356935620fa8ee636da1e2e9ee4a47e61"),
    ("pi/4", "3", 30000, 7, "05e40412067c9230b203d1e7761d7a1a1ef8f59cabb914e9bc336556c338cd82"),
]


def _digest(counts: np.ndarray) -> str:
    return hashlib.sha256(counts.astype("<i8").tobytes()).hexdigest()


# (a = b, phi*, replication, sha256 of the counts) at gamma = 0, M = 1000, seed 11:
# nu+ of about 766 and 1566 takes the log-space terms; a = b at phi* = 0 has nu- = 0
GOLDEN_LARGE_AND_ZERO_MEAN = [
    (14.0, 0.3, 0, "39c0c12e6743ea9de796de1f3b9339ff5d5accf8e722e97d24ec4e685150fa9a"),
    (14.0, 0.3, 7, "f70eaf68ca7a5383562416744331fc3594777ed5800b57be7ef52903f2bb68e5"),
    (20.0, 0.3, 0, "ec865631228a30d45389eed8e3b4a3dcfd3821e8d318a1ff160f77060af8700c"),
    (20.0, 0.3, 7, "c0a1c7f7500c406652a8dc66640b9f0f44990495163cd0f0b8f7c29369220493"),
    (1.0, 0.0, 0, "41d904371511c743cfd9c10a90561df057cdd12a23b3837824d93f50f025cbdb"),
    (1.0, 0.0, 7, "08737084e5d9f4df685ca52ae9b0074197658d320d7a97041d7201792cb7824b"),
]


@pytest.mark.parametrize("gamma,ab,m,rep,digest", GOLDEN)
def test_record_is_pinned(gamma, ab, m, rep, digest):
    a, b = AMPS[ab]
    cfg = SimConfig(
        amps=DetectorPlaneAmplitudes(a=a, b=b), phi_star=0.3, M=m, seed=11, gamma=GAMMAS[gamma]
    )
    assert _digest(sample_counts(cfg, replication=rep).counts) == digest


@pytest.mark.parametrize("ab,phi,rep,digest", GOLDEN_LARGE_AND_ZERO_MEAN)
def test_large_and_zero_mean_record_is_pinned(ab, phi, rep, digest):
    cfg = SimConfig(amps=DetectorPlaneAmplitudes(a=ab, b=ab), phi_star=phi, M=1000, seed=11)
    assert _digest(sample_counts(cfg, replication=rep).counts) == digest


@pytest.mark.parametrize("gamma,n_errors", [(0.0, 1676), (0.5, 1730)])
def test_discrimination_error_count_is_pinned(gamma, n_errors):
    cfg = SimConfig(
        amps=DetectorPlaneAmplitudes(a=1.0, b=1.0), phi_star=0.4, M=20_000, seed=12, gamma=gamma
    )
    bits = stream(12, 1).integers(0, 2, size=cfg.M)
    assert run_discrimination(cfg, bits).n_errors == n_errors


def test_large_mean_discrimination_error_count_is_pinned():
    # nu+ of about 784 takes the log-space terms
    cfg = SimConfig(amps=DetectorPlaneAmplitudes(a=14.0, b=14.0), phi_star=0.05, M=20_000, seed=12)
    bits = stream(12, 1).integers(0, 2, size=cfg.M)
    assert run_discrimination(cfg, bits).n_errors == 3835
