"""Hosts from the paper's own distribution, stored as flip-word triples.

Each entry is (n, seed, (a, b, c)): the flip words of alpha, beta and
gamma (n - 1 bits each, sampler._word_to_runs) of the pair that
rejection_sample_fast(n, random.Random(seed), 10**9) returns.  decode
rebuilds the quadrangulation with n faces and its even Schnyder
decomposition from the words in milliseconds; finding them took 0.05 s
(n = 60) and 0.2 s (n = 120) each on a 2-core machine.  No map is stored.
"""

from schnyder_kit.sampler import _triple_from_words

SAMPLED_HOSTS = [
    (60, 0, (0x38ad112c584ebf, 0x55cb393f03df146, 0x496a1989ae1ff57)),
    (60, 1, (0x105c0f8676e17ef, 0x30790337dcf2924, 0x470a7701c347fd)),
    (120, 0, (0x9255b5d7037db9a87398e6dc6e497,
              0x6d717212465670d0b8d334a2e127dc,
              0x135948aaaa11c63c69152f3451a7bd)),
    (120, 1, (0x4eaa4b2d8d107484a146f4d54b7d7,
              0x61cc06bfe118415ee5ccedff685c3c,
              0x4e040c950f274ee86f330ebedef1de)),
]


def triple(entry):
    """The EncodingTriple of a catalogue entry."""
    n, _, (a, b, c) = entry
    return _triple_from_words(a, b, c, n)
